"""The package's public names."""

import fbmink


def test_every_exported_name_resolves_once():
    names = fbmink.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fbmink, name)]
    assert missing == []
