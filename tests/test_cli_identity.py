"""The excerpts tools/cli_identity.py prints of a stream that differs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_identity.py"
_SPEC = importlib.util.spec_from_file_location("cli_identity", _PATH)
cli_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_identity)


def test_excerpts_start_shortly_before_the_first_difference():
    # a margin's last digits change early in a long stdout whose tail is the same
    head, tail = b"x" * 1000, b"y" * 1000
    old, new = head + b"0.2007245552021205" + tail, head + b"0.2007245552021203" + tail
    a, b = cli_identity.excerpts(old, new)
    assert len(a) == len(b) == cli_identity.EXCERPT
    assert b"x" + b"0.2007245552021205" in a and b"x" + b"0.2007245552021203" in b


def test_excerpts_of_a_stream_that_ends_early_start_at_its_end():
    a, b = cli_identity.excerpts(b"abc", b"abcdef")
    assert (a, b) == (b"abc", b"abcdef")
    a, b = cli_identity.excerpts(b"z" * 100 + b"!", b"z" * 100)
    assert (a, b) == (b"z" * 60 + b"!", b"z" * 60)
