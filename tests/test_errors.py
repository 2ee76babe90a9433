"""Package errors: each survives pickle and copy, as a process pool carries it back."""

import copy
import pickle

import pytest

from fbmink import errors

ERROR_TYPES = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.FbminkError)]


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("roundtrip", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy],
                         ids=["pickle", "copy"])
def test_error_survives_pickle_and_copy(cls, roundtrip):
    if cls is errors.ValidationFailed:
        err = cls("boundary_orthogonality", "max |<nu, N>| = 3.2e-09")
        assert str(err) == "boundary_orthogonality: max |<nu, N>| = 3.2e-09"
    else:
        err = cls("min det g = 2.039e-13")
    back = roundtrip(err)
    assert type(back) is cls
    assert str(back) == str(err)
    assert getattr(back, "check", None) == getattr(err, "check", None)
