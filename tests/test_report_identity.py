"""The field comparison of tools/report_identity.py: what it names as changed."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_identity.py"
_SPEC = importlib.util.spec_from_file_location("report_identity", _PATH)
report_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_identity)
field_gaps = report_identity.field_gaps


def test_equal_results_have_no_gaps():
    row = {"reilly V": {"residual": 0.0, "boundary": {"cap": [1.5, "x"]}}, "build": None}
    assert field_gaps(row, {**row}) == {}


def test_numeric_leaf_reports_relative_and_absolute_gap_and_magnitude():
    gaps = field_gaps({"minkowski": {"lhs": 2.0}}, {"minkowski": {"lhs": 2.5}})
    assert list(gaps) == ["minkowski / lhs"]
    assert gaps["minkowski / lhs"] == pytest.approx((0.2, 0.5, 2.5))


@pytest.mark.parametrize("old, new, text", [(-0.0, 0.0, "-0.0 -> 0.0"), (0.0, -0.0, "0.0 -> -0.0")])
def test_zero_whose_sign_flipped_is_named(old, new, text):
    # -0.0 == 0.0, yet the two dump as different bytes
    a = {"reilly V": {"rhs_volume_static": old, "lhs_volume": 0.0}}
    b = {"reilly V": {"rhs_volume_static": new, "lhs_volume": 0.0}}
    assert field_gaps(a, b) == {"reilly V / rhs_volume_static": "sign of zero: " + text}


def test_changed_text_prints_old_and_new():
    a = {"build": ["InadmissiblePlacement", "half_region margin -1.013e-01"]}
    b = {"build": ["InadmissiblePlacement", "half_region margin -1.006e-01"]}
    assert field_gaps(a, b) == {
        "build[1]": '"half_region margin -1.013e-01" -> "half_region margin -1.006e-01"'}


def test_changed_type_key_set_or_length_prints_both_sides():
    assert field_gaps({"n": 1}, {"n": 1.0}) == {"n": "1 -> 1.0"}
    assert field_gaps({"a": {"x": 1}}, {"a": {"y": 1}}) == {"a": '{"x": 1} -> {"y": 1}'}
    assert field_gaps({"a": [1, 2]}, {"a": [1]}) == {"a": "[1, 2] -> [1]"}
    assert field_gaps({"ok": True}, {"ok": False}) == {"ok": "true -> false"}


def test_long_text_is_cut():
    gap = field_gaps({"m": "a" * 1000}, {"m": "b"})["m"]
    old, new = gap.split(" -> ")
    assert old.endswith("...") and len(old) == report_identity.TEXT_LIMIT + 3
    assert new == '"b"'


def test_nan_against_nan_is_equal_and_against_a_number_is_a_gap():
    # both dump as NaN, so only a change to or from NaN is a gap
    assert field_gaps({"x": math.nan}, {"x": math.nan}) == {}
    assert all(math.isnan(v) for v in field_gaps({"x": math.nan}, {"x": 1.0})["x"][:1])
