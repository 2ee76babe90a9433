"""CLI contract: exit codes, report documents, determinism, config validation."""

import copy
import gc
import json
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import fbmink.quadrature as quadrature
from fbmink import (
    PerturbationSpec,
    QuadratureRule,
    default_cap_spec,
    hypothesis_audit,
    make_perturbed_cap,
    make_support,
    make_umbilical_cap,
    minkowski_report,
    region_margins,
    validate_scenario,
)
from fbmink.cli import _best_error, _schema_errors, load_schema, main


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_default_minkowski_report(capsys):
    code, out, err = run_cli(["minkowski"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["command"] == "minkowski"
    assert doc["results"]["theorem_id"] == "Minkowski"
    assert doc["results"]["equality_flag"] is True
    assert isinstance(doc["generated_unix_time"], int)


def test_report_json_keys_are_sorted(capsys):
    _, out, _ = run_cli(["af"], capsys)
    doc = json.loads(out)
    assert list(doc) == sorted(doc)
    assert list(doc["results"]) == sorted(doc["results"])


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["minkowski", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "ok"


def test_level_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1, "quadrature": {"level": 12}})
    _, out, _ = run_cli(["minkowski", "--config", cfg, "--level", "8"], capsys)
    doc = json.loads(out)
    assert doc["config"]["quadrature"]["level"] == 8
    assert doc["results"]["quadrature_meta"]["level"] == 8


@pytest.mark.parametrize("flags, field", [
    (["--seed", "-1"], "seed"),
    (["--level", "1"], "quadrature/level"),
    (["--level", "65"], "quadrature/level"),
    (["--tolerance", "0"], "tolerance"),
    (["--tolerance", "nan"], "tolerance"),
    (["--tolerance", "inf"], "tolerance"),
])
def test_flags_obey_schema_bounds(flags, field, capsys):
    code, out, err = run_cli(["identities"] + flags, capsys)
    assert code == 2
    assert out == ""
    assert f"config invalid at {field}" in err


def test_tilted_cap_exits_2_naming_orthogonality(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1, "cap": {"tilt": 0.2}})
    code, _, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 2
    assert "boundary_orthogonality" in err


def test_schema_violation_exits_2_with_field_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1, "n": 99})
    code, _, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 2
    assert "config invalid at n" in err

    cfg = write_config(tmp_path, {"version": 1, "sweep": {"epsilons": []}})
    code, _, err = run_cli(["sweep", "--config", cfg], capsys)
    assert code == 2
    assert "sweep/epsilons" in err

    # the schema passes these; the loader and the converge runner reject them
    for command, payload, field in [
        ("minkowski", {"cap": {"radius": float("nan")}}, "cap/radius"),
        ("minkowski", {"cap": {"tilt": float("inf")}}, "cap/tilt"),
        ("sweep", {"sweep": {"epsilons": [0.02, float("-inf")]}}, "sweep/epsilons/1"),
        ("converge", {"converge": {"levels": [12, 8, 16]}}, "converge/levels"),
        ("converge", {"converge": {"levels": [8, 8]}}, "converge/levels"),
    ]:
        cfg = write_config(tmp_path, {"version": 1, **payload})
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert f"config invalid at {field}" in err


@pytest.mark.parametrize("cap, message", [
    ({"axis": [0, 1]}, "axis must be a nonzero finite vector of 3 components"),
    ({"axis": [0, 0, 0]}, "axis must be a nonzero finite vector of 3 components"),
    ({"center_shift": [0.1]}, "center_shift needs 2 finite components"),
])
def test_malformed_cap_placement_exits_2(cap, message, tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1, "cap": cap})
    code, out, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert message in err


def test_shipped_schema_is_valid_against_metaschema():
    # the CLI's in-package reader assumes a well-formed schema; jsonschema checks it here
    Draft202012Validator.check_schema(load_schema())


# -- the in-package schema reader against jsonschema ---------------------------

FULL_CONFIG = {
    "version": 1, "n": 3,
    "support": {"kind": "hyp_geodesic_sphere", "params": {"chart_radius": 0.5}},
    "cap": {"radius": 0.3, "tilt": 0.0, "center_distance": None, "axis": [0, 0, 1],
            "center_shift": [0.1, 0.0]},
    "perturbation": {"epsilon": 0.05, "power": 3},
    "quadrature": {"level": 12},
    "tolerance": 1e-9, "equality_tolerance": 1e-6, "seed": 0, "samples": 10,
    "sweep": {"epsilons": [0.02, 0.04], "theorem": "af", "power": 4},
    "converge": {"levels": [8, 12], "theorem": "schur"},
    "reilly": {"functions": ["V", "x1", "x12^2"]},
}
DROP = object()

# (path into FULL_CONFIG, new value or DROP): each breaks at most one keyword, or
# sits on the accepting side of one (1.0 for 1, null where null is allowed)
SINGLE_FAULTS = [
    ((), []), ((), "x"), ((), None), ((), True), ((), 1.0),
    (("version",), DROP), (("version",), True), (("version",), 2), (("version",), 1.0),
    (("version",), "1"), (("capp",), {}), (("Capp",), 1),
    (("n",), "3"), (("n",), 99), (("n",), 1), (("n",), 4.0), (("n",), 4.5), (("n",), 7.5),
    (("n",), True), (("n",), False), (("n",), None), (("n",), 6), (("n",), 2.0),
    (("support",), []), (("support",), {}), (("support", "kind"), "nope"),
    (("support", "kind"), 1), (("support", "kind"), True), (("support", "extra"), 0),
    (("support", "params"), []), (("support", "params"), {}), (("support", "params", "x"), 1),
    (("support", "params", "chart_radius"), 1), (("support", "params", "chart_radius"), 1.0),
    (("support", "params", "chart_radius"), 0), (("support", "params", "chart_radius"), -1),
    (("support", "params", "chart_radius"), True), (("support", "params", "chart_radius"), "a"),
    (("support", "params", "radius"), 0), (("support", "params", "geodesic_radius"), 0.0),
    (("support", "params", "theta"), -0.5),
    (("cap",), "x"), (("cap", "capp"), 1), (("cap", "radius"), 0), (("cap", "radius"), True),
    (("cap", "tilt"), "a"), (("cap", "tilt"), None), (("cap", "center_distance"), 0),
    (("cap", "center_distance"), 1), (("cap", "center_distance"), "a"),
    (("cap", "axis"), None), (("cap", "axis"), [1]), (("cap", "axis"), "x"),
    (("cap", "axis"), [1, "a"]), (("cap", "axis"), [1, True]), (("cap", "axis"), [1.0, 2]),
    (("cap", "center_shift"), []), (("cap", "center_shift"), [False]),
    (("perturbation",), None), (("perturbation",), {}), (("perturbation",), []),
    (("perturbation", "epsilon"), "x"), (("perturbation", "epsilon"), False),
    (("perturbation", "power"), 2), (("perturbation", "power"), 13), (("perturbation", "power"), 3.0),
    (("perturbation", "power"), 3.5), (("perturbation", "power"), True), (("perturbation", "x"), 0),
    (("quadrature",), None), (("quadrature", "level"), 1), (("quadrature", "level"), 65),
    (("quadrature", "level"), 12.0), (("quadrature", "level"), "12"), (("quadrature", "lvl"), 8),
    (("tolerance",), 0), (("tolerance",), -1), (("tolerance",), True), (("tolerance",), "x"),
    (("tolerance",), 1), (("equality_tolerance",), 0.0), (("equality_tolerance",), None),
    (("seed",), -1), (("seed",), 1.5), (("seed",), True), (("seed",), 7.0),
    (("samples",), 0), (("samples",), 100001), (("samples",), 1.0), (("samples",), []),
    (("sweep",), {}), (("sweep",), []), (("sweep", "epsilons"), []),
    (("sweep", "epsilons"), [0.01] * 1001), (("sweep", "epsilons"), [0.01] * 1000),
    (("sweep", "epsilons"), ["a"]), (("sweep", "epsilons"), [True]), (("sweep", "epsilons"), 0.1),
    (("sweep", "theorem"), "reilly"), (("sweep", "theorem"), None), (("sweep", "power"), 2),
    (("sweep", "power"), 12.5), (("sweep", "jobs"), 2),
    (("converge", "levels"), [8]), (("converge", "levels"), list(range(8, 25))),
    (("converge", "levels"), list(range(8, 24))), (("converge", "levels"), [8, 65]),
    (("converge", "levels"), [1, 8]), (("converge", "levels"), [8, 12.0]),
    (("converge", "levels"), [8, 12.5]), (("converge", "levels"), [8, True]),
    (("converge", "levels"), "8"), (("converge", "theorem"), "reilly"), (("converge", "x"), 0),
    (("reilly", "functions"), []), (("reilly", "functions"), ["y"]),
    (("reilly", "functions"), ["V"] * 33), (("reilly", "functions"), ["V"] * 32),
    (("reilly", "functions"), [1]), (("reilly", "functions"), ["x1^3"]),
    (("reilly", "functions"), [" V"]), (("reilly", "functions"), ["x"]),
    (("reilly", "functions"), ["x1^2\n"]), (("reilly",), {"functions": ["V"], "x": 0}),
    (("reilly",), []),
]


def mutated(path, value):
    if not path:
        return value
    cfg = copy.deepcopy(FULL_CONFIG)
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return cfg


def jsonschema_errors(cfg):
    return [(tuple(e.absolute_path), e.message)
            for e in Draft202012Validator(load_schema()).iter_errors(cfg)]


def test_full_config_is_accepted():
    assert list(_schema_errors(FULL_CONFIG, load_schema())) == jsonschema_errors(FULL_CONFIG) == []


@pytest.mark.parametrize("path, value", SINGLE_FAULTS,
                         ids=[f"{'/'.join(p) or 'root'}={v!r:.24}" for p, v in SINGLE_FAULTS])
def test_schema_reader_matches_jsonschema_on_single_faults(path, value):
    cfg = mutated(path, value)
    ours = list(_schema_errors(cfg, load_schema()))
    assert ours == jsonschema_errors(cfg)
    theirs = best_match(Draft202012Validator(load_schema()).iter_errors(cfg))
    expected = None if theirs is None else (tuple(theirs.absolute_path), theirs.message)
    assert _best_error(ours) == expected


# configs with several faults, and the one error the CLI reports for each: the
# shallowest, then the one whose path sorts last, then the first in schema order
MULTI_FAULTS = [
    ({"version": 1, "n": 99, "tolerance": 0},
     (("tolerance",), "0 is less than or equal to the minimum of 0")),
    ({"version": 1, "capp": 1, "n": 99},
     ((), "Additional properties are not allowed ('capp' was unexpected)")),
    ({"n": 3, "x": 1, "y": 2}, ((), "Additional properties are not allowed ('x', 'y' were unexpected)")),
    ({"version": 1, "n": 99, "cap": {"radius": 0}}, (("n",), "99 is greater than the maximum of 6")),
    ({"version": 2, "n": 7.5}, (("version",), "1 was expected")),
    ({"version": 1, "n": 7.5}, (("n",), "7.5 is not of type 'integer'")),
    ({"version": 1, "converge": {"levels": [1, 65]}},
     (("converge", "levels", 1), "65 is greater than the maximum of 64")),
]


@pytest.mark.parametrize("cfg, expected", MULTI_FAULTS)
def test_schema_reader_reports_jsonschemas_best_match(cfg, expected):
    assert _best_error(_schema_errors(cfg, load_schema())) == expected
    theirs = best_match(Draft202012Validator(load_schema()).iter_errors(cfg))
    assert (tuple(theirs.absolute_path), theirs.message) == expected


def fitting(schema):
    """Values that satisfy ``schema``'s own keywords, with ``near`` values inside."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    options = [st.sampled_from(schema[key] if key == "enum" else [schema[key]])
               for key in ("enum", "const") if key in schema]
    if "null" in types:
        options.append(st.none())
    if "object" in types:
        fields = {name: near(sub) for name, sub in schema.get("properties", {}).items()}
        required = schema.get("required", [])
        options.append(st.fixed_dictionaries(
            {name: fields[name] for name in required},
            optional={name: f for name, f in fields.items() if name not in required}))
    if "array" in types:
        options.append(st.lists(near(schema["items"]), min_size=schema.get("minItems", 0),
                                max_size=min(schema.get("maxItems", 6), 6)))
    if "string" in types:
        options.append(st.from_regex(schema["pattern"], fullmatch=True))
    if "integer" in types:
        ints = st.integers(schema.get("minimum", -10), schema.get("maximum", 100))
        options += [ints, ints.map(float)]
    if "number" in types:
        low = schema.get("minimum", schema.get("exclusiveMinimum"))
        high = schema.get("maximum", schema.get("exclusiveMaximum"))
        options.append(st.floats(low, high, exclude_min="exclusiveMinimum" in schema,
                                 exclude_max="exclusiveMaximum" in schema,
                                 allow_nan=False, allow_infinity=False))
    return st.one_of(*options)


def near(schema):
    """Values of which about one in eight breaks a keyword of ``schema`` itself."""
    names = [*schema.get("properties", ()), "capp"]
    broken = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 70), st.text(alphabet="Vx12^y", max_size=4),
        st.sampled_from([0.0, 1.0, 4.0, 0.5, -1.5, 64.0, 1e-9, 1e6]),
        st.dictionaries(st.sampled_from(names), st.integers(0, 3), max_size=2),
        st.lists(st.sampled_from([0, 1.0, True, "V"]), max_size=3))
    return st.integers(0, 7).flatmap(lambda i: broken if i == 0 else fitting(schema))


@settings(max_examples=300, deadline=None)
@given(cfg=near(load_schema()))
def test_schema_reader_matches_jsonschema_on_generated_configs(cfg):
    # every error, in order: the same accept or reject, and the same path and message
    ours = list(_schema_errors(cfg, load_schema()))
    assert ours == jsonschema_errors(cfg)


@pytest.mark.parametrize("where, keyword", [
    ((), {"anyOf": [{"type": "object"}]}),
    ((), {"description": "not an annotation the reader knows"}),
    (("properties", "n"), {"multipleOf": 1}),
    (("properties", "sweep", "properties", "epsilons"), {"uniqueItems": True}),
    (("properties", "cap"), {"additionalProperties": True}),
])
def test_schema_reader_rejects_unsupported_keywords(where, keyword):
    schema = load_schema()
    node = schema
    for key in where:
        node = node[key]
    node.update(keyword)
    with pytest.raises(ValueError, match="is not supported"):
        list(_schema_errors(FULL_CONFIG, schema))


def test_cli_imports_neither_jsonschema_nor_a_thread_pool():
    code = ("import sys, fbmink.cli\n"
            "assert fbmink.cli.main(['af']) == 0\n"
            "print(sorted({'jsonschema', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1, "capp": {}})
    code, _, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 2
    assert "config invalid" in err


def test_wrong_support_parameter_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "version": 1,
        "support": {"kind": "euclidean_plane", "params": {"radius": 2.0}},
    })
    code, _, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 2
    assert "support" in err

    # two radii for one geodesic sphere are ambiguous
    cfg = write_config(tmp_path, {
        "version": 1,
        "support": {"kind": "hyp_geodesic_sphere",
                    "params": {"geodesic_radius": 1.2, "chart_radius": 0.5}},
    })
    code, _, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 2
    assert "exactly one of geodesic_radius, chart_radius" in err


@pytest.mark.parametrize("kind", ["hyp_geodesic_sphere", "sph_geodesic_sphere"])
def test_geodesic_radius_that_underflows_exits_2(kind, tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1, "support": {
        "kind": kind, "params": {"geodesic_radius": 5e-324}}})
    code, out, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert f"support configuration rejected: {kind}: geodesic radius too small" in err


def test_cap_whose_squared_t_max_rounds_apart_builds(tmp_path, capsys):
    # its t_max squares differently by pow and by multiplication; the bump still vanishes
    # on the ring, so the profile check passes
    cfg = write_config(tmp_path, {"version": 1, "support": {"kind": "euclidean_sphere"},
                                  "cap": {"radius": 14.046895}, "perturbation": {"epsilon": 0.001}})
    code, out, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "ok"


@pytest.mark.parametrize("radius, shift", [(5e3, -3e4), (2e4, -1e5), (2e5, -1e6)])
def test_far_center_shift_stays_on_the_support_plane(radius, shift, tmp_path, capsys):
    # rounding alone puts the shifted anchor about 1e-16 |anchor| off the equidistant
    # plane (1.46e-12 at a shift of -3e4), so the plane test scales with |anchor|
    cfg = write_config(tmp_path, {"version": 1, "support": {"kind": "equidistant"},
                                  "cap": {"radius": radius, "center_shift": [shift, 0]}})
    code, out, err = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "ok"


def test_unreadable_and_malformed_configs_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["minkowski", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["minkowski", "--config", str(bad)], capsys)
    assert code == 2


def test_csv_only_valid_for_sweep(capsys):
    code, _, err = run_cli(["minkowski", "--format", "csv"], capsys)
    assert code == 2
    assert "sweep" in err


def test_sweep_csv_header_and_rows(capsys):
    code, out, _ = run_cli(["sweep"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,deficit,relative_deficit,min_convexity_eig"
    assert len(lines) == 6  # default grid has five entries
    for line in lines[1:]:
        eps, deficit, rel, conv = map(float, line.split(","))
        assert deficit > 0.0
        assert rel > 0.0
        assert conv >= 0.0
    # rows keep config order: epsilon ascending as configured
    eps_col = [float(l.split(",")[0]) for l in lines[1:]]
    assert eps_col == sorted(eps_col)


def test_sweep_deterministic_across_jobs(tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    out8 = tmp_path / "s8.csv"
    assert main(["sweep", "--jobs", "1", "--out", str(out1)]) == 0
    assert main(["sweep", "--jobs", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["euclidean_sphere", "euclidean_plane"])
def test_sweep_rows_match_fresh_caps(tmp_path, kind, jobs):
    # rows built on one shared base cap equal, bit for bit, those of a fresh cap per epsilon
    epsilons = [0.04, 0.0, -0.03, 0.06]
    cfg = write_config(tmp_path, {"version": 1, "support": {"kind": kind},
                                  "quadrature": {"level": 12}, "sweep": {"epsilons": epsilons}})
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--format", "json", "--jobs", str(jobs),
                 "--out", str(out)]) == 0
    spec = default_cap_spec(make_support(kind, 3))
    rule = QuadratureRule(12)
    expected = []
    for eps in epsilons:
        sc = (make_umbilical_cap(spec) if eps == 0.0
              else make_perturbed_cap(spec, PerturbationSpec(epsilon=eps)))
        validate_scenario(sc)
        report = minkowski_report(sc, rule)
        expected.append({"epsilon": eps, "deficit": report.deficit,
                         "relative_deficit": report.relative_deficit,
                         "min_convexity_eig": hypothesis_audit(sc, rule).convexity_min})
    rows = json.loads(out.read_text())["results"]
    assert json.dumps(rows, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_converge_frees_each_level_before_the_next(tmp_path, monkeypatch):
    # a perturbed cap's copy per level comes with a copy of its base, so neither
    # keeps one level's nodes alive while the next level's are built
    levels = [10, 12, 16, 20]
    node_sets, built = [], []    # every surface node set (level, weakref); per converge-level
    init = quadrature.SurfaceQuadrature.__init__    # set, the converge levels then still alive

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        level = self.rule.level
        if level in levels:
            built.append((level, {lv for lv, ref in node_sets if ref() is not None}))
            node_sets.append((level, weakref.ref(self)))

    monkeypatch.setattr(quadrature.SurfaceQuadrature, "__init__", tracking)
    cfg = write_config(tmp_path, {"version": 1, "support": {"kind": "euclidean_sphere"},
                                  "perturbation": {"epsilon": 0.05},
                                  "converge": {"levels": levels}})
    gc.disable()
    try:
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "c.json")]) == 0
    finally:
        gc.enable()
    # per level the perturbed copy's cap, then the base copy's face, which it reads
    assert [level for level, _ in built] == [lv for lv in levels for _ in range(2)]
    assert all(alive <= {level} for level, alive in built)


def test_json_report_deterministic_modulo_timestamp(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["sweep", "--format", "json", "--jobs", "1", "--out", str(a)]) == 0
    assert main(["sweep", "--format", "json", "--jobs", "8", "--out", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    da.pop("generated_unix_time")
    db.pop("generated_unix_time")
    assert da == db


def test_hypothesis_failure_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "version": 1,
        "perturbation": {"epsilon": 0.6, "power": 3},
    })
    code, out, _ = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "assertion_failure"
    assert doc["results"]["hypothesis_checks"]["convexity_min"] < 0.0
    # the inequality itself still holds; only a hypothesis is violated
    assert doc["results"]["deficit"] > 0.0


def test_hypothesis_checks_are_the_audit_and_region_margins(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1, "perturbation": {"epsilon": 0.05, "power": 3},
                                  "quadrature": {"level": 12}})
    code, out, _ = run_cli(["minkowski", "--config", cfg], capsys)
    assert code == 0
    sc = make_perturbed_cap(default_cap_spec(make_support("euclidean_plane", 3)),
                            PerturbationSpec(epsilon=0.05, power=3))
    expected = {**hypothesis_audit(sc, QuadratureRule(12)).to_dict(),
                "admissibility": region_margins(sc)}
    assert json.loads(out)["results"]["hypothesis_checks"] == json.loads(json.dumps(expected))


def test_schur_needs_dimension_four(tmp_path, capsys):
    code, _, err = run_cli(["schur"], capsys)
    assert code == 2
    assert "dimension" in err
    cfg = write_config(tmp_path, {"version": 1, "n": 4})
    code, out, _ = run_cli(["schur", "--config", cfg], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["results"]["lhs"]) <= 1e-10
    assert abs(doc["results"]["rhs"]) <= 1e-10


def test_identities_and_curvature_commands(capsys):
    code, out, _ = run_cli(["identities"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 8
    assert all(r["hessian_identity_residual"] <= 1e-10 for r in doc["results"])

    code, out, _ = run_cli(["curvature"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]["supports"]) == 8
    assert len(doc["results"]["models"]) == 4


def test_reilly_command_custom_functions(tmp_path, capsys):
    cfg = write_config(tmp_path, {"version": 1, "reilly": {"functions": ["V", "x2"]}})
    code, out, _ = run_cli(["reilly", "--config", cfg], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [r["function"] for r in doc["results"]] == ["V", "x2"]
    assert all(abs(r["residual"]) <= 1e-5 for r in doc["results"])


def test_converge_command_orders(capsys):
    code, out, _ = run_cli(["converge"], capsys)
    assert code == 0
    doc = json.loads(out)
    for key in ("weighted_area", "weighted_volume"):
        order = doc["results"][key]["observed_order"]
        assert order == "inf" or float(order) >= 3.0


def test_seed_flag_changes_sampled_points_not_status(capsys):
    code1, out1, _ = run_cli(["identities", "--seed", "1"], capsys)
    code2, out2, _ = run_cli(["identities", "--seed", "2"], capsys)
    assert code1 == code2 == 0
    d1 = json.loads(out1)
    d2 = json.loads(out2)
    assert d1["config"]["seed"] == 1
    assert d2["config"]["seed"] == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fbmink", "minkowski", "--level", "8"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"


def test_invalid_subcommand_is_argparse_error():
    proc = subprocess.run(
        [sys.executable, "-m", "fbmink", "frobnicate"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
