"""CLI contract: exit codes, report documents, determinism, config validation."""

import gc
import json
import subprocess
import sys
import weakref

import pytest
from jsonschema import Draft202012Validator

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
from fbmink.cli import load_schema, main


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
    # the CLI validates configs with a prebuilt validator and skips this check
    Draft202012Validator.check_schema(load_schema())


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
    bundles, built = [], []    # every bundle (level, weakref); per converge-level bundle,
    init = quadrature.ScenarioNodes.__init__    # the converge levels then still alive

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        level = self._rule.level
        if level in levels:
            built.append((level, {lv for lv, ref in bundles if ref() is not None}))
            bundles.append((level, weakref.ref(self)))

    monkeypatch.setattr(quadrature.ScenarioNodes, "__init__", tracking)
    cfg = write_config(tmp_path, {"version": 1, "support": {"kind": "euclidean_sphere"},
                                  "perturbation": {"epsilon": 0.05},
                                  "converge": {"levels": levels}})
    gc.disable()
    try:
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "c.json")]) == 0
    finally:
        gc.enable()
    # per level the base copy's bundle, then the perturbed copy's, which reads it
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
