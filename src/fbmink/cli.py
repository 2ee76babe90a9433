"""Command line interface producing verification report documents.

    fbmink <subcommand> [--config FILE] [--out FILE] [--format json|csv]
           [--level N] [--seed N] [--tolerance X] [--jobs N]

Subcommands: identities, curvature, minkowski, af, schur, reilly, sweep,
converge.  Configuration comes from a JSON file; the --level, --seed and
--tolerance flags override its fields, and the result is checked against
the shipped scenario_config.v1 schema by a small in-package reader of the
keyword subset that schema uses (type, const, enum, the four numeric
bounds, required, properties, additionalProperties: false, items,
minItems, maxItems and pattern), with jsonschema's error paths and
messages.  Config fields override built-in defaults.

Reports are JSON documents with sorted keys; sweeps default to CSV rows
with a fixed header.  Identical configurations produce byte-identical
output up to the generated_unix_time field.  Exit status: 0 when every
check passed, 1 when a numeric assertion failed (negative deficit beyond
tolerance, failed hypothesis audit, nonfinite value, convergence order
below 3), 2 on configuration or scenario validation errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import operator
import re
import sys
import time
from importlib import resources
from typing import Optional

import numpy as np

from . import __version__
from .ambient import ModelKind, SpaceFormModel, sectional_curvature_probe
from .errors import ConfigError, FbminkError, IOFailure
from .families import (
    CapScenario,
    CapSpec,
    PerturbationSpec,
    default_cap_spec,
    make_perturbed_cap,
    make_umbilical_cap,
    perturb_cap,
    region_margins,
    validate_scenario,
)
from .inequalities import (
    DEFAULT_EQUALITY_TOL,
    REPORT_BUILDERS,
    hypothesis_audit,
    reilly_residual,
)
from .quadrature import QuadratureRule, default_level, refine_study
from .supports import (
    CANONICAL_SUPPORT_PARAMS,  # noqa: F401  re-exported; perfbench reads it from here
    SupportKind,
    make_support,
    sample_admissible_points,
    sample_support_points,
)
from .surfaces import support_umbilicity_residual
from .weights import hessian_identity_residual, neumann_identity_residual, weight_for_support

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_VALIDATION = 2

DEFAULT_SWEEP_EPSILONS = (0.02, 0.04, 0.06, 0.08, 0.10)
DEFAULT_CONVERGE_LEVELS = (8, 12, 16, 24)

MIN_CONVERGENCE_ORDER = 3.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmink",
        description="numerical verification reports for weighted free-boundary "
                    "inequalities on umbilical supports")
    parser.add_argument("command", choices=tuple(COMMANDS))
    parser.add_argument("--config", help="JSON scenario configuration file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), dest="fmt",
                        help="output format; csv is valid for sweep only")
    parser.add_argument("--level", type=int, help="quadrature nodes per axis")
    parser.add_argument("--seed", type=int, help="sampling seed")
    parser.add_argument("--tolerance", type=float,
                        help="pass/fail tolerance for the selected command")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; sweep rows always run one "
                             "after another on the calling thread")
    return parser


def load_schema() -> dict:
    text = resources.files("fbmink.schema").joinpath("scenario_config.v1.json").read_text()
    return json.loads(text)


# JSON types as the schema's draft defines them: booleans are not numbers, and
# an integer is any number with no fractional part, 4.0 included
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}
_ANNOTATIONS = ("$schema", "$id", "title")


def _json_equal(a, b) -> bool:
    """JSON equality of scalars: 1 equals 1.0, but true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way ``value`` breaks ``schema``, in the
    order and wording of jsonschema's Draft 2020-12 validator.

    Only the keywords the shipped config schema uses are read; any other
    raises ValueError, so the schema cannot outgrow this reader unnoticed.
    """
    is_number = _JSON_TYPES["number"](value)
    for key, rule in schema.items():
        if key == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_JSON_TYPES[t](value) for t in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "const":
            if not _json_equal(value, rule):
                yield path, f"{rule!r} was expected"
        elif key == "enum":
            if not any(_json_equal(value, each) for each in rule):
                yield path, f"{value!r} is not one of {rule!r}"
        elif key in _BOUNDS:
            beyond, words = _BOUNDS[key]
            if is_number and beyond(value, rule):
                yield path, f"{value!r} is {words} of {rule!r}"
        elif key == "required":
            if isinstance(value, dict):
                yield from ((path, f"{name!r} is a required property")
                            for name in rule if name not in value)
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in rule.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, path + (name,))
        elif key == "additionalProperties" and rule is False:
            extras = sorted(set(value).difference(schema.get("properties", ()))
                            if isinstance(value, dict) else ())
            if extras:
                yield path, ("Additional properties are not allowed ("
                             f"{', '.join(map(repr, extras))} "
                             f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "items":
            if isinstance(value, list):
                for index, item in enumerate(value):
                    yield from _schema_errors(item, rule, path + (index,))
        elif key == "minItems":
            if isinstance(value, list) and len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > rule:
                yield path, f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}"
        elif key == "pattern":
            if isinstance(value, str) and not re.search(rule, value):
                yield path, f"{value!r} does not match {rule!r}"
        elif key not in _ANNOTATIONS:
            raise ValueError(f"config schema keyword {key!r}: {rule!r} is not supported")


def _best_error(errors) -> Optional[tuple]:
    """jsonschema's best_match for this keyword subset: the shallowest error, then
    the one whose path sorts last, then the first yielded."""
    return max(errors, key=lambda error: (-len(error[0]), error[0]), default=None)


def load_config(args: argparse.Namespace) -> dict:
    """Read the --config file, write the --level, --seed and --tolerance flags
    over its fields, reject NaN and infinity, and validate the result against
    the schema once."""
    path = args.config
    if path is None:
        cfg: dict = {"version": 1}
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as e:
            raise IOFailure(f"cannot read config {path}: {e}") from e
        try:
            cfg = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if isinstance(cfg, dict):        # anything else fails the schema below
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.tolerance is not None:
            cfg["tolerance"] = args.tolerance
        quadrature = cfg.get("quadrature", {})
        if args.level is not None and isinstance(quadrature, dict):
            cfg["quadrature"] = {**quadrature, "level": args.level}
    bad = _nonfinite_path(cfg)       # the schema cannot reject NaN or infinity
    if bad is not None:
        where = "/".join(map(str, bad)) or "(root)"
        raise ConfigError(f"config invalid at {where}: NaN and infinity are not allowed")
    error = _best_error(_schema_errors(cfg, load_schema()))
    if error is not None:
        where = "/".join(map(str, error[0])) or "(root)"
        raise ConfigError(f"config invalid at {where}: {error[1]}")
    return cfg


class Settings:
    """Resolved run parameters: validated config fields over defaults."""

    def __init__(self, command: str, cfg: dict):
        self.command = command
        self.n = int(cfg.get("n", 3))
        level = cfg.get("quadrature", {}).get("level")
        self.level = int(level) if level is not None else default_level(self.n)
        self.seed = int(cfg.get("seed", 0))
        tol = cfg.get("tolerance")
        self.tolerance = float(tol) if tol is not None else COMMANDS[command][1]
        self.equality_tolerance = float(cfg.get("equality_tolerance", DEFAULT_EQUALITY_TOL))
        self.samples = int(cfg.get("samples", 100))

    @property
    def rule(self) -> QuadratureRule:
        return QuadratureRule(self.level)


def _support_from_config(cfg: dict, n: int):
    sup_cfg = cfg.get("support") or {"kind": "euclidean_plane"}
    try:
        return make_support(sup_cfg["kind"], n, **sup_cfg.get("params", {}))
    except ValueError as e:
        raise ConfigError(f"support configuration rejected: {e}") from e


def _cap_spec_from_config(cfg: dict, support) -> CapSpec:
    cap_cfg, default = cfg.get("cap", {}), default_cap_spec(support)
    radius = cap_cfg.get("radius", default.radius)
    axis = cap_cfg.get("axis")
    shift = cap_cfg.get("center_shift", default.center_shift)
    return CapSpec(
        support=support,
        radius=float(radius),
        axis=tuple(axis) if axis is not None else None,
        tilt=float(cap_cfg.get("tilt", 0.0)),
        center_distance=cap_cfg.get("center_distance"),
        center_shift=tuple(shift) if shift is not None else None,
    )


def build_scenario(cfg: dict, st: Settings) -> CapScenario:
    """Assemble and validate the configured cap scenario."""
    support = _support_from_config(cfg, st.n)
    spec = _cap_spec_from_config(cfg, support)
    pert_cfg = cfg.get("perturbation")
    if pert_cfg:
        scenario = make_perturbed_cap(
            spec, PerturbationSpec(epsilon=float(pert_cfg["epsilon"]),
                                   power=int(pert_cfg.get("power", 3))))
    else:
        scenario = make_umbilical_cap(spec)
    validate_scenario(scenario)
    return scenario


def _resolved_config_echo(cfg: dict, st: Settings) -> dict:
    echo = {
        "version": 1,
        "n": st.n,
        "quadrature": {"level": st.level},
        "seed": st.seed,
        "tolerance": st.tolerance,
        "equality_tolerance": st.equality_tolerance,
    }
    for key in ("support", "cap", "perturbation", "sweep", "converge", "reilly", "samples"):
        if key in cfg:
            echo[key] = cfg[key]
    return echo


def _nonfinite_path(obj, path: tuple = ()) -> Optional[tuple]:
    """Keys leading to the first NaN or infinite float in nested dicts and lists, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    for key, value in items:
        found = _nonfinite_path(value, path + (key,))
        if found is not None:
            return found
    return None


# -- subcommand runners ----------------------------------------------------------


def run_identities(cfg: dict, st: Settings) -> tuple[list, bool]:
    rows = []
    worst = 0.0
    for idx, kind in enumerate(SupportKind):
        s = make_support(kind, st.n)
        w = weight_for_support(s)
        rng = np.random.default_rng([st.seed, idx])
        interior = sample_admissible_points(s, st.samples, rng)
        on_support = sample_support_points(s, st.samples, rng)
        hess_res = hessian_identity_residual(w, interior)
        neu_res = neumann_identity_residual(w, s, on_support)
        worst = max(worst, hess_res, neu_res)
        rows.append({
            "support": kind.value,
            "model": s.model.kind.value,
            "weight": w.formula.value,
            "hessian_identity_residual": hess_res,
            "neumann_identity_residual": neu_res,
            "samples": st.samples,
        })
    return rows, worst <= st.tolerance


def _model_probe_points(model, count: int, rng: np.random.Generator) -> np.ndarray:
    n = model.n
    kind = model.kind.value
    if kind == "poincare_ball":
        d = rng.normal(size=(count, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return d * (0.7 * rng.uniform(0.1, 1.0, size=(count, 1)))
    pts = rng.uniform(-1.0, 1.0, size=(count, n))
    if kind == "upper_half_space":
        pts[:, -1] = rng.uniform(0.5, 2.0, size=count)
    return pts


def run_curvature(cfg: dict, st: Settings) -> tuple[dict, bool]:
    support_rows = []
    worst_umb = 0.0
    for kind in SupportKind:
        s = make_support(kind, st.n)
        res = support_umbilicity_residual(s, samples=min(st.samples, 64), seed=st.seed)
        worst_umb = max(worst_umb, res)
        support_rows.append({"support": kind.value, "kappa": s.kappa,
                             "umbilicity_residual": res})
    model_rows = []
    worst_probe = 0.0
    probe_count = min(st.samples, 100)
    for idx, kind in enumerate(ModelKind):
        model = SpaceFormModel(kind, st.n)
        rng = np.random.default_rng([st.seed, 100 + idx])
        pts = _model_probe_points(model, probe_count, rng)
        uv = rng.normal(size=(probe_count, 2, st.n))   # the stream of per-point (2, n) draws
        probes = sectional_curvature_probe(model, pts.T, uv[:, 0].T, uv[:, 1].T)
        err = float(np.max(np.abs(probes - model.K)))
        worst_probe = max(worst_probe, err)
        model_rows.append({"model": model.kind.value, "K": model.K,
                           "max_probe_error": err, "points": probe_count})
    # the probe itself is finite-difference limited, so it gets a wider gate
    ok = worst_umb <= st.tolerance and worst_probe <= max(st.tolerance, 1e-5)
    return {"supports": support_rows, "models": model_rows}, ok


def run_inequality(cfg: dict, st: Settings) -> tuple[dict, bool]:
    scenario = build_scenario(cfg, st)
    builder = REPORT_BUILDERS[st.command]
    report = builder(scenario, st.rule, equality_tolerance=st.equality_tolerance)
    result = report.to_dict()
    result["scenario"] = scenario.description
    result["hypothesis_checks"] = {**hypothesis_audit(scenario, st.rule).to_dict(),
                                   "admissibility": region_margins(scenario)}
    ok = (report.relative_deficit >= -st.tolerance) and report.hypothesis_ok
    return result, ok


def run_reilly(cfg: dict, st: Settings) -> tuple[list, bool]:
    scenario = build_scenario(cfg, st)
    functions = cfg.get("reilly", {}).get("functions", ["V", "x1", "x1^2"])
    rows = []
    ok = True
    for name in functions:
        rep = reilly_residual(scenario, name, st.rule)
        rows.append(rep.to_dict())
        ok = ok and abs(rep.residual) <= st.tolerance
    return rows, ok


def run_sweep(cfg: dict, st: Settings) -> tuple[list, bool]:
    sweep_cfg = cfg.get("sweep", {})
    epsilons = [float(e) for e in sweep_cfg.get("epsilons", DEFAULT_SWEEP_EPSILONS)]
    theorem = sweep_cfg.get("theorem", "minkowski")
    builder = REPORT_BUILDERS[theorem]
    power = int(sweep_cfg.get("power", (cfg.get("perturbation") or {}).get("power", 3)))
    # one umbilical cap; each epsilon's cap displaces it and reads its epsilon-free nodes
    base = make_umbilical_cap(_cap_spec_from_config(cfg, _support_from_config(cfg, st.n)))

    def one(eps: float) -> dict:
        scenario = base if eps == 0.0 else perturb_cap(base, PerturbationSpec(eps, power))
        validate_scenario(scenario)
        report = builder(scenario, st.rule, equality_tolerance=st.equality_tolerance)
        audit = hypothesis_audit(scenario, st.rule)
        return {
            "epsilon": eps,
            "deficit": report.deficit,
            "relative_deficit": report.relative_deficit,
            "min_convexity_eig": audit.convexity_min,
        }

    rows = [one(eps) for eps in epsilons]
    ok = all(r["relative_deficit"] >= -st.tolerance for r in rows)
    return rows, ok


def run_converge(cfg: dict, st: Settings) -> tuple[dict, bool]:
    conv_cfg = cfg.get("converge", {})
    levels = [int(v) for v in conv_cfg.get("levels", DEFAULT_CONVERGE_LEVELS)]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"config invalid at converge/levels: {levels} must increase strictly")
    theorem = conv_cfg.get("theorem", "minkowski")
    builder = REPORT_BUILDERS[theorem]
    scenario = build_scenario(cfg, st)
    weight = scenario.weight

    @functools.cache
    def at(level: int) -> tuple[float, float, float]:
        # weighted area, volume and deficit on a copy of the scenario (and of its base)
        # with empty memos, so each level's node sets are freed before the next
        sc = dataclasses.replace(scenario, base=scenario.base and dataclasses.replace(scenario.base))
        rule = QuadratureRule(level)
        sq = sc.piece("cap", rule).quadrature
        return (sq.integral(weight.value(sq.geo.x)), sc.weighted_volume(rule),
                builder(sc, rule).deficit)

    tables = {
        "weighted_area": refine_study(lambda level: at(level)[0], levels),
        "weighted_volume": refine_study(lambda level: at(level)[1], levels),
    }
    deficits = [at(level)[2] for level in levels]
    result = {"levels": levels, "theorem": theorem, "deficits": deficits}
    ok = True
    for name, table in tables.items():
        order = table.observed_order
        result[name] = {
            "values": table.values,
            "errors": table.errors,
            "orders": [o if math.isfinite(o) else "inf" for o in table.orders],
            "observed_order": order if math.isfinite(order) else "inf",
            "converged_value": table.values[-1],
        }
        ok = ok and order >= MIN_CONVERGENCE_ORDER
    return result, ok


# subcommand name -> (runner, default pass/fail tolerance), in the order of --help
COMMANDS = {
    "identities": (run_identities, 1e-10),
    "curvature": (run_curvature, 1e-8),
    "minkowski": (run_inequality, 1e-9),
    "af": (run_inequality, 1e-9),
    "schur": (run_inequality, 1e-9),
    "reilly": (run_reilly, 1e-5),
    "sweep": (run_sweep, 1e-9),
    "converge": (run_converge, 1e-9),
}


# -- document assembly and entry point ---------------------------------------------


def render_json(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


SWEEP_CSV_COLUMNS = ("epsilon", "deficit", "relative_deficit", "min_convexity_eig")


def render_sweep_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for row in rows:
        writer.writerow([repr(float(row[c])) for c in SWEEP_CSV_COLUMNS])
    return buf.getvalue()


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise IOFailure(f"cannot write {out}: {e}") from e


def run(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    cfg = load_config(args)
    st = Settings(command, cfg)

    fmt = args.fmt or ("csv" if command == "sweep" else "json")
    if fmt == "csv" and command != "sweep":
        raise ConfigError("csv output is only available for the sweep command")

    results, ok = COMMANDS[command][0](cfg, st)

    if _nonfinite_path(results) is not None:
        ok = False

    if fmt == "csv":
        text = render_sweep_csv(results)
    else:
        document = {
            "tool": "fbmink",
            "tool_version": __version__,
            "command": command,
            "config": _resolved_config_echo(cfg, st),
            "generated_unix_time": int(time.time()),
            "results": results,
            "status": "ok" if ok else "assertion_failure",
        }
        text = render_json(document)
    _write_output(text, args.out)
    return EXIT_OK if ok else EXIT_ASSERTION


def main(argv: Optional[list] = None) -> int:
    try:
        return run(argv)
    except FbminkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
