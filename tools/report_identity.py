"""Compare fbmink's in-process results between two source trees, byte for byte.

    python3 tools/report_identity.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; its package is imported from
TREE/src in a child process.  The child builds every case below and dumps,
per case, the ``to_dict()`` of the Minkowski, AF and almost-Schur reports,
the hypothesis audit, the Reilly rows for V, x1, x2^2, x1^2, x{n} and x{n}^2
(asked for in that order; at n=2, x2^2 once), the region margins and the
outcome of ``validate_scenario``, as sorted JSON.  The last axis carries the
terms no other row reaches: V = 1/x_n's Hessian, the e_n row and column of the
ball weights' Hessian, and x_n = V on ``euclidean_sphere``, where the rows of
x_n vanish identically.  A failing step is recorded as [error type, message].
Cases:

* the 8 supports x eps {0, +-0.05}, canonical cap, at n=3 levels 16, 24 and
  32, n=4 levels 8 and 12, n=2 level 32 and n=5 level 8.  At n=2 the sphere
  kinds build and the plane kinds record DimensionTooLow; at n=5 every cap
  records DegenerateImmersion with its min det g (ROADMAP item 1), which
  still pins the q=4 polar chart that computes it.  Region integrals run in blocks of 8,192 nodes,
  each cone cut from its own first node, and these levels reach past one
  block: at n=3 level 24 each cone has 13,824 nodes (a full block and a
  partial one), at n=3 level 32 each has 4 full blocks, and at n=4 level 12
  the one cone of a cap that builds there has 20,736 (two full blocks and a
  partial one);
* the radii {1e-7, 1e-5, 1e-3, 0.9, 1.5, 3} x eps {0, +-0.05, +-0.5} on five
  supports at n=3 level 16;
* caps whose g and h do not commute in chart coordinates, x eps {0, +-0.05}
  at n=3 level 16: ``sph_hyperplane`` with ``center_shift`` (0.3, 0) and
  ``euclidean_plane`` tilted by 0.2;
* n=2 arcs off the symmetry axis, x eps {0, +-0.05} at level 32: the three
  sphere kinds with ``axis`` (1, 1), where an arc covering one side of its
  axis would show (on the default axis the symmetry halves every integral
  alike);
* one base cap shared by several perturbations, on the 8 supports at n=3
  levels 32 and 24 and n=4 levels 12 and 8: ``perturb_cap`` at eps +-0.05,
  then the base cap's own results, then eps +-0.03 and eps 0.05 with bump
  power 4, all on the one base, each dumped as above.  Every other case
  builds its own base, so only these pin what perturbations read of a base
  (its grid, ring and reach, and the face's piece: its nodes, its cone's
  margins, and the Reilly block sums on its cone), before and after the
  base's own reports.  The reports read the weighted volume off each cap,
  so the face's piece at the case's level comes from the Reilly checker alone.
  Each cone is cut into blocks from its own first node, so no block
  straddles two cones, at level 24 as at level 32.  At n=4 level 12 only the caps over ``euclidean_plane`` and ``sph_hyperplane`` build (the
  others raise DegenerateImmersion, as above at n=5), so level 8 carries the
  n=4 sphere supports, whose regions have a face cone;
* the Reilly rows alone, asked for in the reverse order x{n}^2, x{n}, x1^2,
  x2^2, x1, V (coordinates before V, x_i^2 before x_i), on the 8 supports x
  eps {0, 0.05} at n=3 level 24 and n=4 level 8.  The block sums of x_i and
  x_i^2 are memoized per axis as they are first asked for, so these pin that
  the order the rows are asked in moves no bit.

Each differing case is printed with the fields that differ, as paths such
as ``reilly x1 / lhs_volume``; where both values are numbers, each comes with
its relative gap |a - b| / max(|a|, |b|), its absolute gap |a - b| and the
magnitude max(|a|, |b|), so a change at rounding level (a gap of 1e-29 on a
value of 1e-29) stands apart from a real one.  A zero whose sign flipped is
named as such, and any other changed field is printed as its old and new
JSON text.  A summary follows: per differing field, the number of cases and
the largest relative gap, absolute gap and magnitude over them (or the kind of
change where it is not numeric), then the count of identical cases.  The exit
status is 0 when both dumps are identical and 1 otherwise.  This file uses the
standard library only; the child needs the trees' own dependencies.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

SUPPORTS = ("euclidean_sphere", "euclidean_plane", "hyp_geodesic_sphere", "horosphere",
            "equidistant", "hyp_geodesic_plane", "sph_geodesic_sphere", "sph_hyperplane")
GRID_SUPPORTS = ("euclidean_plane", "euclidean_sphere", "horosphere", "sph_hyperplane",
                 "hyp_geodesic_sphere")
GRID_RADII = (1e-7, 1e-5, 1e-3, 0.9, 1.5, 3.0)
ASYMMETRIC = (("sph_hyperplane", {"center_shift": (0.3, 0.0)}), ("euclidean_plane", {"tilt": 0.2}))
SPHERE_KINDS = ("euclidean_sphere", "hyp_geodesic_sphere", "sph_geodesic_sphere")


def reilly_functions(n: int) -> tuple[str, ...]:
    """The Reilly rows of a case at dimension n, in the order they are asked for."""
    return tuple(dict.fromkeys(("V", "x1", "x2^2", "x1^2", f"x{n}", f"x{n}^2")))


# (n, level, support, CapSpec fields replaced in the canonical cap, epsilon)
CASES = [
    *[(n, level, kind, {}, eps)
      for n, level in ((3, 16), (4, 8), (3, 24), (3, 32), (4, 12), (2, 32), (5, 8))
      for kind in SUPPORTS for eps in (0.0, 0.05, -0.05)],
    *[(3, 16, kind, {"radius": r}, eps) for kind in GRID_SUPPORTS for r in GRID_RADII
      for eps in (0.0, 0.05, -0.05, 0.5, -0.5)],
    *[(3, 16, kind, placement, eps) for kind, placement in ASYMMETRIC
      for eps in (0.0, 0.05, -0.05)],
    *[(2, 32, kind, {"axis": (1.0, 1.0)}, eps) for kind in SPHERE_KINDS
      for eps in (0.0, 0.05, -0.05)],
]
# the steps on one base cap: (epsilon, bump power) for a perturbation, None for the base
SHARED_STEPS = ((0.05, 3), (-0.05, 3), None, (0.03, 3), (-0.03, 3), (0.05, 4))
# (n, level, support): one base cap, then SHARED_STEPS on it
SHARED_CASES = [(n, level, kind) for n, level in ((3, 32), (3, 24), (4, 12), (4, 8))
                for kind in SUPPORTS]
# (n, level, support, epsilon): the Reilly rows in reverse order
REVERSE_CASES = [(n, level, kind, eps) for n, level in ((3, 24), (4, 8))
                 for kind in SUPPORTS for eps in (0.0, 0.05)]


def _attempt(step):
    try:
        return step()
    except Exception as e:   # every outcome is data here, errors included
        return [type(e).__name__, str(e)]


def _reilly(fb, scenario, level: int, names) -> dict:
    rule = fb.QuadratureRule(level)
    return {f"reilly {name}": _attempt(lambda: fb.reilly_residual(scenario, name, rule).to_dict())
            for name in names}


def _results(fb, scenario, level: int) -> dict:
    rule = fb.QuadratureRule(level)
    out = {"description": scenario.description,
           "validate": _attempt(lambda: fb.validate_scenario(scenario) or "ok"),
           "region_margins": _attempt(lambda: fb.region_margins(scenario)),
           "audit": _attempt(lambda: fb.hypothesis_audit(scenario, rule).to_dict())}
    for name, builder in (("minkowski", fb.minkowski_report), ("af", fb.af_report),
                          ("schur", fb.schur_report)):
        out[name] = _attempt(lambda: builder(scenario, rule).to_dict())
    return out | _reilly(fb, scenario, level, reilly_functions(scenario.n))


def _build(fb, n: int, kind: str, placement: dict, eps: float):
    """The case's scenario, or its build error as [error type, message]."""
    def build():
        spec = dataclasses.replace(fb.default_cap_spec(fb.make_support(kind, n)), **placement)
        if eps:
            return fb.make_perturbed_cap(spec, fb.PerturbationSpec(epsilon=eps))
        return fb.make_umbilical_cap(spec)
    return _attempt(build)


def _case(fb, n: int, level: int, kind: str, placement: dict, eps: float) -> dict:
    scenario = _build(fb, n, kind, placement, eps)
    if isinstance(scenario, list):
        return {"build": scenario}
    return _results(fb, scenario, level)


def _reverse_case(fb, n: int, level: int, kind: str, eps: float) -> dict:
    scenario = _build(fb, n, kind, {}, eps)
    if isinstance(scenario, list):
        return {"build": scenario}
    return _reilly(fb, scenario, level, reilly_functions(n)[::-1])


def _shared_case(fb, n: int, level: int, kind: str) -> dict:
    base = _attempt(lambda: fb.make_umbilical_cap(fb.default_cap_spec(fb.make_support(kind, n))))
    if isinstance(base, list):
        return {"build": base}
    steps = []
    for step in SHARED_STEPS:
        if step is None:
            steps.append(_results(fb, base, level))
            continue
        scenario = _attempt(lambda: fb.perturb_cap(base, fb.PerturbationSpec(*step)))
        steps.append({"build": scenario} if isinstance(scenario, list)
                     else _results(fb, scenario, level))
    return {"steps": steps}


def dump() -> None:
    """Child side: print one JSON line per case."""
    import fbmink as fb

    for case in CASES:
        record = {"case": case, "result": _case(fb, *case)}
        print(json.dumps(record, sort_keys=True), flush=True)
    for case in SHARED_CASES:
        record = {"case": ["shared base", *case], "result": _shared_case(fb, *case)}
        print(json.dumps(record, sort_keys=True), flush=True)
    for case in REVERSE_CASES:
        record = {"case": ["reverse order", *case], "result": _reverse_case(fb, *case)}
        print(json.dumps(record, sort_keys=True), flush=True)


def run_tree(tree: str) -> list[bytes]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump"], env=env,
                          capture_output=True, timeout=3600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"dump failed in {tree} (exit {proc.returncode})")
    return proc.stdout.splitlines()


SIGN_OF_ZERO = "sign of zero"
TEXT_LIMIT = 160   # characters of each side of a changed non-numeric field


def _text(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= TEXT_LIMIT else text[:TEXT_LIMIT] + "..."


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field_gaps(a, b, path: str = "") -> dict:
    """{path: gap} of every leaf where a and b differ.  The gap is (relative gap,
    absolute gap, larger magnitude) where both are numbers, "sign of zero: old ->
    new" where they are zeros of opposite sign (equal under ==, different in the
    dump), and "old -> new" text otherwise (a changed type, string, key set or
    length)."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return {k: v for key in a for k, v in
                field_gaps(a[key], b[key], f"{path} / {key}" if path else key).items()}
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return {k: v for i, (x, y) in enumerate(zip(a, b))
                for k, v in field_gaps(x, y, f"{path}[{i}]").items()}
    if type(a) is type(b) and (a == b or a != a and b != b):   # NaN dumps as NaN
        if isinstance(a, float) and math.copysign(1.0, a) != math.copysign(1.0, b):
            return {path: f"{SIGN_OF_ZERO}: {a!r} -> {b!r}"}
        return {}
    if _number(a) and _number(b) and a != b:
        absolute, magnitude = abs(a - b), max(abs(a), abs(b))
        return {path: (absolute / magnitude, absolute, magnitude)}
    return {path: f"{_text(a)} -> {_text(b)}"}


def _gap(gap) -> str:
    if isinstance(gap, str):
        return gap
    return "relative gap %.2e, absolute %.2e, magnitude %.2e" % gap


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        dump()
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (run_tree(tree) for tree in argv)
    if len(old) != len(new):
        print(f"case counts differ: {len(old)} -> {len(new)}")
        return 1
    differing = 0
    # field path -> [cases, largest numeric gaps or None, the kinds of other gaps]
    worst: dict[str, list] = {}
    for a, b in zip(old, new):
        if a != b:
            differing += 1
            ra, rb = json.loads(a), json.loads(b)
            gaps = field_gaps(ra["result"], rb["result"]) or {"(whole case)": "bytes differ"}
            print(f"DIFF  {ra['case']}")
            for path, gap in gaps.items():
                print(f"    {path}: {_gap(gap)}")
                entry = worst.setdefault(path, [0, None, set()])
                entry[0] += 1
                if isinstance(gap, tuple):
                    entry[1] = gap if entry[1] is None else tuple(map(max, entry[1], gap))
                else:
                    entry[2].add(gap if gap.startswith(SIGN_OF_ZERO) else "non-numeric")
    for path, (cases, sizes, kinds) in sorted(worst.items()):
        summary = ([f"largest {_gap(sizes)}"] if sizes else []) + sorted(kinds)
        print(f"FIELD  {path}: {cases} cases, {'; '.join(summary)}")
    print(f"{len(old) - differing} of {len(old)} cases identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
