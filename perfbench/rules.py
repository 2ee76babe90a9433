"""Pure rules of the benchmark: percentiles, nominal node counts, output
checks against facts of the paper, the output mask, and op accounting.

Standard library only, so that the cold-CLI parent process and the tests
load neither numpy nor the package under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from dataclasses import dataclass, field

# -- percentiles -----------------------------------------------------------------


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, (pct * len(xs) + 99) // 100)   # ceil(pct * n / 100) in integers
    return xs[rank - 1]


def key_medians(pairs) -> list:
    """The median value of each key in (key, value) pairs, in first-seen order."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return [statistics.median(values) for values in groups.values()]


def tail_percentile(count: int, beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Uses the nearest-rank definition of ``percentile``; None when there are
    too few samples for any percentile to have that many beyond it.
    """
    if count <= beyond:
        return None
    return (100 * (count - beyond)) // count


# -- nominal quadrature nodes ------------------------------------------------------

# Supports whose cap region is bounded by the cap and a piece of the support
# sphere; every other support cuts the region with one flat piece only.
SPHERE_SUPPORTS = frozenset({"euclidean_sphere", "hyp_geodesic_sphere", "sph_geodesic_sphere"})


def region_pieces(kind: str) -> int:
    return 2 if kind in SPHERE_SUPPORTS else 1


def nominal_nodes(n: int, level: int, kind: str, parts=("cap", "face", "region")) -> int:
    """Tensor Gauss nodes a computation needs once, from (n, L, support) alone.

    The cap and the support face are (n-1)-dimensional tensor grids; the
    region is one n-dimensional cone grid per boundary piece.
    """
    sizes = {"cap": level ** (n - 1), "face": level ** (n - 1),
             "region": region_pieces(kind) * level ** n}
    return sum(sizes[p] for p in parts)


# -- outputs -----------------------------------------------------------------------

_GENERATED_TIME = re.compile(rb'("generated_unix_time":\s*)-?\d+')


def mask_generated_time(text: bytes) -> bytes:
    """Blank the one report field that may differ between identical runs."""
    return _GENERATED_TIME.sub(rb"\g<1>0", text)


def all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


# -- op accounting -------------------------------------------------------------------

EQUALITY_TOL = 1e-6     # |relative deficit| of an umbilical cap
REILLY_GATE = 1e-5      # the CLI's pass/fail tolerance for Reilly residuals
AREA_TOL = 1e-10        # relative error of the unit-hemisphere weighted area


@dataclass
class Outcome:
    """What one timed op did.

    ``raised`` names the exception type of an op that did not run to
    completion.  ``gate`` lists the program's own pass/fail verdicts that
    came back negative (a Reilly residual over the CLI gate, a hypothesis
    flag, a nonzero exit).  ``fact`` lists outputs that contradict the
    paper or an earlier identical run while the program reported success.
    An op fails on any of the three; only ``fact`` makes a run incorrect.
    """

    key: str
    wall_s: float
    slowness: float = 1.0       # host slowness beside the op (see calibrate.py)
    geometry_nodes: int = 0     # nominal cap and face nodes
    region_nodes: int = 0       # nominal region nodes
    raised: str | None = None
    gate: list = field(default_factory=list)
    fact: list = field(default_factory=list)

    @property
    def nominal_s(self) -> float:
        """Wall time at the calibration's nominal host speed."""
        return self.wall_s / self.slowness

    @property
    def nodes(self) -> int:
        return self.geometry_nodes + self.region_nodes

    @property
    def completed(self) -> bool:
        return self.raised is None

    @property
    def ok(self) -> bool:
        return self.raised is None and not self.gate and not self.fact


def tally(outcomes) -> dict:
    """Counts for the result line and the failure breakdown."""
    reasons: dict[str, int] = {}
    for o in outcomes:
        for r in ([f"raised:{o.raised}"] if o.raised else []) + \
                 [f"gate:{g}" for g in o.gate] + [f"fact:{f}" for f in o.fact]:
            key = f"{o.key} {r}"
            reasons[key] = reasons.get(key, 0) + 1
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "raised": sum(o.raised is not None for o in outcomes),
        "gate_failed": sum(o.raised is None and bool(o.gate) for o in outcomes),
        "fact_failed": sum(bool(o.fact) for o in outcomes),
        "correct": not any(o.fact for o in outcomes),
        "reasons": dict(sorted(reasons.items())),
    }


class Checks:
    """Collects failed checks of one op into gate and fact lists."""

    def __init__(self):
        self.gate: list[str] = []
        self.fact: list[str] = []

    def check_gate(self, name: str, passed: bool) -> None:
        if not passed and name not in self.gate:
            self.gate.append(name)

    def check_fact(self, name: str, passed: bool) -> None:
        if not passed and name not in self.fact:
            self.fact.append(name)


def check_report(ck: Checks, report: dict, umbilical: bool, hemisphere_n=None) -> None:
    """Paper facts for one inequality report in its ``to_dict`` form.

    Umbilical caps attain equality: Minkowski and AF by their relative
    deficit, almost-Schur by both sides vanishing against int R^2 V.
    Perturbed caps satisfy every inequality strictly.  On the unit
    hemisphere over the flat plane (V = 1) the weighted area is |S^{n-1}|/2.
    """
    name = report["theorem_id"]
    ck.check_fact("finite", all_finite(report))
    ck.check_gate(f"{name}.hypothesis_ok", bool(report["hypothesis"]["ok"]))
    if umbilical:
        if name == "AlmostSchur":
            area = report["integrals"]["weighted_area"]
            scale = area * report["integrals"]["scal_mean"] ** 2
            ok = max(abs(report["lhs"]), abs(report["rhs"])) <= EQUALITY_TOL ** 2 * scale
        else:
            ok = abs(report["relative_deficit"]) <= EQUALITY_TOL
        ck.check_fact(f"{name}.equality", ok)
    else:
        ck.check_fact(f"{name}.deficit_positive", report["deficit"] > 0.0)
    if hemisphere_n is not None:
        n = hemisphere_n
        exact = math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        area = report["integrals"]["weighted_area"]
        ck.check_fact(f"{name}.hemisphere_area", abs(area - exact) <= AREA_TOL * exact)


def check_reilly(ck: Checks, row: dict) -> None:
    ck.check_fact("finite", all_finite(row))
    ck.check_gate(f"reilly.{row['function']}", abs(row["residual"]) <= REILLY_GATE)


SWEEP_HEADER = ["epsilon", "deficit", "relative_deficit", "min_convexity_eig"]


def check_sweep_csv(ck: Checks, text: str, epsilons=None) -> None:
    """Sweep rows: finite, positive deficits that strictly increase with epsilon."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        ck.check_fact("sweep.header", False)
        return
    try:
        table = [[float(v) for v in r] for r in rows[1:]]
    except ValueError:
        ck.check_fact("sweep.parse", False)
        return
    eps = [r[0] for r in table]
    deficits = [r[1] for r in table]
    if epsilons is not None:
        ck.check_fact("sweep.epsilons", eps == list(epsilons))
    ck.check_fact("finite", all(math.isfinite(v) for r in table for v in r))
    ck.check_fact("sweep.deficit_positive", bool(deficits) and min(deficits) > 0.0)
    order = sorted(range(len(eps)), key=eps.__getitem__)
    ck.check_fact("sweep.deficit_increasing",
                  all(deficits[a] < deficits[b] for a, b in zip(order, order[1:])))


def parse_json_strict(text: str):
    """json.loads that reads NaN and Infinity as nan, which ``all_finite`` rejects."""
    return json.loads(text, parse_constant=lambda _: float("nan"))
