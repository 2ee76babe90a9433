"""The in-process workloads: library verification (verify_n3, verify_n4) and
CLI sweeps called through ``fbmink.cli.main`` (sweep_n3).

Every call into the package goes through a module attribute, so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import fbmink.cli as cli
import fbmink.families as families
import fbmink.inequalities as inequalities
import fbmink.quadrature as quadrature
import fbmink.supports as supports

from rules import (Checks, Outcome, all_finite, check_reilly, check_report,
                   check_sweep_csv, nominal_nodes)

SUPPORT_KINDS = tuple(kind.value for kind in supports.SupportKind)
REILLY_FUNCTIONS = ("V", "x1", "x1^2")
PERTURBATION_POWER = 3


def _timed(key: str, fn) -> tuple:
    """Run one op; return (Outcome, result), with result None if it raised."""
    t0 = perf_counter()
    try:
        result = fn()
    except Exception as e:   # a failed op is data, not a benchmark error
        return Outcome(key=key, wall_s=perf_counter() - t0, raised=type(e).__name__), None
    return Outcome(key=key, wall_s=perf_counter() - t0), result


class Verify:
    """One library verification of one scenario per op.

    The op builds the cap, validates it, runs every report the dimension
    admits, the hypothesis audit and the Reilly residual for V, x1, x1^2.
    A pass is the 8 supports x {umbilical, perturbed} in seeded order.
    ``latency_kinds`` restricts the per-op latency percentiles to supports
    whose ops build at every commit being compared.
    """

    threaded = False   # whether an op runs on more than one CPU

    def __init__(self, n: int, level: int, seed: int, latency_kinds=None):
        self.n = n
        self.level = level
        self.rng = random.Random(seed)
        self.latency_kinds = frozenset(latency_kinds or SUPPORT_KINDS)

    def setup(self, workdir) -> None:
        self.run_op(("euclidean_plane", 0.0))

    def next_pass(self) -> list:
        matrix = [(kind, pert) for kind in SUPPORT_KINDS for pert in (False, True)]
        self.rng.shuffle(matrix)
        return [(kind, self.rng.uniform(0.03, 0.07) if pert else 0.0) for kind, pert in matrix]

    def in_latency(self, outcome: Outcome) -> bool:
        return outcome.key.split()[0] in self.latency_kinds

    def _verify(self, kind: str, eps: float):
        n, rule = self.n, quadrature.QuadratureRule(self.level)
        support = supports.make_support(kind, n, **cli.CANONICAL_SUPPORT_PARAMS.get(kind, {}))
        spec = families.default_cap_spec(support)
        if eps:
            scenario = families.make_perturbed_cap(
                spec, families.PerturbationSpec(epsilon=eps, power=PERTURBATION_POWER))
        else:
            scenario = families.make_umbilical_cap(spec)
        families.validate_scenario(scenario)
        reports = [inequalities.minkowski_report(scenario, rule),
                   inequalities.af_report(scenario, rule)]
        if n >= 4:
            reports.append(inequalities.schur_report(scenario, rule))
        audit = inequalities.hypothesis_audit(scenario, rule)
        reilly = [inequalities.reilly_residual(scenario, f, rule) for f in REILLY_FUNCTIONS]
        return reports, audit, reilly

    def run_op(self, op) -> Outcome:
        kind, eps = op
        key = f"{kind} {'perturbed' if eps else 'umbilical'}"
        outcome, result = _timed(key, lambda: self._verify(kind, eps))
        outcome.geometry_nodes = nominal_nodes(self.n, self.level, kind, ("cap", "face"))
        outcome.region_nodes = nominal_nodes(self.n, self.level, kind, ("region",))
        if result is None:
            return outcome
        reports, audit, reilly = result
        ck = Checks()
        hemisphere = self.n if kind == "euclidean_plane" and not eps else None
        for report in reports:
            check_report(ck, report.to_dict(), umbilical=not eps, hemisphere_n=hemisphere)
        ck.check_fact("finite", all_finite(audit.to_dict()))
        for row in reilly:
            check_reilly(ck, row.to_dict())
        outcome.gate, outcome.fact = ck.gate, ck.fact
        return outcome


class Sweep:
    """One in-process ``fbmink sweep`` per op over a seeded epsilon list.

    A pass is the 8 supports x ``--jobs`` {1, 2} in seeded order.  Every
    CSV of a support must equal the first one written for it in the run,
    whatever the job count.
    """

    threaded = True   # whether an op runs on more than one CPU (--jobs 2)
    n = 3
    level = 32
    count = 10

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        # one epsilon per tenth of [0.01, 0.10]: distinct, spread, increasing
        width = (0.10 - 0.01) / self.count
        self.epsilons = [0.01 + width * (i + self.rng.random()) for i in range(self.count)]
        self.reference: dict[str, bytes] = {}

    def setup(self, workdir) -> None:
        self.configs = {}
        for kind in SUPPORT_KINDS:
            path = workdir / f"sweep_{kind}.json"
            path.write_text(json.dumps({
                "version": 1, "n": self.n, "support": {"kind": kind},
                "quadrature": {"level": self.level},
                "sweep": {"epsilons": self.epsilons, "power": PERTURBATION_POWER},
            }))
            self.configs[kind] = path
        self.out = workdir / "sweep_out.csv"
        self._sweep("euclidean_plane", 2)

    def next_pass(self) -> list:
        matrix = [(kind, jobs) for kind in SUPPORT_KINDS for jobs in (1, 2)]
        self.rng.shuffle(matrix)
        return matrix

    def in_latency(self, outcome: Outcome) -> bool:
        return True

    def _sweep(self, kind: str, jobs: int) -> int:
        return cli.main(["sweep", "--config", str(self.configs[kind]),
                         "--out", str(self.out), "--jobs", str(jobs)])

    def run_op(self, op) -> Outcome:
        kind, jobs = op
        outcome, code = _timed(f"{kind} jobs={jobs}", lambda: self._sweep(kind, jobs))
        outcome.geometry_nodes = self.count * nominal_nodes(self.n, self.level, kind, ("cap",))
        outcome.region_nodes = self.count * nominal_nodes(self.n, self.level, kind, ("region",))
        if outcome.raised:
            return outcome
        ck = Checks()
        ck.check_gate("exit_code", code == 0)
        if code == 0:
            text = self.out.read_bytes()
            check_sweep_csv(ck, text.decode(), self.epsilons)
            first = self.reference.setdefault(kind, text)
            ck.check_fact("csv_identical_across_jobs", text == first)
        outcome.gate, outcome.fact = ck.gate, ck.fact
        return outcome
