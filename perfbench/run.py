"""Benchmark of fbmink, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is loaded from ``src``.
Workloads (each a closed loop, one op at a time, in its own process):

  verify_n3  library verification of 8 supports x {umbilical, perturbed}, n=3, level 32
  verify_n4  the same plus the almost-Schur report, n=4, level 12
  sweep_n3   in-process ``fbmink sweep`` over 10 seeded epsilons, n=3, level 32,
             8 supports x --jobs {1, 2}
  cli_cold   one fresh ``python -m fbmink <subcommand>`` per op, 8 subcommands

The seed picks the op order of each pass, the epsilon of each perturbed cap
(uniform in [0.03, 0.07]), the sweep epsilons and the CLI ``--seed``.  A run
measures whole passes until ``--seconds`` have elapsed.  Every op's output
is checked against facts of the paper; an op fails when it raises, when the
program's own verdict is negative, or when its output contradicts a fact or
an earlier identical run.  Only the last kind makes ``correct`` false.

With ``--trace 0`` the result holds the end-to-end metrics: set-up time
(median of five fresh processes, spawn to ready for the first op), the
50th and 90th percentile over the op matrix of each op's median wall time,
over ops that ran to completion (at n=4 over the two supports that build
today), nominal quadrature nodes
of passing ops per second of op wall time, the share of ops that passed,
and peak RSS (of the cold CLI children for cli_cold).  Every time is taken
at the nominal host speed of ``calibrate.py``: each op and each set-up
probe is bracketed by two samples of a fixed reference computation, and its
wall time is divided by their mean slowness, so that the shared host's
swings in speed cancel.  The set-up probes and every workload but sweep_n3
(whose ``--jobs 2`` ops need two CPUs) run pinned to one CPU, so that an op
and its samples share it.  The report line gives the raw wall times and the
slowness quartiles beside them.  With
``--trace 1`` the first half of the time runs untraced and the second half
with every layer traced; the result holds the per-layer metrics, per op.
The last line of standard output is the JSON result; the line before it is
a JSON report with provenance, sample counts and the failure breakdown.
"""

import argparse
import compileall
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from rules import key_medians, percentile, tail_percentile, tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("verify_n3", "verify_n4", "sweep_n3", "cli_cold")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# At n = 4 only these supports build today; latency is taken over them alone
# so that making the other twelve ops build does not read as a slowdown.
N4_LATENCY_KINDS = ("euclidean_plane", "sph_hyperplane")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_source() -> None:
    if not (SRC / "fbmink" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'fbmink'}; "
                         "run from the root of a checkout")


def load_package() -> None:
    """Put the checkout's ``src`` first on the path and insist the package comes from it."""
    sys.path.insert(0, str(SRC))
    import fbmink
    if Path(fbmink.__file__).resolve().parent != (SRC / "fbmink").resolve():
        raise SystemExit(f"perfbench: fbmink loaded from {fbmink.__file__}, not {SRC}")


def make_workload(name: str, seed: int):
    if name == "cli_cold":
        import coldcli
        return coldcli.ColdCli(seed, ROOT)
    load_package()
    import inproc
    if name == "verify_n3":
        return inproc.Verify(3, 32, seed)
    if name == "verify_n4":
        return inproc.Verify(4, 12, seed, latency_kinds=N4_LATENCY_KINDS)
    return inproc.Sweep(seed)


def prepare(args, workdir: Path):
    """Everything a process does before its first timed op."""
    workload = make_workload(args.workload, args.seed)
    workload.setup(workdir)
    return workload


def setup_probes(args, calibrator) -> list:
    """Set-up of fresh processes, spawn to ready for the first timed op, as
    (wall seconds, host slowness) pairs."""
    from calibrate import one_cpu
    samples = []
    with one_cpu():
        for _ in range(SETUP_PROBES):
            before = calibrator.sample()
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
            wall = float(proc.stdout.split()[-1]) - t0
            samples.append((wall, (before + calibrator.sample()) / 2.0))
    return samples


def measure(workload, seconds: float, calibrator, tracer=None) -> list:
    """Whole passes, one op at a time, each between two calibration samples,
    until ``seconds`` have elapsed.  Single-threaded workloads run on one CPU."""
    from calibrate import one_cpu
    outcomes = []
    start = time.perf_counter()
    with contextlib.nullcontext() if workload.threaded else one_cpu():
        while True:
            for op in workload.next_pass():
                if tracer is not None:
                    tracer.op = len(outcomes)
                before = calibrator.sample()
                outcome = workload.run_op(op)
                outcome.slowness = (before + calibrator.sample()) / 2.0
                outcomes.append(outcome)
            if tracer is not None:
                tracer.op = None
            if time.perf_counter() - start >= seconds:
                return outcomes


def latency_outcomes(workload, outcomes) -> list:
    done = [o for o in outcomes if o.completed and workload.in_latency(o)]
    return done or list(outcomes)


def latencies(workload, outcomes) -> list:
    """Op times at nominal host speed."""
    return [o.nominal_s for o in latency_outcomes(workload, outcomes)]


def typical(workload, outcomes, raw: bool = False) -> list:
    """Median time of each op of the matrix, at nominal host speed unless ``raw``.

    The ops of a matrix fall into clusters of cost, so a percentile over
    single samples that lands between two clusters reads the noisy edge of
    one; over per-op medians it reads a steady op.
    """
    return key_medians((o.key, o.wall_s if raw else o.nominal_s)
                       for o in latency_outcomes(workload, outcomes))


def end_to_end(workload, outcomes, setup_s: float, cold: bool) -> dict:
    lat = typical(workload, outcomes)
    wall = sum(o.nominal_s for o in outcomes)
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (percentile(lat, 50), "s"),
        "op_p90_s": (percentile(lat, 90), "s"),
        "mnodes_per_s": (sum(o.nodes for o in outcomes if o.ok) / wall / 1e6, "Mnodes/s"),
        "ok_share": (sum(o.ok for o in outcomes) / len(outcomes), "share"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, plain, traced, sums, cold: bool) -> dict:
    import coldcli
    import tracing
    names = tracing.Tracer().metric_names()
    count = len(traced)
    out = {name: (sum(s.get(name, 0.0) for s in sums) / count, _unit(name)) for name in names}
    done = [(o, s) for o, s in zip(traced, sums) if o.completed]
    out["surfaces.geometry_useful_ratio"] = (_ratio(
        sum(o.geometry_nodes for o, _ in done),
        sum(s.get("surfaces.geometry_points", 0.0) for _, s in done)), "ratio")
    out["quadrature.region_useful_ratio"] = (_ratio(
        sum(o.region_nodes for o, _ in done),
        sum(s.get("quadrature.region_points", 0.0) for _, s in done)), "ratio")
    out["cli.interpreter_s"] = (coldcli.interpreter_s(ROOT), "s")
    if cold:
        imports = {k: sum(s[k] for s in sums) / count for k in coldcli.IMPORT_METRICS}
    else:
        imports = coldcli.import_probe(ROOT)
    out.update((k, (v, "s")) for k, v in imports.items())
    base = percentile(typical(workload, plain), 50)
    out["trace.overhead_share"] = (percentile(typical(workload, traced), 50) / base - 1.0,
                                   "share")
    return out


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, pinned: bool) -> dict:
    from importlib import metadata

    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        jsonschema_version = metadata.version("jsonschema")
    except metadata.PackageNotFoundError:
        jsonschema_version = None
    return {
        "git_commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": jsonschema_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ops_pinned_to_one_cpu": pinned,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    cold = args.workload == "cli_cold"
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            prepare(args, workdir)
            print(time.clock_gettime(time.CLOCK_MONOTONIC))
            return 0
        compileall.compile_dir(str(SRC), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1)
        workload = prepare(args, workdir)
        from calibrate import Calibrator   # numpy; kept out of the set-up probes
        calibrator = Calibrator()
        probes = [] if args.trace else setup_probes(args, calibrator)

        if args.trace == 0:
            timed = measure(workload, args.seconds, calibrator)
            setup_s = statistics.median(wall / slow for wall, slow in probes)
            metrics = end_to_end(workload, timed, setup_s, cold)
            outcomes = timed
        else:
            plain = measure(workload, args.seconds / 2.0, calibrator)
            if cold:
                workload.sums = []
                timed = measure(workload, args.seconds / 2.0, calibrator)
                sums = workload.sums
            else:
                import tracing
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    timed = measure(workload, args.seconds / 2.0, calibrator, tracer)
                finally:
                    tracer.uninstall()
                by_op = tracer.op_sums()
                sums = [by_op.get(i, {}) for i in range(len(timed))]
            metrics = per_layer(workload, plain, timed, sums, cold)
            outcomes = plain + timed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    counts = tally(outcomes)
    lat = latencies(workload, timed)
    raw = typical(workload, timed, raw=True)
    slowness = [o.slowness for o in timed]
    tail = tail_percentile(len(lat))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "ops": len(timed),
        "latency_samples": len(lat),
        "latency_ops_of_matrix": len(raw),
        "beyond_p90": sum(v > percentile(lat, 90) for v in lat),
        "tail_percentile": tail,
        "tail_value_s": percentile(lat, tail) if tail is not None else None,
        "setup_probes_s": [wall for wall, _ in probes],
        "setup_probes_slowness": [slow for _, slow in probes],
        "raw_op_p50_s": percentile(raw, 50),
        "raw_op_p90_s": percentile(raw, 90),
        "slowness_quartiles": statistics.quantiles(slowness, n=4) if len(slowness) > 1
        else slowness * 3,
        "failures": counts,
        "provenance": provenance(args.seed, not workload.threaded),
    }, sort_keys=True))
    print(json.dumps({
        "correct": counts["correct"],
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
