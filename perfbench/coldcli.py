"""The cold-CLI workload: one fresh ``python -m fbmink <subcommand>`` per op,
plus the child-process probes of interpreter start-up and import time.

Standard library only: the parent never loads the package it measures.
Its children run on the CPU the parent is pinned to (see calibrate.py).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from rules import (Checks, Outcome, all_finite, check_reilly, check_report,
                   check_sweep_csv, mask_generated_time, nominal_nodes, parse_json_strict)

HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"
CHILD_TIMEOUT_S = 120

SUBCOMMANDS = ("identities", "curvature", "minkowski", "af", "schur", "reilly",
               "sweep", "converge")
SCHUR_CONFIG = {"version": 1, "n": 4}

# Node sets each subcommand integrates at its defaults (n = 3, level 24,
# euclidean_plane; schur at n = 4, level 12; five sweep epsilons; converge
# at levels 8, 12, 16, 24), as (n, level, support, parts).
PLANE = "euclidean_plane"
NODE_SETS = {
    "identities": [],
    "curvature": [],
    "minkowski": [(3, 24, PLANE, ("cap", "region"))],
    "af": [(3, 24, PLANE, ("cap",))],
    "schur": [(4, 12, PLANE, ("cap",))],
    "reilly": [(3, 24, PLANE, ("cap", "face", "region"))],
    "sweep": [(3, 24, PLANE, ("cap", "region"))] * 5,
    "converge": [(3, level, PLANE, ("cap", "region")) for level in (8, 12, 16, 24)],
}

IMPORT_METRICS = ("cli.import_s", "cli.import_numpy_s", "cli.import_jsonschema_s",
                  "cli.import_fbmink_s")


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's ``src`` first on the path."""
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def import_split(stderr: str) -> dict:
    """Import seconds from ``python -X importtime`` output.

    ``cli.import_s`` is the cumulative time of the outermost fbmink imports,
    numpy and jsonschema their own cumulative times wherever they load, and
    ``cli.import_fbmink_s`` the self time of the package's own modules.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].split(":")[1].strip().isdigit():
            continue
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(parts[0].split(":")[1]), int(parts[1])))
    ours = [r for r in rows if r[1] == "fbmink" or r[1].startswith("fbmink.")]
    top = min((r[0] for r in ours), default=0)
    return {
        "cli.import_s": 1e-6 * sum(r[3] for r in ours if r[0] == top),
        "cli.import_numpy_s": 1e-6 * sum(r[3] for r in rows if r[1] == "numpy"),
        "cli.import_jsonschema_s": 1e-6 * sum(r[3] for r in rows if r[1] == "jsonschema"),
        "cli.import_fbmink_s": 1e-6 * sum(r[2] for r in ours),
    }


def interpreter_s(root: Path, samples: int = 5) -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True,
                       timeout=CHILD_TIMEOUT_S)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_probe(root: Path, samples: int = 3) -> dict:
    """Median import split of ``import fbmink.cli`` in fresh children."""
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fbmink.cli"],
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              check=True, timeout=CHILD_TIMEOUT_S)
        runs.append(import_split(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in IMPORT_METRICS}


class ColdCli:
    """One fresh CLI process per op; a pass is the 8 subcommands in seeded order.

    Each output must match the first output of its subcommand in the run
    byte for byte, with ``generated_unix_time`` masked.  With ``sums`` set
    to a list, ops run the traced child instead and append its layer sums.
    """

    threaded = False   # whether an op runs on more than one CPU

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.rng = random.Random(seed)
        self.cli_seed = str(seed)
        self.env = child_env(root)
        self.reference: dict[str, bytes] = {}
        self.sums = None

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.schur_config = workdir / "schur.json"
        self.schur_config.write_text(json.dumps(SCHUR_CONFIG))
        self._spawn(self._argv("minkowski"))

    def next_pass(self) -> list:
        order = list(SUBCOMMANDS)
        self.rng.shuffle(order)
        return order

    def in_latency(self, outcome: Outcome) -> bool:
        return True

    def _argv(self, sub: str) -> list:
        args = [sub, "--seed", self.cli_seed]
        if sub == "schur":
            args += ["--config", str(self.schur_config)]
        return args

    def _spawn(self, args: list, traced_to: Path | None = None):
        if traced_to is None:
            cmd = [sys.executable, "-m", "fbmink", *args]
        else:
            cmd = [sys.executable, "-X", "importtime", str(CHILD), str(traced_to), *args]
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)

    def run_op(self, sub: str) -> Outcome:
        sums_file = self.workdir / "layer_sums.json" if self.sums is not None else None
        t0 = perf_counter()
        proc = self._spawn(self._argv(sub), sums_file)
        outcome = Outcome(key=sub, wall_s=perf_counter() - t0)
        for n, level, kind, parts in NODE_SETS[sub]:
            outcome.geometry_nodes += nominal_nodes(n, level, kind, [p for p in parts if p != "region"])
            if "region" in parts:
                outcome.region_nodes += nominal_nodes(n, level, kind, ("region",))
        if sums_file is not None:
            sums = json.loads(sums_file.read_text()) if sums_file.is_file() else {}
            sums.update(import_split(proc.stderr.decode(errors="replace")))
            self.sums.append(sums)
            sums_file.unlink(missing_ok=True)

        ck = Checks()
        ck.check_gate("exit_code", proc.returncode == 0)
        if proc.returncode == 0:
            self._check_output(ck, sub, proc.stdout)
        outcome.gate, outcome.fact = ck.gate, ck.fact
        return outcome

    def _check_output(self, ck: Checks, sub: str, stdout: bytes) -> None:
        masked = mask_generated_time(stdout)
        ck.check_fact("output_identical", masked == self.reference.setdefault(sub, masked))
        text = stdout.decode()
        if sub == "sweep":
            check_sweep_csv(ck, text)
            return
        try:
            doc = parse_json_strict(text)
        except ValueError:
            ck.check_fact("json", False)
            return
        ck.check_gate("status_ok", doc.get("status") == "ok")
        results = doc.get("results")
        if sub in ("minkowski", "af", "schur"):
            check_report(ck, results, umbilical=True, hemisphere_n=results["n"])
        elif sub == "reilly":
            for row in results:
                check_reilly(ck, row)
        else:
            ck.check_fact("finite", all_finite(results))
