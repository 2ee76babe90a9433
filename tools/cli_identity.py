"""Compare `python -m fbmink` output between two source trees, byte for byte.

    python3 tools/cli_identity.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; its package is imported from
TREE/src.  Every run in RUNS executes once per tree from the same scratch
directory, which holds the config files.  Stdout (with the value of
generated_unix_time masked), stderr and the exit code must match.  One line
is printed per run, and for a run that differs, each differing stream from
shortly before its first differing byte; the exit status is 0 when every run
matches and 1 otherwise.  Uses the standard library only.

RUNS holds 81 runs.  Three run at n=4 (``schur``, ``af`` and a two-row
``sweep``, level 10), where the principal curvatures come from 3x3 stacks and
reach stdout through the almost-Schur and AF hypothesis margins and the
sweep's ``min_convexity_eig``; the others run at n=2, 3, 5 or 6.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

TILTED = {"version": 1, "cap": {"tilt": 0.2}}
EQUIDISTANT = {"version": 1, "support": {"kind": "equidistant"}, "cap": {"radius": 0.3},
               "perturbation": {"epsilon": 0.05, "power": 3}}
SPHERE = {"version": 1, "support": {"kind": "euclidean_sphere"},
          "perturbation": {"epsilon": 0.05, "power": 3}}
OFF_ORTHOGONAL = {"version": 1, "support": {"kind": "euclidean_sphere"},
                  "cap": {"radius": 0.5, "center_distance": 1.2}}
NEGATIVE_SWEEP = {"version": 1, "sweep": {"epsilons": [-0.06, -0.03, 0.03, 0.06]}}
ZERO_SWEEP = {"version": 1, "support": {"kind": "euclidean_sphere"},
              "sweep": {"epsilons": [0.0, -0.04, 0.0, 0.05]}}
STEEP_EQUIDISTANT = {"version": 1, "support": {"kind": "equidistant", "params": {"theta": 1.4}}}
# an n=2 cap off the symmetry axis: an arc covering one side of its axis shows here
TILTED_ARC = {"version": 1, "n": 2, "support": {"kind": "euclidean_sphere"}, "cap": {"axis": [1, 1]}}
# where the Minkowski field's anchor, the face's center, matters: a vertical plane, and a
# horosphere cap shifted along its plane
GEODESIC_PLANE = {"version": 1, "support": {"kind": "hyp_geodesic_plane"}}
SHIFTED_HOROSPHERE = {"version": 1, "support": {"kind": "horosphere"},
                      "cap": {"center_shift": [3, 0]}}
# a cap of radius 1e5: its Reilly residuals are large in absolute terms and rounding
# relative to the terms, which is what ``reilly`` gates on
LARGE_CAP = {"version": 1, "support": {"kind": "euclidean_plane"}, "cap": {"radius": 1e5},
             "perturbation": {"epsilon": 0.05}, "reilly": {"functions": ["V", "x1", "x2^2"]}}
# the second epsilon's cap leaves the half region: the sweep stops there and exits 2
FAILING_SWEEP = {"version": 1, "support": {"kind": "sph_hyperplane"}, "cap": {"radius": 0.78},
                 "sweep": {"epsilons": [0.05, 0.4, 0.6, -0.6]}}

# (name, argv, config); a config is JSON data, raw JSON text, or None for no --config
RUNS: list[tuple[str, list[str], object]] = [
    *[(command, [command], None) for command in
      ("identities", "curvature", "minkowski", "af", "schur", "reilly", "sweep", "converge")],
    # n=4: the k = 3 principal curvatures reach stdout through each margin
    ("schur n=4", ["schur"], {"version": 1, "n": 4, "quadrature": {"level": 10}}),
    ("af n=4", ["af"], {"version": 1, "n": 4, "quadrature": {"level": 10}}),
    ("sweep n=4", ["sweep"], {"version": 1, "n": 4, "quadrature": {"level": 10},
                              "sweep": {"epsilons": [0.02, 0.05]}}),
    ("minkowski n=2 axis=[1,1]", ["minkowski"], TILTED_ARC),
    *[(f"{command} {label}", [command], cfg)
      for label, cfg in (("tilted", TILTED), ("equidistant-eps", EQUIDISTANT),
                         ("sphere-eps", SPHERE), ("off-orthogonal", OFF_ORTHOGONAL))
      for command in ("minkowski", "af", "reilly", "sweep", "converge")],
    *[(f"{command} {label}", [command], cfg)
      for label, cfg in (("hyp_geodesic_plane", GEODESIC_PLANE),
                         ("horosphere center_shift=[3,0]", SHIFTED_HOROSPHERE))
      for command in ("minkowski", "converge")],
    ("reilly euclidean_plane radius=1e5", ["reilly"], LARGE_CAP),
    ("sweep negative-eps", ["sweep"], NEGATIVE_SWEEP),
    ("sweep negative-eps jobs=2 json", ["sweep", "--jobs", "2", "--format", "json"],
     NEGATIVE_SWEEP),
    *[(f"sweep {kind} jobs={jobs}", ["sweep", "--jobs", str(jobs)],
       {"version": 1, "support": {"kind": kind}})
      for kind in ("hyp_geodesic_sphere", "sph_geodesic_sphere") for jobs in (1, 2)],
    *[(f"sweep zero-and-negative-eps jobs={jobs}", ["sweep", "--jobs", str(jobs)], ZERO_SWEEP)
      for jobs in (1, 2)],
    *[(f"sweep failing-partway jobs={jobs}", ["sweep", "--jobs", str(jobs)], FAILING_SWEEP)
      for jobs in (1, 2)],
    # malformed input: each must exit 2 with a named error
    ("identities tolerance=nan", ["identities", "--tolerance", "nan"], None),
    ("identities tolerance=inf", ["identities", "--tolerance", "inf"], None),
    ("minkowski radius=NaN", ["minkowski"], '{"version": 1, "cap": {"radius": NaN}}'),
    ("minkowski tilt=Infinity", ["minkowski"], '{"version": 1, "cap": {"tilt": Infinity}}'),
    ("minkowski axis=[0,1]", ["minkowski"], {"version": 1, "cap": {"axis": [0, 1]}}),
    ("minkowski axis=[0,0,0]", ["minkowski"], {"version": 1, "cap": {"axis": [0, 0, 0]}}),
    ("minkowski center_shift=[0.1]", ["minkowski"],
     {"version": 1, "cap": {"center_shift": [0.1]}}),
    # a geodesic radius whose chart radius underflows to 0
    *[(f"minkowski {kind} geodesic_radius=5e-324", ["minkowski"],
       {"version": 1, "support": {"kind": kind, "params": {"geodesic_radius": 5e-324}}})
      for kind in ("hyp_geodesic_sphere", "sph_geodesic_sphere")],
    ("converge levels=[12,8,16]", ["converge"], {"version": 1, "converge": {"levels": [12, 8, 16]}}),
    ("converge levels=[8,8]", ["converge"], {"version": 1, "converge": {"levels": [8, 8]}}),
    # schema violations, one per keyword class: stderr names the path and the broken rule
    *[(f"{command} {label}", [command], cfg) for command, label, cfg in (
        ("minkowski", "version=true", {"version": True}),
        ("minkowski", "version=2", {"version": 2}),
        ("minkowski", 'n="3"', {"version": 1, "n": "3"}),
        ("minkowski", "n=99", {"version": 1, "n": 99}),
        ("identities", "tolerance=0", {"version": 1, "tolerance": 0}),
        ("minkowski", "chart_radius=1", {"version": 1, "support": {
            "kind": "hyp_geodesic_sphere", "params": {"chart_radius": 1}}}),
        ("minkowski", "unknown support kind", {"version": 1, "support": {"kind": "torus"}}),
        ("sweep", "sweep={}", {"version": 1, "sweep": {}}),
        ("minkowski", "unknown key capp", {"version": 1, "capp": {}}),
        ("sweep", "epsilons=[]", {"version": 1, "sweep": {"epsilons": []}}),
        ("converge", "17 levels", {"version": 1, "converge": {"levels": list(range(8, 25))}}),
        ("converge", "levels=[8,65]", {"version": 1, "converge": {"levels": [8, 65]}}),
        ("reilly", 'functions=["y"]', {"version": 1, "reilly": {"functions": ["y"]}}),
        ("minkowski", "root []", []),
    )],
    # a steep equidistant plane: the default cap moves up along the plane to fit the chart
    ("sweep equidistant theta=1.4", ["sweep"], STEEP_EQUIDISTANT),
    # the sectional-curvature probe outside n=3; n=5 seed 0 exits 2 on a degenerate patch
    *[(f"curvature n={n} seed={seed}", ["curvature", "--seed", str(seed)],
       {"version": 1, "n": n}) for n, seed in ((2, 7), (4, 7), (5, 7), (5, 0))],
    # the weights, supports and probes at the smallest and the largest dimension
    *[(f"{command} n={n}", [command], {"version": 1, "n": n})
      for command in ("identities", "curvature") for n in (2, 6)],
]

_TIME = re.compile(rb'("generated_unix_time": )\d+')
EXCERPT = 300   # bytes of each differing stream printed, from shortly before the first difference


def excerpts(old: bytes, new: bytes) -> tuple[bytes, bytes]:
    """The EXCERPT bytes of each stream that start 60 bytes before the first byte
    where they differ (or where the shorter one ends)."""
    first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    start = max(0, first - 60)
    return old[start:start + EXCERPT], new[start:start + EXCERPT]


def run_once(tree: str, argv: list[str], workdir: str) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-m", "fbmink", *argv], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    return _TIME.sub(rb"\1<masked>", proc.stdout), proc.stderr, proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = argv
    differing = 0
    with tempfile.TemporaryDirectory() as workdir:
        for index, (name, args, cfg) in enumerate(RUNS):
            if cfg is not None:
                path = os.path.join(workdir, f"cfg{index}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(cfg if isinstance(cfg, str) else json.dumps(cfg))
                args = [*args, "--config", path]
            a, b = run_once(old, args, workdir), run_once(new, args, workdir)
            same = a == b
            differing += not same
            verdict = "same" if same else "DIFF"
            print(f"{verdict}  exit {a[2]} -> {b[2]}  {name}", flush=True)
            if not same:
                for label, x, y in (("stdout", a[0], b[0]), ("stderr", a[1], b[1])):
                    if x != y:
                        x, y = excerpts(x, y)
                        print(f"    {label} old: {x!r}\n    {label} new: {y!r}")
    print(f"{len(RUNS) - differing} of {len(RUNS)} runs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
