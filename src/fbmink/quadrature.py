"""Tensor-product Gauss-Legendre quadrature over surfaces and star-shaped regions.

Surfaces integrate over their chart parameter box.  Volume integrals use the
cone decomposition of a star-shaped region: with star center x0 and boundary
pieces X(u), the map (s, u) -> x0 + s (X(u) - x0) has Jacobian determinant
s^{n-1} det[X - x0 | dX], so each boundary piece contributes one smooth
tensor-product integral.  The split along the corner ring Gamma is automatic
because the cap and the support face are separate pieces.  A region is given
by its star center and the labels of its pieces alone; it has no membership
test, so every volume integral goes through these cones.

This module holds the quadrature primitives: the ``QuadratureRule`` that places
the Gauss-Legendre nodes, the ``SurfaceQuadrature`` of one surface chart, the
cone over one boundary piece with its flat weights, its ``cut`` into blocks, and
the ``region_sum`` of the pieces' block sums.  A cap scenario
(``families.CapScenario``) keeps one memoized ``families.Piece`` per boundary
piece and rule, which builds that piece's surface quadrature and weighted cone
and sums every region integrand over that cone's blocks.

Shapes: ``rule.grid(box)`` gives the parameter points as (m, k) rows and their
weights (m,); everything formed at the points is node-last, as in
``surfaces``: a surface's geometry (``SurfaceGeometry``), its normal
derivatives (k, n, m) and a function's boundary parts ((m,) and (k, m)); a
cone's nodes (n, s * m), one C-contiguous array of its own, and weights
(s * m,); a region block's nodes (n, k).

A region's pieces are never joined.  Each is ``cut`` into blocks of
``REGION_BLOCK`` consecutive nodes from its own first node, each block a view
into it.  Region integrands are formed and reduced one block at a time, so a
region term holds its (n, n, k) temporaries for one block, and no such tensor
is kept at full size: what a piece keeps on its cone is per-node rows, one
array per block.  Each block is reduced with ``pairwise_sum``
(``families.Piece.block_sums``), each piece's block sums with it again, and the
piece sums with it once more (``region_sum``).  That equals one
``pairwise_sum`` over the joined nodes only where each piece's blocks form
whole subtrees of that flat tree: a region of one piece, or a first piece of
2^a full blocks (or of 2^a nodes in one block) followed by a piece of at most
as many, as the two cones of an n = 3 cap over a sphere support at levels 16
and 32 are.  Elsewhere the trees differ, and a sum may differ from the flat
one in its last bits.

Gauss-Legendre nodes are interior, so cone apexes (s = 0) and the polar axis
t = 0 of a cap with two or more parameters, where its chart is singular, are
never evaluated (an arc spans [-t_max, t_max] and is regular at t = 0).  Node reductions use a fixed-order
pairwise sum to keep results bit-stable under repetition and threading.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import StarShapeViolated
from .surfaces import (
    FreeBoundarySurface,
    SurfaceGeometry,
    curvature_arrays,
    normal_derivatives,
    surface_geometry,
)

DEFAULT_LEVELS = {2: 32, 3: 24, 4: 12, 5: 8, 6: 6}
REFINE_ERROR_FLOOR = 1e-14   # relative error treated as converged by refine_study
REGION_BLOCK = 2 ** 13       # region nodes per block; a power of two keeps sums bit-equal


def default_level(n: int) -> int:
    """Default nodes per axis for ambient dimension n (cost grows as level^n)."""
    return DEFAULT_LEVELS.get(n, 6)


def pairwise_sum(values: np.ndarray) -> float:
    """Fixed-order pairwise reduction; independent of BLAS and thread count."""
    a = np.asarray(values, dtype=float).ravel()
    if a.size == 0:
        return 0.0
    while a.size > 1:
        if a.size % 2:
            a = np.concatenate([a, [0.0]])
        a = a[0::2] + a[1::2]
    return float(a[0])


@functools.lru_cache(maxsize=64)
def _gauss_unit(level: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    x, w = np.polynomial.legendre.leggauss(level)
    return tuple(0.5 * (x + 1.0)), tuple(0.5 * w)


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Legendre quadrature with ``level`` nodes per axis: it places
    every node, and a scenario keys each node set by it."""

    level: int

    def __post_init__(self):
        if not isinstance(self.level, numbers.Integral):
            raise ValueError(f"quadrature level must be an integer, got {self.level!r}")
        if self.level < 2:
            raise ValueError("quadrature level must be at least 2")

    def nodes(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights on [lo, hi]."""
        xu, wu = _gauss_unit(self.level)
        span = hi - lo
        return lo + span * np.asarray(xu), span * np.asarray(wu)

    def grid(self, box: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
        """Tensor-product nodes over a box: returns (points (m, k), weights (m,))."""
        axes, weights = zip(*(self.nodes(lo, hi) for lo, hi in box))
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([mm.ravel() for mm in mesh], axis=1)
        wt = functools.reduce(np.multiply.outer, weights).ravel()
        return pts, wt


class Memo:
    """Values built on first use and kept in the instance's ``_cache`` dict.  A memo
    is not safe for concurrent first use: two threads may both build one value."""

    def _once(self, key, build: Callable):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


class SurfaceQuadrature(Memo):
    """Geometry at the tensor nodes of a surface chart, from its (X, J, H) there if
    given, and the integrals over them, with cached curvature and normal derivatives.
    ``grid`` is ``rule.grid`` of the chart's domain, formed here when not given."""

    def __init__(self, surf: FreeBoundarySurface, rule: QuadratureRule, values=None,
                 grid: tuple[np.ndarray, np.ndarray] | None = None):
        self.surf = surf
        self.rule = rule
        params, self.box_weights = rule.grid(surf.chart.domain) if grid is None else grid
        self.geo: SurfaceGeometry = surface_geometry(surf, params, values)
        self.weights = self.box_weights * self.geo.area_element
        self._cache = {}

    def curvature(self):
        return self._once("curvature", lambda: curvature_arrays(self.surf, self.geo))

    def normal_derivatives(self) -> np.ndarray:
        """Chart partials d_a nu^i at the nodes, shape (k, n, m)."""
        return self._once("dnu", lambda: normal_derivatives(self.surf, self.geo))

    def boundary_parts(self, fn_jet: tuple) -> tuple:
        """The value (m,), the normal derivative (m,), the tangential gradient (k, m)
        (parameter components, lower index), the intrinsic Laplacian through the ambient
        one (m,), and the tangential derivative of the normal derivative (k, m), of one
        function on this surface, from its ``weights.jet`` at the nodes."""
        value, d1, d2, hess, lap = fn_jet
        nu, jac = self.geo.nu, self.geo.jac
        d_nu = np.sum(d1 * nu, axis=0)
        d_a = np.sum(d1[:, None] * jac, axis=0)
        lap_p = (lap - np.sum(np.sum(hess * nu, axis=1) * nu, axis=0)
                 - self.curvature().H * d_nu)
        d_nu_a = (np.sum(np.sum(d2 * nu, axis=1)[:, None] * jac, axis=0)
                  + np.sum(d1 * self.normal_derivatives(), axis=1))
        return value, d_nu, d_a, lap_p, d_nu_a

    def integral(self, values: np.ndarray) -> float:
        return pairwise_sum(np.asarray(values, dtype=float) * self.weights)


# -- star-shaped regions -------------------------------------------------------


def cone(x0: np.ndarray, label: str, piece: SurfaceQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x0 + s (X - x0), (n, s * m), and flat weights of the cone from the star
    center x0 over one boundary piece."""
    n = x0.shape[0]
    geo = piece.geo
    s_nodes, s_w = piece.rule.nodes(0.0, 1.0)
    spread = geo.x - x0[:, None]                 # (n, m)
    # star-shape check: boundary must face away from the center
    facing = np.sum(spread * geo.nu_delta, axis=0)
    if np.any(facing <= 0.0):
        raise StarShapeViolated(
            f"piece '{label}' faces the star center "
            f"(min <X - x0, nu> = {float(np.min(facing)):.3e})")
    # Laplace expansion along the first column: det[X - x0 | J] = <X - x0, w> for the
    # cross product w of J's columns, whose length is flat_area and direction +-nu_delta
    cone_jac = facing * geo.flat_area
    # nodes: x0 + s * spread for every (s, u) pair, as one C-contiguous (n, s, u) block
    # written into the (n, s * m) array returned, so that its piece may keep it as it is
    # (an (n, s, u) temporary instead costs a level-32 sweep row about 0.15 ms)
    pts = np.empty((n, s_nodes.size * spread.shape[1]))
    block = pts.reshape(n, s_nodes.size, spread.shape[1])
    np.multiply(s_nodes[:, None], spread[:, None, :], out=block)
    block += x0[:, None, None]
    radial = (s_nodes ** (n - 1))[:, None] * s_w[:, None]
    wt = radial * (piece.box_weights * cone_jac)[None, :]
    return pts, wt.ravel()


def cut(pts: np.ndarray, wt: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The blocks of one cone: column views of its nodes (n, m) and weights (m,), of
    ``REGION_BLOCK`` consecutive nodes each from its first node, the last partial."""
    return tuple((pts[:, lo:lo + REGION_BLOCK], wt[lo:lo + REGION_BLOCK])
                 for lo in range(0, wt.size, REGION_BLOCK))


def region_sum(block_sums: Sequence[Sequence[float]]) -> float:
    """The pairwise sum over a region's pieces of each piece's pairwise sum of its
    block sums."""
    return pairwise_sum(np.array([pairwise_sum(np.array(sums)) for sums in block_sums]))


# -- refinement studies ----------------------------------------------------------


@dataclass
class ConvergenceTable:
    """Values of a quantity at increasing quadrature levels."""

    levels: list[int]
    values: list[float]
    errors: list[float] = field(default_factory=list)      # |v - v_finest|
    orders: list[float] = field(default_factory=list)      # between consecutive levels

    @property
    def observed_order(self) -> float:
        finite = [o for o in self.orders if math.isfinite(o)]
        if not finite:
            return math.inf
        return min(finite)


def refine_study(fn: Callable[[int], float], levels: Sequence[int]) -> ConvergenceTable:
    """Evaluate fn at each level and estimate the observed convergence order.

    Orders are computed from errors against the finest level; pairs of errors
    already at the rounding floor give order +inf (converged), matching the
    behaviour of constant integrands whose values repeat identically.
    """
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError("refinement needs at least two levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must increase strictly")
    values = [float(fn(level)) for level in levels]
    ref = values[-1]
    scale = max(abs(ref), 1.0)
    errors = [abs(v - ref) for v in values]
    orders = []
    for i in range(len(levels) - 2):
        e0, e1 = errors[i], errors[i + 1]
        if e1 <= REFINE_ERROR_FLOOR * scale or e0 <= REFINE_ERROR_FLOOR * scale:
            orders.append(math.inf)
            continue
        ratio = levels[i + 1] / levels[i]
        orders.append(math.log(e0 / e1) / math.log(ratio))
    return ConvergenceTable(levels=levels, values=values, errors=errors, orders=orders)
