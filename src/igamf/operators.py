# -*- coding: utf-8 -*-
"""Matrix-free mass and stiffness operators built on weighted quadrature.

A weighted-quadrature operator is a short sum of Kronecker terms
W diag(c) B: per-direction weight factors W, a coefficient grid c at the
tensor quadrature points and per-direction collocation factors B.
:func:`wq_terms` lists the terms and :func:`coefficient_grids` evaluates
the grids; the matrix-free operators here and the explicit assembly oracle
both consume them.  The mass operator is one term; the stiffness operator
has d*d derivative-pair terms over d(d+1)/2 symmetric grids.  Both apply
in one fused pass per group of terms sharing their collocation factors:
the products with the grids run tile by tile between the last collocation
mode and the first weight mode, so no quadrature-point vector is formed.
The load vector is the mass term's weight factors alone applied to a grid
of source values, streamed chunk by chunk (:func:`wq_load_vector`).
Factors are restricted to the Dirichlet-interior basis.  The operators,
the load vector and explicit assembly get a rule's grids chunk by chunk
(:func:`_grid_chunks`), on the walk the error pass takes too
(:func:`~igamf.kron.grid_chunks`).  On a Gauss rule
(:func:`~igamf.wq.gauss_tensor_rule`) all of this is standard Gauss
quadrature.
"""

import numpy as np

from .geometry import pullback
from . import kron
from .kron import (CostMeter, banded, block_matmul, checked_vector,
                   contract_modes, grid_chunks, grid_slabs, kron_flops,
                   tensor_grid)
from .splines import map_distinct
from .wq import TensorRule


def _check_kind(kind):
    if kind not in ("mass", "stiffness"):
        raise ValueError(f"unknown kind {kind!r}")


def wq_terms(rule: TensorRule, kind: str):
    """The interior-restricted WQ operator as groups of terms sharing B-factors.

    Returns one group ``(B-factors, [(W-factors, key), ...])`` per trial
    direction; the operator is the sum over groups and pairs of
    kron(W-factors) diag(grids[key]) kron(B-factors), with the grids of
    :func:`coefficient_grids` and factors listed in direction order.
    ``"mass"``: one group, B values and one pair (W^(0,0), None).
    ``"stiffness"``: for each trial direction b, B differentiated in
    direction b and, for each test direction a, the pair W^(a_l,b_l) with
    a_l = [l == a] and b_l = [l == b] and key (min(a, b), max(a, b)).
    Each distinct per-direction factor is built once and shared by the
    terms that use it; directions sharing one rule object share its factors.
    """
    _check_kind(kind)
    W = map_distinct(lambda r: {ab: w[1:-1, :].tocsr()
                                for ab, w in r.weights.items()}, rule.rules)
    B = map_distinct(lambda r: {b: c[:, 1:-1].tocsr()
                                for b, c in r.colloc.items()}, rule.rules)
    if kind == "mass":
        return [([c[0] for c in B], [([w[(0, 0)] for w in W], None)])]
    return [([c[int(l == b)] for l, c in enumerate(B)],
             [([w[(int(l == a), int(l == b))] for l, w in enumerate(W)],
               (min(a, b), max(a, b))) for a in range(rule.dim)])
            for b in range(rule.dim)]


def coefficient_grids(kind: str, geom, xi, coeff=None):
    """Pulled-back coefficient values at parametric points, keyed as in :func:`wq_terms`.

    ``xi`` is an (npts, d) point array; every value depends on its own
    point only, so :func:`_grid_chunks` calls this per chunk of the rule's
    grid and gets the values of one whole-grid call.

    ``"mass"``: {None: alpha det J_F}, with ``coeff`` = alpha a scalar or a
    physical field (default 1).  ``"stiffness"``: {(a, b): C_ab for a <= b}
    with C = det J_F J_F^-1 K J_F^-T = cof^T K cof / det J_F, where
    ``coeff`` = K is None (identity), a symmetric d x d matrix, or a
    physical field returning (npts, d, d) values.  Raises
    :class:`~igamf.geometry.DegenerateGeometryError` where det J_F <= 0.
    """
    _check_kind(kind)
    if kind == "mass":
        det = pullback(geom, xi)[0]
        alpha = 1.0 if coeff is None else coeff
        scale = alpha(geom.evaluate(xi)) if callable(alpha) else float(alpha)
        return {None: np.asarray(scale * det, dtype=float)}
    det, cof = pullback(geom, xi)
    if coeff is None:
        Kcof = cof
    else:
        K = coeff(geom.evaluate(xi)) if callable(coeff) else coeff
        Kcof = np.matmul(np.asarray(K, dtype=float), cof)
    d = cof.shape[1]
    grids = {}
    for a in range(d):
        for b in range(a, d):
            g = cof[:, 0, a] * Kcof[:, 0, b]
            for i in range(1, d):
                g += cof[:, i, a] * Kcof[:, i, b]
            g /= det
            grids[(a, b)] = g
    return grids


def _grid_chunks(kind: str, rule: TensorRule, geom, coeff):
    """Yield ``(flat, grids)``: :func:`coefficient_grids` at the flat grid
    points ``flat`` of each chunk of :func:`~igamf.kron.grid_chunks`.

    Each slab's points are laid out whole on purpose: freeing slab-sized
    arrays raises glibc's dynamic mmap and trim thresholds, so the stiffness
    apply's scratch comes from the heap, not from fresh mmaps.  Laying out
    only chunks' points made the apply 28.8 ms, not 18.3, at p=8 (18.9, not
    11.4, at p=3): k=5 ring, medians of 30 applies over 8 processes taken
    in turn, one BLAS thread, 2-core x86 host.
    """
    *lower, last = [r.points for r in rule.rules]
    for s, chunks in grid_chunks(rule.n_points_per_dir):
        xi = tensor_grid(lower + [last[s]]).reshape(rule.dim, len(last[s]), -1)
        for layers, part, flat in chunks:
            points = xi[:, layers, part].reshape(rule.dim, -1).T
            yield flat, coefficient_grids(kind, geom, points, coeff)


def _rule_grids(kind: str, rule: TensorRule, geom, coeff):
    """:func:`coefficient_grids` over all ``rule.n_points`` points, written
    chunk by chunk (:func:`_grid_chunks`) into (n_points,) arrays."""
    grids = {}
    for flat, chunk in _grid_chunks(kind, rule, geom, coeff):
        for key, g in chunk.items():
            if key not in grids:
                grids[key] = np.empty(rule.n_points)
            grids[key][flat] = g
    return grids


def wq_load_vector(rule: TensorRule, geom, f) -> np.ndarray:
    """Load vector f_i = int det(J_F) b_i (f o F) dxi by weighted quadrature.

    The mass term's weight factors W^(0,0) applied to the grid
    (f o F) det J_F (on a Gauss rule, the Gauss load vector), which is never
    held whole: as in the fused apply, the direction-1 mode runs per chunk
    of :func:`_grid_chunks` into one (Q_2 ... Q_d, N_1) array, the other
    modes once after.  ``f`` is a physical-space field taking an (npts, d)
    coordinate array.  Raises
    :class:`~igamf.geometry.DegenerateGeometryError` where det J_F <= 0.
    """
    (_, [(W, _)]), = wq_terms(rule, "mass")
    W = map_distinct(banded, W)
    q1 = rule.n_points_per_dir[0]
    Y = np.empty((rule.n_points // q1, W[0].shape[0]))
    for flat, chunk in _grid_chunks("mass", rule, geom, f):
        rows = chunk[None].reshape(-1, q1)
        block_matmul(W[0], rows, Y[flat.start // q1:flat.stop // q1])
    return contract_modes(W[1:], Y).reshape(W[0].shape[0], -1).T.ravel()


class _WQOperator:
    """Term groups and stored coefficient grids of one WQ operator.

    ``groups`` is :func:`wq_terms` with each distinct factor converted once
    by :func:`~igamf.kron.banded`.  ``coeffs`` holds the grids of all
    ``rule.n_points`` points (:func:`_rule_grids`): set-up needs them, one
    slab's points and one chunk's scratch.
    """

    def __init__(self, space, rule: TensorRule, geom, kind, coeff):
        self.rule = rule
        self.n_dofs = space.n_dofs
        groups = wq_terms(rule, kind)
        distinct = {id(f): f for B, pairs in groups
                    for F in [B] + [W for W, _ in pairs] for f in F}
        conv = {i: banded(f) for i, f in distinct.items()}
        self.groups = [([conv[id(f)] for f in B],
                        [([conv[id(f)] for f in W], key) for W, key in pairs])
                       for B, pairs in groups]
        self.coeffs = _rule_grids(kind, rule, geom, coeff)

    @property
    def coeff_scalars(self) -> int:
        """Stored coefficient-grid scalars."""
        return sum(g.size for g in self.coeffs.values())

    def apply(self, v, meter: CostMeter | None = None) -> np.ndarray:
        """The sum over terms of W diag(c) B v, fused at the quadrature points.

        Per trial group, :meth:`_tile_pass` runs up to each term's
        direction-1 W mode; each term's W modes of directions d..2 follow
        as in :func:`~igamf.kron.contract_modes`.  The terms are summed in
        the dof order those modes leave, direction 1 slowest, and one
        transpose at the end restores the natural order.  No
        ``rule.n_points``-sized vector is formed.  The meter charges the
        term-by-term count: the :func:`~igamf.kron.kron_flops` of each B
        and W list (direction d first) plus nq + 2 n_dofs per term.
        """
        v = checked_vector(v, self.n_dofs)
        nq = self.rule.n_points
        w = np.zeros(self.n_dofs)
        for B, pairs in self.groups:
            Y = self._tile_pass(B, pairs, v)
            for W, _ in pairs:
                w += contract_modes(W[1:], Y.pop(0))
            if meter is not None:
                meter.add_flops(kron_flops(B) + sum(
                    kron_flops(W) + nq + 2 * self.n_dofs for W, _ in pairs))
        return w.reshape(B[0].shape[1], -1).T.ravel()

    def _tile_pass(self, B, pairs, v):
        """One trial group up to each term's direction-1 W mode.

        The B modes of directions d..2 run as in
        :func:`~igamf.kron.kron_apply`, leaving rows of Q_1 points in grid
        order.  The rows are cut into tiles of about
        :data:`~igamf.kron.TILE_POINTS` points; per tile, the direction-1 B
        mode, each term's product with its coefficient grid and that
        term's direction-1 W mode, a contraction over the tile's fastest
        axis, run while the tile is in cache.  Returns one
        (Q_2 ... Q_d, N_1) array per term.
        """
        q1, n1 = B[0].shape
        X = contract_modes(B[1:], v).reshape(n1, -1)
        rows = X.shape[1]
        coeffs = [self.coeffs[key].reshape(rows, q1) for _, key in pairs]
        Y = [np.empty((rows, W[0].shape[0])) for W, _ in pairs]
        for t in grid_slabs((q1, rows), kron.TILE_POINTS):
            vt = block_matmul(B[0], X[:, t].T)
            for (W, _), c, Yk in zip(pairs, coeffs, Y):
                block_matmul(W[0], vt * c[t], Yk[t])
        return Y


class MassOperator(_WQOperator):
    """Matrix-free weighted-quadrature mass operator on the interior space."""

    def __init__(self, space, rule: TensorRule, geom, alpha=1.0):
        super().__init__(space, rule, geom, "mass", alpha)


class StiffnessOperator(_WQOperator):
    """Matrix-free weighted-quadrature stiffness operator (interior space)."""

    def __init__(self, space, rule: TensorRule, geom, K=None):
        super().__init__(space, rule, geom, "stiffness", K)

    def apply(self, v, meter: CostMeter | None = None) -> np.ndarray:
        # bound on the class itself, so that instrumenting the stiffness
        # apply (perfbench/tracer.py) leaves the mass apply alone
        return super().apply(v, meter)


def setup_mass(space, rule, geom, alpha=1.0) -> MassOperator:
    return MassOperator(space, rule, geom, alpha=alpha)


def setup_stiffness(space, rule, geom, K=None) -> StiffnessOperator:
    return StiffnessOperator(space, rule, geom, K=K)
