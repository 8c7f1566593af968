# -*- coding: utf-8 -*-
"""Matrix-free mass and stiffness operators built on weighted quadrature.

A weighted-quadrature operator is a short sum of Kronecker terms
W diag(c) B: per-direction weight factors W, a coefficient grid c at the
tensor quadrature points and per-direction collocation factors B.
:func:`wq_terms` lists the terms and :func:`coefficient_grids` evaluates
the grids; the matrix-free operators here and the explicit assembly oracle
both consume them.  The mass operator is one term; the stiffness operator
has d*d derivative-pair terms over d(d+1)/2 symmetric grids.  The
matrix-free operators drop at set-up each term whose grid is negligible
against the diagonal ones (:func:`_negligible`: on both quarter rings
C_12 is rounding noise and C_13 = C_23 = 0, so the stiffness keeps 3 of
its 9 terms and stores 3 of its 6 grids); explicit assembly keeps every
term.  On an extrusion with a constant coefficient (both rings and the
cube) every grid is constant along xi_d, so the matrix-free operators
evaluate and store it over one xi_d layer and fold direction d of each
term into one N_d x N_d factor W_d B_d: exact Kronecker algebra, not a
new approximation.  Both operators apply in one fused pass per group of
terms sharing their collocation factors: the products with the grids run
tile by tile of whole xi_d layers between the last collocation mode and
the first weight mode, so no quadrature-point vector is formed.
The load vector is the mass term's weight factors alone applied to a grid
of source values, streamed chunk by chunk (:func:`wq_load_vector`).  On
an extrusion it too evaluates the geometry over one xi_d layer, once per
point of the (xi_1, ..., xi_{d-1}) plane, and hands the source, a
broadcasting row function, each chunk's plane rows and a column of its
layers, so it lays out no point arrays (:func:`_source_chunks`).
Factors are restricted to the Dirichlet-interior basis.  The operators,
explicit assembly and the load vector on any other map get a rule's grids
chunk by chunk (:func:`_grid_chunks`), on the walk the error pass takes
too (:func:`~igamf.kron.grid_chunks`).  On a Gauss rule
(:func:`~igamf.wq.gauss_tensor_rule`) all of this is standard Gauss
quadrature.
"""

from dataclasses import replace

import numpy as np

from .geometry import plane_pullback, pullback
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
    W = map_distinct(lambda r: {ab: w[1:-1] for ab, w in r.weights.items()},
                     rule.rules)
    B = map_distinct(lambda r: {b: c[:, 1:-1] for b, c in r.colloc.items()},
                     rule.rules)
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
    """Yield ``(block, grids)``: :func:`coefficient_grids` at the points of
    each chunk of :func:`~igamf.kron.grid_chunks`, as (layer, plane point)
    arrays, with ``block`` the chunk's ``(layers, part)`` index into the
    (xi_d layer, plane point) view of the rule's grid.

    Each slab's points are laid out whole on purpose.  Laying out only each
    chunk's points slowed the stiffness apply on a sheared ring (the test
    fixture ``reparametrized_ring``, all 6 grids kept) from 10.0-11.4 to
    18.8-18.9 ms at p=3 and from 16.4-23.6 to 27.0-37.0 ms at p=8, and
    per-apply tile buffers on top did not recover it (17.3-17.5 and
    27.2-27.8 ms).  On the rational ring, which keeps 3 of the 6 grids, it
    made no difference (4.8-6.7 ms at p=3, 7.6-8.4 ms at p=8 either way,
    measured while the ring's grids still covered every xi_d layer), so the
    ring benchmark cannot see it.  k=5, medians of 20-30 applies in each of
    2-3 processes per side, one BLAS thread, shared 2-core x86 host.
    The likely cause, unverified: freeing slab-sized arrays raises glibc's
    dynamic mmap threshold, so the apply's scratch comes from the heap, not
    from fresh mmaps.  On an extrusion the operators walk one xi_d layer
    only (:class:`_WQOperator`) and the load vector does not come here
    (:func:`_source_chunks`), so neither frees a slab-sized array.
    """
    *lower, last = [r.points for r in rule.rules]
    for s, chunks in grid_chunks(rule.n_points_per_dir):
        xi = tensor_grid(lower + [last[s]]).reshape(rule.dim, len(last[s]), -1)
        for layers, part in chunks:
            points = xi[:, layers, part]
            grids = coefficient_grids(kind, geom,
                                      points.reshape(rule.dim, -1).T, coeff)
            yield ((slice(s.start + layers.start, s.start + layers.stop), part),
                   {key: g.reshape(points.shape[1:]) for key, g in grids.items()})


#: relative size of a coupling grid, against its diagonal grids, at and
#: below which it counts as rounding noise (:func:`_negligible`)
TAU = 16 * np.finfo(float).eps


def _negligible(key, grids) -> bool:
    """Whether the grid of ``key`` is negligible at every point of ``grids``.

    C is symmetric positive definite, so |C_ab| <= sqrt(C_aa C_bb) holds
    pointwise; key (a, b) is negligible where C_ab^2 <= TAU^2 C_aa C_bb,
    compared in squares, which neither overflow nor underflow for
    coefficient values between about 1e-130 and 1e150.
    For a diagonal key and the mass key None the bound is the grid itself,
    so the test reduces to the grid being identically zero.  A zero grid is
    answered by one pass; the in-place products halved the cost of the
    tests of a p=8, k=5 ring set-up (3.9 to 2.1 ms, one BLAS thread, 2-core
    x86 host).
    """
    g = grids[key]
    if not g.any():
        return True
    if key is None or key[0] == key[1]:
        return False
    a, b = key
    bound = grids[(a, a)] * grids[(b, b)]
    bound *= TAU**2
    return bool(np.less_equal(np.square(g), bound).all())


def _rule_grids(kind: str, rule: TensorRule, geom, coeff):
    """:func:`coefficient_grids` over all ``rule.n_points`` points, written
    chunk by chunk (:func:`_grid_chunks`) into (n_points,) arrays.

    Returns ``(grids, kept)``: ``kept`` holds the keys whose grid is not
    :func:`_negligible`, tested per chunk while the chunk is in cache and
    no longer once a chunk keeps the key.
    """
    grids, kept = {}, set()
    for block, chunk in _grid_chunks(kind, rule, geom, coeff):
        for key, g in chunk.items():
            if key not in grids:
                grids[key] = np.empty(rule.n_points)
            grids[key].reshape(rule.n_points_per_dir[-1], -1)[block] = g
            if key not in kept and not _negligible(key, chunk):
                kept.add(key)
    return grids, kept


def _source_chunks(rule: TensorRule, geom, f):
    """Yield ``(block, values)``: (f o F) det J_F on each chunk of
    :func:`~igamf.kron.grid_chunks`, as (layer, plane point) arrays, with
    ``block`` as in :func:`_grid_chunks`.

    On an extrusion (``geom.planar``, d > 1), det J_F and the rows of G are
    evaluated once per point of the (xi_1, ..., xi_{d-1}) plane
    (:func:`~igamf.geometry.plane_pullback`) and ``f`` is handed a chunk's
    plane part as (P,) rows and its xi_d layers as an (L, 1) column, so no
    slab point array is laid out.  Any other map goes through
    :func:`_grid_chunks`, with ``f`` handed each chunk's coordinate rows.
    """
    if geom.planar is None:
        for block, grids in _grid_chunks("mass", rule, geom,
                                         lambda x: f(*x.T)):
            yield block, grids[None]
        return
    *lower, last = [r.points for r in rule.rules]
    det, _, G = plane_pullback(geom, lower, last[0])
    for s, chunks in grid_chunks(rule.n_points_per_dir):
        t = last[s]
        for layers, part in chunks:
            shape = (len(t[layers]), part.stop - part.start)
            values = np.broadcast_to(f(*G[:, part], t[layers, None]), shape)
            yield ((slice(s.start + layers.start, s.start + layers.stop), part),
                   values * det[part])


def wq_load_vector(rule: TensorRule, geom, f) -> np.ndarray:
    """Load vector f_i = int det(J_F) b_i (f o F) dxi by weighted quadrature.

    The mass term's weight factors W^(0,0) applied to the grid
    (f o F) det J_F (on a Gauss rule, the Gauss load vector), which is never
    held whole: as in the fused apply, the direction-1 mode runs per chunk
    of :func:`_source_chunks` into one (Q_2 ... Q_d, N_1) array, the other
    modes once after.  ``f(x_1, ..., x_d)`` is a physical-space row
    function: it takes coordinate arrays that broadcast and returns values
    that broadcast to their shape.  On an extrusion the geometry is
    evaluated once per plane point and ``f`` gets plane rows and a column
    of layers; on any other map, each chunk's points.  Raises
    :class:`~igamf.geometry.DegenerateGeometryError` where det J_F <= 0.
    """
    (_, [(W, _)]), = wq_terms(rule, "mass")
    W = map_distinct(banded, W)
    q1, n_last = rule.n_points_per_dir[0], rule.n_points_per_dir[-1]
    Y = np.empty((rule.n_points // q1, W[0].shape[0]))
    # (xi_d layer, plane row) view of the rows; in d = 1 one row is the grid
    rows = Y.reshape(n_last, -1, Y.shape[1]) if rule.dim > 1 else Y[None]
    for (layers, part), values in _source_chunks(rule, geom, f):
        block = rows[layers, part.start // q1:-(-part.stop // q1)]
        block[...] = block_matmul(W[0], values.reshape(-1, q1)).reshape(
            block.shape)
    return contract_modes(W[1:], Y).reshape(W[0].shape[0], -1).T.ravel()


class _WQOperator:
    """Term groups and stored coefficient grids of one WQ operator.

    Set-up evaluates every grid at the points of ``grid_rule``
    (:func:`_rule_grids`), one slab's points and one chunk's scratch.
    ``grid_rule`` is ``rule`` itself, except on an extrusion
    (``geom.planar``, d > 1) with a coefficient that is not callable:
    there :func:`~igamf.geometry.pullback` ignores xi_d, every grid is
    constant along it, and ``grid_rule`` keeps the first xi_d point only.
    ``groups`` is :func:`wq_terms` without the pairs whose grid is
    :func:`_negligible` and without the groups left with no pair.  When
    ``grid_rule`` is one layer, each pair's direction-d W factor is the
    N_d x N_d product W_d B_d of it and its group's B_d, built once per
    distinct pair of factors, and each group's B_d is the identity: the
    term kron(W) diag(1 x c) kron(B) equals kron(W_d B_d, kron(W')
    diag(c) kron(B')) exactly.  Each distinct factor of the kept terms is
    converted once by :func:`~igamf.kron.banded`.  ``coeffs`` stores the
    kept grids only; the dropped ones are freed at the end of set-up.
    """

    def __init__(self, space, rule: TensorRule, geom, kind, coeff):
        self.n_dofs = space.n_dofs
        self.n1 = space.n_per_dir[0]
        # pullback ignores xi_d on an extrusion: one xi_d layer is every layer
        fold = rule.dim > 1 and geom.planar is not None and not callable(coeff)
        *lower, last = rule.rules
        self.grid_rule = (TensorRule((*lower,
                                      replace(last, points=last.points[:1])))
                          if fold else rule)
        grids, kept = _rule_grids(kind, self.grid_rule, geom, coeff)
        self.coeffs = {key: g for key, g in grids.items() if key in kept}
        groups = [(B, [(W, key) for W, key in pairs if key in kept])
                  for B, pairs in wq_terms(rule, kind)]
        groups = [(B, pairs) for B, pairs in groups if pairs]
        if fold:
            ends = {(id(W[-1]), id(B[-1])): (W[-1], B[-1])
                    for B, pairs in groups for W, _ in pairs}
            products = {ids: Wd @ Bd for ids, (Wd, Bd) in ends.items()}
            eye = np.eye(space.n_per_dir[-1])
            groups = [(B[:-1] + [eye],
                       [(W[:-1] + [products[id(W[-1]), id(B[-1])]], key)
                        for W, key in pairs])
                      for B, pairs in groups]
        distinct = {id(f): f for B, pairs in groups
                    for F in [B] + [W for W, _ in pairs] for f in F}
        conv = {i: banded(f) for i, f in distinct.items()}
        self.groups = [([conv[id(f)] for f in B],
                        [([conv[id(f)] for f in W], key) for W, key in pairs])
                       for B, pairs in groups]

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
        term-by-term count of the kept terms: the
        :func:`~igamf.kron.kron_flops` of each kept group's B list and of
        each kept term's W list (direction d first), as applied (folded on
        an extrusion), plus nq + 2 n_dofs per kept term, with nq the points
        of the grid products (Q_1 ... Q_{d-1} N_d when folded); with no term
        kept, the result is zero and costs nothing.
        """
        v = checked_vector(v, self.n_dofs)
        w = np.zeros(self.n_dofs)
        for B, pairs in self.groups:
            Y = self._tile_pass(B, pairs, v)
            for W, _ in pairs:
                w += contract_modes(W[1:], Y.pop(0))
            if meter is not None:
                nq = int(np.prod([f.shape[0] for f in B]))
                meter.add_flops(kron_flops(B) + sum(
                    kron_flops(W) + nq + 2 * self.n_dofs for W, _ in pairs))
        return w.reshape(self.n1, -1).T.ravel()

    def _tile_pass(self, B, pairs, v):
        """One trial group up to each term's direction-1 W mode.

        The B modes of directions d..2 run as in
        :func:`~igamf.kron.kron_apply`, leaving rows of Q_1 points in grid
        order, by xi_d layers (N_d of them when folded, else Q_d).  Each
        stored grid is viewed as (layers, plane rows, Q_1), a one-layer grid
        broadcast over every layer with zero stride.  The rows are cut into
        tiles of whole layers, about :data:`~igamf.kron.TILE_POINTS` points
        and at least one layer (:func:`~igamf.kron.grid_slabs`); per tile,
        the direction-1 B mode, each term's product with its coefficient
        grid and that term's direction-1 W mode, a contraction over the
        tile's fastest axis, run while the tile is in cache.  Returns one
        (Q_2 ... Q_{d-1} layers, N_1) array per term.
        """
        q1, n1 = B[0].shape
        X = contract_modes(B[1:], v).reshape(n1, -1)
        plane = int(np.prod([f.shape[0] for f in B[1:-1]]))  # rows per layer
        layers = X.shape[1] // plane
        coeffs = [np.broadcast_to(self.coeffs[key].reshape(-1, plane, q1),
                                  (layers, plane, q1)) for _, key in pairs]
        Y = [np.empty((X.shape[1], W[0].shape[0])) for W, _ in pairs]
        for s in grid_slabs((q1 * plane, layers), kron.TILE_POINTS):
            t = slice(s.start * plane, s.stop * plane)
            vt = block_matmul(B[0], X[:, t].T).reshape(-1, plane, q1)
            for (W, _), c, Yk in zip(pairs, coeffs, Y):
                block_matmul(W[0], (vt * c[s]).reshape(-1, q1), Yk[t])
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
