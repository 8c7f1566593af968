# -*- coding: utf-8 -*-
"""Kronecker-product matrix-vector products by sum-factorization.

A Kronecker operator is given as a list of d rectangular factors
A^(1), ..., A^(d) in direction order; the operator is A^(d) x ... x A^(1)
under the convention that direction 1 is the fastest-running index.
:func:`kron_apply` contracts one mode at a time, starting from direction d,
and never forms the full matrix (the explicit one is
:func:`~igamf.assembly.kron_materialize`, for the assembled oracle).
:func:`grid_chunks` is the one walk over a tensor point grid: slabs of
:data:`SLAB_POINTS` points (:func:`grid_slabs`) cut into chunks of about
:data:`CHUNK_POINTS` points, xi_d layers times a part of the
(xi_1, ..., xi_{d-1}) plane that serves each of them.  Every pass over a
tensor grid takes it, so its scratch memory is a multiple of the slab, not
the grid: coefficient grids (over one xi_d layer on an extrusion), the
load vector and the error norms.  On an extrusion the last two evaluate
the geometry once per plane point
(:func:`~igamf.geometry.plane_pullback`) and lay out no point arrays; on
any other map they pull back each chunk's points.  :data:`CHUNK_POINTS`
also sizes the batches of the geometry's closed forms and Jacobians
(:func:`~igamf.geometry.pullback`, :func:`~igamf.geometry.plane_pullback`),
so it is the one pointwise chunk size.

Factors are dense arrays.  The apply holds each as a :class:`BandedFactor`:
blocks of :data:`ROWS_PER_BLOCK` rows, each over the window of columns its
rows touch, consecutive blocks with one window merged.  A banded (WQ or
collocation) factor then costs a few small dense products, a full one (an
FD eigenvector matrix) one product (:func:`block_matmul`, the one loop
over blocks).  Each mode reads the grid's slowest axis and writes its new
axis as the fastest, so the grid is never transposed or copied between
modes (:func:`contract_modes`; the WQ operators' fused apply, the load
vector and the error pass run their modes through the same two
functions).  The flop meter
charges 2 nnz per grid column and mode, with nnz the source factor's
nonzero count, not the padded blocks (:func:`kron_flops`).
"""

import numpy as np

#: quadrature points per slab of :func:`grid_slabs`; bounds the scratch
#: memory of coefficient grids and error evaluation (besides the grids it
#: returns, a coefficient pass keeps the slab's 3 point arrays alive; the
#: error pass peaks at 1.7-2.5 slab-sized float64 arrays on the ring,
#: and at 2.7-3.4 on the ring wrapped as a map that is not an extrusion
#: (tracemalloc, p=3 on 16^3 and 32^3 elements): a slab holds its 3 fields
#: only before their direction-1 mode, 0.21 slab arrays each, and the
#: ring's 25,600-point plane is pulled back in chunks; their
#: pointwise work and the error pass's direction-1 mode run in the chunks
#: of :func:`grid_chunks`, see
#: :func:`~igamf.geometry.pullback` and :func:`~igamf.problems.relative_errors`)
SLAB_POINTS = 2**18
#: points per chunk of :func:`grid_chunks`, and per batch of a geometry
#: closed form or Jacobian (:func:`~igamf.geometry.pullback`); read at call
#: time, so one setting moves every level.  Keeps the pointwise
#: intermediates (one array per closed-form subexpression) small
CHUNK_POINTS = 2**14
#: rows per dense block of a factor (:func:`banded`).  Median
#: fused stiffness apply on the rational ring at k=5 (32^3 elements, one
#: BLAS thread, 2-core x86 host, settings taken in turn over 8 rounds):
#: p=8: 61 ms (2 rows), 45 (4), 33 (8), 35 (16), 52 (32), 54 (one dense
#: block); p=3: 39, 31, 22, 23, 34, 33 ms.  Fewer rows pay more Python
#: calls per mode, more rows multiply more padding inside the band.
ROWS_PER_BLOCK = 8
#: grid columns per matrix product of :func:`contract_modes`.  Median
#: stiffness apply on the rational ring at k=6 with and without tiles, in
#: turn over 20 pairs as for :data:`ROWS_PER_BLOCK`: 214 vs 236 ms (p=3),
#: 297 vs 314 (p=8); FD apply (k=6, 7) and error pass (k=6) within 3%.
#: The tiles act from k=6 only: at k=5 no call is split (the widest has
#: 2,277 columns over a whole p=3 ring solve run, 2,926 over a p=8 set-up
#: and one BiCGStab solve), so a k=5 run cannot show what they are worth.
#: Re-measured at k=6, removing them slowed the apply by about 4-8%: p=3
#: 64.2-67.9 to 67.6-77.0 ms, p=8 86.9-101.6 to 93.7-103.1 ms.  One tile
#: rule for both kernels (``TILE_POINTS // m`` columns) was neutral on that
#: apply but slowed the p=8, k=5 error pass of the time from 1.76-1.88 to
#: 1.93-2.04 s, by cutting its slab-wide direction-1 mode (640 columns,
#: m = 320) into tiles of 204 columns.  The fused error pass runs that mode
#: per chunk through :func:`block_matmul`, and neither rule splits its
#: other modes at p=8, k=5 (1,444 columns at m = 2, 76 at m = 320), so that
#: reason has lapsed; both constants stay until the one rule is re-timed
TILE_COLS = 4096
#: quadrature points per tile of the operators' fused apply
#: (:meth:`~igamf.operators._WQOperator._tile_pass`), which cuts whole
#: xi_d layers, at least one per tile; a tile's B values, its product with
#: one coefficient grid and that grid's tile then stay in a 2 MB L2 cache.
#: Median apply as for :data:`ROWS_PER_BLOCK`, from two sweeps of tiles of
#: direction-1 rows over full grids: p=8: 63-69 ms (2^12 points), 43-49
#: (2^13), 36-40 (2^14), 31-34 (2^15), 29-34 (2^16), 34-41 (2^17); p=3:
#: 38-43, 28-32, 21-24, 19-21, 18-20, 20-26 ms.  Smaller tiles pay more
#: Python calls.
TILE_POINTS = 2**16


class CostMeter:
    """Accumulates multiply-add flop counts; one multiply plus one add is 2 flops."""

    def __init__(self):
        self.flops = 0

    def add_flops(self, n: int):
        self.flops += int(n)


class BandedFactor:
    """A Kronecker factor as dense row blocks over their nonzero column windows.

    ``blocks`` lists ``(r0, r1, c0, c1, blockT)`` with ``blockT`` the
    transpose of rows r0:r1, columns c0:c1; a block whose rows hold no
    nonzero has an empty window (c0 == c1).  ``nnz`` is the source
    factor's nonzero count, which the flop meter charges.
    """

    def __init__(self, shape, nnz, blocks):
        self.shape = shape
        self.nnz = nnz
        self.blocks = blocks


def banded(A) -> BandedFactor:
    """The :class:`BandedFactor` of a dense factor; one passes through.

    Rows are cut into blocks of :data:`ROWS_PER_BLOCK`, each over the
    window of columns its rows touch; consecutive blocks with the same
    window merge, so a full factor is one block.  Any other type (a sparse
    matrix, a list) raises ``TypeError``.
    """
    if isinstance(A, BandedFactor):
        return A
    if not isinstance(A, np.ndarray):
        raise TypeError(f"a factor is a dense array, not {type(A).__name__}")
    m, n = A.shape
    windows = []  # [r0, r1, c0, c1]
    for r0 in range(0, m, ROWS_PER_BLOCK):
        r1 = min(r0 + ROWS_PER_BLOCK, m)
        cols = np.flatnonzero(A[r0:r1].any(axis=0))
        c0, c1 = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        if windows and windows[-1][2:] == [c0, c1]:
            windows[-1][1] = r1
        else:
            windows.append([r0, r1, c0, c1])
    blocks = [(r0, r1, c0, c1, np.ascontiguousarray(A[r0:r1, c0:c1].T))
              for r0, r1, c0, c1 in windows]
    return BandedFactor((m, n), np.count_nonzero(A), blocks)


def block_matmul(A: BandedFactor, XT, out=None) -> np.ndarray:
    """``XT @ A.T`` for a (cols, n) array ``XT``, one product per row block
    of ``A`` into ``out`` (allocated as (cols, m) when not given); the
    product over a block's empty window writes zeros."""
    if out is None:
        out = np.empty((XT.shape[0], A.shape[0]))
    for r0, r1, c0, c1, blockT in A.blocks:
        np.matmul(XT[:, c0:c1], blockT, out=out[:, r0:r1])
    return out


def contract_modes(factors, X) -> np.ndarray:
    """Contract the slowest axes of the flat grid ``X`` with the
    :class:`BandedFactor` list ``factors``, the last factor first.

    Each mode reads the grid's slowest axis, of length ``A.shape[1]``, and
    writes its new axis as the fastest, one :func:`block_matmul` per tile
    of :data:`TILE_COLS` grid columns.  Axes of ``X`` beyond the factors'
    (its fastest ones) ride along and come out slowest.
    """
    for A in reversed(factors):
        m, n = A.shape
        X2 = X.reshape(n, -1)
        cols = X2.shape[1]
        Z = np.empty((cols, m))
        for t0 in range(0, cols, TILE_COLS):
            tile = slice(t0, t0 + TILE_COLS)
            block_matmul(A, X2[:, tile].T, Z[tile])
        X = Z
    return X.ravel()


def kron_flops(factors) -> int:
    """Flops the meter charges for :func:`kron_apply` of the banded
    ``factors``: 2 nnz per grid column and mode, direction d first."""
    cols = int(np.prod([A.shape[1] for A in factors]))
    flops = 0
    for A in reversed(factors):
        cols //= A.shape[1]
        flops += 2 * A.nnz * cols
        cols *= A.shape[0]
    return flops


def checked_vector(x, n) -> np.ndarray:
    """``x`` as a flat float vector of ``n`` entries, else ``ValueError``."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != n:
        raise ValueError(f"expected a vector of length {n}, got {x.size}")
    return x


def kron_apply(factors, x, meter: CostMeter | None = None) -> np.ndarray:
    """Compute (A^(d) x ... x A^(1)) x by d sequential one-mode contractions.

    Each mode contracts the slowest axis of the current grid and writes its
    new axis as the fastest, so after d modes the axes are back in their
    original order without a transpose (:func:`contract_modes`).  Factors
    are dense arrays or :class:`BandedFactor`, converted by :func:`banded`
    on entry.
    """
    factors = [banded(f) for f in factors]
    x = checked_vector(x, int(np.prod([f.shape[1] for f in factors])))
    if meter is not None:
        meter.add_flops(kron_flops(factors))
    return contract_modes(factors, x)


def tensor_grid(points_per_dir):
    """Broadcast d coordinate arrays over the tensor grid.

    Returns a (d, prod(n_q)) array whose row l holds the direction-l
    coordinate of every grid point, ordered so that direction 1 runs
    fastest (matching the scalar index convention used everywhere else).
    Its transpose is the (npts, d) point array, stored component-major.
    """
    pts = [np.asarray(q, dtype=float).ravel() for q in points_per_dir]
    out = np.empty((len(pts),) + tuple(len(q) for q in reversed(pts)))
    for l, q in enumerate(pts):
        out[l] = q.reshape((-1,) + (1,) * l)
    return out.reshape(len(pts), -1)


def grid_slabs(n_per_dir, points=None):
    """Last-direction slices cutting a tensor grid into slabs of at most
    about ``points`` points (default :data:`SLAB_POINTS`), each at least
    one layer thick."""
    n_last = n_per_dir[-1]
    lower = int(np.prod(n_per_dir[:-1]))
    block = max(1, min(n_last, (points or SLAB_POINTS) // lower))
    return [slice(start, min(start + block, n_last))
            for start in range(0, n_last, block)]


def grid_chunks(n_per_dir):
    """The one walk over a tensor grid: yields ``(s, chunks)`` per slab ``s``
    of :func:`grid_slabs`, with one ``(layers, part)`` per chunk, the block
    of the slab's xi_d layers ``layers`` (counted from its first) times the
    points ``part`` of the (xi_1, ..., xi_{d-1}) plane.  A chunk is whole
    layers when the plane has at most :data:`CHUNK_POINTS` points, else
    ``min(L_slab, CHUNK_POINTS // q1)`` layers (at least one) times an
    equal part of the plane in whole direction-1 rows, so a chunk of L
    layers exceeds :data:`CHUNK_POINTS` by less than L rows and each plane
    point serves L layers.  In d = 1 the one chunk is the whole grid, its
    one direction-1 row."""
    *lower, n_last = n_per_dir
    if not lower:
        yield slice(0, n_last), [(slice(0, n_last), slice(0, 1))]
        return
    n, q1, points = int(np.prod(lower)), lower[0], CHUNK_POINTS
    for s in grid_slabs(n_per_dir):
        n_layers = s.stop - s.start
        if n <= points:
            layers, step = max(1, points // n), n
        else:
            layers = max(1, min(n_layers, points // q1))
            parts = -(-n * layers // points)
            step = -(-(n // q1) // parts) * q1  # points per part, whole rows
        yield s, [(slice(l0, min(l0 + layers, n_layers)),
                   slice(p0, min(p0 + step, n)))
                  for l0 in range(0, n_layers, layers)
                  for p0 in range(0, n, step)]
