# -*- coding: utf-8 -*-
"""Kronecker-product matrix-vector products by sum-factorization.

A Kronecker operator is given as a list of d rectangular factors
A^(1), ..., A^(d) in direction order; the operator is A^(d) x ... x A^(1)
under the convention that direction 1 is the fastest-running index.
:func:`kron_apply` contracts one mode at a time, starting from direction d,
and never forms the full matrix; :func:`kron_materialize` forms it, as an
oracle.  :func:`grid_chunks` is the one walk over a tensor point grid:
slabs of :data:`SLAB_POINTS` points (:func:`grid_slabs`) cut into chunks
of about :data:`CHUNK_POINTS` points, xi_d layers times a part of the
(xi_1, ..., xi_{d-1}) plane.  Every pass over a tensor grid (coefficient
grids, the load vector, error norms) takes it, so its scratch memory is a
multiple of the slab, not the grid.  :data:`CHUNK_POINTS` also sizes the
batches of the geometry's closed forms and Jacobians
(:func:`~igamf.geometry.pullback`), so it is the one pointwise chunk size.

The apply holds every factor as a :class:`BandedFactor`: dense row blocks,
each over the window of columns its rows touch.  A dense factor is one
block; a sparse (WQ or collocation) factor is cut into blocks of
:data:`ROWS_PER_BLOCK` rows, so its band costs a few small dense products
instead of a sparse one (:func:`block_matmul`, the one loop over blocks).
Each mode reads the grid's slowest axis and writes its new axis as the
fastest, so the grid is never transposed or copied between modes
(:func:`contract_modes`; the WQ operators' fused apply and the load
vector run their modes through the same two functions).  The flop meter
charges 2 nnz per grid column and mode, with nnz the source factor's
stored count, not the padded blocks (:func:`kron_flops`).
"""

import numpy as np
import scipy.sparse as sp

#: quadrature points per slab of :func:`grid_slabs`; bounds the scratch
#: memory of coefficient grids and error evaluation (on the ring, besides
#: the grids it returns, a coefficient pass keeps the slab's 3 point
#: arrays alive; the error pass peaks at 7.3-7.9 slab-sized float64 arrays,
#: u_h, its 3 parametric derivatives and the contractions' scratch, and at
#: 7.2-7.5 on the ring wrapped as a map that is not an extrusion
#: (tracemalloc, p=3 on 16^3 and 32^3 elements); their pointwise work
#: runs in the chunks of :func:`grid_chunks`, see
#: :func:`~igamf.geometry.pullback` and :func:`~igamf.problems.relative_errors`)
SLAB_POINTS = 2**18
#: points per chunk of :func:`grid_chunks`, and per batch of a geometry
#: closed form or Jacobian (:func:`~igamf.geometry.pullback`); read at call
#: time, so one setting moves every level.  Keeps the pointwise
#: intermediates (one array per closed-form subexpression) small
CHUNK_POINTS = 2**14
#: rows per dense block of a sparse factor (:func:`banded`).  Median
#: fused stiffness apply on the rational ring at k=5 (32^3 elements, one
#: BLAS thread, 2-core x86 host, settings taken in turn over 8 rounds):
#: p=8: 61 ms (2 rows), 45 (4), 33 (8), 35 (16), 52 (32), 54 (one dense
#: block); p=3: 39, 31, 22, 23, 34, 33 ms.  Fewer rows pay more Python
#: calls per mode, more rows multiply more padding inside the band.
ROWS_PER_BLOCK = 8
#: grid columns per matrix product of :func:`contract_modes`.  Median
#: stiffness apply on the rational ring at k=6 with and without tiles, in
#: turn over 20 pairs as for :data:`ROWS_PER_BLOCK`: 214 vs 236 ms (p=3),
#: 297 vs 314 (p=8); FD apply (k=6, 7) and error pass (k=6) within 3%
TILE_COLS = 4096
#: quadrature points per row tile of the operators' fused apply
#: (:meth:`~igamf.operators._WQOperator._tile_pass`); a tile's B values,
#: its product with one coefficient grid and that grid's tile then stay in
#: a 2 MB L2 cache.  Median apply as for :data:`ROWS_PER_BLOCK`, from
#: two sweeps: p=8: 63-69 ms (2^12 points), 43-49 (2^13), 36-40 (2^14),
#: 31-34 (2^15), 29-34 (2^16), 34-41 (2^17); p=3: 38-43, 28-32, 21-24,
#: 19-21, 18-20, 20-26 ms.  Smaller tiles pay more Python calls.
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
    factor's stored count (m*n for a dense one), which the flop meter
    charges.
    """

    def __init__(self, shape, nnz, blocks):
        self.shape = shape
        self.nnz = nnz
        self.blocks = blocks


def banded(A) -> BandedFactor:
    """Convert a dense or sparse factor; a dense one is a single block, a
    sparse one is cut into blocks of :data:`ROWS_PER_BLOCK` rows."""
    if isinstance(A, BandedFactor):
        return A
    m, n = A.shape
    if not sp.issparse(A):
        A = np.asarray(A, dtype=float)
        return BandedFactor((m, n), m * n, [(0, m, 0, n, A.T)])
    dense = np.asarray(A.toarray(), dtype=float)
    blocks = []
    for r0 in range(0, m, ROWS_PER_BLOCK):
        r1 = min(r0 + ROWS_PER_BLOCK, m)
        cols = np.flatnonzero(dense[r0:r1].any(axis=0))
        c0, c1 = (cols[0], cols[-1] + 1) if cols.size else (0, 0)
        block = dense[r0:r1, c0:c1]
        blocks.append((r0, r1, c0, c1, np.ascontiguousarray(block.T)))
    return BandedFactor((m, n), A.nnz, blocks)


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
    are converted by :func:`banded` on entry.
    """
    factors = [banded(f) for f in factors]
    x = checked_vector(x, int(np.prod([f.shape[1] for f in factors])))
    if meter is not None:
        meter.add_flops(kron_flops(factors))
    return contract_modes(factors, x)


def kron_materialize(factors, max_entries: int = 10**7):
    """Explicit sparse Kronecker matrix A^(d) x ... x A^(1) (test oracle).

    Guarded: refuses when the estimated dense entry count rows*cols exceeds
    ``max_entries``.
    """
    rows = int(np.prod([f.shape[0] for f in factors]))
    cols = int(np.prod([f.shape[1] for f in factors]))
    if rows * cols > max_entries:
        raise MemoryError(
            f"materialization guard: {rows} x {cols} exceeds {max_entries} entries"
        )
    out = None
    for f in reversed(factors):
        f = sp.csr_matrix(f)
        out = f if out is None else sp.kron(out, f, format="csr")
    return sp.csr_matrix(out)


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
    of :func:`grid_slabs`, with one ``(layers, part, flat)`` per chunk: the
    slab's xi_d layers ``layers`` (counted from its first) times the points
    ``part`` of the (xi_1, ..., xi_{d-1}) plane, the flat grid points
    ``flat``.  A chunk is whole layers when the plane has at most
    :data:`CHUNK_POINTS` points, else an equal part of one layer in whole
    direction-1 rows, so it exceeds :data:`CHUNK_POINTS` by less than one
    row.  In d = 1 the one chunk is the whole grid, its one direction-1
    row."""
    *lower, n_last = n_per_dir
    if not lower:
        yield slice(0, n_last), [(slice(0, n_last), slice(0, 1), slice(0, n_last))]
        return
    n, q1, points = int(np.prod(lower)), lower[0], CHUNK_POINTS
    layers, parts = max(1, points // n), -(-n // points)  # parts per layer
    step = -(-(n // q1) // parts) * q1  # points per part, in whole rows
    for s in grid_slabs(n_per_dir):
        chunks = []
        for l0 in range(s.start, s.stop, layers):
            l1 = min(l0 + layers, s.stop)
            for p0 in range(0, n, step):
                p1 = min(p0 + step, n)
                chunks.append((slice(l0 - s.start, l1 - s.start), slice(p0, p1),
                               slice(l0 * n + p0, (l1 - 1) * n + p1)))
        yield s, chunks
