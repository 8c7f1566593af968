# -*- coding: utf-8 -*-
"""Kronecker-product matrix-vector products by sum-factorization.

A Kronecker operator is given as a list of d rectangular factors
A^(1), ..., A^(d) in direction order; the operator is A^(d) x ... x A^(1)
under the convention that direction 1 is the fastest-running index.
:func:`kron_apply` contracts one mode at a time, starting from direction d,
and never forms the full matrix; :func:`kron_materialize` forms it, as an
oracle.  :func:`grid_slabs` cuts a tensor point grid into slabs of bounded
size for the passes that evaluate fields on it.
"""

import numpy as np
import scipy.sparse as sp

#: quadrature points per slab of :func:`grid_slabs`; bounds the scratch
#: memory of load vectors and error evaluation
SLAB_POINTS = 2 * 10**6


class CostMeter:
    """Accumulates multiply-add flop counts; one multiply plus one add is 2 flops."""

    def __init__(self):
        self.flops = 0

    def add_flops(self, n: int):
        self.flops += int(n)


def kron_apply(factors, x, meter: CostMeter | None = None) -> np.ndarray:
    """Compute (A^(d) x ... x A^(1)) x by d sequential one-mode contractions."""
    d = len(factors)
    t_dims = [f.shape[1] for f in factors]
    s_dims = [f.shape[0] for f in factors]
    x = np.asarray(x, dtype=float).ravel()
    if x.size != int(np.prod(t_dims)):
        raise ValueError(
            f"vector length {x.size} does not match operator columns "
            f"{int(np.prod(t_dims))}"
        )
    # Axis j of X holds direction d-j (direction 1 fastest in the flat vector).
    X = x.reshape(tuple(reversed(t_dims)))
    for l in range(d, 0, -1):  # contract direction d first, as written
        A = factors[l - 1]
        axis = d - l
        Xm = np.moveaxis(X, axis, 0)
        lead_shape = Xm.shape[1:]
        Xmat = np.ascontiguousarray(Xm).reshape(t_dims[l - 1], -1)
        Y = A @ Xmat
        if meter is not None:
            ncols = Xmat.shape[1]
            if sp.issparse(A):
                meter.add_flops(2 * A.nnz * ncols)
            else:
                meter.add_flops(2 * A.shape[0] * A.shape[1] * ncols)
        X = np.moveaxis(
            np.asarray(Y).reshape((s_dims[l - 1],) + lead_shape), 0, axis
        )
    return np.ascontiguousarray(X).ravel()


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


def grid_slabs(n_per_dir):
    """Last-direction slices cutting a tensor grid into slabs of at most
    about :data:`SLAB_POINTS` points, each at least one layer thick."""
    n_last = n_per_dir[-1]
    lower = int(np.prod(n_per_dir[:-1]))
    block = max(1, min(n_last, SLAB_POINTS // lower))
    return [slice(start, start + block) for start in range(0, n_last, block)]
