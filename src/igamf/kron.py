# -*- coding: utf-8 -*-
"""Kronecker-product matrix-vector products by sum-factorization.

A Kronecker operator is given as a list of d rectangular factors
A^(1), ..., A^(d) in direction order; the operator is A^(d) x ... x A^(1)
under the convention that direction 1 is the fastest-running index.
:func:`kron_apply` contracts one mode at a time, starting from direction d,
and never forms the full matrix; :func:`kron_materialize` forms it, as an
oracle.
"""

import numpy as np
import scipy.sparse as sp


class CostMeter:
    """Accumulates multiply-add flop counts and peak scratch-buffer size.

    One multiply plus one add counts as 2 flops.  ``bytes_peak`` is in
    scalar units (number of float64 values live in auxiliary buffers).
    """

    def __init__(self):
        self.flops = 0
        self.bytes_peak = 0

    def add_flops(self, n: int):
        self.flops += int(n)

    def note_buffers(self, n_scalars: int):
        self.bytes_peak = max(self.bytes_peak, int(n_scalars))

    def reset(self):
        self.flops = 0
        self.bytes_peak = 0


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
            meter.note_buffers(Xmat.size + Y.size)
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

    Returns a list of d flat arrays of length prod(n_q), one per direction,
    ordered so that direction 1 runs fastest (matching the scalar index
    convention used everywhere else).
    """
    rev = np.meshgrid(*reversed([np.asarray(q) for q in points_per_dir]),
                      indexing="ij")
    return [g.ravel() for g in reversed(rev)]
