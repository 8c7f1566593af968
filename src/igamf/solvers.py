# -*- coding: utf-8 -*-
"""Fast-diagonalization preconditioner and Krylov solvers.

The preconditioner represents the parametric Dirichlet Laplacian Kronecker
sum and inverts it exactly through per-direction generalized
eigendecompositions; each application is three Kronecker products and a
diagonal scale.  CG and BiCGStab are standard; BiCGStab is
right-preconditioned, so its residual is that of the unpreconditioned
system.  Both report the recurrence residual, which equals the true
relative residual ||b - A x|| / ||b|| only in exact arithmetic (on the
rational ring at p=8, BiCGStab to 1e-8 ended with the two 4e-4 to 8e-4
apart, relative to the true one).
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kron import CostMeter, kron_apply
from .splines import map_distinct
from .wq import exact_grams


class IndefiniteOperatorError(RuntimeError):
    pass


class EigenSolveError(RuntimeError):
    pass


@dataclass
class KrylovReport:
    iterations: int
    residuals: list
    converged: bool
    matvecs: int


def _eigen_pair(kv):
    """Generalized eigenpairs (lam, U) of the interior stiffness/mass Grams."""
    grams = exact_grams(kv)
    K = grams[(1, 1)].toarray()[1:-1, 1:-1]
    M = grams[(0, 0)].toarray()[1:-1, 1:-1]
    try:
        return scipy.linalg.eigh(K, M)
    except scipy.linalg.LinAlgError as err:
        raise EigenSolveError(
            f"generalized eigensolve failed (degree {kv.degree}): {err}"
        ) from err


class FDPreconditioner:
    """Exact Kronecker-sum solver used as preconditioner.

    Represents P = sum_l M x ... x K_l x ... x M on the interior
    parametric space; ``apply`` computes P^{-1} r.  The generalized
    eigendecomposition is computed once per distinct knot-vector object
    and shared by the directions that hold it.
    """

    def __init__(self, space):
        self.n_dofs = space.n_dofs
        lams, self.U = zip(*map_distinct(_eigen_pair, space.knotvectors))
        # inverse Kronecker-sum diagonal over the eigen-tensor grid
        lam_sum = functools.reduce(lambda s, lam: np.add.outer(lam, s), lams)
        self.inv_diag = 1.0 / lam_sum.ravel()

    def apply(self, r, meter: CostMeter | None = None) -> np.ndarray:
        y = kron_apply([U.T for U in self.U], r, meter)
        y *= self.inv_diag
        if meter is not None:
            meter.add_flops(self.n_dofs)
        return kron_apply(self.U, y, meter)


def stopping_tolerance(galerkin_rel_error: float, eta: float = 0.1) -> float:
    """Relative-residual tolerance tied to the discretization error."""
    if galerkin_rel_error <= 0:
        raise ValueError("Galerkin error estimate must be positive")
    return eta * galerkin_rel_error


def cg(apply_A, b, apply_P=None, tol=1e-8, maxit=1000):
    """Preconditioned conjugate gradients; stops on ||r||_2 / ||b||_2 <= tol."""
    b = np.asarray(b, dtype=float).ravel()
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, KrylovReport(0, [0.0], True, 0)
    P = apply_P if apply_P is not None else (lambda v: v)
    matvecs = 0
    r = b.copy()
    z = P(r)
    p = z.copy()
    rz = r @ z
    residuals = [1.0]
    for k in range(1, maxit + 1):
        Ap = apply_A(p)
        matvecs += 1
        pAp = p @ Ap
        if pAp <= 0:
            raise IndefiniteOperatorError(
                f"nonpositive curvature p.Ap = {pAp:.3e} at iteration {k}"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = np.linalg.norm(r) / bnorm
        residuals.append(rel)
        if rel <= tol:
            return x, KrylovReport(k, residuals, True, matvecs)
        z = P(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, KrylovReport(maxit, residuals, False, matvecs)


def bicgstab(apply_A, b, apply_P=None, tol=1e-8, maxit=1000):
    """Right-preconditioned BiCGStab.

    The residual history holds the recurrence residual of the
    unpreconditioned system, relative to ||b||; it equals
    ||b - A x|| / ||b|| only in exact arithmetic, so a caller that needs
    the true residual recomputes it.

    On a breakdown (rho or omega, seeded 0; r_shadow . v, seeded 1) the
    iteration restarts once with a randomly perturbed shadow vector, then
    reports failure.
    """
    b = np.asarray(b, dtype=float).ravel()
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, KrylovReport(0, [0.0], True, 0)
    P = apply_P if apply_P is not None else (lambda v: v)
    eps = np.finfo(float).eps
    matvecs = 0
    residuals = [1.0]
    restarted = False
    r = b.copy()  # the residual of x = 0
    r_shadow = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)

    def restart(seed):
        """Perturb the shadow residual and reset once; False if already done."""
        nonlocal restarted, r_shadow, rho, alpha, omega, v, p
        if restarted:
            return False
        restarted = True
        rng = np.random.default_rng(seed)
        r_shadow = r + 1e-8 * bnorm * rng.standard_normal(len(b))
        rho = alpha = omega = 1.0
        v = np.zeros_like(b)
        p = np.zeros_like(b)
        return True

    k = 0
    while k < maxit:
        k += 1
        rho_new = r_shadow @ r
        if abs(rho_new) < eps * bnorm**2 or abs(omega) < eps:
            if restart(0):
                continue
            return x, KrylovReport(k, residuals, False, matvecs)
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        phat = P(p)
        v = apply_A(phat)
        matvecs += 1
        denom = r_shadow @ v
        if abs(denom) < eps * bnorm**2:
            if restart(1):
                continue
            return x, KrylovReport(k, residuals, False, matvecs)
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) / bnorm <= tol:
            x += alpha * phat
            residuals.append(np.linalg.norm(s) / bnorm)
            return x, KrylovReport(k, residuals, True, matvecs)
        shat = P(s)
        t = apply_A(shat)
        matvecs += 1
        tt = t @ t
        omega = (t @ s) / tt if tt > 0 else 0.0
        x += alpha * phat + omega * shat
        r = s - omega * t
        rel = np.linalg.norm(r) / bnorm
        residuals.append(rel)
        if rel <= tol:
            return x, KrylovReport(k, residuals, True, matvecs)
    return x, KrylovReport(maxit, residuals, False, matvecs)
