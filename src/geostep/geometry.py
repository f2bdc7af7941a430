"""Structural diagnostics: window maps, pairing defects, area defects,
step transition operators and time-reversal residuals.

A linear field is passed as a `LinearHamiltonian`.  The window map is the
scheme's own step (`integrators.window_matrix`) and the reversibility
residual reads an actual run; the pairing matrix (`methods.lambda_matrix`)
and the step transition's polynomial rho - h lam sigma, from alpha and the
effective beta, are built from the coefficient table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .methods import MethodSpec, lambda_matrix
from .integrators import Scheme, _compile, _relation, window_matrix
from .systems import LinearHamiltonian, structure_matrix

__all__ = [
    "StepTransitionMatrix",
    "StructureDefectReport",
    "transfer_matrix",
    "g_symplecticity_defect",
    "area_defect",
    "step_transition",
    "reversibility_residual",
]


@dataclass(frozen=True)
class StepTransitionMatrix:
    """Matrix G with y_{n+1} ~ G y_n on the principal mode of a linear run."""

    G: np.ndarray
    residual: float
    principal_roots: tuple[complex, ...]


@dataclass(frozen=True)
class StructureDefectReport:
    """Conservation defect of the window bilinear form K = Lambda (x) J."""

    defect: float  # ||M^T K M - K||_F / ||K||_F
    structure_matrix: str
    K: np.ndarray
    M: np.ndarray


def transfer_matrix(scheme: Scheme, field: LinearHamiltonian,
                    h: float) -> np.ndarray:
    """The (k 2n) x (k 2n) one-step window map of a scheme on a linear field,
    as `integrators.window_matrix` compiles it.  A function of its own so
    that `bench/tracing.py` times the geometry checks' share by this name."""
    return window_matrix(scheme, field, h)


def g_symplecticity_defect(m: MethodSpec, field: LinearHamiltonian,
                           h: float) -> StructureDefectReport:
    """How far the window map M is from conserving its bilinear pairing K.

    The pairing couples window slots through the coefficient products of the
    scheme; when that pairing vanishes identically (every product cancels)
    the slotwise canonical form is used instead so the report still measures
    something, and the description string says so.
    """
    M = transfer_matrix(m, field, h)
    lam = np.array([[float(x) for x in row] for row in lambda_matrix(m)])
    J = structure_matrix(field.n)
    if np.any(lam != 0.0):
        K = np.kron(lam, J)
        desc = f"pairing (x) J, k = {m.k}"
    else:
        K = np.kron(np.eye(m.k), J)
        desc = f"I_k (x) J (pairing vanished), k = {m.k}"
    defect = float(
        np.linalg.norm(M.T @ K @ M - K) / np.linalg.norm(K)
    )
    return StructureDefectReport(
        defect=defect,
        structure_matrix=desc,
        K=K,
        M=M,
    )


def area_defect(M: np.ndarray) -> float:
    """| |det M| - 1 | for a one-step map given as its matrix."""
    return float(abs(abs(np.linalg.det(np.asarray(M, dtype=float))) - 1.0))


ROOT_PICK_TOL = 1e-8
EIGBASIS_COND_LIMIT = 1e8


def step_transition(m: MethodSpec, field: LinearHamiltonian,
                    h: float) -> StepTransitionMatrix:
    """Principal one-step matrix G of a scheme on a linear field.

    Per eigenvalue lam of A, G acts as the root of rho(z) - h*lam*sigma(z)
    closest to exp(h*lam).  Two roots equally close (within ROOT_PICK_TOL)
    make the choice ambiguous and raise; a badly conditioned eigenbasis of A
    also raises rather than returning a meaningless real part.
    """
    A = field.A
    a = [float(c) for c in m.alpha]
    b = [float(c) for c in m.effective_beta()]
    evals, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if cond > EIGBASIS_COND_LIMIT:
        raise ValueError(
            f"field eigenbasis condition {cond:.3g} too large for a reliable G"
        )
    roots_per_mode = []
    for lam in evals:
        # rho(z) - h*lam*sigma(z), descending coefficients for the root solver
        coeffs = [a[j] - h * lam * b[j] for j in range(m.k + 1)][::-1]
        coeffs = np.trim_zeros(np.array(coeffs, dtype=complex), "f")
        if len(coeffs) < 2:
            raise ValueError(f"degenerate step polynomial at h = {h}")
        roots = np.roots(coeffs)
        target = np.exp(h * lam)
        dist = np.abs(roots - target)
        order = np.argsort(dist)
        # ambiguous when a second root sits within tolerance of the target,
        # or the two best candidates are indistinguishably close to it
        if len(roots) > 1 and (
            dist[order[1]] < ROOT_PICK_TOL
            or dist[order[1]] - dist[order[0]] < ROOT_PICK_TOL
        ):
            raise ValueError(
                f"principal root of {m.name} at h = {h} is ambiguous: "
                f"two candidates within {ROOT_PICK_TOL} of the target"
            )
        roots_per_mode.append(roots[order[0]])
    zeta = np.array(roots_per_mode)
    G = V @ np.diag(zeta) @ np.linalg.inv(V)
    G = np.real_if_close(G, tol=1000)
    if np.iscomplexobj(G):
        imag = float(np.linalg.norm(np.imag(G)))
        if imag > 1e-9 * max(1.0, float(np.linalg.norm(np.real(G)))):
            raise ValueError(f"step transition matrix not real (imag norm {imag:.3g})")
        G = np.real(G)
    Gp = np.eye(field.dim)
    R = np.zeros_like(Gp)
    for j in range(m.k + 1):
        R = R + a[j] * Gp - h * b[j] * (A @ Gp)
        Gp = G @ Gp
    residual = float(np.linalg.norm(R))
    return StepTransitionMatrix(
        G=np.asarray(G, dtype=float),
        residual=residual,
        principal_roots=tuple(complex(z) for z in zeta),
    )


def reversibility_residual(m: MethodSpec, field, traj) -> float:
    """Largest defect of the time-reversed sequence under the scheme.

    The reversed states are pushed through the defining relation with the
    step sign flipped; for symmetric coefficients this vanishes identically
    on any sequence the forward scheme produced, up to roundoff.
    """
    z = np.asarray(traj.states, dtype=float)[::-1]
    nwin = len(z) - m.k
    if nwin < 1:
        raise ValueError(f"need at least k+1 = {m.k + 1} states")
    windows = [z[j : j + nwin] for j in range(m.k + 1)]
    r = _relation(_compile(m), field, windows, -traj.h)
    return float(np.max(np.linalg.norm(r, axis=1)))
