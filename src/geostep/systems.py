"""Hamiltonian systems in canonical coordinates.

States are flat vectors y = (q_1..q_n, p_1..p_n).  The structure matrix is

    J = [[0, I_n], [-I_n, 0]],

and in this position-first ordering Hamilton's equations read y' = J grad H
(the same flow as the momentum-first convention y' = J^-1 grad H).  A
quadratic Hamiltonian H(y) = y^T S y / 2 with symmetric S therefore has the
linear field y' = A y with A = J S.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SystemError_",
    "structure_matrix",
    "LinearHamiltonian",
    "GradientField",
    "sho",
    "sho_exact",
    "load_linear_system",
]

SYM_TOL = 1e-14

# rows per block in `LinearHamiltonian.energies`: the block's columns and
# its running sums stay within a 2 MiB L2 cache up to n of about 10
_ENERGY_BLOCK = 8192
# fewer rows go to einsum itself, which is faster there: see `energies`
_EINSUM_ROWS = 256


class SystemError_(ValueError):
    """Malformed system definition."""


def structure_matrix(n: int) -> np.ndarray:
    """The 2n x 2n canonical structure matrix J (J^T = -J, J^2 = -I)."""
    if n < 1:
        raise SystemError_(f"n must be >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


@dataclass(frozen=True)
class LinearHamiltonian:
    """Quadratic Hamiltonian H = y^T S y / 2, field y' = A y with A = J S."""

    S: np.ndarray
    A: np.ndarray
    n: int

    @classmethod
    def from_hessian(cls, S) -> "LinearHamiltonian":
        S = np.asarray(S, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
            raise SystemError_(f"S must be square 2n x 2n, got shape {S.shape}")
        if not np.all(np.isfinite(S)):
            raise SystemError_("S must be finite")
        if np.abs(S - S.T).max() > SYM_TOL * (1 + np.abs(S).max()):
            raise SystemError_("S must be symmetric")
        n = S.shape[0] // 2
        A = structure_matrix(n) @ S
        return cls(S=S, A=A, n=n)

    @property
    def dim(self) -> int:
        return 2 * self.n

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        return self.A @ y

    def hamiltonian(self, y: np.ndarray) -> float:
        y = np.asarray(y, dtype=float)
        return 0.5 * float(y @ self.S @ y)

    def energies(self, states: np.ndarray) -> np.ndarray:
        """H along a (m, 2n) array of states, vectorized.

        Below `_EINSUM_ROWS` rows this is `0.5 * np.einsum("ij,jk,ik->i",
        y, S, y)` itself, which on one or two rows of a 2 x 2 S sums in
        another order.  On longer inputs each row's sum starts at 0.0 and
        adds (y_j * S_jk) * y_k for (j, k) in row-major order, then is
        scaled by 0.5: einsum's order there, so every finite, infinite and
        signed-zero result has the same bits (NaN stays NaN, its sign may
        differ).  The rows are walked in blocks of `_ENERGY_BLOCK`, each
        copied once into column-major scratch, so each of the (2n)^2 terms
        is three contiguous in-cache vector operations on the block.
        """
        y = np.asarray(states, dtype=float)
        S = self.S
        d = S.shape[0]
        if y.ndim != 2 or y.shape[1] != d:
            raise ValueError(f"states must have shape (m, {d}), got {y.shape}")
        if len(y) < _EINSUM_ROWS:
            return 0.5 * np.einsum("ij,jk,ik->i", y, S, y)
        out = np.empty(len(y))
        cols = np.empty((d, min(_ENERGY_BLOCK, len(y))))
        term = np.empty(cols.shape[1])
        for a in range(0, len(y), _ENERGY_BLOCK):
            e = out[a : a + _ENERGY_BLOCK]
            c, t = cols[:, : len(e)], term[: len(e)]
            np.copyto(c, y[a : a + _ENERGY_BLOCK].T)
            e.fill(0.0)
            for j in range(d):
                for k in range(d):
                    np.multiply(c[j], S[j, k], out=t)
                    t *= c[k]
                    e += t
            e *= 0.5
        return out


@dataclass(frozen=True)
class GradientField:
    """General canonical field y' = J grad H(y) given H and its gradient."""

    n: int
    hamiltonian_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return 2 * self.n

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        g = np.asarray(self.gradient_fn(y), dtype=float)
        n = self.n
        out = np.empty(2 * n)
        out[:n] = g[n:]
        out[n:] = -g[:n]
        return out

    def hamiltonian(self, y: np.ndarray) -> float:
        return float(self.hamiltonian_fn(y))

    def energies(self, states: np.ndarray) -> np.ndarray:
        return np.array([self.hamiltonian(y) for y in np.asarray(states)])


def sho(omega: float = 1.0) -> LinearHamiltonian:
    """Unit-mass harmonic oscillator H = p^2/2 + omega^2 q^2/2.

    In (q, p) ordering S = diag(omega^2, 1) and A = [[0, 1], [-omega^2, 0]].
    """
    if not 0 < omega < np.inf:
        raise SystemError_(f"omega must be positive and finite, got {omega}")
    return LinearHamiltonian.from_hessian(np.diag([omega * omega, 1.0]))


def sho_exact(omega: float, y0, t):
    """Exact oscillator flow.

    q(t) = q0 cos(omega t) + (p0/omega) sin(omega t),
    p(t) = p0 cos(omega t) - omega q0 sin(omega t).

    `t` may be a scalar (returns shape (2,)) or an array (returns (len(t), 2)).
    """
    q0, p0 = float(y0[0]), float(y0[1])
    t = np.asarray(t, dtype=float)
    c, s = np.cos(omega * t), np.sin(omega * t)
    q = q0 * c + (p0 / omega) * s
    p = p0 * c - omega * q0 * s
    return np.stack([q, p], axis=-1)


def load_linear_system(path: str) -> LinearHamiltonian:
    """Read a symmetric Hessian from a plain-text file, one row per line."""
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split()])
            except ValueError as exc:
                raise SystemError_(f"bad matrix row {line!r} in {path}") from exc
    if not rows or any(len(r) != len(rows) for r in rows):
        raise SystemError_(f"{path} does not hold a square matrix")
    return LinearHamiltonian.from_hessian(np.array(rows))
