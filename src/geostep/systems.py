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
import functools
import math
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
        another order; longer inputs go through the column kernel
        `_energy_rows`.
        """
        y = np.asarray(states, dtype=float)
        S = self.S
        d = S.shape[0]
        if y.ndim != 2 or y.shape[1] != d:
            raise ValueError(f"states must have shape (m, {d}), got {y.shape}")
        if len(y) < _EINSUM_ROWS:
            return 0.5 * np.einsum("ij,jk,ik->i", y, S, y)
        return _energy_rows(S, y, np.empty(len(y)))


def _energy_rows(S: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y_i^T S y_i / 2 of each row of y into `out`, row by row, so that any
    run of rows has the bits the whole array has.

    Each row's sum starts at 0.0 and adds (y_j * S_jk) * y_k for (j, k) in
    row-major order, then is scaled by 0.5: einsum's order on inputs of
    `_EINSUM_ROWS` rows or more, so every finite, infinite and signed-zero
    result has the bits of `LinearHamiltonian.energies` there (NaN stays
    NaN, its sign may differ).  The rows are walked in blocks of
    `_ENERGY_BLOCK`, each copied once into column-major scratch, so each
    term is three contiguous in-cache vector operations on the block.

    Terms with S_jk = 0 are skipped, except those of an index j whose row
    of S is all zero.  On a row of finite y a skipped term is +-0.0, and
    adding +-0.0 moves no bit of a sum that starts at +0.0: that sum is
    never -0.0, since x + y is -0.0 only when both are.  A row with a
    non-finite y_j has a non-finite kept term, (y_j S_jk) y_k with S_jk
    nonzero or, on a zero row, (y_j 0) y_j, so its result is not finite; a
    block with any result that is not finite is summed again over all
    (2n)^2 terms.
    """
    d = S.shape[0]
    zero_rows = ~S.any(axis=1)
    every = [(j, k) for j in range(d) for k in range(d)]
    kept = [(j, k) for j, k in every if S[j, k] != 0 or zero_rows[j]]
    cols = np.empty((d, min(_ENERGY_BLOCK, len(y))))
    term = np.empty(cols.shape[1])
    for a in range(0, len(y), _ENERGY_BLOCK):
        e = out[a : a + _ENERGY_BLOCK]
        c, t = cols[:, : len(e)], term[: len(e)]
        np.copyto(c, y[a : a + _ENERGY_BLOCK].T)
        for terms in (kept, every):
            e.fill(0.0)
            for j, k in terms:
                np.multiply(c[j], S[j, k], out=t)
                t *= c[k]
                e += t
            e *= 0.5
            if terms is every or np.isfinite(e).all():
                break
    return out


@functools.cache
def _canonical(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) with g[perm] * sign = J g for a gradient g of size 2n."""
    perm = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    return perm, np.repeat([1.0, -1.0], n)


@dataclass(frozen=True)
class GradientField:
    """General canonical field y' = J grad H(y) given H and its gradient.

    `evaluate` forms J g as g[perm] * sign: the same bits as copying g's
    halves and negating one, except that -1.0 * NaN keeps the sign bit that
    negation would flip (only runs that have already blown up show it).
    """

    n: int
    hamiltonian_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]

    @property
    def dim(self) -> int:
        return 2 * self.n

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        g = np.asarray(self.gradient_fn(y), dtype=float)
        if g.shape != (2 * self.n,):
            raise ValueError(f"the gradient must have shape ({2 * self.n},), "
                             f"got {g.shape}")
        perm, sign = _canonical(self.n)
        return g[perm] * sign

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


# Higham's diagonal Pade approximants r_m(A) = (V - U)^-1 (V + U) of exp,
# with U and V the odd and even parts of sum_i c_i A^i: for each degree m,
# the bound theta_m on |A|_1 below which r_m(A) is exp(A) to unit roundoff,
# and c_i = b_i / b_0 from his integer b_0 .. b_m.  With c_0 = 1, V - U has
# an exact unit diagonal where A's powers vanish, so a nilpotent A such as
# [[0, t], [0, 0]] gives exp(A) = I + A exactly.
_PADE = tuple((theta, tuple(x / b[0] for x in b)) for theta, b in (
    (1.495585217958292e-2, (120, 60, 12, 1)),
    (2.539398330063230e-1, (30240, 15120, 3360, 420, 30, 1)),
    (9.504178996162932e-1, (17297280, 8648640, 1995840, 277200, 25200, 1512,
                            56, 1)),
    (2.097847961257068e0, (17643225600, 8821612800, 2075673600, 302702400,
                           30270240, 2162160, 110880, 3960, 90, 1)),
    (5.371920351148152e0, (64764752532480000, 32382376266240000,
                           7771770303897600, 1187353796428800,
                           129060195264000, 10559470521600, 670442572800,
                           33522128640, 1323241920, 40840800, 960960, 16380,
                           182, 1)),
))


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) of a square matrix by scaling and squaring.

    The lowest degree m in 3, 5, 7, 9, 13 whose theta_m bounds |A|_1 is
    used on A itself; a larger A is scaled by 2^-s into theta_13 and the
    result squared s times (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)
    1179-1193).  A matrix with a non-finite entry or 1-norm gives all NaN;
    overflow while squaring is left in the result, without a warning.
    """
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full(A.shape, np.nan)
    for theta, b in _PADE:
        if norm <= theta:
            break
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    A = A * 2.0**-s
    # the even powers I, A^2, .., A^(m-1)
    A2 = A @ A
    powers = [np.eye(A.shape[0]), A2]
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ A2)
    U = A @ sum(b[2 * i + 1] * P for i, P in enumerate(powers))
    V = sum(b[2 * i] * P for i, P in enumerate(powers))
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            E = E @ E
    return E


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
