"""Time stepping for multistep, predictor-corrector and partitioned schemes.

Every `MethodSpec` kind is one relation over k+1 consecutive states,
sum_j alpha_j z_j - h sum_j beta_j f(sum_l gamma_jl z_l) = 0, whose kind
only chooses the default gamma (`MethodSpec.gamma_rows`).  `_relation`
evaluates f once per distinct gamma row, so one-leg schemes cost one
evaluation; it gives a step (solved for z_k), the step residual and, with
h -> -h on reversed states, the reversibility residual.  Every scheme is
compiled once into advance(field, ys, fs, h) -> y, which also steps a stack
of windows.  `fs` is the f window: f at the k window states, `None` where
not yet evaluated.  A leg that is a lone window state reads and fills it,
so an explicit scheme costs one f-evaluation per step.  Pairs are built
from their members' compiled steps; a predictor-corrector pair runs in
PECE mode.

A trajectory with parameter `steps` holds exactly `steps` recorded states
y_0 .. y_{steps-1}: the starter supplies the first k (the window, y_0
included) and the scheme generates the rest.  `steps = k` therefore returns
the starter output untouched.

Implicit relations on linear fields are solved directly.  Nonlinear ones go
through simplified Newton to the fixed tolerance `NEWTON_TOLERANCE`, with at
most `NEWTON_MAX_ITERATIONS` iterations per step: the Jacobian comes from
central differences of the relation, is inverted once and kept across the
steps of a run, and is refreshed only when the iteration stalls.

Linear fields get a blocked propagation path.  The window transfer matrix M
is built once per run: a block that shifts the window, over the scheme's
own step applied to the k d unit windows (d = 2n) at once.  The last-state
rows of M^1 .. M^B (B = 256) are stacked into one block, so a single
matrix-vector product emits the next B states from the current window; the
window then advances to the last k states emitted.  The powers are formed
by doubling in extended precision and rounded once, so the blocked path
keeps the accuracy of one product per step.  The generic per-step path is
kept as the reference implementation and for nonlinear fields; both paths
agree to roundoff and tests assert it.

The exact-error channel |y_j - exact flow at t_j| of a linear field is
evaluated only at the rows a caller asks for (`Trajectory.error_at`): the
written CSV rows and the last row, not every step of a 10^6-step run.  On
the oscillator each asked-for row costs one closed-form `sho_exact` value;
a general linear field propagates the exact flow once per trajectory, the
same way as the scheme with M = expm(hA), when a row is first asked for.
Either way the values are bit-identical to slicing the full channel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import math
from typing import Callable

import numpy as np

from .methods import MethodError, MethodSpec
from .systems import LinearHamiltonian, sho_exact

__all__ = [
    "STARTERS",
    "PCPair",
    "PartitionedPair",
    "Trajectory",
    "ConvergenceError",
    "SingularStepError",
    "StepFailure",
    "pad_method",
    "rk4_start",
    "exact_start",
    "step",
    "integrate",
    "step_residual",
    "window_matrix",
]


class ConvergenceError(RuntimeError):
    """Newton solve of an implicit step failed to converge."""


class SingularStepError(RuntimeError):
    """The implicit per-step operator is singular at this h."""


class StepFailure(RuntimeError):
    """A step failed mid-run; carries the failing index and the partial run.

    `step` is the index of the state that could not be produced; `partial`
    is a Trajectory holding every state that was produced, `cause` the
    underlying error.
    """

    def __init__(self, step: int, cause: Exception, partial: "Trajectory"):
        super().__init__(f"step {step} failed: {cause}")
        self.step = step
        self.cause = cause
        self.partial = partial


# Newton on a nonlinear implicit step stops once an increment is within half
# NEWTON_TOLERANCE of 1 + |z|, and fails after NEWTON_MAX_ITERATIONS
NEWTON_TOLERANCE = 1e-14
NEWTON_MAX_ITERATIONS = 50


# the names `integrate` takes for its starter: `rk4_start`, `exact_start`
STARTERS = ("rk4", "exact")


def pad_method(m: MethodSpec, k: int) -> MethodSpec:
    """Embed an m.k-step scheme in a k-step window by prepending zeros."""
    if k < m.k:
        raise MethodError(f"cannot pad {m.name} (k={m.k}) down to k={k}")
    if k == m.k:
        return m
    if m.gamma is not None:
        raise MethodError("padding is only supported for plain coefficient schemes")
    pad = (Fraction(0),) * (k - m.k)
    padded = MethodSpec(m.name, k, pad + m.alpha, pad + m.beta, m.kind)
    # keep m's own warnings, not the index-0 note that describes the padding
    object.__setattr__(padded, "warnings", m.warnings)
    return padded


@dataclass(frozen=True)
class PCPair:
    """Predictor-corrector pair in PECE mode.

    Predict y*, evaluate f(y*), correct once using f(y*) for the implicit
    term, evaluate again at the corrected state for storage.
    """

    name: str
    predictor: MethodSpec
    corrector: MethodSpec

    def __post_init__(self):
        k = max(self.predictor.k, self.corrector.k)
        object.__setattr__(self, "predictor", pad_method(self.predictor, k))
        object.__setattr__(self, "corrector", pad_method(self.corrector, k))
        if not self.predictor.explicit:
            raise MethodError(f"predictor {self.predictor.name} must be explicit")
        for m in (self.predictor, self.corrector):
            if m.kind != "lmm":
                raise MethodError("pc pairs are built from plain schemes")

    @property
    def k(self) -> int:
        return self.predictor.k

    @property
    def members(self) -> tuple[tuple[str, MethodSpec], ...]:
        """(role, method) for each member, predictor first."""
        return ("predictor", self.predictor), ("corrector", self.corrector)


@dataclass(frozen=True)
class PartitionedPair:
    """Two explicit schemes, one driving q and one driving p.

    By default `first` advances the positions and `second` the momenta;
    `swap` exchanges the assignment.  The shorter window is zero-padded so
    both schemes share one window length.
    """

    name: str
    first: MethodSpec
    second: MethodSpec
    swap: bool = False

    def __post_init__(self):
        k = max(self.first.k, self.second.k)
        object.__setattr__(self, "first", pad_method(self.first, k))
        object.__setattr__(self, "second", pad_method(self.second, k))
        for m in (self.first, self.second):
            if not m.explicit:
                raise MethodError(f"partitioned member {m.name} must be explicit")
            if m.kind != "lmm":
                raise MethodError("partitioned pairs are built from plain schemes")

    @property
    def k(self) -> int:
        return self.first.k

    @property
    def members(self) -> tuple[tuple[str, MethodSpec], ...]:
        """(role, method) for each member, `first` first; the roles are
        `positions` and `momenta`, exchanged by `swap`."""
        roles = ("momenta", "positions") if self.swap else ("positions", "momenta")
        return tuple(zip(roles, (self.first, self.second)))


Scheme = MethodSpec | PCPair | PartitionedPair


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: states (steps, 2n), energies and, on linear fields, the
    exact-error channel.

    The channel is not stored: `error_at(rows)` gives its values at an
    integer array of non-negative row indices, computed on request, and
    `errors` is the whole channel (None when there is no `error_at`).
    """

    h: float
    states: np.ndarray
    energies: np.ndarray
    start_count: int
    error_at: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def steps(self) -> int:
        return len(self.states)

    @functools.cached_property
    def errors(self) -> np.ndarray | None:
        if self.error_at is None:
            return None
        return self.error_at(np.arange(self.steps))

    @property
    def final_error(self) -> float | None:
        """The channel at the last row; None without a channel or a row."""
        if self.error_at is None or not self.steps:
            return None
        return float(self.error_at(np.array([self.steps - 1]))[0])

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(len(self.states))


# ---------------------------------------------------------------------------
# starters


def rk4_start(field, y0, h: float, count: int) -> list[np.ndarray]:
    """y0 plus `count` further states from the classical fourth-order one-step."""
    y = np.array(y0, dtype=float)
    out = [y]
    f = field.evaluate
    for _ in range(count):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return out


def _is_sho(field: LinearHamiltonian) -> bool:
    S = field.S
    return (
        field.n == 1 and S[0, 1] == 0.0 and S[1, 1] == 1.0 and S[0, 0] > 0.0
    )


def exact_start(field, y0, h: float, count: int) -> list[np.ndarray]:
    """y0 plus `count` states on the exact flow (linear fields only)."""
    if not isinstance(field, LinearHamiltonian):
        raise ValueError("exact starter requires a linear field")
    y0 = np.array(y0, dtype=float)
    if _is_sho(field):
        w = float(np.sqrt(field.S[0, 0]))
        return [sho_exact(w, y0, j * h) for j in range(count + 1)]
    from scipy.linalg import expm  # slow to import; only general fields need it

    # each state from its own matrix exponential, no error accumulation
    return [expm(j * h * field.A) @ y0 for j in range(count + 1)]


def _error_at(field: LinearHamiltonian, y0, h: float, states: np.ndarray):
    """rows -> |states[rows] - exact flow at h * rows|, the exact-error
    channel from y0 (not states[0], whose zeros the exact starter may have
    given the other sign).  `sho_exact` is looked up on this module at call
    time, so a wrapper installed on it sees every evaluation."""
    y0 = np.array(y0, dtype=float)
    if _is_sho(field):
        w = float(np.sqrt(field.S[0, 0]))

        def exact(rows):
            return sho_exact(w, y0, h * rows)
    else:
        @functools.cache
        def flow():
            from scipy.linalg import expm  # slow to import; only general fields need it

            return _power_rows(expm(h * field.A), y0, len(states), 0)

        def exact(rows):
            return flow()[rows]

    def error_at(rows):
        rows = np.asarray(rows)
        # overflow in exploding runs is data, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.norm(states[rows] - exact(rows), axis=1)

    return error_at


# ---------------------------------------------------------------------------
# implicit solves


def numerical_jacobian(step_map, y: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a map at y."""
    y = np.asarray(y, dtype=float)
    d = len(y)
    eps = 1e-6 * (1.0 + float(np.linalg.norm(y)))
    Jm = np.empty((d, d))
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(d):
            e = np.zeros(d)
            e[i] = eps
            Jm[:, i] = (
                np.asarray(step_map(y + e)) - np.asarray(step_map(y - e))
            ) / (2.0 * eps)
    if not np.all(np.isfinite(Jm)):
        raise ValueError("non-finite Jacobian entries")
    return Jm


def _linear_lead_solve(alpha_k: float, beta_k: float, A: np.ndarray, h: float, rhs):
    lead = alpha_k * np.eye(A.shape[0]) - h * beta_k * A
    try:
        # rhs is one state or a stack of states, one per row
        return np.linalg.solve(lead, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularStepError(
            f"alpha_k I - h beta_k A is singular at h = {h}"
        ) from exc


# ---------------------------------------------------------------------------
# single steps (window = k states y_n .. y_{n+k-1}, returns y_{n+k})


def _check_window(m_k: int, window) -> list[np.ndarray]:
    ys = [np.asarray(y, dtype=float) for y in window]
    if len(ys) != m_k:
        raise ValueError(f"window must hold k = {m_k} states, got {len(ys)}")
    return ys


def _terms(coeffs) -> tuple[tuple[int, float], ...]:
    return tuple((l, float(c)) for l, c in enumerate(coeffs) if c)


@functools.lru_cache(maxsize=64)
def _compile(m: MethodSpec):
    """Float form of m's relation: (alpha terms, legs), zeros dropped.

    A leg (w, terms) is one distinct gamma row with the summed beta weight w
    of the rows equal to it, so f is evaluated once per leg.  Cached, so
    built of tuples only.
    """
    weights: dict[tuple[Fraction, ...], Fraction] = {}
    for b, row in zip(m.beta, m.gamma_rows):
        weights[row] = weights.get(row, Fraction(0)) + b
    legs = tuple((float(w), _terms(row)) for row, w in weights.items() if w)
    return _terms(m.alpha), legs


def _comb(terms, zs):
    """sum_l c_l z_l over the (l, c_l) pairs, zero when there are none; a
    lone unit weight is z_l itself."""
    u = None
    for l, c in terms:
        z = zs[l] if c == 1.0 else c * zs[l]
        u = z if u is None else u + z
    return np.zeros_like(zs[0]) if u is None else u


def _f(field, u):
    """f at one state, or row by row on a stack (one product if linear)."""
    if u.ndim == 1:
        return field.evaluate(u)
    if isinstance(field, LinearHamiltonian):
        return u @ field.A.T
    return np.array([field.evaluate(y) for y in u])


def _relation(rel, field, zs, h: float, fs=None):
    """sum_j alpha_j z_j - h sum_leg w f(sum_l gamma_l z_l) for a relation
    from `_compile`; `zs` holds k+1 states or k+1 equal-length stacks of
    windows.  With an f window `fs`, a leg that is a lone unit term (l, 1)
    reads f(z_l) from `fs[l]`, evaluating and storing it if it is `None`."""
    alpha, legs = rel
    r = _comb(alpha, zs)
    for w, terms in legs:
        if fs is not None and len(terms) == 1 and terms[0][1] == 1.0:
            l = terms[0][0]
            fs[l] = f = _f(field, zs[l]) if fs[l] is None else fs[l]
        else:
            f = _f(field, _comb(terms, zs))
        r = r - (h * w) * f
    return r


def _stepper(m: MethodSpec):
    """Compile m once into a solver of its relation for z_k given z_0 ..
    z_{k-1} and their f window.  It runs the kernel on the slots (r, c_1 ..
    c_n, z_k), formed once per step: r is the relation without the terms
    that reach z_k, c_i the known part of reaching leg i's argument.

    On nonlinear fields the solve is simplified Newton on G(z), the kernel
    on the slots with z_k = z.  The inverse Newton matrix is kept by this
    stepper from step to step and refreshed at the current iterate only when
    an increment exceeds a quarter of the previous one, so a stepper compiled
    per run shares nothing with other runs."""
    k, a_k = m.k, float(m.alpha[m.k])
    lead_beta = float(m.effective_beta()[k])
    alpha, legs = _compile(m)
    # terms are in index order, so a leg reaches z_k when its last term does;
    # alpha's last term is always alpha_k
    reaching = [leg for leg in legs if leg[1][-1][0] == k]
    known = (alpha[:-1], [leg for leg in legs if leg not in reaching])
    last = len(reaching) + 1
    solve = ([(0, 1.0), (last, a_k)], [
        (w, ([(i, 1.0)] if len(terms) > 1 else []) + [(last, terms[-1][1])])
        for i, (w, terms) in enumerate(reaching, 1)
    ])
    inverse = None  # of G's Jacobian, kept across steps

    def newton(G, z):
        nonlocal inverse
        previous = math.inf
        for _ in range(NEWTON_MAX_ITERATIONS):
            g = G(z)
            if inverse is None:
                # states are small (2n): an inverse costs one matrix-vector
                # product per iteration
                try:
                    inverse = np.linalg.inv(numerical_jacobian(G, z))
                except ValueError as exc:  # non-finite, or singular (LinAlgError)
                    raise ConvergenceError(f"no usable Newton matrix: {exc}") from exc
            dz = inverse @ g
            size = math.sqrt(dz @ dz)  # np.linalg.norm, without its overhead
            if not math.isfinite(size):
                raise ConvergenceError("Newton iteration diverged (non-finite)")
            z = z - dz
            # half the budget so the relation residual stays within tolerance
            if size <= 0.5 * NEWTON_TOLERANCE * (1.0 + math.sqrt(z @ z)):
                return z
            if size > 0.25 * previous:
                inverse = None  # stalled: refresh at the current iterate
            previous = size
        raise ConvergenceError(
            f"no convergence in {NEWTON_MAX_ITERATIONS} Newton iterations"
        )

    def advance(field, ys, fs, h):
        slots = [_relation(known, field, ys, h, fs)]
        if not reaching:
            return slots[0] / -a_k
        slots += [_comb(terms[:-1], ys) for _, terms in reaching]
        if isinstance(field, LinearHamiltonian):
            # the relation is affine in z_k: its value at z_k = 0 is the rhs
            rhs = -_relation(solve, field, slots + [np.zeros_like(ys[-1])], h)
            return _linear_lead_solve(a_k, lead_beta, field.A, h, rhs)
        return newton(lambda z: _relation(solve, field, slots + [z], h), ys[-1])

    return advance


def _pc(pair: PCPair):
    """Compile a predictor-corrector pair from its members: the predictor's
    step gives y*, then the corrector's relation without its alpha_k term,
    on the window extended by y*, gives the corrected state.  The
    corrector's leg at y* fills f(y*) in the extended f window."""
    predict = _stepper(pair.predictor)
    alpha, legs = _compile(pair.corrector)
    correct, a_k = (alpha[:-1], legs), alpha[-1][1]  # the last term is alpha_k

    def advance(field, ys, fs, h):
        ystar = predict(field, ys, fs, h)
        extended = fs + [None]  # after the predictor, to keep what it filled
        y = _relation(correct, field, ys + [ystar], h, extended) / -a_k
        fs[:] = extended[:-1]  # keep what the corrector filled
        return y

    return advance


def _partitioned(pair: PartitionedPair):
    """Compile a partitioned pair from its members: q from the positions
    member's step, p from the momenta member's, both on the same f window."""
    roles = dict(pair.members)
    q, p = _stepper(roles["positions"]), _stepper(roles["momenta"])

    def advance(field, ys, fs, h):
        n = field.dim // 2
        yq, yp = q(field, ys, fs, h), p(field, ys, fs, h)
        return np.concatenate([yq[..., :n], yp[..., n:]], axis=-1)

    return advance


def _advance(scheme: Scheme):
    """Compile any scheme once into advance(field, ys, fs, h) -> y: the state
    following the k-state window (or the stack of states following k stacks
    of windows)."""
    if isinstance(scheme, MethodSpec):
        return _stepper(scheme)
    if isinstance(scheme, PCPair):
        return _pc(scheme)
    if isinstance(scheme, PartitionedPair):
        return _partitioned(scheme)
    raise TypeError(f"unsupported scheme {scheme!r}")


def step(scheme: Scheme, field, window, h: float) -> np.ndarray:
    """One step of any scheme: the state following the k-state window."""
    ys = _check_window(scheme.k, window)
    return _advance(scheme)(field, ys, [None] * scheme.k, h)


def step_residual(scheme, field, states, h: float) -> float:
    """Norm of the defining relation over k+1 consecutive states.

    A pair has no single relation (its PECE corrector holds only
    approximately, its partition splits q from p), so for every pair this is
    the one-step reconstruction error |y_k - step(y_0 .. y_{k-1})| instead.
    """
    ys = [np.asarray(y, dtype=float) for y in states]
    if isinstance(scheme, MethodSpec):
        if len(ys) != scheme.k + 1:
            raise ValueError(f"need k+1 = {scheme.k + 1} states")
        return float(np.linalg.norm(_relation(_compile(scheme), field, ys, h)))
    return float(np.linalg.norm(ys[-1] - step(scheme, field, ys[:-1], h)))


# ---------------------------------------------------------------------------
# window transfer matrices (linear fields)


def window_matrix(scheme: Scheme, field: LinearHamiltonian, h: float) -> np.ndarray:
    """One-step matrix on the stacked window (y_n, ..., y_{n+k-1}).

    The top rows shift the window; the bottom rows are the scheme's own step
    applied to the k d unit windows at once, on the linear field y' = A y.
    """
    advance = _advance(scheme)
    k, d = scheme.k, field.dim
    units = np.eye(k * d)
    M = np.eye(k * d, k=d)  # shift: y_{n+j} moves to slot j - 1
    M[(k - 1) * d :] = advance(
        field, [units[:, j * d : (j + 1) * d] for j in range(k)], [None] * k, h
    ).T
    return M


# ---------------------------------------------------------------------------
# driver


def _trajectory(field, y0, h, states, k) -> Trajectory:
    """The run's recorded states with their energies and, on linear fields,
    the exact-error channel."""
    # overflow in exploding runs is data, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        energies = field.energies(states)
    error_at = None
    if isinstance(field, LinearHamiltonian):
        error_at = _error_at(field, y0, h, states)
    return Trajectory(h, states, energies, k, error_at)


def _generic_loop(scheme, field, y0, window, h, steps):
    k = scheme.k
    states = np.empty((steps, len(y0)))
    states[:k] = window
    ys, fs = list(window), [None] * k
    advance = _advance(scheme)
    for j in range(k, steps):
        try:
            states[j] = advance(field, ys, fs, h)
        except (ConvergenceError, SingularStepError) as exc:
            partial = _trajectory(field, y0, h, states[:j].copy(), k)
            raise StepFailure(j, exc, partial) from exc
        ys = ys[1:] + [states[j]]
        fs = fs[1:] + [None]
    return states


# states emitted per matrix product; the stacked rows hold B * d * kd floats,
# so large systems get fewer states per product to keep them within _ROW_FLOATS
_BLOCK = 256
_ROW_FLOATS = 1 << 20


def _power_rows(M: np.ndarray, Y: np.ndarray, count: int, tail: int) -> np.ndarray:
    """`count` states of the linear recursion Y -> M Y on a stacked window.

    Y stacks k states of size d = len(Y) - tail (the newest last).  The
    result holds those k states followed by the rows `tail:` of
    M Y, M^2 Y, ..., i.e. one new state per application of M.  Rows
    `tail:` of M^1 .. M^B are stacked once into a (B d, k d) block, so one
    product emits B states; the next window is the last k states emitted,
    which is M^B Y because M shifts the window.

    The result is filled in place: it is C-contiguous, so the window of
    states j-k .. j-1 is its flat slice [(j-k) d, j d), and each full
    block's product is written by `np.matmul(..., out=)` straight into the
    next B d floats, with no product array or reshape per block.  Only a
    last, partial block multiplies a slice of the stacked rows.
    """
    kd = len(Y)
    d = kd - tail
    k = kd // d
    out = np.empty((count, d))
    out[:k] = Y.reshape(k, d)
    block = min(_BLOCK, count - k, max(1, _ROW_FLOATS // (d * kd)))
    if block <= 0:
        return out
    # Every block reuses these rows, so their rounding error adds up
    # coherently over a run: form them in extended precision (where the
    # platform has it) and round once.  Doubling: the rows of M^1 .. M^m
    # times M^m are the rows of M^(m+1) .. M^2m.
    power = M.astype(np.longdouble)
    rows = power[tail:]
    while len(rows) < block * d:
        rows = np.concatenate([rows, rows[: block * d - len(rows)] @ power])
        power = power @ power
    rows = rows.astype(float)
    flat = out.reshape(-1)  # a view: out is C-contiguous
    full = count - (count - k) % block  # end of the last full block
    for j in range(k, full, block):
        window = flat[(j - k) * d : j * d]
        np.matmul(rows, window, out=flat[j * d : (j + block) * d])
    if full < count:
        window = flat[(full - k) * d : full * d]
        flat[full * d :] = rows[: (count - full) * d] @ window
    return out


def _matrix_loop(scheme, field, window, h, steps):
    d = len(window[0])
    M = window_matrix(scheme, field, h)
    return _power_rows(M, np.concatenate(window), steps, M.shape[0] - d)


def integrate(scheme: Scheme, field, y0, h: float, steps: int,
              starter: str = "rk4", force_generic: bool = False) -> Trajectory:
    """Run a scheme; return its states, energies and exact-error channel.

    `steps` counts recorded states including the k starter states; it must
    be at least k.  `starter` names one of `STARTERS`.  The exact-error
    channel exists only for linear fields, where the exact flow is known.
    """
    if starter not in STARTERS:
        raise ValueError(f"starter must be one of {STARTERS}, got {starter!r}")
    if not 0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    k = scheme.k
    if steps < k:
        raise ValueError(f"steps must be >= window k = {k}, got {steps}")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (field.dim,):
        raise ValueError(f"y0 must have shape ({field.dim},), got {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise ValueError(f"y0 must be finite, got {y0}")
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = field.hamiltonian(y0)
    if not math.isfinite(h0):
        raise ValueError(f"the energy at y0 must be finite, got H(y0) = {h0}")
    start = exact_start if starter == "exact" else rk4_start
    # overflow in exploding runs is data, not an error; the starter's too
    with np.errstate(over="ignore", invalid="ignore"):
        window = start(field, y0, h, k - 1)
        if not isinstance(field, LinearHamiltonian) or force_generic:
            states = _generic_loop(scheme, field, y0, window, h, steps)
        else:
            try:
                states = _matrix_loop(scheme, field, window, h, steps)
            except SingularStepError as exc:
                # the compiled map failed before any step was taken
                partial = _trajectory(field, y0, h, np.array(window), k)
                raise StepFailure(k, exc, partial) from exc
    return _trajectory(field, y0, h, states, k)
