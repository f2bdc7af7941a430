"""Time stepping for multistep, predictor-corrector and partitioned schemes.

Every `MethodSpec` kind is one relation over k+1 consecutive states,
sum_j alpha_j z_j - h sum_j beta_j f(sum_l gamma_jl z_l) = 0, whose kind
only chooses the default gamma (`MethodSpec.gamma_rows`).  `_relation`
evaluates f once per distinct gamma row, so one-leg schemes cost one
evaluation; it gives a step (solved for z_k) and `step_residual`, the
largest relation norm over every window of a run at once (with h -> -h on
reversed states, the reversibility residual).  Every scheme is
compiled once into advance(field, ys, fs, h) -> y, which also steps a stack
of windows.  `fs` is the f window: f at the k window states, `None` where
not yet evaluated.  A leg that is a lone window state reads and fills it,
so an explicit scheme costs one f-evaluation per step.  Pairs (defined in
`methods`, like every scheme) are built from their members' compiled steps;
a predictor-corrector pair runs in PECE mode.

A trajectory with parameter `steps` holds exactly `steps` recorded states
y_0 .. y_{steps-1}: the starter supplies the first k (the window, y_0
included) and the scheme generates the rest.  `steps = k` therefore returns
the starter output untouched.

An implicit step forms its residual G(z), the relation at z_k = z, once:
a closure over the constants the window fixes, in the kernel's own order of
operations.  Linear fields solve G(z) = 0 directly, from -G(0).  Nonlinear
ones go through simplified Newton on G to the fixed tolerance
`NEWTON_TOLERANCE`, with at most `NEWTON_MAX_ITERATIONS` iterations per
step: the Jacobian comes from central differences of G, is inverted once and
kept across the steps of a run, and is refreshed only when the iteration
stalls.  The stopping test reads |z| only once a running upper bound on it
lets the test pass, so it stops exactly where reading |z| each time would.

Linear fields get a blocked propagation path.  The window transfer matrix M
is built once per run: a block that shifts the window, over the scheme's
own step applied to the k d unit windows (d = 2n) at once.  The last-state
rows of M^1 .. M^B (B = 256) are stacked into one block, so a single
matrix-vector product (`ndarray.dot`, written in place into the state
array) emits the next B states from the current window; the window then
advances to the last k states emitted.  The powers are formed by doubling
in extended precision and rounded once, so the blocked path keeps the
accuracy of one product per step.  Every run is one stream, `_stream`,
whose producer the field alone picks: that block loop, `_power_rows`, on a
linear field, and on any other the per-step loop, `_step_rows`, which the
tests hold the blocked path to (both agree to roundoff).  Both fill a
caller's buffer chunk by chunk: `integrate` gives the stream one chunk as
long as the run, the state array itself, and `experiments.run_and_write`
a buffer of k + chunk rows that it reuses.

The exact-error channel |y_j - exact flow at t_j| of a linear field is
evaluated only at the rows a caller asks for (`_errors`): the written CSV
rows and the last row, not every step of a 10^6-step run.  On the
oscillator each row costs one closed-form `sho_exact` value; a general
linear field propagates the exact flow as the scheme, by `_power_rows`
with M = exp(hA) from `systems._expm` (numpy scaling and squaring, so no
run imports scipy): once per trajectory, or as a second stream, read
forward, beside a streamed run.  Either way the values are bit-identical
to slicing the full channel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import math
from typing import Callable

import numpy as np

from .methods import MethodSpec, PCPair, PartitionedPair, Scheme
from .systems import LinearHamiltonian, _expm, sho_exact

__all__ = [
    "STARTERS",
    "Trajectory",
    "ConvergenceError",
    "SingularStepError",
    "StepFailure",
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
    is a Trajectory holding every state that was produced (None from
    `_stream`, whose consumer has had them), `cause` the underlying error,
    whose chain's tracebacks are cleared: they hold the run's states.
    """

    def __init__(self, step: int, cause: Exception, partial: "Trajectory"):
        super().__init__(f"step {step} failed: {cause}")
        chained = cause
        while chained is not None:
            chained.__traceback__ = None
            chained = chained.__cause__ or chained.__context__
        self.step = step
        self.cause = cause
        self.partial = partial


# Newton on a nonlinear implicit step stops once an increment is within half
# NEWTON_TOLERANCE of 1 + |z|, and fails after NEWTON_MAX_ITERATIONS
NEWTON_TOLERANCE = 1e-14
NEWTON_MAX_ITERATIONS = 50
_HALF_TOL = 0.5 * NEWTON_TOLERANCE


# the names `integrate` takes for its starter: `rk4_start`, `exact_start`
STARTERS = ("rk4", "exact")


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: states (steps, 2n), energies and, on linear fields, the
    exact-error channel.

    The channel is not stored: `error_at(rows)` gives its values at an
    integer array of non-negative row indices, computed on request;
    `error_at` is None on a nonlinear field.
    """

    h: float
    states: np.ndarray
    energies: np.ndarray
    error_at: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def steps(self) -> int:
        return len(self.states)

    @property
    def final_error(self) -> float | None:
        """The channel at the last row; None without a channel or a row."""
        if self.error_at is None or not self.steps:
            return None
        return float(self.error_at(np.array([self.steps - 1]))[0])


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


def _sho_omega(field: LinearHamiltonian) -> float | None:
    """omega when the field is the oscillator `sho(omega)`, else None."""
    S = field.S
    if field.n == 1 and S[0, 1] == 0.0 and S[1, 1] == 1.0 and S[0, 0] > 0.0:
        return float(np.sqrt(S[0, 0]))
    return None


def exact_start(field, y0, h: float, count: int) -> list[np.ndarray]:
    """y0 plus `count` states on the exact flow (linear fields only): the
    closed form `sho_exact` on the oscillator, else exp(j h A) y0 with the
    numpy exponential `systems._expm`, which gives NaN where j h A overflows."""
    if not isinstance(field, LinearHamiltonian):
        raise ValueError("exact starter requires a linear field")
    y0 = np.array(y0, dtype=float)
    w = _sho_omega(field)
    if w is not None:
        return [sho_exact(w, y0, j * h) for j in range(count + 1)]
    # each state from its own matrix exponential, no error accumulation
    return [_expm(j * h * field.A) @ y0 for j in range(count + 1)]


def _errors(field: LinearHamiltonian, y0, h: float, count: int, room: int):
    """(states, rows) -> |states - exact flow at h * rows| row by row: the
    exact-error channel at rows below `count`, from y0 (not the run's first
    state, whose zeros the exact starter may have given the other sign).

    On the oscillator each row is one closed-form `sho_exact` value, looked
    up on this module at call time, so a wrapper installed on it sees every
    evaluation.  On any other field the flow is propagated from the first
    call on by `_power_rows`, with M = exp(hA), in chunks of `room` rows read
    forward: rows must ascend past the last chunk read, unless one chunk
    holds the whole flow (`room` >= count - 1)."""
    y0 = np.array(y0, dtype=float)
    w = _sho_omega(field)
    if w is not None:
        def exact(rows):
            return sho_exact(w, y0, h * rows)
    else:
        def flow():
            out = np.empty((min(count, 1 + room), len(y0)))
            out[0] = y0
            yield from _power_rows(_expm(h * field.A), out, count)

        chunks, lo = flow(), 0
        chunk = np.empty((0, len(y0)))  # flow rows lo, lo + 1, ..

        def exact(rows):
            nonlocal chunk, lo
            got, i = np.empty((len(rows), len(y0))), 0
            while True:
                # the rows from i on that this chunk holds come first
                n = np.count_nonzero(rows[i:] < lo + len(chunk))
                got[i : i + n] = chunk[rows[i : i + n] - lo]
                i += n
                if i == len(rows):
                    return got
                lo, chunk = lo + len(chunk), next(chunks)

    def errors(states, rows):
        # overflow in exploding runs is data, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.norm(states - exact(rows), axis=1)

    return errors


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
    z_{k-1} and their f window.  Once per step it forms the residual

        G(z) = r + a_k z - sum_i h w_i f(c_i + g_i z),

    where r is the relation without the terms that reach z_k and, for each
    leg i that reaches z_k, w_i is its weight, c_i the known part of its
    argument (`None` when it has none) and g_i its coefficient of z_k.  G
    adds and multiplies in `_relation`'s order (1.0 z == z bit for bit), so
    it gives the bits of the relation at z_k = z.  On linear fields -G(0) is
    the right-hand side of a direct solve.

    On nonlinear fields the solve is simplified Newton on G.  The inverse
    Newton matrix is kept by this stepper from step to step and refreshed at
    the current iterate only when an increment exceeds a quarter of the
    previous one, so a stepper compiled per run shares nothing with other
    runs.  The stopping test reads |z| only once an upper bound on it, |z_0|
    plus the increments' sizes, lets the test pass, so it stops where the
    test on |z| at every iteration would."""
    k, a_k = m.k, float(m.alpha[m.k])
    lead_beta = float(m.effective_beta()[k])
    alpha, legs = _compile(m)
    # terms are in index order, so a leg reaches z_k when its last term does;
    # alpha's last term is always alpha_k
    reaching = [leg for leg in legs if leg[1][-1][0] == k]
    known = (alpha[:-1], [leg for leg in legs if leg not in reaching])
    inverse = None  # of G's Jacobian, kept across steps

    def newton(G, z):
        nonlocal inverse
        previous = math.inf
        bound = math.sqrt(z @ z)  # >= |z|, as long as it is not NaN
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
            bound += size
            # half the budget so the relation residual stays within tolerance;
            # the factor on the bound covers the rounding of both norms
            if (size <= _HALF_TOL * (1.0 + bound) * (1.0 + 1e-9)
                    and size <= _HALF_TOL * (1.0 + math.sqrt(z @ z))):
                return z
            if size > 0.25 * previous:
                inverse = None  # stalled: refresh at the current iterate
            previous = size
        raise ConvergenceError(
            f"no convergence in {NEWTON_MAX_ITERATIONS} Newton iterations"
        )

    def advance(field, ys, fs, h):
        r = _relation(known, field, ys, h, fs)
        if not reaching:
            return r / -a_k
        consts = [(h * w, _comb(terms[:-1], ys) if len(terms) > 1 else None,
                   terms[-1][1]) for w, terms in reaching]

        def G(z):
            g = r + a_k * z
            for hw, c, g_i in consts:
                u = g_i * z if c is None else c + g_i * z
                g = g - hw * _f(field, u)
            return g

        if isinstance(field, LinearHamiltonian):
            # the relation is affine in z_k: its value at z_k = 0 is the rhs
            rhs = -G(np.zeros_like(ys[-1]))
            return _linear_lead_solve(a_k, lead_beta, field.A, h, rhs)
        return newton(G, ys[-1])

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
    """Compile a partitioned pair from its members: q from `first`'s step,
    p from `second`'s, both on the same f window."""
    q, p = _stepper(pair.first), _stepper(pair.second)

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
    ys = [np.asarray(y, dtype=float) for y in window]
    if len(ys) != scheme.k:
        raise ValueError(f"window must hold k = {scheme.k} states, got {len(ys)}")
    return _advance(scheme)(field, ys, [None] * scheme.k, h)


def step_residual(scheme: Scheme, field, states, h: float) -> float:
    """Largest norm of the defining relation over the windows of k+1
    consecutive states of a run, evaluated at once as stacks.

    A pair has no single relation (its PECE corrector holds only
    approximately, its partition splits q from p), so for every pair this is
    the one-step reconstruction error |y_k - step(y_0 .. y_{k-1})| instead.
    A run that overflows reads inf (or nan).
    """
    z, k = np.asarray(states, dtype=float), scheme.k
    if len(z) <= k:
        raise ValueError(f"need at least k+1 = {k + 1} states")
    zs = [z[j : len(z) - k + j] for j in range(k + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(scheme, MethodSpec):
            r = _relation(_compile(scheme), field, zs, h)
        else:
            r = zs[-1] - _advance(scheme)(field, zs[:-1], [None] * k, h)
        return float(np.max(np.linalg.norm(r, axis=1)))


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


def _trajectory(field, y0, h, states) -> Trajectory:
    """The run's recorded states with their energies and, on linear fields,
    the exact-error channel at any rows (`_errors` over one chunk)."""
    # overflow in exploding runs is data, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        energies = field.energies(states)
    error_at = None
    if isinstance(field, LinearHamiltonian):
        errors = _errors(field, y0, h, len(states), len(states))

        def error_at(rows):
            rows = np.asarray(rows)
            return errors(states[rows], rows)

    return Trajectory(h, states, energies, error_at)


def _step_rows(scheme: Scheme, field, h: float, out: np.ndarray, count: int):
    """`count` states of the per-step loop, handed back chunk by chunk in
    the caller's buffer `out` as `_power_rows` hands them.  When state j
    cannot be produced, the states since the last chunk come as one more
    chunk (if there are any), then the StepFailure at j."""
    k = scheme.k
    advance = _advance(scheme)
    ys, fs = list(out[:k]), [None] * k
    first = base = 0  # the chunk's first row in `out`; the run index of out[0]
    while True:
        end, failure = min(len(out), count - base), None
        try:
            # overflow in exploding runs is data, not an error
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(k, end):
                    out[j] = advance(field, ys, fs, h)
                    ys = ys[1:] + [out[j]]
                    fs = fs[1:] + [None]
        except (ConvergenceError, SingularStepError) as exc:
            failure, end = StepFailure(base + j, exc, None), j
        if end > first:
            yield out[first:end]
        if failure is not None:
            raise failure from failure.cause
        if base + end == count:
            return
        base += end - k
        out[:k] = out[end - k : end]  # the window: the chunk's last k states
        ys, first = list(out[:k]), k


# states emitted per matrix product; the stacked rows hold B * d * kd floats,
# so large systems get fewer states per product to keep them within _ROW_FLOATS
_BLOCK = 256
_ROW_FLOATS = 1 << 20


def _power_rows(M: np.ndarray, out: np.ndarray, count: int):
    """`count` states of the linear recursion Y -> M Y on a stacked window,
    handed back chunk by chunk in the caller's buffer `out`.

    M acts on the window of k states of size d = out.shape[1], the newest
    last, and its rows `tail = len(M) - d:` give the next state.  `out`
    (C-contiguous) holds that window in its first k rows.  The first chunk
    is out[:k + n], states 0 .. k + n - 1; each later one is out[k : k + n],
    the next n states, after the previous chunk's last k states have been
    moved to out[:k].  A chunk stays valid until the next is asked for.  n
    is len(out) - k, which must hold a block, rounded down to whole blocks
    when the run needs more than one chunk; so one chunk as long as the run
    fills `out` in place.

    Rows `tail:` of M^1 .. M^B are stacked once into a (B d, k d) block, so
    one product emits B states; the next window is the last k states
    emitted, which is M^B Y because M shifts the window.  The blocks start
    at states k + m B whatever the chunks, and B comes from `count`.  Since
    the buffer is C-contiguous, the window of states j-k .. j-1 is its flat
    slice [(j-k) d, j d), and each full block's product is written by
    `ndarray.dot(..., out=)` straight into the next B d floats, with no
    product array or reshape per block.  That is the BLAS matrix-vector
    call `np.matmul` makes, with less dispatch around it.  Only a last,
    partial block multiplies a slice of the stacked rows.
    """
    kd, d = len(M), out.shape[1]
    k, tail = kd // d, kd - d
    block = min(_BLOCK, count - k, max(1, _ROW_FLOATS // (d * kd)))
    if block <= 0:
        yield out[:count]
        return
    # overflow in exploding runs is data, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        # Every block reuses these rows, so their rounding error adds up
        # coherently over a run: form them in extended precision (where the
        # platform has it) and round once.  Doubling: the rows of M^1 ..
        # M^m times M^m are the rows of M^(m+1) .. M^2m.
        power = M.astype(np.longdouble)
        rows = power[tail:]
        while len(rows) < block * d:
            rows = np.concatenate([rows, rows[: block * d - len(rows)] @ power])
            power = power @ power
        rows = rows.astype(float)
    room = len(out) - k
    if room < count - k:
        room -= room % block
    flat = out.reshape(-1)  # a view: out is C-contiguous
    done = n = 0  # states of the run past the window, and of the last chunk
    while done < count - k:
        if done:
            out[:k] = out[n : n + k]  # the window: the last chunk's last k states
        n = min(room, count - k - done)
        end = k + n
        full = end - n % block  # end of the chunk's last full block
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(k, full, block):
                window = flat[(j - k) * d : j * d]
                rows.dot(window, out=flat[j * d : (j + block) * d])
            if full < end:
                window = flat[(full - k) * d : full * d]
                flat[full * d : end * d] = rows[: (end - full) * d] @ window
        yield out[k:end] if done else out[:end]
        done += n


def integrate(scheme: Scheme, field, y0, h: float, steps: int,
              starter: str = "rk4") -> Trajectory:
    """Run a scheme; return its states, energies and exact-error channel.

    `steps` counts recorded states including the k starter states; it must
    be at least k, and the last state's time h (steps - 1) must be finite.
    `starter` names one of `STARTERS`.  The exact-error channel exists only
    for linear fields, where the exact flow is known.  The run is `_stream`
    with one chunk as long as the run, filled in place.
    """
    try:
        for states in _stream(scheme, field, y0, h, steps, starter, steps):
            pass  # one chunk: the whole run
    except StepFailure as exc:
        # the stream's one chunk: every state produced
        exc.partial = _trajectory(field, y0, h, states.copy())
        raise
    return _trajectory(field, y0, h, states)


def _stream(scheme: Scheme, field, y0, h: float, steps: int, starter: str,
            chunk: int):
    """A run's states as consecutive chunks of one buffer of k + `chunk`
    rows: `_power_rows` on a linear field, `_step_rows` on any other.
    `chunk`, at least `_BLOCK`, is best a multiple of it.  `integrate`'s
    checks of its arguments raise ValueError before the first chunk, which
    starts with the starter's window.  A failed step ends the stream with a
    StepFailure whose `partial` is None (on a linear field only a singular
    `window_matrix`, at step k, after the window)."""
    if starter not in STARTERS:
        raise ValueError(f"starter must be one of {STARTERS}, got {starter!r}")
    if not 0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    k = scheme.k
    if steps < k:
        raise ValueError(f"steps must be >= window k = {k}, got {steps}")
    if not math.isfinite(h * (steps - 1)):
        raise ValueError(f"the time grid overflows: h * (steps - 1) = "
                         f"{h} * {steps - 1} is not finite")
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
        window = np.array(start(field, y0, h, k - 1))
    if isinstance(field, LinearHamiltonian):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                M = window_matrix(scheme, field, h)
        except SingularStepError as exc:
            yield window  # the run fails at step k, before any step is taken
            raise StepFailure(k, exc, None) from exc
    out = np.empty((min(steps, k + chunk), field.dim))  # after every check
    out[:k] = window
    if isinstance(field, LinearHamiltonian):
        yield from _power_rows(M, out, steps)
    else:
        yield from _step_rows(scheme, field, h, out, steps)
