"""Stepping: single steps, implicit solves, pairs, fast path, failures."""
from fractions import Fraction
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from geostep import integrators
from geostep.cli import build_parser
from geostep.experiments import Scenario, _scan, builtin_scenarios, resolve_scheme
from geostep.methods import MethodError, MethodSpec, builtin_methods, pad_method
from geostep.integrators import (
    _BLOCK,
    STARTERS,
    ConvergenceError,
    PCPair,
    PartitionedPair,
    SingularStepError,
    StepFailure,
    Trajectory,
    exact_start,
    integrate,
    numerical_jacobian,
    rk4_start,
    step,
    step_residual,
    window_matrix,
)
from geostep.systems import GradientField, LinearHamiltonian, _expm, sho, sho_exact

F = Fraction
MS = builtin_methods()
FIELD = sho(1.0)
Y0 = np.array([1.0, 0.0])


def pendulum() -> GradientField:
    return GradientField(
        1,
        hamiltonian_fn=lambda y: 0.5 * y[1] ** 2 - np.cos(y[0]),
        gradient_fn=lambda y: np.array([np.sin(y[0]), y[1]]),
    )


def generic_run(scheme, field, y0, h, steps):
    """A run through the per-step loop, which nonlinear fields take, in one
    chunk as `integrate` runs it: the reference for the blocked path of
    linear fields."""
    y0 = np.asarray(y0, dtype=float)
    states = np.empty((steps, len(y0)))
    with np.errstate(over="ignore", invalid="ignore"):
        states[: scheme.k] = rk4_start(field, y0, h, scheme.k - 1)
    try:
        for _ in integrators._step_rows(scheme, field, h, states, steps):
            pass  # one chunk: the whole run, in place
    except StepFailure as exc:
        exc.partial = integrators._trajectory(field, y0, h, states[: exc.step].copy())
        raise
    return integrators._trajectory(field, y0, h, states)


# ---------------------------------------------------------------------------
# starters


def test_rk4_start_counts_states():
    out = rk4_start(FIELD, Y0, 0.1, 3)
    assert len(out) == 4
    assert np.array_equal(out[0], Y0)


def test_rk4_start_one_step_accuracy():
    y1 = rk4_start(FIELD, Y0, 0.1, 1)[1]
    err = np.linalg.norm(y1 - sho_exact(1.0, Y0, 0.1))
    assert err < 1e-6
    assert err == pytest.approx(8.33e-8, rel=0.1)


def test_exact_start_matches_closed_form():
    out = exact_start(FIELD, Y0, 0.1, 3)
    for j, y in enumerate(out):
        assert np.allclose(y, sho_exact(1.0, Y0, 0.1 * j), atol=1e-15)


def test_exact_start_general_linear_uses_flow():
    S = np.array([[2.0, 0.5], [0.5, 3.0]])
    field = LinearHamiltonian.from_hessian(S)
    out = exact_start(field, np.array([1.0, 0.2]), 0.05, 4)
    H = [field.hamiltonian(y) for y in out]
    assert np.max(np.abs(np.array(H) - H[0])) < 1e-13


def test_exact_start_rejects_nonlinear_field():
    with pytest.raises(ValueError):
        exact_start(pendulum(), Y0, 0.1, 2)


def test_unknown_starter_rejected_before_any_state(monkeypatch):
    calls = []

    def counted(y):
        calls.append(y)
        return np.array([np.sin(y[0]), y[1]])

    field = GradientField(1, lambda y: calls.append(y) or 0.0, counted)
    for name in ("rk4_start", "exact_start"):
        monkeypatch.setattr(integrators, name, lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="starter"):
        integrate(MS["ab4"], field, Y0, 0.1, 10, starter="euler")
    assert calls == []
    # every front end accepts exactly the names integrate takes
    for name in STARTERS:
        assert Scenario("x", "ab4", starter=name).starter == name
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    option = next(a for a in sub.choices["integrate"]._actions if a.dest == "starter")
    assert tuple(option.choices) == STARTERS


# ---------------------------------------------------------------------------
# single steps


def test_explicit_euler_pinned_step():
    y1 = step(MS["explicit-euler"], FIELD, [Y0], 0.1)
    assert np.array_equal(y1, np.array([1.0, -0.1]))


def test_implicit_euler_solves_linear_directly():
    y1 = step(MS["implicit-euler"], FIELD, [Y0], 0.1)
    # (I - hA) y1 = y0
    lhs = (np.eye(2) - 0.1 * FIELD.A) @ y1
    assert np.allclose(lhs, Y0, atol=1e-15)


def test_midpoint_step_equals_cayley_map():
    h = 0.1
    C = np.linalg.solve(np.eye(2) - (h / 2) * FIELD.A, np.eye(2) + (h / 2) * FIELD.A)
    y1 = step(MS["midpoint"], FIELD, [Y0], h)
    assert np.allclose(y1, C @ Y0, atol=1e-14)


def test_window_length_is_checked():
    with pytest.raises(ValueError, match="window"):
        step(MS["leapfrog"], FIELD, [Y0], 0.1)


def test_oneleg_matches_lmm_on_linear_field():
    lmm_twin = MethodSpec("mid-lmm", 1, MS["midpoint"].alpha, MS["midpoint"].beta)
    t1 = generic_run(MS["midpoint"], FIELD, Y0, 0.1, 200)
    t2 = generic_run(lmm_twin, FIELD, Y0, 0.1, 200)
    assert np.max(np.abs(t1.states - t2.states)) < 1e-11


def test_oneleg_differs_from_lmm_on_nonlinear_field():
    field = pendulum()
    y = np.array([1.2, 0.3])
    a = step(MS["midpoint"], field, [y], 0.4)
    lmm_twin = MethodSpec("mid-lmm", 1, MS["midpoint"].alpha, MS["midpoint"].beta)
    b = step(lmm_twin, field, [y], 0.4)
    assert np.linalg.norm(a - b) > 1e-5


def test_generalized_with_identity_gamma_reduces_to_lmm():
    m = MS["midpoint"]
    gamma = tuple(
        tuple(F(1) if i == j else F(0) for j in range(2)) for i in range(2)
    )
    gen = MethodSpec("mid-gen", 1, m.alpha, m.beta, kind="generalized", gamma=gamma)
    lmm_twin = MethodSpec("mid-lmm", 1, m.alpha, m.beta)
    field = pendulum()
    y = np.array([0.7, -0.2])
    a = step(gen, field, [y], 0.1)
    b = step(lmm_twin, field, [y], 0.1)
    assert np.allclose(a, b, atol=1e-13)
    # on the linear field the compiled matrices coincide exactly
    assert np.array_equal(
        window_matrix(gen, FIELD, 0.1), window_matrix(lmm_twin, FIELD, 0.1)
    )


def test_step_residual_within_solver_tolerance():
    field = pendulum()
    for m in (MS["implicit-euler"], MS["midpoint"], MS["am4"]):
        window = rk4_start(field, np.array([0.9, 0.1]), 0.1, m.k - 1)
        ynew = step(m, field, window, 0.1)
        r = step_residual(m, field, window + [ynew], 0.1)
        assert r <= integrators.NEWTON_TOLERANCE * (1.0 + np.linalg.norm(ynew))


@pytest.mark.parametrize(
    "name", ["pc-m2", "m3-line1,m3b-corrected", "m3-line1,m3-line2-as-printed"])
def test_step_residual_of_a_pair_run_is_roundoff(name):
    # a pair's residual is its one-step reconstruction error, over every
    # window of the run at once
    pair = resolve_scheme(name)
    field = pendulum()
    states = integrate(pair, field, np.array([1.0, 0.0]), 0.1, 200).states
    assert step_residual(pair, field, states, 0.1) <= 1e-14
    # a state off the run shows, wherever it sits
    states[150, 0] += 1e-6
    assert step_residual(pair, field, states, 0.1) > 1e-7


def test_step_residual_of_a_run_is_its_largest_window():
    field, m, h = pendulum(), MS["am4"], 0.1
    states = integrate(m, field, np.array([0.9, 0.1]), h, 60).states
    # a perturbed state makes one window's relation stand out
    states[30, 1] += 1e-9
    single = [step_residual(m, field, states[j : j + m.k + 1], h)
              for j in range(len(states) - m.k)]
    assert step_residual(m, field, states, h) == max(single) > 1e-10


@pytest.mark.parametrize("name", ["leapfrog", "pc-m2", "m3-line1,m3b-corrected"])
def test_step_residual_needs_k_plus_one_states(name):
    scheme = resolve_scheme(name)
    states = integrate(scheme, FIELD, Y0, 0.1, scheme.k).states
    with pytest.raises(ValueError, match="k\\+1"):
        step_residual(scheme, FIELD, states, 0.1)


def test_oneleg_evaluates_field_once_per_iteration():
    calls = 0

    def grad(y):
        nonlocal calls
        calls += 1
        return np.array([np.sin(y[0]), y[1]])

    field = GradientField(1, hamiltonian_fn=lambda y: 0.0, gradient_fn=grad)
    step(MS["midpoint"], field, [Y0], 0.1)
    assert calls <= integrators.NEWTON_MAX_ITERATIONS


# ---------------------------------------------------------------------------
# predictor-corrector and partitioned pairs


def test_pc_pair_requires_explicit_predictor():
    with pytest.raises(MethodError, match="explicit"):
        PCPair("bad", predictor=MS["am4"], corrector=MS["am4"])


def test_pc_pair_pads_to_common_window():
    pair = PCPair("mix", predictor=MS["explicit-euler"], corrector=MS["am4"])
    assert pair.k == 4
    assert pair.predictor.alpha == (F(0), F(0), F(0), F(-1), F(1))


def test_pc_local_error_scales_at_fifth_order():
    pair = PCPair("pc", MS["ab4"], MS["am4"])

    def one_step_error(h):
        traj = integrate(pair, FIELD, Y0, h, pair.k + 1, starter="exact")
        return traj.final_error

    ratio = one_step_error(0.1) / one_step_error(0.05)
    assert ratio == pytest.approx(32.0, rel=0.15)


def test_partitioned_members_must_be_explicit():
    with pytest.raises(MethodError, match="explicit"):
        PartitionedPair("bad", MS["m3-line1"], MS["am4"])


def test_partitioned_euler_pair_equals_full_euler():
    pair = PartitionedPair("ee", MS["explicit-euler"], MS["explicit-euler"])
    y1 = step(pair, FIELD, [Y0], 0.1)
    assert np.allclose(y1, step(MS["explicit-euler"], FIELD, [Y0], 0.1))
    assert np.allclose(
        window_matrix(pair, FIELD, 0.1),
        window_matrix(MS["explicit-euler"], FIELD, 0.1),
    )


def test_partitioned_swap_exchanges_roles():
    # member order is the orientation: the reversed pair swaps the roles
    pair = PartitionedPair("m3", MS["m3-line1"], MS["m3b-corrected"])
    swapped = PartitionedPair("m3s", MS["m3b-corrected"], MS["m3-line1"])
    assert dict(pair.members)["positions"].name == "m3-line1"
    assert dict(swapped.members)["positions"].name == "m3b-corrected"
    t1 = integrate(pair, FIELD, Y0, 0.1, 50)
    t2 = integrate(swapped, FIELD, Y0, 0.1, 50)
    assert np.max(np.abs(t1.states - t2.states)) > 1e-10


def test_pad_method_keeps_step_values():
    padded = pad_method(MS["explicit-euler"], 3)
    assert padded.k == 3
    y = rk4_start(FIELD, Y0, 0.1, 2)
    assert np.allclose(
        step(padded, FIELD, y, 0.1),
        step(MS["explicit-euler"], FIELD, [y[-1]], 0.1),
    )


@pytest.mark.parametrize("name", ["m1-as-printed", "leapfrog", "m3-line2-as-printed"])
def test_pad_method_keeps_the_members_own_warnings(name):
    # the zero-padded index 0 describes the padding, not the scheme, so it
    # adds no note; the member's own warnings (an inconsistent printing,
    # an index-0 note of its own) are kept as they are
    m = MS[name]
    assert pad_method(m, m.k + 1).warnings == m.warnings


def test_pair_members_list_roles_in_first_member_order():
    pc = PCPair("pc", MS["ab4"], MS["am4"])
    assert [(r, m.name) for r, m in pc.members] == [
        ("predictor", "ab4"), ("corrector", "am4"),
    ]
    pair = PartitionedPair("m3", MS["m3-line1"], MS["m3b-corrected"])
    assert [(r, m.name) for r, m in pair.members] == [
        ("positions", "m3-line1"), ("momenta", "m3b-corrected"),
    ]
    swapped = PartitionedPair("m3", MS["m3b-corrected"], MS["m3-line1"])
    assert [(r, m.name) for r, m in swapped.members] == [
        ("positions", "m3b-corrected"), ("momenta", "m3-line1"),
    ]


# ---------------------------------------------------------------------------
# integrate driver


def test_steps_equal_k_returns_starter_only():
    m = MS["ab4"]
    starter = rk4_start(FIELD, Y0, 0.1, m.k - 1)
    for run in (integrate, generic_run):
        traj = run(m, FIELD, Y0, 0.1, m.k)
        assert traj.steps == m.k
        assert np.array_equal(traj.states, np.array(starter))


def test_integrate_validates_inputs():
    for steps in (3, 0, -5):  # steps < k: the only check on the step count
        with pytest.raises(ValueError, match="window k = 4"):
            integrate(MS["ab4"], FIELD, Y0, 0.1, steps)
    with pytest.raises(ValueError):
        integrate(MS["ab4"], FIELD, Y0, -0.1, 10)
    with pytest.raises(ValueError):
        integrate(MS["ab4"], FIELD, np.array([1.0, 0.0, 0.0]), 0.1, 10)
    for h in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            integrate(MS["ab4"], FIELD, Y0, h, 10)
    with pytest.raises(ValueError, match="finite"):
        integrate(MS["ab4"], FIELD, np.array([np.nan, 0.0]), 0.1, 10)
    # a finite y0 whose energy H = q0^2 / 2 overflows
    with pytest.raises(ValueError, match="energy at y0 must be finite"):
        integrate(MS["ab4"], FIELD, np.array([1e300, 0.0]), 0.1, 10)


def test_trajectory_times_and_channels():
    traj = integrate(MS["leapfrog"], FIELD, Y0, 0.1, 25)
    assert isinstance(traj, Trajectory)
    assert traj.h == 0.1 and traj.steps == 25
    assert traj.energies.shape == (25,)
    errors = traj.error_at(np.arange(traj.steps))
    assert errors.shape == (25,)
    assert errors[0] == 0.0


def test_exact_starter_rows_have_zero_error():
    traj = integrate(MS["ab4"], FIELD, Y0, 0.1, 10, starter="exact")
    assert np.max(traj.error_at(np.arange(4))) < 1e-14


@pytest.mark.parametrize("name", ["leapfrog", "midpoint", "ab4", "am4", "m3-line1"])
def test_fast_path_agrees_with_generic(name):
    m = MS[name]
    fast = integrate(m, FIELD, Y0, 0.1, 300)
    slow = generic_run(m, FIELD, Y0, 0.1, 300)
    assert np.max(np.abs(fast.states - slow.states)) < 1e-12


def test_fast_path_agrees_for_pairs():
    pair = PCPair("pc", MS["ab4"], MS["am4"])
    part = PartitionedPair("m3", MS["m3-line1"], MS["m3b-corrected"])
    for scheme in (pair, part):
        fast = integrate(scheme, FIELD, Y0, 0.1, 300)
        slow = generic_run(scheme, FIELD, Y0, 0.1, 300)
        assert np.max(np.abs(fast.states - slow.states)) < 1e-12


# 2-DOF field blockdiag(K, I): states of size d = 4 exercise the row stacking
FIELD2 = LinearHamiltonian.from_hessian(
    np.block([[np.array([[2.0, 0.5], [0.5, 3.0]]), np.zeros((2, 2))],
              [np.zeros((2, 2)), np.eye(2)]])
)
Y02 = np.array([1.0, -0.5, 0.2, 0.3])
BLOCKED_SCHEMES = {
    "lmm": MS["ab4"],
    "pece": PCPair("pc-m2", MS["ab4"], MS["am4"]),
    "partitioned": PartitionedPair("m3", MS["m3-line1"], MS["m3b-corrected"]),
}


@pytest.mark.parametrize("kind", sorted(BLOCKED_SCHEMES))
@pytest.mark.parametrize("extra", [0, 1, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 5])
def test_blocked_path_matches_generic_across_block_edges(kind, extra):
    scheme = BLOCKED_SCHEMES[kind]
    steps = scheme.k + extra
    fast = integrate(scheme, FIELD2, Y02, 0.1, steps)
    slow = generic_run(scheme, FIELD2, Y02, 0.1, steps)
    assert fast.steps == slow.steps == steps
    assert np.max(np.abs(fast.states - slow.states)) < 1e-12


def test_blocked_path_with_short_blocks_on_large_systems(monkeypatch):
    # a row budget of three states per product, fewer than the window's k = 4
    scheme = BLOCKED_SCHEMES["lmm"]
    d = FIELD2.dim
    monkeypatch.setattr(integrators, "_ROW_FLOATS", 3 * d * scheme.k * d)
    fast = integrate(scheme, FIELD2, Y02, 0.1, 50)
    slow = generic_run(scheme, FIELD2, Y02, 0.1, 50)
    assert np.max(np.abs(fast.states - slow.states)) < 1e-12


def _chunked_rows(M, Y, count, tail, chunk=None):
    """The states `integrators._power_rows` hands back from the stacked
    window Y, all chunks concatenated: chunks of `chunk` rows in a buffer of
    k + chunk rows, or one chunk filling the whole run in place."""
    d = len(Y) - tail
    k = len(Y) // d
    out = np.empty((count if chunk is None else min(count, k + chunk), d))
    out[:k] = Y.reshape(k, d)
    chunks = [c.copy() for c in integrators._power_rows(M, out, count)]
    assert chunk is not None or len(chunks) == 1
    return np.concatenate(chunks)


def _power_rows_per_block(M, Y, count, tail):
    """`_power_rows` with a reshaped window and a fresh product array for
    every block: the reference for the states' bits."""
    kd = len(Y)
    d = kd - tail
    k = kd // d
    out = np.empty((count, d))
    out[:k] = Y.reshape(k, d)
    block = min(_BLOCK, count - k, max(1, integrators._ROW_FLOATS // (d * kd)))
    if block <= 0:
        return out
    power = M.astype(np.longdouble)
    rows = power[tail:]
    while len(rows) < block * d:
        rows = np.concatenate([rows, rows[: block * d - len(rows)] @ power])
        power = power @ power
    rows = rows.astype(float)
    for j in range(k, count, block):
        n = min(block, count - j)
        window = out[j - k : j].reshape(kd)
        out[j : j + n] = (rows[: n * d] @ window).reshape(n, d)
    return out


@pytest.mark.parametrize("name, field, h", [
    ("ab4", FIELD2, 0.1),
    ("pc-m2", FIELD2, 0.1),
    ("m3-line1,m3b-corrected", FIELD, 0.1),
    ("leapfrog", FIELD2, 0.1),  # k = 2 on d = 4: a tail of one state
    ("explicit-euler", FIELD, 6.0),  # overflows to inf, then nan
])
@pytest.mark.parametrize("extra", [0, 1, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 5])
def test_power_rows_equal_the_per_block_products(name, field, h, extra):
    scheme = resolve_scheme(name)
    M = window_matrix(scheme, field, h)
    d = field.dim
    Y = np.concatenate(rk4_start(field, np.linspace(1.0, 0.5, d), h, scheme.k - 1))
    count, tail = scheme.k + extra, M.shape[0] - d
    if name == "explicit-euler":
        count += 2000
    with np.errstate(over="ignore", invalid="ignore"):
        got = _chunked_rows(M, Y, count, tail)
        expected = _power_rows_per_block(M, Y, count, tail)
    assert np.array_equal(got, expected, equal_nan=True)
    if name == "explicit-euler":
        assert np.isnan(got).any()


@pytest.mark.parametrize("name", ["ab4", "leapfrog"])
@pytest.mark.parametrize("extra", [0, 1, 2, 3, 50])
def test_power_rows_with_short_blocks_equal_the_per_block_products(
    monkeypatch, name, extra
):
    # a row budget of three states per product, fewer than ab4's k = 4
    scheme = resolve_scheme(name)
    d = FIELD2.dim
    monkeypatch.setattr(integrators, "_ROW_FLOATS", 3 * d * scheme.k * d)
    M = window_matrix(scheme, FIELD2, 0.1)
    Y = np.concatenate(rk4_start(FIELD2, Y02, 0.1, scheme.k - 1))
    count, tail = scheme.k + extra, M.shape[0] - d
    assert np.array_equal(_chunked_rows(M, Y, count, tail),
                          _power_rows_per_block(M, Y, count, tail))


@pytest.mark.parametrize("name, field, h, rows, chunk", [
    ("ab4", FIELD2, 0.1, 0, _BLOCK),  # k = 4: the starter's window alone
    ("ab4", FIELD2, 0.1, 3 * _BLOCK + 5, 4 * _BLOCK),  # one chunk, shorter than the buffer
    ("ab4", FIELD2, 0.1, 3 * _BLOCK, _BLOCK),  # chunks that end with the run
    ("leapfrog", FIELD2, 0.1, 3 * _BLOCK + 1, _BLOCK),  # a last chunk of one row
    ("leapfrog", FIELD2, 0.1, 5 * _BLOCK - 1, 2 * _BLOCK),  # a partial last block
    ("pc-m2", FIELD2, 0.1, 4 * _BLOCK + 17, 3 * _BLOCK - 5),  # cut to whole blocks
    ("m3-line1,m3b-corrected", FIELD, 0.1, _BLOCK - 3, _BLOCK),  # B = count - k
    ("explicit-euler", FIELD, 6.0, 2000, _BLOCK),  # overflows to inf, then nan
])
def test_power_rows_in_chunks_equal_one_chunk(name, field, h, rows, chunk):
    # the blocks start at k + m B whatever the chunks, so chunked rows have
    # the bits of the run filled in place; each chunk is handed back in a
    # buffer of k + chunk rows
    scheme = resolve_scheme(name)
    M = window_matrix(scheme, field, h)
    d = field.dim
    Y = np.concatenate(rk4_start(field, np.linspace(1.0, 0.5, d), h, scheme.k - 1))
    count, tail = scheme.k + rows, M.shape[0] - d
    with np.errstate(over="ignore", invalid="ignore"):
        whole = _chunked_rows(M, Y, count, tail)
        chunked = _chunked_rows(M, Y, count, tail, chunk)
    assert np.array_equal(whole, chunked, equal_nan=True)


@pytest.mark.parametrize("name, starter, steps", [
    ("ab4", "rk4", 4 + 3 * _BLOCK + 1),
    ("leapfrog", "exact", 2 + 2 * _BLOCK - 1),
    ("pc-m2", "rk4", 4),
    ("m3-line1,m3b-corrected", "rk4", 100),
])
def test_stream_chunks_are_the_integrated_states(name, starter, steps):
    scheme = resolve_scheme(name)
    field, y0 = (FIELD, Y0) if isinstance(scheme, PartitionedPair) else (FIELD2, Y02)
    chunks = [c.copy() for c in integrators._stream(
        scheme, field, y0, 0.1, steps, starter, _BLOCK)]
    traj = integrate(scheme, field, y0, 0.1, steps, starter=starter)
    assert len(chunks[0]) == min(steps, scheme.k + _BLOCK)
    assert all(len(c) <= _BLOCK for c in chunks[1:])
    assert np.array_equal(np.concatenate(chunks), traj.states)


@pytest.mark.parametrize("args", [
    (0.1, 3, "rk4"), (0.0, 10, "rk4"), (np.inf, 10, "rk4"), (0.1, 10, "euler"),
    (1e308, 10, "rk4"),
], ids=["steps-below-k", "zero-h", "infinite-h", "starter", "time-grid"])
def test_stream_raises_what_integrate_raises(args):
    h, steps, starter = args
    scheme = MS["ab4"]
    with pytest.raises(ValueError) as whole:
        integrate(scheme, FIELD, Y0, h, steps, starter=starter)
    with pytest.raises(ValueError) as streamed:
        next(integrators._stream(scheme, FIELD, Y0, h, steps, starter, _BLOCK))
    assert str(streamed.value) == str(whole.value)


def _drain(chunks):
    """(every chunk's rows concatenated, the StepFailure that ended them or
    None)."""
    got, failure = [], None
    try:
        for chunk in chunks:
            got.append(chunk.copy())
    except StepFailure as exc:
        failure = exc
    return np.concatenate(got), failure


def test_a_singular_step_fails_before_room_is_made_for_the_run():
    # 10^15 states fit in no memory: the singular window map is reported
    # first, with the window as the partial run
    field = LinearHamiltonian.from_hessian(np.diag([-1.0, 1.0]))
    with pytest.raises(StepFailure) as failure:
        integrate(MS["implicit-euler"], field, Y0, 1.0, 10**15)
    assert failure.value.step == 1 and failure.value.partial.steps == 1


def test_stream_reports_a_singular_step_as_integrate_does():
    # the window comes as the stream's one chunk, then the failure
    field = LinearHamiltonian.from_hessian(np.diag([-1.0, 1.0]))
    m = MS["implicit-euler"]
    with pytest.raises(StepFailure) as whole:
        integrate(m, field, Y0, 1.0, 10)
    states, streamed = _drain(integrators._stream(m, field, Y0, 1.0, 10, "rk4", _BLOCK))
    assert streamed.step == whole.value.step == m.k
    assert str(streamed.cause) == str(whole.value.cause)
    assert streamed.partial is None
    assert np.array_equal(states, whole.value.partial.states)


def cut_pendulum() -> GradientField:
    """The pendulum with a NaN gradient past |q| = 1.5: a Newton solve that
    must go there fails."""
    def grad(y):
        if abs(y[0]) > 1.5:
            return np.full(2, np.nan)
        return np.array([np.sin(y[0]), y[1]])

    return GradientField(1, hamiltonian_fn=lambda y: 0.5 * y[1] ** 2 - np.cos(y[0]),
                         gradient_fn=grad)


@pytest.mark.parametrize("name, field, steps, chunk", [
    ("leapfrog", pendulum(), 3 * 50 + 2, 50),
    ("ab4", pendulum(), 4 + 2 * 7 - 1, 7),
    ("m3-line1,m3b-corrected", pendulum(), 2 + 3, 1),
    ("pc-m2", pendulum(), 4, 5),
    ("midpoint", cut_pendulum(), 400, 32),  # fails past the first chunks
    ("implicit-euler", cut_pendulum(), 400, 32),
], ids=["explicit", "k4", "chunk-of-one", "window-only", "midpoint-fails",
        "implicit-euler-fails"])
def test_per_step_stream_is_integrate_in_chunks(name, field, steps, chunk):
    # the per-step producer fills the caller's buffer as the blocked one
    # does; a failure hands over the states produced, then the StepFailure
    scheme, y0, h = resolve_scheme(name), np.array([0.0, 1.9]), 0.01
    states, streamed = _drain(integrators._stream(
        scheme, field, y0, h, steps, "rk4", chunk))
    try:
        whole, failure = integrate(scheme, field, y0, h, steps), None
    except StepFailure as exc:
        whole, failure = exc.partial, exc
    assert np.array_equal(states, whole.states)
    if name.endswith("-euler") or name == "midpoint":
        assert failure is not None and failure.step > 2 * chunk
        assert streamed.step == failure.step and streamed.partial is None
        assert str(streamed.cause) == str(failure.cause)
    else:
        assert failure is None and streamed is None


@pytest.mark.parametrize("room", [_BLOCK, 3 * _BLOCK])
def test_exact_flow_read_forward_in_chunks_is_the_whole_flow(room):
    # the exact-error channel of a general linear field reads its flow in
    # chunks of `room` rows, forward: ascending blocks of rows, then
    # the last row, have the bits of the flow held whole
    h, count = 0.05, 7 * _BLOCK + 5
    states = integrate(MS["leapfrog"], FIELD2, Y02, h, count).states
    whole = integrators._errors(FIELD2, Y02, h, count, count)
    chunked = integrators._errors(FIELD2, Y02, h, count, room)
    for lo in range(0, count, 1000):
        rows = np.arange(lo + 3, min(count, lo + 1000), 11)
        assert np.array_equal(chunked(states[rows], rows), whole(states[rows], rows))
    last = np.array([count - 1])
    assert np.array_equal(chunked(states[last], last), whole(states[last], last))


def test_blocked_pc_m2_matches_generic_over_long_run():
    # the PECE window matrix is non-normal, so powers of it are the
    # worst case for roundoff growth in the stacked rows
    M = window_matrix(resolve_scheme("pc-m2"), FIELD, 0.1)
    assert np.linalg.norm(M @ M.T - M.T @ M) > 1e-3
    fast = integrate(resolve_scheme("pc-m2"), FIELD, Y0, 0.1, 10**5)
    slow = generic_run(resolve_scheme("pc-m2"), FIELD, Y0, 0.1, 10**5)
    assert np.max(np.abs(fast.states - slow.states)) < 1e-10


def _first_nonfinite(states):
    bad = np.nonzero(~np.all(np.isfinite(states), axis=1))[0]
    return int(bad[0]) if len(bad) else None


def test_blocked_overflow_and_crossing_match_per_step_map():
    s = {x.name: x for x in builtin_scenarios()}["fig4-partitioned"]
    scheme = resolve_scheme(s.method)
    y0 = np.array([s.q0, s.p0])
    steps = 140_000
    fast = integrate(scheme, FIELD, y0, s.h, steps)
    # reference for the overflow step: one window-matrix product per step.
    # The generic relation solve overflows in its intermediate terms about
    # 200 steps before the states themselves do (139551 against 139760).
    M = window_matrix(scheme, FIELD, s.h)
    Y = np.concatenate(fast.states[: scheme.k])
    ref = np.empty((steps, 2))
    ref[: scheme.k] = fast.states[: scheme.k]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(scheme.k, steps):
            Y = M @ Y
            ref[j] = Y[-2:]
    first = _first_nonfinite(fast.states)
    assert first is not None and first == _first_nonfinite(ref)
    # the crossing comes long before overflow; the generic path finds it too
    short = 2000
    slow = generic_run(scheme, FIELD, y0, s.h, short)
    crossing = _scan(fast)[3]
    assert crossing is not None and crossing == _scan(slow)[3]


def test_exact_channel_on_general_field_matches_matrix_exponential():
    h, steps = 0.05, 2 * _BLOCK + 3
    traj = integrate(MS["leapfrog"], FIELD2, Y02, h, steps)
    errors = traj.error_at(np.arange(traj.steps))
    for j in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, steps - 1):
        exact = expm(j * h * FIELD2.A) @ Y02
        assert errors[j] == pytest.approx(
            np.linalg.norm(traj.states[j] - exact), abs=1e-12
        )


def _full_error_channel(field, y0, h, states):
    """|y_j - exact flow at t_j| over every row at once."""
    steps = len(states)
    omega = integrators._sho_omega(field)
    if omega is not None:
        exact = sho_exact(omega, y0, h * np.arange(steps))
    else:
        exact = _chunked_rows(_expm(h * field.A), y0, steps, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(states - exact, axis=1)


@st.composite
def linear_runs(draw):
    """(trajectory, field, y0, h): runs on the oscillator and on a random SPD
    2-DOF Hessian, an overflowing run and the partial run of a StepFailure."""
    kind = draw(st.sampled_from(["sho", "hessian", "overflow", "failure"]))
    unit = st.floats(-1.0, 1.0)
    if kind == "failure":
        # on diag(-1, 1), I - hA is exactly singular at h = 1, as in
        # test_singular_implicit_step_reports_step_failure
        field, h = LinearHamiltonian.from_hessian(np.diag([-1.0, 1.0])), 1.0
        y0 = np.array([draw(unit), draw(unit)])
        with pytest.raises(StepFailure) as info:
            draw(st.sampled_from([integrate, generic_run]))(
                MS["implicit-euler"], field, y0, h, 50)
        return info.value.partial, field, y0, h
    if kind == "hessian":
        B = np.array(draw(st.lists(unit, min_size=16, max_size=16))).reshape(4, 4)
        field = LinearHamiltonian.from_hessian(B @ B.T + 0.5 * np.eye(4))
    else:
        field = sho(draw(st.floats(0.5, 2.0)))
    y0 = np.array([draw(unit) for _ in range(field.dim)])
    if not np.any(y0):
        y0[0] = 1.0
    if kind == "overflow":
        # explicit Euler grows |y| by sqrt(1 + (omega h)^2) >= sqrt(5) per
        # step: from |y0| = 1 past the float range within 900 steps, then
        # inf - inf = nan
        a = draw(st.floats(0.0, 2 * np.pi))
        y0 = np.array([np.cos(a), np.sin(a)])
        scheme, h, steps = MS["explicit-euler"], draw(st.floats(4.0, 8.0)), 1500
    else:
        name = draw(st.sampled_from(["leapfrog", "ab4", "m1-corrected", "pc-m2",
                                     "m3-line1,m3b-corrected"]))
        scheme, h = resolve_scheme(name), draw(st.floats(0.01, 0.3))
        steps = draw(st.integers(scheme.k, 3 * _BLOCK))
    starter = draw(st.sampled_from(STARTERS))
    traj = integrate(scheme, field, y0, h, steps, starter=starter)
    if kind == "overflow":
        assert np.isinf(traj.states).any() and np.isnan(traj.states).any()
    return traj, field, y0, h


@given(linear_runs(), st.data())
@settings(max_examples=80, deadline=None)
def test_property_error_rows_equal_the_full_channel(run, data):
    traj, field, y0, h = run
    full = _full_error_channel(field, y0, h, traj.states)
    last = traj.steps - 1
    stride = data.draw(st.integers(1, traj.steps))
    picked = data.draw(st.lists(st.integers(0, last), max_size=20))
    for rows in (np.arange(0, traj.steps, stride), np.array(picked, dtype=int),
                 np.array([last])):
        assert np.array_equal(traj.error_at(rows), full[rows], equal_nan=True)
    assert np.array_equal(traj.error_at(np.arange(traj.steps)), full, equal_nan=True)
    assert np.array_equal(traj.final_error, full[-1], equal_nan=True)


def test_nonlinear_field_uses_generic_path():
    field = pendulum()
    traj = integrate(MS["leapfrog"], field, np.array([0.5, 0.0]), 0.05, 200)
    assert traj.error_at is None
    H = traj.energies
    assert np.max(np.abs(H - H[0])) < 1e-3


def test_divergent_implicit_solve_reports_step_failure():
    # the pendulum cut off past |q| = 1.5: from p0 = 10 every solution of
    # the implicit-Euler relation q1 + h^2 sin(q1) = q0 + h p0 lies past the cut
    def grad(y):
        if abs(y[0]) > 1.5:
            return np.full(2, np.nan)
        return np.array([np.sin(y[0]), y[1]])

    field = GradientField(1, hamiltonian_fn=lambda y: 0.0, gradient_fn=grad)
    with pytest.raises(StepFailure) as info:
        integrate(MS["implicit-euler"], field, np.array([1.0, 10.0]), 1.0, 10)
    exc = info.value
    assert exc.step == 1
    assert isinstance(exc.cause, ConvergenceError)
    assert exc.partial.steps == 1
    assert np.allclose(exc.partial.states[0], [1.0, 10.0])


def test_step_failure_holds_only_its_partial_run():
    # implicit Euler's Newton matrix on the saddle H = (p^2 - q^2) / 2 is
    # singular at h = 1, so step 1 fails (ConvergenceError from LinAlgError);
    # once the failure's own traceback is cleared it must hold its 1-row
    # partial run, not the (10^6, 2) array the loop allocated (16 MB)
    field = GradientField(
        1,
        hamiltonian_fn=lambda y: 0.5 * (y[1] ** 2 - y[0] ** 2),
        gradient_fn=lambda y: np.array([-y[0], y[1]]),
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            integrate(MS["implicit-euler"], field, np.array([1.0, 0.5]), 1.0, 10**6)
        except StepFailure as exc:
            failure = exc.with_traceback(None)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert failure.step == 1 and failure.partial.steps == 1
    assert isinstance(failure.cause, ConvergenceError)
    assert isinstance(failure.cause.__cause__, np.linalg.LinAlgError)
    assert held < 2**20


@pytest.mark.parametrize("name, h, steps", [
    ("implicit-euler", 50.0, 10),
    ("midpoint", 2.0, 125),
])
@pytest.mark.parametrize("q0", [0.6, 1.0, 1.4, 1.8])
def test_large_implicit_steps_on_pendulum_succeed(name, h, steps, q0):
    # fixed-point iteration failed at step 1 on all of these
    field = pendulum()
    y = integrate(MS[name], field, np.array([q0, 0.0]), h, steps).states
    assert len(y) == steps and np.all(np.isfinite(y))
    for j in range(1, steps):
        r = step_residual(MS[name], field, y[j - 1 : j + 1], h)
        assert r < 1e-12 * (1.0 + np.linalg.norm(y[j]))


# final states of fixed-point iteration to the same tolerance, from q0 = 1
# (am4: 0.9) with p0 = 0
FIXED_POINT_FINAL = {
    ("midpoint", 0.1, 500): (-0.9398840961329165, -0.31489777201501357),
    ("midpoint", 1.0, 125): (-0.9983902274848493, -0.05188264018453259),
    ("am4", 0.1, 200): (0.8990460687297424, -0.03871663996622283),
    ("implicit-euler", 0.1, 200): (0.3476403616990484, -0.15964540760512688),
}


@pytest.mark.parametrize("name, h, steps", sorted(FIXED_POINT_FINAL))
def test_newton_matches_fixed_point_final_states(name, h, steps):
    q0 = 0.9 if name == "am4" else 1.0
    traj = integrate(MS[name], pendulum(), np.array([q0, 0.0]), h, steps)
    want = np.array(FIXED_POINT_FINAL[name, h, steps])
    assert np.linalg.norm(traj.states[-1] - want) <= 1e-10 * np.linalg.norm(want)


def counting_pendulum():
    """The pendulum with a count of gradient calls in `calls[0]`."""
    calls = [0]

    def grad(y):
        calls[0] += 1
        return np.array([np.sin(y[0]), y[1]])

    field = GradientField(1, hamiltonian_fn=lambda y: 0.5 * y[1] ** 2 - np.cos(y[0]),
                          gradient_fn=grad)
    return field, calls


def test_newton_reruns_are_bit_identical():
    # the Newton matrix lives in the stepper of one run: runs in between
    # change neither the states nor the work of the next run.  The first of
    # them starts where the next run does, so its matrix would suit that run.
    field, calls = counting_pendulum()
    y0, h = np.array([1.2, 0.1]), 0.5

    def run():
        calls[0] = 0
        return integrate(MS["midpoint"], field, y0, h, 200).states, calls[0]

    stiff = GradientField(1, hamiltonian_fn=lambda y: 0.0,
                          gradient_fn=lambda y: np.array([25 * np.sin(y[0]), y[1]]))
    states, count = run()
    for other, start, h_other, steps in ((field, y0, h, 2),
                                         (field, (-0.4, 0.8), 1.0, 50),
                                         (stiff, (0.3, 0.0), 0.1, 50)):
        integrate(MS["midpoint"], other, np.array(start), h_other, steps)
        again, again_count = run()
        assert np.array_equal(again, states)
        assert again_count == count


def test_newton_matrix_is_kept_across_steps():
    field, calls = counting_pendulum()
    steps = 101
    integrate(MS["midpoint"], field, Y0, 0.1, steps)
    # a fresh central-difference Jacobian costs 4 calls, about 8.7 per step
    # with its iterations; kept across steps it is about 5.6
    assert calls[0] / (steps - 1) < 7


@pytest.mark.parametrize("name, h, limit", [
    ("implicit-euler", 1.0, 6.5),
    ("midpoint", 2.0, 14.5),
])
def test_newton_refreshes_a_slowly_contracting_matrix(name, h, limit):
    # a stale matrix is refreshed once an increment exceeds a quarter of the
    # previous one; refreshing only past a half let these runs take 8.6 and
    # 16.8 gradient calls per step
    field, calls = counting_pendulum()
    steps = 125
    per_step = []
    for q0 in (0.6, 1.0, 1.4, 1.8):
        calls[0] = 0
        integrate(MS[name], field, np.array([q0, 0.0]), h, steps)
        per_step.append(calls[0] / (steps - 1))
    assert np.mean(per_step) <= limit


def reference_stepper(m):
    """The stepper as it was before its compiled residual: the kernel
    `_relation` on the slots (r, c_1 .. c_n, z), with |z| read at every
    Newton iteration.  Kept as the reference the residual must match."""
    k, a_k = m.k, float(m.alpha[m.k])
    lead_beta = float(m.effective_beta()[k])
    alpha, legs = integrators._compile(m)
    reaching = [leg for leg in legs if leg[1][-1][0] == k]
    known = (alpha[:-1], [leg for leg in legs if leg not in reaching])
    last = len(reaching) + 1
    solve = ([(0, 1.0), (last, a_k)], [
        (w, ([(i, 1.0)] if len(terms) > 1 else []) + [(last, terms[-1][1])])
        for i, (w, terms) in enumerate(reaching, 1)
    ])
    inverse = None

    def newton(G, z):
        nonlocal inverse
        previous = np.inf
        for _ in range(integrators.NEWTON_MAX_ITERATIONS):
            g = G(z)
            if inverse is None:
                try:
                    inverse = np.linalg.inv(numerical_jacobian(G, z))
                except ValueError as exc:
                    raise ConvergenceError(f"no usable Newton matrix: {exc}") from exc
            dz = inverse @ g
            size = np.sqrt(dz @ dz)
            if not np.isfinite(size):
                raise ConvergenceError("Newton iteration diverged (non-finite)")
            z = z - dz
            if size <= 0.5 * integrators.NEWTON_TOLERANCE * (1.0 + np.sqrt(z @ z)):
                return z
            if size > 0.25 * previous:
                inverse = None
            previous = size
        raise ConvergenceError(
            f"no convergence in {integrators.NEWTON_MAX_ITERATIONS} Newton iterations"
        )

    def advance(field, ys, fs, h):
        slots = [integrators._relation(known, field, ys, h, fs)]
        if not reaching:
            return slots[0] / -a_k
        slots += [integrators._comb(terms[:-1], ys) for _, terms in reaching]
        if isinstance(field, LinearHamiltonian):
            rhs = -integrators._relation(solve, field, slots + [np.zeros_like(ys[-1])], h)
            return integrators._linear_lead_solve(a_k, lead_beta, field.A, h, rhs)
        return newton(lambda z: integrators._relation(solve, field, slots + [z], h),
                      ys[-1])

    return advance


@st.composite
def dot_operands(draw):
    """(M, v): a (d, d) matrix and a d-vector of float64, d = 2..8, with
    entries x 2^e, |x| <= 1 and |e| <= 500."""
    d = draw(st.integers(2, 8))
    entries = st.lists(st.builds(math.ldexp, st.floats(-1, 1), st.integers(-500, 500)),
                       min_size=d * d + d, max_size=d * d + d)
    x = np.array(draw(entries))
    return x[: d * d].reshape(d, d), x[d * d :]


@given(dot_operands())
@settings(max_examples=300, deadline=None)
def test_property_dot_has_the_bits_of_matmul(operands):
    # Newton forms inverse g and its squared norms with ndarray.dot, for
    # the bits of `@` (the reference stepper's) with less dispatch
    M, v = operands
    assert M.dot(v).tobytes() == (M @ v).tobytes()
    assert np.float64(v.dot(v)).tobytes() == np.float64(v @ v).tobytes()


def gamma_scheme(name, *rows):
    """k = 1, alpha (-1, 1), beta (1/2, 1/2) with the given gamma rows."""
    return MethodSpec(name, 1, (F(-1), F(1)), (F(1, 2), F(1, 2)), "generalized",
                      tuple(tuple(F(c) for c in row) for row in rows))


# every scheme whose step solves for z_k: a one-leg gamma scheme, and one
# with two legs reaching z_k, the second with no known part
IMPLICIT_SCHEMES = {n: m for n, m in MS.items() if not m.explicit} | {
    "gamma-one-leg": gamma_scheme("gamma-one-leg", ("1/2", "1/2"), ("1/2", "1/2")),
    "gamma-two-legs": gamma_scheme("gamma-two-legs", ("1/3", "2/3"), (0, 1)),
}


def counting_quartic():
    """A 2-DOF field, H = |p|^2/2 + (q1^4 + q2^4)/4 + q1^2 q2^2/2 + q1 q2,
    with a count of gradient calls in `calls[0]`."""
    calls = [0]

    def grad(y):
        calls[0] += 1
        q1, q2 = y[0], y[1]
        return np.array([q1 ** 3 + q1 * q2 * q2 + q2, q2 ** 3 + q1 * q1 * q2 + q1,
                         y[2], y[3]])

    return GradientField(2, hamiltonian_fn=lambda y: 0.0, gradient_fn=grad), calls


def same_bits(a, b):
    """a and b hold the same floats bit for bit, NaN signs and payloads aside."""
    a, b = a.copy(), b.copy()
    a[np.isnan(a)] = b[np.isnan(b)] = np.nan
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def run_outcome(scheme, counting_field, y0, h, steps=120):
    """(states, gradient calls, failing step, failure message) of one run."""
    field, calls = counting_field()
    with np.errstate(all="ignore"):
        try:
            states, failure = integrate(scheme, field, np.array(y0), h, steps).states, None
        except StepFailure as exc:
            states, failure = exc.partial.states, (exc.step, type(exc.cause), str(exc.cause))
    return states, calls[0], failure


RESIDUAL_RUNS = [  # field, y0
    (counting_pendulum, (1.0, 0.0)),
    (counting_pendulum, (3.0, 1.5)),
    (counting_quartic, (1.0, -0.5, 0.2, 0.3)),
    (counting_quartic, (4.0, 3.0, -2.0, 1.0)),
]


@pytest.mark.parametrize("h", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("name", sorted(IMPLICIT_SCHEMES))
def test_residual_takes_the_reference_steps(monkeypatch, name, h):
    scheme = IMPLICIT_SCHEMES[name]
    new = [run_outcome(scheme, *run, h) for run in RESIDUAL_RUNS]
    monkeypatch.setattr(integrators, "_stepper", reference_stepper)
    old = [run_outcome(scheme, *run, h) for run in RESIDUAL_RUNS]
    for (states, calls, failure), (ref_states, ref_calls, ref_failure) in zip(new, old):
        assert same_bits(states, ref_states)
        assert calls == ref_calls
        assert failure == ref_failure


def test_residual_fails_at_the_reference_step(monkeypatch):
    # am4 on the quartic from a large state stops converging mid-run
    run = (MS["am4"], counting_quartic, (4.0, 3.0, -2.0, 1.0), 0.3)
    states, calls, failure = run_outcome(*run)
    assert failure == (34, ConvergenceError, "no convergence in 50 Newton iterations")
    monkeypatch.setattr(integrators, "_stepper", reference_stepper)
    ref_states, ref_calls, ref_failure = run_outcome(*run)
    assert failure == ref_failure and calls == ref_calls
    assert same_bits(states, ref_states)


@pytest.mark.parametrize("name", sorted(IMPLICIT_SCHEMES))
def test_residual_gives_the_reference_window_matrix(monkeypatch, name):
    field = LinearHamiltonian.from_hessian(
        [[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.2], [0.1, 0.0, 0.2, 1.5]])
    new = window_matrix(IMPLICIT_SCHEMES[name], field, 0.3)
    monkeypatch.setattr(integrators, "_stepper", reference_stepper)
    assert np.array_equal(new, window_matrix(IMPLICIT_SCHEMES[name], field, 0.3))


def pendulum_schemes():
    """Every explicit registry method, pc-m2 (PECE) and both m3 pairs, each
    also reversed (`,swap`)."""
    schemes = {n: m for n, m in MS.items() if m.explicit}
    schemes["pc-m2"] = resolve_scheme("pc-m2")
    for name in ("m3-line1,m3b-corrected", "m3-line1,m3-line2-as-printed"):
        pair = resolve_scheme(name)
        schemes[name] = pair
        schemes[name + ",swap"] = PartitionedPair(
            pair.name, pair.second, pair.first
        )
    return schemes


F_EVALS = {name: 1.0 for name in pendulum_schemes()} | {"pc-m2": 2.0}


@pytest.mark.parametrize("name", sorted(F_EVALS) + ["am4"])
def test_f_evaluations_per_step_on_pendulum(name):
    # a window state's f is evaluated once, on the first step that reads it
    scheme = {**pendulum_schemes(), "am4": MS["am4"]}[name]
    field, calls = counting_pendulum()
    steps = 2000
    integrate(scheme, field, np.array([1.0, 0.0]), 0.05, steps)
    starter = 4 * (scheme.k - 1)  # rk4, four calls per starter state
    per_step = (calls[0] - starter) / (steps - scheme.k)
    if name == "am4":
        # Newton iterations and Jacobians come on top; evaluating every
        # window f anew on each step took 7.7
        assert per_step < 6
    else:
        assert per_step == pytest.approx(F_EVALS[name], abs=0.01)


@pytest.mark.parametrize("name", sorted(pendulum_schemes()))
def test_f_window_changes_no_number(name):
    # the loop reuses each window f across steps; a single step evaluates
    # them afresh, and both must give the same state bit for bit
    scheme = pendulum_schemes()[name]
    k, h = scheme.k, 0.05
    states = integrate(scheme, pendulum(), np.array([1.0, 0.0]), h, 300).states
    for j in range(k, len(states)):
        assert np.array_equal(states[j], step(scheme, pendulum(), states[j - k:j], h))


@pytest.mark.parametrize("generic", [False, True])
def test_singular_implicit_step_reports_step_failure(generic):
    # on diag(-1, 1), A = [[0, 1], [1, 0]], so I - hA is exactly singular at h = 1
    field = LinearHamiltonian.from_hessian(np.diag([-1.0, 1.0]))
    m = MS["implicit-euler"]
    with pytest.raises(StepFailure) as info:
        (generic_run if generic else integrate)(m, field, Y0, 1.0, 10)
    exc = info.value
    assert exc.step == m.k
    assert isinstance(exc.cause, SingularStepError)
    assert str(exc.cause) == "alpha_k I - h beta_k A is singular at h = 1.0"
    assert exc.partial.steps == m.k


def test_window_matrix_euler_and_leapfrog():
    M = window_matrix(MS["explicit-euler"], FIELD, 0.1)
    assert np.allclose(M, np.eye(2) + 0.1 * FIELD.A)
    assert np.linalg.det(M) == pytest.approx(1.01, abs=1e-14)
    # re-substitution oracle on random windows
    rng = np.random.default_rng(3)
    M2 = window_matrix(MS["leapfrog"], FIELD, 0.1)
    for _ in range(5):
        w = [rng.normal(size=2), rng.normal(size=2)]
        stepped = step(MS["leapfrog"], FIELD, w, 0.1)
        out = M2 @ np.concatenate(w)
        assert np.allclose(out, np.concatenate([w[1], stepped]), atol=1e-12)


def test_window_matrix_midpoint_has_unit_determinant():
    M = window_matrix(MS["midpoint"], FIELD, 0.1)
    assert abs(np.linalg.det(M) - 1.0) < 1e-14


def test_numerical_jacobian_of_a_linear_map_is_its_matrix():
    M = window_matrix(MS["explicit-euler"], FIELD, 0.1)
    fd = numerical_jacobian(lambda y: M @ y, np.array([0.4, -0.3]))
    assert np.allclose(fd, M, atol=1e-6)


def test_numerical_jacobian_rejects_non_finite_maps():
    with pytest.raises(ValueError, match="non-finite"):
        numerical_jacobian(lambda y: np.full(2, np.inf), np.array([1.0, 1.0]))
