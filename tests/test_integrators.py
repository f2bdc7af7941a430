"""Stepping: single steps, implicit solves, pairs, fast path, failures."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from geostep import integrators
from geostep.cli import build_parser
from geostep.experiments import Scenario, builtin_scenarios, classify, resolve_scheme
from geostep.methods import MethodError, MethodSpec, builtin_methods
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
    pad_method,
    rk4_start,
    step,
    step_residual,
    window_matrix,
)
from geostep.systems import GradientField, LinearHamiltonian, sho, sho_exact

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
    t1 = integrate(MS["midpoint"], FIELD, Y0, 0.1, 200, force_generic=True)
    t2 = integrate(lmm_twin, FIELD, Y0, 0.1, 200, force_generic=True)
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
        return traj.errors[-1]

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
    pair = PartitionedPair("m3", MS["m3-line1"], MS["m3b-corrected"])
    swapped = PartitionedPair("m3s", MS["m3-line1"], MS["m3b-corrected"], swap=True)
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
    swapped = PartitionedPair("m3", MS["m3-line1"], MS["m3b-corrected"], swap=True)
    assert [(r, m.name) for r, m in swapped.members] == [
        ("momenta", "m3-line1"), ("positions", "m3b-corrected"),
    ]


# ---------------------------------------------------------------------------
# integrate driver


def test_steps_equal_k_returns_starter_only():
    m = MS["ab4"]
    starter = rk4_start(FIELD, Y0, 0.1, m.k - 1)
    for force_generic in (False, True):
        traj = integrate(m, FIELD, Y0, 0.1, m.k, force_generic=force_generic)
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
    assert np.allclose(traj.times, 0.1 * np.arange(25))
    assert traj.energies.shape == (25,)
    assert traj.errors.shape == (25,)
    assert traj.errors[0] == 0.0
    assert traj.start_count == 2


def test_exact_starter_rows_have_zero_error():
    traj = integrate(MS["ab4"], FIELD, Y0, 0.1, 10, starter="exact")
    assert np.max(traj.errors[: 4]) < 1e-14


@pytest.mark.parametrize("name", ["leapfrog", "midpoint", "ab4", "am4", "m3-line1"])
def test_fast_path_agrees_with_generic(name):
    m = MS[name]
    fast = integrate(m, FIELD, Y0, 0.1, 300)
    slow = integrate(m, FIELD, Y0, 0.1, 300, force_generic=True)
    assert np.max(np.abs(fast.states - slow.states)) < 1e-12


def test_fast_path_agrees_for_pairs():
    pair = PCPair("pc", MS["ab4"], MS["am4"])
    part = PartitionedPair("m3", MS["m3-line1"], MS["m3b-corrected"])
    for scheme in (pair, part):
        fast = integrate(scheme, FIELD, Y0, 0.1, 300)
        slow = integrate(scheme, FIELD, Y0, 0.1, 300, force_generic=True)
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
    slow = integrate(scheme, FIELD2, Y02, 0.1, steps, force_generic=True)
    assert fast.steps == slow.steps == steps
    assert np.max(np.abs(fast.states - slow.states)) < 1e-12


def test_blocked_path_with_short_blocks_on_large_systems(monkeypatch):
    # a row budget of three states per product, fewer than the window's k = 4
    scheme = BLOCKED_SCHEMES["lmm"]
    d = FIELD2.dim
    monkeypatch.setattr(integrators, "_ROW_FLOATS", 3 * d * scheme.k * d)
    fast = integrate(scheme, FIELD2, Y02, 0.1, 50)
    slow = integrate(scheme, FIELD2, Y02, 0.1, 50, force_generic=True)
    assert np.max(np.abs(fast.states - slow.states)) < 1e-12


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
        got = integrators._power_rows(M, Y, count, tail)
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
    assert np.array_equal(integrators._power_rows(M, Y, count, tail),
                          _power_rows_per_block(M, Y, count, tail))


def test_blocked_pc_m2_matches_generic_over_long_run():
    # the PECE window matrix is non-normal, so powers of it are the
    # worst case for roundoff growth in the stacked rows
    M = window_matrix(resolve_scheme("pc-m2"), FIELD, 0.1)
    assert np.linalg.norm(M @ M.T - M.T @ M) > 1e-3
    fast = integrate(resolve_scheme("pc-m2"), FIELD, Y0, 0.1, 10**5)
    slow = integrate(resolve_scheme("pc-m2"), FIELD, Y0, 0.1, 10**5,
                     force_generic=True)
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
    slow = integrate(scheme, FIELD, y0, s.h, short, force_generic=True)
    crossing = classify(fast)[4]
    assert crossing is not None and crossing == classify(slow)[4]


def test_exact_channel_on_general_field_matches_matrix_exponential():
    h, steps = 0.05, 2 * _BLOCK + 3
    traj = integrate(MS["leapfrog"], FIELD2, Y02, h, steps)
    for j in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, steps - 1):
        exact = expm(j * h * FIELD2.A) @ Y02
        assert traj.errors[j] == pytest.approx(
            np.linalg.norm(traj.states[j] - exact), abs=1e-12
        )


def _full_error_channel(field, y0, h, states):
    """|y_j - exact flow at t_j| over every row at once."""
    steps = len(states)
    if integrators._is_sho(field):
        exact = sho_exact(float(np.sqrt(field.S[0, 0])), y0, h * np.arange(steps))
    else:
        exact = integrators._power_rows(expm(h * field.A), y0, steps, 0)
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
            integrate(MS["implicit-euler"], field, y0, h, 50,
                      force_generic=draw(st.booleans()))
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
    assert np.array_equal(traj.errors, full, equal_nan=True)
    assert np.array_equal(traj.final_error, full[-1], equal_nan=True)


def test_nonlinear_field_uses_generic_path():
    field = pendulum()
    traj = integrate(MS["leapfrog"], field, np.array([0.5, 0.0]), 0.05, 200)
    assert traj.errors is None
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


def pendulum_schemes():
    """Every explicit registry method, pc-m2 (PECE) and both m3 pairs, with
    and without `swap`."""
    schemes = {n: m for n, m in MS.items() if m.explicit}
    schemes["pc-m2"] = resolve_scheme("pc-m2")
    for name in ("m3-line1,m3b-corrected", "m3-line1,m3-line2-as-printed"):
        pair = resolve_scheme(name)
        schemes[name] = pair
        schemes[name + ",swap"] = PartitionedPair(
            pair.name, pair.first, pair.second, swap=True
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
    states = integrate(scheme, pendulum(), np.array([1.0, 0.0]), h, 300,
                       force_generic=True).states
    for j in range(k, len(states)):
        assert np.array_equal(states[j], step(scheme, pendulum(), states[j - k:j], h))


@pytest.mark.parametrize("force_generic", [False, True])
def test_singular_implicit_step_reports_step_failure(force_generic):
    # on diag(-1, 1), A = [[0, 1], [1, 0]], so I - hA is exactly singular at h = 1
    field = LinearHamiltonian.from_hessian(np.diag([-1.0, 1.0]))
    m = MS["implicit-euler"]
    with pytest.raises(StepFailure) as info:
        integrate(m, field, Y0, 1.0, 10, force_generic=force_generic)
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
