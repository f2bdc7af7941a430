"""Structural diagnostics: transfer maps, pairing defects, reversibility."""
import numpy as np
import pytest

from geostep.experiments import classify, resolve_scheme
from geostep.methods import (
    REGISTRY_NAMES,
    MethodSpec,
    builtin_methods,
    is_irreducible,
    is_symmetric,
    parse_method,
)
from geostep.integrators import (
    PCPair,
    PartitionedPair,
    Trajectory,
    _step_rows,
    integrate,
    numerical_jacobian,
    rk4_start,
    step,
)
from geostep.geometry import (
    area_defect,
    g_symplecticity_defect,
    reversibility_residual,
    step_transition,
    transfer_matrix,
)
from geostep.systems import LinearHamiltonian, sho, sho_exact, structure_matrix

from fractions import Fraction as F

MS = builtin_methods()
FIELD = sho(1.0)
Y0 = np.array([1.0, 0.0])
J = structure_matrix(1)


# ---------------------------------------------------------------------------
# transfer matrices


def test_transfer_matrix_euler_example():
    M = transfer_matrix(MS["explicit-euler"], FIELD, 0.1)
    assert np.allclose(M, np.eye(2) + 0.1 * FIELD.A)
    assert np.linalg.det(M) == pytest.approx(1.01, abs=1e-14)
    assert M.shape == (MS["explicit-euler"].k * FIELD.dim,) * 2 == (2, 2)


# every scheme kind: registry methods (pc-m2 and the m3 pair among them), a
# padded PC pair, the reversed partition and a method file with gamma rows
WINDOW_SCHEMES = {
    **{name: resolve_scheme(name) for name in REGISTRY_NAMES},
    "m3-line1,m3b-corrected-swap": PartitionedPair(
        "m3s", MS["m3b-corrected"], MS["m3-line1"]
    ),
    "explicit-euler,am4-pc": PCPair("ee-am4", MS["explicit-euler"], MS["am4"]),
    "gamma-file": parse_method(
        "name: gam2\nk: 2\nalpha: -1 0 1\nbeta: 0 2 0\nkind: generalized\n"
        "gamma:\n1 0 0\n1/4 1/2 1/4\n0 0 1\n"
    ),
}
# a coupled 2-DOF field, so both halves of a partitioned step see both
FIELD2 = LinearHamiltonian.from_hessian(np.array([
    [2.0, 0.5, 0.1, 0.0],
    [0.5, 3.0, 0.0, 0.2],
    [0.1, 0.0, 1.0, 0.3],
    [0.0, 0.2, 0.3, 1.5],
]))


@pytest.mark.parametrize("name", sorted(WINDOW_SCHEMES))
def test_transfer_matrix_reproduces_stepping_on_exact_windows(name):
    scheme = WINDOW_SCHEMES[name]
    M = transfer_matrix(scheme, FIELD2, 0.1)
    assert M.shape == (scheme.k * FIELD2.dim,) * 2
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = list(rng.normal(size=(scheme.k, FIELD2.dim)))
        out = M @ np.concatenate(w)
        want = np.concatenate(w[1:] + [step(scheme, FIELD2, w, 0.1)])
        assert np.max(np.abs(out - want)) <= 1e-14


def test_transfer_matrix_block_companion_shape():
    M = transfer_matrix(MS["ab4"], FIELD, 0.1)
    k, d = MS["ab4"].k, FIELD.dim
    assert (k, d) == (4, 2)
    assert M.shape == (k * d, k * d)
    top = M[: (k - 1) * d, :]
    assert np.array_equal(top[:, :d], np.zeros(((k - 1) * d, d)))
    assert np.array_equal(top[:, d:], np.eye((k - 1) * d))


# ---------------------------------------------------------------------------
# pairing conservation


@pytest.mark.parametrize("name", ["leapfrog", "m3-line1"])
@pytest.mark.parametrize("h", [0.05, 0.1])
def test_symmetric_irreducible_methods_conserve_pairing(name, h):
    rep = g_symplecticity_defect(MS[name], FIELD, h)
    assert rep.defect <= 1e-12
    assert area_defect(rep.M) <= 1e-12


def test_pairing_conservation_across_frequencies():
    for name in ("leapfrog", "midpoint", "m1-corrected", "m3-line1", "m1-as-printed"):
        m = MS[name]
        if not (is_symmetric(m) and is_irreducible(m)):
            continue
        for omega in (0.5, 1.0, 2.0):
            for h in (0.05, 0.1, 0.4):
                if h * omega >= 1.0:
                    continue
                rep = g_symplecticity_defect(m, sho(omega), h)
                assert rep.defect <= 1e-10, (name, omega, h)


def test_euler_pairing_defect_is_h_squared():
    rep = g_symplecticity_defect(MS["explicit-euler"], FIELD, 0.1)
    assert rep.defect == pytest.approx(0.01, rel=1e-9)
    assert "pairing vanished" in rep.structure_matrix
    assert area_defect(rep.M) == pytest.approx(0.01, abs=1e-12)


def test_window_quadratic_form_is_conserved_along_trajectories():
    # the literal quadratic form of a skew pairing, and the bilinear form of
    # two independently propagated windows; both must stay put over 1e4 steps
    for name in ("leapfrog", "m3-line1"):
        m = MS[name]
        rep = g_symplecticity_defect(m, FIELD, 0.1)
        K, M = rep.K, rep.M
        rng = np.random.default_rng(11)
        U = rng.normal(size=K.shape[0])
        V = rng.normal(size=K.shape[0])
        quad0 = U @ K @ U
        bil0 = U @ K @ V
        assert abs(quad0) < 1e-12  # skew form: identically zero
        assert abs(bil0) > 1e-3
        worst_quad = 0.0
        worst_bil = 0.0
        for _ in range(10_000):
            U = M @ U
            V = M @ V
            worst_quad = max(worst_quad, abs(U @ K @ U))
            worst_bil = max(worst_bil, abs(U @ K @ V - bil0))
        assert worst_quad <= 1e-9 * abs(bil0)
        assert worst_bil <= 1e-9 * abs(bil0)


# ---------------------------------------------------------------------------
# area


def test_area_defect_examples():
    assert area_defect(np.eye(2)) == 0.0
    M = transfer_matrix(MS["explicit-euler"], FIELD, 0.1)
    assert area_defect(M) == pytest.approx(0.01, abs=1e-10)
    Mmid = transfer_matrix(MS["midpoint"], FIELD, 0.1)
    assert area_defect(Mmid) <= 1e-12


def test_area_defect_of_finite_difference_jacobian_matches_matrix():
    M = transfer_matrix(MS["explicit-euler"], FIELD, 0.1)
    fd = numerical_jacobian(lambda y: M @ y, np.array([0.4, -0.3]))
    assert area_defect(fd) == pytest.approx(area_defect(M), abs=1e-6)


def test_area_defect_nonlinear_midpoint_map():
    # implicit midpoint is area-preserving on nonlinear fields too
    from geostep.systems import GradientField

    field = GradientField(
        1,
        hamiltonian_fn=lambda y: 0.5 * y[1] ** 2 - np.cos(y[0]),
        gradient_fn=lambda y: np.array([np.sin(y[0]), y[1]]),
    )
    one_step = lambda y: step(MS["midpoint"], field, [y], 0.1)
    y = np.array([0.8, 0.2])
    assert area_defect(numerical_jacobian(one_step, y)) < 1e-6


# ---------------------------------------------------------------------------
# step transition


def test_step_transition_midpoint_is_cayley():
    st = step_transition(MS["midpoint"], FIELD, 0.1)
    C = np.linalg.solve(
        np.eye(2) - 0.05 * FIELD.A, np.eye(2) + 0.05 * FIELD.A
    )
    assert np.allclose(st.G, C, atol=1e-12)
    assert np.max(np.abs(st.G.T @ J @ st.G - J)) <= 1e-12
    assert st.residual <= 1e-10


def test_step_transition_leapfrog_unit_roots():
    st = step_transition(MS["leapfrog"], FIELD, 0.1)
    assert len(st.principal_roots) == 2
    for z in st.principal_roots:
        assert abs(abs(z) - 1.0) <= 1e-12
    # zeta^2 - 1 = 2 h lam zeta at lam = +/- i: zeta = i h +/- sqrt(1 - h^2)
    expected = 0.1j + np.sqrt(1 - 0.01)
    assert min(
        abs(z - expected) for z in st.principal_roots
    ) <= 1e-12


@pytest.mark.parametrize("name", sorted(MS))
def test_step_transition_residual_small_for_builtins(name):
    st = step_transition(MS[name], FIELD, 0.1)
    assert st.residual <= 1e-10


def test_step_transition_orbit_satisfies_relation():
    m = MS["ab4"]
    st = step_transition(m, FIELD, 0.1)
    a = [float(c) for c in m.alpha]
    b = [float(c) for c in m.beta]
    ys = [np.linalg.matrix_power(st.G, j) @ Y0 for j in range(100 + m.k + 1)]
    for n in range(100):
        r = sum(
            a[j] * ys[n + j] - 0.1 * b[j] * (FIELD.A @ ys[n + j])
            for j in range(m.k + 1)
        )
        assert np.linalg.norm(r) <= 1e-10


def test_step_transition_ab4_breaks_area():
    st = step_transition(MS["ab4"], FIELD, 0.1)
    defect = abs(abs(np.linalg.det(st.G)) - 1.0)
    assert defect == pytest.approx(1.0775e-6, rel=0.01)


def test_step_transition_ambiguous_root_raises():
    # two real rho-roots placed symmetrically about cos(h) are equidistant
    # from the target exp(i h), so no principal root is selectable
    a1 = F(-2.0 * np.cos(0.1))
    a0 = F(float(np.cos(0.1) ** 2 - 0.25))
    m = MethodSpec("tie", 2, (a0, a1, F(1)), (F(0), F(0), F(0)))
    with pytest.raises(ValueError, match="ambiguous"):
        step_transition(m, FIELD, 0.1)


def test_step_transition_rejects_defective_field():
    # A = J S = [[1, 1], [-1, -1]]: nilpotent, defective
    field = LinearHamiltonian.from_hessian([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="condition"):
        step_transition(MS["midpoint"], field, 0.1)


# ---------------------------------------------------------------------------
# reversibility


@pytest.mark.parametrize(
    "name", ["leapfrog", "m3-line1", "m1-corrected", "m1-as-printed", "midpoint"]
)
def test_symmetric_methods_are_time_reversible(name):
    m = MS[name]
    traj = integrate(m, FIELD, Y0, 0.1, m.k + 100)
    res = reversibility_residual(m, FIELD, traj)
    assert res <= 1e-11
    # identity bound, not an approximation
    scale = float(np.max(np.linalg.norm(traj.states, axis=1)))
    assert res <= 10 * m.k * np.finfo(float).eps * max(scale, 1.0)


def test_ab4_reversibility_defect_matches_local_error_scale():
    m = MS["ab4"]
    traj = integrate(m, FIELD, Y0, 0.1, m.k + 100)
    res = reversibility_residual(m, FIELD, traj)
    # h^5-scale defect of the reversed relation, frozen from calibration
    assert res == pytest.approx(3.48e-6, rel=0.05)


def test_reversibility_needs_enough_states():
    m = MS["leapfrog"]
    traj = integrate(m, FIELD, Y0, 0.1, m.k)
    with pytest.raises(ValueError):
        reversibility_residual(m, FIELD, traj)


def test_reversibility_oneleg_branch_runs():
    m = MS["midpoint"]
    states = np.empty((40, 2))
    states[: m.k] = rk4_start(FIELD, Y0, 0.1, m.k - 1)
    for _ in _step_rows(m, FIELD, 0.1, states, 40):
        pass  # one chunk: the whole run, in place
    traj = Trajectory(0.1, states, FIELD.energies(states))
    assert reversibility_residual(m, FIELD, traj) <= 1e-11


def test_reversibility_on_nonlinear_field():
    from geostep.systems import GradientField

    field = GradientField(
        1,
        hamiltonian_fn=lambda y: 0.5 * y[1] ** 2 - np.cos(y[0]),
        gradient_fn=lambda y: np.array([np.sin(y[0]), y[1]]),
    )
    y0 = np.array([0.8, 0.2])
    for name in ("midpoint", "leapfrog"):
        traj = integrate(MS[name], field, y0, 0.1, 60)
        assert reversibility_residual(MS[name], field, traj) <= 1e-12
    traj = integrate(MS["ab4"], field, y0, 0.1, 60)
    assert reversibility_residual(MS["ab4"], field, traj) > 1e-8


# ---------------------------------------------------------------------------
# energy drift, as `classify` measures it


def test_energy_drift_exact_flow_is_flat():
    states = sho_exact(1.0, Y0, 0.1 * np.arange(200))
    traj = integrate(MS["midpoint"], FIELD, Y0, 0.1, 200)
    exact = traj.__class__(
        h=0.1,
        states=states,
        energies=FIELD.energies(states),
        error_at=None,
    )
    label, _, max_dev, slope, _ = classify(exact)
    assert label == "bounded"
    assert max_dev <= 1e-12
    assert abs(slope) <= 1e-13


def test_energy_drift_euler_geometric_growth():
    traj = integrate(MS["explicit-euler"], FIELD, Y0, 0.1, 101)
    _, _, max_dev, slope, crossing = classify(traj)
    assert crossing is None
    expected = (1.01 ** 100 - 1.0) * 0.5
    assert max_dev == pytest.approx(expected, rel=1e-8)
    assert slope > 0


def test_energy_drift_implicit_euler_decays():
    traj = integrate(MS["implicit-euler"], FIELD, Y0, 0.1, 101)
    _, _, max_dev, slope, _ = classify(traj)
    assert slope < 0
    assert max_dev == pytest.approx(0.5 * (1.0 - 1.01 ** -100), rel=1e-8)


def test_energy_drift_constant_sequence_has_zero_slope():
    class Flat:
        h = 0.1
        times = 0.1 * np.arange(50)
        energies = np.full(50, 2.5)
        states = np.ones((50, 2))

    label, _, max_dev, slope, _ = classify(Flat())
    assert label == "bounded"
    assert max_dev == 0.0
    assert abs(slope) < 1e-14
