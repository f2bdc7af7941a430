"""Field construction, canonical structure, exact oscillator flow."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostep.systems import (
    _ENERGY_BLOCK,
    GradientField,
    LinearHamiltonian,
    load_linear_system,
    sho,
    sho_exact,
    structure_matrix,
)


def test_structure_matrix_is_canonical():
    J = structure_matrix(2)
    assert J.shape == (4, 4)
    assert np.array_equal(J, -J.T)
    assert np.array_equal(J @ J, -np.eye(4))


def test_sho_field_matrix():
    field = sho(1.0)
    assert np.allclose(field.A, [[0.0, 1.0], [-1.0, 0.0]])
    field3 = sho(3.0)
    assert np.allclose(field3.A, [[0.0, 1.0], [-9.0, 0.0]])


def test_field_matrix_is_hamiltonian():
    # A = J S satisfies A^T J + J A = 0 for any symmetric S
    rng = np.random.default_rng(7)
    B = rng.normal(size=(4, 4))
    S = B + B.T
    field = LinearHamiltonian.from_hessian(S)
    J = structure_matrix(2)
    assert np.allclose(field.A.T @ J + J @ field.A, 0.0, atol=1e-12)


def test_from_hessian_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LinearHamiltonian.from_hessian(np.eye(3))  # odd dimension
    with pytest.raises(ValueError):
        LinearHamiltonian.from_hessian(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sho_requires_positive_frequency():
    for omega in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            sho(omega)


def test_evaluate_matches_matrix_action():
    field = sho(2.0)
    y = np.array([0.3, -1.2])
    assert np.allclose(field.evaluate(y), field.A @ y)


def test_exact_flow_start_point_and_quarter_period():
    y0 = np.array([1.0, 0.0])
    assert np.allclose(sho_exact(1.0, y0, 0.0), y0)
    # omega=1: at t = pi/2 the state rotates to (0, -1)
    yq = sho_exact(1.0, y0, np.pi / 2)
    assert np.allclose(yq, [0.0, -1.0], atol=1e-15)


def test_exact_flow_vectorized_times():
    y0 = np.array([1.0, 0.0])
    t = np.linspace(0.0, 7.0, 23)
    ys = sho_exact(2.0, y0, t)
    assert ys.shape == (23, 2)
    for i, ti in enumerate(t):
        assert np.allclose(ys[i], sho_exact(2.0, y0, float(ti)))


def test_exact_flow_conserves_energy():
    field = sho(1.7)
    y0 = np.array([0.4, -0.9])
    t = np.linspace(0.0, 20.0, 101)
    ys = sho_exact(1.7, y0, t)
    H = field.energies(ys)
    assert np.max(np.abs(H - H[0])) <= 1e-12


def test_energies_match_scalar_hamiltonian():
    field = sho(1.0)
    states = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    H = field.energies(states)
    assert np.allclose(H, [0.5, 0.5, 0.25])
    assert field.hamiltonian(states[2]) == pytest.approx(0.25)


SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e300]


@st.composite
def hessians_and_states(draw):
    """(S, Y): a symmetric S, definite or indefinite, for n = 1..3, and rows
    on both sides of a block edge, some of them or some of their entries
    special values."""
    n = draw(st.integers(1, 3))
    d = 2 * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((d, d))
    kind = draw(st.sampled_from(["positive", "negative", "indefinite"]))
    S = {"positive": B @ B.T + 0.1 * np.eye(d), "negative": -B @ B.T - np.eye(d),
         "indefinite": B + B.T}[kind]
    if draw(st.booleans()):
        rows = draw(st.integers(1, 40))
    else:
        rows = draw(st.integers(1, 3)) * _ENERGY_BLOCK + draw(st.integers(-2, 2))
    scale = rng.choice([1.0, 1.0, 1.0, 1e-170, 1e160, 1e-300, 1e300], (rows, 1))
    Y = rng.standard_normal((rows, d)) * scale
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, d - 1),
                      st.sampled_from(SPECIAL))
    for i, j, v in draw(st.lists(cells, max_size=30)):
        Y[i, j] = v
    for i, v in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                        st.sampled_from(SPECIAL)), max_size=10)):
        Y[i] = v
    return S, Y


@given(hessians_and_states())
@settings(max_examples=60, deadline=None)
def test_property_energies_equal_einsum(case):
    S, Y = case
    field = LinearHamiltonian.from_hessian(S)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        expected = 0.5 * np.einsum("ij,jk,ik->i", Y, field.S, Y)
        got = field.energies(Y)
    assert np.array_equal(got, expected, equal_nan=True)
    # array_equal takes -0.0 for 0.0: the signs of the zeros agree as well
    zero = expected == 0.0
    assert np.array_equal(np.signbit(got[zero]), np.signbit(expected[zero]))


@pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 3), (5, 2, 1)])
def test_energies_reject_states_of_another_width(shape):
    # a (5, 1) block would otherwise broadcast into both columns
    with pytest.raises(ValueError, match="states must have shape"):
        sho(1.0).energies(np.ones(shape))


def test_gradient_field_wraps_nonlinear_hamiltonian():
    # pendulum: H = p^2/2 - cos q
    field = GradientField(
        1,
        hamiltonian_fn=lambda y: 0.5 * y[1] ** 2 - np.cos(y[0]),
        gradient_fn=lambda y: np.array([np.sin(y[0]), y[1]]),
    )
    y = np.array([0.3, 0.7])
    # y' = (dH/dp, -dH/dq)
    assert np.allclose(field.evaluate(y), [0.7, -np.sin(0.3)])
    assert field.hamiltonian(y) == pytest.approx(0.5 * 0.49 - np.cos(0.3))


def test_load_linear_system(tmp_path):
    path = tmp_path / "hessian.txt"
    path.write_text("# stiff oscillator\n4 0\n0 1\n")
    field = load_linear_system(path)
    assert isinstance(field, LinearHamiltonian)
    assert np.allclose(field.A, [[0.0, 1.0], [-4.0, 0.0]])


def test_load_linear_system_rejects_asymmetric(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n0 1\n")
    with pytest.raises(ValueError):
        load_linear_system(path)
