"""Field construction, canonical structure, exact oscillator flow."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from geostep.systems import (
    _EINSUM_ROWS,
    _energy_rows,
    _ENERGY_BLOCK,
    _expm,
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
    """(S, Y): a symmetric S, definite or indefinite, for n = 1..3, and a
    few rows or rows on both sides of the einsum switch or of a block edge,
    some of them or some of their entries special values."""
    n = draw(st.integers(1, 3))
    d = 2 * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((d, d))
    kind = draw(st.sampled_from(["positive", "negative", "indefinite"]))
    S = {"positive": B @ B.T + 0.1 * np.eye(d), "negative": -B @ B.T - np.eye(d),
         "indefinite": B + B.T}[kind]
    where = draw(st.sampled_from(["few", "switch", "blocks"]))
    if where == "few":
        rows = draw(st.integers(1, 40))
    elif where == "switch":
        rows = _EINSUM_ROWS + draw(st.integers(-2, 2))
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


@pytest.mark.parametrize("n", [1, 2])
def test_energy_rows_of_any_chunk_have_the_bits_of_the_whole_run(n):
    # a streamed run takes its energies chunk by chunk, its last chunk maybe
    # a row or two long, where einsum itself would sum in another order
    rng = np.random.default_rng(n)
    B = rng.standard_normal((2 * n, 2 * n))
    field = LinearHamiltonian.from_hessian(B + B.T)
    Y = rng.standard_normal((_EINSUM_ROWS + 45, 2 * n)) * 10.0 ** rng.integers(
        -3, 4, (_EINSUM_ROWS + 45, 1))
    whole = field.energies(Y)
    chunks = [(a, a + 1) for a in range(len(Y))] + [
        (7, 9), (0, _EINSUM_ROWS - 1), (_EINSUM_ROWS, len(Y)), (0, len(Y))]
    for a, b in chunks:
        got = _energy_rows(field.S, Y[a:b], np.empty(b - a))
        assert got.tobytes() == whole[a:b].tobytes(), (a, b)


def _all_terms(S, Y):
    """y^T S y / 2 of each row over all (2n)^2 terms (y_j S_jk) y_k, summed
    from 0.0 in row-major order: `_energy_rows` before it skipped terms."""
    e = np.zeros(len(Y))
    for j in range(len(S)):
        for k in range(len(S)):
            e += (Y[:, j] * S[j, k]) * Y[:, k]
    return 0.5 * e


def _nan_as_nan(x):
    """x with every NaN as np.nan: its sign may differ (see `_energy_rows`)."""
    x = x.copy()
    x[np.isnan(x)] = np.nan
    return x


@pytest.mark.parametrize("S", [
    np.diag([1.0, 1.0]),
    np.diag([0.0, 1.0]),  # an all-zero row
    np.diag([2.0, -3.0, 0.0, 1.0]),
    np.array([[2, 0.5, 0, 0], [0.5, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]]),
    np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1.0]]),
], ids=["sho", "zero-row", "diagonal-zero-row", "hessian", "off-diagonal-zero-row"])
def test_energy_rows_that_skip_zero_terms_have_the_bits_of_all_terms(S):
    d = len(S)
    rng = np.random.default_rng(d + int(S.sum()))
    rows = (d + 1) * _ENERGY_BLOCK + 5
    Y = rng.standard_normal((rows, d))
    Y[:, 0] *= 10.0 ** rng.integers(-3, 4, rows)
    # finite rows whose terms are zeros of either sign, or overflow
    Y[10] = -0.0
    Y[11, 0] = -0.0
    Y[12] = 1e200
    Y[13, -1] = -1e155
    # inf, -inf and nan on column j alone in block j + 1 (on a zero row's
    # column, only the zero row's kept terms make the block's sum again),
    # and on every column in the last rows
    for i, v in enumerate([np.inf, -np.inf, np.nan]):
        for j in range(d):
            Y[(j + 1) * _ENERGY_BLOCK + 5 + i, j] = v
            Y[rows - 1 - 3 * j - i, j] = v
    with np.errstate(over="ignore", invalid="ignore"):
        want = _all_terms(S, Y)
        for a, b in [(0, rows), (0, _ENERGY_BLOCK), (7, 2 * _ENERGY_BLOCK + 9),
                     (_ENERGY_BLOCK + 1, rows), (12, 14)]:
            got = _energy_rows(S, Y[a:b], np.empty(b - a))
            assert np.array_equal(np.isnan(got), np.isnan(want[a:b]))
            assert _nan_as_nan(got).tobytes() == _nan_as_nan(want[a:b]).tobytes()
    assert want[10] == 0.0 and not np.signbit(want[10])
    assert not np.isfinite(want[12:14]).any()


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


@pytest.mark.parametrize("n, shape", [(1, (2, 1)), (1, ()), (1, (1,)), (1, (3,)),
                                      (1, (1, 2)), (2, (2,)), (2, (2, 2))])
def test_gradient_field_rejects_gradients_of_another_shape(n, shape):
    # a (2, 1) gradient was silently flattened in, a 0-d one raised IndexError
    field = GradientField(n, hamiltonian_fn=lambda y: 0.0,
                          gradient_fn=lambda y: np.ones(shape))
    want = f"the gradient must have shape ({2 * n},), got {shape}"
    with pytest.raises(ValueError, match=re.escape(want)):
        field.evaluate(np.zeros(2 * n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_field_evaluate_is_j_times_the_gradient(n):
    # the same bits as (g[n:], -g[:n]), signed zeros and infinities included
    g = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -2.5][: 2 * n])
    field = GradientField(n, hamiltonian_fn=lambda y: 0.0, gradient_fn=lambda y: g)
    got = field.evaluate(np.zeros(2 * n))
    want = np.concatenate([g[n:], -g[:n]])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


# ---------------------------------------------------------------------------
# the matrix exponential of the exact flow (scipy is the test-only reference)


@st.composite
def hamiltonian_steps(draw):
    """h A for a random Hamiltonian A = J S (n = 1..3), scaled to a 1-norm
    drawn log-uniformly from 1e-8 to 100."""
    n = draw(st.integers(1, 3))
    d = 2 * n
    B = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d,
                               max_size=d * d))).reshape(d, d)
    A = structure_matrix(n) @ (B + B.T)
    norm = np.abs(A).sum(axis=0).max()
    assume(norm > 1e-100)
    return A * (10.0 ** draw(st.floats(-8.0, 2.0)) / norm)


@given(hamiltonian_steps())
@settings(max_examples=300, deadline=None)
def test_property_expm_matches_scipy(hA):
    norm = np.abs(hA).sum(axis=0).max()
    E, ref = _expm(hA), expm(hA)
    assert np.abs(E - ref).max() <= 1e-12 * max(1.0, norm) * np.abs(ref).max()


def test_expm_of_zero_is_identity():
    for d in (2, 4, 6):
        assert np.array_equal(_expm(np.zeros((d, d))), np.eye(d))


# exact while t / 2, the Pade stage's shear, is a normal float
@given(st.floats(-1e300, 1e300).filter(lambda t: t == 0 or abs(t) >= 1e-300))
def test_expm_of_a_shear_is_exact(t):
    E = _expm(np.array([[0.0, t], [0.0, 0.0]]))
    assert np.array_equal(E, [[1.0, t], [0.0, 1.0]])


@given(st.floats(0.5, 2.0), st.floats(0.0, 6.0))
def test_expm_of_the_oscillator_is_its_closed_form(omega, wh):
    h = wh / omega
    flow = np.column_stack([sho_exact(omega, [1.0, 0.0], h),
                            sho_exact(omega, [0.0, 1.0], h)])
    assert np.abs(_expm(h * sho(omega).A) - flow).max() <= 1e-14


@pytest.mark.parametrize("hA", [
    [[0.0, np.inf], [-1.0, 0.0]],
    [[0.0, 1.0], [np.nan, 0.0]],
    [[0.0, -np.inf], [np.inf, 0.0]],
    [[1e308, 0.0], [1e308, 0.0]],
], ids=["inf", "nan", "both-signs", "norm-overflows"])
def test_non_finite_expm_is_nan_without_a_warning(hA):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = _expm(np.array(hA))
    assert E.shape == (2, 2) and np.isnan(E).all()


def test_expm_overflowing_while_squaring_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = _expm(1e200 * np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert not np.isfinite(E).any()
