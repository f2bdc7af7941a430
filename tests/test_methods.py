"""Exact-arithmetic analysis tests: orders, defects, polynomials, pairing."""
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostep import methods
from geostep.methods import (
    _MAX_BITS,
    _MAX_K,
    AnalysisReport,
    MethodError,
    MethodSpec,
    REGISTRY_NAMES,
    analyze,
    builtin_methods,
    defect_horizon,
    format_method,
    format_report,
    is_irreducible,
    is_symmetric,
    lambda_matrix,
    order_analysis,
    parse_method,
    report_to_dict,
    root_condition,
)

F = Fraction
MS = builtin_methods()


def poly_at(coeffs, x):
    """Ascending-coefficient polynomial (rho from alpha, sigma from beta) at x."""
    return sum((c * x**i for i, c in enumerate(coeffs)), F(0))


# ---------------------------------------------------------------------------
# construction and validation


def test_m3_line1_is_m1_corrected_under_its_own_name():
    assert MS["m3-line1"].name == "m3-line1"
    assert replace(MS["m3-line1"], name="m1-corrected") == MS["m1-corrected"]


def test_registry_names_are_sorted_and_complete():
    assert list(REGISTRY_NAMES) == sorted(REGISTRY_NAMES)
    assert set(REGISTRY_NAMES) == set(MS) | {"pc-m2"}
    assert len(REGISTRY_NAMES) == 12


def test_coefficient_length_must_be_k_plus_one():
    with pytest.raises(MethodError):
        MethodSpec("bad", 2, (F(-1), F(1)), (F(1), F(0), F(0)))


def test_leading_alpha_must_not_vanish():
    with pytest.raises(MethodError):
        MethodSpec("bad", 1, (F(-1), F(0)), (F(1), F(0)))


def test_oneleg_requires_unit_beta_sum():
    with pytest.raises(MethodError):
        MethodSpec("bad", 1, (F(-1), F(1)), (F(1), F(1)), kind="one-leg")


def test_generalized_requires_gamma():
    with pytest.raises(MethodError):
        MethodSpec("bad", 1, (F(-1), F(1)), (F(1), F(0)), kind="generalized")


def test_gamma_rows_must_sum_to_one():
    gamma = ((F(1), F(0)), (F(1), F(1)))
    with pytest.raises(MethodError):
        MethodSpec("bad", 1, (F(-1), F(1)), (F(1), F(0)), kind="generalized",
                   gamma=gamma)


def test_zero_start_index_gets_a_warning():
    m = MethodSpec("pad", 2, (F(0), F(-1), F(1)), (F(0), F(1), F(0)))
    assert any("index 0" in w for w in m.warnings)


def test_effective_beta_reduces_to_beta_without_gamma():
    m = MS["leapfrog"]
    assert m.effective_beta() == m.beta


def test_effective_beta_mixes_through_gamma():
    # one row shifts its derivative argument fully onto the other slot
    gamma = ((F(0), F(1)), (F(0), F(1)))
    m = MethodSpec("g", 1, (F(-1), F(1)), (F(1, 2), F(1, 2)), kind="generalized",
                   gamma=gamma)
    assert m.effective_beta() == (F(0), F(1))


# ---------------------------------------------------------------------------
# parsing and formatting


GOOD_TEXT = """\
name: two-step
k: 2
alpha: -1 0 1
beta: 0 2 0
"""


def test_parse_round_trip():
    m = parse_method(GOOD_TEXT)
    assert m.k == 2 and m.alpha == (F(-1), F(0), F(1))
    assert parse_method(format_method(m)) == m


def test_parse_rejects_unknown_key():
    with pytest.raises(MethodError, match="unknown key"):
        parse_method(GOOD_TEXT + "zeta: 1\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(MethodError, match="duplicate"):
        parse_method(GOOD_TEXT + "k: 2\n")


def test_parse_rejects_missing_required_key():
    with pytest.raises(MethodError, match="missing"):
        parse_method("name: x\nk: 1\nalpha: -1 1\n")


def test_parse_rejects_malformed_rational():
    with pytest.raises(MethodError, match="malformed"):
        parse_method("name: x\nk: 1\nalpha: -1 1\nbeta: 1/0 0\n")


def test_parse_ignores_comments_and_blank_lines():
    text = "# header\n\nname: x # inline\nk: 1\nalpha: -1 1\nbeta: 1 0\n"
    assert parse_method(text).name == "x"


GAMMA_TEXT = (
    "name: g\nk: 1\nalpha: -1 1\nbeta: 1/2 1/2\nkind: generalized\n"
    "gamma:\n1 0\n0 1\n"
)


def test_parse_gamma_block():
    m = parse_method(GAMMA_TEXT)
    assert m.gamma == ((F(1), F(0)), (F(0), F(1)))
    assert parse_method(format_method(m)) == m


def test_parse_rejects_a_value_on_the_gamma_line():
    with pytest.raises(MethodError, match="^gamma: takes no value, got 'junk'$"):
        parse_method(GAMMA_TEXT.replace("gamma:", "gamma: junk"))


def test_parse_reports_a_second_gamma_block_as_a_duplicate_key():
    with pytest.raises(MethodError, match="^duplicate key 'gamma'$"):
        parse_method(GAMMA_TEXT + "gamma:\n1 0\n0 1\n")


@pytest.mark.parametrize("text, message", [
    ("name: x\nk: 1\nalpha -1 1\nbeta: 1 0\n", "expected 'key: value', got 'alpha -1 1'"),
    ("name: x\nk: 1\nalpha: -1 1\nbeta: 1 0\n1 0\n", "expected 'key: value', got '1 0'"),
    (GOOD_TEXT + "zeta: 1\n", "unknown key 'zeta'"),
    (GOOD_TEXT + "name: y\n", "duplicate key 'name'"),
    ("name: x\nalpha: -1 1\nbeta: 1 0\n", "missing required key 'k'"),
    ("name: x\nk: one\nalpha: -1 1\nbeta: 1 0\n", "malformed k 'one'"),
    (GAMMA_TEXT.replace("1 0\n0 1", "1 x\n0 1"), "malformed rational 'x'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(MethodError) as exc:
        parse_method(text)
    assert str(exc.value) == message


def long_scheme_text(k):
    """rho = z^k - 1 and sigma = k z^k: a consistent k-step scheme."""
    return f"name: long\nk: {k}\nalpha: -1{' 0' * (k - 1)} 1\nbeta:{' 0' * k} {k}\n"


def test_parse_accepts_k_at_the_bound():
    m = parse_method(long_scheme_text(_MAX_K))
    assert m.k == _MAX_K and order_analysis(m)[2]


def test_parse_rejects_k_past_the_bound():
    with pytest.raises(MethodError, match=f"^k must be <= {_MAX_K}, got {_MAX_K + 1}$"):
        parse_method(long_scheme_text(_MAX_K + 1))


def test_parse_rejects_an_empty_gamma_block():
    text = "name: eg\nk: 1\nalpha: -1 1\nbeta: 1/2 1/2\ngamma:\n"
    for extra in ("", "kind: generalized\n"):
        with pytest.raises(MethodError, match="^gamma must be a 2x2 matrix$"):
            parse_method(text + extra)


WIDE = 2**_MAX_BITS - 1  # the largest integer of _MAX_BITS bits


@pytest.mark.parametrize("body", [
    "alpha: -{n} {n}\nbeta: 1 0\n",
    "alpha: -1 1\nbeta: 0 {n}\n",
    "alpha: -1 1\nbeta: 0 1/{n}\n",
    # gamma's own entries count, though the effective beta is (1/2, 1/2)
    "alpha: -1 1\nbeta: 1/2 1/2\ngamma:\n{n} {m}\n{m} {n}\n",
], ids=["alpha", "beta", "denominator", "gamma"])
def test_parse_bounds_the_bits_of_the_scaled_integers(body):
    def parse(n):
        return parse_method("name: w\nk: 1\n" + body.format(n=n, m=1 - n))

    parse(WIDE)
    with pytest.raises(MethodError, match=f"at most {_MAX_BITS} bits, got {_MAX_BITS + 1}$"):
        parse(WIDE + 1)


@pytest.mark.parametrize("mantissa", ["1", "-2.5", "1_0", ".000_1"])
@pytest.mark.parametrize("sign", ["", "-", "+"])
def test_parse_rejects_a_decimal_exponent_past_the_reach_of_the_bit_check(mantissa, sign):
    digits = sum(c.isdigit() for c in mantissa)
    far = digits + methods._MAX_EXPONENT
    text = "name: w\nk: 1\nalpha: -1 1\nbeta: {} 0\n"
    # at the reach the bit check still sees the value and reports its size
    with pytest.raises(MethodError, match=f"at most {_MAX_BITS} bits, got "):
        parse_method(text.format(f"{mantissa}e{sign}{far}"))
    token = f"{mantissa}E{sign}{far + 1}"
    message = f"decimal exponent out of range in '{token}'"
    with pytest.raises(MethodError, match=f"^{re.escape(message)}$"):
        parse_method(text.format(token))


def test_parse_counts_the_mantissa_digits_against_the_exponent():
    # 10^4299 * 10^-4310: the exponent is past _MAX_EXPONENT, the value is not
    tiny = "1" + "0" * 4299 + "e-4310"
    m = parse_method(f"name: w\nk: 1\nalpha: -1 1\nbeta: {tiny} 0\n")
    assert m.beta[0] == F(1, 10**11)


LONG_TOKENS = {
    "integer": "1" + "0" * 4999,
    "ratio": "1/" + "3" * 5000,
    "decimal": "0." + "0" * 4999 + "1e5000",  # the value 1
}


@pytest.mark.parametrize("token", LONG_TOKENS.values(), ids=LONG_TOKENS.keys())
def test_parse_rejects_a_run_of_digits_past_what_int_converts(token):
    # int() refuses more than 4300 digits, which read as a malformed rational
    message = f"token too long: a run of 5000 digits, at most {methods._MAX_EXPONENT}"
    with pytest.raises(MethodError, match=f"^{message}$"):
        parse_method(f"name: w\nk: 1\nalpha: -1 1\nbeta: {token} 0\n")


def test_parse_counts_digits_not_underscores_against_the_run_bound():
    run = "_".join(["1"] * methods._MAX_EXPONENT)
    m = parse_method(f"name: w\nk: 1\nalpha: -1 1\nbeta: {run}/{run} 0\n")
    assert m.beta[0] == 1


# ---------------------------------------------------------------------------
# order certificates (exact rational arithmetic, zero tolerance)


@pytest.mark.parametrize(
    "name,order,first_defect",
    [
        ("explicit-euler", 1, F(1)),
        ("implicit-euler", 1, F(-1)),
        ("midpoint", 2, F(-1, 2)),
        ("leapfrog", 2, F(2)),
        ("m1-corrected", 2, F(5)),
        ("m3-line1", 2, F(5)),
        ("m3b-corrected", 2, F(2)),
        ("ab4", 4, F(251, 6)),
        ("am4", 4, F(-19, 6)),
    ],
)
def test_builtin_orders_and_leading_defects(name, order, first_defect):
    m = MS[name]
    got_order, defects, consistent = order_analysis(m)
    assert consistent
    assert got_order == order
    assert all(d == 0 for d in defects[: order + 1])
    assert defects[order + 1] == first_defect


@pytest.mark.parametrize(
    "name,c1",
    [("m1-as-printed", F(1)), ("m3-line2-as-printed", F(-2))],
)
def test_as_printed_forms_are_inconsistent(name, c1):
    order, defects, consistent = order_analysis(MS[name])
    assert not consistent
    assert order == 0
    assert defects[0] == 0 and defects[1] == c1
    assert any("inconsistent" in w for w in MS[name].warnings)


def test_defect_horizon_covers_superconvergence():
    assert defect_horizon(1) == 6
    assert defect_horizon(4) == 12
    m = MS["ab4"]
    _, defects, _ = order_analysis(m)
    assert len(defects) == defect_horizon(m.k) + 1


# ---------------------------------------------------------------------------
# polynomials, symmetry, irreducibility, root condition


@pytest.mark.parametrize(
    "name,expected",
    [
        ("leapfrog", True),
        ("midpoint", True),
        ("m1-as-printed", True),
        ("m1-corrected", True),
        ("m3-line1", True),
        ("ab4", False),
        ("am4", False),
        ("explicit-euler", False),
        ("m3-line2-as-printed", False),
    ],
)
def test_symmetry_classification(name, expected):
    assert is_symmetric(MS[name]) is expected


def test_symmetric_methods_satisfy_polynomial_reflection():
    # rho(x) = -x^k rho(1/x) and sigma(x) = x^k sigma(1/x) at sample points
    for name in ("leapfrog", "m1-corrected", "m3-line1", "midpoint"):
        m = MS[name]
        for x in (F(2), F(-3), F(1, 5), F(7, 3)):
            assert poly_at(m.alpha, x) == -(x ** m.k) * poly_at(m.alpha, 1 / x)
            assert poly_at(m.beta, x) == (x ** m.k) * poly_at(m.beta, 1 / x)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("leapfrog", True),
        ("midpoint", True),
        ("m1-corrected", True),
        ("ab4", True),
        ("am4", False),  # rho and sigma share the root 0
        ("m3b-corrected", False),
        ("m3-line2-as-printed", False),
    ],
)
def test_irreducibility(name, expected):
    assert is_irreducible(MS[name]) is expected


# The Euclid over `Fraction`s that `is_irreducible` ran before the integer
# remainder sequence, kept as the reference: ascending coefficient lists.


def _poly_trim(c):
    i = len(c) - 1
    while i > 0 and c[i] == 0:
        i -= 1
    return c[: i + 1]


def _poly_mod(a, b):
    a = a[:]
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(c != 0 for c in a):
        shift = len(a) - 1 - db
        q = a[-1] / lead
        for i in range(db + 1):
            a[shift + i] -= q * b[i]
        a = _poly_trim(a)
        if len(a) == 1 and a[0] == 0:
            break
    return a


def reference_gcd(a, b):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, _poly_mod(a, b)
    return a


def reference_irreducible(m):
    g = reference_gcd(m.alpha, m.effective_beta())
    return len(g) == 1 and g[0] != 0


def integer_gcd(m):
    _, A, B = methods._scaled(m)
    return methods._gcd(A, B)


def assert_proportional(g, ref):
    """g = c ref for a nonzero constant c."""
    assert len(g) == len(ref) and g[-1] != 0
    assert all(x * ref[-1] == r * g[-1] for x, r in zip(g, ref))


@pytest.mark.parametrize("name", sorted(MS))
def test_registry_gcd_matches_the_rational_euclid(name):
    m = MS[name]
    assert_proportional(integer_gcd(m), reference_gcd(m.alpha, m.beta))
    assert is_irreducible(m) is reference_irreducible(m)


@pytest.mark.parametrize("alpha, beta, gcd", [
    # beta = 0: gcd(rho, 0) is rho itself
    ((-1, 0, 1), (0, 0, 0), (-1, 0, 1)),
    # explicit (beta_k = 0): coprime, and sharing z + 1
    ((-1, 1), (1, 0), (1,)),
    ((-1, 0, 1), (1, 1, 0), (1, 1)),
    # a dead index 0 shares the factor z
    ((0, -1, 1), (0, 1, 0), (0, 1)),
    ((0, -1, 0, 1), (0, 1, 4, 1), (0, 1)),
])
def test_gcd_edge_cases(alpha, beta, gcd):
    m = MethodSpec("e", len(alpha) - 1, tuple(map(F, alpha)), tuple(map(F, beta)))
    assert_proportional(integer_gcd(m), reference_gcd(m.alpha, m.beta))
    assert_proportional(integer_gcd(m), [F(c) for c in gcd])
    assert is_irreducible(m) is (len(gcd) == 1) is reference_irreducible(m)


def test_root_condition_of_builtins():
    for name in MS:
        ok, roots = root_condition(MS[name])
        assert ok, name
        assert len(roots) <= MS[name].k


def test_root_condition_rejects_double_unit_root():
    # rho = (x - 1)^2, a textbook violation
    m = MethodSpec("double", 2, (F(1), F(-2), F(1)), (F(0), F(1), F(0)))
    ok, roots = root_condition(m)
    assert not ok
    assert np.allclose(sorted(abs(r) for r in roots), [1.0, 1.0], atol=1e-8)


def test_root_condition_allows_interior_multiple_roots():
    ok, _ = root_condition(MS["ab4"])  # triple root at 0 is inside the disk
    assert ok


def _rho_spec(alpha):
    """An explicit scheme with rho from `alpha` (ascending) and sigma = z^(k-1)."""
    k = len(alpha) - 1
    return MethodSpec("rho", k, tuple(map(F, alpha)), (F(0),) * (k - 1) + (F(1), F(0)))


@pytest.mark.parametrize("alpha", [
    (1, -2, 2, -2, 1),  # (z - 1)^2 (z^2 + 1)
    (-1, -2, -1, 1, 2, 1),  # (z - 1)(z + 1)^2 (z^2 + z + 1)
    (1, -1, 0, 0, -1, 1),  # (z - 1)^2 (z^2 + 1)(z + 1)
])
def test_root_condition_rejects_a_double_unit_root_the_floats_split(alpha):
    # np.roots puts these double roots more than 1e-8 apart, so no float
    # separation test tells them from simple ones
    ok, roots = root_condition(_rho_spec(alpha))
    assert not ok
    assert all(abs(abs(r) - 1) < 1e-6 for r in roots)


# z - 1, z + 1, z^2 + 1, z^2 + z + 1 and z^2 - z + 1: every cyclotomic factor
# of degree at most two, each a root on the unit circle
CYCLOTOMIC = [(-1, 1), (1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 1)]


@given(st.sampled_from(CYCLOTOMIC),
       st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda p: p[-1]))
@settings(max_examples=200, deadline=None)
def test_property_a_squared_cyclotomic_factor_fails_the_root_condition(c, p):
    alpha = poly_mul(poly_mul(list(c), list(c)), p)
    assert not root_condition(_rho_spec(alpha))[0]


# ---------------------------------------------------------------------------
# pairing matrix


def test_lambda_leapfrog_matches_known_value():
    assert lambda_matrix(MS["leapfrog"]) == ((F(0), F(2)), (F(2), F(0)))


def test_lambda_midpoint():
    assert lambda_matrix(MS["midpoint"]) == ((F(1),),)


def test_lambda_m3_line1():
    expected = (
        (F(0), F(1), F(1)),
        (F(1), F(-2), F(1)),
        (F(1), F(1), F(0)),
    )
    assert lambda_matrix(MS["m3-line1"]) == expected


def test_lambda_vanishes_for_explicit_euler():
    assert lambda_matrix(MS["explicit-euler"]) == ((F(0),),)


# ---------------------------------------------------------------------------
# reports


def test_analyze_report_fields():
    rep = analyze(MS["leapfrog"])
    assert isinstance(rep, AnalysisReport)
    assert rep.order == 2 and rep.symmetric and rep.irreducible
    assert rep.root_condition_satisfied
    d = report_to_dict(rep)
    assert d["method"] == "leapfrog"
    assert d["lambda"] == [["0", "2"], ["2", "0"]]
    text = format_report(rep)
    assert "order: 2" in text
    assert "symmetric: true" in text


def test_certificate_reads_gamma_through_effective_beta():
    # plain beta says the midpoint rule (order 2, symmetric); on a linear
    # field this gamma makes it the theta = 1/4 rule, effective beta (3/4, 1/4)
    m = parse_method(
        "name: skewed\nk: 1\nalpha: -1 1\nbeta: 1/2 1/2\ngamma:\n1 0\n1/2 1/2\n"
    )
    assert m.effective_beta() == (F(3, 4), F(1, 4))
    rep = analyze(m)
    assert rep.order == 1 and rep.consistent
    assert rep.defects[2] == F(1, 2)
    assert not rep.symmetric
    assert rep.normalization == 1
    assert rep.lambda_ == ((F(1, 2),),)


def test_report_flags_inconsistent_method():
    rep = analyze(MS["m1-as-printed"])
    assert not rep.consistent
    assert rep.order == 0
    assert rep.warnings


# ---------------------------------------------------------------------------
# properties


coef = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def method_specs(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    alpha = list(draw(st.lists(coef, min_size=k + 1, max_size=k + 1)))
    if alpha[k] == 0:
        alpha[k] = F(1)
    beta = draw(st.lists(coef, min_size=k + 1, max_size=k + 1))
    return MethodSpec("m", k, tuple(alpha), tuple(beta))


@given(method_specs())
@settings(max_examples=120, deadline=None)
def test_property_defect_zero_and_one_match_polynomials(m):
    _, defects, _ = order_analysis(m)
    assert defects[0] == poly_at(m.alpha, F(1))
    drho = sum(j * m.alpha[j] for j in range(1, m.k + 1))
    assert defects[1] == drho - poly_at(m.beta, F(1))


@given(method_specs())
@settings(max_examples=120, deadline=None)
def test_property_lambda_is_symmetric(m):
    lam = lambda_matrix(m)
    for i in range(m.k):
        for j in range(m.k):
            assert lam[i][j] == lam[j][i]


@given(method_specs(), st.fractions(min_value=1, max_value=5, max_denominator=4))
@settings(max_examples=80, deadline=None)
def test_property_order_invariant_under_rescaling(m, c):
    scaled = MethodSpec(
        m.name, m.k,
        tuple(c * a for a in m.alpha),
        tuple(c * b for b in m.beta),
    )
    assert order_analysis(scaled)[0] == order_analysis(m)[0]


@given(method_specs())
@settings(max_examples=80, deadline=None)
def test_property_format_parse_round_trip(m):
    assert parse_method(format_method(m)) == m


@given(method_specs())
@settings(max_examples=80, deadline=None)
def test_property_symmetric_methods_report_even_order_when_consistent(m):
    # symmetrize: alpha odd, beta even under j -> k-j
    alpha = tuple(
        (m.alpha[j] - m.alpha[m.k - j]) / 2 for j in range(m.k + 1)
    )
    beta = tuple((m.beta[j] + m.beta[m.k - j]) / 2 for j in range(m.k + 1))
    if alpha[m.k] == 0:
        return
    sym = MethodSpec("s", m.k, alpha, beta)
    assert is_symmetric(sym)
    order, _, consistent = order_analysis(sym)
    if consistent:
        assert order % 2 == 0


# ---------------------------------------------------------------------------
# integer sums against the term-by-term rational formulas


def reference_certificates(m):
    """Defects, order and pairing matrix summed in `Fraction`s term by term,
    with the effective beta formed here from beta and the gamma rows."""
    k, a = m.k, m.alpha
    b = [sum((m.beta[j] * m.gamma_rows[j][l] for j in range(k + 1)), F(0))
         for l in range(k + 1)]
    L = defect_horizon(k)
    defects = [sum(a, F(0))]
    for l in range(1, L + 1):
        c = sum((a[j] * F(j) ** l for j in range(k + 1)), F(0))
        c -= l * sum((b[j] * F(j) ** (l - 1) for j in range(k + 1)), F(0))
        defects.append(c)
    nonzero = [i for i, c in enumerate(defects) if c != 0]
    if not nonzero:
        raise MethodError(
            f"all defects vanish through C_{L}; not a finite-order scheme"
        )
    consistent = defects[0] == 0 and defects[1] == 0
    order = nonzero[0] - 1 if consistent else 0
    lam = tuple(
        tuple(
            sum((a[i + s] * b[j + s] + a[j + s] * b[i + s]
                 for s in range(k + 1) if i + s <= k and j + s <= k), F(0))
            for j in range(1, k + 1)
        )
        for i in range(1, k + 1)
    )
    return (order, tuple(defects), consistent), lam


# numerator and denominator drawn as integers: cheaper than st.fractions
wide_coef = st.builds(F, st.integers(-240, 240), st.integers(1, 60))


def _unit_sum(draw, n):
    """n rationals that sum to one."""
    head = draw(st.lists(wide_coef, min_size=n - 1, max_size=n - 1))
    return head + [1 - sum(head, F(0))]


@st.composite
def any_kind_specs(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["lmm", "one-leg", "generalized"]))
    empty_start = draw(st.booleans())  # alpha_0 = beta_0 = 0
    alpha = draw(st.lists(wide_coef, min_size=k + 1, max_size=k + 1))
    if alpha[k] == 0:
        alpha[k] = F(1)
    if kind == "one-leg":
        beta = ([F(0)] + _unit_sum(draw, k)) if empty_start else _unit_sum(draw, k + 1)
    else:
        beta = draw(st.lists(wide_coef, min_size=k + 1, max_size=k + 1))
    if empty_start:
        alpha[0] = beta[0] = F(0)
    gamma = None
    if kind == "generalized":
        gamma = tuple(tuple(_unit_sum(draw, k + 1)) for _ in range(k + 1))
    return MethodSpec("m", k, tuple(alpha), tuple(beta), kind, gamma)


@given(any_kind_specs())
@settings(max_examples=200, deadline=None)
def test_property_integer_sums_equal_rational_formulas(m):
    certificates, lam = reference_certificates(m)
    assert order_analysis(m) == certificates
    assert lambda_matrix(m) == lam


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def planted_factor_specs(draw):
    """Schemes rho = p c, sigma = q c with c = z - r planted, or c = 1."""
    planted = draw(st.booleans())
    c = [-draw(wide_coef), F(1)] if planted else [F(1)]
    k = draw(st.integers(min_value=len(c), max_value=8))
    n = k + 2 - len(c)  # coefficients of p and q
    p = draw(st.lists(wide_coef, min_size=n, max_size=n))
    if p[-1] == 0:
        p[-1] = F(1)
    q = draw(st.lists(wide_coef, min_size=n, max_size=n))
    return MethodSpec("m", k, tuple(poly_mul(p, c)), tuple(poly_mul(q, c))), planted


@given(planted_factor_specs())
@settings(max_examples=200, deadline=None)
def test_property_integer_gcd_equals_the_rational_euclid(case):
    m, planted = case
    assert_proportional(integer_gcd(m), reference_gcd(m.alpha, m.beta))
    assert is_irreducible(m) is reference_irreducible(m)
    if planted:
        assert not is_irreducible(m)


@given(any_kind_specs())
@settings(max_examples=100, deadline=None)
def test_property_irreducible_reads_the_effective_beta(m):
    assert_proportional(integer_gcd(m), reference_gcd(m.alpha, m.effective_beta()))
    assert is_irreducible(m) is reference_irreducible(m)


def test_all_vanishing_defects_raise_the_same_error():
    # no valid scheme has order past its horizon (Dahlquist's bound is 2k),
    # so zero the coefficients of a built one to reach the check
    m = replace(MS["leapfrog"])  # a copy: the shared registry stays intact
    object.__setattr__(m, "alpha", (F(0),) * 3)
    object.__setattr__(m, "beta", (F(0),) * 3)
    with pytest.raises(MethodError) as want:
        reference_certificates(m)
    with pytest.raises(MethodError) as got:
        order_analysis(m)
    assert str(got.value) == str(want.value) == (
        "all defects vanish through C_8; not a finite-order scheme"
    )
