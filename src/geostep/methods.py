"""Coefficient-level analysis of multistep schemes.

A k-step scheme is stored as coefficient tuples alpha, beta of length k+1
(index j = 0..k, oldest state first).  Every scheme is one relation,

    sum_j alpha_j y_{n+j} = h sum_j beta_j f(sum_l gamma_jl y_{n+l}),

with a (k+1)x(k+1) gamma matrix whose rows sum to one.  The kind only
chooses the default gamma: the identity for a plain multistep (`lmm`)
scheme, every row equal to beta for a `one-leg` scheme (normalized so
sigma(1) = 1, which makes it one f-evaluation at sum_j beta_j y_{n+j}), and
an explicit matrix for a `generalized` scheme.  The certificates read the
effective beta b_l = sum_j beta_j gamma_jl, the derivative weights a linear
field sees, which is beta itself unless gamma is explicit.

Everything in this module is exact: coefficients are `fractions.Fraction`
and the defect sums, polynomial gcd and symmetry checks never round.  The
defect and pairing sums run over integers, the coefficients scaled by the
lcm of their denominators, and are divided by it once per entry.  Only
`root_condition` goes through floating point, via companion-matrix
eigenvalues (that is what `numpy.roots` computes).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
import math
import re

import numpy as np

__all__ = [
    "MethodError",
    "MethodSpec",
    "AnalysisReport",
    "parse_method",
    "format_method",
    "order_analysis",
    "defect_horizon",
    "is_symmetric",
    "is_irreducible",
    "root_condition",
    "lambda_matrix",
    "analyze",
    "format_report",
    "report_to_dict",
    "builtin_methods",
    "REGISTRY_NAMES",
]

KINDS = ("lmm", "one-leg", "generalized")

# root-condition tolerances: modulus slack and the minimal separation that
# still counts as a simple root on the unit circle
ROOT_MOD_TOL = 1e-10
ROOT_SEP_TOL = 1e-8

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
_ZERO, _ONE = Fraction(0), Fraction(1)


class MethodError(ValueError):
    """Malformed method definition (parse errors and invariant violations)."""


def _fr(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise MethodError(f"malformed rational {tok!r}") from exc


@dataclass(frozen=True)
class MethodSpec:
    """Immutable k-step scheme: coefficients, kind and parse-time warnings."""

    name: str
    k: int
    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    kind: str = "lmm"
    gamma: tuple[tuple[Fraction, ...], ...] | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise MethodError(f"bad method name {self.name!r}")
        if self.k < 1:
            raise MethodError(f"k must be >= 1, got {self.k}")
        if self.kind not in KINDS:
            raise MethodError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if len(self.alpha) != self.k + 1:
            raise MethodError(
                f"alpha must have k+1 = {self.k + 1} entries, got {len(self.alpha)}"
            )
        if len(self.beta) != self.k + 1:
            raise MethodError(
                f"beta must have k+1 = {self.k + 1} entries, got {len(self.beta)}"
            )
        if self.alpha[self.k] == 0:
            raise MethodError("leading coefficient alpha[k] must be nonzero")
        if self.gamma is not None:
            if len(self.gamma) != self.k + 1 or any(
                len(row) != self.k + 1 for row in self.gamma
            ):
                raise MethodError(f"gamma must be a {self.k + 1}x{self.k + 1} matrix")
            for i, row in enumerate(self.gamma):
                if sum(row, Fraction(0)) != 1:
                    raise MethodError(f"gamma row {i} must sum to 1")
        if self.kind == "one-leg":
            if sum(self.beta, Fraction(0)) != 1:
                raise MethodError("one-leg scheme requires sigma(1) = 1")
            if self.gamma is not None and any(
                tuple(row) != tuple(self.beta) for row in self.gamma
            ):
                raise MethodError("one-leg gamma rows must all equal beta")
        if self.kind == "generalized" and self.gamma is None:
            raise MethodError("generalized scheme requires a gamma matrix")
        # survivable defect: an empty window start is legal but worth flagging
        if abs(self.alpha[0]) + abs(self.beta[0]) == 0:
            object.__setattr__(
                self,
                "warnings",
                self.warnings
                + ("index 0 carries no data (alpha[0] = beta[0] = 0); "
                   "the scheme is effectively a shorter-step one",),
            )

    @property
    def gamma_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The stored gamma, else the kind's default: the identity for
        `lmm`, every row equal to beta for `one-leg`."""
        if self.gamma is not None:
            return self.gamma
        if self.kind == "one-leg":
            return (self.beta,) * (self.k + 1)
        return tuple(
            (_ZERO,) * j + (_ONE,) + (_ZERO,) * (self.k - j) for j in range(self.k + 1)
        )

    @property
    def explicit(self) -> bool:
        """True when y_{n+k} never enters a derivative argument."""
        return not any(b and row[self.k]
                       for b, row in zip(self.beta, self.gamma_rows))

    def effective_beta(self) -> tuple[Fraction, ...]:
        """Derivative weights seen by a linear field: state l is weighted by
        sum_j beta_j gamma_{jl}, which is beta itself for lmm and one-leg."""
        if self.gamma is None:
            # the default gammas give beta back (one-leg: sigma(1) = 1);
            # every certificate reads this, so skip the products
            return self.beta
        return tuple(
            sum((b * g for b, g in zip(self.beta, col) if b and g), _ZERO)
            for col in zip(*self.gamma_rows)
        )


@dataclass(frozen=True)
class AnalysisReport:
    """Everything `analyze` knows about a scheme.

    `defects` holds C_0 .. C_L with L = 2k+4; `normalization` is sigma(1);
    `lambda_` is the k x k quadratic-form matrix used by the structure
    checks; `rho_roots` lists companion-matrix eigenvalues of rho with
    multiplicities given by repetition.
    """

    method: str
    order: int
    defects: tuple[Fraction, ...]
    consistent: bool
    symmetric: bool
    irreducible: bool
    root_condition_satisfied: bool
    rho_roots: tuple[complex, ...]
    normalization: Fraction
    lambda_: tuple[tuple[Fraction, ...], ...]
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# text format


def parse_method(text: str) -> MethodSpec:
    """Parse the line-based method format.

    Keys `name`, `k`, `alpha`, `beta` are required; `kind` and `gamma` are
    optional.  `gamma:` is followed by k+1 plain rows of k+1 rationals.
    `#` starts a comment; blank lines are ignored.
    """
    fields: dict[str, str] = {}
    gamma_rows: list[tuple[Fraction, ...]] = []
    in_gamma = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_gamma and ":" not in line:
            gamma_rows.append(tuple(_fr(t) for t in line.split()))
            continue
        in_gamma = False
        key, _, value = line.partition(":")
        if not _:
            raise MethodError(f"expected 'key: value', got {raw!r}")
        key = key.strip()
        if key == "gamma":
            in_gamma = True
            continue
        if key not in ("name", "k", "alpha", "beta", "kind"):
            raise MethodError(f"unknown key {key!r}")
        if key in fields:
            raise MethodError(f"duplicate key {key!r}")
        fields[key] = value.strip()

    for req in ("name", "k", "alpha", "beta"):
        if req not in fields:
            raise MethodError(f"missing required key {req!r}")
    try:
        k = int(fields["k"])
    except ValueError as exc:
        raise MethodError(f"malformed k {fields['k']!r}") from exc
    alpha = tuple(_fr(t) for t in fields["alpha"].split())
    beta = tuple(_fr(t) for t in fields["beta"].split())
    kind = fields.get("kind", "generalized" if gamma_rows else "lmm")
    gamma = tuple(gamma_rows) if gamma_rows else None
    return MethodSpec(fields["name"], k, alpha, beta, kind, gamma)


def format_method(m: MethodSpec) -> str:
    """Inverse of `parse_method` (round-trips up to rational normalization)."""
    lines = [
        f"name: {m.name}",
        f"kind: {m.kind}",
        f"k: {m.k}",
        "alpha: " + " ".join(str(c) for c in m.alpha),
        "beta: " + " ".join(str(c) for c in m.beta),
    ]
    if m.gamma is not None:
        lines.append("gamma:")
        for row in m.gamma:
            lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact analysis


def defect_horizon(k: int) -> int:
    # past the highest order a k-step scheme can attain, so the first
    # nonzero defect always exists within the horizon
    return 2 * k + 4


def _scaled(m: MethodSpec) -> tuple[int, list[int], list[int]]:
    """(D, A, B): D the lcm of the denominators of alpha and the effective
    beta b, A_j = D alpha_j and B_j = D b_j as integers."""
    alpha, beta = m.alpha, m.effective_beta()
    D = math.lcm(*(c.denominator for c in alpha + beta))
    A, B = ([c.numerator * (D // c.denominator) for c in v] for v in (alpha, beta))
    return D, A, B


def order_analysis(m: MethodSpec) -> tuple[int, tuple[Fraction, ...], bool]:
    """Exact consistency defects and the order they certify.

    Returns (order, defects, consistent) with defects = (C_0, ..., C_L),

        C_0 = sum_j alpha_j,
        C_l = sum_j alpha_j j^l - l sum_j b_j j^(l-1)   (l >= 1),

    b the effective beta (beta itself unless gamma is explicit), and
    order = largest s with C_0 .. C_s all zero and C_{s+1} nonzero
    (0 when inconsistent), consistent = (C_0 = C_1 = 0).  Each D*C_l is
    summed in integers (see `_scaled`) and divided by D once.
    """
    L = defect_horizon(m.k)
    D, A, B = _scaled(m)
    defects = [Fraction(sum(A), D)]
    powers = [1] * (m.k + 1)  # j^(l-1)
    for l in range(1, L + 1):
        sb = sum(b * p for b, p in zip(B, powers))
        powers = [p * j for j, p in enumerate(powers)]
        defects.append(Fraction(sum(a * p for a, p in zip(A, powers)) - l * sb, D))
    first_nonzero = next((i for i, c in enumerate(defects) if c != 0), None)
    if first_nonzero is None:
        raise MethodError(
            f"all defects vanish through C_{L}; not a finite-order scheme"
        )
    consistent = defects[0] == 0 and defects[1] == 0
    order = first_nonzero - 1 if consistent else 0
    return order, tuple(defects), consistent


def is_symmetric(m: MethodSpec) -> bool:
    """Coefficient symmetry: alpha_{k-j} = -alpha_j and b_{k-j} = b_j for the
    effective beta b."""
    k, beta = m.k, m.effective_beta()
    return all(m.alpha[k - j] == -m.alpha[j] for j in range(k + 1)) and all(
        beta[k - j] == beta[j] for j in range(k + 1)
    )


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    i = len(c) - 1
    while i > 0 and c[i] == 0:
        i -= 1
    return c[: i + 1]


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
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


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a), _poly_trim(b)
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, _poly_mod(a, b)
    return a


def is_irreducible(m: MethodSpec) -> bool:
    """True when rho and sigma (from the effective beta) share no common
    polynomial factor (exact gcd)."""
    g = _poly_gcd(list(m.alpha), list(m.effective_beta()))
    return len(g) == 1 and g[0] != 0


def root_condition(m: MethodSpec) -> tuple[bool, tuple[complex, ...]]:
    """Zero-stability check on the roots of rho.

    All roots must satisfy |r| <= 1 + 1e-10 and roots with |r| >= 1 - 1e-10
    must be simple, taken as pairwise separation > 1e-8.  Roots come from
    companion-matrix eigenvalues, so multiple roots may or may not split;
    the separation threshold is the documented contract.
    """
    coeffs = [float(c) for c in reversed(m.alpha)]
    roots = tuple(np.roots(coeffs))
    ok = all(abs(r) <= 1 + ROOT_MOD_TOL for r in roots)
    near_unit = [r for r in roots if abs(r) >= 1 - ROOT_MOD_TOL]
    for i in range(len(near_unit)):
        for j in range(i + 1, len(near_unit)):
            if abs(near_unit[i] - near_unit[j]) <= ROOT_SEP_TOL:
                ok = False
    return ok, roots


def lambda_matrix(m: MethodSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Exact k x k matrix lambda_ij = sum_m (a_{i+m} b_{j+m} + a_{j+m} b_{i+m}).

    a is alpha and b the effective beta.  Indices i, j run 1..k and
    out-of-range coefficients count as zero.  The convention is pinned by
    the two-step central scheme, whose matrix is [[0, 2], [2, 0]].  Each
    entry is summed over the integers D a and D b (see `_scaled`) and
    divided by D^2 once.
    """
    k, (D, A, B) = m.k, _scaled(m)

    def lam(i: int, j: int) -> Fraction:
        s = sum(A[i + mm] * B[j + mm] + A[j + mm] * B[i + mm]
                for mm in range(k + 1 - max(i, j)))
        return Fraction(s, D * D)

    return tuple(tuple(lam(i, j) for j in range(1, k + 1)) for i in range(1, k + 1))


def analyze(m: MethodSpec) -> AnalysisReport:
    order, defects, consistent = order_analysis(m)
    ok, roots = root_condition(m)
    return AnalysisReport(
        method=m.name,
        order=order,
        defects=defects,
        consistent=consistent,
        symmetric=is_symmetric(m),
        irreducible=is_irreducible(m),
        root_condition_satisfied=ok,
        rho_roots=roots,
        normalization=sum(m.effective_beta(), Fraction(0)),
        lambda_=lambda_matrix(m),
        warnings=m.warnings,
    )


def report_to_dict(r: AnalysisReport) -> dict:
    """Report as plain data with the documented field names."""
    return {
        "method": r.method,
        "order": r.order,
        "defects": [str(c) for c in r.defects],
        "consistent": r.consistent,
        "symmetric": r.symmetric,
        "irreducible": r.irreducible,
        "rootConditionSatisfied": r.root_condition_satisfied,
        "rhoRoots": [[z.real, z.imag] for z in r.rho_roots],
        "normalization": str(r.normalization),
        "lambda": [[str(c) for c in row] for row in r.lambda_],
        "warnings": list(r.warnings),
    }


def format_report(r: AnalysisReport) -> str:
    """Flat key: value rendering of a report."""
    roots = " ".join(
        f"{z.real:.12g}{z.imag:+.12g}j" if z.imag else f"{z.real:.12g}"
        for z in r.rho_roots
    )
    lam = "; ".join(" ".join(str(c) for c in row) for row in r.lambda_)
    lines = [
        f"method: {r.method}",
        f"order: {r.order}",
        "defects: " + " ".join(str(c) for c in r.defects),
        f"consistent: {str(r.consistent).lower()}",
        f"symmetric: {str(r.symmetric).lower()}",
        f"irreducible: {str(r.irreducible).lower()}",
        f"rootConditionSatisfied: {str(r.root_condition_satisfied).lower()}",
        f"rhoRoots: {roots}",
        f"normalization: {r.normalization}",
        f"lambda: {lam}",
    ]
    for w in r.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in schemes

REGISTRY_NAMES = (
    "ab4",
    "am4",
    "explicit-euler",
    "implicit-euler",
    "leapfrog",
    "m1-as-printed",
    "m1-corrected",
    "m3-line1",
    "m3-line2-as-printed",
    "m3b-corrected",
    "midpoint",
    "pc-m2",
)


def _m(name, alpha, beta, kind="lmm"):
    return MethodSpec(
        name,
        len(alpha) - 1,
        tuple(Fraction(a) for a in alpha),
        tuple(Fraction(b) for b in beta),
        kind,
    )


def builtin_methods() -> dict[str, MethodSpec]:
    """The named single schemes (the pc-m2 pair is built from ab4 and am4 in
    `experiments.builtin_pairs`)."""
    F = Fraction
    reg = {
        "explicit-euler": _m("explicit-euler", (-1, 1), (1, 0)),
        "implicit-euler": _m("implicit-euler", (-1, 1), (0, 1)),
        "midpoint": _m("midpoint", (-1, 1), (F(1, 2), F(1, 2)), kind="one-leg"),
        "leapfrog": _m("leapfrog", (-1, 0, 1), (0, 2, 0)),
        "m1-as-printed": _m(
            "m1-as-printed", (-1, 1, -1, 1), (0, F(1, 2), F(1, 2), 0)
        ),
        "m1-corrected": _m("m1-corrected", (-1, 1, -1, 1), (0, 1, 1, 0)),
        "ab4": _m(
            "ab4",
            (0, 0, 0, -1, 1),
            (F(-9, 24), F(37, 24), F(-59, 24), F(55, 24), 0),
        ),
        "am4": _m(
            "am4",
            (0, 0, 0, -1, 1),
            (0, F(1, 24), F(-5, 24), F(19, 24), F(9, 24)),
        ),
        "m3-line2-as-printed": _m(
            "m3-line2-as-printed", (0, -1, 0, 1), (0, 2, 2, 0)
        ),
        "m3b-corrected": _m("m3b-corrected", (0, -1, 0, 1), (0, 0, 2, 0)),
    }
    # the first line of the paper's M3 pair is m1-corrected under another name
    reg["m3-line1"] = replace(reg["m1-corrected"], name="m3-line1")
    # keep the two known-bad printings verbatim but say so up front
    for name in ("m1-as-printed", "m3-line2-as-printed"):
        _, defects, consistent = order_analysis(reg[name])
        if not consistent:
            msg = f"coefficients kept as printed; inconsistent (C_1 = {defects[1]})"
            reg[name] = replace(reg[name], warnings=reg[name].warnings + (msg,))
    return reg
