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
and the defect sums, polynomial gcds, symmetry checks and root counts never
round.  They all read one set of integers, alpha and the effective beta
times the lcm D of their denominators (`MethodSpec.scaled`, formed once per
spec); each sum is divided by D once per entry.  Only the roots of rho
that `analyze` displays are floats: they are companion-matrix eigenvalues
(what `numpy.roots` computes), and no verdict reads them.

A scheme is a `MethodSpec` or a pair of them, `PCPair` (predictor-corrector
in PECE mode) or `PartitionedPair` (`first` drives q, `second` p).
This module defines them all, holds the built-in registry, one table of
schemes keyed by name built once at import (`REGISTRY_NAMES` is read off
it), and turns a method string into a scheme (`resolve_scheme`).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
import math
import os
from pathlib import Path
import re

import numpy as np

__all__ = [
    "MethodError",
    "MethodSpec",
    "PCPair",
    "PartitionedPair",
    "AnalysisReport",
    "pad_method",
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
    "builtin_pairs",
    "resolve_scheme",
    "REGISTRY_NAMES",
]

KINDS = ("lmm", "one-leg", "generalized")

# `analyze` in-process on a 2-CPU Xeon, of random coefficients
_MAX_K = 64  # largest k of a method file; 0.04-0.05 s there, small integers
_MAX_BITS = 64  # bits of its `scaled` integers; 1.0-1.1 s at both bounds (3 gcds)

# Python's own bound on the digits of a decimal string it converts to int
_MAX_EXPONENT = 4300
# a decimal token with an exponent: its mantissa, then the exponent as
# int() reads it (Fraction checks the rest)
_DECIMAL_RE = re.compile(r"[-+]?([\d_.]*)[eE]([-+]?\d+(?:_\d+)*)")
_DIGITS_RE = re.compile(r"\d+")
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
_ZERO, _ONE = Fraction(0), Fraction(1)


class MethodError(ValueError):
    """Malformed method definition (parse errors and invariant violations)."""


def _fr(tok: str) -> Fraction:
    """A rational token, `p/q` or decimal.  `Fraction` hands each run of
    digits to int(), which refuses more than `_MAX_EXPONENT` of them, so a
    token with a longer run is rejected first as too long.  `Fraction` also
    expands a decimal exponent into an integer, in time that grows faster
    than the exponent, so an exponent more than `_MAX_EXPONENT` places past
    the token's own digits is rejected next: such a value is far past
    `_MAX_BITS` bits (unless it is zero), and nearer ones reach the bit
    check, which reports their exact size."""
    # int() skips the underscores between digits, and counts only digits
    longest = max(map(len, _DIGITS_RE.findall(tok.replace("_", ""))), default=0)
    if longest > _MAX_EXPONENT:
        raise MethodError(f"token too long: a run of {longest} digits, "
                          f"at most {_MAX_EXPONENT}")
    decimal = _DECIMAL_RE.fullmatch(tok)
    if decimal:
        mantissa, exponent = decimal.groups()
        digits = len(mantissa) - mantissa.count("_") - mantissa.count(".")
        if abs(int(exponent)) > digits + _MAX_EXPONENT:
            raise MethodError(f"decimal exponent out of range in {tok!r}")
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
        return tuple(
            sum((b * g for b, g in zip(self.beta, col) if b and g), _ZERO)
            for col in zip(*self.gamma_rows)
        )

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D, A, B): D the lcm of the denominators of alpha and the
        effective beta b, A_j = D alpha_j and B_j = D b_j as integers.
        A_j / D rounds once, so it is float(alpha_j).  Formed once."""
        alpha, beta = self.alpha, self.effective_beta()
        D = math.lcm(*(c.denominator for c in alpha + beta))
        A, B = (tuple(c.numerator * (D // c.denominator) for c in v)
                for v in (alpha, beta))
        return D, A, B


def pad_method(m: MethodSpec, k: int) -> MethodSpec:
    """Embed an m.k-step scheme in a k-step window by prepending zeros."""
    if k < m.k:
        raise MethodError(f"cannot pad {m.name} (k={m.k}) down to k={k}")
    if k == m.k:
        return m
    if m.gamma is not None:
        raise MethodError("padding is only supported for plain coefficient schemes")
    pad = (_ZERO,) * (k - m.k)
    padded = MethodSpec(m.name, k, pad + m.alpha, pad + m.beta, m.kind)
    # keep m's own warnings, not the index-0 note that describes the padding
    object.__setattr__(padded, "warnings", m.warnings)
    return padded


class _Pair:
    """What the two pair types share.  Their member fields, `_fields`, are
    zero-padded to one window length `k`, then checked in field order: a
    member in `_explicit` must be explicit (the error calls it by the title
    given there), and every member must be plain (else the `_plain` error).
    `warnings` are the members', each after its member's name."""

    def __post_init__(self):
        k = max(getattr(self, f).k for f in self._fields)
        for f in self._fields:
            object.__setattr__(self, f, pad_method(getattr(self, f), k))
        for f in self._fields:
            m = getattr(self, f)
            if f in self._explicit and not m.explicit:
                raise MethodError(f"{self._explicit[f]} {m.name} must be explicit")
            if m.kind != "lmm":
                raise MethodError(self._plain)

    @property
    def k(self) -> int:
        return getattr(self, self._fields[0]).k

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(f"{m.name}: {w}" for _, m in self.members for w in m.warnings)


@dataclass(frozen=True)
class PCPair(_Pair):
    """Predictor-corrector pair in PECE mode.

    Predict y*, evaluate f(y*), correct once using f(y*) for the implicit
    term, evaluate again at the corrected state for storage.
    """

    name: str
    predictor: MethodSpec
    corrector: MethodSpec

    _fields = ("predictor", "corrector")
    _explicit = {"predictor": "predictor"}
    _plain = "pc pairs are built from plain schemes"

    @property
    def members(self) -> tuple[tuple[str, MethodSpec], ...]:
        """(role, method) for each member, predictor first."""
        return ("predictor", self.predictor), ("corrector", self.corrector)


@dataclass(frozen=True)
class PartitionedPair(_Pair):
    """Two explicit schemes, one driving q and one driving p.

    `first` advances the positions and `second` the momenta: member order is
    the pair's orientation.  The shorter window is zero-padded so both
    schemes share one window length.
    """

    name: str
    first: MethodSpec
    second: MethodSpec

    _fields = ("first", "second")
    _explicit = dict.fromkeys(_fields, "partitioned member")
    _plain = "partitioned pairs are built from plain schemes"

    @property
    def members(self) -> tuple[tuple[str, MethodSpec], ...]:
        """(role, method) for each member, `first` first."""
        return ("positions", self.first), ("momenta", self.second)


Scheme = MethodSpec | PCPair | PartitionedPair


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


def _read_fields(text: str, keys, required, error: type[ValueError],
                 block: str | None = None) -> tuple[dict[str, str], list[str]]:
    """The `key: value` grammar of method and scenario files: `#` starts a
    comment, blank lines are skipped, every key is one of `keys` and
    appears at most once, and every key in `required` appears (else
    `error`).  Lines without a colon after the `block` key are its rows."""
    fields, rows, last = {}, [], None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep and block is not None and last == block:
            rows.append(line)
            continue
        if not sep:
            raise error(f"expected 'key: value', got {raw!r}")
        last = key = key.strip()
        if key not in keys:
            raise error(f"unknown key {key!r}")
        if key in fields:
            raise error(f"duplicate key {key!r}")
        fields[key] = value.strip()
    for req in required:
        if req not in fields:
            raise error(f"missing required key {req!r}")
    return fields, rows


def parse_method(text: str) -> MethodSpec:
    """Parse the line-based method format.

    Keys `name`, `k`, `alpha`, `beta` are required; `kind` and `gamma` are
    optional; k is at most `_MAX_K`.  `gamma:` takes no value and is
    followed by k+1 plain rows of k+1 rationals.  `#` starts a comment;
    blank lines are ignored.  `scaled`'s integers and gamma's numerators
    and denominators have at most `_MAX_BITS` bits, so every float is finite.
    """
    fields, rows = _read_fields(
        text, ("name", "k", "alpha", "beta", "kind", "gamma"),
        ("name", "k", "alpha", "beta"), MethodError, block="gamma",
    )
    if fields.get("gamma"):
        raise MethodError(f"gamma: takes no value, got {fields['gamma']!r}")
    try:
        k = int(fields["k"])
    except ValueError as exc:
        raise MethodError(f"malformed k {fields['k']!r}") from exc
    if k > _MAX_K:
        raise MethodError(f"k must be <= {_MAX_K}, got {k}")
    alpha = tuple(_fr(t) for t in fields["alpha"].split())
    beta = tuple(_fr(t) for t in fields["beta"].split())
    gamma = (tuple(tuple(_fr(t) for t in row.split()) for row in rows)
             if "gamma" in fields else None)
    kind = fields.get("kind", "lmm" if gamma is None else "generalized")
    m = MethodSpec(fields["name"], k, alpha, beta, kind, gamma)
    D, A, B = m.scaled
    bits = max(abs(x).bit_length() for x in (D, *A, *B, *(
        x for row in gamma or () for c in row for x in c.as_integer_ratio())))
    if bits > _MAX_BITS:
        raise MethodError(f"coefficients must scale to integers of at most "
                          f"{_MAX_BITS} bits, got {bits}")
    return m


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


def order_analysis(m: MethodSpec) -> tuple[int, tuple[Fraction, ...], bool]:
    """Exact consistency defects and the order they certify.

    Returns (order, defects, consistent) with defects = (C_0, ..., C_L),

        C_0 = sum_j alpha_j,
        C_l = sum_j alpha_j j^l - l sum_j b_j j^(l-1)   (l >= 1),

    b the effective beta (beta itself unless gamma is explicit), and
    order = largest s with C_0 .. C_s all zero and C_{s+1} nonzero
    (0 when inconsistent), consistent = (C_0 = C_1 = 0).  Each D*C_l is
    summed in integers (see `MethodSpec.scaled`) and divided by D once.
    """
    L = defect_horizon(m.k)
    D, A, B = m.scaled
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
    effective beta b, read off `MethodSpec.scaled`'s integers."""
    _, A, B = m.scaled
    return A[::-1] == tuple(-a for a in A) and B[::-1] == B


def _primitive(p: list[int]) -> list[int]:
    """p without its zero top coefficients, divided by its content."""
    while p and not p[-1]:
        p.pop()
    c = math.gcd(*p)
    return [x // c for x in p] if c > 1 else p


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of two integer polynomials (ascending coefficients, [] for zero)
    up to a constant factor, by a primitive polynomial remainder sequence:
    each pseudo-division step is divided by its content, so the
    coefficients do not swell as in a Euclid over the rationals (Collins,
    J. ACM 14 (1967) 128-142; Brown, J. ACM 18 (1971) 478-504)."""
    a, b = _primitive(list(a)), _primitive(list(b))
    while b:
        while len(a) >= len(b):  # a <- (lc(b) a - lc(a) z^s b) / gcd, primitive
            g = math.gcd(a[-1], b[-1])
            ca, cb, s = b[-1] // g, a[-1] // g, len(a) - len(b)
            a = _primitive([ca * x - (cb * b[i - s] if i >= s else 0)
                            for i, x in enumerate(a)])
        a, b = b, a
    return a


def is_irreducible(m: MethodSpec) -> bool:
    """True when rho and sigma (from the effective beta) share no common
    polynomial factor (exact gcd over `MethodSpec.scaled`'s integers)."""
    _, A, B = m.scaled
    return len(_gcd(A, B)) == 1


def _quotient(p: list[int], d: list[int]) -> list[int]:
    """p / d for integer polynomials, d primitive and dividing p: by Gauss's
    lemma the quotient has integer coefficients, so each is one exact
    integer division."""
    p, n = list(p), len(d) - 1
    q = [0] * (len(p) - n)
    for i in reversed(range(len(q))):
        q[i] = p[i + n] // d[-1]
        for j, c in enumerate(d):
            p[i + j] -= q[i] * c
    return q


def _inside(p: list[int]) -> bool:
    """Every root of p strictly inside the unit circle, by the Schur-Cohn-
    Jury recursion p -> (p_n p - p_0 p*) / z with p* the reversed p: it
    keeps that property and drops one degree, as long as |p_0| < |p_n|
    (else the roots' product has modulus >= 1)."""
    while len(p) > 1:
        if abs(p[0]) >= abs(p[-1]):
            return False
        p = _primitive([p[-1] * a - p[0] * b for a, b in zip(p[1:], p[-2::-1])])
    return True


def _closed(s: list[int]) -> bool:
    """Every root of s in the closed unit disk.  u = gcd(s, s*), primitive,
    holds s's roots on the circle and the pairs r, 1/r; the rest must lie
    inside.  u is self-inversive, so its roots are all on the circle exactly
    when those of u' are in the closed disk (A. Cohn, Math. Z. 14 (1922)
    110-148)."""
    u = _gcd(s, s[::-1])
    return _inside(_quotient(s, u)) and (
        len(u) == 1 or _closed([j * c for j, c in enumerate(u)][1:]))


def root_condition(m: MethodSpec) -> tuple[bool, tuple[complex, ...]]:
    """Zero-stability of rho, exactly: (satisfied, roots).

    Every root of rho must lie in the closed unit disk, and a multiple one
    strictly inside it.  The multiple roots are those of g = gcd(rho, rho'),
    so the condition is `_inside(g)` and `_closed(rho / g)`, all on
    `MethodSpec.scaled`'s integers.  Only the displayed roots are floats:
    companion-matrix eigenvalues of rho, which no verdict reads.
    """
    D, A, _ = m.scaled
    g = _gcd(A, [j * a for j, a in enumerate(A)][1:])
    ok = _inside(g) and _closed(_quotient(A, g))
    return ok, tuple(np.roots([a / D for a in reversed(A)]))


def lambda_matrix(m: MethodSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Exact k x k matrix lambda_ij = sum_m (a_{i+m} b_{j+m} + a_{j+m} b_{i+m}).

    a is alpha and b the effective beta.  Indices i, j run 1..k and
    out-of-range coefficients count as zero.  The convention is pinned by
    the two-step central scheme, whose matrix is [[0, 2], [2, 0]].  Each
    entry is summed over the integers D a and D b (see `MethodSpec.scaled`)
    and divided by D^2 once.
    """
    k, (D, A, B) = m.k, m.scaled

    def lam(i: int, j: int) -> Fraction:
        s = sum(A[i + mm] * B[j + mm] + A[j + mm] * B[i + mm]
                for mm in range(k + 1 - max(i, j)))
        return Fraction(s, D * D)

    return tuple(tuple(lam(i, j) for j in range(1, k + 1)) for i in range(1, k + 1))


def analyze(m: MethodSpec) -> AnalysisReport:
    order, defects, consistent = order_analysis(m)
    ok, roots = root_condition(m)
    D, _, B = m.scaled
    return AnalysisReport(
        method=m.name,
        order=order,
        defects=defects,
        consistent=consistent,
        symmetric=is_symmetric(m),
        irreducible=is_irreducible(m),
        root_condition_satisfied=ok,
        rho_roots=roots,
        normalization=Fraction(sum(B), D),
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
    """Flat key: value rendering of `report_to_dict`'s fields, one line per
    field and one `warning:` line per warning."""
    d = report_to_dict(r)
    d["rhoRoots"] = " ".join(f"{z.real:.12g}{z.imag:+.12g}j" if z.imag
                             else f"{z.real:.12g}" for z in r.rho_roots)
    d["lambda"] = "; ".join(" ".join(row) for row in d["lambda"])
    warnings = d.pop("warnings")
    text = {bool: lambda v: str(v).lower(), list: " ".join}
    lines = [f"{key}: {text.get(type(v), str)(v)}" for key, v in d.items()]
    lines += [f"warning: {w}" for w in warnings]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in schemes


def _m(name: str, alpha: str, beta: str, kind: str = "lmm") -> MethodSpec:
    a, b = (tuple(_fr(t) for t in v.split()) for v in (alpha, beta))
    return MethodSpec(name, len(a) - 1, a, b, kind)


def _as_printed(m: MethodSpec) -> MethodSpec:
    """A known-bad printing, kept verbatim but saying so up front."""
    c1 = order_analysis(m)[1][1]
    msg = f"coefficients kept as printed; inconsistent (C_1 = {c1})"
    return replace(m, warnings=m.warnings + (msg,))


_REGISTRY = {s.name: s for s in (
    _m("explicit-euler", "-1 1", "1 0"),
    _m("implicit-euler", "-1 1", "0 1"),
    _m("midpoint", "-1 1", "1/2 1/2", "one-leg"),
    _m("leapfrog", "-1 0 1", "0 2 0"),
    _as_printed(_m("m1-as-printed", "-1 1 -1 1", "0 1/2 1/2 0")),
    _m("m1-corrected", "-1 1 -1 1", "0 1 1 0"),
    _m("ab4", "0 0 0 -1 1", "-9/24 37/24 -59/24 55/24 0"),
    _m("am4", "0 0 0 -1 1", "0 1/24 -5/24 19/24 9/24"),
    _as_printed(_m("m3-line2-as-printed", "0 -1 0 1", "0 2 2 0")),
    _m("m3b-corrected", "0 -1 0 1", "0 0 2 0"),
)}
# the first line of the paper's M3 pair is m1-corrected under another name
_REGISTRY["m3-line1"] = replace(_REGISTRY["m1-corrected"], name="m3-line1")
_REGISTRY["pc-m2"] = PCPair("pc-m2", _REGISTRY["ab4"], _REGISTRY["am4"])
REGISTRY_NAMES = tuple(sorted(_REGISTRY))


def builtin_methods() -> dict[str, MethodSpec]:
    """The named single schemes, a fresh dict of the same frozen specs on
    each call."""
    return {n: s for n, s in _REGISTRY.items() if isinstance(s, MethodSpec)}


def builtin_pairs() -> dict[str, PCPair]:
    """The named predictor-corrector pairs, a fresh dict of the same frozen
    pairs on each call."""
    return {n: s for n, s in _REGISTRY.items() if isinstance(s, PCPair)}


def resolve_scheme(spec: str) -> Scheme:
    """Turn a method field into a scheme: a method file, a registry or pair
    name, or "first,second" (a partitioned pair of two methods, files or
    registry names; first drives q).

    A file path wins over a registry name spelled the same.  Registry
    names are read from the table built at import, so only a file builds
    a scheme.
    """
    spec = spec.strip()
    names = [p.strip() for p in spec.split(",")]
    if len(names) > 2:
        raise MethodError(f"a partitioned pair needs two names, got {spec!r}")

    def lookup(name: str) -> Scheme:
        if os.path.isfile(name):
            return parse_method(Path(name).read_text())
        scheme = _REGISTRY.get(name)
        # a pair is no member
        if scheme is None or (len(names) > 1 and not isinstance(scheme, MethodSpec)):
            raise MethodError(f"unknown method {name!r}")
        return scheme

    schemes = [lookup(name) for name in names]
    if len(schemes) == 1:
        return schemes[0]
    first, second = schemes
    return PartitionedPair(f"{first.name},{second.name}", first, second)
