"""Bilinear bracket operators on Jacobi-type expansions.

The order-v bracket of series of weights k1, k2 and indices m1, m2 is a sum
over triples r + s + p = floor(v/2) (plus a single elliptic derivative on
either argument when v is odd) of heat-operator combinations

    heat^p( heat^r(d_z^i f) * heat^s(d_z^j g) ),     i + j = v mod 2,

weighted by rational coefficients C (depending on the weights) and D
(depending on the indices and a free rational parameter x).  The weight
parameters enter through alpha = k1 - 3/2, beta = k2 - 3/2 and
gamma = k1 + k2 - 3/2 + (v mod 2), and all Pochhammer symbols are falling:
(a)_n = a (a-1) ... (a-n+1).

Because the heat operator used here carries the 1/(2*pi*i)**2 scaling of
:mod:`rcforms.series`, every bracket below differs from its transcendental
counterpart by the single global factor (2*pi*i)**v; all identities in this
package are stated and tested inside this one convention.  The output has
weight k1 + k2 + v and index m1 + m2, and for v > 1 it is supported in the
open cone r**2 < 4*n*(m1 + m2).

With m1 = m2 = 0 every bracket of order v >= 1 vanishes identically (each
summand is annihilated by the index factors or by the index-0 heat
operator); this degeneration is intentional behaviour, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .series import InvariantError, JacobiSeries, as_rational, d_z, heat_power

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def falling_factorial(x: int | Fraction, n: int) -> Fraction:
    """Falling Pochhammer (x)_n = prod_{0 <= i < n} (x - i); 1 for n = 0."""
    if n < 0:
        raise ValueError(f"falling factorial needs n >= 0, got {n}")
    x = as_rational(x)
    out = Fraction(1)
    for i in range(n):
        out *= x - i
    return out


@dataclass(frozen=True)
class BracketParams:
    """Weights, indices, bracket order and the rational x parameter.

    Weights may be non-integer rationals so that the coefficient recursions
    can be probed at generic values; the series-level bracket itself only
    ever sees integer weights.
    """

    k1: int | Fraction
    k2: int | Fraction
    m1: int
    m2: int
    v: int
    x: Fraction = Fraction(0)

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"bracket order must be non-negative, got {self.v}")

    @property
    def half_order(self) -> int:
        return self.v // 2

    @property
    def parity(self) -> int:
        return self.v - 2 * (self.v // 2)

    @property
    def alpha(self) -> Fraction:
        return as_rational(self.k1) - THREE_HALVES

    @property
    def beta(self) -> Fraction:
        return as_rational(self.k2) - THREE_HALVES

    @property
    def gamma(self) -> Fraction:
        return as_rational(self.k1) + as_rational(self.k2) - THREE_HALVES + self.parity


@dataclass(frozen=True)
class BracketTerm:
    """One (r, s, p, i, j) summand with its evaluated scalar coefficients."""

    r: int
    s: int
    p: int
    i: int
    j: int
    c_value: Fraction
    d_value: Fraction


def coeff_C(r: int, s: int, p: int, params: BracketParams) -> Fraction:
    """Weight-dependent coefficient of the (r, s, p) summand."""
    t = r + s + p
    return (
        falling_factorial(params.alpha + t, s + p)
        / factorial(r)
        * falling_factorial(params.beta + t, r + p)
        / factorial(s)
        * falling_factorial(-(params.gamma + t), r + s)
        / factorial(p)
    )


def coeff_D(r: int, s: int, i: int, j: int, params: BracketParams) -> Fraction:
    """Index-dependent coefficient m1^j (-m2)^i (1 + m1 x)^s (1 - m2 x)^r."""
    if i + j > 1:
        raise ValueError(f"at most one elliptic derivative per argument, got i+j={i + j}")
    m1, m2, x = params.m1, params.m2, params.x
    return as_rational(m1**j * (-m2) ** i * (1 + m1 * x) ** s * (1 - m2 * x) ** r)


def bracket_terms(params: BracketParams) -> list[BracketTerm]:
    """All summands of the order-v bracket, in deterministic (r, s, i) order."""
    vf = params.half_order
    ij_pairs = [(0, 0)] if params.parity == 0 else [(0, 1), (1, 0)]
    terms = []
    for r in range(vf + 1):
        for s in range(vf + 1 - r):
            p = vf - r - s
            c = coeff_C(r, s, p, params)
            for i, j in ij_pairs:
                terms.append(BracketTerm(r, s, p, i, j, c, coeff_D(r, s, i, j, params)))
    return terms


def _term_series(f: JacobiSeries, g: JacobiSeries, term: BracketTerm) -> JacobiSeries:
    left = heat_power(d_z(f) if term.i else f, term.r)
    right = heat_power(d_z(g) if term.j else g, term.s)
    return heat_power(left * right, term.p)


def bracket_jacobi(
    f: JacobiSeries, g: JacobiSeries, x: int | Fraction, v: int
) -> JacobiSeries:
    """Order-v bracket of f and g at parameter x.

    Output weight is f.weight + g.weight + v, index f.index + g.index,
    truncation the minimum of the inputs.  v = 0 reduces to the plain
    product and v = 1 does not depend on x.
    """
    params = BracketParams(f.weight, g.weight, f.index, g.index, v, as_rational(x))
    out = JacobiSeries.zero(f.weight + g.weight + v, f.index + g.index, min(f.trunc, g.trunc))
    for term in bracket_terms(params):
        scale = term.c_value * term.d_value
        if scale:
            out = out + scale * _term_series(f, g, term)
    return out


def bracket_jacobi_poly(f: JacobiSeries, g: JacobiSeries, v: int) -> list[JacobiSeries]:
    """Coefficients [P_0, ..., P_{floor(v/2)}] of the bracket as a polynomial in x.

    bracket_jacobi(f, g, x, v) equals sum_d x**d * P_d for every rational x;
    the x-degree is bounded by floor(v/2) because each summand contributes
    (1 + m1 x)^s (1 - m2 x)^r with r + s <= floor(v/2).
    """
    params = BracketParams(f.weight, g.weight, f.index, g.index, v)
    vf = params.half_order
    weight = f.weight + g.weight + v
    index = f.index + g.index
    trunc = min(f.trunc, g.trunc)
    parts = [JacobiSeries.zero(weight, index, trunc) for _ in range(vf + 1)]
    m1, m2 = params.m1, params.m2
    for term in bracket_terms(params):
        base = term.c_value * Fraction(m1**term.j * (-m2) ** term.i)
        if not base:
            continue
        series = _term_series(f, g, term)
        for d in range(term.r + term.s + 1):
            # x^d coefficient of (1 + m1 x)^s (1 - m2 x)^r
            w = sum(
                comb(term.s, a) * m1**a * comb(term.r, d - a) * (-m2) ** (d - a)
                for a in range(max(0, d - term.r), min(term.s, d) + 1)
            )
            if w:
                parts[d] = parts[d] + (base * w) * series
    return parts


def _exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals by fraction-free-enough Gaussian elimination."""
    rows = [row[:] for row in rows if any(row)]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def bracket_rank_over_x(
    f: JacobiSeries,
    g: JacobiSeries,
    v: int,
    samples: list[int | Fraction] | None = None,
) -> int:
    """Rank of the span of {bracket(f, g, x_i, v)} over the sample points.

    Needs at least floor(v/2) + 2 pairwise distinct samples; defaults to
    0, 1, ..., floor(v/2) + 1.  The result never exceeds floor(v/2) + 1.
    """
    vf = v // 2
    if samples is None:
        samples = [Fraction(i) for i in range(vf + 2)]
    samples = [as_rational(x) for x in samples]
    if len(set(samples)) != len(samples):
        raise ValueError("sample points must be pairwise distinct")
    if len(samples) < vf + 2:
        raise ValueError(f"need at least {vf + 2} samples for order {v}, got {len(samples)}")
    brackets = [bracket_jacobi(f, g, x, v) for x in samples]
    keys = sorted(set().union(*(b.support() for b in brackets)))
    rank = _exact_rank([[b[key] for key in keys] for b in brackets])
    if rank > vf + 1:
        raise InvariantError(f"rank {rank} exceeds the degree bound {vf + 1}")
    return rank


def check_recursions(k1, k2, l: int, c_fn=None) -> bool:
    """Verify the two-term contiguous relations among the C coefficients.

    With alpha = k1 - 3/2, beta = k2 - 3/2, gamma = k1 + k2 - 3/2 and the
    even-order convention v = 2*l, the coefficients satisfy, for every
    r + s + p = l - 1,

        (r+1)(alpha+r+1) C(r+1, s, p) + (p+1)(gamma+l+r+s) C(r, s, p+1) = 0
        (s+1)(beta +s+1) C(r, s+1, p) + (p+1)(gamma+l+r+s) C(r, s, p+1) = 0.

    These relations pin the C family down up to one overall scalar, so they
    detect any perturbation of a single value.  ``c_fn(r, s, p)`` may
    override the coefficient source (used by tests to inject perturbations).
    """
    if l < 1:
        raise ValueError(f"recursion check needs l >= 1, got {l}")
    params = BracketParams(as_rational(k1), as_rational(k2), 0, 0, 2 * l)
    if c_fn is None:
        c_fn = lambda r, s, p: coeff_C(r, s, p, params)
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    for r in range(l):
        for s in range(l - r):
            p = l - 1 - r - s
            mult = (p + 1) * (gamma + l + r + s) * c_fn(r, s, p + 1)
            if (r + 1) * (alpha + r + 1) * c_fn(r + 1, s, p) + mult:
                return False
            if (s + 1) * (beta + s + 1) * c_fn(r, s + 1, p) + mult:
                return False
    return True
