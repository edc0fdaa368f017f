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

On Fourier coefficients the bracket is one bilinear symbol.  With
D1 = 4*n1*m1 - r1**2, D2 = 4*n2*m2 - r2**2 and D = 4*n*(m1 + m2) - r**2,
the (n, r) coefficient is the sum over pairs (n1 + n2, r1 + r2) = (n, r)
of a(n1, r1) * b(n2, r2) * K, where

    K(D1, D2, D, r1, r2) = sum over summands of C * D(x) * D^p * D1^r * r1^i * D2^s * r2^j.

``bracket_jacobi`` and ``bracket_jacobi_poly`` evaluate it in one pass
over the coefficient pairs: the coefficients of f and g are put over
common denominators, each pair adds integer products into one sum per
output key and summand, and the rational weights and D^p are applied once
per output key.  The operator form heat^p(heat^r(d_z^i f) * heat^s(d_z^j g))
survives in the independent routes that check this one: the jet oracle of
:mod:`rcforms.jets` and the direct degree-2 bracket of :mod:`rcforms.siegel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import add, mul

from .series import InvariantError, JacobiSeries, Key, _integer_form, as_rational
from .series import d_z, heat_power  # noqa: F401  (re-exported)

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


def _bracket_pass(
    f: JacobiSeries, g: JacobiSeries, terms: list[BracketTerm], weights: list[list[Fraction]]
) -> list[dict[Key, Fraction]]:
    """Coefficient maps of sum_t weights[d][t] * heat^p(heat^r(d_z^i f) * heat^s(d_z^j g)), one per d.

    One pass over the coefficient pairs of f and g keeps, per output key and
    term, the integer sum of a*D1^r*r1^i times b*D2^s*r2^j (a and b the
    integer numerators of f and g over their common denominators).  The
    rational weights and D^p are applied once per output key.
    """
    active = [t for t in range(len(terms)) if any(w[t] for w in weights)]
    terms = [terms[t] for t in active]
    weights = [[w[t] for t in active] for w in weights]
    trunc = min(f.trunc, g.trunc)
    if not terms:
        return [{} for _ in weights]

    def table(series, shape):
        """n -> [(r, [c * D^e * r^k for each term's (e, k)])] for the integer numerators c.

        Rows are lists, not tuples: freed tuples of one length stay on a
        free list (up to 2000 of them), which grows the resident size.
        """
        den, coeffs = _integer_form(series._coeffs)
        m, top = series.index, max(e for e, _ in shape)
        rows: dict[int, list[tuple[int, list[int]]]] = {}
        for (n, r), c in coeffs.items():
            if n > trunc:
                continue
            disc = 4 * n * m - r * r
            powers = [c]
            for _ in range(top):
                powers.append(powers[-1] * disc)
            row = [powers[e] * r if k else powers[e] for e, k in shape]
            rows.setdefault(n, []).append((r, row))
        return den, rows

    den_f, left = table(f, [(t.r, t.i) for t in terms])
    den_g, right = table(g, [(t.s, t.j) for t in terms])
    scaled = []
    for w in weights:
        den_w, w_int = _integer_form(dict(enumerate(w)))
        scaled.append((den_w * den_f * den_g, list(w_int.values())))
    exponents = [t.p for t in terms]
    index = f.index + g.index
    parts: list[dict[Key, Fraction]] = [{} for _ in weights]
    for n in range(trunc + 1):
        sums: dict[int, list[int]] = {}
        for n1, row1 in left.items():
            row2 = right.get(n - n1)
            if row2 is None:
                continue
            for r1, a in row1:
                for r2, b in row2:
                    r = r1 + r2
                    acc = sums.get(r)
                    sums[r] = list(map(mul, a, b)) if acc is None else list(map(add, acc, map(mul, a, b)))
        for r, acc in sums.items():
            disc = 4 * n * index - r * r
            acc = [total * disc**e for total, e in zip(acc, exponents)]
            for part, (den, w) in zip(parts, scaled):
                total = sum(map(mul, w, acc))
                if total:
                    part[(n, r)] = Fraction(total, den)
    return parts


def bracket_jacobi(
    f: JacobiSeries, g: JacobiSeries, x: int | Fraction, v: int
) -> JacobiSeries:
    """Order-v bracket of f and g at parameter x.

    Output weight is f.weight + g.weight + v, index f.index + g.index,
    truncation the minimum of the inputs.  v = 0 reduces to the plain
    product and v = 1 does not depend on x.
    """
    params = BracketParams(f.weight, g.weight, f.index, g.index, v, as_rational(x))
    terms = bracket_terms(params)
    [coeffs] = _bracket_pass(f, g, terms, [[t.c_value * t.d_value for t in terms]])
    return JacobiSeries(f.weight + g.weight + v, f.index + g.index, min(f.trunc, g.trunc), coeffs)


def bracket_jacobi_poly(f: JacobiSeries, g: JacobiSeries, v: int) -> list[JacobiSeries]:
    """Coefficients [P_0, ..., P_{floor(v/2)}] of the bracket as a polynomial in x.

    bracket_jacobi(f, g, x, v) equals sum_d x**d * P_d for every rational x;
    the x-degree is bounded by floor(v/2) because each summand contributes
    (1 + m1 x)^s (1 - m2 x)^r with r + s <= floor(v/2).
    """
    params = BracketParams(f.weight, g.weight, f.index, g.index, v)
    terms = bracket_terms(params)
    m1, m2 = params.m1, params.m2
    weights = [[] for _ in range(params.half_order + 1)]
    for term in terms:
        base = term.c_value * m1**term.j * (-m2) ** term.i
        for d, row in enumerate(weights):
            # x^d coefficient of (1 + m1 x)^s (1 - m2 x)^r
            w = sum(
                comb(term.s, a) * m1**a * comb(term.r, d - a) * (-m2) ** (d - a)
                for a in range(max(0, d - term.r), min(term.s, d) + 1)
            )
            row.append(base * w)
    weight = f.weight + g.weight + v
    index = f.index + g.index
    trunc = min(f.trunc, g.trunc)
    return [JacobiSeries(weight, index, trunc, coeffs) for coeffs in _bracket_pass(f, g, terms, weights)]


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


def bracket_rank_over_x(f: JacobiSeries, g: JacobiSeries, v: int) -> int:
    """Rank of the span of {bracket(f, g, x, v)} for x = 0, 1, ..., floor(v/2) + 1.

    The bracket is a polynomial of degree at most floor(v/2) in x, so any
    floor(v/2) + 1 distinct points span the same space as its coefficients
    (Vandermonde) and no choice of points changes the rank.  The one extra
    point lets a degree violation show up as rank floor(v/2) + 2, which
    raises :class:`InvariantError`.  Each point is one independent
    :func:`bracket_jacobi` evaluation, not read off
    :func:`bracket_jacobi_poly`.
    """
    vf = v // 2
    brackets = [bracket_jacobi(f, g, x, v) for x in range(vf + 2)]
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
    detect any perturbation of a single value.  Each C(r, s, p) with
    r + s + p = l is evaluated once.  ``c_fn(r, s, p)`` may override the
    coefficient source (used by tests to inject perturbations).
    """
    if l < 1:
        raise ValueError(f"recursion check needs l >= 1, got {l}")
    params = BracketParams(as_rational(k1), as_rational(k2), 0, 0, 2 * l)
    if c_fn is None:
        c_fn = lambda r, s, p: coeff_C(r, s, p, params)
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    c = {(r, s, l - r - s): c_fn(r, s, l - r - s) for r in range(l + 1) for s in range(l + 1 - r)}
    for r in range(l):
        for s in range(l - r):
            p = l - 1 - r - s
            mult = (p + 1) * (gamma + l + r + s) * c[r, s, p + 1]
            if (r + 1) * (alpha + r + 1) * c[r + 1, s, p] + mult:
                return False
            if (s + 1) * (beta + s + 1) * c[r, s + 1, p] + mult:
                return False
    return True
