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

Every summand has r + s + p = t = floor(v/2), so C(r, s, p) splits as
A_r * B_s * G_p with A_r = (alpha + t)_{t-r} / r!, B_s = (beta + t)_{t-s} / s!
and G_p = (-gamma - t)_{t-p} / p!, and the index coefficient splits as
(-m2)^i (1 - m2 x)^r times m1^j (1 + m1 x)^s.  For odd v the summands
(i, j) = (1, 0) and (0, 1) share r, s and p, so together they carry the
pair factor m1*r2 - m2*r1.  With lam_r = A_r (1 - m2 x)^r D1^r and
mu_s = B_s (1 + m1 x)^s D2^s,

    K = (1 or m1*r2 - m2*r1) * sum_p G_p * D^p * [X^(t-p)] (sum_r lam_r X^r) (sum_s mu_s X^s).

``bracket_jacobi`` evaluates this on whole q^n rows (Kronecker substitution
in the zeta-exponent).  It runs on integer numerators: the store's
numerators a(n1, r1) of f over its one denominator, and the weight lists
built as ints (no ``Fraction`` per entry).  With a side's shifted weight
y/q (alpha + t, beta + t or -gamma - t, from ``BracketParams.shifted(t)``),
its list over q^t * t! is F(y, q, t - e) * q^e * t!/e!
(F the falling numerator), and with x = a/b, L and R over b^t are
(b - m2*a)^r b^(t-r) and (b + m1*a)^s b^(t-s).  A*L and B*R are divided
once by the gcd of their denominator and entries, which leaves them over
their least common denominators, so the packed digits are as narrow as the
values allow.  Each entry a(n1, r1) of f carries one column per
e = 0..t, a(n1, r1) * lam_e with lam_e taken at the key's D1, and g
likewise with mu_e.  Slot k of their packed product
(:func:`rcforms.series._packed_products`, which packs, multiplies, reads
back and chooses the digit width) pairs the columns with e1 + e2 = k, so
its digit at (n, r) collects the summands with r + s = k: slot k is the
sum for p = t - k, and G_p * D^p is applied by Horner's rule per key.  For
odd v the pair factor m1*r2 - m2*r1 splits into left columns weighted by
-m2*r1 times plain right columns, plus plain left columns times right
columns weighted by m1*r2.  The integer totals go to the store over the
product of the denominators, which reduces them once per output series.
``bracket_jacobi_poly`` keeps every (r, s) in its own slot through the same
pass and applies its x-degree weights, ints over G's denominator, per key.

The pass (``_bracket_pass``, set up and finished by ``_bracket_sum``) sees
its operands through two views of their kind.  The input view lists each
stored coefficient inside the truncation as (row, r, D1, numerator): a
Jacobi series has m = its index and q^n rows, a degree-2 series a(n, r, m)
has (n, m) rows, paired by the degree-2 row rule, and D1 = 4*n*m - r**2
either way.  The output view names the keys of the read-back rows, where
a row of m = mu has D = 4*n*mu - r**2.  At x = 0 and even order the index
lists L and R are all 1, so every slice pair shares the lists of the
weights alone, and one pass over two degree-2 series sums the brackets of
all slice pairs (f_m, g_m') into output slice m + m': the slice route of
:mod:`rcforms.siegel`.
The operator form heat^p(heat^r(d_z^i f) * heat^s(d_z^j g)) survives in
the independent routes that check this one: the jet oracle of
:mod:`rcforms.jets`, the direct degree-2 bracket of :mod:`rcforms.siegel`
(delta in place of heat, on integer numerators, each output key summed once
over C(r, s, p) * D^p, C taken from :func:`bracket_terms`), and the series
product behind the order-0 check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, gcd
from operator import mul

from .series import InvariantError, JacobiSeries, Key, _integer_form, _packed_products, _text, as_rational
from .series import d_z, heat_power  # noqa: F401  (re-exported)


def _falling_numerator(p: int, q: int, n: int) -> int:
    """q**n * (p/q)_n = prod_{0 <= i < n} (p - i*q), over ints."""
    out = 1
    for i in range(n):
        out *= p - i * q
    return out


def falling_factorial(x: int | Fraction, n: int) -> Fraction:
    """Falling Pochhammer (x)_n = prod_{0 <= i < n} (x - i); 1 for n = 0."""
    if n < 0:
        raise ValueError(f"falling factorial needs n >= 0, got {n}")
    x = as_rational(x)
    return Fraction(_falling_numerator(x.numerator, x.denominator, n), x.denominator**n)


def _check_int(value, name: str) -> None:
    """Raise ``TypeError`` unless ``value`` is an int; a ``bool`` is not one, as for series tags."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


class BracketParams(namedtuple("BracketParams", "k1 k2 m1 m2 v x")):
    """Weights, indices, bracket order and the rational x parameter.

    The one check of a bracket's scalars, each error naming its field: v,
    m1 and m2 are non-negative ints, the weights and x ints or ``Fraction``s
    (never ``bool``), and x is stored as a ``Fraction``.  Weights may be
    non-integer rationals so that the coefficient recursions can be probed
    at generic values.  :meth:`shifted` is the one definition of alpha, beta
    and gamma.
    """

    __slots__ = ()

    def __new__(cls, k1: int | Fraction, k2: int | Fraction, m1: int, m2: int, v: int, x: int | Fraction = Fraction(0)):
        for name, value in (("bracket order", v), ("bracket index m1", m1), ("bracket index m2", m2)):
            _check_int(value, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {_text(value)}")
        if not all(isinstance(k, (int, Fraction)) and not isinstance(k, bool) for k in (k1, k2)):
            raise TypeError(f"bracket weights must be int or Fraction, got {type(k1).__name__} and {type(k2).__name__}")
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError(f"bracket parameter x must be int or Fraction, got {type(x).__name__}")
        return super().__new__(cls, k1, k2, m1, m2, v, as_rational(x))

    @property
    def half_order(self) -> int:
        return self.v // 2

    @property
    def parity(self) -> int:
        return self.v - 2 * (self.v // 2)

    def shifted(self, t: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """alpha + t, beta + t and -gamma - t as int pairs (y, q), value y/q, q > 0, not reduced:
        alpha = k1 - 3/2, beta = k2 - 3/2 and gamma = k1 + k2 - 3/2 + (v mod 2)."""
        n1, d1, n2, d2 = self.k1.numerator, self.k1.denominator, self.k2.numerator, self.k2.denominator
        c = (3 - 2 * (t + self.parity)) * d1 * d2 - 2 * (n1 * d2 + n2 * d1)
        return (2 * n1 + (2 * t - 3) * d1, 2 * d1), (2 * n2 + (2 * t - 3) * d2, 2 * d2), (c, 2 * d1 * d2)


class BracketTerm(namedtuple("BracketTerm", "r s p i j c_value d_value")):
    """One (r, s, p, i, j) summand with its evaluated scalar coefficients."""

    __slots__ = ()


def coeff_C(r: int, s: int, p: int, params: BracketParams) -> Fraction:
    """Weight-dependent coefficient of the (r, s, p) summand,

        (alpha + t)_{s+p} (beta + t)_{r+p} (-gamma - t)_{r+s} / (r! s! p!),   t = r + s + p,

    built as one ``Fraction`` from the int Pochhammer numerators and denominators
    of the shifted weights (:meth:`BracketParams.shifted`).
    """
    (a, qa), (b, qb), (c, qc) = params.shifted(r + s + p)
    numerator = _falling_numerator(a, qa, s + p) * _falling_numerator(b, qb, r + p) * _falling_numerator(c, qc, r + s)
    denominator = qa ** (s + p) * qb ** (r + p) * qc ** (r + s) * factorial(r) * factorial(s) * factorial(p)
    return Fraction(numerator, denominator)


def coeff_D(r: int, s: int, i: int, j: int, params: BracketParams) -> Fraction:
    """Index-dependent coefficient m1^j (-m2)^i (1 + m1 x)^s (1 - m2 x)^r, a ``Fraction`` as x is."""
    if i + j > 1:
        raise ValueError(f"at most one elliptic derivative per argument, got i+j={i + j}")
    m1, m2, x = params.m1, params.m2, params.x
    return m1**j * (-m2) ** i * (1 + m1 * x) ** s * (1 - m2 * x) ** r


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


def _check_operands(name: str, kind: type, f, g) -> None:
    """Raise ``TypeError`` unless both operands of the bracket function ``name`` are of ``kind``."""
    if not (isinstance(f, kind) and isinstance(g, kind)):
        raise TypeError(f"{name} needs two {kind.__name__} operands, got {type(f).__name__} and {type(g).__name__}")


def _weight_factors(params: BracketParams) -> tuple[tuple[int, list[int]], ...]:
    """((den_A, A), (den_B, B), (den_G, G)) over ints, with
    C(r, s, p) = A[r] * B[s] * G[p] / (den_A * den_B * den_G) whenever r + s + p = t = floor(v/2).

    With t fixed, each falling factorial of :func:`coeff_C` depends on one
    index only: A[r] is (alpha + t)_{t-r} / r!, B[s] is (beta + t)_{t-s} / s!
    and G[p] is (-gamma - t)_{t-p} / p!, each times its den.  The shifted
    weights alpha + t, beta + t and -gamma - t are the int pairs of
    ``params.shifted(t)``.  A side whose shifted weight is y/q has den
    q**t * t! and entry e equal to F(y, q, t - e) * q**e * t!/e!, F the
    falling numerator (:func:`_falling_numerator`); a den need not be least.
    """
    t = params.half_order
    scale = factorial(t)
    return tuple(
        (q**t * scale, [_falling_numerator(y, q, t - e) * q**e * (scale // factorial(e)) for e in range(t + 1)])
        for y, q in params.shifted(t)
    )


def _index_factors(params: BracketParams) -> tuple[tuple[int, list[int]], tuple[int, list[int]]]:
    """((b**t, L), (b**t, R)) over ints with L[r] / b**t = (1 - m2 x)^r and R[s] / b**t = (1 + m1 x)^s.

    With x = a/b and t = floor(v/2), L[r] = (b - m2 a)^r b^(t-r) and
    R[s] = (b + m1 a)^s b^(t-s) for r, s <= t.

    coeff_D(r, s, i, j) = (-m2)^i L[r] * m1^j R[s] / b**(2t); the derivative
    factors (-m2)^i and m1^j enter the bracket pass as its ``cross`` pair.
    """
    m1, m2, t = params.m1, params.m2, params.half_order
    a, b = params.x.numerator, params.x.denominator
    return tuple((b**t, [(b + c * a) ** e * b ** (t - e) for e in range(t + 1)]) for c in (-m2, m1))


def _reduced(den: int, ints: list[int]) -> tuple[int, list[int]]:
    """(den, ints) divided by gcd(den, *ints): the values ints[e] / den over their least
    common denominator, the ints ``_integer_form`` gives for them."""
    common = gcd(den, *ints)
    return den // common, [value // common for value in ints]


def _bracket_pass(
    f,
    g,
    left: tuple[int, list[int]],
    right: tuple[int, list[int]],
    cross: tuple[int, int] | None,
    slots: list[list[tuple[int, int]]],
) -> tuple[int, list[tuple[tuple, int, tuple[int, ...]]]]:
    """Packed sums over the coefficient pairs of f and g, by output key and slot.

    f and g are two series of one kind, which gives two views and the row
    rule.  The input view ``_kernel_entries(trunc)`` lists each stored
    coefficient a that fits the truncation as (row, r, D1, a), with
    D1 = 4*n*m - r**2 and the row n for a Jacobi series (m its index) or
    (n, m) for a degree-2 series; the coefficients b of g likewise carry D2.
    ``_row_pairs`` pairs rows, and the output view ``_kernel_keys`` names
    the output keys.  Returns (den, entries) with
    one (key, D, digits) per output key (n, r) of an output row of m = mu
    (m1 + m2 for Jacobi series) in the spans read back, D = 4*n*mu - r**2:
    digits[k] / den is the sum over the pairs of coefficients whose keys
    add up to the output key and over the (e1, e2) in slots[k] of

        a * left[e1] * D1^e1 * b * right[e2] * D2^e2        (times c1*r1 + c2*r2 if cross = (c1, c2)),

    with e1, e2 <= t = len(left) - 1; keys whose sums are all zero are
    listed too.  Each coefficient of f carries one column per e, and with
    cross set the same columns times c1*r1 after them, and g likewise;
    :func:`rcforms.series._packed_products` multiplies them.
    """
    trunc = min(f.trunc, g.trunc)
    t = len(left[1]) - 1

    def rows(series, weights, c):
        """(den, {row: [(r, values)]}): values[e] = w_e * a * disc^e for e = 0..t over
        integer numerators a and w_e, then with c set the same times c*r."""
        den_w, w = weights
        out = {}
        for row, r, disc, a in series._kernel_entries(trunc):
            values = []
            for w_e in w:
                values.append(w_e * a)
                a *= disc
            if c is not None:
                values += [c * r * value for value in values]
            out.setdefault(row, []).append((r, values))
        return series._den * den_w, out

    c1, c2 = cross if cross is not None else (None, None)
    den_f, rows_f = rows(f, left, c1)
    den_g, rows_g = rows(g, right, c2)
    # slot k sums a[i*(t+1) + e1] * b[j*(t+1) + e2] over its (e1, e2) and
    # over the sides (i, j): plain times plain, or weighted left times plain
    # right plus plain left times weighted right
    sides = [(0, 0)] if cross is None else [(1, 0), (0, 1)]
    terms = [[(i * (t + 1) + e1, j * (t + 1) + e2) for i, j in sides for e1, e2 in slot] for slot in slots]
    sums = _packed_products(rows_f, rows_g, f._row_pairs, trunc, terms)
    return den_f * den_g, f._kernel_keys(g, sums)


def _bracket_sum(f, g, params: BracketParams) -> tuple[int, dict]:
    """(den, numerators) of the order-v bracket of f and g at params.x, summed by one kernel pass.

    f and g are Jacobi series or degree-2 series (see :func:`_bracket_pass`);
    ``params`` holds their weights and the order, and for Jacobi series the
    indices.  Slot k of the pass is the sum with r + s = k, which meets
    G[t - k], and G_p * D^p is applied by Horner's rule per key.
    """
    (den_A, A), (den_B, B), (den_G, G) = _weight_factors(params)
    (den_L, L), (den_R, R) = _index_factors(params)
    cross = (-params.m2, params.m1) if params.parity else None
    t = params.half_order
    slots = [[(e, k - e) for e in range(k + 1)] for k in range(t + 1)]  # r + s = k
    left, right = _reduced(den_A * den_L, list(map(mul, A, L))), _reduced(den_B * den_R, list(map(mul, B, R)))
    den, entries = _bracket_pass(f, g, left, right, cross, slots)
    g_int = G[::-1]  # G[t - k] meets the sum with r + s = k
    coeffs = {}
    for key, disc, digits in entries:
        total = 0
        for weight, digit in zip(g_int, digits):  # Horner's rule in D
            total = total * disc + weight * digit
        if total:
            coeffs[key] = total
    return den * den_G, coeffs


def bracket_jacobi(
    f: JacobiSeries, g: JacobiSeries, x: int | Fraction, v: int
) -> JacobiSeries:
    """Order-v bracket of f and g at parameter x.

    Output weight is f.weight + g.weight + v, index f.index + g.index,
    truncation the minimum of the inputs (v and x checked by :class:`BracketParams`).
    v = 0 reduces to the plain product and v = 1 does not depend on x.
    """
    _check_operands("bracket_jacobi", JacobiSeries, f, g)
    params = BracketParams(f.weight, g.weight, f.index, g.index, v, x)
    return f._joined(g, v, *_bracket_sum(f, g, params))


def bracket_jacobi_poly(f: JacobiSeries, g: JacobiSeries, v: int) -> list[JacobiSeries]:
    """Coefficients [P_0, ..., P_{floor(v/2)}] of the bracket as a polynomial in x.

    bracket_jacobi(f, g, x, v) equals sum_d x**d * P_d for every rational x;
    the x-degree is bounded by floor(v/2) because each summand contributes
    (1 + m1 x)^s (1 - m2 x)^r with r + s <= floor(v/2).
    """
    _check_operands("bracket_jacobi_poly", JacobiSeries, f, g)
    params = BracketParams(f.weight, g.weight, f.index, g.index, v)
    A, B, (den_G, G) = _weight_factors(params)
    m1, m2, t = params.m1, params.m2, params.half_order
    cross = (-m2, m1) if params.parity else None
    pairs = [(r, s) for r in range(t + 1) for s in range(t + 1 - r)]
    den, entries = _bracket_pass(f, g, _reduced(*A), _reduced(*B), cross, [[pair] for pair in pairs])
    # per x-degree d: G[p] times the x^d coefficient of (1 + m1 x)^s (1 - m2 x)^r, over den_G
    weights = [
        [
            G[t - r - s] * sum(
                comb(s, a) * m1**a * comb(r, d - a) * (-m2) ** (d - a)
                for a in range(max(0, d - r), min(s, d) + 1)
            )
            for r, s in pairs
        ]
        for d in range(t + 1)
    ]
    parts: list[dict[Key, int]] = [{} for _ in weights]
    for key, disc, digits in entries:
        powers = [disc**p for p in range(t + 1)]
        values = [powers[t - sum(pair)] * digit for pair, digit in zip(pairs, digits)]
        for part, w in zip(parts, weights):
            total = sum(map(mul, w, values))
            if total:
                part[key] = total
    den *= den_G
    return [f._joined(g, v, den, coeffs) for coeffs in parts]


def _exact_rank(rows: list[list[int | Fraction]]) -> int:
    """Rank over the rationals: each row cleared of its denominators once
    (``_integer_form``), then fraction-free elimination on ints (Bareiss).

    After k pivot steps every entry below the pivot rows is a (k+1)-minor of
    the cleared matrix, so each step is one exact integer division per
    entry, by the previous pivot (Sylvester's identity; Bareiss 1968).
    """
    matrix = []
    for row in rows:
        ints = list(_integer_form(enumerate(row))[1].values())
        if any(ints):
            matrix.append(ints)
    rank, previous = 0, 1
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        lead = top[col]
        for i in range(rank + 1, len(matrix)):
            row = matrix[i]
            c = row[col]
            matrix[i] = [(lead * a - c * b) // previous for a, b in zip(row, top)]
        previous = lead
        rank += 1
        if rank == len(matrix):
            break
    return rank


def bracket_rank_over_x(f: JacobiSeries, g: JacobiSeries, v: int) -> int:
    """Rank of the span of {bracket(f, g, x, v)} for x = 0, 1, ..., floor(v/2) + 1.

    The bracket is a polynomial of degree at most floor(v/2) in x, so any
    floor(v/2) + 1 distinct points span the same space as its coefficients
    (Vandermonde) and no choice of points changes the rank.  The one extra
    point lets a degree violation show up as rank floor(v/2) + 2, which
    raises :class:`InvariantError`.  Each point is one independent
    :func:`bracket_jacobi` evaluation, not read off
    :func:`bracket_jacobi_poly`.  The rows are the brackets' numerators,
    each bracket's coefficients times its denominator, which span a space
    of the same dimension.
    """
    _check_operands("bracket_rank_over_x", JacobiSeries, f, g)
    t = BracketParams(f.weight, g.weight, f.index, g.index, v).half_order
    brackets = [bracket_jacobi(f, g, x, v) for x in range(t + 2)]
    keys = sorted(set().union(*(b._num for b in brackets)))
    rank = _exact_rank([[b._num.get(key, 0) for key in keys] for b in brackets])
    if rank > t + 1:
        raise InvariantError(f"rank {rank} exceeds the degree bound {t + 1}")
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

    The relations are tested on ints: the C family is cleared of its
    denominators once (``_integer_form``), and with alpha = a/q_a, beta =
    b/q_b and -gamma = c/q_c (``params.shifted(0)``) the first relation is
    multiplied through by q_a*q_c and the second by q_b*q_c.
    """
    _check_int(l, "recursion order l")
    if l < 1:
        raise ValueError(f"recursion check needs l >= 1, got {l}")
    params = BracketParams(k1, k2, 0, 0, 2 * l)
    if c_fn is None:
        c_fn = lambda r, s, p: coeff_C(r, s, p, params)
    (a, qa), (b, qb), (c, qc) = params.shifted(0)  # alpha, beta and -gamma
    _, C = _integer_form(((r, s, l - r - s), c_fn(r, s, l - r - s)) for r in range(l + 1) for s in range(l + 1 - r))
    for r in range(l):
        for s in range(l - r):
            p = l - 1 - r - s
            mult = (p + 1) * ((l + r + s) * qc - c) * C[r, s, p + 1]
            if (r + 1) * (a + (r + 1) * qa) * qc * C[r + 1, s, p] + qa * mult:
                return False
            if (s + 1) * (b + (s + 1) * qb) * qc * C[r, s + 1, p] + qb * mult:
                return False
    return True
