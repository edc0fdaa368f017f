"""Test-form generation: lattice theta expansions and Eisenstein q-series.

Lattice vectors are handled in doubled coordinates (twice the real
coordinates), which makes every vector an integer tuple.  E8 is the
coordinate model D8 u (D8 + 1/2 * (1, ..., 1)) (Conway-Sloane, SPLAG ch. 4):
doubled vectors y whose coordinates share one parity and whose coordinate
sum is divisible by 4.  A vector of doubled norm y.y has half-norm y.y / 8,
and its inner product with a doubled vector w is y.w / 4.

No theta expansion is built by listing vectors:

- The E8 Jacobi theta at w is half the sum, over the coordinate parity and
  a sign twist, of a product of eight one-variable integer series, one per
  coordinate, keyed by (y_i**2, y_i * w_i).  The twist weighs y_i by
  (-1)**(y_i // 2); over a vector of one parity the product of these signs
  is +1 exactly when the coordinate sum is divisible by 4, so averaging the
  untwisted and twisted products keeps the E8 vectors only.
- The degree-2 theta adds, over the W(E8)-orbits of vectors y of
  half-norm m, the orbit size times the Jacobi theta at one member: the
  Jacobi theta at y depends only on the orbit of y, as W(E8) acts on E8 by
  isometries.  The orbits are found without listing vectors: W(D8)
  (coordinate permutations and even sign changes) maps E8 onto itself, and
  its orbits, each listed by its largest member (absolute values
  descending, sign parity fixed), are grouped by their W(E8)-dominant
  vector, reached by descent: while t = y_1 - y_2 - ... - y_7 + y_8 < 0,
  reflect in the root 1/2 * (1, -1, ..., -1, 1) and sort again.  Each
  class takes its theta at the member with the most zero coordinates.
- E8+E8 is built from E8 alone: its degree-2 theta is the square of the
  E8 one, taken by the integer product loop of :class:`SiegelSeries`.

Vector enumeration (``doubled_vectors``, ``enumerate_vectors``) stays as
the independent oracle: the 240 / 2160 norm-count gates and the tests count
vectors directly and compare against these constructions.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, prod

from .series import EllipticSeries, InvariantError, JacobiSeries, _check_int, _key_text, _text, as_rational
from .siegel import SiegelSeries

DoubledVector = tuple[int, ...]
Counts = dict[tuple[int, int], int]
TripleCounts = dict[tuple[int, int, int], int]

E8_INDEX1_VECTOR: tuple[int, ...] = (1, -1, 0, 0, 0, 0, 0, 0)


def _double(vector: Sequence[int | Fraction]) -> DoubledVector | None:
    """Twice the exact coordinates, or None off the half-integers; floats raise TypeError."""
    doubled = [2 * as_rational(x, "vector coordinate") for x in vector]
    return None if any(y.denominator != 1 for y in doubled) else tuple(map(int, doubled))


def _mul_counts(a: Counts, b: Counts, trunc: int) -> Counts:
    """Product of integer maps keyed by (n, r), n cut at trunc: a flat loop for
    the E8 coordinate factors, whose rows are too short for a grouped loop."""
    out: Counts = {}
    b_items = sorted(b.items())
    for (n1, r1), c1 in a.items():
        room = trunc - n1
        for (n2, r2), c2 in b_items:
            if n2 > room:
                break
            key = (n1 + n2, r1 + r2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _coordinate_series(w: int, parity: int, twist: int, budget: int) -> Counts:
    """sum over y = parity (mod 2), y*y <= budget, of (+-1) keyed by (y*y, y*w).

    With ``twist`` the term of y carries the sign (-1)**(y // 2).
    """
    out: Counts = {}
    limit = isqrt(budget)
    for y in range(-limit, limit + 1):
        if y & 1 == parity:
            key = (y * y, y * w)
            out[key] = out.get(key, 0) + (-1 if twist and (y >> 1) & 1 else 1)
    return {key: c for key, c in out.items() if c}


def _descending_squares(target: int, parity: int, length: int, cap: int):
    """Non-increasing tuples of ``length`` non-negative integers of one parity,
    each at most ``cap``, whose squares sum to ``target``."""
    if length == 0:
        if target == 0:
            yield ()
        return
    top = min(cap, isqrt(target))
    for a in range(top - (top - parity) % 2, -1, -2):
        for rest in _descending_squares(target - a * a, parity, length - 1, a):
            yield (a,) + rest


def _extend_e8(out: list[DoubledVector], prefix: list[int], norm: int, budget: int, parity: int) -> None:
    """Append to ``out`` every doubled E8 vector of one coordinate parity that
    starts with ``prefix`` (of doubled norm ``norm``) and has doubled norm
    at most ``budget``.

    A plain function that takes ``out``, so the recursion captures no cell
    of its own and the list is freed as soon as its caller drops it.
    """
    depth = len(prefix)
    remaining = budget - norm
    if depth == 7:
        # last coordinate is pinned mod 4 by the coordinate-sum rule; the residue
        # has the right parity, as seven coordinates of parity p sum to 7p = p (mod 2)
        residue = (-sum(prefix)) % 4
        limit = isqrt(remaining)
        y = -limit + ((residue + limit) % 4)
        while y <= limit:
            out.append(tuple(prefix) + (y,))
            y += 4
        return
    # each remaining odd coordinate costs at least 1
    floor_cost = (7 - depth) * parity
    limit = isqrt(remaining - floor_cost) if remaining >= floor_cost else -1
    y = -limit if (-limit) % 2 == parity else -limit + 1
    while y <= limit:
        _extend_e8(out, prefix + [y], norm + y * y, budget, parity)
        y += 2


class Lattice:
    """Coordinate model of an even unimodular lattice (standard inner product).

    A lattice has a ``name`` and a ``rank`` and works on doubled vectors y = 2x:

    - ``contains_doubled(y)``: whether y is a doubled lattice vector;
    - ``doubled_vectors(max_half_norm)``: every y with x.x/2 <= max_half_norm, sorted;
    - ``theta_counts(w, trunc)``: c(n, r) = #{x : x.x/2 = n <= trunc, x.v = r}
      for the doubled lattice vector w = 2v;
    - ``siegel_counts(trunc)``: a(n, r, m) = #{(x, y) : x.x/2 = n, y.y/2 = m, x.y = r}, n, m <= trunc,
      for E8 the sum over the W(E8)-orbits of y (the W(D8)-orbits grouped by
      their W(E8)-dominant vector) of orbit size times one ``theta_counts``,
      for E8+E8 the square of the E8 counts;
    - ``least_vector(half_norm)``: the lexicographically smallest doubled vector of half-norm ``half_norm``.
    """

    name: str
    rank: int

    def contains(self, vector: Sequence[int | Fraction]) -> bool:
        """Membership of an exact coordinate vector."""
        doubled = _double(vector)
        return doubled is not None and self.contains_doubled(doubled)

    def __repr__(self) -> str:
        return f"Lattice({self.name}, rank={self.rank})"


class _E8(Lattice):
    name = "e8"
    rank = 8

    def contains_doubled(self, y: DoubledVector) -> bool:
        if len(y) != 8 or sum(y) % 4 != 0:
            return False
        parities = {a & 1 for a in y}
        return len(parities) == 1

    def doubled_vectors(self, max_half_norm: int) -> list[DoubledVector]:
        _check_int(max_half_norm, "half-norm bound")
        budget = 8 * max_half_norm
        out: list[DoubledVector] = []
        for parity in (0, 1):  # an odd vector has doubled norm >= 8
            _extend_e8(out, [], 0, budget, parity)
        out.sort()
        return out

    def theta_counts(self, w: DoubledVector, trunc: int) -> Counts:
        _check_int(trunc, "truncation")
        budget = 8 * trunc
        total: Counts = {}
        for parity in (0, 1):
            for twist in (0, 1):
                factors: dict[int, Counts] = {}
                product: Counts = {(0, 0): 1}
                # zero coordinates first keeps the partial products small
                for wi in sorted(w, key=abs):
                    if wi not in factors:
                        factors[wi] = _coordinate_series(wi, parity, twist, budget)
                    product = _mul_counts(product, factors[wi], budget)
                for key, count in product.items():
                    total[key] = total.get(key, 0) + count
        counts: Counts = {}
        for (norm8, dot4), count in total.items():
            if not count:
                continue
            if norm8 % 8 or dot4 % 4 or count % 2:
                raise InvariantError(
                    f"E8 theta at {_key_text(w)}: count {_text(count)} "
                    f"at doubled norm {_text(norm8)}, dot {_text(dot4)}"
                )
            counts[(norm8 // 8, dot4 // 4)] = count // 2
        return counts

    def d8_orbits(self, half_norm: int) -> list[tuple[DoubledVector, int]]:
        """The W(D8)-orbits of E8 vectors of half-norm ``half_norm``.

        Returns (doubled representative, orbit size) pairs.  An orbit is
        fixed by its sorted absolute coordinates and, when no coordinate is
        zero, by the parity of its negative coordinates; otherwise an even
        sign change can absorb any sign.  Each representative is its orbit's
        lexicographically largest member, as :func:`_d8_dominant` gives it.
        """
        _check_int(half_norm, "half-norm")
        out = []
        for parity in (0, 1):
            for absolutes in _descending_squares(8 * half_norm, parity, 8, isqrt(8 * half_norm)):
                arrangements = factorial(8) // prod(factorial(k) for k in Counter(absolutes).values())
                nonzero = sum(1 for a in absolutes if a)
                if nonzero < 8:
                    reps, signs = [absolutes], 2**nonzero
                else:
                    reps, signs = [absolutes, absolutes[:-1] + (-absolutes[-1],)], 2**7
                out += [(rep, arrangements * signs) for rep in reps if self.contains_doubled(rep)]
        return out

    def least_vector(self, half_norm: int) -> DoubledVector:
        # -1 is an even sign change, and negation reverses the lexicographic order
        return tuple(-a for a in max(rep for rep, _ in self.d8_orbits(half_norm)))

    def e8_classes(self, half_norm: int) -> list[tuple[DoubledVector, int]]:
        """The W(E8)-orbits of E8 vectors of half-norm ``half_norm``.

        Returns (doubled representative, orbit size) pairs: the W(D8)-orbits
        grouped by their W(E8)-dominant vector (:func:`_e8_dominant`), their
        sizes added, each class represented by its first D8 representative
        with the most zero coordinates (the cheapest coordinate product).
        """
        classes: dict[DoubledVector, list] = {}
        for rep, size in self.d8_orbits(half_norm):
            entry = classes.setdefault(_e8_dominant(rep), [rep, 0])
            if rep.count(0) > entry[0].count(0):
                entry[0] = rep
            entry[1] += size
        return [(rep, size) for rep, size in classes.values()]

    def siegel_counts(self, trunc: int) -> TripleCounts:
        _check_int(trunc, "truncation")
        counts: TripleCounts = {}
        for m in range(trunc + 1):
            for rep, size in self.e8_classes(m):
                for (n, r), count in self.theta_counts(rep, trunc).items():
                    counts[(n, r, m)] = counts.get((n, r, m), 0) + size * count
        return counts


class _SquareLattice(Lattice):
    """The lattice L + L, built from one base lattice L."""

    def __init__(self, name: str, base: Lattice):
        self.name = name
        self.rank = 2 * base.rank
        self._base = base

    def contains_doubled(self, y: DoubledVector) -> bool:
        # the base rejects a half of the wrong length
        split = self._base.rank
        return self._base.contains_doubled(y[:split]) and self._base.contains_doubled(y[split:])

    def doubled_vectors(self, max_half_norm: int) -> list[DoubledVector]:
        vectors = self._base.doubled_vectors(max_half_norm)
        by_norm: dict[int, list[DoubledVector]] = {}
        for y in vectors:
            by_norm.setdefault(sum(a * a for a in y) // 8, []).append(y)
        out = []
        for a in vectors:
            for h in range(max_half_norm - sum(x * x for x in a) // 8 + 1):
                out += [a + b for b in by_norm.get(h, ())]
        out.sort()
        return out

    def theta_counts(self, w: DoubledVector, trunc: int) -> Counts:
        split = self._base.rank
        left = self._base.theta_counts(w[:split], trunc)
        right = self._base.theta_counts(w[split:], trunc)
        return JacobiSeries._convolve(left, right, trunc)

    def least_vector(self, half_norm: int) -> DoubledVector:
        _check_int(half_norm, "half-norm")
        # the left half decides the order; every half-norm occurs in the base
        h = min(range(half_norm + 1), key=self._base.least_vector)
        return self._base.least_vector(h) + self._base.least_vector(half_norm - h)

    def siegel_counts(self, trunc: int) -> TripleCounts:
        counts = self._base.siegel_counts(trunc)
        return SiegelSeries._convolve(counts, counts, trunc)


E8 = _E8()
E8_E8 = _SquareLattice("e8e8", E8)

LATTICES: dict[str, Lattice] = {E8.name: E8, E8_E8.name: E8_E8}


def enumerate_vectors(lattice: Lattice, max_half_norm: int) -> list[tuple[Fraction, ...]]:
    """All lattice vectors x with x.x/2 <= max_half_norm, lexicographic order."""
    half = Fraction(1, 2)
    return [tuple(half * y for y in doubled) for doubled in lattice.doubled_vectors(max_half_norm)]


def jacobi_theta(
    lattice: Lattice, vector: Sequence[int | Fraction], trunc: int
) -> JacobiSeries:
    """Theta expansion c(n, r) = #{x in L : x.x/2 = n, x.v = r}.

    Weight rank/2, index v.v/2.  The fixed vector must lie in the lattice.
    """
    _check_int(trunc, "truncation")
    doubled_v = _double(vector)
    if doubled_v is None or not lattice.contains_doubled(doubled_v):
        raise ValueError(f"vector {_key_text(vector)} is not in lattice {lattice.name}")
    index8 = sum(a * a for a in doubled_v)
    if index8 % 8:
        raise InvariantError(f"lattice vector {_key_text(vector)} has odd norm")
    counts = lattice.theta_counts(doubled_v, trunc)
    return JacobiSeries._from_integers((lattice.rank // 2, index8 // 8), trunc, 1, counts)


def siegel_theta(lattice: Lattice, trunc: int) -> SiegelSeries:
    """Degree-2 theta a(n, r, m) = #{(x, y) : x.x/2 = n, y.y/2 = m, x.y = r}."""
    _check_int(trunc, "truncation")
    return SiegelSeries._from_integers((lattice.rank // 2,), trunc, 1, lattice.siegel_counts(trunc))


@lru_cache(maxsize=None, typed=True)  # untyped, True and 1.0 would hit the entry of 1 unchecked
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n from the defining recurrence."""
    _check_int(n, "Bernoulli index n")
    if n == 0:
        return Fraction(1)
    return Fraction(-sum(comb(n + 1, j) * bernoulli(j) for j in range(n)), n + 1)


def divisor_power_sum(n: int, k: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def eisenstein_q(weight: int, trunc: int) -> EllipticSeries:
    """Normalised Eisenstein series 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    _check_int(weight, "Eisenstein weight", 4)
    _check_int(trunc, "truncation")
    if weight % 2:
        raise ValueError(f"Eisenstein weight must be even, got {_text(weight)}")
    factor = Fraction(-2 * weight) / bernoulli(weight)
    coeffs: dict[int, Fraction] = {0: Fraction(1)}
    for n in range(1, trunc + 1):
        coeffs[n] = factor * divisor_power_sum(n, weight - 1)
    return EllipticSeries(weight, trunc, coeffs)


def _d8_dominant(y: DoubledVector) -> DoubledVector:
    """The lexicographically largest member of the W(D8)-orbit of ``y``.

    All absolute values sorted descending; when no coordinate is zero the
    sign parity is fixed, so an odd number of negative signs in ``y``
    negates the last (smallest) coordinate.
    """
    out = sorted((abs(a) for a in y), reverse=True)
    if all(out) and sum(1 for a in y if a < 0) % 2:
        out[-1] = -out[-1]
    return tuple(out)


_E8_BETA: DoubledVector = (1, -1, -1, -1, -1, -1, -1, 1)


def _e8_dominant(y: DoubledVector) -> DoubledVector:
    """The W(E8)-dominant member of the orbit of the doubled E8 vector ``y``,
    which must be D8-dominant, as every ``d8_orbits`` representative is.

    The closed E8 chamber is the D8 chamber (y_1 >= ... >= y_7 >= |y_8|)
    cut by t = y.b >= 0, b = ``_E8_BETA``; below it, reflect in the root
    b/2 (t is divisible by 4) and sort again.  Each step raises the pairing
    with the Weyl vector, so the descent ends; each W(E8)-orbit meets the
    closed chamber once, so the result keys the orbit.
    """
    while (t := sum(a * b for a, b in zip(y, _E8_BETA))) < 0:
        y = _d8_dominant(tuple(a - (t // 4) * b for a, b in zip(y, _E8_BETA)))
    return y


def standard_index_vector(lattice: Lattice, index: int) -> tuple[Fraction, ...]:
    """Deterministic lattice vector of half-norm ``index`` for theta fixtures.

    For E8 at index 1 this is the pinned vector (1, -1, 0, ..., 0); in every
    other case the lexicographically smallest vector of the right norm.
    """
    _check_int(index, "index", 1)
    if lattice is E8 and index == 1:
        return tuple(Fraction(c) for c in E8_INDEX1_VECTOR)
    return tuple(Fraction(a, 2) for a in lattice.least_vector(index))
