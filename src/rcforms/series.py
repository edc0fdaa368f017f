"""Sparse truncated Fourier expansions over exact rationals.

A bivariate expansion sum c(n, r) q^n zeta^r is stored as integer
numerators over one denominator: a map (n, r) -> nonzero int and a positive
int d with c(n, r) = numerator / d, absent entries meaning zero.  The form
is canonical (d and the numerators share no factor, so d is the least
common denominator of the values, and the zero series has d = 1), so two
series are equal exactly when their maps and denominators are.  Every
operation runs on the integers; a ``Fraction`` is built only where a value
leaves the store (indexing and ``items``).  A series of truncation N
promises that every q^n coefficient with 0 <= n <= N is complete.  All
scalars are exact rationals; floats are rejected everywhere.

The differential operators are normalised so that coefficients stay
rational: ``theta_q`` is d/dtau divided by 2*pi*i (multiplier n), ``d_z``
is d/dz divided by 2*pi*i (multiplier r), and ``heat`` is the index-m heat
operator 8*pi*i*m*d/dtau - d^2/dz^2 divided by (2*pi*i)**2, which acts on
the (n, r) coefficient as multiplication by 4*n*m - r**2.  Weight tags
advance with the differential order of the operator (d_z by 1, theta_q and
heat by 2); for theta_q and d_z this is bookkeeping only and carries no
modularity claim.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm

Key = tuple[int, int]

DiscClassWitness = tuple[Key, Fraction, Key, Fraction]


class InvariantError(ArithmeticError):
    """An internal invariant of an exact computation does not hold.

    Raised instead of ``assert``, so the check also runs under ``python -O``.
    """


def as_rational(x: int | Fraction) -> Fraction:
    """Coerce an exact scalar; anything float-like is rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalar expected (int or Fraction), got {type(x).__name__}")


_ZERO = Fraction(0)


# Ints go to text through Decimal, exact at any length: str(int) stops at the
# interpreter-wide int/str digit limit, left unchanged here.
def _text(x: int) -> str:
    return str(Decimal(x))


def _value_text(x: int | Fraction) -> str:
    """An exact value as ``str`` writes a ``Fraction`` ("n" or "n/d"), at any length.

    The one formatter of values in witness, error and check-detail text.
    """
    num, den = x.numerator, x.denominator
    return _text(num) if den == 1 else f"{_text(num)}/{_text(den)}"


# The one writer of keys and coordinate vectors in text: "(a, b, ...)" of exact
# values, or a bare int key (EllipticSeries) as the bare int.
def _key_text(key) -> str:
    return _text(key) if isinstance(key, int) else f"({', '.join(map(_value_text, key))})"


def _integer_form(coeffs) -> tuple[int, dict]:
    """(d, {key: d * value}) for a map or pairs key -> exact scalar, d the least common denominator.

    The one denominator-clearing rule, for the constructors' input, the
    C(r, s, p) families (the recursion check, the direct degree-2 bracket)
    and the rank rows.  Unless every value is an int or a ``Fraction``, all
    go through :func:`as_rational` (floats raise ``TypeError``); zero
    values stay, so that ``_store`` checks their keys too.
    """
    values = dict(coeffs)
    if not {type(value) for value in values.values()} <= {int, Fraction}:
        values = {key: as_rational(value) for key, value in values.items()}
    den = lcm(*{v.denominator for v in values.values()})
    return den, {k: v.numerator * (den // v.denominator) for k, v in values.items()}


def _merged(parts: Iterable[tuple[int, Mapping[object, int]]]) -> tuple[int, dict]:
    """(d, the numerators over d of the sum of the (den, numerator map) parts), d the lcm of the dens.

    The one rule that adds numerator maps: series sums and the slices of a
    degree-2 assembly.
    """
    parts = list(parts)
    den, out = lcm(*[d for d, _ in parts]), {}
    for d, num in parts:
        scale = den // d
        for key, value in num.items():
            out[key] = out.get(key, 0) + scale * value
    return den, out


# -- packed rows (Kronecker substitution) -------------------------------------
#
# The integer product loops multiply whole rows.  A row of (r, values)
# entries is cut into runs that hold at least one entry per two r-slots, and
# each value column of a run packs into one int, sum value * 2**(bits*(r - lo))
# with lo the run's least r, so the product of two packed runs holds at digit
# r1 + r2 - lo1 - lo2 the sum of the entry products with that r1 + r2.  The
# run products of an output row whose digit spans meet are summed, each
# shifted to their least lo1 + lo2, and each sum is read back once.  Runs
# and sums cover only r-slots next to stored entries, so the cost follows
# the stored entries, however far apart in r they lie.


def _packed_rows(rows: Mapping[object, list], bits: int) -> dict:
    """{key: [(lo, hi, [packed column, ...]), ...]}: each row cut into runs and packed.

    A row is a list of (r, values) entries with distinct r and one int per
    column in values; it is sorted in place.  In ascending r, an entry more
    than two r-slots above the one before it starts a new run, so at least
    every other r-slot of a run holds an entry.  A run with entries at
    r = lo..hi packs column j into sum values[j] * 2**(bits*(r - lo)).
    """
    out = {}
    for key, row in rows.items():
        row.sort()
        runs, hi = [], None
        for r, values in row:
            if hi is None or r - hi > 2:
                if hi is not None:
                    runs.append((lo, hi, columns))
                lo, columns = r, [0] * len(values)
            shift = bits * (r - lo)
            for j, value in enumerate(values):
                columns[j] += value << shift
            hi = r
        runs.append((lo, hi, columns))
        out[key] = runs
    return out


def _row_products(left: Mapping, right: Mapping, pairs: Iterable[tuple], bits: int, slots: list) -> dict:
    """{row: [(lo, [digits, ...]), ...]}: the products of two maps of packed rows, by output row.

    ``left`` and ``right`` map a row key to its packed runs
    (:func:`_packed_rows`) and ``pairs`` lists (row1, row2, output row).
    Each slot lists (p, q) column pairs: slot k of two runs with columns a
    and b is the sum of a[p] * b[q] over its (p, q).  The run products of
    an output row are taken by ascending least r; those whose digit spans
    meet or touch are summed, each shifted to the least lo1 + lo2 of the
    sum, and each sum is read back once per slot, as (lo, one digit list
    per slot) with digit i at r = lo + i.  The sums of a row cover disjoint
    spans of r, and every r-slot of a sum lies in the span of one of its
    run products.
    """
    groups: dict[object, list[tuple]] = {}
    for row1, row2, row in pairs:
        items = groups.setdefault(row, [])
        for lo1, hi1, a in left[row1]:
            for lo2, hi2, b in right[row2]:
                items.append((lo1 + lo2, hi1 + hi2, a, b))
    out = {}
    for row, items in groups.items():
        items.sort()
        sums, members, (lo, hi, *_) = [], [], items[0]
        for item in items:
            if item[0] > hi + 1:
                sums.append(_read_sum(members, lo, hi, bits, slots))
                members, (lo, hi, *_) = [], item
            elif item[1] > hi:
                hi = item[1]
            members.append(item)
        sums.append(_read_sum(members, lo, hi, bits, slots))
        out[row] = sums
    return out


def _read_sum(items: list[tuple], lo: int, hi: int, bits: int, slots: list) -> tuple[int, list[list[int]]]:
    """(lo, [digits of each slot]) for the run products ``items``, which cover the r-slots lo..hi."""
    totals = [sum([a[p] * b[q] << bits * (low - lo) for p, q in slot for low, _, a, b in items]) for slot in slots]
    return lo, [_unpack(total, hi - lo + 1, bits) for total in totals]


def _unpack(total: int, count: int, bits: int) -> list[int]:
    """The signed digits d_0..d_{count-1} of total = sum d_i * 2**(bits*i), read in one pass.

    Every digit must lie within the bound of :func:`_packed_products`.  A
    bias of 2**(bits - 1) per digit lifts each digit into [0, 2**bits)
    without a carry, so each bits-wide field of the biased total, taken
    from its bytes, is a digit plus the bias.
    """
    width, half = bits // 8, 1 << (bits - 1)
    bias = _from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    data = (total + bias).to_bytes(width * count, "little")
    return [_from_bytes(data[i : i + width], "little") - half for i in range(0, width * count, width)]


_from_bytes = int.from_bytes


def _packed_products(
    left: Mapping[object, list], right: Mapping[object, list], row_pairs, trunc: int, slots: list
) -> dict:
    """{row: [(lo, [digits of each slot]), ...]}: products of two maps of rows, digit i at r = lo + i.

    ``left`` and ``right`` map a row key to its (r, values) entries with
    int values, one per column; ``row_pairs(left_keys, right_keys, trunc)``
    lists the (row1, row2, output row) of every pair of rows inside the
    truncation.  A slot lists one or more (p, q) column pairs, and its digit
    at r sums left[p] * right[q] over its (p, q) and over the entry pairs
    with r1 + r2 = r.  One product per (p, q) and pair of runs
    (:func:`_packed_rows`), read back by :func:`_row_products`.

    This is the one digit bound of the package.  An output key meets each
    left entry at most once (its partner on the right is then fixed) and
    each right entry at most once, so it collects at most
    min(#left entries, #right entries) pairs, and a pair adds to a slot at
    most the sum over its (p, q) of max|left column p| * max|right column q|.
    The digit width of b bits, a whole number of bytes, keeps the largest
    slot's bound below 2**(b - 1), so every digit reads back as a signed
    digit.
    """
    if not left or not right:
        return {}
    count_a, max_a = _column_bounds(left)
    count_b, max_b = _column_bounds(right)
    bound = min(count_a, count_b) * max(sum(max_a[p] * max_b[q] for p, q in slot) for slot in slots)
    bits = 8 * (bound.bit_length() // 8 + 1)
    pairs = row_pairs(left, right, trunc)
    return _row_products(_packed_rows(left, bits), _packed_rows(right, bits), pairs, bits, slots)


def _column_bounds(rows: Mapping[object, list]) -> tuple[int, list[int]]:
    """(number of entries, [max |value| of each column]) of a map of rows of (r, values) entries."""
    entries = [values for row in rows.values() for _, values in row]
    return len(entries), [max(map(abs, column)) for column in zip(*entries)]


_PRODUCT = [[(0, 0)]]


class _SparseSeries:
    """Exact coefficient store shared by every series kind.

    A series is a finite map key -> nonzero int numerator ``_num`` over one
    positive int denominator ``_den``, in canonical form (gcd(_den, *_num)
    = 1, so ``_den`` is the least common denominator of the values and the
    zero series has ``_den`` = 1), an int truncation >= 0, and the int tags
    named by ``_TAGS`` (constructor order, weight first, the rest >= 0).  The
    public constructor takes exact values; every derived series is built
    from integers through ``_store``, which validates and reduces once, and
    a ``Fraction`` is built only where a value leaves the store
    (``__getitem__``, ``items``).  The store builds every derived series:
    ``_like`` steps the weight (the operators), ``_joined`` adds two series'
    tags plus a bilinear order on the smaller truncation (products, brackets)
    and ``first_difference`` compares two series.  Each kind supplies its key
    rule, ``_fits``, which tells whether a key lies inside a truncation, and
    ``_restricted`` is the one place that cuts an operand to a truncation; a
    kind multiplied by the store's ``*`` also supplies ``_convolve``, which
    takes two integer maps whose keys already fit the truncation, groups
    them into rows (by n, or by (n, m)) and multiplies them through
    ``_packed_products`` (one product per pair of packed runs) under the
    kind's ``_row_pairs`` rule.  The store owns the ring operations:
    ``-``, ``+`` (same kind and tags), ``*`` (same kind by ``_convolve``,
    an int or ``Fraction`` by ``_scaled``, anything else
    ``NotImplemented``) and ``truncated``.
    Instances are immutable after construction and safe to share; all
    operations return new series.
    """

    __slots__ = ("weight", "trunc", "_den", "_num")
    _TAGS: tuple[str, ...] = ("weight",)

    def __init__(
        self,
        weight: int,
        trunc: int,
        coeffs: Mapping[object, int | Fraction] | Iterable[tuple[object, int | Fraction]] = (),
    ):
        self._store((weight,), trunc, *_integer_form(coeffs))

    @classmethod
    def _from_integers(cls, tags: tuple, trunc: int, den: int, num: Mapping[object, int]):
        """The series of kind ``cls`` with values num[key] / den, built through ``_store``."""
        series = cls.__new__(cls)
        series._store(tags, trunc, den, num)
        return series

    def _store(self, tags: tuple, trunc: int, den: int, num: Mapping[object, int]) -> None:
        """Set tags and truncation, then validate num / den and keep it in canonical form.

        Tags and truncation must be ints, and the truncation and every tag
        after the weight non-negative.  Every key must fit the truncation,
        zero values included; the values must be ints (``gcd`` rejects
        anything else) and ``den`` positive.  Zeros are dropped and the
        common factor of den and the numerators divided out.
        """
        for name, value in zip((*self._TAGS, "trunc"), (*tags, trunc)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
            if value < 0 and name != "weight":
                raise ValueError(f"{'truncation' if name == 'trunc' else name} must be non-negative, got {_text(value)}")
        if not isinstance(den, int) or den < 1:
            raise InvariantError(f"denominator must be a positive int, got {den!r}")
        for name, value in zip(self._TAGS, tags):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "trunc", trunc)
        fits = self._fits
        store = {}
        for key, value in num.items():
            if not fits(key, trunc):
                raise ValueError(f"coefficient key {_key_text(key)} outside truncation {_text(trunc)}")
            if value:
                store[key] = value
        common = gcd(den, *store.values())
        if common > 1:
            den //= common
            store = {key: value // common for key, value in store.items()}
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_num", store)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuild through the constructor: the default slot restore would hit __setattr__
        return type(self), (*self._tags(), self.trunc, dict(self.items()))

    def _tags(self) -> tuple:
        return tuple(getattr(self, name) for name in self._TAGS)

    @classmethod
    def zero(cls, *tags_and_trunc: int):
        """The zero series with the given tags and truncation."""
        return cls(*tags_and_trunc)

    def _like(self, trunc: int, den: int, num: Mapping[object, int], step: int = 0):
        """num / den as a series of the same kind and tags, its weight advanced by ``step``."""
        weight, *rest = self._tags()
        return self._from_integers((weight + step, *rest), trunc, den, num)

    def _joined(self, other, order: int, den: int, num: Mapping[object, int]):
        """num / den as an order-``order`` bilinear output: tags added, weight plus order, smaller truncation."""
        weight, *rest = (x + y for x, y in zip(self._tags(), other._tags()))
        return self._from_integers((weight + order, *rest), min(self.trunc, other.trunc), den, num)

    # -- queries -------------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        value = self._num.get(key)
        return _ZERO if value is None else Fraction(value, self._den)

    def items(self) -> list:
        """Nonzero coefficients in ascending key order."""
        num, den = self._num, self._den
        return [(key, Fraction(num[key], den)) for key in sorted(num)]

    def support(self) -> list:
        return sorted(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def first_difference(self, other):
        """The least key at which the coefficients of self and other differ, or None.

        a / d_a and b / d_b differ exactly when a * d_b != b * d_a.
        """
        a, b = self._num, other._num
        da, db = self._den, other._den
        keys = a.keys() | b.keys()
        return min((key for key in keys if a.get(key, 0) * db != b.get(key, 0) * da), default=None)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self._tags() == other._tags()
            and self.trunc == other.trunc
            and self._den == other._den
            and self._num == other._num
        )

    __hash__ = None

    def __repr__(self) -> str:
        fields = [f"{name}={_text(getattr(self, name))}" for name in self._TAGS]
        fields += [f"trunc={_text(self.trunc)}", f"terms={len(self._num)}"]
        return f"{type(self).__name__}({', '.join(fields)})"

    # -- restrict and scale --------------------------------------------------

    def _restricted(self, trunc: int) -> Mapping[object, int]:
        """The numerators whose keys fit ``trunc`` (over ``_den``); read only, as it may be ``_num`` itself."""
        if trunc >= self.trunc:
            return self._num
        fits = self._fits
        return {k: v for k, v in self._num.items() if fits(k, trunc)}

    def _scaled(self, c: int | Fraction):
        c = as_rational(c)
        p = c.numerator
        return self._like(self.trunc, self._den * c.denominator, {k: p * v for k, v in self._num.items()})

    # -- ring operations: each kind binds these by name in its class body,
    # where perfbench's tracer finds them (it wraps the methods in vars(kind))

    def __neg__(self):
        return self._scaled(-1)

    def __add__(self, other):
        """self + other on the smaller truncation over the lcm of the denominators; tags must match."""
        if type(other) is not type(self):
            return NotImplemented
        if self._tags() != other._tags():
            tags = "/".join(self._TAGS)
            raise ValueError(f"cannot add series of {tags} {_key_text(self._tags())} and {_key_text(other._tags())}")
        trunc = min(self.trunc, other.trunc)
        return self._like(trunc, *_merged((s._den, s._restricted(trunc)) for s in (self, other)))

    def __mul__(self, other):
        """Same kind: ``_convolve`` of the numerators cut to the smaller truncation, tags added."""
        if isinstance(other, type(self)):
            trunc = min(self.trunc, other.trunc)
            products = self._convolve(self._restricted(trunc), other._restricted(trunc), trunc)
            return self._joined(other, 0, self._den * other._den, products)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def truncated(self, trunc: int):
        """Restriction to the keys that fit ``trunc`` (trunc may only shrink)."""
        if trunc > self.trunc:
            raise ValueError(f"cannot extend truncation {_text(self.trunc)} to {_text(trunc)}")
        return self._like(trunc, self._den, self._restricted(trunc))

    def __sub__(self, other):
        return self.__add__(-other)

    def __rmul__(self, other):
        return self.__mul__(other)


class JacobiSeries(_SparseSeries):
    """Truncated expansion sum_{0<=n<=trunc, r} c(n, r) q^n zeta^r.

    ``weight`` and ``index`` are bookkeeping tags carried through every
    operation.  Instances are immutable after construction and safe to
    share; all operations return new series.
    """

    __slots__ = ("index",)
    _TAGS = ("weight", "index")

    def __init__(
        self,
        weight: int,
        index: int,
        trunc: int,
        coeffs: Mapping[Key, int | Fraction] | Iterable[tuple[Key, int | Fraction]] = (),
    ):
        self._store((weight, index), trunc, *_integer_form(coeffs))

    @staticmethod
    def _fits(key: Key, trunc: int) -> bool:
        n, _ = key
        return 0 <= n <= trunc

    @staticmethod
    def _convolve(a_int: Mapping[Key, int], b_int: Mapping[Key, int], trunc: int) -> dict[Key, int]:
        """{key: total} of the product of two integer maps whose keys fit ``trunc``,
        one packed product per pair of q^n row runs."""
        left: dict[int, list[tuple[int, tuple[int]]]] = {}
        right: dict[int, list[tuple[int, tuple[int]]]] = {}
        for rows, coeffs in ((left, a_int), (right, b_int)):
            for (n, r), value in coeffs.items():
                rows.setdefault(n, []).append((r, (value,)))
        rows = _packed_products(left, right, JacobiSeries._row_pairs, trunc, _PRODUCT)
        return {
            (n, r): total
            for n, sums in rows.items()
            for lo, (digits,) in sums
            for r, total in enumerate(digits, lo)
            if total
        }

    @staticmethod
    def _row_pairs(left: Iterable[int], right: Iterable[int], trunc: int) -> list[tuple[int, int, int]]:
        """(n1, n2, n1 + n2) for the q^n rows n1 of the left and n2 of the right operand with n1 + n2 <= trunc."""
        return [(n1, n2, n1 + n2) for n1 in left for n2 in right if n1 + n2 <= trunc]

    # -- the bracket kernel's views (see rcforms.brackets._bracket_pass) -----

    def _kernel_entries(self, trunc: int) -> list[tuple[int, int, int, int]]:
        """(n, r, 4*n*m - r**2, numerator) for the stored keys (n, r) that fit ``trunc``, m the index."""
        m = self.index
        return [(n, r, 4 * n * m - r * r, a) for (n, r), a in self._restricted(trunc).items()]

    def _kernel_keys(self, other: JacobiSeries, rows: Mapping[int, list]) -> list:
        """((n, r), 4*n*mu - r**2, digits) for the read-back q^n rows of a bracket with other, mu the index sum."""
        mu = self.index + other.index
        return [
            ((n, r), 4 * n * mu - r * r, digits)
            for n, spans in rows.items()
            for lo, columns in spans
            for r, digits in enumerate(zip(*columns), lo)
        ]

    # -- construction helpers ------------------------------------------------

    @classmethod
    def one(cls, trunc: int) -> JacobiSeries:
        """Multiplicative unit: weight 0, index 0, c(0, 0) = 1."""
        return cls(0, 0, trunc, {(0, 0): 1})

    # -- queries -------------------------------------------------------------

    def _outside_cone(self, strict: bool) -> Key | None:
        """Least stored key with r**2 > 4*n*index, or r**2 + 1 > 4*n*index if ``strict``; or None."""
        m = self.index
        return min(((n, r) for n, r in self._num if r * r + strict > 4 * n * m), default=None)

    def has_holomorphic_support(self) -> bool:
        """True iff every nonzero c(n, r) satisfies r**2 <= 4*n*index."""
        return self._outside_cone(False) is None

    def has_cusp_support(self) -> bool:
        """True iff every nonzero c(n, r) satisfies r**2 < 4*n*index."""
        return self._outside_cone(True) is None

    __neg__, __add__, __mul__, truncated = (
        _SparseSeries.__neg__, _SparseSeries.__add__, _SparseSeries.__mul__, _SparseSeries.truncated
    )


class EllipticSeries(_SparseSeries):
    """Univariate q-expansion sum_{0<=n<=trunc} c(n) q^n, exact coefficients."""

    __slots__ = ()

    @staticmethod
    def _fits(n: int, trunc: int) -> bool:
        return 0 <= n <= trunc

    def as_jacobi(self) -> JacobiSeries:
        """Embedding as an index-0 series with all mass at r = 0."""
        return JacobiSeries._from_integers(
            (self.weight, 0), self.trunc, self._den, {(n, 0): v for n, v in self._num.items()}
        )

    __neg__, __add__ = _SparseSeries.__neg__, _SparseSeries.__add__

    def __mul__(self, other):
        if isinstance(other, EllipticSeries):
            product = self.as_jacobi() * other.as_jacobi()
            return self._joined(other, 0, product._den, {n: v for (n, _), v in product._num.items()})
        if isinstance(other, JacobiSeries):
            return self.as_jacobi() * other
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented


# -- scaled differential operators -------------------------------------------


def theta_q(f: JacobiSeries) -> JacobiSeries:
    """q d/dq: multiply c(n, r) by n.  Weight tag advances by 2."""
    return f._like(f.trunc, f._den, {(n, r): n * v for (n, r), v in f._num.items()}, 2)


def theta_q_elliptic(f: EllipticSeries) -> EllipticSeries:
    """q d/dq on a univariate expansion."""
    return f._like(f.trunc, f._den, {n: n * v for n, v in f._num.items()}, 2)


def d_z(f: JacobiSeries) -> JacobiSeries:
    """zeta d/dzeta: multiply c(n, r) by r.  Weight tag advances by 1."""
    return f._like(f.trunc, f._den, {(n, r): r * v for (n, r), v in f._num.items()}, 1)


def heat(f: JacobiSeries) -> JacobiSeries:
    """Heat operator at the series' own index: multiply c(n, r) by 4*n*m - r**2."""
    m = f.index
    return f._like(f.trunc, f._den, {(n, r): (4 * n * m - r * r) * v for (n, r), v in f._num.items()}, 2)


def heat_power(f: JacobiSeries, p: int) -> JacobiSeries:
    if p < 0:
        raise ValueError(f"heat power must be non-negative, got {p}")
    for _ in range(p):
        f = heat(f)
    return f


# -- coefficient-level form checks -------------------------------------------


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    """Outcome of one named check; ``detail`` holds a witness or a measurement."""

    __slots__ = ()

    @classmethod
    def first(cls, name: str, witnesses: Iterable[str]) -> CheckResult:
        """PASS, or FAIL with the first non-empty witness; stops reading there."""
        witness = next(filter(None, witnesses), "")
        return cls(name, not witness, witness)

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"{status} {self.name}{suffix}"


def _parity_failure(f: JacobiSeries) -> Key | None:
    """The least stored key (n, r) with c(n, -r) != (-1)**weight * c(n, r), or None."""
    num = f._num
    mirror = {key: -v for key, v in num.items()} if f.weight % 2 else num
    return min(((n, r) for (n, r), v in num.items() if mirror.get((n, -r), 0) != v), default=None)


def check_parity(f: JacobiSeries) -> bool:
    """True iff c(n, -r) = (-1)**weight * c(n, r) on all stored entries."""
    return _parity_failure(f) is None


def _class_members(key: Key, m: int, trunc: int) -> list[Key]:
    """The (4*n*m - r**2, r mod 2*m) class of the key (n, r), ascending in r':
    the (n + s*r + m*s**2, r + 2*m*s) over integers s with n' >= 0 and
    |r'| <= isqrt(4*m*(trunc - n) + r**2), which is n' <= trunc."""
    n, r = key
    period = 2 * m
    rmax = isqrt(4 * m * (trunc - n) + r * r)
    shifts = range(-((rmax + r) // period), (rmax - r) // period + 1)
    return [(n_s, r + period * s) for s in shifts if (n_s := n + s * r + m * s * s) >= 0]


def check_disc_class_invariance(f: JacobiSeries) -> tuple[bool, DiscClassWitness | None]:
    """Check that c(n, r) depends only on (4*n*m - r**2, r mod 2*m).

    This is the coefficient-level shadow of invariance under the lattice
    translations of the elliptic variable.  Absent entries count as zero,
    so the stored map must be the exact support (every constructor in this
    package guarantees that).  Each class is listed once, from its least
    stored key, and compared with its first member.  Returns (True, None)
    or (False, witness) with witness = ((n1, r1), c1, (n2, r2), c2).
    """
    m = f.index
    if m < 1:
        raise ValueError("disc-class invariance needs index >= 1")
    num = f._num
    seen: set[Key] = set()
    for key in sorted(num):
        if key not in seen:
            first, *others = members = _class_members(key, m, f.trunc)
            seen.update(members)
            value = num.get(first, 0)
            for other in others:
                if num.get(other, 0) != value:
                    return False, (first, f[first], other, f[other])
    return True, None


def form_witness(f: JacobiSeries, cusp: bool = False) -> str:
    """Run every coefficient-level Jacobi form check on f.

    Returns "" when f passes, or else a witness naming the first failing
    condition and its least failing key, checked in this order: holomorphic
    support, then (when ``cusp``) cusp support, disc-class invariance
    (index >= 1; at index 0 holomorphic support already forces r = 0), and
    parity.  Each condition is scanned once.
    """
    if (key := f._outside_cone(False)) is not None:
        return f"holomorphic support: c{_key_text(key)} = {_value_text(f[key])}"
    if cusp and (key := f._outside_cone(True)) is not None:
        return f"cusp support: c{_key_text(key)} = {_value_text(f[key])}"
    if f.index >= 1 and (pair := check_disc_class_invariance(f)[1]):
        first, a, other, b = pair
        return f"disc-class: c{_key_text(first)} = {_value_text(a)} vs c{_key_text(other)} = {_value_text(b)}"
    if (key := _parity_failure(f)) is not None:
        mirror = (key[0], -key[1])
        return f"parity: c{_key_text(key)} = {_value_text(f[key])} vs c{_key_text(mirror)} = {_value_text(f[mirror])}"
    return ""
