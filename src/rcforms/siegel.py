"""Degree-2 expansions, the determinant-type heat operator, and its brackets.

A degree-2 expansion is a finite map (n, r, m) -> rational on the block
0 <= n, m <= trunc with the transpose symmetry a(n, r, m) = a(m, r, n),
kept as integer numerators over one denominator like every series; its
slice at fixed m is a Jacobi-type expansion of index m.  The operator
``delta_op`` multiplies a(n, r, m) by 4*n*m - r**2, which is the
(2*pi*i)**-2 scaling of the determinant of the matrix of partial
derivatives in the three variables; on each slice it restricts to the
index-m heat operator of :mod:`rcforms.series`.

The order-l bracket is computed along two independent routes that must
agree exactly.  The direct route keeps the operator form
sum C(r, s, p) delta^p(delta^r(F) * delta^s(G)) on integer numerators;
delta^p multiplies a key by D^p, D = 4*n*m - r**2, so it sums each output
key once, by Horner's rule in D.  The slice route sums the order-2l Jacobi
brackets at x = 0 of the slices of F and G, slice m + m' of the
output collecting the pairs (f_m, g_m').  It runs as one pass of the Jacobi
bracket kernel of :mod:`rcforms.brackets` over the (n, m) rows of F and G:
at x = 0 and even order every slice pair shares the kernel's weight lists,
and a slice coefficient's heat value 4*n*m - r**2 is its delta value.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping

from .brackets import BracketParams, _bracket_sum, _check_operands, bracket_terms
# not called here any more; perfbench's tracer rebinds bracket_jacobi in this module by name
from .brackets import bracket_jacobi  # noqa: F401
from .series import (
    _PRODUCT,
    CheckResult,
    JacobiSeries,
    Key,
    _integer_form,
    _merged,
    _packed_products,
    _SparseSeries,
    _text,
    _value_text,
    form_witness,
)

TripleKey = tuple[int, int, int]


class SymmetryError(ValueError):
    """A degree-2 coefficient map violates a(n, r, m) = a(m, r, n)."""

    def __init__(self, key: TripleKey, value, mirrored):
        n, r, m = map(_text, key)
        super().__init__(
            f"symmetry violation: a({n},{r},{m}) = {_value_text(value)} but a({m},{r},{n}) = {_value_text(mirrored)}"
        )
        self.key = key


class SiegelSeries(_SparseSeries):
    """Truncated expansion a(n, r, m) q^n zeta^r qq^m, symmetric in (n, m).

    Construction validates the transpose symmetry, on the public
    constructor and on every series built from integers alike, so every
    series built by the package operations satisfies it by induction.
    Immutable.
    """

    __slots__ = ()

    def _store(self, tags: tuple, trunc: int, den: int, num: Mapping[TripleKey, int]) -> None:
        super()._store(tags, trunc, den, num)
        num = self._num
        for (n, r, m), value in num.items():
            if num.get((m, r, n), 0) != value:
                raise SymmetryError((n, r, m), self[(n, r, m)], self[(m, r, n)])

    @staticmethod
    def _fits(key: TripleKey, trunc: int) -> bool:
        n, _, m = key
        return 0 <= n <= trunc and 0 <= m <= trunc

    @staticmethod
    def _convolve(a_int: Mapping[TripleKey, int], b_int: Mapping[TripleKey, int], trunc: int) -> dict[TripleKey, int]:
        """{key: total} of the product of two integer maps whose keys fit ``trunc``,
        one packed product per pair of (n, m) row runs."""
        left: dict[tuple[int, int], list[tuple[int, tuple[int]]]] = {}
        right: dict[tuple[int, int], list[tuple[int, tuple[int]]]] = {}
        for blocks, coeffs in ((left, a_int), (right, b_int)):
            for (n, r, m), value in coeffs.items():
                blocks.setdefault((n, m), []).append((r, (value,)))
        rows = _packed_products(left, right, SiegelSeries._row_pairs, trunc, _PRODUCT)
        return {
            (n, r, m): total
            for (n, m), sums in rows.items()
            for lo, (digits,) in sums
            for r, total in enumerate(digits, lo)
            if total
        }

    @staticmethod
    def _row_pairs(left: Iterable[tuple[int, int]], right: Iterable[tuple[int, int]], trunc: int) -> list[tuple]:
        """((n1, m1), (n2, m2), (n1 + n2, m1 + m2)) for the rows of the two operands inside the block."""
        return [
            ((n1, m1), (n2, m2), (n1 + n2, m1 + m2))
            for n1, m1 in left
            for n2, m2 in right
            if n1 + n2 <= trunc and m1 + m2 <= trunc
        ]

    # -- the bracket kernel's views (see rcforms.brackets._bracket_pass) -----

    def _kernel_entries(self, trunc: int) -> list[tuple[tuple[int, int], int, int, int]]:
        """((n, m), r, 4*n*m - r**2, numerator) for the stored keys (n, r, m) that fit ``trunc``."""
        return [((n, m), r, 4 * n * m - r * r, a) for (n, r, m), a in self._restricted(trunc).items()]

    @staticmethod
    def _kernel_keys(other: SiegelSeries, rows: Mapping[tuple[int, int], list]) -> list:
        """((n, r, mu), 4*n*mu - r**2, digits) for the read-back (n, mu) rows of a bracket."""
        return [
            ((n, r, mu), 4 * n * mu - r * r, digits)
            for (n, mu), spans in rows.items()
            for lo, columns in spans
            for r, digits in enumerate(zip(*columns), lo)
        ]

    def _slices(self, ms: range) -> list[JacobiSeries]:
        """[f_m for m in ms], f_m(n, r) = a(n, r, m) at the series' truncation and zero where
        nothing is stored, from one scan of the store, so the cost follows the stored
        coefficients and ``ms``, not the truncation."""
        rows: dict[int, dict[Key, int]] = {m: {} for m in ms}
        for (n, r, m), value in self._num.items():
            if m in rows:
                rows[m][(n, r)] = value
        weight, trunc, den = self.weight, self.trunc, self._den
        return [JacobiSeries._from_integers((weight, m), trunc, den, row) for m, row in rows.items()]

    def slice_component(self, m: int) -> JacobiSeries:
        """The index-m Jacobi slice f_m(n, r) = a(n, r, m)."""
        if not 0 <= m <= self.trunc:
            raise ValueError(f"slice index {_text(m)} outside [0, {_text(self.trunc)}]")
        return self._slices(range(m, m + 1))[0]

    def components(self) -> list[JacobiSeries]:
        """The slices f_0, ..., f_trunc."""
        return self._slices(range(self.trunc + 1))

    __neg__, __add__, __mul__, truncated = (
        _SparseSeries.__neg__, _SparseSeries.__add__, _SparseSeries.__mul__, _SparseSeries.truncated
    )


def siegel_from_components(components: list[JacobiSeries]) -> SiegelSeries:
    """Assemble a degree-2 expansion from its Jacobi slices f_0, ..., f_T.

    Slice m must have index m, all slices the common weight, and truncation
    at least T = len(components) - 1; each slice is cut to T by the store,
    which drops keys with n > T.  The transpose symmetry of the result is
    validated, not assumed.
    """
    if not components:
        raise ValueError("need at least the m = 0 component")
    trunc = len(components) - 1
    weight = components[0].weight
    parts = []
    for m, part in enumerate(components):
        if part.index != m:
            raise ValueError(f"component {m} has index {_text(part.index)}, expected {m}")
        if part.weight != weight:
            raise ValueError(f"component {m} has weight {_text(part.weight)}, expected {_text(weight)}")
        if part.trunc < trunc:
            raise ValueError(f"component {m} truncated at {_text(part.trunc)} < {trunc}")
        parts.append((part._den, {(n, r, m): v for (n, r), v in part._restricted(trunc).items()}))
    return SiegelSeries._from_integers((weight,), trunc, *_merged(parts))


def delta_op(F: SiegelSeries) -> SiegelSeries:
    """Multiply a(n, r, m) by 4*n*m - r**2; weight tag advances by 2.

    On the index-m slice this is exactly the heat operator, so slicing and
    delta_op commute through :func:`rcforms.series.heat`.
    """
    num = {(n, r, m): d * a for (n, r, m), a in F._num.items() if (d := 4 * n * m - r * r)}
    return F._like(F.trunc, F._den, num, 2)


def _even_order_params(name: str, F: SiegelSeries, G: SiegelSeries, l: int) -> BracketParams:
    """The order-2l record of the degree-2 bracket ``name`` of F and G, the set-up of both routes.

    The record checks l as any order, so an error names l, not 2l.  Indices
    0: the direct route reads only C(r, s, p), and at x = 0 the slice
    route's index lists are all 1 whatever the slices' indices.
    """
    _check_operands(name, SiegelSeries, F, G)
    return BracketParams(F.weight, G.weight, 0, 0, l)._replace(v=2 * l)


def bracket_siegel_direct(F: SiegelSeries, G: SiegelSeries, l: int) -> SiegelSeries:
    """Order-l bracket sum C(r, s, p) delta^p(delta^r(F) * delta^s(G)).

    Uses the even-order coefficient family of :mod:`rcforms.brackets` with
    v = 2*l, set up as for the slice route (``_even_order_params`` checks F,
    G and l); output weight is F.weight + G.weight + 2*l.  For l > 0 every
    slice of the output is supported in the open cone r**2 < 4*n*m, so the
    m = 0 and n = 0 slices vanish identically.

    The sum runs on integers: the stored numerators of F and G, and the
    C(r, s, p) of :func:`rcforms.brackets.bracket_terms` over their common
    denominator.  Each coefficient carries delta^0..delta^l of itself as
    columns, so each (n, m) row of an input packs once; the product of
    delta^r(F) and delta^s(G) is one slot of the packed series product.
    Each output key is summed once, as sum C(r, s, p) * D^p times its slot
    (r, s) with D = 4*n*m - r**2, by Horner's rule in D.  The sums go to the
    store over the product of the three denominators, which reduces them
    once; no ``Fraction`` is built.
    """
    params = _even_order_params("bracket_siegel_direct", F, G, l)
    trunc = min(F.trunc, G.trunc)
    den_c, c_int = _integer_form({(t.r, t.s, t.p): t.c_value for t in bracket_terms(params) if t.c_value})

    def powers(coeffs):
        """{(n, m): [(r, [delta^e a for e = 0..l])]} over the integer numerators a."""
        rows: dict[tuple[int, int], list] = {}
        for (n, r, m), value in coeffs.items():
            disc, values = 4 * n * m - r * r, [value]
            for _ in range(l):
                values.append(values[-1] * disc)
            rows.setdefault((n, m), []).append((r, values))
        return rows

    slots = [[(r, s)] for r, s, _ in c_int]
    f_rows, g_rows = powers(F._restricted(trunc)), powers(G._restricted(trunc))
    sums = _packed_products(f_rows, g_rows, SiegelSeries._row_pairs, trunc, slots)
    # Horner's rule in D: the slots' (index, C) grouped by p, from p = l down to 0
    layers = [[(k, c) for k, ((_, _, p), c) in enumerate(c_int.items()) if p == q] for q in range(l, -1, -1)]
    coeffs = {}
    for (n, m), spans in sums.items():
        for lo, columns in spans:
            for r, digits in enumerate(zip(*columns), lo):
                disc, total = 4 * n * m - r * r, 0
                for layer in layers:
                    total = total * disc + sum(c * digits[k] for k, c in layer)
                if total:
                    coeffs[(n, r, m)] = total
    return F._joined(G, 2 * l, F._den * G._den * den_c, coeffs)


def bracket_siegel_via_jacobi(F: SiegelSeries, G: SiegelSeries, l: int) -> SiegelSeries:
    """Order-l bracket assembled slice by slice from Jacobi brackets at x = 0.

    Slice mu of the output is the sum over m + m' = mu of the order-2l
    Jacobi brackets at x = 0 of the slices f_m and g_m'; only complete
    slices mu <= trunc are emitted.  At x = 0 and even order the index
    factors (1 - m'x)^r and (1 + mx)^s are all 1, so every slice pair
    shares the Jacobi kernel's weight lists A, B and G, which depend only
    on the weights; a slice coefficient's heat value 4*n*m - r**2 is its
    degree-2 delta value, and output slice mu has D = 4*n*mu - r**2.  So the
    whole sum is one pass of the Jacobi bracket kernel over the (n, m) rows
    of F and G, paired by ``SiegelSeries._row_pairs``, followed by the same
    Horner rule in D (:func:`rcforms.brackets._bracket_sum`).  Its cost
    follows the stored coefficients, not the truncation, and it never
    touches the C(r, s, p) family or the delta rule of the direct route.
    Agrees exactly with :func:`bracket_siegel_direct`, whose set-up it shares.
    """
    params = _even_order_params("bracket_siegel_via_jacobi", F, G, l)
    return F._joined(G, 2 * l, *_bracket_sum(F, G, params))


class ConsistencyReport(namedtuple("ConsistencyReport", "checks")):
    """The tuple of per-slice :class:`CheckResult` of one degree-2 expansion."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.checks)

    def failures(self) -> list[CheckResult]:
        return [item for item in self.checks if not item.passed]


def check_siegel_consistency(F: SiegelSeries) -> ConsistencyReport:
    """Run the coefficient-level form checks on a degree-2 expansion.

    One result per slice with index m >= 1:
    :func:`rcforms.series.form_witness` (holomorphic support, disc-class
    invariance, parity).  The transpose symmetry is not rechecked here:
    :class:`SiegelSeries` raises :class:`SymmetryError` at construction.
    """
    return ConsistencyReport(tuple(
        CheckResult.first(f"slice {m} form checks", [form_witness(part)])
        for m, part in enumerate(F.components()[1:], 1)
    ))
