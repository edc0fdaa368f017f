"""Second construction of the brackets through formal heat-operator jets.

A form f of weight k and index m is developed into a formal power series in
an auxiliary variable w whose nu-th coefficient is a rational multiple of
heat^nu(f).  Products of two such jets (with the w variable rescaled by
index-dependent linear factors of the bracket parameter x) admit a
projection ``zeta_nu`` that lands back in a single expansion of weight
k + 2*nu.  That projection reproduces the bracket of :mod:`rcforms.brackets`
up to one nonzero rational scalar, which makes the jet pipeline an
independent oracle for the bracket assembly: the two constructions share no
coefficient formulas beyond the heat operator itself.

The scalar relating the two constructions depends only on the weights,
indices and bracket order; it is measured, never asserted.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, lcm

from .brackets import BracketParams, _check_operands, bracket_jacobi, falling_factorial
from .series import JacobiSeries, _check_int, _key_text, _packed_products, _text, _value_text, as_rational
from .series import d_z, heat, heat_power

# the jets' own weight shift K - 3/2 + nu, independent of the bracket kernel's
THREE_HALVES = Fraction(3, 2)


class CrosscheckError(ArithmeticError):
    """The two bracket constructions failed to be proportional."""


class FormalJet(namedtuple("FormalJet", "base_weight index chis")):
    """Formal expansion sum chi_nu * w^nu with series coefficients.

    All components share the index (a non-negative int) and truncation;
    component nu carries weight tag base_weight + 2*nu (base_weight exact).
    """

    __slots__ = ()

    def __new__(cls, base_weight: int, index: int, chis: tuple[JacobiSeries, ...]):
        as_rational(base_weight, "jet base weight")
        _check_int(index, "jet index")
        if not chis:
            raise ValueError("a jet needs at least its component 0")
        for nu, chi in enumerate(chis):
            if chi.index != index:
                raise ValueError(f"component {nu} has index {_text(chi.index)}, expected {_text(index)}")
            if chi.weight != (weight := base_weight + 2 * nu):
                raise ValueError(f"component {nu} has weight {_text(chi.weight)}, expected {_text(weight)}")
            if chi.trunc != chis[0].trunc:
                raise ValueError("jet components must share a truncation")
        return super().__new__(cls, base_weight, index, chis)

    @property
    def nu_max(self) -> int:
        return len(self.chis) - 1

    @property
    def trunc(self) -> int:
        return self.chis[0].trunc


def jet_of_form(f: JacobiSeries, nu_max: int) -> FormalJet:
    """Jet with chi_nu = heat^nu(f) / (nu! * prod_{i=1..nu} (k - 3/2 + i)).

    The normalising product keeps every component rational; nu-independent
    constants are irrelevant because the oracle only asserts
    proportionality.
    """
    _check_int(nu_max, "jet order")
    chis = []
    current = f
    denominator = Fraction(1)
    for nu in range(nu_max + 1):
        if nu:
            current = heat(current)
            denominator *= nu * (f.weight - THREE_HALVES + nu)
        chis.append(current if denominator == 1 else current * (1 / denominator))
    return FormalJet(f.weight, f.index, tuple(chis))


def jet_scale_w(jet: FormalJet, scale: int | Fraction) -> FormalJet:
    """Substitute w -> scale * w: component nu picks up scale**nu."""
    scale = as_rational(scale, "jet scale")
    chis = tuple(chi * scale**nu for nu, chi in enumerate(jet.chis))
    return FormalJet(jet.base_weight, jet.index, chis)


def _jet_rows(chis: tuple[JacobiSeries, ...]) -> tuple[int, dict[int, list]]:
    """(d, {n: [(r, values)]}): values[j] = d * chis[j](n, r), zero where chi_j has no
    entry, d the least common multiple of the components' denominators."""
    den = lcm(*(chi._den for chi in chis))
    entries: dict[tuple[int, int], list[int]] = {}
    for j, chi in enumerate(chis):
        scale = den // chi._den
        for key, value in chi._num.items():
            entries.setdefault(key, [0] * len(chis))[j] = scale * value
    rows: dict[int, list] = {}
    for (n, r), values in entries.items():
        rows.setdefault(n, []).append((r, values))
    return den, rows


def jet_mul(a: FormalJet, b: FormalJet) -> FormalJet:
    """Cauchy product in w; weights and indices add.

    Component nu of the product is sum_{j <= nu} a.chis[j] * b.chis[nu - j],
    for nu up to the smaller nu_max.  Each jet's components go over one
    denominator as the value columns of its q^n rows, and one packed
    product (:func:`rcforms.series._packed_products`) gives every
    component: slot nu pairs column j of a with column nu - j of b, and
    ``_joined`` gives it the tags of a.chis[0] * b.chis[nu].
    """
    if a.trunc != b.trunc:
        raise ValueError(f"jet truncations differ: {_text(a.trunc)} vs {_text(b.trunc)}")
    nu_max = min(a.nu_max, b.nu_max)
    den_a, rows_a = _jet_rows(a.chis[: nu_max + 1])
    den_b, rows_b = _jet_rows(b.chis[: nu_max + 1])
    slots = [[(j, nu - j) for j in range(nu + 1)] for nu in range(nu_max + 1)]
    sums = _packed_products(rows_a, rows_b, JacobiSeries._row_pairs, a.trunc, slots)
    nums: list[dict] = [{} for _ in slots]
    for n, spans in sums.items():
        for lo, columns in spans:
            for num, digits in zip(nums, columns):
                for r, total in enumerate(digits, lo):
                    if total:
                        num[(n, r)] = total
    chis = tuple(a.chis[0]._joined(b.chis[nu], 0, den_a * den_b, num) for nu, num in enumerate(nums))
    return FormalJet(a.base_weight + b.base_weight, a.index + b.index, chis)


def jet_odd_combine(a: FormalJet, b: FormalJet) -> FormalJet:
    """Antisymmetrised product m2*(d_z a)*b - m1*a*(d_z b), m1 = a.index, m2 = b.index; weight adds plus 1."""
    m1, m2 = a.index, b.index
    da = FormalJet(a.base_weight + 1, a.index, tuple(m2 * d_z(chi) for chi in a.chis))
    db = FormalJet(b.base_weight + 1, b.index, tuple(m1 * d_z(chi) for chi in b.chis))
    left, right = jet_mul(da, b), jet_mul(a, db)
    chis = tuple(x - y for x, y in zip(left.chis, right.chis))
    return FormalJet(left.base_weight, left.index, chis)


def zeta_nu(jet: FormalJet, nu: int) -> JacobiSeries:
    """Weight K + 2*nu projection sum_j (-(K-3/2+nu))_{nu-j} / j! * heat^j(chi_{nu-j})."""
    _check_int(nu, "projection order nu")
    if nu > jet.nu_max:
        raise ValueError(f"jet carries components 0..{jet.nu_max}, asked for {nu}")
    base = jet.base_weight - THREE_HALVES + nu
    out = None
    for j in range(nu + 1):
        coefficient = falling_factorial(-base, nu - j) / factorial(j)
        piece = coefficient * heat_power(jet.chis[nu - j], j)
        out = piece if out is None else out + piece
    return out


def crosscheck_bracket(
    f: JacobiSeries, g: JacobiSeries, x: int | Fraction, v: int
) -> Fraction | None:
    """Rebuild the order-v bracket through the jet pipeline and compare.

    Both inputs are cut to the smaller truncation, as in bracket_jacobi; v and
    x are checked by :class:`rcforms.brackets.BracketParams`, which holds x as a ``Fraction``.
    Returns the nonzero rational scalar lam with zeta = lam * bracket when
    both constructions are nonzero, None when both vanish identically
    (indeterminate), and raises :class:`CrosscheckError` when the two series
    fail to be proportional.

    The w-rescalings pair the factor (1 - m2*x) with f's jet and
    (1 + m1*x) with g's jet; this is the pairing under which the jet
    projection reproduces the bracket at the same parameter x.
    """
    _check_operands("crosscheck_bracket", JacobiSeries, f, g)
    params = BracketParams(f.weight, g.weight, f.index, g.index, v, x)
    x, nu = params.x, params.half_order
    trunc = min(f.trunc, g.trunc)
    f, g = f.truncated(trunc), g.truncated(trunc)
    a = jet_scale_w(jet_of_form(f, nu), 1 - g.index * x)
    b = jet_scale_w(jet_of_form(g, nu), 1 + f.index * x)
    if v % 2 == 0:
        combined = jet_mul(a, b)
    else:
        combined = jet_odd_combine(a, b)
    zeta = zeta_nu(combined, nu)
    bracket = bracket_jacobi(f, g, x, v)
    if zeta.is_zero() and bracket.is_zero():
        return None
    first = min({*zeta.support(), *bracket.support()})
    if zeta[first] == 0 or bracket[first] == 0:
        raise CrosscheckError(
            f"constructions are not proportional at {_key_text(first)}: "
            f"jet side {_value_text(zeta[first])}, bracket side {_value_text(bracket[first])}"
        )
    lam = zeta[first] / bracket[first]
    key = zeta.first_difference(lam * bracket)
    if key is not None:
        raise CrosscheckError(
            f"no consistent scalar: key {_key_text(key)} gives {_value_text(zeta[key])} "
            f"vs {_value_text(lam)} * {_value_text(bracket[key])}"
        )
    return lam
