"""Hypothesis properties: ring laws and operator identities on random series."""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from rcforms.brackets import bracket_jacobi, bracket_jacobi_poly, bracket_rank_over_x
from rcforms.series import (
    EllipticSeries,
    JacobiSeries,
    check_disc_class_invariance,
    heat,
    heat_power,
    theta_q,
    theta_q_elliptic,
)
from rcforms.seriesio import export_series
from rcforms.siegel import SiegelSeries, bracket_siegel_direct, bracket_siegel_via_jacobi, siegel_from_components
from row_shapes import sparse_rows, window

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=6
)


def jacobi_series(weight=st.integers(0, 10), index=st.integers(0, 3), trunc=st.integers(1, 4)):
    @st.composite
    def build(draw):
        w = draw(weight)
        m = draw(index)
        n_max = draw(trunc)
        keys = st.tuples(st.integers(0, n_max), st.integers(-4, 4))
        coeffs = draw(st.dictionaries(keys, rationals, max_size=6))
        return JacobiSeries(w, m, n_max, coeffs)

    return build()


def compatible_triples():
    """Three series sharing weight/index/trunc, so sums are unrestricted."""

    @st.composite
    def build(draw):
        w = draw(st.integers(0, 8))
        m = draw(st.integers(0, 3))
        n_max = draw(st.integers(1, 3))
        keys = st.tuples(st.integers(0, n_max), st.integers(-3, 3))
        make = lambda: JacobiSeries(w, m, n_max, draw(st.dictionaries(keys, rationals, max_size=5)))
        return make(), make(), make()

    return build()


@given(compatible_triples())
def test_addition_laws(triple):
    f, g, h = triple
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f


@given(jacobi_series(), jacobi_series(), jacobi_series())
def test_multiplication_laws(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f


@given(compatible_triples(), jacobi_series())
def test_distributivity(triple, h):
    f, g, _ = triple
    assert (f + g) * h == f * h + g * h


@given(jacobi_series(), jacobi_series())
def test_theta_q_derivation(f, g):
    assert theta_q(f * g) == theta_q(f) * g + f * theta_q(g)


@given(jacobi_series(index=st.integers(1, 3)))
def test_heat_preserves_support_predicates(f):
    if f.has_holomorphic_support():
        assert heat(f).has_holomorphic_support()
    if f.has_cusp_support():
        assert heat(f).has_cusp_support()


@given(jacobi_series(index=st.integers(1, 3)))
def test_heat_preserves_disc_class_invariance(f):
    ok, _ = check_disc_class_invariance(f)
    if ok:
        assert check_disc_class_invariance(heat(f)) == (True, None)


@given(jacobi_series(), jacobi_series(), st.integers(0, 3))
def test_truncation_monotonicity_of_mul(f, g, cut):
    cut = min(cut, f.trunc, g.trunc)
    assert (f * g).truncated(cut) == f.truncated(cut) * g.truncated(cut)


@settings(max_examples=25, deadline=None)
@given(
    jacobi_series(weight=st.integers(2, 8), trunc=st.integers(2, 3)),
    jacobi_series(weight=st.integers(2, 8), trunc=st.integers(2, 3)),
    st.integers(0, 4),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3),
)
def test_truncation_monotonicity_of_bracket(f, g, v, x):
    cut = min(f.trunc, g.trunc) - 1
    big = bracket_jacobi(f, g, x, v)
    small = bracket_jacobi(f.truncated(cut), g.truncated(cut), x, v)
    assert big.truncated(cut) == small


def cut_to_common(f, g):
    """f and g cut to their common truncation, the smaller one."""
    trunc = min(f.trunc, g.trunc)
    return f.truncated(trunc), g.truncated(trunc)


@settings(max_examples=25, deadline=None)
@given(
    jacobi_series(weight=st.integers(2, 8)),
    jacobi_series(weight=st.integers(2, 8)),
    st.integers(0, 4),
)
def test_jacobi_routines_equal_themselves_on_operands_cut_to_the_common_truncation(f, g, v):
    small = cut_to_common(f, g)
    assert bracket_jacobi_poly(f, g, v) == bracket_jacobi_poly(*small, v)
    assert bracket_rank_over_x(f, g, v) == bracket_rank_over_x(*small, v)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 3),
    st.dictionaries(st.integers(0, 3), rationals, max_size=4),
    jacobi_series(index=st.integers(0, 3), trunc=st.just(3)),
)
def test_heat_leibniz_expansion(r, elliptic_coeffs, g):
    """heat^r(f g) for q-only f expands through binomial heat/theta splits."""
    f = EllipticSeries(4, 3, elliptic_coeffs)
    m = g.index
    left = heat_power(f.as_jacobi() * g, r)
    right = None
    for j in range(r + 1):
        tau_part = f
        for _ in range(r - j):
            tau_part = theta_q_elliptic(tau_part)
        term = ((4 * m) ** (r - j) * comb(r, j)) * (tau_part.as_jacobi() * heat_power(g, j))
        right = term if right is None else right + term
    assert left == right


@settings(max_examples=20, deadline=None)
@given(
    compatible_triples(),
    st.integers(0, 4),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=3),
    st.tuples(rationals, rationals),
)
def test_bracket_bilinearity(triple, v, x, scalars):
    f, g, h = triple
    a, b = scalars
    left = bracket_jacobi(a * f + b * g, h, x, v)
    right = a * bracket_jacobi(f, h, x, v) + b * bracket_jacobi(g, h, x, v)
    assert left == right


def naive_product(f, g, combine, fits):
    """Fraction double loop: every coefficient pair, keys combined, kept if they fit."""
    trunc = min(f.trunc, g.trunc)
    out = {}
    for k1, a in f.items():
        for k2, b in g.items():
            key = combine(k1, k2)
            if fits(key, trunc):
                out[key] = out.get(key, Fraction(0)) + a * b
    return trunc, out


mixed_values = st.one_of(st.integers(-10**6, 10**6), rationals)


@st.composite
def product_operands(draw, keys, build, shapes=window(4), max_size=8):
    """Two series of one kind with separately drawn truncations and row
    shapes; either may be empty."""
    out = []
    for _ in range(2):
        trunc = draw(st.integers(0, 4))
        coeffs = draw(st.dictionaries(keys(trunc, draw(shapes)), mixed_values, max_size=max_size))
        out.append(build(draw(st.integers(0, 6)), trunc, coeffs))
    return out


def jacobi_keys(trunc, rs):
    return st.tuples(st.integers(0, trunc), rs)


def siegel_keys(trunc, rs):
    return st.tuples(st.integers(0, trunc), rs, st.integers(0, trunc))


def signed_siegel(weight, trunc, coeffs):
    """The degree-2 series holding ``coeffs`` and their transposes a(m, r, n) = (-1)**weight * a(n, r, m);
    at odd weight the rule forces the diagonal n = m to zero, so its keys are left out."""
    sign = (-1) ** (weight % 2)
    signed = {}
    for (n, r, m), value in coeffs.items():
        if n != m or sign == 1:
            signed[(n, r, m)], signed[(m, r, n)] = value, sign * value
    return SiegelSeries(weight, trunc, signed)


@given(st.integers(0, 4), st.data())
def test_siegel_components_round_trip(trunc, data):
    coeffs = data.draw(st.dictionaries(siegel_keys(trunc, st.integers(-4, 4)), rationals, max_size=6))
    empty = data.draw(st.integers(0, trunc))
    # no key on the slices n = empty or m = empty, so slice `empty` stays empty
    F = signed_siegel(4, trunc, {k: v for k, v in coeffs.items() if empty not in (k[0], k[2])})
    parts = F.components()
    assert parts[empty].is_zero()
    assert siegel_from_components(parts) == F


@st.composite
def siegel_bracket_operands(draw):
    """Two sparse degree-2 series (``signed_siegel``) with their own weights and
    truncations (0..4), values with denominators, and one slice of each
    left empty (no key with n or m equal to it), index 0 included."""
    out = []
    for _ in range(2):
        trunc = draw(st.integers(0, 4))
        coeffs = draw(st.dictionaries(siegel_keys(trunc, st.integers(-4, 4)), rationals, max_size=8))
        empty = draw(st.integers(0, trunc))
        kept = {key: value for key, value in coeffs.items() if empty not in (key[0], key[2])}
        out.append(signed_siegel(draw(st.integers(0, 10)), trunc, kept))
    return out


@settings(max_examples=120, deadline=None)
@given(siegel_bracket_operands(), st.integers(0, 4))
def test_slice_route_is_the_sum_of_slice_brackets(operands, l):
    F, G = operands
    out = bracket_siegel_via_jacobi(F, G, l)
    assert out == bracket_siegel_direct(F, G, l)
    # the route's definition: slice mu of the output is the sum over
    # m + m' = mu of the order-2l Jacobi brackets at x = 0 of f_m and g_m'
    trunc = min(F.trunc, G.trunc)
    f, g = F.components(), G.components()
    slices = []
    for mu in range(trunc + 1):
        total = JacobiSeries.zero(F.weight + G.weight + 2 * l, mu, trunc)
        for m in range(mu + 1):
            total = total + bracket_jacobi(f[m], g[mu - m], 0, 2 * l)
        slices.append(total)
    assert out == siegel_from_components(slices)


@settings(max_examples=60, deadline=None)
@given(siegel_bracket_operands(), st.integers(0, 3))
def test_siegel_routines_equal_themselves_on_operands_cut_to_the_common_truncation(operands, l):
    F, G = operands
    small = cut_to_common(F, G)
    assert F * G == small[0] * small[1]
    assert bracket_siegel_direct(F, G, l) == bracket_siegel_direct(*small, l)
    assert bracket_siegel_via_jacobi(F, G, l) == bracket_siegel_via_jacobi(*small, l)


@settings(max_examples=150)
@given(product_operands(jacobi_keys, lambda w, t, c: JacobiSeries(w, w % 4, t, c)))
def test_jacobi_product_matches_naive_loop(operands):
    f, g = operands
    trunc, out = naive_product(f, g, lambda a, b: (a[0] + b[0], a[1] + b[1]), lambda k, t: k[0] <= t)
    assert f * g == JacobiSeries(f.weight + g.weight, f.index + g.index, trunc, out)


@settings(max_examples=150)
@given(product_operands(lambda t, _: st.integers(0, t), EllipticSeries))
def test_elliptic_product_matches_naive_loop(operands):
    f, g = operands
    trunc, out = naive_product(f, g, lambda a, b: a + b, lambda k, t: k <= t)
    assert f * g == EllipticSeries(f.weight + g.weight, trunc, out)


@settings(max_examples=150)
@given(product_operands(siegel_keys, signed_siegel))
def test_siegel_product_matches_naive_loop(operands):
    f, g = operands
    combine = lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    trunc, out = naive_product(f, g, combine, lambda k, t: k[0] <= t and k[2] <= t)
    assert f * g == SiegelSeries(f.weight + g.weight, trunc, out)


@settings(max_examples=100)
@given(product_operands(jacobi_keys, lambda w, t, c: JacobiSeries(w, w % 4, t, c), shapes=sparse_rows, max_size=16))
def test_jacobi_product_on_sparse_rows(operands):
    f, g = operands
    trunc, out = naive_product(f, g, lambda a, b: (a[0] + b[0], a[1] + b[1]), lambda k, t: k[0] <= t)
    assert f * g == JacobiSeries(f.weight + g.weight, f.index + g.index, trunc, out)


@st.composite
def siegel_long_rows(draw):
    """Two degree-2 series up to trunc 6, where the rows (n, m) of a theta
    reach |r| = 12, each with its entries in one to three (n, m) blocks (and
    their mirrors), so that its rows are long."""
    out = []
    for _ in range(2):
        trunc = draw(st.integers(0, 6))
        blocks = draw(st.lists(st.tuples(st.integers(0, trunc), st.integers(0, trunc)), min_size=1, max_size=3))
        keys = st.tuples(st.sampled_from(blocks), draw(st.one_of(window(12), sparse_rows)))
        coeffs = draw(st.dictionaries(keys.map(lambda k: (k[0][0], k[1], k[0][1])), mixed_values, max_size=25))
        out.append(signed_siegel(draw(st.integers(0, 6)), trunc, coeffs))
    return out


@settings(max_examples=60, deadline=None)
@given(siegel_long_rows())
def test_siegel_product_on_long_rows(operands):
    f, g = operands
    combine = lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    trunc, out = naive_product(f, g, combine, lambda k, t: k[0] <= t and k[2] <= t)
    assert f * g == SiegelSeries(f.weight + g.weight, trunc, out)


@pytest.mark.parametrize("bits", [1, 7, 8, 29, 30, 31, 64])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_products_at_the_digit_bound(bits, signs):
    check_products_at_the_bound(2**bits, signs)


@pytest.mark.parametrize("magnitude", [4, 6, 3 * 2**29])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_products_at_a_whole_byte_bound(magnitude, signs):
    """The digit width is a whole number of bytes, so a width one bit short
    of the signed bound differs only where the bound's bit length is a
    multiple of 8: 14 * 4**2 = 224, 7 * 6**2 = 252, 7 * (3 * 2**29)**2."""
    check_products_at_the_bound(magnitude, signs)


def check_products_at_the_bound(a, signs):
    """Whole rows r = -3..3 at +-a: one output key collects min(#f, #g)
    pairs, each max|f| * max|g| with one sign, so its digit is the bound and
    a width one bit short carries into the neighbouring r-slots."""
    sf, sg = signs
    jacobi_sum = lambda a, b: (a[0] + b[0], a[1] + b[1])
    # the q^1 rows: the key (2, 0) collects 7 pairs; with a second row each,
    # the q^2 row sums two row pairs and its key (2, 0) collects all 14
    for rows in ([1], [0, 1]):
        f = JacobiSeries(4, 1, 2, {(n, r): sf * a for n in rows for r in range(-3, 4)})
        g = JacobiSeries(6, 1, 2, {(n, r): sg * a for n in rows for r in range(-3, 4)})
        trunc, out = naive_product(f, g, jacobi_sum, lambda k, t: k[0] <= t)
        assert f * g == JacobiSeries(10, 2, trunc, out)
    # the (1, 1) block: the key (2, 0, 2) collects 7 pairs
    F = SiegelSeries(4, 2, {(1, r, 1): sf * a for r in range(-3, 4)})
    G = SiegelSeries(6, 2, {(1, r, 1): sg * a for r in range(-3, 4)})
    combine = lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    trunc, out = naive_product(F, G, combine, lambda k, t: k[0] <= t and k[2] <= t)
    assert F * G == SiegelSeries(10, trunc, out)


def test_products_of_entries_far_apart_in_r():
    """Entries 10**9 apart in r: separate runs, and output sums read back apart."""
    far = 10**9
    f = JacobiSeries(4, 1, 3, {(0, -far): 1, (0, far): 3, (1, 2 - far): Fraction(2, 3), (1, far): -5, (2, 0): 7})
    g = JacobiSeries(6, 1, 3, {(0, 0): 2, (0, 2 * far): -1, (1, -far): 4, (1, 1 - far): Fraction(1, 2)})
    trunc, out = naive_product(f, g, lambda a, b: (a[0] + b[0], a[1] + b[1]), lambda k, t: k[0] <= t)
    assert f * g == JacobiSeries(10, 2, trunc, out)
    F = signed_siegel(4, 2, {(0, -far, 0): 1, (0, far, 0): 2, (0, 1, 1): 3, (1, far, 1): -1})
    G = signed_siegel(6, 2, {(0, 0, 0): 5, (1, -far, 0): 2, (1, 1 - far, 1): Fraction(1, 3)})
    combine = lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    trunc, out = naive_product(F, G, combine, lambda k, t: k[0] <= t and k[2] <= t)
    assert F * G == SiegelSeries(10, trunc, out)


# -- the canonical integer store ---------------------------------------------

# denominators up to 60 give values whose denominators share some factors
# and not others, so sums, products and cuts change the common denominator
unlike_rationals = st.fractions(min_value=Fraction(-40), max_value=Fraction(40), max_denominator=60)


def assert_canonical(f):
    """gcd(_den, *_num) = 1 over nonzero int numerators; the zero series has _den = 1."""
    assert isinstance(f._den, int) and f._den >= 1
    assert all(type(v) is int and v for v in f._num.values())
    assert gcd(f._den, *f._num.values()) == 1
    assert f._den == 1 or not f.is_zero()


def assert_same_store(a, b):
    assert (a._den, a._num) == (b._den, b._num)
    assert export_series(a) == export_series(b)


@st.composite
def unlike_jacobi_pairs(draw):
    keys = st.tuples(st.integers(0, 3), st.integers(-3, 3))
    make = lambda: draw(st.dictionaries(keys, unlike_rationals | st.just(Fraction(0)), max_size=8))
    return make(), make()


@given(unlike_jacobi_pairs(), unlike_rationals.filter(bool), st.integers(0, 3))
def test_jacobi_store_is_canonical(coeffs, c, cut):
    a, b = coeffs
    f, g = JacobiSeries(4, 1, 3, a), JacobiSeries(4, 1, 3, b)
    results = [
        JacobiSeries(4, 1, 3, dict(f.items())),
        (f * c) * (1 / c),
        f + g - g,
        -(-f),
    ]
    for h in results:
        assert_canonical(h)
        assert_same_store(h, f)
    cut_f = f.truncated(cut)
    assert_canonical(cut_f)
    assert_same_store(cut_f, JacobiSeries(4, 1, cut, {k: v for k, v in a.items() if k[0] <= cut}))
    for h in (f, g, f + g, f * g, f * 0, f - f, heat(f), f * c):
        assert_canonical(h)
    assert (f - f)._den == 1 and JacobiSeries.zero(4, 1, 3)._den == 1


@given(st.dictionaries(siegel_keys(2, st.integers(-2, 2)), unlike_rationals, max_size=6))
def test_siegel_store_is_canonical(upper):
    F = signed_siegel(4, 2, upper)
    assert_canonical(F)
    assert_same_store(SiegelSeries(4, 2, dict(F.items())), F)
    assert_same_store(-(-F), F)
    for part in F.components():
        assert_canonical(part)
    for h in (F * F, F + F, F.truncated(1)):
        assert_canonical(h)
