import time
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from operator import mul

import pytest

from rcforms import E8, brackets, series, siegel, siegel_theta, verify
from rcforms.brackets import BracketParams, bracket_jacobi, bracket_jacobi_poly, bracket_terms
from rcforms.series import JacobiSeries, heat
from rcforms.seriesio import export_series, import_series
from rcforms.siegel import (
    SiegelSeries,
    SymmetryError,
    bracket_siegel_direct,
    bracket_siegel_via_jacobi,
    check_siegel_consistency,
    delta_op,
    siegel_from_components,
)

Q = Fraction


class TestConstruction:
    def test_asymmetric_map_rejected_with_witness(self):
        with pytest.raises(SymmetryError) as info:
            SiegelSeries(4, 2, {(1, 0, 2): 1})
        assert info.value.key == (1, 0, 2)

    def test_integer_path_rejects_asymmetric_map(self, siegel2):
        # every derived series is built through the same validating store
        with pytest.raises(SymmetryError) as info:
            SiegelSeries._from_integers((4,), 2, 3, {(1, 0, 2): 1, (2, 0, 1): 2})
        assert info.value.key == (1, 0, 2)
        assert "a(1,0,2) = 1/3 but a(2,0,1) = 2/3" in str(info.value)
        with pytest.raises(SymmetryError):
            siegel2._like(siegel2.trunc, 1, {(0, 0, 1): 1})

    def test_symmetric_map_accepted(self):
        F = SiegelSeries(4, 2, {(1, 0, 2): 1, (2, 0, 1): 1})
        assert F[(1, 0, 2)] == F[(2, 0, 1)] == 1

    def test_block_bounds(self):
        with pytest.raises(ValueError, match="outside truncation"):
            SiegelSeries(4, 2, {(3, 0, 0): 1})

    def test_zero_components_give_zero_series(self):
        parts = [JacobiSeries.zero(4, m, 2) for m in range(3)]
        assert siegel_from_components(parts).is_zero()

    def test_component_roundtrip(self, siegel2):
        assert siegel_from_components(siegel2.components()) == siegel2

    def test_no_components_rejected(self):
        with pytest.raises(ValueError, match="m = 0 component"):
            siegel_from_components([])

    def test_component_index_mismatch(self):
        parts = [JacobiSeries.zero(4, 0, 2), JacobiSeries.zero(4, 2, 2)]
        with pytest.raises(ValueError, match="index"):
            siegel_from_components(parts)

    def test_component_weight_mismatch(self):
        parts = [JacobiSeries.zero(4, 0, 2), JacobiSeries.zero(6, 1, 2)]
        with pytest.raises(ValueError, match="weight"):
            siegel_from_components(parts)

    def test_component_truncation_too_small(self):
        parts = [JacobiSeries.zero(4, 0, 0), JacobiSeries.zero(4, 1, 0)]
        with pytest.raises(ValueError, match="truncated"):
            siegel_from_components(parts)

    def test_components_merge_over_their_common_denominator(self):
        # slices over different denominators (1, 10 and 105), two of them
        # truncated beyond T = 2 and holding keys with n > T, which the
        # assembly drops, so the result reduces to denominator 30
        parts = [
            JacobiSeries(4, 0, 2, {(0, 0): 1}),
            JacobiSeries(4, 1, 5, {(1, 1): Q(1, 2), (2, 0): Q(1, 5), (4, 0): 7}),
            JacobiSeries(4, 2, 3, {(2, 1): Q(1, 3), (1, 0): Q(1, 5), (3, -1): Q(2, 7)}),
        ]
        expected = SiegelSeries(4, 2, {
            (0, 0, 0): Q(1), (1, 1, 1): Q(1, 2), (2, 1, 2): Q(1, 3), (2, 0, 1): Q(1, 5), (1, 0, 2): Q(1, 5),
        })
        assert siegel_from_components(parts) == expected

    def test_asymmetric_components_rejected(self):
        parts = [
            JacobiSeries.zero(4, 0, 1),
            JacobiSeries(4, 1, 1, {(0, 0): 1}),  # a(0,0,1) without a(1,0,0)
        ]
        with pytest.raises(SymmetryError):
            siegel_from_components(parts)


class TestOddWeight:
    """A degree-2 form of weight k has a(m, r, n) = (-1)**k * a(n, r, m), so at
    odd weight the store takes maps antisymmetric under n <-> m, whose diagonal
    n = m vanishes, and rejects symmetric ones."""

    ODD = {(0, 0, 1): 1, (1, 0, 0): -1, (1, 1, 3): Q(2, 3), (3, 1, 1): Q(-2, 3)}
    ODD_TEXT = (
        "rcforms 1\nkind siegel\nweight 35\ntrunc 3\n"
        "coeff 0 0 1 1/1\ncoeff 1 0 0 -1/1\ncoeff 1 1 3 2/3\ncoeff 3 1 1 -2/3\nEND\n"
    )

    def test_antisymmetric_map_builds_through_every_entry(self):
        F = SiegelSeries(35, 3, self.ODD)
        assert F[(1, 1, 3)] == -F[(3, 1, 1)] == Q(2, 3)
        assert SiegelSeries._from_integers((35,), 3, 3, {(0, 0, 1): 3, (1, 0, 0): -3, (1, 1, 3): 2, (3, 1, 1): -2}) == F
        assert import_series(self.ODD_TEXT) == F
        assert export_series(F) == self.ODD_TEXT
        slices = [
            JacobiSeries(35, 0, 3, {(1, 0): -1}),
            JacobiSeries(35, 1, 3, {(0, 0): 1, (3, 1): Q(-2, 3)}),
            JacobiSeries.zero(35, 2, 3),
            JacobiSeries(35, 3, 3, {(1, 1): Q(2, 3)}),
        ]
        assert siegel_from_components(slices) == F

    @pytest.mark.parametrize("weight", [35, 5, -1])
    def test_symmetric_map_raises_at_odd_weight(self, weight):
        with pytest.raises(SymmetryError) as info:
            SiegelSeries(weight, 2, {(1, 0, 2): 1, (2, 0, 1): 1})
        assert info.value.key == (1, 0, 2)
        assert str(info.value) == (
            f"symmetry violation: a(1,0,2) = 1 but a(2,0,1) = 1 (weight {weight} is odd: a(2,0,1) = -a(1,0,2))"
        )

    def test_nonzero_diagonal_raises_at_odd_weight(self):
        with pytest.raises(SymmetryError) as info:
            SiegelSeries(35, 2, {(1, 3, 1): Q(1, 2)})
        assert info.value.key == (1, 3, 1)
        assert str(info.value) == "symmetry violation: a(1,3,1) = 1/2 but a(1,3,1) = 1/2 (weight 35 is odd: a(1,3,1) = -a(1,3,1))"
        with pytest.raises(SymmetryError):
            import_series(self.ODD_TEXT.replace("coeff 0 0 1 1/1\n", "coeff 0 0 0 1/1\ncoeff 0 0 1 1/1\n"))
        with pytest.raises(SymmetryError):
            siegel_from_components([JacobiSeries(35, 0, 1), JacobiSeries(35, 1, 1, {(1, 0): 1})])

    @pytest.mark.parametrize("weight", [4, 0, -2, 10, 35])
    def test_named_key_is_the_least_failing_key_in_any_insertion_order(self, weight):
        text = "symmetry violation: a(1,0,2) = 3 but a(2,0,1) = 5"
        if weight % 2:
            text += f" (weight {weight} is odd: a(2,0,1) = -a(1,0,2))"
        items = [((2, 0, 1), 5), ((1, 0, 2), 3)]
        for order in (items, items[::-1]):
            with pytest.raises(SymmetryError) as info:
                SiegelSeries(weight, 2, dict(order))
            assert info.value.key == (1, 0, 2)
            assert str(info.value) == text

    def test_named_key_may_be_unstored(self):
        # a(2,0,1) alone fails the rule at (2,0,1) and at the unstored (1,0,2), the lesser key
        with pytest.raises(SymmetryError) as info:
            SiegelSeries(4, 2, {(2, 0, 1): 5})
        assert info.value.key == (1, 0, 2)
        assert str(info.value) == "symmetry violation: a(1,0,2) = 0 but a(2,0,1) = 5"


@pytest.fixture(scope="module")
def signed_operands():
    """The E8 theta at trunc 3 (weight 4) and two odd-weight antisymmetric
    series made from it: (n - m) * a(n, r, m) at weight 5 and
    (n - m)**3 * (1 + r**2) * a(n, r, m) of its square at weight 11."""
    theta = siegel_theta(E8, 3)
    square = theta * theta
    odd5 = SiegelSeries(5, 3, {(n, r, m): (n - m) * v for (n, r, m), v in theta.items()})
    odd11 = SiegelSeries(11, 3, {(n, r, m): (n - m) ** 3 * (1 + r * r) * v for (n, r, m), v in square.items()})
    return theta, odd5, odd11


@pytest.mark.parametrize("l", [0, 1, 2, 3])
@pytest.mark.parametrize("pair", ["odd, even", "even, odd", "odd, odd"])
def test_both_routes_agree_at_odd_weight(signed_operands, pair, l):
    theta, odd5, odd11 = signed_operands
    F, G = {"odd, even": (odd5, theta), "even, odd": (theta, odd11), "odd, odd": (odd5, odd11)}[pair]
    direct = bracket_siegel_direct(F, G, l)
    assert direct == bracket_siegel_via_jacobi(F, G, l)
    assert not direct.is_zero()
    assert direct.weight == F.weight + G.weight + 2 * l
    sign = (-1) ** direct.weight
    assert all(direct[(m, r, n)] == sign * v for (n, r, m), v in direct.items())


@pytest.mark.parametrize("v", range(10))
def test_covariant_symbols_of_odd_order_do_not_exist(v):
    """A covariant bilinear operator of order v acts through an SL2-invariant of
    degree v of two binary quadratic forms n x**2 + r x y + m y**2.  The torus
    gives n, r and m the weights 2, 0 and -2, and the invariants of degree v
    number the weight-0 minus the weight-2 monomials in (n1, r1, m1, n2, r2, m2):
    none at odd v, and (l + 1)(l + 2)/2 at v = 2l, the monomials D1**a D2**b J**c
    with a + b + c = l."""
    weights = [2, 0, -2] * 2
    counts = {0: 0, 2: 0}
    for monomial in combinations_with_replacement(weights, v):
        if (total := sum(monomial)) in counts:
            counts[total] += 1
    invariants = counts[0] - counts[2]
    assert invariants == (0 if v % 2 else (v // 2 + 1) * (v // 2 + 2) // 2)


class TestDeltaOperator:
    def test_boundary_annihilation(self):
        F = SiegelSeries(4, 1, {(1, 2, 1): 5, (1, -2, 1): 5})
        assert delta_op(F).is_zero()

    def test_interior_multiplier(self):
        F = SiegelSeries(4, 1, {(1, 0, 1): 3})
        out = delta_op(F)
        assert out[(1, 0, 1)] == 12 and out.weight == 6

    def test_slice_compatibility(self, siegel2):
        transformed = delta_op(siegel2)
        for m in range(siegel2.trunc + 1):
            assert transformed.slice_component(m) == heat(siegel2.slice_component(m))


class TestBrackets:
    def test_order_zero_is_product(self, siegel2):
        product = siegel2 * siegel2
        assert bracket_siegel_direct(siegel2, siegel2, 0) == product
        assert bracket_siegel_via_jacobi(siegel2, siegel2, 0) == product

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_dual_path_equality(self, siegel2, l):
        direct = bracket_siegel_direct(siegel2, siegel2, l)
        sliced = bracket_siegel_via_jacobi(siegel2, siegel2, l)
        assert direct == sliced
        assert direct.weight == 8 + 2 * l

    def test_cusp_slices_vanish(self, siegel2):
        out = bracket_siegel_direct(siegel2, siegel2, 1)
        assert out.slice_component(0).is_zero()
        assert not any(n == 0 for (n, r, m) in out.support())
        assert not out.is_zero()

    def test_output_symmetry(self, siegel2):
        out = bracket_siegel_direct(siegel2, siegel2, 1)
        assert all(out[(m, r, n)] == v for (n, r, m), v in out.items())

    def test_mixed_weight_pair(self, siegel2):
        square = siegel2 * siegel2  # weight 8
        f, g = siegel2.components(), square.components()
        for l in (1, 2, 3):
            direct = bracket_siegel_direct(siegel2, square, l)
            sliced = bracket_siegel_via_jacobi(siegel2, square, l)
            assert direct == sliced
            assert direct.weight == 4 + 8 + 2 * l
            # both routes share their set-up (_even_order_params); the Jacobi brackets
            # of the slices, weight 4 on the left, pin the order of the weights in it
            slices = []
            for mu in range(3):
                pairs = (bracket_jacobi(f[m], g[mu - m], 0, 2 * l) for m in range(mu + 1))
                slices.append(sum(pairs, JacobiSeries(direct.weight, mu, 2)))
            assert sliced == siegel_from_components(slices)

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_dual_path_with_denominators(self, siegel2, l):
        # F/7 with (F*F)/3: the common denominators of both inputs and of C
        # all enter the direct route's integer numerators
        F = siegel2 * Q(1, 7)
        G = siegel2 * siegel2 * Q(1, 3)
        direct = bracket_siegel_direct(F, G, l)
        assert direct == bracket_siegel_via_jacobi(F, G, l)
        assert not direct.is_zero()

    def test_negative_order_rejected(self, siegel2):
        with pytest.raises(ValueError):
            bracket_siegel_direct(siegel2, siegel2, -1)

    def test_negative_order_rejected_by_the_slice_route(self, siegel2):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            bracket_siegel_via_jacobi(siegel2, siegel2, -1)

    def test_unequal_truncations_bookkeeping(self, siegel2):
        square = (siegel2 * siegel2).truncated(1)  # weight 8, trunc 1
        for F, G in ((siegel2, square), (square, siegel2)):
            for l in (0, 1, 2):
                out = bracket_siegel_direct(F, G, l)
                assert out.weight == 4 + 8 + 2 * l and out.trunc == 1

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_unequal_truncations_dual_path(self, forms, l):
        F = forms.siegel_theta  # trunc 3
        G = (F * F).truncated(2) * Q(1, 5)
        for left, right in ((F, G), (G, F)):
            direct = bracket_siegel_direct(left, right, l)
            assert direct == bracket_siegel_via_jacobi(left, right, l)
            assert direct.trunc == 2
        if l:
            assert not direct.is_zero()

    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("bits", [8, 16, 64])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
    def test_direct_route_at_a_whole_byte_bound(self, l, bits, signs):
        # one entry each, both at delta = 4*1*1 - 1**2 = 3: the (2, 2) row
        # collects one pair, and its slot (r, s) digit is a*3**r * b*3**s.
        # For r + s = l that is the digit bound |a*b|*3**l itself, whose bit
        # length is a multiple of 8, so a width one bit short of the signed
        # bound cannot hold it
        sa, sb = signs
        a, b = sa * ((2**bits - 1) // 3 ** (l + 1)), sb * 3
        assert (abs(a * b) * 3**l).bit_length() == bits
        F = SiegelSeries(4, 2, {(1, 1, 1): a})
        G = SiegelSeries(6, 2, {(1, -1, 1): b})
        # the one output key is (2, 0, 2), where delta = 16; its value summed
        # in Fractions from the coefficient family
        terms = bracket_terms(BracketParams(4, 6, 0, 0, 2 * l))
        value = sum(t.c_value * a * 3**t.r * b * 3**t.s * 16**t.p for t in terms)
        assert value
        assert bracket_siegel_direct(F, G, l) == SiegelSeries(10 + 2 * l, 2, {(2, 0, 2): value})

    def test_slice_route_cost_follows_nonzero_slices(self, monkeypatch):
        # a few records at trunc 200: one bracket-kernel pass per call of the
        # slice route, over the stored (n, m) rows only, not over every slice
        # pair with m + m' <= 200
        F, G = sparse_pair(200)
        calls, packed = [], []

        def kernel_spy(f, g, *args):
            calls.append((f, g))
            return kernel(f, g, *args)

        def packing_spy(left, right, *args):
            packed.append((sorted(left), sorted(right)))
            return packing(left, right, *args)

        kernel, packing = brackets._bracket_pass, brackets._packed_products
        monkeypatch.setattr(brackets, "_bracket_pass", kernel_spy)
        monkeypatch.setattr(brackets, "_packed_products", packing_spy)
        out = bracket_siegel_via_jacobi(F, G, 1)
        assert len(calls) == 1 and calls[0][0] is F and calls[0][1] is G
        # stored rows: F at (1, 1), (1, 2), (2, 1), (5, 5); G at (0, 0), (2, 3), (3, 2), (199, 199)
        assert packed == [([(1, 1), (1, 2), (2, 1), (5, 5)], [(0, 0), (2, 3), (3, 2), (199, 199)])]
        assert out == bracket_siegel_direct(F, G, 1)
        assert not out.is_zero()

    def test_every_packing_caller_packs_only_rows_inside_the_smaller_truncation(self, monkeypatch):
        # a row beyond the smaller truncation never pairs, so no output shows
        # a lost cut: only the packed rows, and with them the digit width,
        # would grow.  Each caller of _packed_products is spied on under the
        # name it calls
        packed = []

        def spy(module):
            packing = module._packed_products

            def packing_spy(left, right, *args):
                packed.append((module.__name__, sorted(left), sorted(right)))
                return packing(left, right, *args)

            monkeypatch.setattr(module, "_packed_products", packing_spy)

        for module in (series, siegel, brackets):
            spy(module)
        F = SiegelSeries(4, 4, {(1, 0, 1): 1, (2, 1, 0): 2, (0, 1, 2): 2, (3, 0, 1): 1, (1, 0, 3): 1, (4, -1, 4): 5})
        G = SiegelSeries(6, 2, {(0, 0, 0): 1, (1, 1, 1): 3, (2, 0, 1): 2, (1, 0, 2): 2})
        f = JacobiSeries(4, 1, 12, {(0, 0): 1, (5, 1): 2, (8, -2): 3, (9, 2): 3, (12, 3): 1})
        g = JacobiSeries(6, 2, 8, {(0, 0): 1, (3, 1): 2, (8, -1): 1})
        cases = [
            (F, G, [(0, 2), (1, 1), (2, 0)], [(0, 0), (1, 1), (1, 2), (2, 1)], [
                (partial(bracket_siegel_via_jacobi, l=1), brackets),
                (partial(bracket_siegel_direct, l=1), siegel),
                (mul, siegel),
            ]),
            (f, g, [0, 5, 8], [0, 3, 8], [
                (partial(bracket_jacobi, x=Q(1, 3), v=3), brackets),
                (partial(bracket_jacobi_poly, v=2), brackets),
                (mul, series),
            ]),
        ]
        for a, b, rows_a, rows_b, routines in cases:
            for routine, module in routines:
                for left, right, rows in ((a, b, (rows_a, rows_b)), (b, a, (rows_b, rows_a))):
                    packed.clear()
                    routine(left, right)
                    assert packed == [(module.__name__, *rows)]

    def test_slice_route_cost_follows_stored_coefficients(self):
        # a few records at trunc 10**6: the slice route must not work per slice up to the truncation
        trunc = 10**6
        F, G = sparse_pair(trunc)
        start = time.process_time()
        out = bracket_siegel_via_jacobi(F, G, 1)
        assert time.process_time() - start < 1.0
        assert out == bracket_siegel_direct(F, G, 1)
        assert out[(trunc, 0, trunc)] != 0

    def test_slice_component_cost_follows_stored_coefficients(self):
        # four records at trunc 10**6: a slice must not cost work per slice up to the truncation
        trunc = 10**6
        _, G = sparse_pair(trunc)
        start = time.process_time()
        slices = [G.slice_component(m) for m in (0, 3, trunc - 1, trunc)]
        assert time.process_time() - start < 1.0
        assert [dict(part.items()) for part in slices] == [{(0, 0): 1}, {(2, 1): 2}, {(trunc - 1, 0): 1}, {}]
        assert [part.index for part in slices] == [0, 3, trunc - 1, trunc]


def sparse_pair(trunc):
    """Two symmetric series of four records each at truncation ``trunc`` (at least 6)."""
    F = SiegelSeries(4, trunc, {(1, 0, 1): 1, (1, 1, 2): 3, (2, 1, 1): 3, (5, -2, 5): 7})
    G = SiegelSeries(6, trunc, {(0, 0, 0): 1, (2, 1, 3): 2, (3, 1, 2): 2, (trunc - 1, 0, trunc - 1): 1})
    return F, G


class TestConsistencyReport:
    def test_theta_passes(self, siegel2):
        report = check_siegel_consistency(siegel2)
        assert report.passed and not report.failures()

    def test_bracket_output_passes_with_cusp_slices(self, siegel2):
        out = bracket_siegel_direct(siegel2, siegel2, 1)
        assert check_siegel_consistency(out).passed
        for m in range(1, out.trunc + 1):
            assert out.slice_component(m).has_cusp_support()

    def test_perturbed_series_fails_with_witness(self, siegel2):
        coeffs = dict(siegel2.items())
        coeffs[(1, 1, 1)] += 1  # keeps symmetry, breaks disc-class invariance
        bad = SiegelSeries(4, 2, coeffs)
        report = check_siegel_consistency(bad)
        assert not report.passed
        failure = report.failures()[0]
        assert failure.detail
        assert "disc-class" in failure.detail

    def test_report_lines_are_printable(self, siegel2):
        report = check_siegel_consistency(siegel2)
        lines = [item.describe() for item in report.checks]
        assert lines and all("PASS" in line for line in lines)

    def test_report_holds_one_result_per_slice(self, forms):
        report = check_siegel_consistency(forms.siegel_theta)
        names = [item.name for item in report.checks]
        assert names == ["slice 1 form checks", "slice 2 form checks", "slice 3 form checks"]


class TestDualPathCheck:
    def test_l2_output_gets_slice_form_checks(self, monkeypatch):
        # both routes agree on an output that breaks disc-class invariance on
        # slice 1; only the per-slice cusp-form check can catch it
        def perturbed(route):
            def compute(F, G, l):
                out = route(F, G, l)
                if l != 2:
                    return out
                coeffs = dict(out.items())
                coeffs[(1, 1, 1)] = coeffs.get((1, 1, 1), 0) + 1
                return SiegelSeries(out.weight, out.trunc, coeffs)

            return compute

        monkeypatch.setattr(verify, "bracket_siegel_direct", perturbed(bracket_siegel_direct))
        monkeypatch.setattr(verify, "bracket_siegel_via_jacobi", perturbed(bracket_siegel_via_jacobi))
        results = verify.check_siegel_dual_path(verify.FormSet(trunc=4, siegel_trunc=2))
        by_name = {result.name: result for result in results}
        l2 = by_name["degree-2 bracket dual-path equality at l=2"]
        assert not l2.passed
        assert l2.detail.startswith("slice 1: disc-class: ")
        assert all(r.passed for r in results if r is not l2)


class TestArithmetic:
    def test_mul_bookkeeping(self, siegel2):
        square = siegel2 * siegel2
        assert square.weight == 8 and square.trunc == 2
        assert square[(0, 0, 0)] == 1

    def test_scalar_and_additive_ops(self, siegel2):
        assert (siegel2 - siegel2).is_zero()
        assert (2 * siegel2)[(1, 0, 0)] == 480

    def test_truncated(self, siegel2):
        cut = siegel2.truncated(1)
        assert cut.trunc == 1
        assert cut[(1, 0, 1)] == siegel2[(1, 0, 1)]

    def test_slice_bounds(self, siegel2):
        with pytest.raises(ValueError):
            siegel2.slice_component(5)
