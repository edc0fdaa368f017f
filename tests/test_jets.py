import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rcforms.brackets import bracket_jacobi
from rcforms.jets import (
    CrosscheckError,
    FormalJet,
    crosscheck_bracket,
    jet_mul,
    jet_odd_combine,
    jet_of_form,
    jet_scale_w,
    zeta_nu,
)
from rcforms.lattices import E8, E8_INDEX1_VECTOR, eisenstein_q, jacobi_theta
from rcforms.series import JacobiSeries, check_disc_class_invariance, heat

Q = Fraction


def cauchy_product(a, b):
    """The Cauchy product of two jets by series products and sums, apart from the packed product."""
    chis = []
    for nu in range(min(a.nu_max, b.nu_max) + 1):
        acc = a.chis[0] * b.chis[nu]
        for j in range(1, nu + 1):
            acc = acc + a.chis[j] * b.chis[nu - j]
        chis.append(acc)
    return FormalJet(a.base_weight + b.base_weight, a.index + b.index, tuple(chis))


@st.composite
def random_jets(draw, index, trunc):
    """A jet of 1-4 components with random keys (r in -6..6) and rational values,
    some components empty, the denominators drawn per value."""
    weight = draw(st.integers(0, 12))
    values = st.one_of(st.integers(-30, 30), st.fractions(min_value=-30, max_value=30, max_denominator=12))
    keys = st.tuples(st.integers(0, trunc), st.integers(-6, 6))
    chis = tuple(
        JacobiSeries(weight + 2 * nu, index, trunc, draw(st.dictionaries(keys, values, max_size=6)))
        for nu in range(draw(st.integers(1, 4)))
    )
    return FormalJet(weight, index, chis)


class TestJetOfForm:
    def test_zeroth_component_is_the_form(self, theta4):
        jet = jet_of_form(theta4, 2)
        assert jet.chis[0] == theta4
        assert jet.base_weight == 4 and jet.index == 1

    def test_weight_eight_normalisations(self, theta4, e4_theta4):
        # k = 8: 1/(1! * (8 - 3/2 + 1)) = 2/15, then /(2 * (8 - 3/2 + 2)) = 2/255
        jet = jet_of_form(e4_theta4, 2)
        assert jet.chis[1] == Q(2, 15) * heat(e4_theta4)
        assert jet.chis[2] == Q(2, 255) * heat(heat(e4_theta4))

    def test_component_weights_step_by_two(self, theta4):
        jet = jet_of_form(theta4, 3)
        assert [chi.weight for chi in jet.chis] == [4, 6, 8, 10]

    def test_negative_order_rejected(self, theta4):
        with pytest.raises(ValueError, match="non-negative"):
            jet_of_form(theta4, -1)


class TestJetScale:
    def test_identity_scale(self, theta4):
        jet = jet_of_form(theta4, 2)
        assert jet_scale_w(jet, 1) == jet

    def test_zero_scale_keeps_only_base(self, theta4):
        jet = jet_scale_w(jet_of_form(theta4, 2), 0)
        assert jet.chis[0] == theta4
        assert jet.chis[1].is_zero() and jet.chis[2].is_zero()

    def test_cubic_scaling(self, theta4):
        jet = jet_of_form(theta4, 3)
        scaled = jet_scale_w(jet, 2)
        assert scaled.chis[3] == 8 * jet.chis[3]


class TestJetProducts:
    def test_constant_jet_is_identity(self, theta4):
        jet = jet_of_form(theta4, 2)
        one = JacobiSeries.one(theta4.trunc)
        constant = jet_of_form(one, 2)  # heat kills the unit, so chis are 1, 0, 0
        assert constant.chis[1].is_zero()
        assert jet_mul(jet, constant) == jet

    def test_cauchy_locality(self, theta4, e4_theta4):
        a, b = jet_of_form(theta4, 2), jet_of_form(e4_theta4, 2)
        product = jet_mul(a, b)
        assert product.chis[1] == a.chis[0] * b.chis[1] + a.chis[1] * b.chis[0]

    @pytest.mark.parametrize("case", ["denominators", "unequal orders", "unit", "zero scale", "zero jet"])
    def test_packed_product_equals_cauchy_sums(self, case, theta4, theta4_index2, e4_theta4):
        a, b = {
            "denominators": (
                jet_scale_w(jet_of_form(theta4, 3), Q(-2, 3)),
                jet_scale_w(jet_of_form(e4_theta4, 3), Q(5, 7)),
            ),
            "unequal orders": (jet_of_form(theta4_index2, 1), jet_of_form(e4_theta4, 3)),
            "unit": (jet_of_form(JacobiSeries.one(4), 3), jet_of_form(e4_theta4, 2)),
            "zero scale": (jet_scale_w(jet_of_form(theta4, 2), 0), jet_of_form(theta4_index2, 2)),
            "zero jet": (jet_of_form(theta4, 2), jet_of_form(JacobiSeries.zero(6, 2, 4), 2)),
        }[case]
        for left, right in ((a, b), (b, a)):
            assert jet_mul(left, right) == cauchy_product(left, right)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_packed_product_on_random_jets(self, data):
        index, trunc = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4))
        a, b = (data.draw(random_jets(index + shift, trunc)) for shift in (0, 1))
        assert jet_mul(a, b) == cauchy_product(a, b)

    def test_trunc_mismatch_rejected(self, theta4):
        small = jet_of_form(theta4.truncated(2), 1)
        with pytest.raises(ValueError, match="truncation"):
            jet_mul(jet_of_form(theta4, 1), small)

    def test_odd_combine_antisymmetry(self, theta4):
        jet = jet_of_form(theta4, 2)
        combined = jet_odd_combine(jet, jet)
        assert all(chi.is_zero() for chi in combined.chis)
        assert combined.base_weight == 9

    def test_component_validation(self, theta4):
        with pytest.raises(ValueError, match="weight"):
            FormalJet(4, 1, (theta4, theta4))


class TestZeta:
    def test_zeroth_projection(self, theta4):
        jet = jet_of_form(theta4, 2)
        assert zeta_nu(jet, 0) == theta4

    def test_first_projection_expansion(self, theta4, e4_theta4):
        jet = jet_mul(jet_of_form(theta4, 1), jet_of_form(e4_theta4, 1))
        base = Q(jet.base_weight) - Q(3, 2) + 1
        expected = -base * jet.chis[1] + heat(jet.chis[0])
        assert zeta_nu(jet, 1) == expected

    def test_single_form_projections_vanish(self, theta4, e4_theta4):
        # the jet of one form is already covariant: higher projections
        # collapse to the zero series, which is vacuously cusp-supported
        for f in (theta4, e4_theta4):
            jet = jet_of_form(f, 2)
            for nu in (1, 2):
                out = zeta_nu(jet, nu)
                assert out.is_zero()
                assert out.has_cusp_support()
                assert out.weight == f.weight + 2 * nu

    def test_out_of_range_component(self, theta4):
        with pytest.raises(ValueError, match="components"):
            zeta_nu(jet_of_form(theta4, 1), 2)

    def test_negative_projection_rejected(self, theta4):
        with pytest.raises(ValueError, match="non-negative"):
            zeta_nu(jet_of_form(theta4, 1), -1)


class TestCrosscheck:
    def test_order_zero_scalar_is_one(self, theta4, e4_theta4):
        assert crosscheck_bracket(theta4, e4_theta4, Q(1), 0) == 1

    def test_theta_pair_order_two(self, theta4):
        assert crosscheck_bracket(theta4, theta4, Q(0), 2) == Q(4, 49)

    def test_odd_order_scalar(self, theta4, theta4_index2):
        assert crosscheck_bracket(theta4, theta4_index2, Q(1), 3) == Q(-4, 49)

    @pytest.mark.parametrize("v", [-1, -2])
    def test_negative_order_rejected(self, theta4, v):
        with pytest.raises(ValueError, match="non-negative"):
            bracket_jacobi(theta4, theta4, Q(0), v)
        with pytest.raises(ValueError, match="non-negative"):
            crosscheck_bracket(theta4, theta4, Q(0), v)

    def test_unequal_truncations_use_the_common_one(self):
        theta8 = jacobi_theta(E8, E8_INDEX1_VECTOR, 8)
        e4_theta6 = eisenstein_q(4, 6) * theta8.truncated(6)
        expected = crosscheck_bracket(theta8.truncated(6), e4_theta6, Q(1), 2)
        assert expected == Q(4, 105)
        assert crosscheck_bracket(theta8, e4_theta6, Q(1), 2) == expected

    def test_both_zero_is_indeterminate(self, theta4):
        assert crosscheck_bracket(theta4, theta4, Q(0), 1) is None

    def test_scalar_depends_only_on_parameters(self, theta4):
        # two distinct pairs with identical (k, k', m, m'): E4^3*theta and
        # the discriminant cusp form times theta, both weight 16 index 1
        e4 = eisenstein_q(4, theta4.trunc)
        e6 = eisenstein_q(6, theta4.trunc)
        e4cube_theta = e4 * (e4 * (e4 * theta4))
        delta = Q(1, 1728) * (e4 * e4 * e4 - e6 * e6)
        delta_theta = delta * theta4
        assert not delta_theta.is_zero()
        assert delta_theta.weight == e4cube_theta.weight == 16
        for v in (2, 3, 4):
            for x in (Q(0), Q(1)):
                lam_a = crosscheck_bracket(theta4, e4cube_theta, x, v)
                lam_b = crosscheck_bracket(theta4, delta_theta, x, v)
                assert lam_a == lam_b is not None

    def test_scalar_is_recorded_for_all_orders(self, theta4, theta4_index2, capsys):
        measured = {}
        for v in range(6):
            lam = crosscheck_bracket(theta4, theta4_index2, Q(1), v)
            measured[v] = lam
            assert lam is None or lam != 0
        print(f"jet/bracket proportionality scalars (k=4, k'=4, m=1, m'=2): {measured}")

    def test_identity_holds_at_operator_level(self, theta4):
        # the proportionality is a formal identity in the operator algebra,
        # so it survives non-form inputs: the oracle validates the assembly
        # of both constructions, independent of input modularity
        coeffs = dict(theta4.items())
        coeffs[(2, 0)] += 1
        not_a_form = JacobiSeries(4, 1, theta4.trunc, coeffs)
        assert not check_disc_class_invariance(not_a_form)[0]
        assert crosscheck_bracket(not_a_form, theta4, Q(1), 2) is not None

    def test_disagreement_raises(self, theta4, theta4_index2, monkeypatch):
        import rcforms.jets as jets_module

        def corrupted(f, g, x, v):
            out = bracket_jacobi(f, g, x, v)
            coeffs = dict(out.items())
            key = out.support()[0]
            coeffs[key] += 1
            return JacobiSeries(out.weight, out.index, out.trunc, coeffs)

        monkeypatch.setattr(jets_module, "bracket_jacobi", corrupted)
        with pytest.raises(CrosscheckError):
            crosscheck_bracket(theta4, theta4_index2, Q(1), 2)

    def test_inconsistent_scalar_names_the_least_corrupted_key(self, theta4, theta4_index2, monkeypatch):
        import rcforms.jets as jets_module

        keys = bracket_jacobi(theta4, theta4_index2, Q(1), 2).support()
        lesser, greater = keys[3], keys[-2]

        def corrupted(f, g, x, v):
            out = bracket_jacobi(f, g, x, v)
            coeffs = dict(out.items())
            for key in (greater, lesser):
                coeffs[key] += 1
            return JacobiSeries(out.weight, out.index, out.trunc, coeffs)

        monkeypatch.setattr(jets_module, "bracket_jacobi", corrupted)
        with pytest.raises(CrosscheckError, match=re.escape(f"no consistent scalar: key {lesser} gives")):
            crosscheck_bracket(theta4, theta4_index2, Q(1), 2)
