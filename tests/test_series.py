import copy
import pickle
from fractions import Fraction
from math import isqrt

import pytest

from rcforms.series import (
    EllipticSeries,
    InvariantError,
    JacobiSeries,
    _class_members,
    _parity_failure,
    check_disc_class_invariance,
    check_parity,
    d_z,
    form_witness,
    heat,
    heat_power,
    theta_q,
)
from rcforms.seriesio import export_series
from rcforms.siegel import SiegelSeries

Q = Fraction


def series(weight, index, trunc, coeffs):
    return JacobiSeries(weight, index, trunc, coeffs)


class TestConstruction:
    def test_zero_values_are_dropped(self):
        f = series(4, 1, 2, {(1, 0): 0, (2, 1): 3})
        assert f.support() == [(2, 1)]

    def test_key_outside_truncation_rejected(self):
        with pytest.raises(ValueError, match="outside truncation"):
            series(4, 1, 2, {(3, 0): 1})

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            series(4, -1, 2, {})

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            series(4, 1, 2, {(1, 0): 0.5})

    @pytest.mark.parametrize("kind, tags, key, shape", [
        (JacobiSeries, (4, 1, 2), (1.5, 0), "a tuple of 2 ints"),
        (JacobiSeries, (4, 1, 2), (1.0, 0), "a tuple of 2 ints"),
        (JacobiSeries, (4, 1, 2), (Q(1, 2), 0), "a tuple of 2 ints"),
        (JacobiSeries, (4, 1, 2), (1, 0, 0), "a tuple of 2 ints"),
        (JacobiSeries, (4, 1, 2), (1,), "a tuple of 2 ints"),
        (JacobiSeries, (4, 1, 2), (True, 0), "a tuple of 2 ints"),
        (JacobiSeries, (4, 1, 2), 1, "a tuple of 2 ints"),
        (SiegelSeries, (4, 2), (1, 0), "a tuple of 3 ints"),
        (SiegelSeries, (4, 2), (1, 0, 1.0), "a tuple of 3 ints"),
        (EllipticSeries, (4, 2), (1, 0), "an int"),
        (EllipticSeries, (4, 2), 1.0, "an int"),
    ])
    def test_keys_that_are_not_int_tuples_rejected(self, kind, tags, key, shape):
        # the key is named, after the good keys before it
        with pytest.raises(TypeError) as info:
            kind(*tags, {(0,) * kind._KEY_WIDTH or 0: 1, key: 1})
        assert str(info.value) == f"coefficient key {key!r} must be {shape}"

    @pytest.mark.parametrize("kind, tags, name", [
        (JacobiSeries, (4, 1.0, 2.0), "index"),
        (JacobiSeries, (4, 1, 2.0), "truncation"),
        (JacobiSeries, (Q(9, 2), 1, 2), "weight"),
        (EllipticSeries, (4.0, 2), "weight"),
        (EllipticSeries, (4, Q(2)), "truncation"),
        (SiegelSeries, (4.0, 1), "weight"),
        (SiegelSeries, (4, 1.0), "truncation"),
        (JacobiSeries, (True, 1, 2), "weight"),
        (JacobiSeries, (4, True, 2), "index"),
        (JacobiSeries, (4, 1, True), "truncation"),
    ])
    def test_non_integer_tags_rejected(self, kind, tags, name):
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            kind(*tags)

    def test_immutable(self):
        for f in (
            series(4, 1, 2, {(1, 0): 1}),
            EllipticSeries(4, 2, {1: 1}),
            SiegelSeries(4, 2, {(1, 0, 1): 1}),
        ):
            for name in ("weight", "index", "trunc", "_den", "_num"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(f, name, 6)

    def test_zero_valued_key_outside_range_rejected(self):
        with pytest.raises(ValueError, match="outside truncation"):
            series(4, 1, 2, {(3, 0): 0})
        with pytest.raises(ValueError, match="outside truncation"):
            EllipticSeries(4, 2, {-1: 0})
        with pytest.raises(ValueError, match="outside truncation"):
            SiegelSeries(4, 2, {(0, 0, 3): 0})

    def test_integer_path_checks_keys_values_and_denominator(self):
        # the store's integer constructor, behind every derived series,
        # keeps the checks of the public one
        with pytest.raises(ValueError, match="outside truncation"):
            JacobiSeries._from_integers((4, 1), 2, 3, {(3, 0): 1})
        with pytest.raises(ValueError, match="outside truncation"):
            JacobiSeries._from_integers((4, 1), 2, 3, {(-1, 0): 0})
        f = series(4, 1, 2, {(1, 0): Q(1, 2)})
        with pytest.raises(ValueError, match="outside truncation"):
            f._like(1, f._den, {(2, 0): 1})
        with pytest.raises(TypeError):
            f._like(2, f._den, {(1, 0): 0.5})
        with pytest.raises(TypeError, match="weight must be an int"):
            JacobiSeries._from_integers((4.0, 1), 2, 1, {})
        with pytest.raises(ValueError, match="^index must be non-negative, got -1$"):
            JacobiSeries._from_integers((4, -1), 2, 1, {})
        with pytest.raises(InvariantError, match="denominator"):
            f._like(2, 0, {(1, 0): 1})

    def test_unhashable(self):
        for f in (series(4, 1, 2, {}), EllipticSeries(4, 2), SiegelSeries(4, 2)):
            with pytest.raises(TypeError, match="unhashable"):
                hash(f)

    def test_repr(self):
        assert repr(series(4, 1, 2, {(1, 0): 1, (2, 1): 3})) == (
            "JacobiSeries(weight=4, index=1, trunc=2, terms=2)"
        )
        assert repr(EllipticSeries(6, 3, {0: 1})) == "EllipticSeries(weight=6, trunc=3, terms=1)"
        assert repr(SiegelSeries(4, 1, {(0, 0, 1): 2, (1, 0, 0): 2})) == (
            "SiegelSeries(weight=4, trunc=1, terms=2)"
        )

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
    def test_copy_and_pickle_round_trip(self, clone):
        for f in (
            series(4, 1, 2, {(1, 0): Q(-3, 2), (2, 1): 5}),
            EllipticSeries(6, 3, {0: 1, 2: Q(1, 7)}),
            SiegelSeries(4, 1, {(0, 0, 1): 2, (1, 0, 0): 2, (1, 1, 1): Q(1, 3)}),
            series(0, 0, 0, {}),
        ):
            g = clone(f)
            assert type(g) is type(f) and g == f and repr(g) == repr(f)
            assert g._num is not f._num
            with pytest.raises(AttributeError, match="immutable"):
                g.trunc = 5

    def test_truncation_cannot_grow(self):
        f = series(4, 1, 2, {(1, 0): 1})
        assert f.truncated(2) == f
        with pytest.raises(ValueError, match="cannot extend truncation 2 to 3"):
            f.truncated(3)

    def test_one(self):
        one = JacobiSeries.one(3)
        assert (one.weight, one.index) == (0, 0)
        assert one[(0, 0)] == 1 and len(one.support()) == 1


class TestRingOperations:
    def test_additive_identity(self, theta4):
        zero = JacobiSeries.zero(theta4.weight, theta4.index, theta4.trunc)
        assert theta4 + zero == theta4

    def test_additive_inverse(self, theta4):
        assert (theta4 + (-1) * theta4).is_zero()

    def test_pointwise_sum(self):
        f = series(4, 1, 2, {(1, 0): 2})
        g = series(4, 1, 2, {(1, 0): 3})
        assert (f + g)[(1, 0)] == 5

    def test_add_rejects_mismatched_weight(self):
        with pytest.raises(ValueError, match="weight/index"):
            series(4, 1, 2, {}) + series(6, 1, 2, {})

    def test_add_rejects_mismatched_index(self):
        with pytest.raises(ValueError, match="weight/index"):
            series(4, 1, 2, {}) + series(4, 2, 2, {})

    def test_multiplicative_unit(self, theta4):
        assert theta4 * JacobiSeries.one(theta4.trunc) == theta4

    def test_mul_bookkeeping(self, theta4):
        square = theta4 * theta4
        assert square.weight == 8 and square.index == 2 and square.trunc == 4

    def test_product_of_holomorphic_supports(self, theta4, theta4_index2):
        assert (theta4 * theta4_index2).has_holomorphic_support()

    def test_zeta_only_terms_multiply_into_constant(self):
        f = series(0, 0, 1, {(0, 1): 2})
        g = series(0, 0, 1, {(0, -1): 3})
        assert (f * g)[(0, 0)] == 6

    def test_truncation_is_min(self):
        f = series(4, 1, 5, {(5, 0): 1, (1, 0): 1})
        g = series(4, 1, 3, {(0, 0): 1})
        assert (f * g).trunc == 3
        assert (f * g).support() == [(1, 0)]

    def test_scalar_multiples(self, theta4):
        assert (Q(1, 2) * theta4)[(1, 0)] == Q(126, 2)
        with pytest.raises(TypeError):
            0.5 * theta4


class TestOperators:
    def test_theta_q_annihilates_constant_terms(self):
        f = series(4, 1, 2, {(0, 0): 7, (2, 1): 1})
        assert theta_q(f)[(0, 0)] == 0

    def test_theta_q_multiplier(self):
        f = series(4, 1, 3, {(3, 1): Q(5, 2)})
        assert theta_q(f)[(3, 1)] == Q(15, 2)

    def test_theta_q_is_a_derivation(self, theta4, theta4_index2):
        f, g = theta4, theta4_index2
        assert theta_q(f * g) == theta_q(f) * g + f * theta_q(g)

    def test_d_z_antisymmetrises(self, theta4):
        out = d_z(theta4)
        assert out[(1, 2)] == -out[(1, -2)] != 0

    def test_d_z_multiplier(self):
        f = series(4, 1, 2, {(1, -2): 5})
        assert d_z(f)[(1, -2)] == -10

    def test_d_z_twice(self, theta4):
        twice = d_z(d_z(theta4))
        assert all(twice[(n, r)] == r * r * theta4[(n, r)] for (n, r) in theta4.support())

    def test_heat_kills_support_boundary(self):
        f = series(4, 1, 2, {(1, 2): 9})
        assert heat(f).is_zero()

    def test_heat_interior_multiplier(self):
        f = series(4, 1, 2, {(1, 0): 3})
        out = heat(f)
        assert out[(1, 0)] == 12 and out.weight == 6 and out.index == 1

    def test_heat_at_index_zero_is_minus_dz_squared(self):
        f = series(4, 0, 3, {(1, 0): 2, (2, 3): 5, (0, -1): 1})
        assert heat(f) == -1 * d_z(d_z(f))

    def test_negative_heat_power_rejected(self, theta4):
        with pytest.raises(ValueError, match="non-negative"):
            heat_power(theta4, -1)


def brute_force_disc_class_check(f):
    """All-pairs oracle: stored keys in one (disc, r mod 2m) class agree."""
    keys = f.support()
    for i, (n1, r1) in enumerate(keys):
        for n2, r2 in keys[i + 1 :]:
            same_disc = 4 * n1 * f.index - r1 * r1 == 4 * n2 * f.index - r2 * r2
            same_residue = (r1 - r2) % (2 * f.index) == 0
            if same_disc and same_residue and f[(n1, r1)] != f[(n2, r2)]:
                return False
    return True


class TestFormChecks:
    def test_theta_is_disc_class_invariant(self, theta4):
        assert brute_force_disc_class_check(theta4)
        assert check_disc_class_invariance(theta4) == (True, None)

    def test_check_agrees_with_all_pairs_oracle(self, theta4):
        coeffs = dict(theta4.items())
        coeffs[(2, 2)] += 3
        perturbed = JacobiSeries(4, 1, 4, coeffs)
        assert not brute_force_disc_class_check(perturbed)
        assert not check_disc_class_invariance(perturbed)[0]

    def test_sparse_series_vacuously_invariant(self):
        f = series(4, 1, 1, {(1, 0): 1})
        assert check_disc_class_invariance(f) == (True, None)

    def test_perturbed_theta_fails_with_witness(self, theta4):
        coeffs = dict(theta4.items())
        coeffs[(1, 1)] += 1
        bad = series(4, 1, 4, coeffs)
        ok, witness = check_disc_class_invariance(bad)
        assert not ok
        keys = {witness[0], witness[2]}
        assert (1, 1) in keys or (1, -1) in keys

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError, match="index"):
            check_disc_class_invariance(series(4, 0, 2, {(1, 0): 1}))

    def test_theta_parity(self, theta4):
        assert check_parity(theta4)

    def test_d_z_output_parity(self, theta4):
        # odd weight tag, antisymmetric coefficients
        assert check_parity(d_z(theta4))

    def test_asymmetric_series_fails_parity(self):
        assert not check_parity(series(4, 1, 1, {(1, 1): 1}))

    def test_parity_failure_names_the_least_key_stored_or_not(self):
        # c(1, 1) alone fails the rule at (1, 1) and at the unstored (1, -1), the lesser key
        assert _parity_failure(series(4, 1, 1, {(1, 1): 1})) == (1, -1)
        assert _parity_failure(series(5, 1, 1, {(1, 1): 1, (1, -1): -1})) is None
        # at odd weight the rule forces c(n, 0) = 0
        assert _parity_failure(series(5, 1, 1, {(0, 0): 1, (1, 1): 1, (1, -1): -1})) == (0, 0)

    def test_support_predicates(self, theta4):
        assert theta4.has_holomorphic_support()
        assert not theta4.has_cusp_support()  # boundary terms r^2 = 4n
        weak = series(4, 1, 2, {(1, 3): 1})
        assert not weak.has_holomorphic_support()

    def test_form_witness_passes_thetas(self, theta4, theta4_index2):
        assert form_witness(theta4) == form_witness(theta4_index2) == ""

    def test_form_witness_cusp_flag(self, theta4):
        assert form_witness(theta4, cusp=True) == "cusp support: c(0, 0) = 1"

    def test_form_witness_names_support_first(self):
        # outside the cone, and also neither parity- nor class-invariant
        assert form_witness(series(4, 1, 2, {(1, 3): 1})) == "holomorphic support: c(1, 3) = 1"

    def test_form_witness_disc_class(self, theta4):
        coeffs = dict(theta4.items())
        coeffs[(2, 2)] += 3
        assert form_witness(series(4, 1, 4, coeffs)) == "disc-class: c(2, -2) = 126 vs c(2, 2) = 129"

    def test_form_witness_parity_alone(self, theta4_index2):
        # at index 2, c(4, 1) shares its (disc, r mod 4) class with no other
        # key at n <= 4, so perturbing it breaks parity only
        coeffs = dict(theta4_index2.items())
        coeffs[(4, 1)] += 1
        bad = series(4, 2, 4, coeffs)
        assert check_disc_class_invariance(bad) == (True, None)
        assert form_witness(bad) == "parity: c(4, -1) = 2688 vs c(4, 1) = 2689"

    def test_form_witness_index_zero(self):
        assert form_witness(series(4, 0, 2, {(0, 0): 1, (1, 0): 240})) == ""
        assert form_witness(series(4, 0, 2, {(1, 1): 1})) == "holomorphic support: c(1, 1) = 1"

    def test_class_members_match_brute_force_enumeration(self):
        # r runs 8 past the cone edge at n = trunc, so the window holds classes
        # with 4nm - r^2 < 0, which the keys with n' < 0 split in two
        for m in range(1, 5):
            for trunc in range(9):
                edge = isqrt(4 * trunc * m) + 8
                for n in range(trunc + 1):
                    for r in range(-edge, edge + 1):
                        disc = 4 * n * m - r * r
                        brute = [
                            ((disc + r2 * r2) // (4 * m), r2)
                            for r2 in range(-3 * edge, 3 * edge + 1)
                            if (r2 - r) % (2 * m) == 0
                            and (disc + r2 * r2) % (4 * m) == 0
                            and 0 <= disc + r2 * r2 <= 4 * m * trunc
                        ]
                        assert _class_members((n, r), m, trunc) == brute, (n, r, m, trunc)


class TestEllipticSeries:
    def test_embedding(self):
        e = EllipticSeries(4, 3, {0: 1, 2: 7})
        f = e.as_jacobi()
        assert f.index == 0 and f[(2, 0)] == 7 and f[(2, 1)] == 0

    def test_mixed_product_weight(self, theta4):
        e = EllipticSeries(4, 4, {0: 1, 1: 240})
        left = e * theta4
        right = theta4 * e
        assert left == right
        assert left.weight == 8 and left.index == 1

    def test_mixed_product_exports_the_same_bytes_either_way(self, theta4):
        e = EllipticSeries(4, 3, {0: 1, 1: 240, 3: Q(-1, 7)})
        assert export_series(theta4 * e) == export_series(e * theta4)

    def test_ring_ops(self):
        e = EllipticSeries(4, 3, {0: 1, 1: 2})
        assert (e * e)[1] == 4
        assert (e - e).is_zero()
        assert (3 * e)[1] == 6

    def test_add_rejects_weight_mismatch(self):
        with pytest.raises(ValueError, match="weight"):
            EllipticSeries(4, 2, {}) + EllipticSeries(6, 2, {})

    def test_never_equal_to_its_jacobi_embedding(self):
        for e in (EllipticSeries(4, 3, {0: 1, 2: 7}), EllipticSeries(0, 0)):
            f = e.as_jacobi()
            assert e != f and f != e
            assert not (e == f) and not (f == e)

    def test_cross_kind_operations_rejected(self):
        e = EllipticSeries(0, 1, {0: 1})
        with pytest.raises(TypeError):
            e + e.as_jacobi()
        with pytest.raises(TypeError):
            e.as_jacobi() - e
        with pytest.raises(TypeError):
            SiegelSeries(0, 1, {(0, 0, 0): 1}) * e.as_jacobi()
        F = SiegelSeries(2, 1, {(0, 0, 0): 1, (1, 0, 0): 3, (0, 0, 1): 3, (1, 1, 1): Fraction(1, 2)})
        j = JacobiSeries(2, 1, 2, {(0, 0): 1, (1, 1): Fraction(2, 3), (1, -1): Fraction(2, 3)})
        with pytest.raises(TypeError):
            j * F
        with pytest.raises(TypeError):
            F + j
        e = EllipticSeries(4, 2, {0: 1, 1: 5, 2: Fraction(-1, 7)})
        assert type(e * j) is JacobiSeries and e * j == j * e
        for G in (-F, F.truncated(1), F.truncated(0)):
            assert type(G) is SiegelSeries and G.weight == 2
        assert (-F)[(1, 1, 1)] == Fraction(-1, 2) and F.truncated(0).items() == [((0, 0, 0), 1)]
