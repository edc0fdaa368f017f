from fractions import Fraction
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from rcforms import brackets as brackets_module
from rcforms.brackets import (
    _exact_rank,
    _index_factors,
    _reduced,
    _weight_factors,
    BracketParams,
    bracket_jacobi,
    bracket_jacobi_poly,
    bracket_rank_over_x,
    bracket_terms,
    check_recursions,
    coeff_C,
    coeff_D,
    falling_factorial,
)
from rcforms.jets import crosscheck_bracket
from rcforms.lattices import E8, E8_INDEX1_VECTOR, eisenstein_q, jacobi_theta, standard_index_vector
from rcforms.series import EllipticSeries, JacobiSeries, _integer_form, d_z, heat_power
from rcforms.siegel import SiegelSeries, bracket_siegel_direct, bracket_siegel_via_jacobi
from rcforms.verify import FormSet
from row_shapes import sparse_rows, window

Q = Fraction


def weight_shifts(k1, k2, v):
    """(alpha, beta, gamma) = (k1 - 3/2, k2 - 3/2, k1 + k2 - 3/2 + (v mod 2)) from the weights."""
    return Q(k1) - Q(3, 2), Q(k2) - Q(3, 2), Q(k1) + Q(k2) - Q(3, 2) + (v % 2)


def direct_C(r, s, p, k1, k2, v):
    """Independent evaluation of the displayed coefficient product."""
    alpha, beta, gamma = weight_shifts(k1, k2, v)
    t = r + s + p
    ff = lambda x, n: prod((x - i for i in range(n)), start=Q(1))
    return (
        ff(alpha + t, s + p)
        * ff(beta + t, r + p)
        * ff(-(gamma + t), r + s)
        / (factorial(r) * factorial(s) * factorial(p))
    )


class TestFallingFactorial:
    def test_empty_product(self):
        assert falling_factorial(Q(7, 3), 0) == 1

    def test_single_step(self):
        assert falling_factorial(Q(7, 2), 1) == Q(7, 2)

    def test_two_steps(self):
        assert falling_factorial(Q(5, 2), 2) == Q(15, 4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(Q(1), -1)


class TestCoefficientC:
    def test_base_coefficient_is_one(self):
        for k1, k2, v in [(4, 4, 2), (6, 10, 5), (35, 4, 7)]:
            assert coeff_C(0, 0, 0, BracketParams(k1, k2, 1, 1, v)) == 1

    def test_frozen_values_weight_four_order_two(self):
        params = BracketParams(4, 4, 1, 1, 2)
        assert coeff_C(1, 0, 0, params) == Q(-105, 4)
        assert coeff_C(0, 0, 1, params) == Q(49, 4)

    def test_against_direct_evaluation(self):
        for k1, k2, v in [(4, 6, 2), (8, 10, 4), (4, 4, 5), (12, 6, 7)]:
            params = BracketParams(k1, k2, 1, 2, v)
            vf = v // 2
            for r in range(vf + 1):
                for s in range(vf + 1 - r):
                    p = vf - r - s
                    assert coeff_C(r, s, p, params) == direct_C(r, s, p, k1, k2, v)

    def test_symmetry_under_argument_swap(self):
        a = coeff_C(2, 1, 0, BracketParams(4, 10, 1, 1, 6))
        b = coeff_C(1, 2, 0, BracketParams(10, 4, 1, 1, 6))
        assert a == b


class TestCoefficientD:
    def test_unit(self):
        assert coeff_D(0, 0, 0, 0, BracketParams(4, 4, 2, 3, 2, Q(1, 2))) == 1

    def test_single_left_derivative(self):
        assert coeff_D(0, 0, 1, 0, BracketParams(4, 4, 2, 3, 1)) == -3

    def test_single_right_derivative(self):
        assert coeff_D(0, 0, 0, 1, BracketParams(4, 4, 2, 3, 1)) == 2

    def test_linear_factors(self):
        x = Q(1, 5)
        params = BracketParams(4, 4, 2, 3, 2, x)
        assert coeff_D(1, 0, 0, 0, params) == 1 - 3 * x
        assert coeff_D(0, 1, 0, 0, params) == 1 + 2 * x

    def test_two_derivatives_rejected(self):
        with pytest.raises(ValueError):
            coeff_D(0, 0, 1, 1, BracketParams(4, 4, 1, 1, 2))


# (k1, k2) pairs from the weights 4, 6, 9/2, 7/3, then pairs where one
# Pochhammer factor of C vanishes for some v <= 12: k1 = 1/2 zeroes an A
# (alpha + t - i = 0), k2 = -1/2 zeroes a B, and k1 = k2 = -5/4 zeroes only
# G factors (gamma = -4 or -3 is an integer, alpha and beta are not)
FACTOR_WEIGHTS = [(4, 6), (6, 4), (Q(9, 2), Q(7, 3)), (Q(7, 3), 4), (6, Q(9, 2))]
VANISHING_WEIGHTS = [(Q(1, 2), 6), (4, Q(-1, 2)), (Q(-5, 4), Q(-5, 4))]


def fraction_weight_lists(params):
    """(A, B, G) as Fraction lists: A[e] = (alpha + t)_{t-e} / e! and likewise B, G."""
    t = params.half_order
    alpha, beta, gamma = weight_shifts(params.k1, params.k2, params.v)

    def side(a):
        return [falling_factorial(a, t - e) / factorial(e) for e in range(t + 1)]

    return side(alpha + t), side(beta + t), side(-(gamma + t))


def fraction_index_lists(params):
    """(L, R) as Fraction lists: L[r] = (1 - m2 x)^r and R[s] = (1 + m1 x)^s."""
    span = range(params.half_order + 1)
    return [(1 - params.m2 * params.x) ** r for r in span], [(1 + params.m1 * params.x) ** s for s in span]


def cleared(values):
    """_integer_form of a Fraction list, as (den, [ints])."""
    den, ints = _integer_form(enumerate(values))
    return den, list(ints.values())


class TestFactorisedCoefficients:
    """The bracket pass applies C and D as per-side integer factors over
    their denominators; these tie the factors back to coeff_C and coeff_D
    and to the Fraction lists they replace."""

    @pytest.mark.parametrize("k1,k2", FACTOR_WEIGHTS + VANISHING_WEIGHTS)
    def test_weight_factors_multiply_to_C(self, k1, k2):
        vanished = 0
        for v in range(13):
            params = BracketParams(k1, k2, 1, 2, v)
            (den_A, A), (den_B, B), (den_G, G) = _weight_factors(params)
            den = den_A * den_B * den_G
            t = v // 2
            for r in range(t + 1):
                for s in range(t + 1 - r):
                    p = t - r - s
                    assert Q(A[r] * B[s] * G[p], den) == coeff_C(r, s, p, params), (v, r, s, p)
                    vanished += coeff_C(r, s, p, params) == 0
        assert bool(vanished) == ((k1, k2) in VANISHING_WEIGHTS)

    @pytest.mark.parametrize("k1,k2", FACTOR_WEIGHTS + VANISHING_WEIGHTS)
    def test_weight_factors_reduce_to_the_integer_form(self, k1, k2):
        for v in range(13):
            params = BracketParams(k1, k2, 1, 2, v)
            for side, fractions in zip(_weight_factors(params), fraction_weight_lists(params)):
                assert _reduced(*side) == cleared(fractions), v

    @pytest.mark.parametrize("m1,m2", [(1, 1), (1, 2), (3, 0), (0, 2), (2, 3)])
    def test_index_factors_multiply_to_D(self, m1, m2):
        xs = [Q(0), Q(1, 3), Q(-3, 2), Q(2)] + ([Q(-1, m1)] if m1 else []) + ([Q(1, m2)] if m2 else [])
        for x in xs:
            for v in range(9):
                params = BracketParams(4, 6, m1, m2, v, x)
                (den_L, L), (den_R, R) = _index_factors(params)
                fractions = fraction_index_lists(params)
                assert [Q(value, den_L) for value in L] == fractions[0]
                assert [Q(value, den_R) for value in R] == fractions[1]
                t = v // 2
                for r in range(t + 1):
                    for s in range(t + 1 - r):
                        for i, j in ((0, 0), (0, 1), (1, 0)):
                            value = Q((-m2) ** i * L[r] * m1**j * R[s], den_L * den_R)
                            assert value == coeff_D(r, s, i, j, params)

    @pytest.mark.parametrize("k1,k2", [(4, 6), (10, 4), (-3, 1)])
    @pytest.mark.parametrize("m1,m2,x", [(1, 2, Q(0)), (1, 1, Q(-1, 2)), (2, 3, Q(1, 3)), (3, 0, Q(-1, 3))])
    def test_kernel_lists_equal_the_integer_form(self, monkeypatch, k1, k2, m1, m2, x):
        """The lists A*L and B*R that bracket_jacobi hands to the kernel are the
        ints _integer_form gives for the Fraction products, so the packed digit
        widths are those of the values over their least common denominator."""
        seen = []
        kernel = brackets_module._bracket_pass

        def spy(f, g, left, right, cross, slots):
            seen.append((left, right))
            return kernel(f, g, left, right, cross, slots)

        monkeypatch.setattr(brackets_module, "_bracket_pass", spy)
        f, g = JacobiSeries(k1, m1, 2, {(1, 0): 1}), JacobiSeries(k2, m2, 2, {(1, 1): 1, (2, 0): 3})
        for v in range(13):
            brackets_module.bracket_jacobi(f, g, x, v)
            params = BracketParams(k1, k2, m1, m2, v, x)
            sides = zip(fraction_weight_lists(params), fraction_index_lists(params))
            expected = tuple(cleared([a * b for a, b in zip(w, i)]) for w, i in sides)
            assert seen.pop() == expected, v


def test_bracket_set_up_runs_on_ints(monkeypatch, theta4, theta4_index2):
    """The Jacobi bracket and its x-polynomial build their weight lists without
    falling_factorial or _integer_form; the outputs are unchanged."""
    cases = [(v, x) for v in range(7) for x in (Q(0), Q(-1, 2), Q(2, 3))]
    expected = [bracket_jacobi(theta4, theta4_index2, x, v) for v, x in cases]
    polys = [bracket_jacobi_poly(theta4_index2, theta4, v) for v in range(7)]

    def forbidden(*args):
        raise RuntimeError("Fraction set-up called")

    for name in ("falling_factorial", "_integer_form"):
        monkeypatch.setattr(brackets_module, name, forbidden)
    assert [brackets_module.bracket_jacobi(theta4, theta4_index2, x, v) for v, x in cases] == expected
    assert [brackets_module.bracket_jacobi_poly(theta4_index2, theta4, v) for v in range(7)] == polys


class TestBracketDegenerations:
    def test_order_zero_is_product(self, theta4, e4_theta4):
        for x in (Q(0), Q(1), Q(-1, 2)):
            assert bracket_jacobi(theta4, e4_theta4, x, 0) == theta4 * e4_theta4

    def test_order_one_self_bracket_vanishes(self, theta4):
        for x in (Q(0), Q(1)):
            assert bracket_jacobi(theta4, theta4, x, 1).is_zero()

    def test_order_one_ignores_x(self, theta4, theta4_index2):
        a = bracket_jacobi(theta4, theta4_index2, 0, 1)
        b = bracket_jacobi(theta4, theta4_index2, 1, 1)
        assert a == b and not a.is_zero()

    def test_order_one_explicit_form(self, theta4, theta4_index2):
        from rcforms.series import d_z

        f, g = theta4, theta4_index2
        expected = 1 * (f * d_z(g)) - 2 * (d_z(f) * g)
        assert bracket_jacobi(f, g, 0, 1) == expected

    def test_weight_index_bookkeeping(self, theta4, theta4_index2):
        out = bracket_jacobi(theta4, theta4_index2, Q(1, 3), 5)
        assert out.weight == 4 + 4 + 5 and out.index == 3

    def test_index_zero_pairs_collapse(self):
        e4 = EllipticSeries(4, 4, {0: 1, 1: 240}).as_jacobi()
        e6 = EllipticSeries(6, 4, {0: 1, 1: -504}).as_jacobi()
        for v in (1, 2, 3):
            assert bracket_jacobi(e4, e6, Q(1), v).is_zero()
        assert not bracket_jacobi(e4, e6, Q(1), 0).is_zero()


class TestBracketForms:
    def test_cusp_support_above_order_one(self, theta4, e4_theta4):
        for v in (2, 3, 4):
            out = bracket_jacobi(theta4, e4_theta4, Q(-1, 2), v)
            assert out.has_cusp_support()

    def test_term_count(self):
        assert len(bracket_terms(BracketParams(4, 4, 1, 1, 4))) == 6
        assert len(bracket_terms(BracketParams(4, 4, 1, 1, 5))) == 12


SWAP_FORMS = FormSet(trunc=6, siegel_trunc=1)
SWAP_PAIRS = {
    "(theta,E4*theta)": ("theta", "e4_theta"),
    "(theta,theta-index2)": ("theta", "theta_index2"),
    "(E4*theta,theta-index2)": ("e4_theta", "theta_index2"),
    "(E6*theta,E4*theta)": ("e6_theta", "e4_theta"),
}


@pytest.mark.parametrize("pair", SWAP_PAIRS)
@pytest.mark.parametrize("v", range(6))
def test_argument_swap_on_whole_series(pair, v):
    """[g, f]_{v,x} = (-1)**v [f, g]_{v,-x} on every coefficient, for pairs of unequal weight or index."""
    f, g = (getattr(SWAP_FORMS, name) for name in SWAP_PAIRS[pair])
    for x in (Q(0), Q(1), Q(1, 3), Q(-2, 5)):
        assert bracket_jacobi(g, f, x, v) == (-1) ** v * bracket_jacobi(f, g, -x, v)


class TestBracketPolynomial:
    def test_degenerate_orders(self, theta4, e4_theta4):
        assert bracket_jacobi_poly(theta4, e4_theta4, 0) == [theta4 * e4_theta4]
        parts = bracket_jacobi_poly(theta4, e4_theta4, 1)
        assert parts == [bracket_jacobi(theta4, e4_theta4, 0, 1)]

    @pytest.mark.parametrize("v", [2, 3, 4, 5])
    def test_length_bound(self, theta4, theta4_index2, v):
        assert len(bracket_jacobi_poly(theta4, theta4_index2, v)) == v // 2 + 1

    @pytest.mark.parametrize("v", [2, 3, 4, 5])
    def test_evaluation_matches_bracket(self, theta4, theta4_index2, v):
        parts = bracket_jacobi_poly(theta4, theta4_index2, v)
        for x in [Q(i) for i in range(v // 2 + 1)] + [Q(-1, 2)]:
            total = parts[0]
            power = Q(1)
            for part in parts[1:]:
                power *= x
                total = total + power * part
            assert total == bracket_jacobi(theta4, theta4_index2, x, v)

    @pytest.mark.parametrize("v", [0, 1, 2, 5])
    def test_unequal_truncations_bookkeeping(self, theta4, e4_theta4, v):
        short = e4_theta4.truncated(2)  # weight 8, index 1
        for f, g in ((theta4, short), (short, theta4)):
            for part in bracket_jacobi_poly(f, g, v):
                assert (part.weight, part.index, part.trunc) == (4 + 8 + v, 2, 2)

    def test_evaluation_at_zero_gives_constant_part(self, theta4, theta4_index2):
        parts = bracket_jacobi_poly(theta4, theta4_index2, 2)
        assert parts[0] == bracket_jacobi(theta4, theta4_index2, 0, 2)

    @pytest.mark.parametrize("v", [2, 4])
    def test_top_coefficient_is_the_x_derivative(self, theta4, theta4_index2, v):
        # (d/dx)^{v/2} of the degree-v/2 polynomial equals (v/2)! times the
        # top coefficient; finite differences compute that derivative exactly
        half = v // 2
        parts = bracket_jacobi_poly(theta4, theta4_index2, v)
        evaluations = [bracket_jacobi(theta4, theta4_index2, t, v) for t in range(half + 1)]
        total = None
        for j, value in enumerate(evaluations):
            term = ((-1) ** (half - j) * comb(half, j)) * value
            total = term if total is None else total + term
        assert total == factorial(half) * parts[half]


class TestRank:
    def test_order_one_rank(self, theta4, theta4_index2):
        assert bracket_rank_over_x(theta4, theta4_index2, 1) == 1

    def test_self_pair_order_two_collapses(self, theta4):
        # for f = g the two x-linear summands carry equal coefficients and
        # identical series, so the x-dependence cancels: rank 1, not 2
        parts = bracket_jacobi_poly(theta4, theta4, 2)
        assert parts[1].is_zero() and not parts[0].is_zero()
        assert bracket_rank_over_x(theta4, theta4, 2) == 1

    def test_mixed_pair_reaches_order_two_bound(self, theta4, e4_theta4):
        assert bracket_rank_over_x(theta4, e4_theta4, 2) == 2

    def test_zero_family_has_rank_zero(self, theta4):
        assert bracket_rank_over_x(theta4, theta4, 1) == 0

    def test_sampled_rank_equals_rank_of_x_coefficients(self):
        # the fixed points x = 0..floor(v/2)+1 span what the polynomial's
        # coefficients span, so the two ranks agree whenever the degree bound holds
        theta = jacobi_theta(E8, E8_INDEX1_VECTOR, 6)
        e4_theta, e6_theta = eisenstein_q(4, 6) * theta, eisenstein_q(6, 6) * theta
        theta_index2 = jacobi_theta(E8, standard_index_vector(E8, 2), 6)
        pairs = [(theta, e4_theta), (e4_theta, e6_theta), (theta, theta_index2), (theta, theta)]
        for f, g in pairs:
            for v in range(2, 8):
                parts = bracket_jacobi_poly(f, g, v)
                keys = sorted(set().union(*(p.support() for p in parts)))
                expected = _exact_rank([[p[key] for key in keys] for p in parts])
                assert bracket_rank_over_x(f, g, v) == expected, (f.weight, g.weight, v)

    @staticmethod
    def fraction_rank(rows):
        """Reference: Gaussian elimination in plain Fraction arithmetic."""
        rows = [[Q(a) for a in row] for row in rows if any(row)]
        rank, col, ncols = 0, 0, len(rows[0]) if rows else 0
        while rank < len(rows) and col < ncols:
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if pivot is None:
                col += 1
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(rank + 1, len(rows)):
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
            col += 1
        return rank

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exact_rank_matches_fraction_elimination(self, data):
        # rows: combinations of a small basis (rank 0 included), with zero
        # rows, repeated rows and zero columns mixed in, so the elimination
        # skips columns and swaps rows
        ncols = data.draw(st.integers(1, 7))
        small = st.fractions(min_value=-9, max_value=9, max_denominator=12)
        basis = data.draw(st.lists(st.lists(small, min_size=ncols, max_size=ncols), max_size=4))
        for col in data.draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
            for row in basis:
                row[col] = Q(0)
        rows = [
            [sum((c * b[j] for c, b in zip(weights, basis)), Q(0)) for j in range(ncols)]
            for weights in data.draw(st.lists(st.lists(small, min_size=len(basis), max_size=len(basis)), max_size=6))
        ]
        rows += [[Q(0)] * ncols] * data.draw(st.integers(0, 2))
        rows += [rows[i][:] for i in data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))] if rows else []
        rows = data.draw(st.permutations(rows))
        rank = _exact_rank(rows)
        assert rank == self.fraction_rank(rows) <= len(basis)
        # rows cleared to ints (as bracket_rank_over_x passes them) keep the rank
        cleared = []
        for row in rows:
            den = lcm(*(a.denominator for a in row))
            cleared.append([int(a * den) for a in row])
        assert _exact_rank(cleared) == rank

    def test_exact_rank_of_zero_and_empty_matrices(self):
        assert _exact_rank([]) == 0
        assert _exact_rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert _exact_rank([[Q(1, 2), 1], [1, 2], [Q(-3, 7), Q(-6, 7)]]) == 1


class TestRecursions:
    def test_weight_four_base_case(self):
        assert check_recursions(4, 4, 1)

    def test_integer_weight_grid(self):
        for l in range(1, 7):
            for k1 in (4, 6, 10, 35):
                for k2 in (4, 6, 10, 35):
                    assert check_recursions(k1, k2, l)

    def test_rational_weight_probes(self):
        assert check_recursions(Q(9, 2), 4, 4)
        assert check_recursions(Q(7, 3), Q(11, 2), 5)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            check_recursions(4, 4, 0)

    @pytest.mark.parametrize("target", [(r, s, 2 - r - s) for r in range(3) for s in range(3 - r)])
    def test_single_perturbation_detected(self, target):
        params = BracketParams(4, 6, 0, 0, 4)

        def perturbed(r, s, p):
            value = coeff_C(r, s, p, params)
            return value + 1 if (r, s, p) == target else value

        assert not check_recursions(4, 6, 2, c_fn=perturbed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=Q(-12), max_value=Q(40), max_denominator=7),
        st.fractions(min_value=Q(-12), max_value=Q(40), max_denominator=7),
        st.integers(1, 6),
    )
    def test_integer_check_agrees_with_fractions(self, k1, k2, l):
        """check_recursions on ints against the relations evaluated in Fractions,
        on the true C family and with +1 at each (r, s, p) in turn."""
        params = BracketParams(k1, k2, 0, 0, 2 * l)
        alpha, beta, gamma = weight_shifts(k1, k2, 0)
        triples = [(r, s, l - r - s) for r in range(l + 1) for s in range(l + 1 - r)]
        exact = {key: coeff_C(*key, params) for key in triples}

        def fraction_check(c):
            return all(
                (r + 1) * (alpha + r + 1) * c[r + 1, s, p] + (p + 1) * (gamma + l + r + s) * c[r, s, p + 1] == 0
                and (s + 1) * (beta + s + 1) * c[r, s + 1, p] + (p + 1) * (gamma + l + r + s) * c[r, s, p + 1] == 0
                for r in range(l)
                for s in range(l - r)
                for p in [l - 1 - r - s]
            )

        assert check_recursions(k1, k2, l) == fraction_check(exact) is True
        # no factor (alpha + i), (beta + i) or (gamma + l + j) of the relations
        # vanishes, so each value takes part in a relation with a nonzero weight
        generic = all(alpha + i and beta + i for i in range(1, l + 1)) and all(gamma + l + j for j in range(l))
        for target in triples:
            c = {**exact, target: exact[target] + 1}
            result = check_recursions(k1, k2, l, c_fn=lambda r, s, p: c[r, s, p])
            assert result == fraction_check(c)
            if generic:
                assert not result, target

    def test_no_fraction_built_after_the_coefficients(self, monkeypatch):
        """Once the C family is read, the relations run on ints: Fraction
        arithmetic raises from there on."""
        params = BracketParams(Q(9, 2), Q(7, 3), 0, 0, 8)
        values = {}

        def c_fn(r, s, p):
            values[r, s, p] = coeff_C(r, s, p, params)
            if len(values) == 15:  # the last of the l = 4 family
                for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__new__"):
                    monkeypatch.setattr(Fraction, name, forbidden)
            return values[r, s, p]

        def forbidden(*args, **kwargs):
            raise RuntimeError("Fraction built")

        assert brackets_module.check_recursions(Q(9, 2), Q(7, 3), 4, c_fn=c_fn)


def loop_product(f, g):
    """f * g by a double loop over the coefficient pairs, apart from the packed product."""
    trunc = min(f.trunc, g.trunc)
    out = {}
    for (n1, r1), a in f.items():
        for (n2, r2), b in g.items():
            if n1 + n2 <= trunc:
                out[(n1 + n2, r1 + r2)] = out.get((n1 + n2, r1 + r2), 0) + a * b
    return JacobiSeries(f.weight + g.weight, f.index + g.index, trunc, out)


def reference_bracket(f, g, x, v, product=loop_product):
    """The bracket assembled term by term in operator form: for each summand a
    series product of heat powers, then heat^p and a weighted series sum.
    The default product loops over coefficient pairs, so the reference shares
    no packed rows with the bracket kernel."""
    params = BracketParams(f.weight, g.weight, f.index, g.index, v, Q(x))
    out = JacobiSeries.zero(f.weight + g.weight + v, f.index + g.index, min(f.trunc, g.trunc))
    for term in bracket_terms(params):
        left = heat_power(d_z(f) if term.i else f, term.r)
        right = heat_power(d_z(g) if term.j else g, term.s)
        out = out + (term.c_value * term.d_value) * heat_power(product(left, right), term.p)
    return out


def reference_poly(f, g, v, product=loop_product):
    """x-polynomial coefficients, expanding each summand's (1 + m1 x)^s (1 - m2 x)^r."""
    params = BracketParams(f.weight, g.weight, f.index, g.index, v)
    m1, m2 = f.index, g.index
    zero = JacobiSeries.zero(f.weight + g.weight + v, m1 + m2, min(f.trunc, g.trunc))
    parts = [zero] * (v // 2 + 1)
    for term in bracket_terms(params):
        left = heat_power(d_z(f) if term.i else f, term.r)
        right = heat_power(d_z(g) if term.j else g, term.s)
        series = heat_power(product(left, right), term.p)
        for a in range(term.s + 1):
            for b in range(term.r + 1):
                weight = comb(term.s, a) * m1**a * comb(term.r, b) * (-m2) ** b
                scale = term.c_value * m1**term.j * (-m2) ** term.i * weight
                parts[a + b] = parts[a + b] + scale * series
    return parts


coefficient_values = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=Q(-40), max_value=Q(40), max_denominator=9),
)


@st.composite
def bracket_inputs(draw, values=coefficient_values, shapes=window(5), orders=st.integers(0, 7), min_size=0, max_size=8):
    """Two small random series (indices 0-3, truncations 1-4 and row shapes
    drawn separately), an order, and x drawn at random or where 1 + m1 x or
    1 - m2 x vanishes."""
    pair = []
    for _ in range(2):
        weight, index, trunc = draw(st.integers(0, 12)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
        keys = st.tuples(st.integers(0, trunc), draw(shapes))
        coeffs = draw(st.dictionaries(keys, values, min_size=min_size, max_size=max_size))
        pair.append(JacobiSeries(weight, index, trunc, coeffs))
    f, g = pair
    v = draw(orders)
    special = [Q(-1, f.index)] if f.index else []
    special += [Q(1, g.index)] if g.index else []
    x = draw(st.one_of(st.fractions(min_value=Q(-3), max_value=Q(3), max_denominator=5), *map(st.just, special)))
    return f, g, v, x


# numerators up to 2**120 over denominators up to 2**40 and integers at the
# powers of two: the packed digits then span hundreds of bits, and single
# coefficients at a power of two meet the digit bound exactly, so a digit
# width one bit short of the bound corrupts an output instead of hiding in
# the slack of small values
wide_values = st.one_of(
    st.builds(Q, st.integers(-(2**120), 2**120), st.integers(1, 2**40)),
    st.builds(lambda k, sign, less: sign * (2**k - less), st.integers(1, 120), st.sampled_from([1, -1]), st.integers(0, 1)),
)
# keys far outside the holomorphic cone (|r| up to 12 at index <= 3, rows
# with gaps, rows wholly at negative r), and v = 0 and 1 drawn often: their
# digit bound has no slack factor t + 1
wide_bracket_inputs = bracket_inputs(
    wide_values,
    shapes=st.one_of(window(12), sparse_rows),
    orders=st.one_of(st.sampled_from([0, 1]), st.integers(0, 10)),
    min_size=1,
    max_size=3,
)


class TestBracketAgainstOperatorForm:
    @settings(max_examples=150, deadline=None)
    @given(bracket_inputs())
    def test_bracket_matches_reference(self, case):
        f, g, v, x = case
        assert bracket_jacobi(f, g, x, v) == reference_bracket(f, g, x, v)

    @settings(max_examples=100, deadline=None)
    @given(bracket_inputs())
    def test_poly_matches_reference(self, case):
        f, g, v, _ = case
        assert bracket_jacobi_poly(f, g, v) == reference_poly(f, g, v)

    @settings(max_examples=150, deadline=None)
    @given(bracket_inputs(shapes=sparse_rows, min_size=1, max_size=12))
    def test_sparse_rows_match_reference(self, case):
        f, g, v, x = case
        assert bracket_jacobi(f, g, x, v) == reference_bracket(f, g, x, v)
        assert bracket_jacobi_poly(f, g, v) == reference_poly(f, g, v)

    @settings(max_examples=250, deadline=None)
    @given(wide_bracket_inputs)
    def test_wide_coefficients_match_reference(self, case):
        f, g, v, x = case
        assert bracket_jacobi(f, g, x, v) == reference_bracket(f, g, x, v)
        assert bracket_jacobi_poly(f, g, v) == reference_poly(f, g, v)

    @pytest.mark.parametrize("bits", range(1, 18))
    def test_digit_bound_met_exactly(self, bits):
        # one coefficient each: for v = 0 the only digit is a*b and the bound
        # is |a*b|; for v = 1 it is a*b*(m1*r2 - m2*r1) = -2*a*b against the
        # bound 2*|a*b|, so a = -2**bits reaches it.  bits runs over every
        # residue mod 8 of the bound's bit length
        for a in (2**bits, 2**bits - 1, -(2**bits), 1 - 2**bits):
            f = JacobiSeries(4, 1, 2, {(1, 1): a})
            g = JacobiSeries(6, 1, 2, {(1, -1): 1})
            for v in (0, 1):
                assert bracket_jacobi(f, g, 0, v) == reference_bracket(f, g, 0, v)
                assert bracket_jacobi_poly(f, g, v) == reference_poly(f, g, v)

    @pytest.mark.parametrize("bits", [1, 7, 8, 29, 30, 31, 64])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
    def test_row_slots_at_the_digit_bound(self, bits, signs):
        self.check_row_slots_at_the_bound(2**bits, signs)

    @pytest.mark.parametrize("magnitude", [4, 6, 3 * 2**29])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
    def test_row_slots_at_a_whole_byte_bound(self, magnitude, signs):
        # the digit width is a whole number of bytes, so a width one bit
        # short of the signed bound differs only where the bound's bit length
        # is a multiple of 8: 14 * 4**2 = 224 (the q^3 row of the shifted
        # spans), 7 * 6**2 = 252 and 7 * (3 * 2**29)**2 = 63 * 2**58 (the q^1
        # rows); 36 * 2**2 = 144 (v = 1) is reached by bits = 1 above
        self.check_row_slots_at_the_bound(magnitude, signs)

    @staticmethod
    def check_row_slots_at_the_bound(a, signs):
        # whole q^1 rows r = -3..3 at +-a: the key (2, 0) collects all
        # 7 = min(#f, #g) pairs, each max|f| * max|g| with one sign, so its
        # digit is the bound itself, and a width one bit short carries into
        # or borrows from the neighbouring r-slots
        sf, sg = signs
        f = JacobiSeries(4, 1, 3, {(1, r): sf * a for r in range(-3, 4)})
        g = JacobiSeries(6, 2, 3, {(1, r): sg * a for r in range(-3, 4)})
        assert bracket_jacobi(f, g, 0, 0) == reference_bracket(f, g, 0, 0)
        assert bracket_jacobi_poly(f, g, 0) == reference_poly(f, g, 0)
        # rows of shifted spans: the key (3, 0) of the q^3 row collects 13 of
        # the 14 = min(#f, #g) pairs from two row pairs shifted apart, which
        # still fills the bound's top bit
        f2 = JacobiSeries(4, 1, 3, {**dict(f.items()), **{(2, r): sf * a for r in range(-2, 5)}})
        g2 = JacobiSeries(6, 2, 3, {**dict(g.items()), **{(2, r): sg * a for r in range(-3, 4)}})
        assert bracket_jacobi(f2, g2, 0, 0) == reference_bracket(f2, g2, 0, 0)
        # v = 1: f holds r1 = 3 on the rows 0..3 and g the rows 0..3 at
        # r2 = -3..3; the key (3, 0) collects 4 = min(#f, #g) pairs, each with
        # |m1*r2 - m2*r1| = 3*(m1 + m2), the bound's index factor
        f1 = JacobiSeries(4, 1, 3, {(n, 3): sf * a for n in range(4)})
        g1 = JacobiSeries(6, 2, 3, {(n, r): sg * a for n in range(4) for r in range(-3, 4)})
        assert bracket_jacobi(f1, g1, 0, 1) == reference_bracket(f1, g1, 0, 1)
        assert bracket_jacobi_poly(f1, g1, 1) == reference_poly(f1, g1, 1)
        # v = 2 sums two (e1, e2) products per slot, whose weights differ, so
        # its digits stay below the bound; the same whole rows still carry
        # between slots if the width were short
        for x in (Q(0), Q(1, 2), Q(-1, 3)):
            assert bracket_jacobi(f2, g2, x, 2) == reference_bracket(f2, g2, x, 2)
        assert bracket_jacobi_poly(f2, g2, 2) == reference_poly(f2, g2, 2)

    @pytest.mark.parametrize("v", range(6))
    def test_entries_far_apart_in_r(self, v):
        # rows whose entries lie 10**9 apart pack into separate runs, and the
        # run products of an output row that lie apart are read back apart
        far = 10**9
        f = JacobiSeries(4, 1, 2, {(0, -far): 1, (0, far): 3, (1, -far): Q(2, 3), (1, 1 - far): -5, (2, far): 7})
        g = JacobiSeries(6, 2, 2, {(0, 0): 2, (0, 2 * far): -1, (1, far - 1): Q(1, 2), (1, far): 4})
        for x in (Q(0), Q(-1, 3)):
            assert bracket_jacobi(f, g, x, v) == reference_bracket(f, g, x, v)
        assert bracket_jacobi_poly(f, g, v) == reference_poly(f, g, v)

    @pytest.mark.parametrize("v", range(8))
    def test_theta_pairs_match_reference(self, theta4, theta4_index2, e4_theta4, v):
        for f, g in ((theta4, theta4_index2), (e4_theta4, theta4), (theta4_index2, e4_theta4)):
            for x in (Q(0), Q(-1), Q(1, 2), Q(-1, 3)):
                assert bracket_jacobi(f, g, x, v) == reference_bracket(f, g, x, v)
            assert bracket_jacobi_poly(f, g, v) == reference_poly(f, g, v)


WRONG_KIND = [
    # (call on a Jacobi theta f and a degree-2 theta F, its TypeError message)
    (lambda f, F: bracket_siegel_via_jacobi(f, f, 1),
     "bracket_siegel_via_jacobi needs two SiegelSeries operands, got JacobiSeries and JacobiSeries"),
    (lambda f, F: bracket_siegel_via_jacobi(F, f, 1),
     "bracket_siegel_via_jacobi needs two SiegelSeries operands, got SiegelSeries and JacobiSeries"),
    (lambda f, F: bracket_siegel_direct(F, f, 1),
     "bracket_siegel_direct needs two SiegelSeries operands, got SiegelSeries and JacobiSeries"),
    (lambda f, F: bracket_jacobi(F, F, 0, 2),
     "bracket_jacobi needs two JacobiSeries operands, got SiegelSeries and SiegelSeries"),
    (lambda f, F: bracket_jacobi_poly(f, F, 2),
     "bracket_jacobi_poly needs two JacobiSeries operands, got JacobiSeries and SiegelSeries"),
    (lambda f, F: bracket_rank_over_x(F, F, 2),
     "bracket_rank_over_x needs two JacobiSeries operands, got SiegelSeries and SiegelSeries"),
    (lambda f, F: crosscheck_bracket(F, f, 0, 2),
     "crosscheck_bracket needs two JacobiSeries operands, got SiegelSeries and JacobiSeries"),
]


@pytest.mark.parametrize(
    "call, message",
    WRONG_KIND,
    ids=["via_jacobi_jj", "via_jacobi_sj", "direct_sj", "jacobi_ss", "poly_js", "rank_ss", "crosscheck_sj"],
)
def test_operands_of_the_wrong_kind_are_rejected(theta4, siegel2, call, message):
    with pytest.raises(TypeError) as info:
        call(theta4, siegel2)
    assert str(info.value) == message


WRONG_ORDER = [
    # (call on a Jacobi theta f and a degree-2 theta F, its TypeError message)
    (lambda f, F: BracketParams(4, 6, 0, 0, 2.5), "bracket order must be an int, got float"),
    (lambda f, F: BracketParams(4.0, 6, 0, 0, 2), "bracket weights must be int or Fraction, got float and int"),
    (lambda f, F: BracketParams(4, True, 0, 0, 2), "bracket weights must be int or Fraction, got int and bool"),
    (lambda f, F: bracket_jacobi(f, f, 0, True), "bracket order must be an int, got bool"),
    (lambda f, F: bracket_jacobi(f, f, 0, Q(2)), "bracket order must be an int, got Fraction"),
    (lambda f, F: bracket_jacobi_poly(f, f, True), "bracket order must be an int, got bool"),
    (lambda f, F: bracket_rank_over_x(f, f, True), "bracket order must be an int, got bool"),
    (lambda f, F: crosscheck_bracket(f, f, 0, True), "bracket order must be an int, got bool"),
    (lambda f, F: bracket_siegel_direct(F, F, True), "bracket order must be an int, got bool"),
    (lambda f, F: bracket_siegel_direct(F, F, Q(1)), "bracket order must be an int, got Fraction"),
    (lambda f, F: bracket_siegel_via_jacobi(F, F, True), "bracket order must be an int, got bool"),
    (lambda f, F: check_recursions(4, 6, True), "recursion order l must be an int, got bool"),
    (lambda f, F: check_recursions(4, 6, Q(2)), "recursion order l must be an int, got Fraction"),
]


@pytest.mark.parametrize(
    "call, message",
    WRONG_ORDER,
    ids=["params_float", "params_float_weight", "params_bool_weight", "jacobi_bool", "jacobi_fraction", "poly_bool", "rank_bool",
         "crosscheck_bool", "direct_bool", "direct_fraction", "via_jacobi_bool", "recursions_bool",
         "recursions_fraction"],
)
def test_orders_of_the_wrong_type_are_rejected(theta4, siegel2, call, message):
    with pytest.raises(TypeError) as info:
        call(theta4, siegel2)
    assert str(info.value) == message


WRONG_SCALAR = [
    # (call on a Jacobi theta f, its exception type and message): BracketParams
    # checks the indices and x once, for every bracket entry
    (lambda f: BracketParams(4, 6, True, 2, 2), TypeError, "bracket index m1 must be an int, got bool"),
    (lambda f: BracketParams(4, 6, 1, 2.0, 2), TypeError, "bracket index m2 must be an int, got float"),
    (lambda f: BracketParams(4, 6, -1, 2, 2), ValueError, "bracket index m1 must be non-negative, got -1"),
    (lambda f: BracketParams(4, 6, True, 2.0, 2), TypeError, "bracket index m1 must be an int, got bool"),
    (lambda f: BracketParams(4, 6, 1, 2, 2, 0.5), TypeError, "bracket parameter x must be int or Fraction, got float"),
    (lambda f: coeff_D(0, 1, 0, 0, BracketParams(4, 6, 1, True, 2)), TypeError,
     "bracket index m2 must be an int, got bool"),
    (lambda f: bracket_terms(BracketParams(4, 6, 2.0, 1, 2)), TypeError, "bracket index m1 must be an int, got float"),
    (lambda f: bracket_terms(BracketParams(4, 6, 1, -1, 2)), ValueError,
     "bracket index m2 must be non-negative, got -1"),
    (lambda f: bracket_terms(BracketParams(4, 6, 1, 2, 2, True)), TypeError,
     "bracket parameter x must be int or Fraction, got bool"),
    (lambda f: coeff_D(1, 0, 0, 0, BracketParams(4, 6, 1, 2, 2, "1/2")), TypeError,
     "bracket parameter x must be int or Fraction, got str"),
    (lambda f: bracket_jacobi(f, f, 0.5, 2), TypeError, "bracket parameter x must be int or Fraction, got float"),
    (lambda f: bracket_jacobi(f, f, True, 2), TypeError, "bracket parameter x must be int or Fraction, got bool"),
    (lambda f: bracket_jacobi(f, f, "1/2", 2), TypeError, "bracket parameter x must be int or Fraction, got str"),
    (lambda f: crosscheck_bracket(f, f, 0.5, 2), TypeError, "bracket parameter x must be int or Fraction, got float"),
    (lambda f: crosscheck_bracket(f, f, True, 2), TypeError, "bracket parameter x must be int or Fraction, got bool"),
    (lambda f: crosscheck_bracket(f, f, "1/2", 3), TypeError, "bracket parameter x must be int or Fraction, got str"),
]


@pytest.mark.parametrize(
    "call, error, message",
    WRONG_SCALAR,
    ids=["params_m1_bool", "params_m2_float", "params_m1_negative", "params_m1_bool_m2_float", "params_x_float",
         "coeff_D_m2_bool", "terms_m1_float", "terms_m2_negative", "terms_x_bool", "coeff_D_x_str",
         "jacobi_x_float", "jacobi_x_bool", "jacobi_x_str", "crosscheck_x_float", "crosscheck_x_bool",
         "crosscheck_x_str"],
)
def test_indices_and_x_of_the_wrong_type_are_rejected(theta4, call, error, message):
    with pytest.raises(error) as info:
        call(theta4)
    assert str(info.value) == message
