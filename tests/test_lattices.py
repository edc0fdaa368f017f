"""Lattice enumeration, theta expansions, Eisenstein series.

The enumeration gates use an independent brute-force oracle: a plain box
scan over candidate coordinates filtered by the membership predicate,
sharing no code with the pruned recursive enumerator.  The theta
expansions, built from coordinate series and W(D8) orbits, are checked
against counts over the enumerated vectors and against Eisenstein series.

The degree-2 theta takes one Jacobi theta per W(E8)-orbit of each
half-norm: the W(D8)-orbits are grouped by their W(E8)-dominant vector,
found by descent (sort the absolute values, fix the sign parity, and while
the pairing t with b = (1, -1, ..., -1, 1) is negative reflect in the root
b/2).  The tests check that grouping against a union-find over reflections
in the 240 roots, each class's theta against counts over enumerated
vectors, and the result against the per-D8-orbit sum kept here.
"""

import gc
import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest

from rcforms import lattices
from rcforms.lattices import (
    E8,
    E8_E8,
    E8_INDEX1_VECTOR,
    bernoulli,
    divisor_power_sum,
    eisenstein_q,
    enumerate_vectors,
    jacobi_theta,
    siegel_theta,
    standard_index_vector,
)
from rcforms.series import InvariantError, check_disc_class_invariance, check_parity
from rcforms.siegel import SiegelSeries, SymmetryError, check_siegel_consistency

Q = Fraction


def box_scan_e8(max_norm):
    """Brute-force E8 vectors with x.x <= max_norm, as doubled tuples."""
    limit = int((4 * max_norm) ** 0.5)
    found = []
    for parity in (0, 1):
        values = [y for y in range(-limit, limit + 1) if y % 2 == parity]
        for y in itertools.product(values, repeat=8):
            if sum(a * a for a in y) <= 4 * max_norm and sum(y) % 4 == 0:
                found.append(y)
    return sorted(found)


@pytest.fixture(scope="module")
def oracle():
    return box_scan_e8(4)


@pytest.fixture(scope="module")
def oracle_norm_counts(oracle):
    counts = {}
    for y in oracle:
        counts[sum(a * a for a in y) // 4] = counts.get(sum(a * a for a in y) // 4, 0) + 1
    return counts


class TestEnumeration:
    def test_norm_two_count_is_240(self, oracle_norm_counts):
        assert oracle_norm_counts[2] == 240

    def test_norm_four_count_is_2160(self, oracle_norm_counts):
        assert oracle_norm_counts[4] == 2160

    def test_enumerator_matches_box_scan(self, oracle):
        assert E8.doubled_vectors(2) == oracle

    def test_zero_half_norm(self):
        assert enumerate_vectors(E8, 0) == [tuple([Q(0)] * 8)]

    def test_vectors_are_sorted_and_exact(self):
        vectors = enumerate_vectors(E8, 1)
        assert vectors == sorted(vectors)
        assert all(isinstance(c, Q) for c in vectors[0])
        assert sum(c * c for c in vectors[0]) in (0, 2)

    def test_product_lattice_norm_two_count(self):
        doubled = E8_E8.doubled_vectors(1)
        norms = [sum(a * a for a in y) // 8 for y in doubled]
        assert norms.count(1) == 480  # 240 in each factor

    def test_membership(self):
        assert E8.contains(E8_INDEX1_VECTOR)
        assert E8.contains([Q(1, 2)] * 8)
        assert not E8.contains((1, 0, 0, 0, 0, 0, 0, 0))  # odd coordinate sum
        assert not E8.contains((Q(1, 2), 1, 0, 0, 0, 0, 0, 0))  # mixed parity
        assert not E8.contains((1, 1))  # wrong rank
        assert E8_E8.contains(tuple(E8_INDEX1_VECTOR) + tuple([0] * 8))

    def test_enumeration_leaves_no_reference_cycle(self):
        # the enumeration's recursion must not capture itself: a cycle would
        # keep the returned list alive until the cyclic collector runs
        gc.collect()
        gc.disable()
        try:
            vectors = E8.doubled_vectors(2)
            assert len(vectors) == 2401
            del vectors
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            E8.contains((1.0, -1.0, 0, 0, 0, 0, 0, 0))
        with pytest.raises(TypeError):
            jacobi_theta(E8, (0.5,) * 8, 1)


class TestJacobiTheta:
    def test_constant_term(self, theta4):
        assert theta4[(0, 0)] == 1

    def test_frozen_first_layer_split(self, theta4):
        assert {r: theta4[(1, r)] for r in range(-2, 3)} == {
            -2: 1,
            -1: 56,
            0: 126,
            1: 56,
            2: 1,
        }

    def test_layer_mass_is_vector_count(self, theta4, theta4_index2):
        for theta in (theta4, theta4_index2):
            for n, count in ((1, 240), (2, 2160)):
                assert sum(theta[key] for key in theta.support() if key[0] == n) == count

    def test_bookkeeping(self, theta4, theta4_index2):
        assert (theta4.weight, theta4.index) == (4, 1)
        assert (theta4_index2.weight, theta4_index2.index) == (4, 2)

    def test_form_checks(self, theta4):
        assert theta4.has_holomorphic_support()
        assert check_disc_class_invariance(theta4) == (True, None)
        assert check_parity(theta4)

    def test_negative_truncation_rejected_before_counting(self, monkeypatch):
        for counts in ("theta_counts", "siegel_counts"):
            monkeypatch.setattr(E8, counts, lambda *args: pytest.fail("counted at trunc -1"))
        with pytest.raises(ValueError, match="non-negative, got -1"):
            jacobi_theta(E8, E8_INDEX1_VECTOR, -1)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            siegel_theta(E8, -1)

    def test_vector_outside_lattice_rejected(self):
        with pytest.raises(ValueError, match="not in lattice"):
            jacobi_theta(E8, (1, 0, 0, 0, 0, 0, 0, 0), 2)

    def test_rejected_vector_is_written_in_exact_coordinates(self, monkeypatch):
        half = (Fraction(1, 2), 0, 0, 0, 0, 0, 0, Fraction(-3, 2))
        with pytest.raises(ValueError, match=r"^vector \(1/2, 0, 0, 0, 0, 0, 0, -3/2\) is not in lattice e8$"):
            jacobi_theta(E8, half, 2)
        monkeypatch.setattr(type(E8), "contains_doubled", lambda self, y: True)  # admits norm 5/2
        with pytest.raises(InvariantError, match=r"^lattice vector \(1/2, 0, 0, 0, 0, 0, 0, -3/2\) has odd norm$"):
            jacobi_theta(E8, half, 2)

    def test_product_lattice_theta_is_eisenstein_times_theta(self, theta4):
        # E8+E8 with the fixed vector in one factor: the free factor
        # contributes its norm counts, which is the weight-4 Eisenstein series
        lifted = tuple(Fraction(c) for c in E8_INDEX1_VECTOR) + tuple([Q(0)] * 8)
        combined = jacobi_theta(E8_E8, lifted, 3)
        assert combined == eisenstein_q(4, 3) * jacobi_theta(E8, E8_INDEX1_VECTOR, 3)


class TestSiegelTheta:
    def test_constant_term(self, siegel2):
        assert siegel2[(0, 0, 0)] == 1

    def test_boundary_layer(self, siegel2):
        assert siegel2[(1, 0, 0)] == 240
        assert siegel2[(2, 0, 0)] == 2160

    def test_symmetry(self, siegel2):
        assert all(siegel2[(m, r, n)] == v for (n, r, m), v in siegel2.items())

    def test_brute_force_pair_recount(self):
        small = siegel_theta(E8, 1)
        vectors = box_scan_e8(2)
        norm2 = [y for y in vectors if sum(a * a for a in y) == 8]
        # a(1, r, 1) counts ordered pairs of norm-2 vectors with x.y = r
        counts = {}
        for x in norm2:
            for y in norm2:
                r = sum(a * b for a, b in zip(x, y)) // 4
                counts[r] = counts.get(r, 0) + 1
        for r, value in counts.items():
            assert small[(1, r, 1)] == value
        assert small[(1, 3, 1)] == 0  # Cauchy-Schwarz bound

    def test_zero_slice_is_the_norm_generating_series(self, siegel2):
        assert siegel2.slice_component(0) == eisenstein_q(4, 2).as_jacobi()

    def test_unit_slice_is_240_times_jacobi_theta(self, siegel2, theta4):
        assert siegel2.slice_component(1) == 240 * theta4.truncated(2)

    def test_consistency_report(self, siegel2):
        assert check_siegel_consistency(siegel2).passed


def row_sums(theta):
    sums = {}
    for (n, _), value in theta.items():
        sums[n] = sums.get(n, 0) + value
    return [sums.get(n, 0) for n in range(theta.trunc + 1)]


def orbit_key(y):
    """W(D8)-orbit of a doubled vector: sorted |y_i|, plus the sign parity
    when no coordinate is zero."""
    absolutes = tuple(sorted((abs(a) for a in y), reverse=True))
    if 0 in absolutes:
        return absolutes, None
    return absolutes, sum(1 for a in y if a < 0) % 2


@pytest.fixture(scope="module")
def vectors4():
    return E8.doubled_vectors(4)


def enumerated_counts(w, vectors):
    """Counter of (half-norm, x.v) over the doubled ``vectors``, v = w/2: no coordinate products."""
    dots4 = [sum(a * b for a, b in zip(y, w)) for y in vectors]
    assert all(d % 4 == 0 for d in dots4)
    return Counter((sum(a * a for a in y) // 8, d // 4) for y, d in zip(vectors, dots4))


class TestCoordinateRoute:
    """The enumeration-free thetas against independent counts."""

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_e8_row_sums_are_e4(self, index):
        theta = jacobi_theta(E8, standard_index_vector(E8, index), 12)
        assert row_sums(theta) == [eisenstein_q(4, 12)[n] for n in range(13)]

    @pytest.mark.parametrize(
        "vector",
        [
            (1, -1, 0, 0, 0, 0, 0, 0) + (0,) * 8,
            (1, -1, 0, 0, 0, 0, 0, 0) + (0, 0, 1, 1, 0, 0, 0, 0),
            (0,) * 8 + tuple([Q(1, 2)] * 8),
        ],
    )
    def test_e8e8_row_sums_are_e8(self, vector):
        theta = jacobi_theta(E8_E8, vector, 6)
        assert row_sums(theta) == [eisenstein_q(8, 6)[n] for n in range(7)]
        assert (theta.weight, theta.index) == (8, sum(Q(c) ** 2 for c in vector) / 2)

    @pytest.mark.parametrize("lattice, trunc, weight", [(E8, 4, 4), (E8_E8, 3, 8)])
    def test_siegel_block_sums_are_eisenstein_products(self, lattice, trunc, weight):
        F = siegel_theta(lattice, trunc)
        e = eisenstein_q(weight, trunc)
        sums = {}
        for (n, _, m), value in F.items():
            sums[(n, m)] = sums.get((n, m), 0) + value
        assert F.weight == weight
        assert sums == {(n, m): e[n] * e[m] for n in range(trunc + 1) for m in range(trunc + 1)}

    @pytest.mark.parametrize(
        "vector",
        [
            E8_INDEX1_VECTOR,
            tuple([Q(1, 2)] * 8),
            tuple([Q(-1, 2)] * 2 + [Q(1, 2)] * 6),
            tuple([Q(3, 2)] + [Q(1, 2)] * 6 + [Q(-1, 2)]),
            (2, 0, 0, 0, 0, 0, 0, 0),
            (1, 1, 1, 1, 0, 0, 0, 0),
        ],
    )
    def test_matches_count_over_enumerated_vectors(self, vector, vectors4):
        counts = enumerated_counts(tuple(int(2 * Q(c)) for c in vector), vectors4)
        for trunc in (0, 2, 4):
            theta = jacobi_theta(E8, vector, trunc)
            assert dict(theta.items()) == {key: c for key, c in counts.items() if key[0] <= trunc}

    def test_orbit_sizes_sum_to_vector_counts(self):
        assert E8.d8_orbits(0) == [((0,) * 8, 1)]
        for m in range(1, 7):
            orbits = E8.d8_orbits(m)
            assert sum(size for _, size in orbits) == 240 * divisor_power_sum(m, 3)
            assert all(E8.contains_doubled(rep) and sum(a * a for a in rep) == 8 * m for rep, _ in orbits)

    def test_orbits_match_enumerated_orbit_classes(self, vectors4):
        by_orbit = Counter(orbit_key(y) for y in vectors4 if sum(a * a for a in y) >= 24)
        expected = {orbit_key(rep): size for m in (3, 4) for rep, size in E8.d8_orbits(m)}
        assert dict(by_orbit) == expected


def reflection_classes(half_norm, roots):
    """The W(D8)-orbits of one half-norm (as ``orbit_key``s) merged into
    W(E8)-orbits: a union-find joins the orbits of a representative y and
    of s_a(y) for every root a.  Reflecting representatives only is enough,
    since s_a(g.y) = g.s_b(y) with b = g^-1.a another root."""
    parent = {orbit_key(rep): orbit_key(rep) for rep, _ in E8.d8_orbits(half_norm)}

    def find(key):
        while parent[key] != key:
            key = parent[key]
        return key

    for rep, _ in E8.d8_orbits(half_norm):
        for a in roots:
            # in doubled coordinates s_a(y) = y - (y.a / 4) * a
            t = sum(p * q for p, q in zip(rep, a)) // 4
            parent[find(orbit_key(tuple(p - t * q for p, q in zip(rep, a))))] = find(orbit_key(rep))
    classes = {}
    for key in parent:
        classes.setdefault(find(key), set()).add(key)
    return sorted(map(frozenset, classes.values()), key=sorted)


def per_d8_orbit_counts(trunc):
    """The degree-2 E8 theta as the sum, over every W(D8)-orbit, of orbit
    size times the Jacobi theta at its representative: one coordinate
    product per D8-orbit, without the W(E8) grouping."""
    counts = {}
    for m in range(trunc + 1):
        for rep, size in E8.d8_orbits(m):
            for (n, r), count in E8.theta_counts(rep, trunc).items():
                counts[(n, r, m)] = counts.get((n, r, m), 0) + size * count
    return SiegelSeries(4, trunc, counts)


class TestE8Classes:
    """One Jacobi theta per W(E8)-orbit: the grouping of the D8-orbits, its
    thetas and its degree-2 sum, each against an oracle."""

    def test_classes_are_the_weyl_orbits(self):
        roots = [y for y in box_scan_e8(2) if sum(a * a for a in y) == 8]
        assert len(roots) == 240
        class_counts = []
        for m in range(9):
            expected = reflection_classes(m, roots)
            by_key = {}
            for rep, _ in E8.d8_orbits(m):
                by_key.setdefault(lattices._e8_dominant(rep), set()).add(orbit_key(rep))
            assert sorted(map(frozenset, by_key.values()), key=sorted) == expected
            sizes = {orbit_key(rep): size for rep, size in E8.d8_orbits(m)}
            classes = E8.e8_classes(m)
            assert len(classes) == len(expected)
            for rep, size in classes:
                members = next(c for c in expected if orbit_key(rep) in c)
                assert size == sum(sizes[key] for key in members)
                assert rep.count(0) == max(key[0].count(0) for key in members)
            class_counts.append(len(classes))
        assert class_counts == [1, 1, 1, 1, 2, 1, 1, 2, 2]

    def test_each_class_has_one_theta(self, vectors4):
        for m in range(5):
            picked = {lattices._e8_dominant(rep): rep for rep, _ in E8.e8_classes(m)}
            expected = {key: enumerated_counts(rep, vectors4) for key, rep in picked.items()}
            for rep, _ in E8.d8_orbits(m):
                if rep not in picked.values():
                    assert enumerated_counts(rep, vectors4) == expected[lattices._e8_dominant(rep)]

    @pytest.mark.parametrize("trunc", range(6))
    def test_e8_siegel_theta_is_the_per_d8_orbit_sum(self, trunc):
        assert siegel_theta(E8, trunc) == per_d8_orbit_counts(trunc)

    @pytest.mark.parametrize("trunc", range(3))
    def test_e8e8_siegel_theta_is_the_square_of_the_per_d8_orbit_sum(self, trunc):
        F = per_d8_orbit_counts(trunc)
        assert siegel_theta(E8_E8, trunc) == F * F

    def test_merged_classes_trip_the_transpose_rule(self, monkeypatch):
        """A class key that merges every class of one half-norm gives all of
        them the theta of one member.  The store's transpose rule
        a(m, r, n) = a(n, r, m) is the guard such a wrong merge trips, and
        only truncation 4 and above can see one: below half-norm 4 each
        half-norm is a single W(E8)-orbit, so the merge changes nothing."""
        honest = [siegel_theta(E8, trunc) for trunc in range(4)]
        monkeypatch.setattr(lattices, "_e8_dominant", lambda y: sum(a * a for a in y))
        assert [siegel_theta(E8, trunc) for trunc in range(4)] == honest
        message = "symmetry violation: a(1,-4,4) = 17520 but a(4,-4,1) = 240"
        with pytest.raises(SymmetryError, match=re.escape(message)):
            siegel_theta(E8, 4)


def sorting_descent(y):
    """The W(E8) descent that sorts before its first step too, and the
    number of reflections it takes."""
    steps = 0
    while True:
        y = lattices._d8_dominant(y)
        t = sum(a * b for a, b in zip(y, lattices._E8_BETA))
        if t >= 0:
            return y, steps
        y = tuple(a - (t // 4) * b for a, b in zip(y, lattices._E8_BETA))
        steps += 1


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call appends its arguments to the returned list."""
    calls = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestOneBase:
    """E8+E8 is built from E8 alone, and the W(D8) representatives are used
    as ``d8_orbits`` returns them, each its orbit's largest member."""

    @pytest.mark.parametrize("trunc", [0, 2, 3])
    def test_e8e8_siegel_theta_takes_the_e8_counts_once(self, monkeypatch, trunc):
        calls = count_calls(monkeypatch, E8, "siegel_counts")
        siegel_theta(E8_E8, trunc)
        assert calls == [(trunc,)]

    @pytest.mark.parametrize("max_half_norm", [0, 1])
    def test_e8e8_enumeration_lists_e8_once(self, monkeypatch, max_half_norm):
        calls = count_calls(monkeypatch, E8, "doubled_vectors")
        E8_E8.doubled_vectors(max_half_norm)
        assert calls == [(max_half_norm,)]

    def test_representatives_are_their_orbits_largest_members(self):
        for m in range(25):
            reps = [rep for rep, _ in E8.d8_orbits(m)]
            assert all(lattices._d8_dominant(rep) == rep for rep in reps)
            assert E8.least_vector(m) == tuple(-a for a in max(reps))

    def test_descent_from_a_representative_sorts_after_each_reflection_only(self, monkeypatch):
        expected = {rep: sorting_descent(rep) for m in range(17) for rep, _ in E8.d8_orbits(m)}
        sorts = count_calls(monkeypatch, lattices, "_d8_dominant")
        for rep, (dominant, steps) in expected.items():
            sorts.clear()
            assert lattices._e8_dominant(rep) == dominant
            assert len(sorts) == steps
        assert max(steps for _, steps in expected.values()) >= 2


class TestProductLatticeCounts:
    """The E8+E8 thetas against counts over its enumerated vectors, which do
    not go through the integer product loops that build the thetas."""

    def test_siegel_theta_matches_pair_counts(self):
        vectors = E8_E8.doubled_vectors(1)
        assert len(vectors) == 481
        norms = [sum(a * a for a in y) // 8 for y in vectors]
        counts = Counter()
        for x, nx in zip(vectors, norms):
            for y, ny in zip(vectors, norms):
                counts[(nx, sum(a * b for a, b in zip(x, y)) // 4, ny)] += 1
        assert dict(siegel_theta(E8_E8, 1).items()) == counts

    def test_jacobi_theta_with_vector_in_both_factors_matches_counts(self):
        w = (2, -2, 0, 0, 0, 0, 0, 0) + (1,) * 8
        vectors = E8_E8.doubled_vectors(2)
        assert len(vectors) == 62401
        dots4 = [sum(a * b for a, b in zip(y, w)) for y in vectors]
        assert all(d % 4 == 0 for d in dots4)
        counts = Counter((sum(a * a for a in y) // 8, d // 4) for y, d in zip(vectors, dots4))
        theta = jacobi_theta(E8_E8, tuple(Q(a, 2) for a in w), 2)
        assert (theta.weight, theta.index) == (8, 2)
        assert dict(theta.items()) == counts


class TestEisenstein:
    def test_bernoulli_values(self):
        expected = {
            0: Q(1),
            1: Q(-1, 2),
            2: Q(1, 6),
            4: Q(-1, 30),
            6: Q(1, 42),
            8: Q(-1, 30),
            10: Q(5, 66),
            12: Q(-691, 2730),
        }
        for n, value in expected.items():
            assert bernoulli(n) == value
        assert bernoulli(3) == bernoulli(5) == bernoulli(7) == 0

    def test_weight_four_series(self):
        e4 = eisenstein_q(4, 3)
        assert [e4[n] for n in range(4)] == [1, 240, 2160, 6720]

    def test_weight_six_series(self):
        e6 = eisenstein_q(6, 3)
        assert [e6[n] for n in range(4)] == [1, -504, -16632, -122976]

    def test_divisor_sum_oracle(self):
        # sigma_3(6) = 1 + 8 + 27 + 216 = 252
        assert eisenstein_q(4, 6)[6] == 240 * 252

    def test_constant_term_is_one(self):
        for k in (4, 6, 8, 10, 12):
            assert eisenstein_q(k, 1)[0] == 1

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            eisenstein_q(5, 3)
        with pytest.raises(ValueError):
            eisenstein_q(2, 3)


class TestStandardVector:
    def test_index_one_is_pinned(self):
        assert standard_index_vector(E8, 1) == tuple(Q(c) for c in E8_INDEX1_VECTOR)

    def test_higher_index_is_deterministic_and_valid(self):
        for index in (2, 3):
            vector = standard_index_vector(E8, index)
            assert E8.contains(vector)
            assert sum(c * c for c in vector) == 2 * index
            assert vector == standard_index_vector(E8, index)

    @pytest.mark.parametrize("index", [2, 3, 4, 5])
    def test_e8_orbit_minimum_matches_enumeration(self, index):
        """The W(D8)-orbit route gives the lexicographically smallest enumerated vector."""
        smallest = next(y for y in E8.doubled_vectors(index) if sum(a * a for a in y) == 8 * index)
        assert standard_index_vector(E8, index) == tuple(Q(a, 2) for a in smallest)

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            standard_index_vector(E8, 0)

    def test_e8_vectors_are_pinned(self):
        doubled = {
            1: (2, -2, 0, 0, 0, 0, 0, 0),
            2: (-4, 0, 0, 0, 0, 0, 0, 0),
            3: (-4, -2, -2, 0, 0, 0, 0, 0),
            4: (-5, -1, -1, -1, -1, -1, -1, -1),
            5: (-6, -2, 0, 0, 0, 0, 0, 0),
            6: (-6, -2, -2, -2, 0, 0, 0, 0),
        }
        for index, y in doubled.items():
            assert standard_index_vector(E8, index) == tuple(Q(a, 2) for a in y)

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_e8e8_least_vector_matches_enumeration(self, index):
        """The square rule (least left half, then least right half) finds the
        lexicographically smallest enumerated vector without listing any."""
        smallest = next(y for y in E8_E8.doubled_vectors(index) if sum(a * a for a in y) == 8 * index)
        assert standard_index_vector(E8_E8, index) == tuple(Q(a, 2) for a in smallest)

    @pytest.mark.parametrize("index", [4, 5, 6])
    def test_e8e8_vector_beyond_enumeration_is_valid(self, index):
        vector = standard_index_vector(E8_E8, index)
        assert E8_E8.contains(vector)
        assert sum(c * c for c in vector) == 2 * index
