"""Failure witnesses of the verify checks.

``CheckResult.first`` is the one rule that turns witnesses into a result.
Each check test breaks one route so that at least two cases of the check
fail, and asserts that the result names the first of them in the check's
iteration order.
"""

import pytest

from rcforms import brackets, jets, seriesio, verify
from rcforms.series import CheckResult, JacobiSeries
from rcforms.siegel import SiegelSeries, bracket_siegel_direct, bracket_siegel_via_jacobi


@pytest.fixture
def small():
    """A fresh small form set (trunc 2, degree-2 trunc 2) per test."""
    return verify.FormSet(trunc=2, siegel_trunc=2)


def by_name(results):
    return {result.name: result for result in results}


def break_brackets(monkeypatch, broken):
    """bracket_jacobi gives a wrong series where ``broken(f, g, x, v)``:
    twice f * g at order 0, f * g at higher orders."""
    real = brackets.bracket_jacobi

    def patched(f, g, x, v):
        if not broken(f, g, x, v):
            return real(f, g, x, v)
        return 2 * (f * g) if v == 0 else f * g

    monkeypatch.setattr(brackets, "bracket_jacobi", patched)


class TestFirst:
    def test_passes_when_every_witness_is_empty(self):
        assert CheckResult.first("check", ["", ""]) == CheckResult("check", True, "")

    def test_fails_with_the_first_witness_and_reads_no_further(self):
        def witnesses():
            yield ""
            yield "first"
            raise AssertionError("read past the first witness")

        assert CheckResult.first("check", witnesses()) == CheckResult("check", False, "first")


class TestDegenerations:
    def test_order0_names_the_first_failing_pair(self, small, monkeypatch):
        break_brackets(monkeypatch, lambda f, g, x, v: v == 0 and x == 1 and f is g is not small.theta)
        line = by_name(verify.check_bracket_degenerations(small))["order-0 bracket equals product"]
        assert (line.passed, line.detail) == (False, "(E4*theta,E4*theta) at x=1")

    def test_self_bracket_names_the_first_failing_x(self, small, monkeypatch):
        break_brackets(monkeypatch, lambda f, g, x, v: v == 1 and x != 0 and f is small.e4_theta)
        line = by_name(verify.check_bracket_degenerations(small))["order-1 self-bracket vanishes"]
        assert (line.passed, line.detail) == (False, "[E4*theta,E4*theta] at x=1")

    def test_x_independence_names_the_first_failing_pair(self, small, monkeypatch):
        break_brackets(monkeypatch, lambda f, g, x, v: v == 1 and x == 1 and f is g is not small.theta)
        line = by_name(verify.check_bracket_degenerations(small))[
            "order-1 bracket is x-independent (byte-identical)"
        ]
        assert (line.passed, line.detail) == (False, "(E4*theta,E4*theta)")


def test_leibniz_names_the_first_order_and_least_key(small, monkeypatch):
    # doubling theta_q breaks every r >= 1; at r = 1 the two sides differ by
    # 4m * theta_q(E4) * theta, whose least key is (1, 0)
    real = verify.theta_q_elliptic
    monkeypatch.setattr(verify, "theta_q_elliptic", lambda f: 2 * real(f))
    e4, e6 = verify.check_heat_leibniz(small)
    assert (e4.passed, e4.detail) == (False, "r=1, first mismatch at (1, 0)")
    assert not e6.passed


class TestRecursions:
    def test_grid_names_the_first_failing_triple(self, small, monkeypatch):
        real = brackets.check_recursions

        def patched(k1, k2, l, c_fn=None):
            return not (l >= 5 and k1 == k2 == 4) and real(k1, k2, l, c_fn)

        monkeypatch.setattr(brackets, "check_recursions", patched)
        grid, detect = verify.check_coefficient_recursions(small)
        assert (grid.passed, grid.detail) == (False, "l=5, k=4, k'=4")
        assert detect.passed

    def test_perturbation_names_the_first_undetected_target(self, small, monkeypatch):
        real = brackets.check_recursions
        params = brackets.BracketParams(4, 6, 0, 0, 4)
        blind = [(0, 1, 1), (2, 0, 0)]

        def patched(k1, k2, l, c_fn=None):
            if c_fn is not None and any(c_fn(*t) != brackets.coeff_C(*t, params) for t in blind):
                return True
            return real(k1, k2, l, c_fn)

        monkeypatch.setattr(brackets, "check_recursions", patched)
        grid, detect = verify.check_coefficient_recursions(small)
        assert grid.passed
        assert (detect.passed, detect.detail) == (False, "perturbation at (0, 1, 1) undetected")


def test_rank_zero_fails_as_nothing_measured():
    """At trunc 0 every bracket of order >= 2 vanishes: a rank of 0 measures
    nothing and fails; at trunc 1 a rank below the bound still passes."""
    lines = verify.check_bracket_rank(verify.FormSet(0))
    assert [line.passed for line in lines] == [False] * 4
    for line, bound in zip(lines, (2, 2, 3, 3)):
        assert line.detail == (
            f"measured rank 0, bound {bound} (every bracket vanishes at truncation 0: nothing measured)"
        )
    lines = verify.check_bracket_rank(verify.FormSet(1))
    assert [(line.passed, line.detail) for line in lines] == [
        (True, "measured rank 2, bound 2"),
        (True, "measured rank 1, bound 2 (below bound: small-weight degeneration)"),
        (True, "measured rank 3, bound 3"),
        (True, "measured rank 1, bound 3 (below bound: small-weight degeneration)"),
    ]


def test_dual_path_names_the_least_differing_key(small, monkeypatch):
    def shifted(F, G, l):
        out = bracket_siegel_via_jacobi(F, G, l)
        coeffs = dict(out.items())
        for key in ((2, 0, 2), (1, 0, 1)):
            coeffs[key] = coeffs.get(key, 0) + 1
        return SiegelSeries(out.weight, out.trunc, coeffs)

    monkeypatch.setattr(verify, "bracket_siegel_via_jacobi", shifted)
    line = by_name(verify.check_siegel_dual_path(small))["degree-2 bracket dual-path equality at l=0"]
    direct = bracket_siegel_direct(small.siegel_theta, small.siegel_theta, 0)[(1, 0, 1)]
    assert (line.passed, line.detail) == (False, f"key (1, 0, 1): direct {direct} vs sliced {direct + 1}")


def test_io_roundtrip_names_the_first_changed_fixture(small, monkeypatch):
    real = seriesio.import_series

    def patched(text):
        back = real(text)
        return -back if isinstance(back, SiegelSeries) or back.weight > 4 else back

    monkeypatch.setattr(seriesio, "import_series", patched)
    (line,) = verify.check_io_roundtrip(small)
    assert (line.passed, line.detail) == (False, "bracket order 2: value changed in round trip")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope")


def test_jet_oracle_fails_on_a_non_proportional_bracket(small, monkeypatch):
    """At v=1, x=1 the bracket gains a term at (0, -50), below every key of
    the jet side, so the two constructions are not proportional there."""
    real = jets.bracket_jacobi

    def patched(f, g, x, v):
        out = real(f, g, x, v)
        if (v, x) != (1, 1):
            return out
        return out + JacobiSeries(out.weight, out.index, out.trunc, {(0, -50): 1})

    monkeypatch.setattr(jets, "bracket_jacobi", patched)
    lines = verify.check_generating_function_oracle(small)
    assert [line.passed for line in lines] == [False, False]
    for line in lines:
        assert "v=1,x=1: constructions are not proportional at (0, -50): jet side 0, bracket side 1" in line.detail
        assert "v=1,x=0: lam=" in line.detail
