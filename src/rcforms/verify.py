"""One-command verification suites over self-generated test forms.

Every check is called as ``check(forms)`` with one shared :class:`FormSet`
and returns a list of :class:`rcforms.series.CheckResult`, so a run always
reports every check; all comparisons are exact.  A failing result names a
minimal witness (where, expected and actual): the first failing case in
the check's iteration order, as :meth:`CheckResult.first` keeps it.  The
Jacobi form checks of bracket outputs, the theta and the degree-2 slices
all go through :func:`rcforms.series.form_witness`; every slice of a
degree-2 bracket output of order l > 0 is checked as a cusp form.

The results that carry a measurement (the E8 vector counts, the realised
x-span ranks, the jet-oracle scalars) report it in the detail, pass or fail.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import comb

from . import brackets, jets, lattices, seriesio
from .series import (
    CheckResult,
    EllipticSeries,
    InvariantError,
    JacobiSeries,
    _key_text,
    _text,
    _value_text,
    form_witness,
    heat_power,
    theta_q_elliptic,
)
from .siegel import (
    SiegelSeries,
    bracket_siegel_direct,
    bracket_siegel_via_jacobi,
    check_siegel_consistency,
)

BRACKET_X_VALUES = (Fraction(0), Fraction(1), Fraction(-1, 2))
CROSSCHECK_X_VALUES = (Fraction(0), Fraction(1))
MAX_BRACKET_ORDER = 5


class FormSet:
    """Lazily built shared test forms at the verification truncations."""

    def __init__(self, trunc: int = 8, siegel_trunc: int = 3):
        self.trunc = trunc
        self.siegel_trunc = siegel_trunc

    @cached_property
    def theta(self) -> JacobiSeries:
        return lattices.jacobi_theta(lattices.E8, lattices.E8_INDEX1_VECTOR, self.trunc)

    @cached_property
    def e4(self) -> EllipticSeries:
        return lattices.eisenstein_q(4, self.trunc)

    @cached_property
    def e6(self) -> EllipticSeries:
        return lattices.eisenstein_q(6, self.trunc)

    @cached_property
    def e4_theta(self) -> JacobiSeries:
        return self.e4 * self.theta

    @cached_property
    def e6_theta(self) -> JacobiSeries:
        return self.e6 * self.theta

    @cached_property
    def theta_index2(self) -> JacobiSeries:
        vector = lattices.standard_index_vector(lattices.E8, 2)
        return lattices.jacobi_theta(lattices.E8, vector, self.trunc)

    @cached_property
    def siegel_theta(self) -> SiegelSeries:
        return lattices.siegel_theta(lattices.E8, self.siegel_trunc)

    def bracket_forms(self) -> list[tuple[str, JacobiSeries]]:
        return [
            ("theta", self.theta),
            ("E4*theta", self.e4_theta),
            ("E6*theta", self.e6_theta),
        ]

    def bracket_pairs(self):
        for (left_name, left), (right_name, right) in itertools.product(self.bracket_forms(), repeat=2):
            yield f"({left_name},{right_name})", left, right


# -- criterion 1: bracket degenerations ---------------------------------------


def check_bracket_degenerations(forms: FormSet) -> list[CheckResult]:
    def product_witnesses():
        for pair_name, f, g in forms.bracket_pairs():
            product = f * g
            for x in BRACKET_X_VALUES:
                if brackets.bracket_jacobi(f, g, x, 0) != product:
                    yield f"{pair_name} at x={x}"

    self_witnesses = (
        f"[{name},{name}] at x={x}"
        for name, f in forms.bracket_forms()
        for x in BRACKET_X_VALUES
        if not brackets.bracket_jacobi(f, f, x, 1).is_zero()
    )
    x_free_witnesses = (
        pair_name
        for pair_name, f, g in forms.bracket_pairs()
        if seriesio.export_series(brackets.bracket_jacobi(f, g, 0, 1))
        != seriesio.export_series(brackets.bracket_jacobi(f, g, 1, 1))
    )
    return [
        CheckResult.first("order-0 bracket equals product", product_witnesses()),
        CheckResult.first("order-1 self-bracket vanishes", self_witnesses),
        CheckResult.first("order-1 bracket is x-independent (byte-identical)", x_free_witnesses),
    ]


# -- criterion 2: bracket output form checks ----------------------------------


def _bracket_output_witnesses(forms: FormSet, v: int):
    """One witness per order-v bracket output, "where: witness", or "" where it passes."""
    for pair_name, f, g in forms.bracket_pairs():
        for x in BRACKET_X_VALUES:
            result = brackets.bracket_jacobi(f, g, x, v)
            tagged = result.weight == f.weight + g.weight + v and result.index == f.index + g.index
            witness = form_witness(result, cusp=v > 1) if tagged else "weight/index bookkeeping"
            yield witness and f"{pair_name} v={v} x={x}: {witness}"


def check_bracket_outputs(forms: FormSet) -> list[CheckResult]:
    return [
        CheckResult.first(f"order-{v} bracket outputs are Jacobi-type", _bracket_output_witnesses(forms, v))
        for v in range(MAX_BRACKET_ORDER + 1)
    ]


# -- criterion 3: generating-function oracle ----------------------------------


def check_generating_function_oracle(forms: FormSet) -> list[CheckResult]:
    pairs = [
        ("(theta,E4*theta)", forms.theta, forms.e4_theta),
        ("(theta,theta-index2)", forms.theta, forms.theta_index2),
    ]
    out = []
    for pair_name, f, g in pairs:
        passed = True
        measured = []
        for v in range(MAX_BRACKET_ORDER + 1):
            for x in CROSSCHECK_X_VALUES:
                try:
                    lam = jets.crosscheck_bracket(f, g, x, v)
                except jets.CrosscheckError as exc:
                    passed = False
                    measured.append(f"v={v},x={x}: {exc}")
                else:
                    measured.append(f"v={v},x={x}: lam={'indeterminate' if lam is None else _value_text(lam)}")
        out.append(
            CheckResult(f"jet oracle reproduces brackets {pair_name}", passed, "; ".join(measured))
        )
    return out


# -- criterion 4: heat Leibniz expansion --------------------------------------


def check_heat_leibniz(forms: FormSet) -> list[CheckResult]:
    g = forms.theta
    m = g.index

    def witnesses(f):
        tau_parts = [f]  # tau_parts[i] = theta_q^i f
        for _ in range(3):
            tau_parts.append(theta_q_elliptic(tau_parts[-1]))
        for r in range(4):
            left = heat_power(f.as_jacobi() * g, r)
            terms = [
                ((4 * m) ** (r - j) * comb(r, j)) * (tau_parts[r - j].as_jacobi() * heat_power(g, j))
                for j in range(r + 1)
            ]
            right = sum(terms[1:], terms[0])
            if left != right:
                yield f"r={r}, first mismatch at {_key_text(left.first_difference(right))}"

    return [
        CheckResult.first(f"heat Leibniz expansion with {name} (r <= 3)", witnesses(f))
        for name, f in (("E4", forms.e4), ("E6", forms.e6))
    ]


# -- criterion 5: coefficient recursions --------------------------------------


def check_coefficient_recursions(forms: FormSet) -> list[CheckResult]:
    """Independent of the test forms: the relations are identities in the weights."""
    weights = [Fraction(4), Fraction(6), Fraction(10), Fraction(35), Fraction(9, 2), Fraction(7, 3)]
    grid = (
        f"l={l}, k={k1}, k'={k2}"
        for l, k1, k2 in itertools.product(range(1, 7), weights, weights)
        if not brackets.check_recursions(k1, k2, l)
    )

    params = brackets.BracketParams(4, 6, 0, 0, 2 * 2)
    level = 2
    triples = [(r, s, level - r - s) for r in range(level + 1) for s in range(level + 1 - r)]

    def undetected():
        for target in triples:
            def perturbed(r, s, p, _target=target):
                value = brackets.coeff_C(r, s, p, params)
                return value + 1 if (r, s, p) == _target else value

            if brackets.check_recursions(4, 6, level, c_fn=perturbed):
                yield f"perturbation at {target} undetected"

    return [
        CheckResult.first("coefficient recursions hold on the weight grid", grid),
        CheckResult.first("single-coefficient perturbations are detected", undetected()),
    ]


# -- criterion 6: rank of the x-family ----------------------------------------


def check_bracket_rank(forms: FormSet) -> list[CheckResult]:
    out = []
    f, g = forms.e4_theta, forms.e6_theta
    for v in (2, 3, 4, 5):
        bound = v // 2 + 1
        try:
            rank = brackets.bracket_rank_over_x(f, g, v)
        except InvariantError as exc:
            out.append(CheckResult(f"x-span rank at order {v}", False, str(exc)))
            continue
        detail = f"measured rank {rank}, bound {bound}"
        if rank != bound:
            detail += " (below bound: small-weight degeneration)"
        out.append(CheckResult(f"x-span rank at order {v}", rank <= bound, detail))
    return out


# -- criterion 7: degree-2 dual-path bracket ----------------------------------


def _dual_path_witnesses(F: SiegelSeries, l: int, direct: SiegelSeries):
    via = bracket_siegel_via_jacobi(F, F, l)
    if direct != via:
        bad = direct.first_difference(via)
        yield f"key {_key_text(bad)}: direct {_value_text(direct[bad])} vs sliced {_value_text(via[bad])}"
    elif direct.weight != 2 * F.weight + 2 * l:
        yield f"weight {_text(direct.weight)}"
    elif l > 0:
        for m, part in enumerate(direct.components()):
            if witness := form_witness(part, cusp=True):
                yield f"slice {m}: {witness}"


def check_siegel_dual_path(forms: FormSet) -> list[CheckResult]:
    F = forms.siegel_theta
    outputs = [bracket_siegel_direct(F, F, l) for l in (0, 1, 2)]
    out = [
        CheckResult.first(f"degree-2 bracket dual-path equality at l={l}", _dual_path_witnesses(F, l, direct))
        for l, direct in enumerate(outputs)
    ]
    failures = check_siegel_consistency(outputs[1]).failures()
    out.append(CheckResult.first("degree-2 bracket output consistency at l=1", map(CheckResult.describe, failures)))
    return out


# -- criterion 8: lattice gates ------------------------------------------------


def check_lattice_gates(forms: FormSet) -> list[CheckResult]:
    counts = Counter(sum(a * a for a in y) // 8 for y in lattices.E8.doubled_vectors(2))
    gate = counts[0] == 1 and counts[1] == 240 and counts[2] == 2160
    failures = check_siegel_consistency(forms.siegel_theta).failures()
    return [
        CheckResult(
            "E8 vector counts (240 at norm 2, 2160 at norm 4)",
            gate,
            f"measured {counts.get(1)}, {counts.get(2)}",
        ),
        CheckResult.first("jacobi theta passes form checks", [form_witness(forms.theta)]),
        CheckResult.first("siegel theta passes consistency checks", map(CheckResult.describe, failures)),
    ]


# -- criterion 9: I/O round trips ----------------------------------------------


def check_io_roundtrip(forms: FormSet) -> list[CheckResult]:
    fixtures: list[tuple[str, JacobiSeries | SiegelSeries]] = [
        ("jacobi theta", forms.theta),
        ("bracket order 2", brackets.bracket_jacobi(forms.theta, forms.e4_theta, Fraction(1, 2), 2)),
        ("siegel theta", forms.siegel_theta),
        ("zero series", JacobiSeries.zero(4, 1, 4)),
    ]

    def witnesses():
        for name, obj in fixtures:
            text = seriesio.export_series(obj)
            back = seriesio.import_series(text)
            if back != obj:
                yield f"{name}: value changed in round trip"
            elif seriesio.export_series(back) != text:
                yield f"{name}: re-export not byte-identical"

    return [CheckResult.first("coefficient files round-trip byte-identically", witnesses())]


SUITES = {
    "core": (check_lattice_gates, check_heat_leibniz, check_io_roundtrip),
    "bracket": (
        check_bracket_degenerations,
        check_bracket_outputs,
        check_coefficient_recursions,
        check_bracket_rank,
    ),
    "genfun": (check_generating_function_oracle,),
    "siegel": (check_siegel_dual_path,),
}


def run_suite(name: str, forms: FormSet | None = None) -> list[CheckResult]:
    """Run one suite ("core", "bracket", "genfun", "siegel") or "all"."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {list(SUITES)} or 'all'")
    if forms is None:
        forms = FormSet()
    names = list(SUITES) if name == "all" else [name]
    return [result for suite_name in names for check in SUITES[suite_name] for result in check(forms)]
