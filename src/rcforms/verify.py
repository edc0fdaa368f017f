"""One-command verification suites over self-generated test forms.

Every check is called as ``check(forms)`` with one shared :class:`FormSet`
and returns a list of :class:`rcforms.series.CheckResult`; a check fails
with a minimal witness string (key + expected + actual) rather than an
exception, so a run always reports every check.  All comparisons are
exact.  The coefficient-level Jacobi form checks of bracket outputs, the
theta and the degree-2 slices all go through
:func:`rcforms.series.form_witness`; every slice of a degree-2 bracket
output of order l > 0 is checked as a cusp form.

The measured quantities that have no asserted target (the proportionality
scalars of the jet oracle, the realised x-span ranks) are recorded in the
result details.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb

from . import brackets, jets, lattices, seriesio
from .series import (
    CheckResult,
    EllipticSeries,
    InvariantError,
    JacobiSeries,
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
        for left_name, left in self.bracket_forms():
            for right_name, right in self.bracket_forms():
                yield f"({left_name},{right_name})", left, right


# -- criterion 1: bracket degenerations ---------------------------------------


def check_bracket_degenerations(forms: FormSet) -> list[CheckResult]:
    out = []
    product_ok, witness = True, ""
    for pair_name, f, g in forms.bracket_pairs():
        for x in BRACKET_X_VALUES:
            if brackets.bracket_jacobi(f, g, x, 0) != f * g:
                product_ok, witness = False, f"{pair_name} at x={x}"
                break
    out.append(CheckResult("order-0 bracket equals product", product_ok, witness))

    self_ok, witness = True, ""
    for name, f in forms.bracket_forms():
        for x in BRACKET_X_VALUES:
            if not brackets.bracket_jacobi(f, f, x, 1).is_zero():
                self_ok, witness = False, f"[{name},{name}] at x={x}"
    out.append(CheckResult("order-1 self-bracket vanishes", self_ok, witness))

    x_free_ok, witness = True, ""
    for pair_name, f, g in forms.bracket_pairs():
        left = seriesio.export_series(brackets.bracket_jacobi(f, g, 0, 1))
        right = seriesio.export_series(brackets.bracket_jacobi(f, g, 1, 1))
        if left != right:
            x_free_ok, witness = False, pair_name
    out.append(CheckResult("order-1 bracket is x-independent (byte-identical)", x_free_ok, witness))
    return out


# -- criterion 2: bracket output form checks ----------------------------------


def _bracket_output_witness(forms: FormSet, v: int) -> str:
    """The first failing order-v bracket output as "where: witness", or ""."""
    for pair_name, f, g in forms.bracket_pairs():
        for x in BRACKET_X_VALUES:
            result = brackets.bracket_jacobi(f, g, x, v)
            if result.weight != f.weight + g.weight + v or result.index != f.index + g.index:
                witness = "weight/index bookkeeping"
            else:
                witness = form_witness(result, cusp=v > 1)
            if witness:
                return f"{pair_name} v={v} x={x}: {witness}"
    return ""


def check_bracket_outputs(forms: FormSet) -> list[CheckResult]:
    out = []
    for v in range(MAX_BRACKET_ORDER + 1):
        witness = _bracket_output_witness(forms, v)
        out.append(CheckResult(f"order-{v} bracket outputs are Jacobi-type", not witness, witness))
    return out


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
                    measured.append(f"v={v},x={x}: lam={'indeterminate' if lam is None else lam}")
        out.append(
            CheckResult(f"jet oracle reproduces brackets {pair_name}", passed, "; ".join(measured))
        )
    return out


# -- criterion 4: heat Leibniz expansion --------------------------------------


def check_heat_leibniz(forms: FormSet) -> list[CheckResult]:
    out = []
    g = forms.theta
    m = g.index
    for name, f in (("E4", forms.e4), ("E6", forms.e6)):
        passed, witness = True, ""
        for r in range(4):
            left = heat_power(f.as_jacobi() * g, r)
            right = None
            for j in range(r + 1):
                tau_part = f
                for _ in range(r - j):
                    tau_part = theta_q_elliptic(tau_part)
                term = ((4 * m) ** (r - j) * comb(r, j)) * (
                    tau_part.as_jacobi() * heat_power(g, j)
                )
                right = term if right is None else right + term
            if left != right:
                diff = [k for k in set(left.support()) | set(right.support()) if left[k] != right[k]]
                passed, witness = False, f"r={r}, first mismatch at {sorted(diff)[0]}"
                break
        out.append(CheckResult(f"heat Leibniz expansion with {name} (r <= 3)", passed, witness))
    return out


# -- criterion 5: coefficient recursions --------------------------------------


def check_coefficient_recursions(forms: FormSet) -> list[CheckResult]:
    """Independent of the test forms: the relations are identities in the weights."""
    weights = [Fraction(4), Fraction(6), Fraction(10), Fraction(35), Fraction(9, 2), Fraction(7, 3)]
    passed, witness = True, ""
    for l in range(1, 7):
        for k1 in weights:
            for k2 in weights:
                if not brackets.check_recursions(k1, k2, l):
                    passed, witness = False, f"l={l}, k={k1}, k'={k2}"
    results = [CheckResult("coefficient recursions hold on the weight grid", passed, witness)]

    detect_ok, witness = True, ""
    params = brackets.BracketParams(4, 6, 0, 0, 2 * 2)
    level = 2
    triples = [(r, s, level - r - s) for r in range(level + 1) for s in range(level + 1 - r)]
    for target in triples:
        def perturbed(r, s, p, _target=target):
            value = brackets.coeff_C(r, s, p, params)
            return value + 1 if (r, s, p) == _target else value

        if brackets.check_recursions(4, 6, level, c_fn=perturbed):
            detect_ok, witness = False, f"perturbation at {target} undetected"
    results.append(CheckResult("single-coefficient perturbations are detected", detect_ok, witness))
    return results


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


def check_siegel_dual_path(forms: FormSet) -> list[CheckResult]:
    out = []
    F = forms.siegel_theta
    outputs = {}
    for l in (0, 1, 2):
        direct = outputs[l] = bracket_siegel_direct(F, F, l)
        via = bracket_siegel_via_jacobi(F, F, l)
        witness = ""
        if direct != via:
            keys = sorted(set(direct.support()) | set(via.support()))
            bad = next(key for key in keys if direct[key] != via[key])
            witness = f"key {bad}: direct {direct[bad]} vs sliced {via[bad]}"
        elif direct.weight != 2 * F.weight + 2 * l:
            witness = f"weight {direct.weight}"
        elif l > 0:
            for m, part in enumerate(direct.components()):
                if witness := form_witness(part, cusp=True):
                    witness = f"slice {m}: {witness}"
                    break
        out.append(CheckResult(f"degree-2 bracket dual-path equality at l={l}", not witness, witness))

    report = check_siegel_consistency(outputs[1])
    witness = "" if report.passed else report.failures()[0].describe()
    out.append(CheckResult("degree-2 bracket output consistency at l=1", report.passed, witness))
    return out


# -- criterion 8: lattice gates ------------------------------------------------


def check_lattice_gates(forms: FormSet) -> list[CheckResult]:
    out = []
    counts: dict[int, int] = {}
    for y in lattices.E8.doubled_vectors(2):
        half_norm = sum(a * a for a in y) // 8
        counts[half_norm] = counts.get(half_norm, 0) + 1
    gate = counts.get(1) == 240 and counts.get(2) == 2160 and counts.get(0) == 1
    out.append(
        CheckResult(
            "E8 vector counts (240 at norm 2, 2160 at norm 4)",
            gate,
            f"measured {counts.get(1)}, {counts.get(2)}",
        )
    )

    witness = form_witness(forms.theta)
    out.append(CheckResult("jacobi theta passes form checks", not witness, witness))

    report = check_siegel_consistency(forms.siegel_theta)
    witness = "" if report.passed else report.failures()[0].describe()
    out.append(CheckResult("siegel theta passes consistency checks", report.passed, witness))
    return out


# -- criterion 9: I/O round trips ----------------------------------------------


def check_io_roundtrip(forms: FormSet) -> list[CheckResult]:
    fixtures: list[tuple[str, JacobiSeries | SiegelSeries]] = [
        ("jacobi theta", forms.theta),
        ("bracket order 2", brackets.bracket_jacobi(forms.theta, forms.e4_theta, Fraction(1, 2), 2)),
        ("siegel theta", forms.siegel_theta),
        ("zero series", JacobiSeries.zero(4, 1, 4)),
    ]
    passed, witness = True, ""
    for name, obj in fixtures:
        text = seriesio.export_series(obj)
        back = seriesio.import_series(text)
        if back != obj:
            passed, witness = False, f"{name}: value changed in round trip"
            break
        if seriesio.export_series(back) != text:
            passed, witness = False, f"{name}: re-export not byte-identical"
            break
    return [CheckResult("coefficient files round-trip byte-identically", passed, witness)]


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
    if forms is None:
        forms = FormSet()
    names = list(SUITES) if name == "all" else [name]
    results = []
    for suite_name in names:
        if suite_name not in SUITES:
            raise ValueError(f"unknown suite {suite_name!r}; choose from {list(SUITES)} or 'all'")
        for check in SUITES[suite_name]:
            results.extend(check(forms))
    return results
