"""Package-level properties: dependencies, invariant checks that survive -O,
the shared form checks behind verify, and the verify report text."""

import ast
import copy
import functools
import hashlib
import json
import importlib.util
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import rcforms
import pytest
from hypothesis import given, settings, strategies as st

from rcforms import (
    E8,
    E8_INDEX1_VECTOR,
    EllipticSeries,
    InvariantError,
    JacobiSeries,
    SiegelSeries,
    brackets,
    form_witness,
    jacobi_theta,
    jets,
    siegel,
    siegel_theta,
    verify,
)
from rcforms.lattices import E8_E8, bernoulli, eisenstein_q, standard_index_vector
from rcforms.series import heat_power

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def theta():
    return jacobi_theta(E8, E8_INDEX1_VECTOR, 1)


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_does_not_load_numpy():
    result = run_python("-c", "import rcforms, sys; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_loads_only_the_stdlib_it_runs():
    """The records are namedtuples, annotations name collections.abc and files
    are opened with open(), so the dataclasses -> inspect chain, typing and
    pathlib stay unloaded; -S keeps the host's site hooks from loading them
    first and hiding a regression."""
    modules = "{'dataclasses', 'inspect', 'pathlib', 'typing'}"
    result = run_python("-S", "-c", f"import rcforms.cli, sys; print(sorted({modules} & set(sys.modules)))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_package_has_no_assert_statements():
    for path in sorted((SRC / "rcforms").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} uses assert at lines {asserts}"


def test_invariant_error_is_exported_arithmetic_error():
    assert rcforms.InvariantError is InvariantError
    assert issubclass(InvariantError, ArithmeticError)
    assert not issubclass(InvariantError, AssertionError)


OPTIMIZED_SCRIPT = """
import sys
from fractions import Fraction
from rcforms import E8, E8_INDEX1_VECTOR, InvariantError, brackets, jacobi_theta
if not sys.flags.optimize:
    sys.exit("not running under -O")
raised = []
E8.contains_doubled = lambda y: y == (1, 0, 0, 0, 0, 0, 0, 0)  # admits (1/2, 0, ..., 0), of norm 1/4
try:
    jacobi_theta(E8, (Fraction(1, 2), 0, 0, 0, 0, 0, 0, 0), 2)
except InvariantError as exc:
    if "has odd norm" in str(exc):
        raised.append("lattices")
del E8.contains_doubled
theta = jacobi_theta(E8, E8_INDEX1_VECTOR, 2)
brackets._exact_rank = lambda rows: len(rows)
try:
    brackets.bracket_rank_over_x(theta, theta, 2)
except InvariantError:
    raised.append("brackets")
print(" ".join(raised))
"""


def test_invariant_checks_survive_optimize_flag():
    result = run_python("-O", "-c", OPTIMIZED_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["lattices", "brackets"]


# the int argument of each Lattice method, named as its error names it
LATTICE_METHODS = [
    ("e8-theta-counts", functools.partial(E8.theta_counts, (2, -2, 0, 0, 0, 0, 0, 0)), "truncation"),
    ("e8-siegel-counts", E8.siegel_counts, "truncation"),
    ("e8-d8-orbits", E8.d8_orbits, "half-norm"),
    ("e8-least-vector", E8.least_vector, "half-norm"),
    ("e8e8-least-vector", E8_E8.least_vector, "half-norm"),
]
BAD_INTS = [
    ("bool", True, TypeError, "an int, got bool"),
    ("float", 2.0, TypeError, "an int, got float"),
    ("negative", -1, ValueError, "non-negative, got -1"),
]


@pytest.mark.parametrize("call, error, match", [
    (lambda: JacobiSeries(4, 1, -1), ValueError, "truncation must be non-negative"),
    (lambda: SiegelSeries(4, -1), ValueError, "truncation must be non-negative"),
    (lambda: E8.doubled_vectors(-1), ValueError, "half-norm bound must be non-negative"),
    (lambda: bernoulli(-1), ValueError, "^Bernoulli index n must be non-negative, got -1$"),
    (lambda: EllipticSeries(4, 2, {0: 1}) * "x", TypeError, None),
    # one out-of-range value per entry that series._check_int guards (True and 2.0:
    # tests/test_brackets.py::test_orders_of_the_wrong_type_are_rejected)
    (lambda: heat_power(theta(), -1), ValueError, "^heat power must be non-negative, got -1$"),
    (lambda: brackets.falling_factorial(1, -1), ValueError, "^falling factorial length n must be non-negative, got -1$"),
    (lambda: brackets.check_recursions(4, 6, 0), ValueError, "^recursion order l must be >= 1, got 0$"),
    (lambda: jets.jet_of_form(theta(), -1), ValueError, "^jet order must be non-negative, got -1$"),
    (lambda: jets.zeta_nu(jets.jet_of_form(theta(), 1), -1), ValueError,
     "^projection order nu must be non-negative, got -1$"),
    (lambda: jets.zeta_nu(jets.jet_of_form(theta(), 1), 2), ValueError, r"^jet carries components 0\.\.1, asked for 2$"),
    (lambda: siegel_theta(E8, 1).slice_component(-1), ValueError, "^slice index must be non-negative, got -1$"),
    (lambda: siegel_theta(E8, 1).slice_component(2), ValueError, r"^slice index 2 outside \[0, 1\]$"),
    (lambda: jacobi_theta(E8, E8_INDEX1_VECTOR, -2), ValueError, "^truncation must be non-negative, got -2$"),
    (lambda: siegel_theta(E8, -2), ValueError, "^truncation must be non-negative, got -2$"),
    (lambda: E8_E8.doubled_vectors(-1), ValueError, "^half-norm bound must be non-negative, got -1$"),
    (lambda: eisenstein_q(2, 4), ValueError, "^Eisenstein weight must be >= 4, got 2$"),
    (lambda: eisenstein_q(5, 4), ValueError, "^Eisenstein weight must be even, got 5$"),
    (lambda: eisenstein_q(4, -1), ValueError, "^truncation must be non-negative, got -1$"),
    (lambda: standard_index_vector(E8, 0), ValueError, "^index must be >= 1, got 0$"),
    *[(functools.partial(method, value), error, f"^{name} must be {rule}$")
      for _, method, name in LATTICE_METHODS for _, value, error, rule in BAD_INTS],
], ids=["jacobi-trunc", "siegel-trunc", "e8-half-norm", "bernoulli", "elliptic-times-str", "heat-power",
        "falling-factorial", "recursion-order", "jet-order", "zeta-nu-negative", "zeta-nu-above", "slice-negative",
        "slice-above", "jacobi-theta-trunc", "siegel-theta-trunc", "e8e8-half-norm", "eisenstein-weight-low",
        "eisenstein-weight-odd", "eisenstein-trunc", "index-vector",
        *[f"{label}-{kind}" for label, _, _ in LATTICE_METHODS for kind, *_ in BAD_INTS]])
def test_input_validation(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_verify_reports_rank_invariant_as_failed_check(monkeypatch):
    monkeypatch.setattr(brackets, "_exact_rank", lambda rows: len(rows))
    results = verify.check_bracket_rank(verify.FormSet(trunc=2, siegel_trunc=1))
    assert results and not any(r.passed for r in results)
    assert all("exceeds the degree bound" in r.detail for r in results)


def test_verify_report_text_matches_benchmark_reference():
    """The report text at the benchmark's tiny sizes hashes to the digest the
    benchmark checks it against (the reference file is only read here)."""
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    expected = reference["tiny"]["verify"]["verify all trunc=4 siegel_trunc=2"]
    text = "\n".join(r.describe() for r in verify.run_suite("all", verify.FormSet(4, 2))) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected


def test_theta_gate_reports_a_parity_failure():
    """A theta whose only fault is parity: at index 2, c(2, 1) shares its
    (disc, r mod 4) class with no other key at n <= 2."""
    forms = verify.FormSet(2, 1)
    theta = forms.theta_index2
    coeffs = dict(theta.items())
    coeffs[(2, 1)] += 1
    forms.theta = JacobiSeries(theta.weight, theta.index, theta.trunc, coeffs)
    (line,) = [r for r in verify.check_lattice_gates(forms) if r.name == "jacobi theta passes form checks"]
    assert not line.passed
    assert line.detail.startswith("parity: c(2, -1) = ")


def test_every_form_check_caller_gives_the_same_witness(monkeypatch):
    """form_witness, the bracket-output check and the Siegel consistency
    report name the same fault of the same series in the same words."""
    F = siegel_theta(E8, 2) * siegel_theta(E8, 2)  # weight 8
    coeffs = dict(F.items())
    for key in ((1, 1, 2), (1, -1, 2), (2, 1, 1), (2, -1, 1)):
        coeffs[key] += 1  # symmetric and even; breaks disc-class on slice 2 only
    bad_F = SiegelSeries(8, 2, coeffs)
    bad = bad_F.slice_component(2)
    witness = form_witness(bad)
    assert witness.startswith("disc-class: ")

    report = siegel.check_siegel_consistency(bad_F)
    (failure,) = report.failures()
    assert (failure.name, failure.detail) == ("slice 2 form checks", witness)

    # (theta, theta) at order 0 has weight 8 and index 2, like the slice
    monkeypatch.setattr(brackets, "bracket_jacobi", lambda f, g, x, v: bad)
    order0 = verify.check_bracket_outputs(verify.FormSet(2, 1))[0]
    assert not order0.passed
    assert order0.detail == f"(theta,theta) v=0 x=0: {witness}"


def load_benchmark_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(classes):
    """A copy of every rcforms module namespace, of each class body, and of verify.SUITES."""
    spaces = {name: vars(module) for name, module in sys.modules.items() if name.split(".")[0] == "rcforms"}
    spaces.update({f"{cls.__module__}.{cls.__qualname__}": vars(cls) for cls in classes})
    spaces["rcforms.verify.SUITES"] = verify.SUITES
    return {name: dict(space) for name, space in spaces.items()}


def test_benchmark_tracer_installs_and_restores_every_attribute():
    """The benchmark's traced runs wrap vars(cls)[name] of the series classes and
    the public rcforms functions: install() must find them all, restore() undo it."""
    tracing = load_benchmark_tracing()
    classes = {cls for cls, _, _, _ in tracing._methods()}
    before = snapshot(classes)
    theta = jacobi_theta(E8, (1, 1, 0, 0, 0, 0, 0, 0), 2)
    siegel = siegel_theta(E8, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        _ = EllipticSeries(4, 2, {0: 1}) * theta, theta - theta, siegel * siegel, siegel - siegel
    finally:
        tracer.restore()
    buckets = set(tracing.summarize(tracer.spans))
    for kind in ("series", "siegel"):
        assert {f"{kind}.mul", f"{kind}.add", f"{kind}.scale"} <= buckets
    after = snapshot(classes)
    assert after.keys() == before.keys()
    for name, space in before.items():
        now = after[name]
        changed = sorted(attr for attr in space.keys() | now.keys() if now.get(attr) is not space.get(attr))
        assert not changed, f"{name}: not restored: {changed}"


def independent_routes():
    """Outputs of the routes that check the bracket kernel: the direct Siegel
    bracket, the jet side of crosscheck_bracket (both parities) and the
    series product that the order-0 bracket must equal."""
    F = siegel_theta(E8, 2)
    f = jacobi_theta(E8, (1, 1, 0, 0, 0, 0, 0, 0), 3)
    g = EllipticSeries(4, 3, {0: 1, 1: 240, 2: 2160, 3: 6720}) * f
    out = [siegel.bracket_siegel_direct(F, F, l) for l in range(3)]
    a = jets.jet_scale_w(jets.jet_of_form(f, 2), 1 - g.index * Fraction(1, 3))
    b = jets.jet_scale_w(jets.jet_of_form(g, 2), 1 + f.index * Fraction(1, 3))
    out += [jets.zeta_nu(jets.jet_mul(a, b), 2), jets.zeta_nu(jets.jet_odd_combine(a, b), 2)]
    out.append(f * g)
    return out


def test_independent_routes_do_not_use_the_bracket_kernel(monkeypatch):
    """The second routes stay independent of the fast bracket path they check."""
    expected = independent_routes()
    F = siegel_theta(E8, 2)
    f = expected[-1]

    def forbidden(*args):
        raise RuntimeError("bracket kernel called")

    monkeypatch.setattr(brackets, "_bracket_pass", forbidden)
    fast_routes = [
        lambda: brackets.bracket_jacobi(f, f, 0, 2),
        lambda: brackets.bracket_jacobi_poly(f, f, 3),
        lambda: brackets.bracket_rank_over_x(f, f, 2),
        lambda: siegel.bracket_siegel_via_jacobi(F, F, 1),
    ]
    for route in fast_routes:
        with pytest.raises(RuntimeError, match="bracket kernel"):
            route()
    # nor may they reach the kernel's side lists of C and D or the Jacobi
    # bracket itself: the direct Siegel route takes C from _c_family
    monkeypatch.setattr(brackets, "_side_lists", forbidden)
    for module in (brackets, jets, siegel):
        monkeypatch.setattr(module, "bracket_jacobi", forbidden)
    assert independent_routes() == expected
    # the jets rebuild C and D from falling_factorial themselves, not from
    # the kernel's side lists
    source = Path(jets.__file__).read_text()
    assert not hasattr(jets, "_side_lists") and not hasattr(siegel, "_side_lists")
    assert "_side_lists" not in source
    # nor their weight shift: the jets write K - 3/2 + nu with their own 3/2
    assert "THREE_HALVES = Fraction(3, 2)" in source and ".shifted(" not in source
    assert not hasattr(brackets, "THREE_HALVES")


def test_slice_route_does_not_use_the_direct_route(monkeypatch):
    """The slice route checks the direct degree-2 bracket, so it reaches
    neither the C(r, s, p) family of the direct route nor its delta rule."""
    F = siegel_theta(E8, 2)
    pairs = [(F, F), (F, F * F)]
    direct = [siegel.bracket_siegel_direct(a, b, l) for a, b in pairs for l in range(4)]

    def forbidden(*args):
        raise RuntimeError("direct-route helper called")

    for module, name in (
        (brackets, "_c_family"),
        (brackets, "bracket_terms"),
        (brackets, "coeff_C"),
        (siegel, "_c_family"),
        (siegel, "delta_op"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(RuntimeError, match="direct-route helper"):
        siegel.bracket_siegel_direct(F, F, 1)
    assert [siegel.bracket_siegel_via_jacobi(a, b, l) for a, b in pairs for l in range(4)] == direct


def test_direct_route_takes_C_from_the_cleared_family(monkeypatch):
    """The direct degree-2 route reads C(r, s, p) only through _c_family: it
    builds no BracketTerm and no coeff_D value."""
    F = siegel_theta(E8, 2)
    pairs = [(F, F), (F, F * F)]
    expected = [siegel.bracket_siegel_direct(a, b, l) for a, b in pairs for l in range(4)]

    def forbidden(*args):
        raise RuntimeError("summand record built")

    for name in ("bracket_terms", "coeff_D"):
        monkeypatch.setattr(brackets, name, forbidden)
    assert not hasattr(siegel, "bracket_terms") and not hasattr(siegel, "coeff_D")
    assert [siegel.bracket_siegel_direct(a, b, l) for a, b in pairs for l in range(4)] == expected


def records():
    """(first, a fresh equal copy, a different one) of each record type."""
    theta = jacobi_theta(E8, E8_INDEX1_VECTOR, 2)
    check = verify.CheckResult
    builders = [
        (lambda: check("check", False, "c(1, 0) = 1"), lambda: check("check", True)),
        (lambda: brackets.BracketParams(4, 6, 1, 2, 3, Fraction(1, 3)), lambda: brackets.BracketParams(4, 6, 1, 2, 3)),
        (lambda: brackets.BracketTerm(1, 0, 0, 0, 1, Fraction(5, 2), Fraction(-2)),
         lambda: brackets.BracketTerm(1, 0, 0, 1, 0, Fraction(5, 2), Fraction(-2))),
        (lambda: jets.jet_of_form(theta, 2), lambda: jets.jet_of_form(theta, 1)),
        (lambda: siegel.ConsistencyReport((check("slice 1 form checks", True),)), lambda: siegel.ConsistencyReport(())),
    ]
    return [(build(), build(), other()) for build, other in builders]


RECORDS = pytest.mark.parametrize(
    "first,same,other", records(), ids=["CheckResult", "BracketParams", "BracketTerm", "FormalJet", "ConsistencyReport"]
)


class TestRecords:
    """The five records keep their contract without dataclasses: equality,
    repr, immutability, copy and pickle, and validation at construction."""

    @RECORDS
    def test_equality(self, first, same, other):
        assert first == same and not first != same
        assert first != other and not first == other

    @RECORDS
    def test_repr_names_the_type_and_fields(self, first, same, other):
        text = repr(first)
        assert text.startswith(f"{type(first).__name__}({first._fields[0]}=")
        assert all(f"{name}=" in text for name in first._fields)

    def test_repr_text(self):
        assert repr(verify.CheckResult("check", True)) == "CheckResult(name='check', passed=True, detail='')"
        assert repr(brackets.BracketParams(4, 6, 1, 2, 3)) == (
            "BracketParams(k1=4, k2=6, m1=1, m2=2, v=3, x=Fraction(0, 1))"
        )

    @RECORDS
    def test_attribute_assignment_raises(self, first, same, other):
        for name in (*first._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(first, name, getattr(other, name, None))
        assert first == same

    @RECORDS
    def test_copy_and_pickle_round_trips(self, first, same, other):
        for twin in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
            assert type(twin) is type(first)
            assert twin == same
        assert pickle.loads(pickle.dumps(first, protocol=0)) == same

    def test_defaults(self):
        assert verify.CheckResult("check", True) == verify.CheckResult("check", True, "")
        assert brackets.BracketParams(4, 6, 1, 2, 3).x == Fraction(0)

    def test_negative_bracket_order_rejected(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            brackets.BracketParams(4, 6, 1, 1, -1)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            brackets.BracketParams(4, 6, 1, 1, v=-1, x=Fraction(1, 2))

    def test_jet_components_validated(self):
        theta = jacobi_theta(E8, E8_INDEX1_VECTOR, 2)
        chis = jets.jet_of_form(theta, 1).chis
        with pytest.raises(ValueError, match="component 1 has weight 4, expected 6"):
            jets.FormalJet(4, 1, (theta, theta))
        with pytest.raises(ValueError, match="component 0 has index 1, expected 2"):
            jets.FormalJet(4, 2, chis)
        with pytest.raises(ValueError, match="share a truncation"):
            jets.FormalJet(4, 1, (chis[0], chis[1].truncated(1)))
        with pytest.raises(ValueError, match="at least its component 0"):
            jets.FormalJet(4, 1, ())
        for weight, got in ((4.0, "float"), (True, "bool")):
            with pytest.raises(TypeError, match=f"^jet base weight must be int or Fraction, got {got}$"):
                jets.FormalJet(weight, 1, chis)
        with pytest.raises(TypeError, match="^jet index must be an int, got float$"):
            jets.FormalJet(4, 1.0, chis)

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=-20, max_value=40, max_denominator=9),
        st.fractions(min_value=-20, max_value=40, max_denominator=9),
    )
    def test_shifted_weights(self, k1, k2):
        """shifted(t) gives alpha + t, beta + t and -gamma - t as int pairs over a
        positive int, and the record keeps no per-instance state."""
        three_halves = Fraction(3, 2)
        for v in (4, 5):
            params = brackets.BracketParams(k1, k2, 1, 1, v)
            alpha, beta = Fraction(k1) - three_halves, Fraction(k2) - three_halves
            gamma = Fraction(k1) + Fraction(k2) - three_halves + v % 2
            for t in range(7):
                pairs = params.shifted(t)
                assert all(type(y) is int and type(q) is int and q > 0 for y, q in pairs)
                assert [Fraction(y, q) for y, q in pairs] == [alpha + t, beta + t, -gamma - t], (v, t)
            assert not hasattr(params, "__dict__")
