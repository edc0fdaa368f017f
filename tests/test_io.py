import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from rcforms import brackets
from rcforms.cli import main
from rcforms.lattices import E8, E8_INDEX1_VECTOR, eisenstein_q, jacobi_theta, siegel_theta
from rcforms.series import JacobiSeries, _SparseSeries, _value_text, form_witness
from rcforms.seriesio import (
    ParseError,
    export_series,
    import_series,
    parse_fraction_arg,
    read_series,
    write_series,
)
from rcforms.siegel import SiegelSeries, SymmetryError, bracket_siegel_direct

Q = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


class TestExportFormat:
    def test_golden_layout(self):
        f = JacobiSeries(4, 1, 2, {(1, -1): Q(-3, 2), (0, 0): 1, (1, 1): 5})
        assert export_series(f) == (
            "rcforms 1\n"
            "kind jacobi\n"
            "weight 4\n"
            "index 1\n"
            "trunc 2\n"
            "coeff 0 0 1/1\n"
            "coeff 1 -1 -3/2\n"
            "coeff 1 1 5/1\n"
            "END\n"
        )

    def test_elliptic_series_not_exported(self):
        with pytest.raises(TypeError, match="cannot export EllipticSeries"):
            export_series(eisenstein_q(4, 2))

    def test_zero_series_has_no_records(self):
        text = export_series(JacobiSeries.zero(4, 1, 3))
        assert "coeff" not in text
        assert text.endswith("END\n")

    def test_siegel_layout(self):
        F = SiegelSeries(4, 1, {(0, 0, 1): 2, (1, 0, 0): 2})
        assert export_series(F) == (
            "rcforms 1\n"
            "kind siegel\n"
            "weight 4\n"
            "trunc 1\n"
            "coeff 0 0 1 2/1\n"
            "coeff 1 0 0 2/1\n"
            "END\n"
        )

    def test_records_sorted_lexicographically(self, theta4):
        text = export_series(theta4)
        keys = [tuple(map(int, line.split()[1:3])) for line in text.splitlines() if line.startswith("coeff")]
        assert keys == sorted(keys)


class TestRoundTrip:
    def test_jacobi_value_roundtrip(self, theta4):
        assert import_series(export_series(theta4)) == theta4

    def test_siegel_value_roundtrip(self, siegel2):
        assert import_series(export_series(siegel2)) == siegel2

    def test_byte_identical_reexport(self, theta4, siegel2):
        for obj in (theta4, siegel2):
            text = export_series(obj)
            assert export_series(import_series(text)) == text

    def test_comments_and_blanks_accepted(self):
        text = (
            "# exported fixture\n"
            "rcforms 1\n"
            "kind jacobi\n\n"
            "weight 4\n"
            "index 1  # the index\n"
            "trunc 2\n"
            "coeff 1 0 3/1\n"
            "END\n"
        )
        f = import_series(text)
        assert f[(1, 0)] == 3

    def test_file_helpers(self, theta4, tmp_path):
        target = tmp_path / "theta.coef"
        write_series(target, theta4)
        assert read_series(target) == theta4


@pytest.fixture
def int_str_limit_at_floor():
    """The interpreter's int/str digit limit lowered to its floor, restored afterwards;
    fails if the code under test changed it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)


class TestIntegersOfAnyLength:
    def test_long_values_and_keys_roundtrip(self, int_str_limit_at_floor):
        # 5001-digit numerator, denominator and zeta-exponent: beyond the limit
        num, den, far = 10**5000 + 1, 2**16610, 10**5000
        f = JacobiSeries(4, 1, 2, {(1, 0): Q(num, den), (1, -far): -1})
        text = export_series(f)
        assert f"coeff 1 -1{'0' * 5000} -1/1\n" in text
        assert import_series(text) == f
        assert export_series(import_series(text)) == text

    def test_long_token_errors_name_the_line(self, int_str_limit_at_floor):
        head, big = "rcforms 1\nkind jacobi\nweight 4\nindex 1\ntrunc 2\n", "1" + "0" * 5000
        with pytest.raises(ParseError, match="line 6: fraction .* is not reduced"):
            import_series(f"{head}coeff 1 0 2{big}/2\nEND\n")
        with pytest.raises(ParseError, match="line 6: key .* outside truncation 2"):
            import_series(f"{head}coeff {big} 0 1/1\nEND\n")
        with pytest.raises(ParseError, match="line 7: records out of order"):
            import_series(f"{head}coeff 1 {big} 1/1\ncoeff 1 0 1/1\nEND\n")

    def test_cli_bracket_of_long_coefficients(self, tmp_path, int_str_limit_at_floor):
        # 2200-digit inputs: the order-0 bracket's coefficients have about 4400 digits
        theta = jacobi_theta(E8, E8_INDEX1_VECTOR, 2) * (10**2200 + 1)
        source, out = tmp_path / "theta.coef", tmp_path / "product.coef"
        write_series(source, theta)
        code = main(["bracket-jacobi", "--left", str(source), "--right", str(source), "--v", "0", "--out", str(out)])
        assert code == 0
        assert read_series(out) == theta * theta


@pytest.fixture(params=["default", 640])
def int_str_limit(request):
    """The interpreter's int/str digit limit as it is, then lowered to its floor; restored afterwards."""
    if request.param == "default":
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestWitnessTextOfAnyLength:
    """Witness and error text writes values through series._value_text, so a
    value longer than the int/str digit limit still reaches its witness."""

    BIG = "1" + "0" * 5000

    def test_symmetry_error_on_import(self, int_str_limit):
        text = f"rcforms 1\nkind siegel\nweight 4\ntrunc 2\ncoeff 1 0 2 {self.BIG}/1\nEND\n"
        with pytest.raises(SymmetryError, match=f"a\\(1,0,2\\) = {self.BIG} but a\\(2,0,1\\) = 0$"):
            import_series(text)

    def test_cli_exits_with_the_witness(self, tmp_path, capsys, int_str_limit):
        source = tmp_path / "asymmetric.coef"
        source.write_bytes(f"rcforms 1\nkind siegel\nweight 4\ntrunc 2\ncoeff 1 0 2 {self.BIG}/1\nEND\n".encode())
        out = tmp_path / "out.coef"
        assert main(["bracket-siegel", "--left", str(source), "--right", str(source), "--l", "1", "--out", str(out)]) == 1
        assert f"symmetry violation: a(1,0,2) = {self.BIG}" in capsys.readouterr().err
        assert not out.exists()

    def test_form_witness(self, int_str_limit):
        f = JacobiSeries(4, 1, 2, {(0, 2): 10**5000})
        assert form_witness(f) == f"holomorphic support: c(0, 2) = {self.BIG}"
        g = JacobiSeries(4, 1, 2, {(1, 0): Q(-1, 10**5000)})
        assert form_witness(g) == f"disc-class: c(2, -2) = 0 vs c(1, 0) = -1/{self.BIG}"

    def asymmetric_long_key_file(self, path):
        path.write_bytes(f"rcforms 1\nkind siegel\nweight 4\ntrunc 2\ncoeff 1 {self.BIG} 2 1/1\nEND\n".encode())
        return path

    def test_symmetry_error_names_a_long_key(self, tmp_path, int_str_limit):
        source = self.asymmetric_long_key_file(tmp_path / "asymmetric.coef")
        with pytest.raises(SymmetryError) as info:
            read_series(source)
        assert str(info.value) == f"symmetry violation: a(1,{self.BIG},2) = 1 but a(2,{self.BIG},1) = 0"
        assert info.value.key == (1, 10**5000, 2)

    def test_cli_exits_with_the_witness_of_a_long_key(self, tmp_path, capsys, int_str_limit):
        source = self.asymmetric_long_key_file(tmp_path / "asymmetric.coef")
        out = tmp_path / "out.coef"
        assert main(["bracket-siegel", "--left", str(source), "--right", str(source), "--l", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"invariant violation: symmetry violation: a(1,{self.BIG},2) = 1 but a(2,{self.BIG},1) = 0\n"
        assert not out.exists()

    def test_form_witness_of_a_long_key(self, int_str_limit):
        f = JacobiSeries(4, 1, 2, {(1, 10**5000): 1})
        assert form_witness(f) == f"holomorphic support: c(1, {self.BIG}) = 1"

    def test_range_error_names_a_long_key(self, int_str_limit):
        with pytest.raises(ValueError) as info:
            JacobiSeries(4, 1, 2, {(10**5000, 1): 1})
        assert str(info.value) == f"coefficient key ({self.BIG}, 1) outside truncation 2"

    def test_fraction_argument_of_any_length(self, int_str_limit):
        assert parse_fraction_arg(f"1/{self.BIG}") == Q(1, 10**5000)
        assert parse_fraction_arg(f" −{self.BIG}/2 ") == -(10**5000) // 2
        with pytest.raises(ValueError, match="zero denominator"):
            parse_fraction_arg(f"{self.BIG}/0")

    def test_cli_bracket_at_a_long_x(self, tmp_path, theta4, e4_theta4, int_str_limit):
        left, right, out = tmp_path / "left.coef", tmp_path / "right.coef", tmp_path / "out.coef"
        write_series(left, theta4)
        write_series(right, e4_theta4)
        argv = ["bracket-jacobi", "--left", str(left), "--right", str(right), f"--x=1/{self.BIG}", "--v", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        expected = brackets.bracket_jacobi(theta4, e4_theta4, Q(1, 10**5000), 2)
        assert out.read_bytes() == export_series(expected).encode()

    def test_cli_theta_at_a_long_vector(self, tmp_path, int_str_limit):
        out = tmp_path / "theta.coef"
        vector = f"{self.BIG},0,0,0,0,0,0,0"
        assert main(["theta-jacobi", "--vector", vector, "--trunc", "1", "--out", str(out)]) == 0
        expected = jacobi_theta(E8, (10**5000, 0, 0, 0, 0, 0, 0, 0), 1)
        assert out.read_bytes() == export_series(expected).encode()

    @given(st.fractions())
    def test_value_text_is_str_at_ordinary_sizes(self, x):
        assert _value_text(x) == str(x)
        assert _value_text(x.numerator) == str(x.numerator)


class TestRejections:
    def reject(self, text, match, line=None):
        with pytest.raises(ParseError, match=match) as info:
            import_series(text)
        if line is not None:
            assert info.value.line == line

    HEAD = "rcforms 1\nkind jacobi\nweight 4\nindex 1\ntrunc 2\n"

    def test_unreduced_fraction(self):
        self.reject(self.HEAD + "coeff 2 1 3/6\nEND\n", "not reduced", line=6)

    def test_zero_coefficient(self):
        self.reject(self.HEAD + "coeff 2 1 0/1\nEND\n", "omitted")

    def test_bare_integer_value(self):
        self.reject(self.HEAD + "coeff 2 1 3\nEND\n", "num/den")

    def test_negative_denominator(self):
        self.reject(self.HEAD + "coeff 2 1 3/-2\nEND\n", "denominator")

    def test_key_beyond_truncation(self):
        self.reject(self.HEAD + "coeff 3 0 1/1\nEND\n", "truncation", line=6)

    def test_negative_n_key(self):
        self.reject(self.HEAD + "coeff -1 0 1/1\nEND\n", "truncation", line=6)

    def test_siegel_m_beyond_truncation(self):
        text = "rcforms 1\nkind siegel\nweight 4\ntrunc 2\ncoeff 0 0 0 1/1\ncoeff 0 0 3 1/1\nEND\n"
        self.reject(text, "truncation", line=6)

    @pytest.mark.parametrize("line,canonical,negative", [(4, "index 1", "index -1"), (5, "trunc 2", "trunc -1")])
    def test_negative_header_value(self, line, canonical, negative):
        self.reject(self.HEAD.replace(canonical, negative) + "END\n", "non-negative", line=line)

    def test_unsorted_records(self):
        self.reject(self.HEAD + "coeff 2 1 1/1\ncoeff 1 0 1/1\nEND\n", "out of order", line=7)

    def test_duplicate_records(self):
        self.reject(self.HEAD + "coeff 1 0 1/1\ncoeff 1 0 2/1\nEND\n", "out of order")

    def test_missing_end(self):
        self.reject(self.HEAD + "coeff 1 0 1/1\n", "END")

    def test_content_after_end(self):
        self.reject(self.HEAD + "END\ncoeff 1 0 1/1\n", "after END")

    def test_bad_header(self):
        self.reject("otherformat 1\nkind jacobi\n", "header", line=1)

    def test_unknown_kind(self):
        self.reject("rcforms 1\nkind maass\nweight 4\n", "unknown kind", line=2)

    def test_file_ends_after_kind(self):
        self.reject("rcforms 1\nkind jacobi\n", "unexpected end of file, expected 'weight'", line=2)

    def test_file_ends_after_trunc(self):
        self.reject(self.HEAD, "missing END terminator", line=5)

    def test_end_of_file_names_the_last_line_after_comments(self):
        self.reject(self.HEAD + "coeff 1 0 1/1\n# no END\n\n", "missing END terminator", line=8)

    def test_missing_metadata(self):
        self.reject("rcforms 1\nkind jacobi\nweight 4\ntrunc 2\nEND\n", "index")

    def test_non_integer_key(self):
        self.reject(self.HEAD + "coeff 1.5 0 1/1\nEND\n", "integer")

    def test_empty_file(self):
        self.reject("", "empty")

    def test_asymmetric_siegel_rejected(self):
        text = "rcforms 1\nkind siegel\nweight 4\ntrunc 2\ncoeff 1 0 2 1/1\nEND\n"
        with pytest.raises(ValueError, match="symmetry"):
            import_series(text)

    @pytest.mark.parametrize(
        "value", ["1_0/1", "010/1", "+4/1", "-0/1", "3/01", "3/+2", "٣/1", "1/٣", " 1/1"]
    )
    def test_non_canonical_value(self, value):
        self.reject(self.HEAD + f"coeff 1 0 {value}\nEND\n", "num/den|denominator|spaces", line=6)

    @pytest.mark.parametrize(
        "line,canonical,spelled",
        [
            (5, "trunc 2", "trunc 02"),
            (3, "weight 4", "weight +4"),
            (4, "index 1", "index 1_0"),
            (3, "weight 4", "weight ٤"),
        ],
    )
    def test_non_canonical_header_value(self, line, canonical, spelled):
        self.reject(self.HEAD.replace(canonical, spelled) + "END\n", "integer", line=line)

    @pytest.mark.parametrize("key", ["-0", "01", "+1", "1_0"])
    def test_non_canonical_key(self, key):
        self.reject(self.HEAD + f"coeff 1 {key} 1/1\nEND\n", "integer", line=6)

    def test_crlf_line_endings(self):
        text = self.HEAD + "coeff 1 0 1/1\nEND\n"
        self.reject(text.replace("\n", "\r\n"), "LF", line=1)
        self.reject(text.replace("1/1\n", "1/1\r\n"), "LF", line=6)

    def test_crlf_file(self, tmp_path):
        target = tmp_path / "crlf.coef"
        target.write_bytes((self.HEAD + "END\n").replace("\n", "\r\n").encode())
        with pytest.raises(ParseError, match="LF"):
            read_series(target)

    def test_missing_final_line_feed(self):
        self.reject(self.HEAD + "END", "LF", line=6)

    @pytest.mark.parametrize(
        "record",
        ["coeff 1  0 1/1", " coeff 1 0 1/1", "coeff 1 0 1/1 ", "coeff\t1 0 1/1", "coeff 1 0\u00a01/1", " "],
    )
    def test_non_canonical_spacing(self, record):
        self.reject(self.HEAD + record + "\nEND\n", "spaces|expected|num/den|integer", line=6)


KEYS = st.integers(0, 2)
VALUES = st.fractions(min_value=-30, max_value=30, max_denominator=12)
# characters whose insertion or substitution spells a token, a line ending or
# a separator outside the canonical grammar (or, at times, another valid file)
EDITS = [" ", "\t", "\r", "\n", "+", "-", "0", "1", "_", "/", "٣", "\u00a0"]


@st.composite
def near_canonical_texts(draw):
    """A canonical export, then up to three single-character edits."""
    if draw(st.booleans()):
        coeffs = draw(st.dictionaries(st.tuples(KEYS, st.integers(-3, 3)), VALUES, max_size=4))
        obj = JacobiSeries(draw(st.integers(-2, 8)), draw(st.integers(0, 2)), 2, coeffs)
    else:
        upper = draw(st.dictionaries(st.tuples(KEYS, st.integers(-3, 3), KEYS), VALUES, max_size=4))
        weight = draw(st.integers(-2, 8))
        # a(m, r, n) = (-1)**weight * a(n, r, m), so at odd weight the diagonal n = m is zero
        sign = (-1) ** (weight % 2)
        coeffs = {}
        for (n, r, m), v in upper.items():
            if n < m or n == m and sign == 1:
                coeffs[(n, r, m)], coeffs[(m, r, n)] = v, sign * v
        obj = SiegelSeries(weight, 2, coeffs)
    text = export_series(obj)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        char = "" if edit == "delete" else draw(st.sampled_from(EDITS))
        text = text[:at] + char + text[at + (edit != "insert") :]
    return text


class TestCanonicalGrammar:
    @given(near_canonical_texts())
    def test_accepted_text_reexports_byte_identically(self, text):
        # comments and empty lines are the only layout the export does not reproduce
        assume("#" not in text and "\n\n" not in text and not text.startswith("\n"))
        try:
            obj = import_series(text)
        except ValueError:  # ParseError, or a transpose-symmetry violation
            return
        assert export_series(obj) == text


class TestFractionArgument:
    def test_accepted_forms(self):
        assert parse_fraction_arg("-1/2") == Q(-1, 2)
        assert parse_fraction_arg("−1/2") == Q(-1, 2)  # unicode minus
        assert parse_fraction_arg("3") == 3
        assert parse_fraction_arg("+4/6") == Q(2, 3)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "a/b", "1/0", "", "1/2/3", "٣/٤", "٣", "1/٤", "１"])
    def test_rejected_forms(self, bad):
        with pytest.raises(ValueError):
            parse_fraction_arg(bad)


class TestCommittedFixtures:
    @pytest.mark.parametrize(
        "name,build",
        [
            ("theta_e8_v2_n4.coef", lambda: jacobi_theta(E8, E8_INDEX1_VECTOR, 4)),
            ("theta_siegel_e8_t2.coef", lambda: siegel_theta(E8, 2)),
        ],
    )
    def test_rebuilt_forms_match_committed_bytes(self, name, build):
        assert export_series(build()) == (FIXTURES / name).read_text()

    def test_bracket_fixture(self, theta4):
        from rcforms.brackets import bracket_jacobi

        rebuilt = bracket_jacobi(theta4, theta4, Q(0), 2)
        assert export_series(rebuilt) == (FIXTURES / "bracket_theta_theta_v2_x0_n4.coef").read_text()

    def test_siegel_bracket_fixture(self, siegel2):
        rebuilt = bracket_siegel_direct(siegel2, siegel2, 1)
        assert export_series(rebuilt) == (FIXTURES / "bracket_siegel_l1_t2.coef").read_text()

    def test_fixtures_import_cleanly(self):
        for path in sorted(FIXTURES.glob("*.coef")):
            obj = read_series(path)
            assert export_series(obj) == path.read_text()

    def test_import_builds_once_through_the_integer_store(self, monkeypatch):
        """The reader clears the values itself: the public constructors' key
        scan and denominator pass (``_store_values``) never run on import."""

        def refuse(*args):
            raise AssertionError("import went through _store_values")

        monkeypatch.setattr(_SparseSeries, "_store_values", refuse)
        paths = sorted(FIXTURES.glob("*.coef"))
        assert len(paths) == 4
        for path in paths:
            assert export_series(read_series(path)) == path.read_text()


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_theta_jacobi_writes_canonical_file(self, tmp_path, theta4):
        out = tmp_path / "theta.coef"
        assert self.run("theta-jacobi", "--lattice", "e8", "--trunc", "4", "--out", str(out)) == 0
        assert out.read_text() == export_series(theta4)

    def test_theta_jacobi_explicit_vector(self, tmp_path):
        out = tmp_path / "theta2.coef"
        code = self.run(
            "theta-jacobi", "--vector", "1,1,0,0,0,0,0,0", "--trunc", "2", "--out", str(out)
        )
        assert code == 0
        assert read_series(out).index == 1

    @pytest.mark.parametrize("index", ["1", "2"])
    def test_theta_jacobi_takes_one_name_for_the_vector(self, tmp_path, capsys, index):
        out = tmp_path / "theta.coef"
        with pytest.raises(SystemExit) as exc:
            self.run(
                "theta-jacobi", "--half-norm-index", index, "--vector", "1,-1,0,0,0,0,0,0",
                "--trunc", "1", "--out", str(out),
            )
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_e8e8_thetas_complete(self, tmp_path):
        jacobi, siegel = tmp_path / "j.coef", tmp_path / "s.coef"
        assert self.run("theta-jacobi", "--lattice", "e8e8", "--trunc", "6", "--out", str(jacobi)) == 0
        assert self.run("theta-siegel", "--lattice", "e8e8", "--trunc", "3", "--out", str(siegel)) == 0
        theta, F = read_series(jacobi), read_series(siegel)
        assert (theta.weight, theta.index, theta.trunc) == (8, 1, 6)
        assert (F.weight, F.trunc) == (8, 3)
        assert F.slice_component(0) == eisenstein_q(8, 3).as_jacobi()

    def test_bracket_order_zero_is_product(self, tmp_path, theta4):
        theta_path = tmp_path / "theta.coef"
        write_series(theta_path, theta4)
        out = tmp_path / "product.coef"
        code = self.run(
            "bracket-jacobi", "--left", str(theta_path), "--right", str(theta_path),
            "--x=-1/2", "--v", "0", "--out", str(out),
        )
        assert code == 0
        assert read_series(out) == theta4 * theta4

    def test_bracket_siegel_modes_agree_bytewise(self, tmp_path, siegel2):
        source = tmp_path / "siegel.coef"
        write_series(source, siegel2)
        direct, sliced = tmp_path / "direct.coef", tmp_path / "sliced.coef"
        args = ["bracket-siegel", "--left", str(source), "--right", str(source), "--l", "1"]
        assert self.run(*args, "--mode", "direct", "--out", str(direct)) == 0
        assert self.run(*args, "--mode", "jacobi", "--out", str(sliced)) == 0
        assert direct.read_bytes() == sliced.read_bytes()

    def test_rank_command_prints_rank(self, tmp_path, theta4, e4_theta4, capsys):
        a, b = tmp_path / "a.coef", tmp_path / "b.coef"
        write_series(a, theta4)
        write_series(b, e4_theta4)
        assert self.run("rank-x", "--left", str(a), "--right", str(b), "--v", "2") == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_rank_above_degree_bound_exits_1(self, tmp_path, theta4, monkeypatch, capsys):
        a = tmp_path / "a.coef"
        write_series(a, theta4)
        monkeypatch.setattr(brackets, "_exact_rank", lambda rows: len(rows))
        assert self.run("rank-x", "--left", str(a), "--right", str(a), "--v", "2") == 1
        assert "exceeds the degree bound" in capsys.readouterr().err

    def test_bracket_cost_follows_the_inputs_not_the_truncation(self, tmp_path):
        # three records at trunc 10**9: a walk over every n up to trunc would
        # run for minutes, the reachable n1 + n2 are 0, 1 and 2
        records = {(0, 0): 1, (1, -1): Q(-3, 2), (1, 1): 5}
        huge, small = tmp_path / "huge.coef", JacobiSeries(4, 1, 2, records)
        write_series(huge, JacobiSeries(4, 1, 10**9, records))
        out = tmp_path / "bracket.coef"
        for command, *extra in (
            ("bracket-jacobi", "--x", "1/3", "--out", str(out)),
            ("rank-x",),
        ):
            result = subprocess.run(
                [sys.executable, "-m", "rcforms", command, "--left", str(huge), "--right", str(huge),
                 "--v", "4", *extra],
                capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 0, result.stderr
        bracket = read_series(out)
        expected = brackets.bracket_jacobi(small, small, Q(1, 3), 4)
        assert bracket.trunc == 10**9 and not expected.is_zero()
        assert bracket.items() == expected.items()
        assert int(result.stdout) == brackets.bracket_rank_over_x(small, small, 4)

    def test_bracket_cost_follows_the_inputs_not_the_spread_of_r(self, tmp_path):
        # two records at r = -10**9 and 10**9: a packed row spanning every r
        # between them would be an integer of hundreds of megabytes, while
        # the stored entries make a handful of small products
        far = 10**9
        jacobi, siegel = tmp_path / "jacobi.coef", tmp_path / "siegel.coef"
        write_series(jacobi, JacobiSeries(4, 1, 2, {(0, -far): 1, (0, far): 3}))
        write_series(siegel, SiegelSeries(4, 2, {(0, -far, 0): 1, (0, far, 0): 2}))
        out = tmp_path / "out.coef"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        results = {}
        for command, source, extra in (
            ("bracket-jacobi", jacobi, ("--v", "0", "--out", str(out))),
            ("bracket-jacobi", jacobi, ("--v", "5", "--x", "1/3", "--out", str(tmp_path / "v5.coef"))),
            ("rank-x", jacobi, ("--v", "4")),
            ("bracket-siegel", siegel, ("--l", "0", "--out", str(tmp_path / "siegel_out.coef"))),
            ("bracket-siegel", siegel, ("--l", "2", "--out", str(tmp_path / "siegel_l2.coef"))),
        ):
            result = subprocess.run(
                [sys.executable, "-m", "rcforms", command, "--left", str(source), "--right", str(source), *extra],
                capture_output=True, text=True, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            results[command] = result.stdout
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 10
        assert read_series(out).items() == [((0, -2 * far), 1), ((0, 0), 6), ((0, 2 * far), 9)]
        assert read_series(tmp_path / "siegel_out.coef").items() == [
            ((0, -2 * far, 0), 1), ((0, 0, 0), 4), ((0, 2 * far, 0), 4)
        ]
        assert int(results["rank-x"]) >= 1

    def test_malformed_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.coef"
        bad.write_text("rcforms 1\nkind jacobi\nweight 4\nindex 1\ntrunc 2\ncoeff 1 0 3/6\nEND\n")
        out = tmp_path / "out.coef"
        code = self.run("bracket-jacobi", "--left", str(bad), "--right", str(bad), "--v", "0", "--out", str(out))
        assert code == 2
        assert "line 6" in capsys.readouterr().err

    def test_decimal_x_exits_2(self, tmp_path, theta4, capsys):
        a = tmp_path / "a.coef"
        write_series(a, theta4)
        code = self.run("bracket-jacobi", "--left", str(a), "--right", str(a), "--x", "0.5", "--v", "1", "--out", str(tmp_path / "o.coef"))
        assert code == 2

    def test_non_ascii_digit_x_exits_2(self, tmp_path, theta4, capsys):
        a = tmp_path / "a.coef"
        write_series(a, theta4)
        out = tmp_path / "o.coef"
        code = self.run("bracket-jacobi", "--left", str(a), "--right", str(a), "--x=٣", "--v", "2", "--out", str(out))
        assert code == 2
        assert "not an exact fraction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,expected,wrong",
        [("bracket-jacobi", "jacobi", "siegel"), ("bracket-siegel", "siegel", "jacobi")],
    )
    def test_wrong_kind_exits_2(self, tmp_path, theta4, siegel2, capsys, command, expected, wrong):
        source = tmp_path / f"{wrong}.coef"
        write_series(source, siegel2 if wrong == "siegel" else theta4)
        order = ["--v", "0"] if command == "bracket-jacobi" else ["--l", "0"]
        out = tmp_path / "o.coef"
        code = self.run(command, "--left", str(source), "--right", str(source), *order, "--out", str(out))
        assert code == 2
        assert f"does not contain a {expected} series" in capsys.readouterr().err
        assert not out.exists()

    def test_vector_outside_the_lattice_exits_2_with_its_coordinates(self, tmp_path, capsys):
        out = tmp_path / "o.coef"
        assert self.run("theta-jacobi", "--vector", "1,0,0,0,0,0,0,0", "--trunc", "2", "--out", str(out)) == 2
        assert "vector (1, 0, 0, 0, 0, 0, 0, 0) is not in lattice e8" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_lattice_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o.coef"
        assert self.run("theta-jacobi", "--lattice", "d4", "--trunc", "2", "--out", str(out)) == 2
        assert "unknown lattice 'd4'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        code = self.run("bracket-jacobi", "--left", str(tmp_path / "nope.coef"), "--right", str(tmp_path / "nope.coef"), "--v", "0", "--out", str(tmp_path / "o.coef"))
        assert code == 2

    def test_asymmetric_siegel_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.coef"
        bad.write_text("rcforms 1\nkind siegel\nweight 4\ntrunc 2\ncoeff 1 0 2 1/1\nEND\n")
        code = self.run("bracket-siegel", "--left", str(bad), "--right", str(bad), "--l", "0", "--out", str(tmp_path / "o.coef"))
        assert code == 1
        assert "symmetry" in capsys.readouterr().err

    def test_verify_core_suite_passes(self, capsys):
        code = self.run("verify", "--suite", "core", "--trunc", "4", "--siegel-trunc", "2")
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestDeterminism:
    def test_two_processes_write_byte_identical_files(self, tmp_path):
        """Two separate ``python -m rcforms`` runs write the same bytes."""
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"theta_{attempt}.coef"
            result = subprocess.run(
                [sys.executable, "-m", "rcforms", "theta-jacobi", "--trunc", "3", "--out", str(out)],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_repeat_invocation_byte_identity(self, tmp_path, siegel2):
        source = tmp_path / "siegel.coef"
        write_series(source, siegel2)
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"bracket_{attempt}.coef"
            assert main([
                "bracket-siegel", "--left", str(source), "--right", str(source),
                "--l", "2", "--mode", "direct", "--out", str(out),
            ]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
