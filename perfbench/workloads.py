"""The four benchmark workloads: inputs, one block of jobs, and output gates.

A workload builds its input forms in ``setup`` and then serves jobs one at a
time from a single client (a closed loop, no threads).  Jobs come in
blocks: every block of one workload holds the same multiset of calls, and
the seed only draws the free parameters (x values, orders inside a stratum)
and the order of the jobs.  That keeps medians comparable across seeds.

``check`` is the output gate.  It runs outside the job's timed span and
returns the job's outputs as (reference key, bytes) pairs, which the runner
compares against ``reference.json``, plus a list of structural problems.
Every workload calls the library through module attributes
(``brackets.bracket_jacobi``), so the tracer's rebinding reaches it.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from rcforms import brackets, jets, lattices, series, seriesio, siegel, verify

# small rationals with 1 + m*x != 0 and 1 - m*x != 0 for m in {1, 2}: no
# draw switches bracket terms off, so the cost of a job does not hinge on x
X_VALUES = tuple(Fraction(text) for text in ("0", "2", "-2", "1/3", "-1/3", "3/2", "-3/2", "-2/3"))

SIZES = {
    "verify": {
        "full": {"trunc": 8, "siegel_trunc": 3},
        "tiny": {"trunc": 4, "siegel_trunc": 2},
    },
    "cli_pipeline": {
        "full": {"trunc": 8, "siegel_trunc": 3, "e8e8_trunc": 2, "v_max": 8, "siegel_l_max": 2,
                 "rank_v": [2, 3, 4, 5], "x_values": [str(x) for x in X_VALUES]},
        "tiny": {"trunc": 4, "siegel_trunc": 2, "e8e8_trunc": 1, "v_max": 4, "siegel_l_max": 1,
                 "rank_v": [2, 3], "x_values": [str(x) for x in X_VALUES]},
    },
    "jacobi_scale": {
        "full": {"trunc": 12, "v_max": 8, "x_values": [str(x) for x in X_VALUES],
                 "extras": [["poly", "e4theta,e6theta", 4], ["poly", "theta1,theta2", 7],
                            ["rank", "e4theta,e6theta", 3], ["rank", "theta1,e4theta", 5],
                            ["crosscheck", "theta1,theta2", 2], ["crosscheck", "e4theta,e6theta", 6]]},
        "tiny": {"trunc": 4, "v_max": 4, "x_values": [str(x) for x in X_VALUES],
                 "extras": [["poly", "e4theta,e6theta", 4], ["rank", "theta1,e4theta", 2],
                            ["crosscheck", "theta1,theta2", 3]]},
    },
    "siegel_scale": {
        "full": {"trunc": 4, "l_max": 3},
        "tiny": {"trunc": 2, "l_max": 2},
    },
}

JACOBI_PAIRS = (("theta1", "e4theta"), ("e4theta", "e6theta"), ("theta1", "theta2"), ("theta2", "e6theta"))
CLI_PAIRS = (("theta1", "e4theta"), ("theta1", "theta2"), ("e4theta", "e6theta"))
SIEGEL_PAIRS = (("F", "F"), ("F", "FF"), ("FF", "FF"))
SIEGEL_ROUTES = ("direct", "via_jacobi")

# fixture-size CLI chain: (key, argv with {d} for the work directory, output, fixture file)
FIXTURE_COMMANDS = (
    ("fixture theta-jacobi e8 trunc=4",
     "theta-jacobi --lattice e8 --trunc 4 --out {d}/fx_theta.coef", "fx_theta.coef", "theta_e8_v2_n4.coef"),
    ("fixture bracket-jacobi theta,theta x=0 v=2",
     "bracket-jacobi --left {d}/fx_theta.coef --right {d}/fx_theta.coef --x=0 --v 2 --out {d}/fx_bracket.coef",
     "fx_bracket.coef", "bracket_theta_theta_v2_x0_n4.coef"),
    ("fixture theta-siegel e8 trunc=2",
     "theta-siegel --lattice e8 --trunc 2 --out {d}/fx_siegel.coef", "fx_siegel.coef", "theta_siegel_e8_t2.coef"),
    ("fixture bracket-siegel l=1",
     "bracket-siegel --left {d}/fx_siegel.coef --right {d}/fx_siegel.coef --l 1 --mode direct --out {d}/fx_sb.coef",
     "fx_sb.coef", "bracket_siegel_l1_t2.coef"),
)


@dataclass(frozen=True)
class Job:
    key: str
    call: str
    args: tuple = ()


@dataclass
class Gate:
    outputs: list = field(default_factory=list)  # (reference key, bytes)
    problems: list = field(default_factory=list)
    coeff_bits: int = 0


def coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length in a series (or list of them)."""
    if isinstance(obj, (list, tuple)):
        return max((coeff_bits(part) for part in obj), default=0)
    return max(
        (max(value.numerator.bit_length(), value.denominator.bit_length()) for _, value in obj.items()),
        default=0,
    )


def export(obj) -> bytes:
    return seriesio.export_series(obj).encode("utf-8")


def jacobi_problems(where: str, f, g, v: int, out) -> list[str]:
    """Bookkeeping, holomorphic/cusp support, parity and disc-class checks."""
    if out.weight != f.weight + g.weight + v or out.index != f.index + g.index:
        return [f"{where}: weight/index bookkeeping"]
    if not out.has_holomorphic_support():
        return [f"{where}: holomorphic support"]
    if v > 1 and not out.has_cusp_support():
        return [f"{where}: cusp support"]
    if not series.check_parity(out):
        return [f"{where}: parity"]
    ok, witness = series.check_disc_class_invariance(out)
    return [] if ok else [f"{where}: disc-class {witness}"]


def build_jacobi_forms(trunc: int) -> dict:
    theta1 = lattices.jacobi_theta(lattices.E8, lattices.E8_INDEX1_VECTOR, trunc)
    theta2 = lattices.jacobi_theta(lattices.E8, lattices.standard_index_vector(lattices.E8, 2), trunc)
    return {
        "theta1": theta1,
        "theta2": theta2,
        "e4theta": lattices.eisenstein_q(4, trunc) * theta1,
        "e6theta": lattices.eisenstein_q(6, trunc) * theta1,
    }


class Workload:
    name = ""

    def __init__(self, size: str, root: Path, workdir: Path):
        self.size = size
        self.params = SIZES[self.name][size]
        self.root = root
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def block(self, rng) -> list[Job]:
        raise NotImplementedError

    def universe(self) -> list[Job]:
        """Every job any seed can draw, for building reference.json."""
        raise NotImplementedError

    def run(self, state, job: Job, tracer=None):
        raise NotImplementedError

    def check(self, state, job: Job, out) -> Gate:
        raise NotImplementedError


class VerifyWorkload(Workload):
    name = "verify"

    def setup(self):
        """A stand-in: build and force the FormSet a job builds, then drop it.

        No job uses it, because each job builds a fresh one as the CLI does;
        ``setup_s`` thus times the form generation inside every verify job.
        """
        forms = verify.FormSet(self.params["trunc"], self.params["siegel_trunc"])
        for name in ("theta", "e4", "e6", "e4_theta", "e6_theta", "theta_index2", "siegel_theta"):
            getattr(forms, name)
        return None

    def _job(self) -> Job:
        return Job(f"verify all trunc={self.params['trunc']} siegel_trunc={self.params['siegel_trunc']}", "verify")

    def block(self, rng):
        return [self._job()]

    def universe(self):
        return [self._job()]

    def run(self, state, job, tracer=None):
        # a fresh FormSet, as the CLI builds one per invocation
        return verify.run_suite("all", verify.FormSet(self.params["trunc"], self.params["siegel_trunc"]))

    def check(self, state, job, out):
        text = "\n".join(result.describe() for result in out) + "\n"
        problems = [f"check failed: {result.describe()}" for result in out if not result.passed]
        return Gate([(job.key, text.encode("utf-8"))], problems)


class JacobiScale(Workload):
    name = "jacobi_scale"

    def setup(self):
        return build_jacobi_forms(self.params["trunc"])

    def _job(self, call: str, pair: tuple, v: int, x: Fraction | None = None) -> Job:
        key = f"{call} {pair[0]},{pair[1]} v={v}" + ("" if x is None else f" x={x}")
        return Job(key, call, (pair, v, x))

    def _extras(self):
        for call, pair, v in self.params["extras"]:
            yield call, tuple(pair.split(",")), v

    def block(self, rng):
        xs = [Fraction(text) for text in self.params["x_values"]]
        grid = [(pair, v) for pair in JACOBI_PAIRS for v in range(self.params["v_max"] + 1)]
        # every x value equally often per block; the seed decides which job gets which
        draws = [xs[i % len(xs)] for i in range(len(grid))]
        rng.shuffle(draws)
        jobs = [self._job("bracket", pair, v, x) for (pair, v), x in zip(grid, draws)]
        for call, pair, v in self._extras():
            jobs.append(self._job(call, pair, v, rng.choice(xs) if call == "crosscheck" else None))
        rng.shuffle(jobs)
        return jobs

    def universe(self):
        xs = [Fraction(text) for text in self.params["x_values"]]
        jobs = [
            self._job("bracket", pair, v, x)
            for pair in JACOBI_PAIRS
            for v in range(self.params["v_max"] + 1)
            for x in xs
        ]
        for call, pair, v in self._extras():
            jobs += [self._job(call, pair, v, x) for x in (xs if call == "crosscheck" else [None])]
        return jobs

    def run(self, state, job, tracer=None):
        (a, b), v, x = job.args
        f, g = state[a], state[b]
        if job.call == "bracket":
            return brackets.bracket_jacobi(f, g, x, v)
        if job.call == "poly":
            return brackets.bracket_jacobi_poly(f, g, v)
        if job.call == "rank":
            return brackets.bracket_rank_over_x(f, g, v)
        if job.call == "crosscheck":
            return jets.crosscheck_bracket(f, g, x, v)
        raise ValueError(f"unknown call {job.call}")

    def check(self, state, job, out):
        (a, b), v, x = job.args
        f, g = state[a], state[b]
        if job.call == "bracket":
            return Gate([(job.key, export(out))], jacobi_problems(job.key, f, g, v, out), coeff_bits(out))
        if job.call == "poly":
            problems = [] if len(out) == v // 2 + 1 else [f"{job.key}: {len(out)} x-coefficients"]
            return Gate([(job.key, b"".join(export(part) for part in out))], problems, coeff_bits(out))
        if job.call == "rank":
            problems = [] if 0 <= out <= v // 2 + 1 else [f"{job.key}: rank {out} above bound {v // 2 + 1}"]
            return Gate([(job.key, str(out).encode())], problems)
        problems = [] if out != 0 else [f"{job.key}: zero scalar"]
        return Gate([(job.key, repr(out).encode())], problems)


class SiegelScale(Workload):
    name = "siegel_scale"

    def setup(self):
        F = lattices.siegel_theta(lattices.E8, self.params["trunc"])
        self.seen = {}  # key -> output bytes; every block runs both routes of each key
        return {"F": F, "FF": F * F}

    def universe(self):
        return [
            Job(f"siegel {a},{b} l={l}", route, ((a, b), l))
            for a, b in SIEGEL_PAIRS
            for l in range(self.params["l_max"] + 1)
            for route in SIEGEL_ROUTES
        ]

    def block(self, rng):
        # job cost grows in steps with l; listing the two highest orders twice
        # puts the median in the middle of the l = l_max - 1 step, far from
        # the gaps between steps
        jobs = self.universe()
        jobs += [job for job in jobs if job.args[1] >= self.params["l_max"] - 1]
        rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _route(name):
        return siegel.bracket_siegel_direct if name == "direct" else siegel.bracket_siegel_via_jacobi

    def run(self, state, job, tracer=None):
        (a, b), l = job.args
        return self._route(job.call)(state[a], state[b], l)

    def check(self, state, job, out):
        (a, b), l = job.args
        data = export(out)
        problems = []
        if self.seen.setdefault(job.key, data) != data:
            problems.append(f"{job.key}: direct and sliced routes differ")
        if out.weight != state[a].weight + state[b].weight + 2 * l:
            problems.append(f"{job.key}: weight {out.weight}")
        if l > 0 and (not out.slice_component(0).is_zero() or any(key[0] == 0 for key in out.support())):
            problems.append(f"{job.key}: boundary slices not zero")
        report = siegel.check_siegel_consistency(out)
        if not report.passed:
            problems.append(f"{job.key}: {report.failures()[0].describe()}")
        return Gate([(job.key, data)], problems, coeff_bits(out))


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple
    out: str | None  # output file name in the work directory; None: stdout is the output
    fixture: str | None = None


class CliPipeline(Workload):
    name = "cli_pipeline"

    INPUTS = ("theta1", "theta2", "e4theta", "e6theta")

    def setup(self):
        p = self.params
        self.workdir.mkdir(parents=True, exist_ok=True)
        forms = build_jacobi_forms(p["trunc"])
        forms["siegel"] = lattices.siegel_theta(lattices.E8, p["siegel_trunc"])
        exports = {}
        for name, form in forms.items():
            exports[name] = export(form)
            (self.workdir / f"in_{name}.coef").write_bytes(exports[name])
        return exports

    def _cmd(self, key: str, argv: str, out: str | None, fixture: str | None = None) -> Command:
        return Command(key, tuple(argv.format(d=self.workdir).split()), out, fixture)

    def _fixed(self) -> list[Command]:
        p = self.params
        t, st = p["trunc"], p["siegel_trunc"]
        cmds = [
            self._cmd(f"theta-jacobi e8 index=1 trunc={t}",
                      f"theta-jacobi --lattice e8 --half-norm-index 1 --trunc {t} --out {{d}}/theta1.coef", "theta1.coef"),
            self._cmd(f"theta-jacobi e8 index=2 trunc={t}",
                      f"theta-jacobi --lattice e8 --half-norm-index 2 --trunc {t} --out {{d}}/theta2.coef", "theta2.coef"),
            self._cmd(f"theta-jacobi e8e8 index=1 trunc={p['e8e8_trunc']}",
                      f"theta-jacobi --lattice e8e8 --trunc {p['e8e8_trunc']} --out {{d}}/theta_e8e8.coef",
                      "theta_e8e8.coef"),
            self._cmd(f"theta-siegel e8 trunc={st}",
                      f"theta-siegel --lattice e8 --trunc {st} --out {{d}}/siegel.coef", "siegel.coef"),
        ]
        return cmds + [self._cmd(*entry) for entry in FIXTURE_COMMANDS]

    def _bracket(self, pair, v, x) -> Command:
        return self._cmd(
            f"bracket-jacobi {pair[0]},{pair[1]} v={v} x={x}",
            f"bracket-jacobi --left {{d}}/in_{pair[0]}.coef --right {{d}}/in_{pair[1]}.coef --x={x} --v {v}"
            f" --out {{d}}/bj_{pair[0]}_{pair[1]}.coef",
            f"bj_{pair[0]}_{pair[1]}.coef",
        )

    def _siegel(self, l, mode) -> Command:
        return self._cmd(
            f"bracket-siegel l={l}",
            f"bracket-siegel --left {{d}}/in_siegel.coef --right {{d}}/in_siegel.coef --l {l} --mode {mode}"
            f" --out {{d}}/bs_{mode}.coef",
            f"bs_{mode}.coef",
        )

    def _rank(self, v) -> Command:
        return self._cmd(f"rank-x e4theta,e6theta v={v}",
                         f"rank-x --left {{d}}/in_e4theta.coef --right {{d}}/in_e6theta.coef --v {v}", None)

    def block(self, rng):
        p = self.params
        orders = list(range(p["v_max"] + 1))
        strata = [orders[i * len(orders) // 3 : (i + 1) * len(orders) // 3] for i in range(3)]
        pairs = list(CLI_PAIRS)
        rng.shuffle(pairs)
        cmds = self._fixed()
        cmds += [self._bracket(pair, rng.choice(stratum), rng.choice(p["x_values"]))
                 for pair, stratum in zip(pairs, strata)]
        l = rng.randrange(p["siegel_l_max"] + 1)
        cmds += [self._siegel(l, "direct"), self._siegel(l, "jacobi"), self._rank(rng.choice(p["rank_v"]))]
        return [Job("cli pass", "pass", tuple(cmds))]

    def universe(self):
        p = self.params
        cmds = self._fixed()
        cmds += [self._bracket(pair, v, x) for pair in CLI_PAIRS for v in range(p["v_max"] + 1) for x in p["x_values"]]
        cmds += [self._siegel(l, "direct") for l in range(p["siegel_l_max"] + 1)]
        cmds += [self._rank(v) for v in p["rank_v"]]
        return [Job("cli pass", "pass", tuple(cmds))]

    def run(self, state, job, tracer=None):
        """Run every command as its own process; returns (command, code, stdout, stderr, cpu, spans)."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        results = []
        for index, cmd in enumerate(job.args):
            spans_file = self.workdir / f"spans_{index}.json"
            if tracer is None:
                prefix = [sys.executable, "-m", "rcforms"]
            else:
                prefix = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(spans_file)]
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            proc = subprocess.run(prefix + list(cmd.argv), cwd=self.root, env=env, capture_output=True, timeout=120)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            results.append((cmd, proc.returncode, proc.stdout, proc.stderr, cpu, spans_file if tracer else None))
        return results

    def check(self, state, job, out):
        gate = Gate()
        produced = {}
        for cmd, code, stdout, stderr, _, _ in out:
            if code != 0:
                gate.problems.append(f"{cmd.key}: exit {code}: {stderr.decode(errors='replace').strip()[-200:]}")
                continue
            data = stdout if cmd.out is None else (self.workdir / cmd.out).read_bytes()
            produced[cmd.out or cmd.key] = data
            gate.outputs.append((cmd.key, data))
            if cmd.fixture and data != (self.root / "tests" / "fixtures" / cmd.fixture).read_bytes():
                gate.problems.append(f"{cmd.key}: differs from tests/fixtures/{cmd.fixture}")
            if cmd.out is None:
                v = int(cmd.key.rsplit("v=", 1)[1])
                if not 0 <= int(data) <= v // 2 + 1:
                    gate.problems.append(f"{cmd.key}: rank {int(data)} above bound {v // 2 + 1}")
        for name in ("theta1", "theta2", "siegel"):
            if produced.get(f"{name}.coef", state[name]) != state[name]:
                gate.problems.append(f"{name}: CLI output differs from the in-process export")
        direct, sliced = produced.get("bs_direct.coef"), produced.get("bs_jacobi.coef")
        if direct is not None and sliced is not None and direct != sliced:
            gate.problems.append("bracket-siegel: --mode direct and --mode jacobi files differ")
        return gate


WORKLOADS = {cls.name: cls for cls in (VerifyWorkload, CliPipeline, JacobiScale, SiegelScale)}
