"""Span tracing installed from outside the rcforms package.

:class:`Tracer` replaces the public functions of every rcforms module, and
the ring operations of the series classes, with wrappers that record one
span per call: (bucket, start, end, parent span, job id, count, and the
start and end including the tracer's own bookkeeping, which the parent's
self time excludes).  Times are CPU seconds.  Every
module-level alias of a wrapped function is rebound as well (for example
``rcforms.jets.bracket_jacobi`` and ``rcforms.brackets.heat_power``), so
nested calls land inside their caller's span.  :meth:`Tracer.restore` puts
every original back.

Spans are kept in memory; :func:`summarize` turns them into per-bucket
inclusive time, self time (span time minus the time of its child spans),
call counts and work counts, and :func:`layer_metrics` names the results.

Per-coefficient scalar helpers (``series.as_rational``,
``seriesio.format_rational``, ``seriesio.parse_rational_token``) are left
unwrapped: they run once per coefficient, and a span each would cost more
than the work it measures.  Their time counts as their caller's self time.
"""

from __future__ import annotations

import functools
import sys
from time import process_time as clock  # CPU time, as the end-to-end metrics

# span fields
BUCKET, START, END, PARENT, JOB, COUNT, OUTER_START, OUTER_END = range(8)

VERIFY_CHECKS = (
    "check_lattice_gates",
    "check_heat_leibniz",
    "check_io_roundtrip",
    "check_bracket_degenerations",
    "check_bracket_outputs",
    "check_coefficient_recursions",
    "check_bracket_rank",
    "check_generating_function_oracle",
    "check_siegel_dual_path",
)

CLI_COMMANDS = ("theta-jacobi", "theta-siegel", "bracket-jacobi", "bracket-siegel", "rank-x")


def _pairs(args, result) -> int:
    """|a| * |b| for a series product; 0 for a scalar product."""
    if result is NotImplemented or not hasattr(args[1], "items"):
        return 0
    return len(args[0].items()) * len(args[1].items())


def _length(args, result) -> int:
    return len(result)


def _failed_checks(args, result) -> int:
    return sum(1 for item in result if not item.passed)


# module -> ((function, bucket, counter), ...); a bucket is a metric prefix
FUNCTIONS = {
    "rcforms.lattices": (
        ("jacobi_theta", "lattices.jacobi_theta", None),
        ("siegel_theta", "lattices.siegel_theta", None),
        ("enumerate_vectors", "lattices.enumerate", _length),
        ("standard_index_vector", "lattices.index_vector", None),
        ("eisenstein_q", "lattices.eisenstein", None),
        ("bernoulli", "lattices.eisenstein", None),
        ("divisor_power_sum", "lattices.eisenstein", None),
    ),
    "rcforms.series": (
        ("theta_q", "series.op", None),
        ("theta_q_elliptic", "series.op", None),
        ("d_z", "series.op", None),
        ("heat", "series.op", None),
        ("heat_power", "series.op", None),
        ("check_parity", "series.check", None),
        ("check_disc_class_invariance", "series.check", None),
    ),
    "rcforms.brackets": (
        ("falling_factorial", "brackets.coeff", None),
        ("coeff_C", "brackets.coeff", None),
        ("coeff_D", "brackets.coeff", None),
        ("bracket_terms", "brackets.coeff", _length),
        ("check_recursions", "brackets.coeff", None),
        ("bracket_jacobi", "brackets.bracket", None),
        ("bracket_jacobi_poly", "brackets.poly", None),
        ("bracket_rank_over_x", "brackets.rank", None),
    ),
    "rcforms.jets": (
        ("jet_of_form", "jets.jet", None),
        ("jet_scale_w", "jets.jet", None),
        ("jet_mul", "jets.jet", None),
        ("jet_odd_combine", "jets.jet", None),
        ("zeta_nu", "jets.jet", None),
        ("crosscheck_bracket", "jets.crosscheck", lambda args, result: int(result is None)),
    ),
    "rcforms.siegel": (
        ("siegel_from_components", "siegel.slice", None),
        ("delta_op", "siegel.delta", None),
        ("bracket_siegel_direct", "siegel.direct", None),
        ("bracket_siegel_via_jacobi", "siegel.via_jacobi", None),
        ("check_siegel_consistency", "siegel.consistency", None),
    ),
    "rcforms.seriesio": (
        ("export_series", "seriesio.export", lambda args, result: len(result.encode("utf-8"))),
        ("write_series", "seriesio.export", None),
        ("import_series", "seriesio.import", lambda args, result: len(args[0].encode("utf-8"))),
        ("read_series", "seriesio.import", None),
        ("parse_fraction_arg", "seriesio.import", None),
    ),
    "rcforms.verify": tuple(
        [(name, f"verify.{name}", _failed_checks) for name in VERIFY_CHECKS]
        + [("run_suite", "verify.run_suite", None)]
    ),
}


def _methods():
    """(class, method, bucket, counter) for the series classes and lattices."""
    from rcforms import lattices, series, siegel

    def split(kinds, product, scale):
        return lambda args: product if isinstance(args[1], kinds) else scale

    series_kinds = (series.JacobiSeries, series.EllipticSeries)
    out = []
    for cls in (series.JacobiSeries, series.EllipticSeries):
        out += [
            (cls, "__mul__", split(series_kinds, "series.mul", "series.scale"), _pairs),
            (cls, "__add__", "series.add", None),
            (cls, "__neg__", "series.scale", None),
        ]
    out += [
        (series.JacobiSeries, "truncated", "series.op", None),
        (series.JacobiSeries, "has_holomorphic_support", "series.check", None),
        (series.JacobiSeries, "has_cusp_support", "series.check", None),
        (series.EllipticSeries, "as_jacobi", "series.op", None),
        (siegel.SiegelSeries, "__mul__", split(siegel.SiegelSeries, "siegel.mul", "siegel.scale"), _pairs),
        (siegel.SiegelSeries, "__add__", "siegel.add", None),
        (siegel.SiegelSeries, "__neg__", "siegel.scale", None),
        (siegel.SiegelSeries, "slice_component", "siegel.slice", None),
        (siegel.SiegelSeries, "components", "siegel.slice", None),
        (siegel.SiegelSeries, "truncated", "siegel.slice", None),
    ]
    for lattice_class in {type(lattice) for lattice in lattices.LATTICES.values()}:
        out.append((lattice_class, "doubled_vectors", "lattices.enumerate", _length))
    return out


class Tracer:
    """Records spans while :attr:`active`; install() patches, restore() undoes."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, bucket, counter):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer_start = clock()
            name = bucket(args) if callable(bucket) else bucket
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, 0, outer_start, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = span[OUTER_END] = clock()
                stack.pop()
            if result is NotImplemented and spans[-1] is span:
                spans.pop()  # Python retries the reflected method, which records its own span
            elif counter is not None:
                span[COUNT] = counter(args, result)
                span[OUTER_END] = clock()
            return result

        return traced

    def install(self) -> None:
        import rcforms  # noqa: F401  (loads every submodule)

        replaced: dict[int, object] = {}
        for module_name, entries in FUNCTIONS.items():
            module = sys.modules[module_name]
            for name, bucket, counter in entries:
                original = getattr(module, name)
                replaced[id(original)] = (original, self._wrap(original, bucket, counter))
        for cls, name, bucket, counter in _methods():
            original = vars(cls)[name]
            self._set(cls, name, self._wrap(original, bucket, counter))
        # rebind every alias of a wrapped function in every rcforms module
        for module_name, module in list(sys.modules.items()):
            if module_name != "rcforms" and not module_name.startswith("rcforms."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None:
                    self._set(module, attr, hit[1])
        # run_suite iterates verify.SUITES, which holds the check functions themselves
        suites = sys.modules["rcforms.verify"].SUITES
        for suite, checks in list(suites.items()):
            wrapped = tuple(replaced.get(id(check), (None, check))[1] for check in checks)
            self._undo.append((suites, suite, checks))
            suites[suite] = wrapped

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per bucket: incl_s, self_s, calls, count, and outer_calls and outer_count.

    ``incl_s``, ``outer_calls`` and ``outer_count`` take only the outermost
    span of a bucket, so a nested call into the same bucket (the Jacobi
    product inside an elliptic-times-Jacobi product) is not counted twice.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[OUTER_END] - span[OUTER_START]
    stats: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(
            span[BUCKET],
            {"incl_s": 0.0, "self_s": 0.0, "calls": 0, "count": 0, "outer_calls": 0, "outer_count": 0},
        )
        duration = span[END] - span[START]
        entry["self_s"] += duration - child[index]
        entry["calls"] += 1
        entry["count"] += span[COUNT]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][BUCKET] != span[BUCKET]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["incl_s"] += duration
            entry["outer_calls"] += 1
            entry["outer_count"] += span[COUNT]
    return stats


def _cli_metric(command: str) -> str:
    return "cli." + command.replace("-", "_") + "_s"


# (metric, unit, bucket, field); fields index the summarize() entries
LAYER_METRICS = (
    [
        ("lattices.jacobi_theta_s", "s", "lattices.jacobi_theta", "incl_s"),
        ("lattices.siegel_theta_s", "s", "lattices.siegel_theta", "incl_s"),
        ("lattices.enumerate_s", "s", "lattices.enumerate", "incl_s"),
        ("lattices.vectors", "count", "lattices.enumerate", "outer_count"),
        ("lattices.eisenstein_s", "s", "lattices.eisenstein", "incl_s"),
        ("series.mul_s", "s", "series.mul", "incl_s"),
        ("series.mul_calls", "count", "series.mul", "outer_calls"),
        ("series.mul_pairs", "count", "series.mul", "outer_count"),
        ("series.add_s", "s", "series.add", "incl_s"),
        ("series.add_calls", "count", "series.add", "calls"),
        ("series.scale_s", "s", "series.scale", "incl_s"),
        ("series.op_s", "s", "series.op", "incl_s"),
        ("series.check_s", "s", "series.check", "incl_s"),
        ("siegel.mul_s", "s", "siegel.mul", "incl_s"),
        ("siegel.mul_pairs", "count", "siegel.mul", "outer_count"),
        ("siegel.add_s", "s", "siegel.add", "incl_s"),
        ("siegel.scale_s", "s", "siegel.scale", "incl_s"),
        ("siegel.delta_s", "s", "siegel.delta", "incl_s"),
        ("siegel.slice_s", "s", "siegel.slice", "incl_s"),
        ("siegel.direct_self_s", "s", "siegel.direct", "self_s"),
        ("siegel.via_jacobi_self_s", "s", "siegel.via_jacobi", "self_s"),
        ("siegel.consistency_s", "s", "siegel.consistency", "incl_s"),
        ("brackets.bracket_self_s", "s", "brackets.bracket", "self_s"),
        ("brackets.bracket_calls", "count", "brackets.bracket", "calls"),
        ("brackets.terms", "count", "brackets.coeff", "count"),
        ("brackets.poly_self_s", "s", "brackets.poly", "self_s"),
        ("brackets.rank_self_s", "s", "brackets.rank", "self_s"),
        ("brackets.coeff_s", "s", "brackets.coeff", "incl_s"),
        ("jets.crosscheck_self_s", "s", "jets.crosscheck", "self_s"),
        ("jets.jet_s", "s", "jets.jet", "incl_s"),
        ("jets.crosscheck_calls", "count", "jets.crosscheck", "calls"),
        ("jets.indeterminate", "count", "jets.crosscheck", "count"),
        ("seriesio.export_s", "s", "seriesio.export", "incl_s"),
        ("seriesio.import_s", "s", "seriesio.import", "incl_s"),
        ("seriesio.bytes_out", "bytes", "seriesio.export", "count"),
        ("seriesio.bytes_in", "bytes", "seriesio.import", "count"),
        ("cli.startup_s", "s", "cli.startup", "incl_s"),
    ]
    + [(_cli_metric(command), "s", f"cli.{command}", "incl_s") for command in CLI_COMMANDS]
    + [(f"verify.{name}_s", "s", f"verify.{name}", "incl_s") for name in VERIFY_CHECKS]
    + [("verify.checks_failed", "count", None, None)]
)

# counts that repeat exactly across runs of one seed (computed, not timed)
EXACT_COUNTS = frozenset(
    [
        "lattices.vectors",
        "series.mul_calls",
        "series.mul_pairs",
        "series.add_calls",
        "siegel.mul_pairs",
        "brackets.bracket_calls",
        "brackets.terms",
        "jets.crosscheck_calls",
        "jets.indeterminate",
        "seriesio.bytes_out",
        "seriesio.bytes_in",
        "series.coeff_bits_max",
        "verify.checks_failed",
    ]
)


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict[str, dict]:
    """Named per-layer metrics from summarize() output."""
    out = {}
    for metric, unit, bucket, field in LAYER_METRICS:
        if bucket is None:  # verify.checks_failed: summed over the nine checks
            value = sum(stats.get(f"verify.{name}", {}).get("count", 0) for name in VERIFY_CHECKS)
        else:
            value = stats.get(bucket, {}).get(field, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
