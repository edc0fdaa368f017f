"""rcforms benchmark.

Run from the root of an rcforms checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify, cli_pipeline, jacobi_scale, siegel_scale (see README.md).

With ``--trace 0`` it builds the workload's inputs several times (the median
is ``setup_s``), then runs whole blocks of jobs from a single client until
the summed job time reaches ``--seconds``.  Every job's
output is gated outside its timed span and compared byte for byte, by
digest, with ``reference.json``.  With ``--trace 1`` it sets up and runs one
block with no tracer installed, then sets up under the tracer and runs the
same block traced, and reports the per-module metrics and the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with sample counts and the run context.  A full
record, and in traced runs the spans, go to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
P90_MIN_JOBS = 100  # ten samples beyond the 90th percentile

END_TO_END = (
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Record:
    key: str
    seconds: float  # CPU time, see cpu_seconds()
    wall: float
    problems: list
    digests: list
    coeff_bits: int


def cpu_seconds() -> float:
    """CPU time of this process and of its finished children.

    Jobs are timed in CPU time, not wall time: on a shared virtual machine
    the wall clock also counts the time the host runs other guests (steal
    time).  For these single-threaded, CPU-bound jobs the two agree on an
    idle machine, and only the CPU time is steady on a busy one.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(size: str, workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[size][workload]


def gate_job(wl, state, job, out, reference: dict | None):
    """Gate one output; returns (problems, digests, coeff_bits)."""
    try:
        gate = wl.check(state, job, out)
    except Exception as exc:  # a gate that cannot run fails the job
        return [f"{job.key}: gate raised {type(exc).__name__}: {exc}"], [], 0
    problems = list(gate.problems)
    digests = []
    for key, data in gate.outputs:
        digest = sha256(data)
        digests.append((key, digest))
        if reference is not None and reference.get(key) != digest:
            expected = reference.get(key, "no reference")
            problems.append(f"{key}: output digest {digest[:12]} != {expected[:12]}")
    return problems, digests, gate.coeff_bits


def run_block(wl, state, jobs, reference, tracer=None) -> list[Record]:
    """Run a block's jobs back to back, then gate every output.

    Gating between jobs puts the gates' allocations between the timed spans.
    In one in-process test on siegel_scale, three identical 30-job blocks
    took 2.7-3.4 CPU s with a gate after each job and 2.3-2.6 s back to back.
    """
    done = []
    for job_id, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job_id
            tracer.active = True
        start, start_wall = cpu_seconds(), perf_counter()
        try:
            out = wl.run(state, job, tracer)
            error = None
        except Exception as exc:  # a job that raises is a failed job, not a crashed run
            out, error = None, f"{job.key}: raised {type(exc).__name__}: {exc}"
        seconds, wall = cpu_seconds() - start, perf_counter() - start_wall
        if tracer is not None:
            tracer.active = False
            if wl.name == "cli_pipeline" and out is not None:
                merge_cli_spans(tracer, out, job_id)
        done.append((job, out, error, seconds, wall))
    records = []
    for job, out, error, seconds, wall in done:
        if error is not None:
            records.append(Record(job.key, seconds, wall, [error], [], 0))
        else:
            records.append(Record(job.key, seconds, wall, *gate_job(wl, state, job, out, reference)))
    return records


def merge_cli_spans(tracer, results, job_id: int) -> None:
    """Adopt the spans each traced child process wrote, under cli.* spans."""
    import tracing

    for cmd, _, _, _, cpu, spans_file in results:
        if spans_file is None or not spans_file.exists():
            continue
        child = json.loads(spans_file.read_text())
        main_s = child["main_s"]
        command = cmd.argv[0]
        tracer.spans.append(["cli.startup", 0.0, cpu - main_s, -1, job_id, 0, 0.0, cpu - main_s])
        parent = len(tracer.spans)
        tracer.spans.append([f"cli.{command}", 0.0, main_s, -1, job_id, 0, 0.0, main_s])
        offset = len(tracer.spans)
        for span in child["spans"]:
            span[tracing.PARENT] = parent if span[tracing.PARENT] < 0 else span[tracing.PARENT] + offset
            span[tracing.JOB] = job_id
            tracer.spans.append(span)
        spans_file.unlink()


def run_blocks(wl, state, rng, seconds: float, reference) -> list[Record]:
    """Whole blocks until the summed job time reaches `seconds`."""
    records: list[Record] = []
    measured = 0.0
    while measured < seconds:
        block = run_block(wl, state, wl.block(rng), reference)
        records += block
        measured += sum(record.seconds for record in block)
    return records


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_context(root: Path, args, wl) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "rcforms").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": wl.params,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def untraced(wl, rng, seconds, reference) -> tuple[dict, list[Record], list[str]]:
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        start = cpu_seconds()
        state = wl.setup()
        setups.append(cpu_seconds() - start)
    start = perf_counter()
    records = run_blocks(wl, state, rng, seconds, reference)
    phase_s = perf_counter() - start
    times = sorted(record.seconds for record in records)
    walls = [record.wall for record in records]
    n = len(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s.p50": statistics.median(times),
        "jobs_per_s": n / sum(times),
        "peak_rss_mb": peak_rss_mb(wl.name),
    }
    failed = sum(1 for record in records if record.problems)
    p90 = statistics.quantiles(times, n=10)[8] if n >= P90_MIN_JOBS else None
    report = [
        f"setup_s      {metrics['setup_s']:.4f} s    median of {SETUP_REPEATS} setups "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"job_s.p50    {metrics['job_s.p50']:.4f} s    n={n} jobs",
        f"job_s.p90    {p90:.4f} s    n={n} jobs" if p90 is not None
        else f"job_s.p90    undefined     n={n} jobs (needs >= {P90_MIN_JOBS})",
        f"jobs_per_s   {metrics['jobs_per_s']:.4f} 1/s  over {sum(times):.3f} CPU s of jobs"
        f" ({sum(walls):.3f} s wall; {phase_s:.3f} s wall with the output gates)",
        f"job wall     p50 {statistics.median(walls):.4f} s  (for reference; the metrics use CPU time)",
        f"fail_ratio   {failed / n:.4f}         {failed}/{n} jobs failed",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB"
        + ("   (largest child process)" if wl.name == "cli_pipeline" else ""),
    ]
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, records, report


def traced(wl, rng, reference, out_dir: Path) -> tuple[dict, list[Record], list[str]]:
    import tracing

    # the baseline runs before install(), so it passes through no wrapper
    jobs = wl.block(rng)
    plain = run_block(wl, wl.setup(), jobs, reference)
    gc.collect()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = -1
        tracer.active = True
        state = wl.setup()
        tracer.active = False
        spanned = run_block(wl, state, jobs, reference, tracer)
    finally:
        tracer.restore()
    with open(out_dir / f"spans-{wl.name}.jsonl", "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    metrics = tracing.layer_metrics(tracing.summarize(tracer.spans))
    overhead = sum(r.seconds for r in spanned) - sum(r.seconds for r in plain)
    metrics["series.coeff_bits_max"] = {"value": max((r.coeff_bits for r in spanned), default=0), "unit": "bits"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    digest_plain = sha256(json.dumps([r.digests for r in plain]).encode())
    digest_traced = sha256(json.dumps([r.digests for r in spanned]).encode())
    records = plain + spanned
    if digest_plain != digest_traced:
        records[-1].problems.append("traced outputs differ from untraced outputs")
    report = [
        f"trace: one block of {len(jobs)} jobs, untraced {sum(r.seconds for r in plain):.4f} s, "
        f"traced {sum(r.seconds for r in spanned):.4f} s, overhead {overhead:.4f} s, {len(tracer.spans)} spans",
        f"output digest untraced {digest_plain[:16]} traced {digest_traced[:16]}",
    ]
    for name in sorted(metrics):
        exact = "  (exact count)" if name in tracing.EXACT_COUNTS else ""
        report.append(f"{name:<44} {metrics[name]['value']!r} {metrics[name]['unit']}{exact}")
    return metrics, records, report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "cli_pipeline", "jacobi_scale", "siegel_scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rcforms" / "__init__.py").is_file():
        print("perfbench: src/rcforms not found; run from the root of an rcforms checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        print("perfbench: src/ does not compile", file=sys.stderr)
        return 2
    import workloads

    out_dir = root / ".perfbench_run"
    workdir = out_dir / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.size, root, workdir)
    reference = load_reference(args.size, args.workload)
    context = run_context(root, args, wl)
    rng = random.Random(args.seed)
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, records, report = traced(wl, rng, reference, out_dir)
        else:
            metrics, records, report = untraced(wl, rng, args.seconds, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [record for record in records if record.problems]
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed), "metrics": metrics}
    record_file = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(
        {"context": context, "result": result, "report": report,
         "jobs": [{"key": r.key, "seconds": r.seconds, "problems": r.problems} for r in records]},
        indent=1,
    ))
    print(f"# perfbench {json.dumps(context, sort_keys=True)}")
    for line in report:
        print(line)
    for record in failed[:10]:
        print(f"FAILED {record.key}: {'; '.join(record.problems)[:300]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
