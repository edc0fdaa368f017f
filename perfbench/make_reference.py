"""Rebuild reference.json: the output digest of every job any seed can draw.

Run from the root of an rcforms checkout:

    python3 perfbench/make_reference.py [--size full|tiny ...] [--workload NAME ...]

Every output must pass its structural gate before its digest is recorded.
Only rebuild the reference when an output is meant to change; the
benchmark counts any byte change in an output as a failed job.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import run  # noqa: E402  (sibling module)
import workloads  # noqa: E402


def digests(size: str, name: str, workdir: Path) -> dict:
    wl = workloads.WORKLOADS[name](size, Path.cwd(), workdir)
    state = wl.setup()
    out = {}
    for job in wl.universe():
        # a CLI pass is run one command at a time, each gated at once:
        # commands share output file names
        singles = [workloads.Job(cmd.key, "pass", (cmd,)) for cmd in job.args] if name == "cli_pipeline" else [job]
        for single in singles:
            problems, pairs, _ = run.gate_job(wl, state, single, wl.run(state, single), None)
            if problems:
                raise SystemExit(f"{size}/{name}: {problems}")
            for key, digest in pairs:
                if out.setdefault(key, digest) != digest:
                    raise SystemExit(f"{size}/{name}: {key} has two different outputs")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="rebuild perfbench/reference.json")
    parser.add_argument("--size", action="append", choices=("full", "tiny"))
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    workdir = Path.cwd() / ".perfbench_run" / "reference-work"
    try:
        for size in args.size or ["tiny", "full"]:
            for name in args.workload or sorted(workloads.WORKLOADS):
                reference.setdefault(size, {})[name] = digests(size, name, workdir)
                print(f"{size}/{name}: {len(reference[size][name])} outputs", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
