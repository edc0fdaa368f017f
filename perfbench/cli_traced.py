"""Run one rcforms command with the benchmark's tracer installed.

Usage (from the root of a checkout): python3 perfbench/cli_traced.py SPANS.json ARGS...

Equivalent to ``python -m rcforms ARGS...`` except that it writes the CPU
time spent in ``rcforms.cli.main`` and the recorded spans to SPANS.json.
"""

import json
import sys
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path.cwd() / "src"))

from tracing import Tracer  # noqa: E402  (sibling module; needs the path above)

import rcforms.cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        start = process_time()
        code = rcforms.cli.main(argv)
        main_s = process_time() - start
    finally:
        tracer.restore()
    Path(spans_file).write_text(json.dumps({"main_s": main_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
