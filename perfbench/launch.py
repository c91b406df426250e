"""Run one chemhill CLI command in this process and record its timings.

usage: python3 perfbench/launch.py TIMING_JSON RUN_ID TRACE -- CLI_ARGS...

With TRACE 0 the only instrumentation is a timestamp pair around every
``chemhill.scheme.step`` call. With TRACE 1 the spans of ``tracing.Tracer``
replace it. Either way TIMING_JSON is written once, after the command
returns, and the process exits with the command's status.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    timing_path, run_id, traced, sep, *cli_args = sys.argv[1:]
    if sep != "--" or traced not in ("0", "1"):
        sys.exit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))
    if traced == "1":
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.call("package.import", __import__, "chemhill.cli")
        tracer.instrument()
        import chemhill.cli as cli

        try:
            code = cli.main(cli_args)
        finally:
            tracer.dump(timing_path)
        return code

    import chemhill.cli as cli
    import chemhill.scheme as scheme

    steps = []
    inner = scheme.step

    def timed_step(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            steps.append((start, time.perf_counter()))

    scheme.step = timed_step
    try:
        code = cli.main(cli_args)
    finally:
        Path(timing_path).write_text(json.dumps({"run_id": run_id, "steps": steps}))
    return code


if __name__ == "__main__":
    sys.exit(main())
