"""One set-up, timed inside a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG [CONFIG ...]

Imports the engine, then loads, builds and validates each problem file, and
prints the elapsed seconds.  The engine must be importable (the benchmark
puts the checkout's ``src`` on PYTHONPATH).
"""

import sys
import time


def main(paths):
    start = time.perf_counter()
    from defect_bands import cli, model

    for path in paths:
        spec, _ = cli.spec_from_config(cli.load_config(path))
        report = model.validate(spec)
        if not report.ok:
            print(f"invalid problem {path}: {report.first}", file=sys.stderr)
            return 1
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
