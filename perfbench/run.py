"""Run one workload of the fslice benchmark and print its result.

    python3 perfbench/run.py --workload inc-session --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not bootstrap():
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), workloads.Sizes())
    print(json.dumps(result))
    return 0


def bootstrap() -> bool:
    """Put the checkout's ``src/`` first on the path and import every
    module the tracer patches. False when this is not a source checkout."""
    src = ROOT / "src"
    missing = [p for p in (src / "fslice", ROOT / "tests" / "corpus")
               if not p.is_dir()]
    if missing:
        print(f"run.py: not a source checkout, missing {missing[0]}",
              file=sys.stderr)
        return False
    sys.path[:0] = [str(src), str(HERE)]
    import fslice.cli  # noqa: F401
    import fslice.firstify  # noqa: F401
    import fslice.gen  # noqa: F401
    import fslice.interp  # noqa: F401
    return True


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes) -> dict:
    import workloads
    OUT.mkdir(exist_ok=True)
    run = workloads.Run(seed, seconds, trace, OUT, sizes)
    try:
        workloads.WORKLOADS[name](run)
        result = run.result()
        if trace:
            run.tracer.write(OUT / f"trace-{name}-seed{seed}.json.gz")
    finally:
        run.close()
    for why in run.books.wrong:
        print(f"FAILED: {why}", file=sys.stderr)
    for why in sorted(set(run.books.known)):
        print(f"known fault: {why}", file=sys.stderr)
    return result


if __name__ == "__main__":
    sys.exit(main())
