"""Fast self-check of the benchmark: under a minute on two cores.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size, traced and untraced, and checks that
the printed metric names and units are those of ``BENCHMARK.json``, that
the runs are correct, and that no workload but corpus-cli, which makes the
probes of a known fault, has failed operations. Then it breaks ``slice_inc`` so one keep
decision is wrong and checks that the run reports it as a failed operation.
"""

from __future__ import annotations

import json
import sys

import run

TINY = dict(bindings={"synth700": 30, "synth1200": 45, "synth1800": 60},
            corpus=("append", "lcc", "mapsq"),
            corpus_criteria=("eps", "eps + 0", "(0+1)*"),
            inc_per_round=20, queries_per_slice=2)


def expected(key: str) -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[key]}


def main() -> int:
    if not run.bootstrap():
        return 2
    import workloads
    from fslice import slicer

    problems = []
    sizes = workloads.Sizes(**TINY)
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = run.run_workload(name, 7, 0.2, trace, sizes)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = expected("per_layer" if trace else "end_to_end")
            if got != want:
                problems.append(f"{name} trace={trace}: metrics "
                                f"{sorted(set(got) ^ set(want))} differ")
            if not res["correct"]:
                problems.append(f"{name} trace={trace}: not correct")
            if res["failed"] and name != "corpus-cli":
                problems.append(f"{name} trace={trace}: {res['failed']} failed")
            print(f"{name} trace={int(trace)}: attempted {res['attempted']}, "
                  f"failed {res['failed']}", file=sys.stderr)

    real = slicer.slice_inc

    def wrong_keep(p, art, crit):
        res = real(p, art, crit)
        lab = min(res.keep)
        res.keep[lab] = not res.keep[lab]
        return res

    print("selfcheck: injecting a wrong keep map; the failures below are "
          "expected", file=sys.stderr)
    slicer.slice_inc = wrong_keep
    try:
        res = run.run_workload("inc-session", 7, 0.2, False, sizes)
    finally:
        slicer.slice_inc = real
    if res["correct"] or res["failed"] == 0:
        problems.append("a wrong keep map was not reported as failed")

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
