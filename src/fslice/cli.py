"""Command-line interface.

Commands: ``slice`` (one criterion, either pipeline), ``precompute`` (write
the artifact of per-point completing automata), ``query`` (answer point
membership from an artifact), ``firstify`` (lower a higher-order program),
and ``run`` (execute a program, mainly for inspecting residuals).

Exit codes: 0 success, 1 usage or I/O problem, 2 analysis error (parse,
validation, criterion, firstification, or a program or criterion nested too
deeply for the recursive readers), 3 artifact mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .criteria import parse_criterion
from .lang import (FsliceError, all_labels, label_name, parse_label_name,
                   parse_program, print_program, validate)
from .slicer import (ArtifactMismatch, in_slice, load_artifact, precompute,
                     save_artifact, slice_inc, slice_noninc)

USAGE_EXIT, ANALYSIS_EXIT, ARTIFACT_EXIT = 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_program(path: str, *, higher_order: bool = False):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(str(exc)) from exc
    p = parse_program(text)
    validate(p, higher_order=higher_order)
    return p


def _criterion(args) -> object:
    return parse_criterion(
        args.criterion, strict=args.strict,
        notify=lambda msg: print(f"note: {msg}", file=sys.stderr))


def _write_or_print(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_slice(args) -> int:
    p = _load_program(args.program)
    if args.dump_automaton is not None:
        lab = parse_label_name(args.dump_automaton)
        if lab not in all_labels(p):
            raise FsliceError(f"label {label_name(lab)} not in program")
    crit = _criterion(args)
    if args.dump_grammar:
        from .grammar import generate_equations, instantiate
        from .regular import mn_transform
        g = instantiate(generate_equations(p), crit)
        print("; demand grammar", file=sys.stderr)
        print(g.dump(), file=sys.stderr)
        print("; after regular approximation", file=sys.stderr)
        print(mn_transform(g).dump(), file=sys.stderr)
    if args.mode == "inc":
        art = load_artifact(args.artifact) if args.artifact else precompute(p)
        result = slice_inc(p, art, crit)
    else:
        result = slice_noninc(p, crit)
    if args.dump_automaton is not None:
        from .grammar import generate_equations, instantiate, nt_d
        from .regular import CompiledGrammar, canonicalize_nfa
        from .slicer import nfa_to_json
        cg = CompiledGrammar(instantiate(generate_equations(p), crit))
        canon = canonicalize_nfa(cg.nfa(nt_d(lab))).renumbered()
        print(json.dumps(nfa_to_json(canon), sort_keys=True), file=sys.stderr)
    _write_or_print(print_program(result.residual), args.output)
    report = {
        "labels_total": len(result.keep),
        "labels_kept": result.kept_count,
        "per_label": {label_name(k): v for k, v in sorted(result.keep.items())},
    }
    if args.keep_json:
        with open(args.keep_json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        print(f"kept {report['labels_kept']}/{report['labels_total']} labels",
              file=sys.stderr)
    return 0


def _cmd_precompute(args) -> int:
    p = _load_program(args.program)
    art = precompute(p)
    out = args.output or (args.program + ".fsa.json")
    save_artifact(art, out)
    distinct = len({id(m) for m in art.automata.values()})
    print(f"wrote {out} ({len(art.automata)} points, {distinct} distinct "
          f"automata)", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    art = load_artifact(args.artifact)
    crit = _criterion(args)
    if args.labels:
        labels = [parse_label_name(s) for s in args.labels.split(",")]
    else:
        labels = sorted(art.automata)
    answers = {label_name(lab): in_slice(art, lab, crit) for lab in labels}
    print(json.dumps(answers, indent=2, sort_keys=True))
    return 0


def _cmd_firstify(args) -> int:
    from .firstify import firstify
    p = _load_program(args.program, higher_order=True)
    fo, smap = firstify(p)
    # the map names points by label, so its program must carry them
    annotate = args.annotate or bool(args.map)
    _write_or_print(print_program(fo, annotate=annotate), args.output)
    if args.map:
        doc = {label_name(k): [label_name(v) for v in vs]
               for k, vs in sorted(smap.items())}
        with open(args.map, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_run(args) -> int:
    from .interp import run, to_py
    p = _load_program(args.program)
    res = run(p, trace=args.trace)
    if args.trace:
        for line in res.trace:
            print(line, file=sys.stderr)
    print(to_py(res.value, res.heap))
    return 0


def build_parser() -> _Parser:
    ap = _Parser(prog="fslice", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("slice", help="slice a program under one criterion")
    sp.add_argument("program")
    sp.add_argument("--criterion", required=True)
    sp.add_argument("--strict", action="store_true",
                    help="reject criteria that are not prefix-closed")
    sp.add_argument("--mode", choices=["noninc", "inc"], default="noninc")
    sp.add_argument("--artifact",
                    help="stored automata to answer from (inc mode only)")
    sp.add_argument("-o", "--output")
    sp.add_argument("--keep-json")
    sp.add_argument("--dump-grammar", action="store_true")
    sp.add_argument("--dump-automaton", metavar="LABEL")
    sp.set_defaults(fn=_cmd_slice)

    pp = sub.add_parser("precompute", help="write the per-point automata artifact")
    pp.add_argument("program")
    pp.add_argument("-o", "--output")
    pp.set_defaults(fn=_cmd_precompute)

    qp = sub.add_parser("query", help="answer in-slice questions from an artifact")
    qp.add_argument("artifact")
    qp.add_argument("--criterion", required=True)
    qp.add_argument("--strict", action="store_true")
    qp.add_argument("--labels", help="comma-separated labels, e.g. pi1,pi4")
    qp.set_defaults(fn=_cmd_query)

    fp = sub.add_parser("firstify", help="lower a higher-order program")
    fp.add_argument("program")
    fp.add_argument("-o", "--output")
    fp.add_argument("--map", help="write the specialization map as JSON "
                    "(implies --annotate)")
    fp.add_argument("--annotate", action="store_true",
                    help="print labels on the firstified program")
    fp.set_defaults(fn=_cmd_firstify)

    rp = sub.add_parser("run", help="execute a program")
    rp.add_argument("program")
    rp.add_argument("--trace", action="store_true")
    rp.set_defaults(fn=_cmd_run)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"fslice: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ArtifactMismatch as exc:
        print(f"fslice: {exc}", file=sys.stderr)
        return ARTIFACT_EXIT
    except FsliceError as exc:
        print(f"fslice: {exc}", file=sys.stderr)
        return ANALYSIS_EXIT
    except RecursionError:
        # the reader and printer recurse once per nesting level
        print("fslice: program nests too deeply", file=sys.stderr)
        return ANALYSIS_EXIT


if __name__ == "__main__":
    sys.exit(main())
