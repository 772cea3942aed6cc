"""Timing, tracing and bookkeeping shared by the workloads.

The tracer records spans from outside the program: it replaces each traced
fslice function, at every module attribute that names it, with a wrapper
that records a span (name, start, end, parent) and, for some calls, counts
read off the returned object. Nothing under ``src/`` is changed; the
original functions are put back when the tracer is removed.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter

# Layers whose time is "front end" when a pipeline's own remainder is taken:
# ``slicer.precompute_rest_s`` and ``slicer.noninc_rest_ms`` are the span's
# duration minus its direct children in these layers.
FRONT_END = ("lang", "criteria", "grammar", "regular")


def _edge_count(m) -> int:
    return sum(len(dsts) for by_sym in m.trans.values()
               for dsts in by_sym.values())


def _completing_counts(art) -> dict:
    return {"completing_states": sum(m.n for m in art.automata.values()),
            "completing_edges": sum(_edge_count(m)
                                    for m in art.automata.values())}


# (module, attribute, counts read off the result or None)
TARGETS = [
    ("lang", "parse_program", None),
    ("lang", "validate", None),
    ("lang", "all_labels", None),
    ("lang", "print_program", None),
    ("criteria", "parse_criterion", None),
    ("criteria", "validate_criterion", None),
    ("grammar", "generate_equations",
     lambda g: {"productions": len(g.productions)}),
    ("grammar", "instantiate", None),
    ("regular", "mn_transform",
     lambda g: {"mn_productions": len(g.productions)}),
    ("regular", "CompiledGrammar",
     lambda cg: {"nfa_states": cg.aut.n, "nfa_edges": _edge_count(cg.aut)}),
    ("regular", "cancel_pairs", lambda pairs: {"cancel_pairs": len(pairs)}),
    ("slicer", "precompute", _completing_counts),
    ("slicer", "slice_noninc", None),
    ("slicer", "slice_inc", None),
    ("slicer", "in_slice", None),
    ("slicer", "extract_residual", None),
    ("slicer", "fingerprint", None),
    ("slicer", "save_artifact", None),
    ("slicer", "load_artifact", None),
    ("firstify", "firstify", None),
    ("firstify", "map_back", None),
    ("interp", "run", None),
]

# Per-layer metric -> (span name, statistic, scale, unit). ``self`` is the
# mean self time per call, ``total`` the mean duration with the children,
# ``rest`` the mean duration minus front-end children, and a count name is
# the largest value of that count over the calls: the workload's largest
# program, whatever the number of rounds.
PER_LAYER = {
    "lang.parse_ms": ("lang.parse_program", "self", 1e3, "ms"),
    "lang.validate_ms": ("lang.validate", "self", 1e3, "ms"),
    "lang.all_labels_ms": ("lang.all_labels", "self", 1e3, "ms"),
    "lang.print_program_ms": ("lang.print_program", "self", 1e3, "ms"),
    "criteria.parse_ms": ("criteria.parse_criterion", "self", 1e3, "ms"),
    "criteria.validate_ms": ("criteria.validate_criterion", "self", 1e3, "ms"),
    "grammar.generate_equations_ms":
        ("grammar.generate_equations", "self", 1e3, "ms"),
    "grammar.instantiate_ms": ("grammar.instantiate", "self", 1e3, "ms"),
    "grammar.productions": ("grammar.generate_equations", "productions", 1, "count"),
    "regular.mn_transform_ms": ("regular.mn_transform", "self", 1e3, "ms"),
    "regular.mn_productions": ("regular.mn_transform", "mn_productions", 1, "count"),
    "regular.compile_ms": ("regular.CompiledGrammar", "self", 1e3, "ms"),
    "regular.nfa_states": ("regular.CompiledGrammar", "nfa_states", 1, "count"),
    "regular.nfa_edges": ("regular.CompiledGrammar", "nfa_edges", 1, "count"),
    "regular.cancel_pairs_ms": ("regular.cancel_pairs", "self", 1e3, "ms"),
    "regular.cancel_pairs": ("regular.cancel_pairs", "cancel_pairs", 1, "count"),
    "slicer.precompute_rest_s": ("slicer.precompute", "rest", 1, "s"),
    "slicer.noninc_rest_ms": ("slicer.slice_noninc", "rest", 1e3, "ms"),
    "slicer.in_slice_us": ("slicer.in_slice", "self", 1e6, "us"),
    # fingerprint prints the whole program and hashes the text; the
    # printing is most of it, so the metric keeps its child span.
    "slicer.fingerprint_ms": ("slicer.fingerprint", "total", 1e3, "ms"),
    "slicer.extract_residual_ms": ("slicer.extract_residual", "self", 1e3, "ms"),
    "slicer.save_artifact_ms": ("slicer.save_artifact", "self", 1e3, "ms"),
    "slicer.load_artifact_ms": ("slicer.load_artifact", "self", 1e3, "ms"),
    "slicer.completing_states":
        ("slicer.precompute", "completing_states", 1, "count"),
    "slicer.completing_edges":
        ("slicer.precompute", "completing_edges", 1, "count"),
    "firstify.firstify_ms": ("firstify.firstify", "self", 1e3, "ms"),
    "firstify.map_back_ms": ("firstify.map_back", "self", 1e3, "ms"),
    "interp.run_ms": ("interp.run", "self", 1e3, "ms"),
    "cli.precompute_ms": ("cli.precompute", "self", 1e3, "ms"),
    "cli.query_ms": ("cli.query", "self", 1e3, "ms"),
    "cli.slice_inc_ms": ("cli.slice_inc", "self", 1e3, "ms"),
    "cli.slice_noninc_ms": ("cli.slice_noninc", "self", 1e3, "ms"),
    "cli.firstify_ms": ("cli.firstify", "self", 1e3, "ms"),
    "cli.run_ms": ("cli.run", "self", 1e3, "ms"),
}
OVERHEAD_METRIC = "trace.overhead_pct"

# Span record fields.
NAME, START, END, PARENT, CHILD, FRONT, COUNTS, ASIDE = range(8)


class Tracer:
    """In-memory span recorder; inert until ``start`` is called."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, name, original, wrapper)
        self.installed = False
        self.enabled = False
        self._flip = False
        self._aside = False
        self.plain_s = 0.0
        self.traced_s = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.installed:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, clock(), 0.0, parent, 0.0, 0.0, None, self._aside]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = clock()
            self._stack.pop()
            if parent >= 0:
                dur = rec[END] - rec[START]
                up = self.spans[parent]
                up[CHILD] += dur
                if name.split(".", 1)[0] in FRONT_END:
                    up[FRONT] += dur

    @contextlib.contextmanager
    def aside(self):
        """Spans recorded here, the calls the checks make, count for a
        layer only when the workload's own calls do not reach it; they
        would otherwise dilute or swell the workload's means."""
        was, self._aside = self._aside, True
        try:
            yield
        finally:
            self._aside = was

    def _wrap(self, name: str, fn, counts):
        def traced(*args, **kwargs):
            with self.span(name):
                rec = self.spans[self._stack[-1]]
                out = fn(*args, **kwargs)
            if counts is not None:
                rec[COUNTS] = counts(out)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every fslice module attribute bound to a traced function."""
        if not self._patches:
            mods = [m for n, m in sorted(sys.modules.items())
                    if n == "fslice" or n.startswith("fslice.")]
            for modname, attr, counts in TARGETS:
                orig = getattr(sys.modules[f"fslice.{modname}"], attr)
                wrapper = self._wrap(f"{modname}.{attr}", orig, counts)
                self._patches += [(mod, key, orig, wrapper) for mod in mods
                                  for key, val in vars(mod).items()
                                  if val is orig]
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)
        self.installed = True

    def start(self) -> None:
        """Trace from now on; every fslice module must be imported."""
        self.enabled = True
        self.install()

    def remove(self) -> None:
        for mod, key, orig, _ in self._patches:
            setattr(mod, key, orig)
        self.installed = False

    def measure(self, fn):
        """Run ``fn`` and time it; returns the result and the seconds.

        In a traced run ``fn`` runs twice, untraced and traced, alternating
        which goes first. The untraced time is returned, the traced result
        is kept, and the two times feed the tracing overhead.
        """
        if not self.enabled:
            t0 = clock()
            out = fn()
            return out, clock() - t0
        self._flip = not self._flip
        times = {}
        for traced in ((False, True) if self._flip else (True, False)):
            if not traced:
                self.remove()
            t0 = clock()
            res = fn()
            times[traced] = clock() - t0
            if traced:
                out = res
            else:
                self.install()
        self.plain_s += times[False]
        self.traced_s += times[True]
        return out, times[False]

    def per_layer(self) -> dict:
        groups: dict[str, list[list]] = {}
        for rec in self.spans:
            groups.setdefault(rec[NAME], []).append(rec)
        metrics = {}
        for metric, (name, stat, scale, unit) in PER_LAYER.items():
            recs = groups.get(name, [])
            recs = [r for r in recs if not r[ASIDE]] or recs
            if stat == "self":
                vals = [r[END] - r[START] - r[CHILD] for r in recs]
            elif stat == "total":
                vals = [r[END] - r[START] for r in recs]
            elif stat == "rest":
                vals = [r[END] - r[START] - r[FRONT] for r in recs]
            else:
                vals = [max(r[COUNTS][stat] for r in recs)] if recs else []
            value = statistics.fmean(vals) * scale if vals else 0.0
            metrics[metric] = {"value": value, "unit": unit}
        overhead = (100.0 * (self.traced_s / self.plain_s - 1.0)
                    if self.plain_s > 0 else 0.0)
        metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "%"}
        return metrics

    def write(self, path: Path) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "counts"],
               "spans": [[r[NAME], r[START], r[END], r[PARENT], r[COUNTS]]
                         for r in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Books:
    """Operations attempted and failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.known: list[str] = []

    def fail(self, why: str, *, known: bool = False) -> None:
        """Count a failed operation.

        ``known`` marks a probe of a documented program fault: it fails on
        every run and leaves the run correct.
        """
        self.failed += 1
        (self.known if known else self.wrong).append(why)

    def check(self, problems: list[str]) -> None:
        """Fail one operation when its checks found problems."""
        if problems:
            self.fail("; ".join(problems[:3]))

    @property
    def correct(self) -> bool:
        return not self.wrong


def tail(xs) -> float:
    """The 90th percentile. Callers take at least 100 samples, so at least
    ten lie beyond it; the percentile is fixed so it means the same thing
    in every run."""
    if len(xs) < 100:
        raise ValueError(f"tail needs 100 samples, got {len(xs)}")
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_span_name(argv: list[str]) -> str:
    cmd = argv[0]
    if cmd == "slice":
        mode = "inc" if "--mode" in argv and \
            argv[argv.index("--mode") + 1] == "inc" else "noninc"
        return f"cli.slice_{mode}"
    return f"cli.{cmd}"


def cli_call(tracer: Tracer, argv: list[str]) -> tuple[int, str]:
    """``fslice.cli.main`` in process; returns exit code and stdout."""
    from fslice import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.span(cli_span_name(argv)):
            code = cli.main(argv)
    return code, out.getvalue()
