"""The three workloads. Each is a closed loop in one process: the next call
starts when the previous one returns.

Every workload reports every end-to-end metric, measured on its own
inputs; README.md says which metrics are each workload's own. The loop runs
in whole rounds until ``--seconds`` have passed. A round interleaves every
kind of timed call, so each metric's samples spread over the whole run
rather than one burst: on a shared machine the speed drifts by about 10%
from one second to the next. Set-up is repeated between the calls of the
loop for the same reason. The calls of the loop are the operations
counted as attempted. Precompute and the checks run outside the timed
calls; a check that fails counts a failed operation and makes the run
incorrect.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from statistics import median

from fslice import criteria, firstify, lang, slicer

import checks
import inputs
from harness import Books, Tracer, clock, cli_call, peak_rss_mb, tail
from inputs import Criterion, criterion

HEAD, TAIL = criterion("eps + 0"), criterion("eps + 1")

UNITS = {"setup_s": "s", "precompute_s": "s", "artifact_bytes": "bytes",
         "artifact_load_ms": "ms", "slice_inc_ms": "ms",
         "slice_inc_tail_ms": "ms", "point_query_us": "us",
         "slice_noninc_s": "s", "noninc_points_per_s": "points/s",
         "cli_pass_s": "s", "peak_rss_mb": "MB"}

INC_PROGRAM = "synth1800"
NONINC_PROGRAMS = ("synth700", "synth1200", "synth1800")
NONINC_INC_PROGRAM = "synth700"  # precomputed to check inc against noninc
MIN_SLICES = 100  # slice_inc samples, enough for the tail
NONINC_INC_PER_ROUND = 50  # noninc-scale: slice_inc calls per round
NONINC_QUERIES_PER_SLICE = 2  # noninc-scale: point queries per slice_inc
NONINC_EVERY = 4  # inc-session: rounds between from-scratch slices
INC_RELOAD_EVERY = 3  # inc-session: slice_inc calls per artifact reload
NONINC_RELOAD_EVERY = 5  # noninc-scale: the same
SETUP_GAP = 6.0  # loop time between set-up samples, in set-up times


@dataclass
class Sizes:
    """How much each workload does; the self-check shrinks these."""
    bindings: dict = field(default_factory=lambda: dict(inputs.SYNTH))
    corpus: tuple | None = None  # None: every program of tests/corpus
    corpus_criteria: tuple = tuple(inputs.POOL)
    inc_per_round: int = 10  # inc-session: slice_inc calls per round
    queries_per_slice: int = 20  # single-point queries after each slice_inc


class Run:
    """State of one benchmark run: samples, books and scratch files."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: Path, sizes: Sizes):
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.trace = trace
        self.books = Books()
        self.tracer = Tracer()
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))
        self.m: dict[str, float] = {}
        self.s: dict[str, list] = {k: [] for k in (
            "setup", "precompute", "load", "inc", "query", "noninc", "cli")}
        self.nfas: dict[str, object] = {}
        self._make = None
        self._setup_due = 0.0
        if trace:
            self.tracer.start()

    def close(self) -> None:
        self.tracer.remove()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- calls ----------------------------------------------------------

    @staticmethod
    def once(fn):
        t0 = clock()
        out = fn()
        return out, clock() - t0

    def op(self, fn):
        """One call of the timed loop; a set-up sample follows when one is
        due."""
        self.books.attempted += 1
        out = self.tracer.measure(fn)
        if self._make is not None and clock() >= self._setup_due:
            self._setup_sample()
        return out

    def nfa(self, crit: Criterion):
        if crit.text not in self.nfas:
            self.nfas[crit.text] = criteria.parse_criterion(crit.text)
        return self.nfas[crit.text]

    def loop(self, round_fn) -> None:
        """Whole rounds until the run's seconds are up and the tail of
        slice_inc has its samples."""
        t0 = clock()
        while (clock() - t0 < self.seconds
               or len(self.s["inc"]) < MIN_SLICES):
            round_fn()

    def setup(self, make):
        """Make the inputs the workload runs on. ``op`` makes them again,
        and throws them away, at intervals of ``SETUP_GAP`` set-up times
        through the loop; setup_s is the median of all these samples."""
        self._make = make
        return self._setup_sample()

    def _setup_sample(self):
        out, dt = self.once(self._make)
        self.s["setup"].append(dt)
        self._setup_due = clock() + SETUP_GAP * dt
        return out

    def art_path(self, name: str) -> Path:
        return self.tmp / f"{name}.fsa.json"

    def precompute(self, progs: dict) -> dict:
        """Precompute and save each program's artifact, then load it back.
        Returns the loaded artifacts."""
        total = 0.0
        for name, p in progs.items():
            art, dt = self.once(lambda: slicer.precompute(p))
            total += dt
            slicer.save_artifact(art, str(self.art_path(name)))
        self.s["precompute"].append(total)
        self.m["artifact_bytes"] = sum(self.art_path(n).stat().st_size
                                       for n in progs)
        return {name: slicer.load_artifact(str(self.art_path(name)))
                for name in progs}

    def load(self, name: str):
        """One ``load_artifact`` call: a sample of artifact_load_ms."""
        art, dt = self.op(lambda: slicer.load_artifact(str(self.art_path(name))))
        self.s["load"].append(dt)
        return art

    def slice_inc(self, p, art, crit: Criterion):
        nfa = self.nfa(crit)
        res, dt = self.op(lambda: slicer.slice_inc(p, art, nfa))
        self.s["inc"].append(dt)
        return res

    def slice_noninc(self, p, crit: Criterion):
        nfa = self.nfa(crit)
        res, dt = self.op(lambda: slicer.slice_noninc(p, nfa))
        self.s["noninc"].append((dt, len(res.keep)))
        return res

    def queries(self, rng: Random, pool: list, n: int) -> None:
        """``n`` single-label ``in_slice`` calls, each checked against the
        keep map of its criterion. ``pool``: (artifact, criterion, keep
        map) triples to draw from."""
        for _ in range(n):
            art, crit, keep = rng.choice(pool)
            lab = rng.choice(list(keep))
            nfa = self.nfa(crit)
            got, dt = self.op(lambda: slicer.in_slice(art, lab, nfa))
            self.s["query"].append(dt)
            if got is not keep[lab]:
                self.books.fail(f"in_slice pi{lab} under {crit.text!r} is "
                                f"{got}, keep map says {keep[lab]}")

    def cli(self, argv: list[str], expect: int = 0, *, timed: bool = True,
            known: bool = False) -> tuple[bool, str, float]:
        """One ``cli.main`` call, its exit code checked against ``expect``.
        A timed call is an operation of the loop. ``known`` marks a probe
        of a documented fault. Returns whether the exit code was right,
        standard output and the seconds."""
        call = self.op if timed else self.once
        (code, out), dt = call(lambda: cli_call(self.tracer, argv))
        if code != expect:
            self.books.fail(f"fslice {argv[0]} {Path(argv[1]).name} exited "
                            f"{code}, expected {expect}", known=known)
        return code == expect, out, dt

    def cli_pass(self, src: Path, crit: Criterion, res, noninc: bool) -> float:
        """``query``, ``slice --mode inc --artifact``, optionally ``slice``,
        and ``run`` on the residual. The keep answers and the residual
        text are checked against the library's slice ``res`` of the same
        criterion. Returns the seconds of the CLI calls."""
        art, out_fsl = self.art_path(src.stem), self.tmp / "res.fsl"
        with self.tracer.aside():
            want_text = lang.print_program(res.residual)
        want = {lang.label_name(k): v for k, v in sorted(res.keep.items())}
        ok, out, total = self.cli(["query", str(art), "--criterion", crit.text])
        if ok and json.loads(out) != want:
            self.books.fail(f"fslice query under {crit.text!r} disagrees "
                            "with the library")
        modes = {"inc": ["--mode", "inc", "--artifact", str(art)]}
        if noninc:
            modes["noninc"] = []
        for mode, flags in modes.items():
            keep_json = self.tmp / f"{mode}.json"
            ok, _, dt = self.cli(["slice", str(src), *flags,
                                  "--criterion", crit.text,
                                  "--keep-json", str(keep_json),
                                  "-o", str(out_fsl)])
            total += dt
            if ok and (json.loads(keep_json.read_text())["per_label"] != want
                       or out_fsl.read_text() != want_text):
                self.books.fail(f"fslice slice ({mode}) under {crit.text!r} "
                                "disagrees with the library")
        total += self.cli(["run", str(out_fsl)])[2]
        return total

    # -- checks made once -----------------------------------------------

    def contract_calls(self, art: Path) -> list:
        """CLI calls whose documented exit code is not 0: (argv, code)."""
        lcc, other = inputs.CORPUS / "lcc.fsl", inputs.CORPUS / "append.fsl"
        return [
            (["slice", str(self.tmp / "missing.fsl"), "--criterion", "eps"], 1),
            (["slice", str(lcc), "--criterion", "2"], 2),
            (["slice", str(other), "--mode", "inc", "--artifact", str(art),
              "--criterion", "eps"], 3),
        ]

    def contract_checks(self) -> None:
        """The CLI exit-code contract, and the higher-order programs through
        firstify: value against the reference evaluator, and head and tail
        slices pulled back to the original."""
        with self.tracer.aside():
            self._contract_checks()

    def _contract_checks(self) -> None:
        lcc = inputs.CORPUS / "lcc.fsl"
        art = self.tmp / "lcc.contract.fsa.json"
        self.cli(["precompute", str(lcc), "-o", str(art)], timed=False)
        self.cli(["run", str(lcc)], timed=False)
        for argv, code in self.contract_calls(art):
            self.cli(argv, code, timed=False)
        for path in inputs.ho_paths():
            _, text, _ = self.cli(["firstify", "--annotate", str(path)],
                                  timed=False)
            p = lang.validate(lang.parse_program(path.read_text()),
                              higher_order=True)
            fo, lmap = firstify.firstify(p)
            if text != lang.print_program(fo, annotate=True):
                self.books.fail(f"{path.stem}: CLI firstify differs from library")
            self.books.check(checks.ho_value(p, fo, path.stem))
            for crit in (HEAD, TAIL):
                keep_fo = slicer.slice_noninc(fo, self.nfa(crit)).keep
                keep = firstify.map_back(keep_fo, lmap, p)
                self.books.check(checks.ho_projection(
                    p, slicer.extract_residual(p, keep), crit,
                    f"{path.stem} {crit.text}"))

    def result(self) -> dict:
        if self.trace:
            self.tracer.remove()
            metrics = self.tracer.per_layer()
        else:
            s = self.s
            noninc = s["noninc"]
            self.m.update({
                "setup_s": median(s["setup"]),
                "precompute_s": median(s["precompute"]),
                "artifact_load_ms": median(s["load"]) * 1e3,
                "slice_inc_ms": median(s["inc"]) * 1e3,
                "slice_inc_tail_ms": tail(s["inc"]) * 1e3,
                "point_query_us": median(s["query"]) * 1e6,
                "slice_noninc_s": median(dt for dt, _ in noninc),
                "noninc_points_per_s": (sum(n for _, n in noninc)
                                        / sum(dt for dt, _ in noninc)),
                "cli_pass_s": median(s["cli"]),
                "peak_rss_mb": peak_rss_mb(),
            })
            metrics = {k: {"value": self.m[k], "unit": u}
                       for k, u in UNITS.items()}
        return {"correct": self.books.correct,
                "attempted": self.books.attempted,
                "failed": self.books.failed,
                "metrics": metrics}


class Slices:
    """The keep maps of one program, by criterion text.

    A slice is checked when its criterion is first seen: its residual must
    project like the original. Only the keep map is kept, so the checks
    leave no residual programs alive to slow the garbage collector during
    later timed calls. A criterion seen again must keep the same points.
    """

    def __init__(self, run: "Run", p):
        self.run = run
        with run.tracer.aside():
            self.proj = checks.Projector(p)
        self.crit: dict[str, Criterion] = {}
        self.keep: dict[str, dict] = {}

    def add(self, crit: Criterion, res, what: str) -> bool:
        """Record one slice; True when its criterion is new."""
        books = self.run.books
        if crit.text in self.keep:
            books.check(checks.same_keep(f"{what}: repeat of {crit.text!r}",
                                         self.keep[crit.text], res.keep))
            return False
        with self.run.tracer.aside():
            books.check(self.proj.check(res.residual, crit,
                                        f"{what} {crit.text!r}"))
        self.crit[crit.text] = crit
        self.keep[crit.text] = res.keep
        return True

    def check_monotone(self) -> None:
        self.run.books.check(checks.monotone(
            {t: (self.crit[t], checks.kept(k)) for t, k in self.keep.items()}))


def _synth(run: Run, names) -> dict:
    def make():
        return {n: lang.validate(lang.parse_program(
            inputs.synth_source(n, run.sizes.bindings))) for n in names}
    return run.setup(make)


def _write_source(run: Run, name: str) -> Path:
    path = run.tmp / f"{name}.fsl"
    path.write_text(inputs.synth_source(name, run.sizes.bindings))
    return path


# ---------------------------------------------------------------------------
# inc-session
# ---------------------------------------------------------------------------

def inc_session(run: Run) -> None:
    """One program, precomputed once, its artifact saved and loaded back.
    Then a seeded stream of criteria, each a full slice_inc followed by
    single-point queries, with an artifact reload after every third. Each
    round ends with one CLI pass, and every ``NONINC_EVERY`` rounds with a
    from-scratch slice of the round's last criterion."""
    name = INC_PROGRAM
    p = _synth(run, [name])[name]
    art = run.precompute({name: p})[name]
    src = _write_source(run, name)
    crits = inputs.stream(run.seed)
    rng = Random(run.seed + 1)
    slices = Slices(run, p)
    pool: list = []

    rounds = 0

    def round_():
        nonlocal rounds
        for i in range(run.sizes.inc_per_round):
            crit = next(crits)
            res = run.slice_inc(p, art, crit)
            if slices.add(crit, res, "slice_inc"):
                pool.append((art, crit, res.keep))
            run.queries(rng, pool, run.sizes.queries_per_slice)
            if i % INC_RELOAD_EVERY == 2:
                run.load(name)
        run.s["cli"].append(run.cli_pass(src, crit, res, noninc=False))
        if rounds % NONINC_EVERY == 0:
            # The same criterion from scratch: the agreement check, and the
            # workload's slice_noninc samples, spread over the run.
            scratch = run.slice_noninc(p, crit)
            run.books.check(checks.same_keep(f"inc vs noninc {crit.text!r}",
                                             scratch.keep, res.keep))
        rounds += 1

    run.loop(round_)
    slices.check_monotone()
    run.contract_checks()


# ---------------------------------------------------------------------------
# noninc-scale
# ---------------------------------------------------------------------------

def noninc_scale(run: Run) -> None:
    """From-scratch slices of three program sizes, one seeded criterion per
    round. The incremental side runs on the smallest program only, to
    check it against the from-scratch keep maps."""
    names = NONINC_PROGRAMS
    progs = _synth(run, names)
    small = NONINC_INC_PROGRAM
    art = run.precompute({small: progs[small]})[small]
    src = _write_source(run, small)
    crits = inputs.stream(run.seed)
    more = inputs.stream(run.seed + 1)
    rng = Random(run.seed + 2)
    slices = {n: Slices(run, progs[n]) for n in names}
    inc_slices = Slices(run, progs[small])
    pool: list = []

    def round_():
        crit = next(crits)
        for n in names:
            slices[n].add(crit, run.slice_noninc(progs[n], crit), "slice_noninc")
        for i in range(NONINC_INC_PER_ROUND):
            c = crit if i == 0 else next(more)
            inc = run.slice_inc(progs[small], art, c)
            if i == 0:
                first = inc
            if inc_slices.add(c, inc, "slice_inc"):
                pool.append((art, c, inc.keep))
            run.queries(rng, pool, NONINC_QUERIES_PER_SLICE)
            if i % NONINC_RELOAD_EVERY == 2:
                run.load(small)
        run.books.check(checks.same_keep(f"inc vs noninc {crit.text!r}",
                                         slices[small].keep[crit.text],
                                         first.keep))
        run.s["cli"].append(run.cli_pass(src, crit, first, noninc=True))

    run.loop(round_)
    run.precompute({small: progs[small]})

    for n in names:
        slices[n].check_monotone()
    inc_slices.check_monotone()
    run.contract_checks()


# ---------------------------------------------------------------------------
# corpus-cli
# ---------------------------------------------------------------------------

def _probe_artifacts(run: Run, art: Path) -> tuple[Path, Path]:
    """Two corrupt artifacts for lcc; the CLI must refuse both with exit 3.
    (a) a transition to a state that does not exist; (b) the right
    fingerprint and no automata."""
    doc = json.loads(art.read_text())
    a = json.loads(json.dumps(doc))
    pi1 = a["automata"]["pi1"]
    pi1["trans"].append([pi1["start"], "0", 99999])
    b = dict(doc, automata={})
    pa, pb = run.tmp / "probe_a.json", run.tmp / "probe_b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return pa, pb


def _ho_pass(run: Run, name: str, p) -> float:
    """One higher-order program: ``firstify --annotate --map`` through the
    CLI, its first-order form sliced under head and tail through the CLI,
    and each keep map pulled back with ``map_back``. The pulled-back
    residual must observe like the original. Returns the seconds of the
    CLI calls."""
    tmp = run.tmp
    fo, mp, keep_json = (tmp / f"{name}.fo.fsl", tmp / f"{name}.map.json",
                         tmp / "ho.json")
    total = run.cli(["firstify", str(inputs.HO_CORPUS / f"{name}.fsl"),
                     "--annotate", "-o", str(fo), "--map", str(mp)])[2]
    lmap = {lang.parse_label_name(k): tuple(map(lang.parse_label_name, vs))
            for k, vs in json.loads(mp.read_text()).items()}
    for crit in (HEAD, TAIL):
        total += run.cli(["slice", str(fo), "--criterion", crit.text,
                          "--keep-json", str(keep_json)])[2]
        keep_fo = {lang.parse_label_name(k): v for k, v in json.loads(
            keep_json.read_text())["per_label"].items()}
        keep, _ = run.op(lambda: firstify.map_back(keep_fo, lmap, p))
        with run.tracer.aside():
            run.books.check(checks.ho_projection(
                p, slicer.extract_residual(p, keep), crit,
                f"{name} {crit.text} via CLI"))
    return total


def corpus_cli(run: Run) -> None:
    """Each corpus program through every CLI command under the criteria
    pool, and the higher-order programs through firstify, in whole rounds.
    The library calls for the same program and criterion run between the
    CLI calls, so both spread over the round."""
    sel = run.sizes.corpus
    fo_paths = [q for q in inputs.corpus_paths() if sel is None or q.stem in sel]

    def make():
        fo = {q.stem: lang.validate(lang.parse_program(q.read_text()))
              for q in fo_paths}
        ho = {q.stem: lang.validate(lang.parse_program(q.read_text()),
                                    higher_order=True)
              for q in inputs.ho_paths()}
        return fo, ho
    progs, hos = run.setup(make)
    crits = [criterion(t) for t in run.sizes.corpus_criteria]
    order = [(name, crit) for name in sorted(progs) for crit in crits]
    Random(run.seed).shuffle(order)

    lcc_art = run.tmp / "lcc.probe.fsa.json"
    with run.tracer.aside():
        run.cli(["precompute", str(inputs.CORPUS / "lcc.fsl"), "-o",
                 str(lcc_art)], timed=False)
    probe_a, probe_b = _probe_artifacts(run, lcc_art)
    lib = {name: Slices(run, p) for name, p in progs.items()}
    rng = Random(run.seed + 1)

    def round_():
        # The CLI writes each artifact; the library loads it back, and the
        # library's own precompute gives the precompute_s sample.
        cli_s = pre = 0.0
        for q in fo_paths:
            cli_s += run.cli(["precompute", str(q), "-o",
                              str(run.art_path(q.stem))])[2]
            _, dt = run.op(lambda: slicer.precompute(progs[q.stem]))
            pre += dt
        run.s["precompute"].append(pre)
        run.m["artifact_bytes"] = sum(run.art_path(n).stat().st_size
                                      for n in progs)
        arts = {}
        for name, crit in order:
            if name not in arts:
                arts[name] = run.load(name)
            inc = run.slice_inc(progs[name], arts[name], crit)
            res = run.slice_noninc(progs[name], crit)
            lib[name].add(crit, res, name)
            run.books.check(checks.same_keep(f"{name} {crit.text!r} inc vs "
                                             "noninc", res.keep, inc.keep))
            run.queries(rng, [(arts[name], crit, inc.keep)], 5)
            cli_s += run.cli_pass(inputs.CORPUS / f"{name}.fsl", crit, res,
                                  noninc=True)
        for name, p in hos.items():
            cli_s += _ho_pass(run, name, p)
        for argv, code in run.contract_calls(lcc_art):
            cli_s += run.cli(argv, code)[2]
        cli_s += run.cli(["query", str(probe_a), "--criterion", "eps + 0",
                          "--labels", "pi1"], 3, known=True)[2]
        cli_s += run.cli(["slice", str(inputs.CORPUS / "lcc.fsl"), "--mode",
                          "inc", "--artifact", str(probe_b),
                          "--criterion", "eps + 0"], 3, known=True)[2]
        run.s["cli"].append(cli_s)

    run.loop(round_)
    for slices in lib.values():
        slices.check_monotone()
    run.contract_checks()


WORKLOADS = {"inc-session": inc_session, "noninc-scale": noninc_scale,
             "corpus-cli": corpus_cli}
