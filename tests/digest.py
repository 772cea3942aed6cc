"""Print sha256 digests of everything the slicer outputs, as one JSON.

Run it against two checkouts and compare the outputs to show that a change
keeps the results byte-identical:

    PYTHONPATH=src python3 tests/digest.py > digest.json

Per program (the corpus, the firstified higher-order corpus and
``generate_source(500, 0)``) it digests the artifact
(``artifact_to_json(precompute(p))``); per program and criterion, the keep
map (``slice_noninc`` and ``slice_inc`` are asserted to agree), the
annotated residual, and the stderr of ``fslice slice --dump-grammar
--dump-automaton`` of the program's first point (``pi1`` where the
program has it). The dumps are digested three ways: as printed,
the grammar without its ``Crit``/``CritQ`` lines (which follow the
criterion automaton's state numbering), and the automaton's language (the
digest of its minimal DFA), which does not depend on how the automaton is
numbered. Not collected by pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fslice.automata import EPS, Nfa
from fslice.cli import main
from fslice.criteria import parse_criterion
from fslice.demand import ALPHABET
from fslice.firstify import firstify
from fslice.gen import generate_source
from fslice.lang import (all_labels, label_name, parse_program,
                         print_program, validate)
from fslice.slicer import (artifact_to_json, nfa_to_json, precompute,
                           slice_inc, slice_noninc)

TESTS = Path(__file__).parent
CRITERIA = ["eps", "eps + 0", "eps + 1 + 11 + 110", "(0+1)*"]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def programs(tmp: Path):
    """(name, path of a first-order source file, program) triples."""
    for path in sorted((TESTS / "corpus").glob("*.fsl")):
        yield path.stem, path, validate(parse_program(path.read_text()))
    for path in sorted((TESTS / "corpus" / "ho").glob("*.fsl")):
        hop = validate(parse_program(path.read_text()), higher_order=True)
        out = tmp / f"ho-{path.stem}.fsl"
        out.write_text(print_program(firstify(hop)[0], annotate=True))
        yield f"ho/{path.stem}", out, validate(parse_program(out.read_text()))
    out = tmp / "generated.fsl"
    out.write_text(generate_source(500, 0))
    yield "generated", out, validate(parse_program(out.read_text()))


def language_digest(doc: dict) -> str:
    """Digest of the minimal DFA of a dumped automaton's language."""
    m = Nfa(len(doc["states"]), doc["start"])
    m.finals = set(doc["finals"])
    for src, sym, dst in doc["trans"]:
        m.add(src, EPS if sym == "eps" else sym, dst)
    d = m.determinize(ALPHABET).minimize().trim().renumbered()
    return sha(json.dumps(nfa_to_json(d), sort_keys=True))


def dumps(path: Path, p, text: str) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["slice", str(path), "--criterion", text,
                     "--dump-grammar", "--dump-automaton",
                     label_name(min(all_labels(p)))])
    assert code == 0, (path, text, err.getvalue())
    lines = err.getvalue().splitlines()
    grammar = [li for li in lines if not li.startswith("{")]
    (automaton,) = [li for li in lines if li.startswith("{")]
    return {
        "dump_grammar": sha("\n".join(grammar)),
        "dump_grammar_without_crit": sha("\n".join(
            li for li in grammar if not li.startswith("Crit"))),
        "dump_automaton": sha(automaton),
        "dump_automaton_language": language_digest(json.loads(automaton)),
    }


def digest() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, path, p in programs(Path(tmp)):
            art = precompute(p)
            entry = {"artifact": sha(artifact_to_json(art))}
            for text in CRITERIA:
                crit = parse_criterion(text)
                non = slice_noninc(p, crit)
                inc = slice_inc(p, art, crit)
                assert non.keep == inc.keep, (name, text)
                entry[text] = {
                    "keep": sha(repr(sorted(non.keep.items()))),
                    "residual": sha(print_program(non.residual,
                                                  annotate=True)),
                    **dumps(path, p, text),
                }
            out[name] = entry
            print(name, file=sys.stderr)
    return out


if __name__ == "__main__":
    json.dump(digest(), sys.stdout, indent=1, sort_keys=True)
    print()
