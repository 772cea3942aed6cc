"""Command-line interface tests: happy paths for every subcommand and the
exit-code contract (1 usage, 2 analysis, 3 artifact mismatch)."""

import json
import re
import shutil
from pathlib import Path

import pytest

from fslice.cli import main
from fslice.criteria import parse_criterion
from fslice.firstify import map_back
from fslice.gen import generate_source
from fslice.lang import (all_labels, label_name, parse_label_name,
                         parse_program, print_program)
from fslice.slicer import extract_residual, slice_noninc

from conftest import corpus_paths, golden, ho_paths, load
from helpers import check_soundness
from ho_eval import ho_run

CORPUS = Path(__file__).parent / "corpus"
LCC = CORPUS / "lcc.fsl"
APPEND = CORPUS / "append.fsl"
HOF = CORPUS / "ho" / "hof.fsl"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


# -- usage errors (exit 1) -----------------------------------------------------

def test_no_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert err.startswith("fslice:")


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "frobnicate" in err


def test_missing_required_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "slice", LCC)
    assert code == 1
    assert "--criterion" in err


def test_missing_input_file_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "slice", "no-such-file.fsl",
                           "--criterion", "eps")
    assert code == 1
    assert "no-such-file.fsl" in err


def test_version_prints_and_exits():
    from fslice import __version__
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -- slice ---------------------------------------------------------------------

def test_slice_prints_residual_and_summary(capsys):
    code, out, err = run_cli(capsys, "slice", LCC, "--criterion", "eps + 0")
    assert code == 0
    p = load(LCC)
    want = print_program(slice_noninc(p, parse_criterion("eps + 0")).residual)
    assert out == want
    assert re.search(r"kept \d+/\d+ labels", err)


def test_slice_writes_residual_and_keep_report(capsys, tmp_path):
    out_f = tmp_path / "res.fsl"
    keep_f = tmp_path / "keep.json"
    code, out, err = run_cli(capsys, "slice", LCC, "--criterion", "eps + 0",
                             "-o", out_f, "--keep-json", keep_f)
    assert code == 0
    assert out == ""
    assert "kept" not in err
    p = load(LCC)
    res = slice_noninc(p, parse_criterion("eps + 0"))
    assert out_f.read_text(encoding="utf-8") == print_program(res.residual)
    doc = json.loads(keep_f.read_text(encoding="utf-8"))
    assert doc["labels_total"] == len(all_labels(p))
    assert doc["labels_kept"] == res.kept_count
    assert set(doc["per_label"]) == {label_name(la) for la in all_labels(p)}
    assert doc["per_label"][label_name(min(all_labels(p)))] in (True, False)


def test_slice_notes_prefix_closure_on_stderr(capsys):
    code, _, err = run_cli(capsys, "slice", LCC, "--criterion", "1")
    assert code == 0
    assert "note: criterion was not prefix-closed; " \
           "using its prefix closure" in err


def test_slice_strict_rejects_nonclosed_criterion(capsys):
    code, _, err = run_cli(capsys, "slice", LCC, "--criterion", "1",
                           "--strict")
    assert code == 2
    assert err.startswith("fslice:")


@pytest.mark.parametrize("text", ["", "2 + eps", "0 ** +"])
def test_slice_bad_criterion_is_an_analysis_error(capsys, text):
    code, _, err = run_cli(capsys, "slice", LCC, "--criterion", text)
    assert code == 2
    assert err.startswith("fslice:")


def test_too_deeply_nested_program_is_an_analysis_error(capsys, tmp_path):
    src = tmp_path / "deep.fsl"
    src.write_text(generate_source(1000, 0), encoding="utf-8")
    code, _, err = run_cli(capsys, "slice", src, "--criterion", "eps")
    assert code == 2
    assert err.startswith("fslice:")
    assert "nests too deeply" in err
    assert "Traceback" not in err


def test_too_deeply_nested_criterion_is_a_criterion_error(capsys):
    text = "(" * 2000 + "0" + ")" * 2000
    code, out, err = run_cli(capsys, "slice", LCC, "--criterion", text)
    assert code == 2
    assert out == ""
    assert err == "fslice: criterion nests too deeply\n"


def test_slice_dump_flags_write_to_stderr(capsys):
    code, out, err = run_cli(capsys, "slice", LCC, "--criterion", "eps + 0",
                             "--dump-grammar", "--dump-automaton", "pi1")
    assert code == 0
    assert "; demand grammar" in err
    assert "; after regular approximation" in err
    assert "D'[" not in err and "$" not in err
    line = next(li for li in err.splitlines() if li.startswith("{"))
    doc = json.loads(line)
    assert set(doc) == {"states", "start", "finals", "trans"}


def test_dump_automaton_of_an_unknown_label_is_an_analysis_error(capsys):
    code, out, err = run_cli(capsys, "slice", LCC, "--criterion", "eps",
                             "--dump-automaton", "pi999")
    assert code == 2
    assert out == ""
    assert err == "fslice: label pi999 not in program\n"


# -- precompute / query / inc mode ---------------------------------------------

@pytest.fixture()
def lcc_artifact(tmp_path, capsys):
    art = tmp_path / "lcc.fsa.json"
    code, _, err = run_cli(capsys, "precompute", LCC, "-o", art)
    assert code == 0
    assert f"wrote {art}" in err
    return art


def test_precompute_default_output_sits_next_to_the_program(capsys, tmp_path):
    prog = tmp_path / "lcc.fsl"
    shutil.copy(LCC, prog)
    code, _, err = run_cli(capsys, "precompute", prog)
    assert code == 0
    assert (tmp_path / "lcc.fsl.fsa.json").exists()


def test_query_answers_pinned_points(capsys, lcc_artifact):
    code, out, _ = run_cli(capsys, "query", lcc_artifact,
                           "--criterion", "eps + 0", "--labels", "pi1,pi2")
    assert code == 0
    assert json.loads(out) == {"pi1": True, "pi2": False}


def test_query_without_labels_covers_every_point(capsys, lcc_artifact):
    code, out, _ = run_cli(capsys, "query", lcc_artifact,
                           "--criterion", "eps")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {label_name(la) for la in all_labels(load(LCC))}
    assert all(isinstance(v, bool) for v in doc.values())


def test_query_unknown_label_is_an_analysis_error(capsys, lcc_artifact):
    code, _, err = run_cli(capsys, "query", lcc_artifact,
                           "--criterion", "eps", "--labels", "pi999")
    assert code == 2
    assert "not in artifact" in err


def test_query_unparsable_label_is_an_analysis_error(capsys, lcc_artifact):
    code, _, err = run_cli(capsys, "query", lcc_artifact,
                           "--criterion", "eps", "--labels", "zz")
    assert code == 2


def test_slice_inc_matches_noninc_output(capsys, lcc_artifact):
    code, want, _ = run_cli(capsys, "slice", LCC, "--criterion", "eps + 1")
    assert code == 0
    code, got, _ = run_cli(capsys, "slice", LCC, "--criterion", "eps + 1",
                           "--mode", "inc", "--artifact", lcc_artifact)
    assert code == 0
    assert got == want


def test_slice_inc_without_artifact_precomputes_on_the_fly(capsys):
    code, want, _ = run_cli(capsys, "slice", LCC, "--criterion", "eps + 1")
    code2, got, _ = run_cli(capsys, "slice", LCC, "--criterion", "eps + 1",
                            "--mode", "inc")
    assert (code, code2) == (0, 0)
    assert got == want


# -- artifact mismatches (exit 3) ----------------------------------------------

def test_artifact_for_another_program_is_a_mismatch(capsys, lcc_artifact):
    code, _, err = run_cli(capsys, "slice", APPEND, "--criterion", "eps",
                           "--mode", "inc", "--artifact", lcc_artifact)
    assert code == 3
    assert err.startswith("fslice:")


def test_artifact_version_skew_is_a_mismatch(capsys, lcc_artifact, tmp_path):
    doc = json.loads(lcc_artifact.read_text(encoding="utf-8"))
    doc["version"] = "0"
    skewed = tmp_path / "skewed.json"
    skewed.write_text(json.dumps(doc), encoding="utf-8")
    code, _, _ = run_cli(capsys, "query", skewed, "--criterion", "eps")
    assert code == 3


def test_garbage_artifact_is_a_mismatch(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    code, _, _ = run_cli(capsys, "query", bad, "--criterion", "eps")
    assert code == 3


def _tampered(lcc_artifact, tmp_path, edit):
    doc = json.loads(lcc_artifact.read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _pi1(edit):
    return lambda doc: edit(doc["automata"]["pi1"])


@pytest.mark.parametrize("edit", [
    _pi1(lambda m: m["trans"].append([m["start"], "0", 99999])),
    _pi1(lambda m: m.update(states=[1] + m["states"][1:])),
    _pi1(lambda m: m.update(start=len(m["states"]))),
    _pi1(lambda m: m["finals"].append(-1)),
    _pi1(lambda m: m["trans"].append([0, "0b", 0])),
    _pi1(lambda m: m["trans"].append([0, "eps", 0])),
    _pi1(lambda m: m["trans"].extend([[0, "1", 0], [0, "1", 0]])),
], ids=["target-out-of-range", "states-not-dense", "start-out-of-range",
        "final-out-of-range", "bar-symbol", "epsilon", "two-moves"])
def test_corrupt_automaton_is_a_mismatch(capsys, lcc_artifact, tmp_path,
                                         edit):
    bad = _tampered(lcc_artifact, tmp_path, edit)
    code, _, err = run_cli(capsys, "query", bad, "--criterion", "eps + 0",
                           "--labels", "pi1")
    assert code == 3
    assert "pi1" in err


def test_artifact_without_automata_is_a_mismatch(capsys, lcc_artifact,
                                                 tmp_path):
    bad = _tampered(lcc_artifact, tmp_path,
                    lambda doc: doc.update(automata={}))
    code, _, err = run_cli(capsys, "slice", LCC, "--mode", "inc",
                           "--artifact", bad, "--criterion", "eps + 0")
    assert code == 3
    assert "disagree on point" in err


def test_precompute_reports_points_and_distinct_automata(capsys, tmp_path):
    art = tmp_path / "lcc.fsa.json"
    code, _, err = run_cli(capsys, "precompute", LCC, "-o", art)
    assert code == 0
    n = len(all_labels(load(LCC)))
    assert re.search(rf"wrote .* \({n} points, \d+ distinct automata\)", err)


def test_query_ignores_the_fingerprint(capsys, lcc_artifact, tmp_path):
    """Point queries need no program, so a fingerprint edit goes unnoticed;
    only slice --mode inc checks it against the program it is given."""
    doc = json.loads(lcc_artifact.read_text(encoding="utf-8"))
    doc["fingerprint"] = "0" * len(doc["fingerprint"])
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "query", tampered, "--criterion", "eps")
    assert code == 0
    assert json.loads(out)


# -- firstify --------------------------------------------------------------------

def test_firstify_prints_the_lowered_program(capsys):
    code, out, _ = run_cli(capsys, "firstify", HOF)
    assert code == 0
    assert out == golden("hof_firstified.golden")


def test_firstify_writes_output_and_map(capsys, tmp_path):
    """--map implies --annotate: the written program carries the labels
    the map names, and without them it is the golden lowered program."""
    out_f = tmp_path / "fo.fsl"
    map_f = tmp_path / "map.json"
    code, out, _ = run_cli(capsys, "firstify", HOF, "-o", out_f,
                           "--map", map_f)
    assert code == 0
    text = out_f.read_text(encoding="utf-8")
    fo = parse_program(text)
    assert text == print_program(fo, annotate=True)
    assert print_program(fo) == golden("hof_firstified.golden")
    doc = json.loads(map_f.read_text(encoding="utf-8"))
    assert doc
    pi = re.compile(r"pi\d+")
    assert all(pi.fullmatch(k) for k in doc)
    assert all(pi.fullmatch(v) for vs in doc.values() for v in vs)


@pytest.mark.parametrize("name", ["hof", "mapadd"])
@pytest.mark.parametrize("text", ["eps + 0", "eps + 1"])
def test_firstify_map_output_slices_back_soundly(capsys, tmp_path, name,
                                                 text):
    """Slicing the program written with --map alone and pulling the keep
    map back through the map gives a sound residual of the original."""
    src = CORPUS / "ho" / f"{name}.fsl"
    out_f, map_f = tmp_path / "fo.fsl", tmp_path / "map.json"
    code, _, _ = run_cli(capsys, "firstify", src, "-o", out_f, "--map", map_f)
    assert code == 0
    crit = parse_criterion(text)
    keep_fo = slice_noninc(load(out_f), crit).keep
    lmap = {parse_label_name(k): tuple(map(parse_label_name, vs))
            for k, vs in json.loads(map_f.read_text(encoding="utf-8")).items()}
    p = load(src, higher_order=True)
    residual = extract_residual(p, map_back(keep_fo, lmap, p))
    assert check_soundness(p, residual, crit, runner=ho_run) == []


def test_firstify_rejects_first_order_violations_in_ho_input(capsys, tmp_path):
    src = tmp_path / "bad.fsl"
    src.write_text("(define (main) (let r <- (cons car car) in (return r)))",
                   encoding="utf-8")
    code, _, err = run_cli(capsys, "firstify", src)
    assert code == 2
    assert "only call and argument positions" in err


# -- run -------------------------------------------------------------------------

def test_run_prints_the_value(capsys):
    code, out, _ = run_cli(capsys, "run", LCC)
    assert code == 0
    assert out.strip() == "(1, 3)"


def test_run_trace_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "run", LCC, "--trace")
    assert code == 0
    assert out.strip() == "(1, 3)"
    lines = err.strip().splitlines()
    assert lines
    assert all(re.fullmatch(r"\S+ pi\d+", li) for li in lines)
    assert lines[0].startswith("main ")


def test_run_rejects_higher_order_programs(capsys):
    code, _, err = run_cli(capsys, "run", HOF)
    assert code == 2
    assert err.startswith("fslice:")


def test_every_corpus_program_slices_from_the_command_line(capsys):
    for path in corpus_paths():
        code, out, _ = run_cli(capsys, "slice", path, "--criterion", "(0+1)*")
        assert code == 0, path
        assert out, path


def test_every_ho_program_firstifies_from_the_command_line(capsys):
    for path in ho_paths():
        code, out, _ = run_cli(capsys, "firstify", path)
        assert code == 0, path
        assert out, path
