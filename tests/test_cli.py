"""Subcommand wiring: exit codes, outputs, manifests, determinism."""

import argparse
import json

import numpy as np
import pytest

from basiq import fileformats
from basiq.cli import EXIT_FAIL, EXIT_OK, EXIT_PARTIAL, _write_json, build_parser, main
from basiq.errors import ParseError
from basiq.generator import BqdRecord, read_bqd, write_bqd
from basiq.vqa_metric import AnswerRecord, aggregate_by_type, evaluate

from conftest import (
    CACHE_FAULTS, corrupt_cache, near_duplicate_pairs, needs_fifo, read_through_pipe,
    unit_columns, write_binary_embeddings, write_old_binary_files, write_text_embeddings,
)


@pytest.fixture
def corpus_file(tmp_path, rng):
    path = tmp_path / "corpus.txt"
    vectors = unit_columns(rng, 8, 12)
    records = [
        (f"q{j}", f"is item {j} in the frame?", vectors[:, j]) for j in range(12)
    ]
    write_text_embeddings(path, records, 8)
    return path


@pytest.fixture
def query_file(tmp_path, rng):
    path = tmp_path / "queries.txt"
    vectors = unit_columns(rng, 8, 3)
    records = [(f"img{j}", f"query number {j}?", vectors[:, j]) for j in range(3)]
    write_text_embeddings(path, records, 8)
    return path


def run(args):
    return main([str(a) for a in args])


# Every subcommand's arguments, positionals by name, in parser order, without -h.
CLI_SURFACE = {
    "build-dict": ("corpus", "--out", "--dedup"),
    "gen-bq": ("--dict", "--queries", "--out", "--lambda", "--lambda-rel", "--tol",
               "--max-sweeps", "--exclude-exact", "--keep-going"),
    "concat": ("--bqd", "--out", "--s1", "--s2", "--s3", "--separator"),
    "stats": ("--bqd", "--out", "--candidates"),
    "partition": ("--bqd", "--out", "--s1", "--s2", "--s3"),
    "eval": ("--predictions", "--annotations", "--out", "--per-type", "--raw"),
}


def test_cli_surface_is_pinned():
    # Adding or removing a flag is an edit to CLI_SURFACE.
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: tuple(s for action in sub._actions if "-h" not in action.option_strings
                    for s in action.option_strings or [action.dest])
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


def test_flags_do_not_carry_over_between_main_calls(tmp_path, corpus_file, query_file):
    # ``main`` keeps one parser per process; each call still starts from the defaults.
    cache = _build(tmp_path, corpus_file)
    out, stats = tmp_path / "bqd.jsonl", tmp_path / "stats.json"
    gen_bq = ["gen-bq", "--dict", cache, "--queries", query_file, "--out", out]
    configs = []
    for flags in (["--exclude-exact", "--keep-going"], []):
        assert run(gen_bq + flags) == EXIT_OK
        config = json.loads((tmp_path / "bqd.jsonl.manifest.json").read_text())["config"]
        configs.append((config["exclude_exact"], config["keep_going"]))
    assert configs == [(True, True), (False, False)]
    reports = []
    for flags in (["--candidates"], []):
        assert run(["stats", "--bqd", out, "--out", stats] + flags) == EXIT_OK
        manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
        reports.append((manifest["config"]["candidates"], "candidates" in json.loads(
            stats.read_text())))
    assert reports == [(True, True), (False, False)]


def test_build_dict_reports_columns(tmp_path, corpus_file, capsys):
    out = tmp_path / "dict.bin"
    assert run(["build-dict", corpus_file, "--out", out]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "12 columns" in stdout
    assert "0 duplicates dropped" in stdout
    assert out.exists()
    assert (tmp_path / "dict.bin.manifest.json").exists()


@needs_fifo
def test_build_dict_reads_a_pipe(tmp_path, corpus_file, capsys):
    out = tmp_path / "dict.bin"
    code = read_through_pipe(tmp_path, corpus_file.read_bytes(),
                             lambda path: run(["build-dict", path, "--out", out]))
    assert code == EXIT_OK
    assert "12 columns" in capsys.readouterr().out
    expected = tmp_path / "expected.bin"
    assert run(["build-dict", corpus_file, "--out", expected]) == EXIT_OK
    assert out.read_bytes() == expected.read_bytes()


def test_build_dict_counts_duplicates(tmp_path, rng, capsys):
    path = tmp_path / "dups.txt"
    vectors = unit_columns(rng, 4, 4)
    records = [
        ("a", "What color is it?", vectors[:, 0]),
        ("b", "How many are there?", vectors[:, 1]),
        ("c", "what COLOR is it?", vectors[:, 2]),
        ("d", "what color is it? ", vectors[:, 3]),
    ]
    write_text_embeddings(path, records, 4)
    out = tmp_path / "dict.bin"
    assert run(["build-dict", path, "--out", out]) == EXIT_OK
    assert "2 duplicates dropped" in capsys.readouterr().out


def test_missing_file_exits_nonzero_naming_path(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    code = run(["build-dict", missing, "--out", tmp_path / "d.bin"])
    assert code == EXIT_FAIL
    assert "nope.txt" in capsys.readouterr().err


def _build(tmp_path, corpus_file):
    out = tmp_path / "dict.bin"
    assert run(["build-dict", corpus_file, "--out", out]) == EXIT_OK
    return out


def test_gen_bq_writes_validatable_records(tmp_path, corpus_file, query_file):
    cache = _build(tmp_path, corpus_file)
    out = tmp_path / "bqd.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", query_file,
                "--out", out]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    # validate with the stock JSON parser, independent of the writer
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"image_id", "mq", "bqs"}
        scores = [bq["score"] for bq in obj["bqs"]]
        assert len(scores) == 3
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)


def test_gen_bq_rerun_byte_identical(tmp_path, corpus_file, query_file):
    cache = _build(tmp_path, corpus_file)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", query_file, "--out", out1]) == EXIT_OK
    assert run(["gen-bq", "--dict", cache, "--queries", query_file, "--out", out2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_bq_exclude_exact_changes_top(tmp_path, rng):
    corpus = tmp_path / "corpus.txt"
    vectors = unit_columns(rng, 8, 6)
    records = [(f"q{j}", f"is item {j} in the frame?", vectors[:, j]) for j in range(6)]
    write_text_embeddings(corpus, records, 8)
    queries = tmp_path / "queries.txt"
    # query duplicates corpus question 2, text and vector alike
    write_text_embeddings(
        queries, [("img0", "is item 2 in the frame?", vectors[:, 2])], 8
    )
    cache = _build(tmp_path, corpus)
    plain = tmp_path / "plain.jsonl"
    excl = tmp_path / "excl.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", queries, "--out", plain]) == EXIT_OK
    assert run(["gen-bq", "--dict", cache, "--queries", queries, "--out", excl,
                "--exclude-exact"]) == EXIT_OK
    top_plain = json.loads(plain.read_text().splitlines()[0])["bqs"][0]["text"]
    top_excl = json.loads(excl.read_text().splitlines()[0])["bqs"][0]["text"]
    assert top_plain == "is item 2 in the frame?"
    assert top_excl != "is item 2 in the frame?"


def _query_file_with_zero_vector(tmp_path, rng):
    path = tmp_path / "mixed.txt"
    vectors = unit_columns(rng, 8, 2)
    records = [
        ("ok1", "fine?", vectors[:, 0]),
        ("bad", "degenerate?", np.zeros(8)),  # penalty resolves to zero
        ("ok2", "also fine?", vectors[:, 1]),
    ]
    write_text_embeddings(path, records, 8)
    return path


def test_gen_bq_record_failure_without_keep_going(tmp_path, corpus_file, rng, capsys):
    cache = _build(tmp_path, corpus_file)
    queries = _query_file_with_zero_vector(tmp_path, rng)
    out = tmp_path / "bqd.jsonl"
    code = run(["gen-bq", "--dict", cache, "--queries", queries, "--out", out])
    assert code == EXIT_FAIL
    assert not out.exists()
    assert "bad" in capsys.readouterr().err


def test_gen_bq_keep_going_distinct_exit(tmp_path, corpus_file, rng, capsys):
    cache = _build(tmp_path, corpus_file)
    queries = _query_file_with_zero_vector(tmp_path, rng)
    out = tmp_path / "bqd.jsonl"
    code = run(["gen-bq", "--dict", cache, "--queries", queries, "--out", out,
                "--keep-going"])
    assert code == EXIT_PARTIAL
    written = [json.loads(l)["image_id"] for l in out.read_text().splitlines()]
    assert written == ["ok1", "ok2"]


def _uncertified_inputs(tmp_path):
    """A 16x200 cache and two queries: one whose solve needs more than two
    path steps, then a planted column that certifies in two."""
    rng = np.random.default_rng(0)
    vectors = unit_columns(rng, 16, 200)
    corpus = tmp_path / "corpus16.txt"
    write_text_embeddings(
        corpus, [(f"q{j}", f"is item {j} in view?", vectors[:, j]) for j in range(200)], 16)
    queries = tmp_path / "queries16.txt"
    write_text_embeddings(
        queries, [("hard", "hard?", rng.standard_normal(16)), ("easy", "easy?", vectors[:, 5])], 16)
    return _build(tmp_path, corpus), queries


@pytest.mark.parametrize("keep_going", [False, True], ids=["fail", "keep-going"])
def test_gen_bq_uncertified_solve_is_a_query_error(tmp_path, capsys, keep_going):
    cache, queries = _uncertified_inputs(tmp_path)
    out = tmp_path / "bqd.jsonl"
    code = run(["gen-bq", "--dict", cache, "--queries", queries, "--out", out,
                "--max-sweeps", "2"] + (["--keep-going"] if keep_going else []))
    err = capsys.readouterr().err
    assert "error: query 'hard': solve not certified" in err
    assert "after 2 path steps" in err
    if keep_going:
        assert code == EXIT_PARTIAL
        assert [json.loads(l)["image_id"] for l in out.read_text().splitlines()] == ["easy"]
    else:
        assert code == EXIT_FAIL
        assert not out.exists()


def test_gen_bq_full_support_writes_every_record(tmp_path):
    # An 8x32 corpus at a tiny penalty: every support fills all 8 dimensions.
    # The float32 search once let a 9th column enter on query "img4", and
    # its singular Gram matrix ended the run with a LinAlgError traceback.
    rng = np.random.default_rng(2)
    vectors = unit_columns(rng, 8, 32)
    corpus = tmp_path / "corpus8.txt"
    write_text_embeddings(
        corpus, [(f"q{j}", f"is item {j} in view?", vectors[:, j]) for j in range(32)], 8)
    queries = tmp_path / "queries8.txt"
    write_text_embeddings(
        queries, [(f"img{j}", f"query {j}?", q) for j, q in enumerate(rng.standard_normal((5, 8)))],
        8)
    out = tmp_path / "bqd.jsonl"
    code = run(["gen-bq", "--dict", _build(tmp_path, corpus), "--queries", queries, "--out", out,
                "--lambda-rel", "1e-6", "--keep-going"])
    assert code == EXIT_OK
    written = [json.loads(l)["image_id"] for l in out.read_text().splitlines()]
    assert written == [f"img{j}" for j in range(5)]


def _near_duplicate_inputs(tmp_path, seed):
    """A cache of the 16 columns of ``near_duplicate_pairs(seed)`` and two
    queries: the pair's query, then a planted column."""
    a, b = near_duplicate_pairs(seed)
    corpus = tmp_path / "near.txt"
    write_text_embeddings(
        corpus, [(f"q{j}", f"is item {j} in view?", a[:, j]) for j in range(16)], 8)
    queries = tmp_path / "queries.txt"
    write_text_embeddings(queries, [("bad", "bad?", b), ("ok", "ok?", a[:, 0])], 8)
    return _build(tmp_path, corpus), queries


@pytest.mark.parametrize("keep_going", [False, True], ids=["fail", "keep-going"])
def test_gen_bq_near_duplicate_columns_are_not_a_query_error(tmp_path, capsys, keep_going):
    # Columns about 1e-8 apart once made the active Gram matrix singular.
    cache, queries = _near_duplicate_inputs(tmp_path, 116)
    out = tmp_path / "bqd.jsonl"
    code = run(["gen-bq", "--dict", cache, "--queries", queries, "--out", out,
                "--lambda-rel", "1e-3"] + (["--keep-going"] if keep_going else []))
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.err == ""
    assert "re-run in float64" not in captured.out
    assert [json.loads(l)["image_id"] for l in out.read_text().splitlines()] == ["bad", "ok"]


def test_gen_bq_counts_float64_re_solves(tmp_path, capsys):
    cache, queries = _near_duplicate_inputs(tmp_path, 5)
    out = tmp_path / "bqd.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", queries, "--out", out,
                "--lambda-rel", "1e-3"]) == EXIT_OK
    assert capsys.readouterr().out.endswith(
        f"wrote 2 records to {out} (2 scores clamped, 1 solves re-run in float64)\n")


@pytest.mark.parametrize("flags, name", [
    (["--lambda-rel", "nan"], "lambda_rel"),
    (["--lambda", "nan"], "lambda_abs"),
    (["--lambda", "inf"], "lambda_abs"),
    (["--tol", "inf"], "tol"),
])
def test_gen_bq_non_finite_flag_fails_cleanly(tmp_path, corpus_file, query_file, capsys,
                                              flags, name):
    cache = _build(tmp_path, corpus_file)
    out = tmp_path / "bqd.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", query_file, "--out", out]
               + flags) == EXIT_FAIL
    assert capsys.readouterr().err.startswith(f"error: {name} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--lambda", "--lambda-rel"])
def test_gen_bq_zero_penalty_fails_once(tmp_path, corpus_file, query_file, capsys, flag):
    cache = _build(tmp_path, corpus_file)
    out = tmp_path / "bqd.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", query_file, "--out", out,
                flag, "0"]) == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: lambda = 0 is rejected: unpenalized least squares is out of scope\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["duplicate ids", "norm 2", "no columns"])
def test_gen_bq_corrupt_cache_error_names_the_file(tmp_path, query_file, capsys, kind):
    cache = tmp_path / "dict.bin"
    corrupt_cache(cache, kind)
    assert run(["gen-bq", "--dict", cache, "--queries", query_file,
                "--out", tmp_path / "bqd.jsonl"]) == EXIT_FAIL
    assert capsys.readouterr().err == f"error: {cache}: {CACHE_FAULTS[kind][1]}\n"


def test_gen_bq_rejects_a_version_1_cache(tmp_path, query_file, capsys):
    # Caches written before the one binary layout must be rebuilt with build-dict.
    cache, _ = write_old_binary_files(tmp_path)
    out = tmp_path / "bqd.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", query_file, "--out", out]) == EXIT_FAIL
    assert capsys.readouterr().err == f"error: {cache}: bad magic b'BQDI', expected b'QEMB'\n"
    assert not out.exists()


def test_text_and_binary_inputs_give_the_same_outputs(tmp_path, corpus_file, query_file):
    outputs = {}
    for fmt in ("text", "binary"):
        corpus, queries = corpus_file, query_file
        if fmt == "binary":
            corpus, queries = tmp_path / "corpus.bin", tmp_path / "queries.bin"
            for src, dst in ((corpus_file, corpus), (query_file, queries)):
                write_binary_embeddings(dst, fileformats.load_embeddings(src), 8)
        cache, bq = tmp_path / f"{fmt}-dict.bin", tmp_path / f"{fmt}-bq.jsonl"
        assert run(["build-dict", corpus, "--out", cache]) == EXIT_OK
        assert run(["gen-bq", "--dict", cache, "--queries", queries, "--out", bq]) == EXIT_OK
        outputs[fmt] = cache.read_bytes(), bq.read_bytes()
    assert outputs["binary"] == outputs["text"]


def test_gen_bq_manifest_records_config(tmp_path, corpus_file, query_file):
    cache = _build(tmp_path, corpus_file)
    out = tmp_path / "bqd.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", query_file, "--out", out,
                "--lambda-rel", "0.05", "--tol", "1e-8"]) == EXIT_OK
    manifest = json.loads((tmp_path / "bqd.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-bq"
    assert manifest["config"] == {
        "lambda_abs": None, "lambda_rel": 0.05, "tol": 1e-8, "max_sweeps": 1000,
        "exclude_exact": False, "keep_going": False,
    }


@pytest.mark.parametrize("command, flags, extra", [
    ("concat", ["--separator", " | "], {"separator": " | "}),
    ("partition", [], {}),
])
def test_policy_manifest_records_config(tmp_path, command, flags, extra):
    bqd = _bqd_fixture(tmp_path, [(0.9, 0.8, 0.5)])
    out = tmp_path / f"{command}.out"
    assert run([command, "--bqd", bqd, "--out", out, "--s1", "0.5", *flags]) == EXIT_OK
    manifest = json.loads((tmp_path / f"{command}.out.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["config"] == {"s1": 0.5, "s2": 0.82, "s3": 0.53, **extra}


def _bqd_fixture(tmp_path, triples):
    path = tmp_path / "fixture.jsonl"
    records = []
    for i, scores in enumerate(triples):
        texts = [f"basic {i}.{j}?" for j in range(len(scores))]
        records.append(BqdRecord(f"img{i}", f"main {i}?", texts, scores))
    write_bqd(path, records)
    return path


def test_concat_applies_cascade(tmp_path, capsys):
    bqd = _bqd_fixture(tmp_path, [(0.9, 0.8, 0.5), (0.2, 0.1, 0.0)])
    out = tmp_path / "concat.jsonl"
    assert run(["concat", "--bqd", bqd, "--out", out]) == EXIT_OK
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows[0]["appended"] == 3
    assert rows[0]["text"] == "main 0? basic 0.0? basic 0.1? basic 0.2?"
    assert rows[1]["appended"] == 0
    assert rows[1]["text"] == "main 1?"


def test_stats_two_record_hand_values(tmp_path, capsys):
    bqd = _bqd_fixture(tmp_path, [(0.4, 0.2, 0.1), (0.6, 0.3, 0.15)])
    out = tmp_path / "stats.json"
    assert run(["stats", "--bqd", bqd, "--out", out]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "0.5000" in stdout and "0.1000" in stdout
    payload = json.loads(out.read_text())
    assert payload["score1"]["avg"] == pytest.approx(0.5, abs=1e-12)
    assert payload["score1"]["std"] == pytest.approx(0.1, abs=1e-12)


def test_partition_four_branch_fixture(tmp_path, capsys):
    bqd = _bqd_fixture(tmp_path, [
        (0.2, 0.1, 0.05), (0.9, 0.2, 0.1), (0.9, 0.8, 0.2), (0.9, 0.8, 0.5),
    ])
    out = tmp_path / "partition.json"
    assert run(["partition", "--bqd", bqd, "--out", out,
                "--s1", "0.43", "--s2", "0.82", "--s3", "0.53"]) == EXIT_OK
    assert "Total: 4 questions" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["by_appends"] == {"0": 1, "1": 1, "2": 1, "3": 1}
    assert payload["total"] == 4


def test_eval_two_record_fixture(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    anno = tmp_path / "anno.jsonl"
    pred.write_text(
        '{"question_id": "q1", "answer": "red"}\n'
        '{"question_id": "q2", "answer": "2"}\n', encoding="utf-8")
    anno.write_text(
        '{"question_id": "q1", "answers": ["red", "red", "red", "blue"]}\n'
        '{"question_id": "q2", "answers": ["2", "2", "3"]}\n', encoding="utf-8")
    out = tmp_path / "report.json"
    assert run(["eval", "--predictions", pred, "--annotations", anno,
                "--out", out]) == EXIT_OK
    assert "0.833333" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["mean"] == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_eval_per_type(tmp_path, capsys):
    pred = tmp_path / "pred.jsonl"
    anno = tmp_path / "anno.jsonl"
    types = tmp_path / "types.json"
    pred.write_text('{"question_id": "q1", "answer": "red"}\n', encoding="utf-8")
    anno.write_text('{"question_id": "q1", "answers": ["red", "red", "red"]}\n',
                    encoding="utf-8")
    types.write_text('{"q1": "color"}', encoding="utf-8")
    assert run(["eval", "--predictions", pred, "--annotations", anno,
                "--per-type", types]) == EXIT_OK
    assert "color: 1.000000" in capsys.readouterr().out


@pytest.mark.parametrize("content", ['{"q1": "col', '["q1", "color"]', '{"q1": ' + "[" * 100_000],
                         ids=["truncated", "list", "deep nesting"])
def test_eval_malformed_type_map_fails_cleanly(tmp_path, capsys, content):
    pred = tmp_path / "pred.jsonl"
    anno = tmp_path / "anno.jsonl"
    types = tmp_path / "types.json"
    pred.write_text('{"question_id": "q1", "answer": "red"}\n', encoding="utf-8")
    anno.write_text('{"question_id": "q1", "answers": ["red"]}\n', encoding="utf-8")
    types.write_text(content, encoding="utf-8")
    assert run(["eval", "--predictions", pred, "--annotations", anno,
                "--per-type", types]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and "types.json" in err


def test_eval_type_label_lone_surrogate_fails_cleanly(tmp_path, capsys):
    argv = _eval_files(tmp_path, '{"question_id": "q1", "answer": "red"}\n',
                       '{"question_id": "q1", "answers": ["red"]}\n')
    types, out = tmp_path / "types.json", tmp_path / "report.json"
    types.write_text('{"q1": "color \\ud800"}', encoding="utf-8")
    assert run(argv + ["--per-type", types, "--out", out]) == EXIT_FAIL
    assert capsys.readouterr().err == (
        f"error: {types}: type label 'color \\ud800' is not valid Unicode\n")
    assert not out.exists()


def test_stats_candidates_flag(tmp_path, capsys):
    bqd = _bqd_fixture(tmp_path, [(0.4, 0.2, 0.1), (0.6, 0.3, 0.15)])
    assert run(["stats", "--bqd", bqd, "--candidates"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "avg_plus_std=0.6000" in stdout


def test_stats_out_writes_empty_channels_as_null(tmp_path, capsys):
    # score1 == 0 everywhere leaves both ratio channels empty, with NaN
    # figures; the printed tables show them, the JSON report writes null.
    bqd = _bqd_fixture(tmp_path, [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
    out = tmp_path / "stats.json"
    assert run(["stats", "--bqd", bqd, "--candidates", "--out", out]) == EXIT_OK
    assert "score2_over_score1: avg=nan" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert payload["score1"] == {"avg": 0.0, "std": 0.0, "count": 2}
    assert payload["candidates"]["score1"]["avg"] == 0.0
    for name in ("score2_over_score1", "score3_over_score2"):
        assert payload[name] == {"avg": None, "std": None, "count": 0}
        assert payload["candidates"][name] == {
            "avg": None, "avg_plus_std": None, "avg_minus_std": None}


def test_usage_error_exits_with_fail_code(tmp_path, corpus_file, query_file, capsys):
    # exit code 2 is reserved for partial batches, so usage errors map to 1
    cache = _build(tmp_path, corpus_file)
    code = run(["gen-bq", "--dict", cache, "--queries", query_file,
                "--out", tmp_path / "x.jsonl", "--lambda", "0.1",
                "--lambda-rel", "0.2"])
    assert code == EXIT_FAIL
    assert "--lambda" in capsys.readouterr().err
    code = run(["gen-bq", "--dict", cache])  # missing required flags
    assert code == EXIT_FAIL


def test_gen_bq_cache_with_invalid_utf8_id_fails_cleanly(tmp_path, corpus_file, query_file,
                                                         capsys):
    cache = _build(tmp_path, corpus_file)
    raw = bytearray(cache.read_bytes())
    raw[4 + 2 + 8 + 4] = 0xFF  # first byte of record 0's id, after magic, header, length
    cache.write_bytes(bytes(raw))
    code = run(["gen-bq", "--dict", cache, "--queries", query_file,
                "--out", tmp_path / "x.jsonl"])
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and "record 0: id" in err and "dict.bin" in err


def test_build_dict_invalid_utf8_corpus_fails_cleanly(tmp_path, corpus_file, capsys):
    corpus_file.write_bytes(corpus_file.read_bytes().replace(b"item 3", b"item \xff"))
    code = run(["build-dict", corpus_file, "--out", tmp_path / "d.bin"])
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and "corpus.txt" in err


def test_stats_invalid_utf8_bqd_fails_cleanly(tmp_path, capsys):
    bqd = _bqd_fixture(tmp_path, [(0.4, 0.2, 0.1)])
    bqd.write_bytes(bqd.read_bytes().replace(b"main 0", b"main \xff"))
    assert run(["stats", "--bqd", bqd]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fixture.jsonl" in err


_GOOD_BQS = [{"text": "a?", "score": 0.5}, {"text": "b?", "score": 0.2},
             {"text": "c?", "score": 0.1}]
_MALFORMED_BQD_LINES = {  # kind: (line, the start of its message)
    "score not a number": ({"image_id": "i", "mq": "m?",
                            "bqs": [{"text": "a?", "score": "abc"}] + _GOOD_BQS[1:]},
                           "'score' must be a number, got str"),
    "score a numeric string": ({"image_id": "i", "mq": "m?",
                                "bqs": [{"text": "a?", "score": "0.5"}] + _GOOD_BQS[1:]},
                               "'score' must be a number, got str"),
    "score a boolean": ({"image_id": "i", "mq": "m?",
                         "bqs": [{"text": "a?", "score": True}] + _GOOD_BQS[1:]},
                        "'score' must be a number, got bool"),
    "numeric mq": ({"image_id": "i", "mq": 7, "bqs": _GOOD_BQS}, "'mq' must be a string, got int"),
    "numeric bq text": ({"image_id": "i", "mq": "m?",
                         "bqs": [{"text": 5, "score": 0.5}] + _GOOD_BQS[1:]},
                        "'text' must be a string, got int"),
    "numeric image_id": ({"image_id": 12, "mq": "m?", "bqs": _GOOD_BQS},
                         "'image_id' must be a string, got int"),
    "score too large for a float": ({"image_id": "i", "mq": "m?",
                                     "bqs": [{"text": "a?", "score": 10**400}] + _GOOD_BQS[1:]},
                                    "int too large to convert to float"),
    "not an object": ([1, 2, 3], "list indices must be integers or slices, not str"),
    "bare number": (4, "'int' object is not subscriptable"),
    "two bqs": ({"image_id": "i", "mq": "m?", "bqs": _GOOD_BQS[:2]},
                "expected exactly 3 supporting questions, got 2"),
    "four bqs": ({"image_id": "i", "mq": "m?", "bqs": _GOOD_BQS + [{"text": "d?", "score": 0.0}]},
                 "expected exactly 3 supporting questions, got 4"),
    # Scores are range-checked before the count and the order.
    "four bqs, fourth score 7.0": ({"image_id": "i", "mq": "m?",
                                    "bqs": _GOOD_BQS + [{"text": "d?", "score": 7.0}]},
                                   "score 7.0 outside [0, 1]"),
    "unsorted scores": ({"image_id": "i", "mq": "m?", "bqs": _GOOD_BQS[::-1]},
                        "scores must be nonincreasing, got [0.1, 0.2, 0.5]"),
    "score above 1": ({"image_id": "i", "mq": "m?",
                       "bqs": [{"text": "a?", "score": 1.5}] + _GOOD_BQS[1:]},
                      "score 1.5 outside [0, 1]"),
    "negative score": ({"image_id": "i", "mq": "m?",
                        "bqs": _GOOD_BQS[:2] + [{"text": "c?", "score": -0.1}]},
                       "score -0.1 outside [0, 1]"),
    "NaN score": ({"image_id": "i", "mq": "m?",
                   "bqs": [{"text": "a?", "score": float("nan")}] + _GOOD_BQS[1:]},
                  "score nan outside [0, 1]"),
    "NaN last score": ({"image_id": "i", "mq": "m?",
                        "bqs": _GOOD_BQS[:2] + [{"text": "c?", "score": float("nan")}]},
                       "score nan outside [0, 1]"),
    "blank mq": ({"image_id": "i", "mq": "  ", "bqs": _GOOD_BQS}, "mq_text must be nonempty"),
    "empty image_id": ({"image_id": "", "mq": "m?", "bqs": _GOOD_BQS},
                       "image_id must be nonempty"),
    "bqs not a list": ({"image_id": "i", "mq": "m?",
                        "bqs": {str(k): bq for k, bq in enumerate(_GOOD_BQS)}},
                       "string indices must be integers"),
}


@pytest.mark.parametrize("command", ["concat", "stats"])
@pytest.mark.parametrize("kind", sorted(_MALFORMED_BQD_LINES))
def test_malformed_bqd_record_fails_naming_line(tmp_path, capsys, command, kind):
    bqd = tmp_path / "bad.jsonl"
    good = {"image_id": "ok", "mq": "fine?", "bqs": _GOOD_BQS}
    line, message = _MALFORMED_BQD_LINES[kind]
    bqd.write_text(json.dumps(good) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    argv = [command, "--bqd", bqd]
    if command == "concat":
        argv += ["--out", tmp_path / "o.jsonl"]
    assert run(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bqd}:2: malformed record: {message}")


@pytest.mark.parametrize("field", ["image_id", "mq", "text"])
def test_concat_lone_surrogate_fails_cleanly(tmp_path, capsys, field):
    # The JSON escape "\ud800" decodes to a string UTF-8 cannot hold.
    bqs = [dict(bq) for bq in _GOOD_BQS]
    line = {"image_id": "i", "mq": "m?", "bqs": bqs}
    if field == "text":
        bqs[0]["text"] = "a \ud800?"
    else:
        line[field] = "x \ud800?"
    bqd, out = tmp_path / "in.jsonl", tmp_path / "o.jsonl"
    bqd.write_text(json.dumps(line) + "\n", encoding="utf-8")
    assert run(["concat", "--bqd", bqd, "--out", out, "--s1", "0.1", "--s2", "0.1"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and "surrogates not allowed" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


def test_eval_line_not_an_object_fails_cleanly(tmp_path, capsys):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    pred.write_text('{"question_id": "q1", "answer": "red"}\n', encoding="utf-8")
    anno.write_text('{"question_id": "q1", "answers": ["red"]}\n17\n', encoding="utf-8")
    assert run(["eval", "--predictions", pred, "--annotations", anno]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2: expected a JSON object" in err


def _eval_files(tmp_path, predictions, annotations):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    pred.write_text(predictions, encoding="utf-8")
    anno.write_text(annotations, encoding="utf-8")
    return ["eval", "--predictions", pred, "--annotations", anno]


def test_eval_missing_annotation_wins_over_later_json_error(tmp_path, capsys):
    # Each file is read one line at a time, so the first fault in file order
    # wins: a question without annotations before a later JSON error.
    argv = _eval_files(
        tmp_path,
        '{"question_id": "q1", "answer": "red"}\n{"question_id": "q9", "answer": "red"}\n'
        '{"question_id": "q3", "answer": \n',
        '{"question_id": "q1", "answers": ["red"]}\n')
    assert run(argv) == EXIT_FAIL
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'pred.jsonl'}: line 2: no annotations for question_id 'q9'\n")


def test_eval_annotation_duplicate_wins_over_later_json_error(tmp_path, capsys):
    argv = _eval_files(
        tmp_path,
        '{"question_id": "q1", "answer": "red"}\n',
        '{"question_id": "q1", "answers": ["red"]}\n{"question_id": "q1", "answers": ["red"]}\n'
        '{"question_id": "q3", "answers": \n')
    assert run(argv) == EXIT_FAIL
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'anno.jsonl'}: line 2: duplicate question_id 'q1'\n")


@pytest.mark.parametrize("bad", ["pred.jsonl", "anno.jsonl"])
def test_eval_integer_past_the_digit_limit_fails_cleanly(tmp_path, capsys, bad):
    # json reads the line but int() refuses its value: a clean error naming the line.
    digits = "1" * 5000
    argv = _eval_files(
        tmp_path,
        '{"question_id": "q1", "answer": "red"}\n' + (
            f'{{"question_id": "q2", "answer": {digits}}}\n' if bad == "pred.jsonl" else ""),
        '{"question_id": "q1", "answers": ["red"]}\n' + (
            f'{{"question_id": "q2", "answers": [{digits}]}}\n' if bad == "anno.jsonl" else ""))
    assert run(argv) == EXIT_FAIL
    assert capsys.readouterr().err.startswith(
        f"error: {tmp_path / bad}: line 2: Exceeds the limit (4300 digits)")


def test_eval_duplicate_prediction_names_file_and_line(tmp_path, capsys):
    argv = _eval_files(
        tmp_path,
        '{"question_id": "q1", "answer": "red"}\n{"question_id": "q2", "answer": "red"}\n'
        '{"question_id": "q1", "answer": "blue"}\n',
        '{"question_id": "q1", "answers": ["red"]}\n{"question_id": "q2", "answers": ["red"]}\n')
    assert run(argv) == EXIT_FAIL
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'pred.jsonl'}: line 3: duplicate question_id 'q1'\n")


def test_eval_prediction_duplicate_wins_over_later_json_error(tmp_path, capsys):
    argv = _eval_files(
        tmp_path,
        '{"question_id": "q1", "answer": "red"}\n{"question_id": "q1", "answer": "red"}\n'
        '{"question_id": "q3", "answer": \n',
        '{"question_id": "q1", "answers": ["red"]}\n')
    assert run(argv) == EXIT_FAIL
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'pred.jsonl'}: line 2: duplicate question_id 'q1'\n")


@pytest.mark.parametrize("raw", [False, True], ids=["normalized", "raw"])
def test_eval_numeric_ids_and_answers_score_as_strings(tmp_path, capsys, raw):
    argv = _eval_files(tmp_path, '{"question_id": 5, "answer": 2}\n',
                       '{"question_id": "5", "answers": ["2", 2, "3"]}\n')
    assert run(argv + ["--raw"] * raw) == EXIT_OK
    assert capsys.readouterr().out == "accuracy: 0.666667 over 1 questions\n"


def test_eval_raw_keeps_case(tmp_path, capsys):
    argv = _eval_files(tmp_path, '{"question_id": "q1", "answer": "Red"}\n',
                       '{"question_id": "q1", "answers": ["red", "red", "red"]}\n')
    assert run(argv) == EXIT_OK
    assert run(argv + ["--raw"]) == EXIT_OK
    assert capsys.readouterr().out == ("accuracy: 1.000000 over 1 questions\n"
                                       "accuracy: 0.000000 over 1 questions\n")


# Lines that a single raw JSON scan reads differently from json.loads: the
# readers must accept or reject each one as json.loads does, with its words.
_GOOD_LINE = json.dumps({"image_id": "ok", "mq": "fine?", "bqs": _GOOD_BQS})
_EXTRA = f"Extra data: line 1 column {len(_GOOD_LINE) + 2} (char {len(_GOOD_LINE) + 1})"
_BQD_DECODE_CASES = {
    "leading whitespace": (" \t" + _GOOD_LINE, None),
    "trailing whitespace": (_GOOD_LINE + " \r", None),
    "BOM": ("\ufeff" + _GOOD_LINE,
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    "trailing garbage": (_GOOD_LINE + " x", _EXTRA),
    "NaN": (_GOOD_LINE.replace("0.5", "NaN"), "malformed record: score nan outside [0, 1]"),
    "Infinity": (_GOOD_LINE.replace("0.5", "Infinity"),
                 "malformed record: score inf outside [0, 1]"),
    "not an object": ("[1, 2]",
                      "malformed record: list indices must be integers or slices, not str"),
    "deep nesting": ("[" * 100_000, "Value nested too deeply: line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("kind", sorted(_BQD_DECODE_CASES))
def test_bqd_decode_matches_json_loads(tmp_path, capsys, kind):
    line, message = _BQD_DECODE_CASES[kind]
    bqd, out = tmp_path / "in.jsonl", tmp_path / "o.jsonl"
    bqd.write_text(f"{_GOOD_LINE}\n{line}\n", encoding="utf-8")
    code = run(["concat", "--bqd", bqd, "--out", out])
    if message is None:
        assert code == EXIT_OK
        first, second = out.read_text(encoding="utf-8").splitlines()
        assert first == second
        good, same = read_bqd(bqd)
        assert good == same
    else:
        assert code == EXIT_FAIL
        assert capsys.readouterr().err == f"error: {bqd}:2: {message}\n"
        with pytest.raises(ParseError) as exc:
            read_bqd(bqd)
        assert str(exc.value) == f"{bqd}:2: {message}"


_PRED = '{"question_id": "q1", "answer": "red"}'
_ANNO = '{"question_id": "q1", "answers": ["red", "Red ", "red"]}'
_EVAL_DECODE_CASES = {
    "leading whitespace": (" " + _PRED, "\t" + _ANNO, None),
    "trailing whitespace": (_PRED + " \r", _ANNO + "  ", None),
    "NaN and Infinity": ('{"question_id": NaN, "answer": "inf"}',
                         '{"question_id": NaN, "answers": [Infinity, "inf", " INF"]}', None),
    "BOM": ("\ufeff" + _PRED, _ANNO, "pred.jsonl: line 1: Unexpected UTF-8 BOM "
                                     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    "trailing garbage": (_PRED, _ANNO + " x",
                         f"anno.jsonl: line 1: Extra data: line 1 column {len(_ANNO) + 2} "
                         f"(char {len(_ANNO) + 1})"),
    "not an object": (_PRED, '["q1", ["red"]]', "anno.jsonl: line 1: expected a JSON object"),
    "deep nesting": (_PRED, "[" * 100_000,
                     "anno.jsonl: line 1: Value nested too deeply: line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("kind", sorted(_EVAL_DECODE_CASES))
def test_eval_decode_matches_json_loads(tmp_path, capsys, kind):
    pred, anno, message = _EVAL_DECODE_CASES[kind]
    code = run(_eval_files(tmp_path, pred + "\n", anno + "\n"))
    captured = capsys.readouterr()
    if message is None:
        assert code == EXIT_OK
        assert captured.out == "accuracy: 1.000000 over 1 questions\n"
    else:
        assert code == EXIT_FAIL
        assert captured.err == f"error: {tmp_path}/{message}\n"


# Ids and texts with quotes, backslashes, control characters, non-ASCII
# letters, an astral-plane character and the line separators JSON leaves raw.
_AWKWARD = ['plain', 'say "hi"', "back\\slash", "tab\tnew\nline\x01\x1f\x7f", "café 中文",
            "emoji \U0001f600", "line\u2028sep\u2029"]


@pytest.mark.parametrize("per_type", [False, True], ids=["plain", "per-type"])
def test_eval_report_layout_is_json_dumps(tmp_path, per_type):
    records = [AnswerRecord(qid, "red", ["red"] * (i % 4 + 1) + ["blue"])
               for i, qid in enumerate(_AWKWARD)]
    report = evaluate(records)
    payload = {"n": report.n, "mean": report.mean,
               "per_question": [{"question_id": qid, "score": score}
                                for qid, score in report.per_question]}
    if per_type:
        payload["per_type"] = aggregate_by_type(report, {q: f"type {q}" for q in _AWKWARD[::2]})
    out = tmp_path / "report.json"
    _write_json(out, payload)
    assert out.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("per_type", [False, True], ids=["plain", "per-type"])
def test_eval_report_rows_layout_is_json_dumps(tmp_path, per_type):
    records = [AnswerRecord(qid, "red", ["red"] * (i % 4 + 1) + ["blue"])
               for i, qid in enumerate(_AWKWARD)]
    report = evaluate(records)
    payload = {"n": report.n, "mean": report.mean}
    if per_type:
        payload["per_type"] = aggregate_by_type(report, {q: f"type {q}" for q in _AWKWARD[::2]})
    out = tmp_path / "report.json"
    _write_json(out, payload, report.per_question)
    expected = payload | {"per_question": [{"question_id": qid, "score": score}
                                           for qid, score in report.per_question]}
    assert out.read_text(encoding="utf-8") == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_concat_line_layout_is_the_json_encoder(tmp_path):
    bqd, out = tmp_path / "in.jsonl", tmp_path / "o.jsonl"
    write_bqd(bqd, [BqdRecord(f"img {t}", f"{t}?", [f"{t} {k}?" for k in range(3)],
                              (0.9, 0.85, 0.8)) for t in _AWKWARD])
    assert run(["concat", "--bqd", bqd, "--out", out, "--separator", "\u2028"]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == "" and len(lines) == len(_AWKWARD)
    encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    for t, line in zip(_AWKWARD, lines):
        text = "\u2028".join([f"{t}?"] + [f"{t} {k}?" for k in range(3)])
        assert line == encode({"image_id": f"img {t}", "appended": 3, "text": text})
