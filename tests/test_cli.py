"""Subcommand wiring: exit codes, outputs, manifests, determinism."""

import json

import numpy as np
import pytest

from basiq import fileformats
from basiq.cli import EXIT_FAIL, EXIT_OK, EXIT_PARTIAL, main
from basiq.generator import ScoredBasicQuestion, emit_bqd_record, write_bqd

from conftest import unit_columns


@pytest.fixture
def corpus_file(tmp_path, rng):
    path = tmp_path / "corpus.txt"
    vectors = unit_columns(rng, 8, 12)
    records = [
        (f"q{j}", f"is item {j} in the frame?", vectors[:, j]) for j in range(12)
    ]
    fileformats.write_embeddings_text(path, records, 8)
    return path


@pytest.fixture
def query_file(tmp_path, rng):
    path = tmp_path / "queries.txt"
    vectors = unit_columns(rng, 8, 3)
    records = [(f"img{j}", f"query number {j}?", vectors[:, j]) for j in range(3)]
    fileformats.write_embeddings_text(path, records, 8)
    return path


def run(args):
    return main([str(a) for a in args])


def test_build_dict_reports_columns(tmp_path, corpus_file, capsys):
    out = tmp_path / "dict.bin"
    assert run(["build-dict", corpus_file, "--out", out]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "12 columns" in stdout
    assert "0 duplicates dropped" in stdout
    assert out.exists()
    assert (tmp_path / "dict.bin.manifest.json").exists()


def test_build_dict_counts_duplicates(tmp_path, rng, capsys):
    path = tmp_path / "dups.txt"
    vectors = unit_columns(rng, 4, 4)
    records = [
        ("a", "What color is it?", vectors[:, 0]),
        ("b", "How many are there?", vectors[:, 1]),
        ("c", "what COLOR is it?", vectors[:, 2]),
        ("d", "what color is it? ", vectors[:, 3]),
    ]
    fileformats.write_embeddings_text(path, records, 4)
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
    fileformats.write_embeddings_text(corpus, records, 8)
    queries = tmp_path / "queries.txt"
    # query duplicates corpus question 2, text and vector alike
    fileformats.write_embeddings_text(
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
    fileformats.write_embeddings_text(path, records, 8)
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


def test_gen_bq_manifest_records_config(tmp_path, corpus_file, query_file):
    cache = _build(tmp_path, corpus_file)
    out = tmp_path / "bqd.jsonl"
    assert run(["gen-bq", "--dict", cache, "--queries", query_file, "--out", out,
                "--lambda-rel", "0.05", "--tol", "1e-8"]) == EXIT_OK
    manifest = json.loads((tmp_path / "bqd.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-bq"
    assert manifest["config"]["lambda_rel"] == 0.05
    assert manifest["config"]["tol"] == 1e-8
    assert manifest["config"]["max_sweeps"] == 1000


def _bqd_fixture(tmp_path, triples):
    path = tmp_path / "fixture.jsonl"
    records = []
    for i, scores in enumerate(triples):
        entries = [ScoredBasicQuestion(f"basic {i}.{j}?", s, j)
                   for j, s in enumerate(scores)]
        records.append(emit_bqd_record(f"img{i}", f"main {i}?", entries))
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


@pytest.mark.parametrize("content", ['{"q1": "col', '["q1", "color"]'],
                         ids=["truncated", "list"])
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


def test_stats_candidates_flag(tmp_path, capsys):
    bqd = _bqd_fixture(tmp_path, [(0.4, 0.2, 0.1), (0.6, 0.3, 0.15)])
    assert run(["stats", "--bqd", bqd, "--candidates"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "avg_plus_std=0.6000" in stdout


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
    raw[6 + 10 + 4] = 0xFF  # first byte of column 0's id, after magic, header, length
    cache.write_bytes(bytes(raw))
    code = run(["gen-bq", "--dict", cache, "--queries", query_file,
                "--out", tmp_path / "x.jsonl"])
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and "column 0: id" in err and "dict.bin" in err


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
_MALFORMED_BQD_LINES = {
    "score not a number": {"image_id": "i", "mq": "m?",
                           "bqs": [{"text": "a?", "score": "abc"}] + _GOOD_BQS[1:]},
    "score a numeric string": {"image_id": "i", "mq": "m?",
                               "bqs": [{"text": "a?", "score": "0.5"}] + _GOOD_BQS[1:]},
    "score a boolean": {"image_id": "i", "mq": "m?",
                        "bqs": [{"text": "a?", "score": True}] + _GOOD_BQS[1:]},
    "numeric mq": {"image_id": "i", "mq": 7, "bqs": _GOOD_BQS},
    "numeric bq text": {"image_id": "i", "mq": "m?",
                        "bqs": [{"text": 5, "score": 0.5}] + _GOOD_BQS[1:]},
    "numeric image_id": {"image_id": 12, "mq": "m?", "bqs": _GOOD_BQS},
    "score too large for a float": {"image_id": "i", "mq": "m?",
                                    "bqs": [{"text": "a?", "score": 10**400}] + _GOOD_BQS[1:]},
    "not an object": [1, 2, 3],
    "bare number": 4,
}


@pytest.mark.parametrize("command", ["concat", "stats"])
@pytest.mark.parametrize("kind", sorted(_MALFORMED_BQD_LINES))
def test_malformed_bqd_record_fails_naming_line(tmp_path, capsys, command, kind):
    bqd = tmp_path / "bad.jsonl"
    good = {"image_id": "ok", "mq": "fine?", "bqs": _GOOD_BQS}
    bqd.write_text(json.dumps(good) + "\n" + json.dumps(_MALFORMED_BQD_LINES[kind]) + "\n",
                   encoding="utf-8")
    argv = [command, "--bqd", bqd]
    if command == "concat":
        argv += ["--out", tmp_path / "o.jsonl"]
    assert run(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bqd}:2: malformed record" in err


def test_eval_line_not_an_object_fails_cleanly(tmp_path, capsys):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    pred.write_text('{"question_id": "q1", "answer": "red"}\n', encoding="utf-8")
    anno.write_text('{"question_id": "q1", "answers": ["red"]}\n17\n', encoding="utf-8")
    assert run(["eval", "--predictions", pred, "--annotations", anno]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2: expected a JSON object" in err
