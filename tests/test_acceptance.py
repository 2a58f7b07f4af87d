"""Acceptance gate: the nine required behaviors at their stated tolerances.

Each criterion records a single PASS/FAIL verdict line (echoed in the
terminal summary) and fails the suite if any of its checks fail.
"""

import json
import time
from importlib import resources

import numpy as np

from basiq.cli import EXIT_OK, main
from basiq.coattention import AttentionParameters, alternating_coattention, attention_op
from basiq.dictionary import build_dictionary
from basiq.generator import generate_batch
from basiq.policy import (
    ConcatenationPolicy,
    decide_appends,
    format_partition_table,
    format_stats_table,
    partition_counts,
    score_statistics,
)
from basiq.solver import LassoConfig, lambda_max, solve_lasso
from basiq.synthetic import make_corpus, make_queries
from basiq.vqa_metric import AnswerRecord, evaluate

from conftest import ACCEPTANCE_LINES, orthogonal_dictionary, question_records, unit_columns


def _verdict(criterion, description, failures):
    status = "FAIL" if failures else "PASS"
    line = f"criterion {criterion} [{status}] {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def kkt_residual(a, b, lam, x):
    """Worst stationarity violation, from the optimality conditions alone."""
    g = a.T @ (b - a @ x)
    res = np.where(
        x > 0, np.abs(g - lam),
        np.where(x < 0, np.abs(g + lam), np.maximum(np.abs(g) - lam, 0.0)),
    )
    return float(res.max())


def test_criterion_1_certificate_suite():
    failures = []
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a = unit_columns(rng, 32, 128)
        b = rng.standard_normal(32)
        lam = 0.1 * lambda_max(a, b)
        sol = solve_lasso(a, b, LassoConfig.absolute(lam, tol=1e-6))
        if not sol.converged or sol.duality_gap > 1e-6:
            failures.append(f"seed {seed}: gap {sol.duality_gap:.3e} not certified")
        kkt = kkt_residual(a, b, lam, sol.coefficients)
        if kkt > 1e-6:
            failures.append(f"seed {seed}: stationarity residual {kkt:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _verdict(1, f"100 random 32x128 solves certified, gap <= 1e-6, "
                f"stationarity checked, {elapsed:.2f}s", failures)


def test_criterion_2_zero_solution_law():
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        a = unit_columns(rng, 16, 48)
        b = rng.standard_normal(16)
        sol = solve_lasso(a, b, LassoConfig.absolute(1.0001 * lambda_max(a, b)))
        if not np.all(sol.coefficients == 0.0):
            failures.append(f"seed {seed}: nonzero coefficients returned")
    _verdict(2, "50 instances above the critical penalty return exactly zero",
             failures)


def test_criterion_3_orthonormal_closed_form():
    failures = []
    rng = np.random.default_rng(3000)
    for n in (1, 2, 4, 8, 16, 32, 64):
        a = np.asfortranarray(np.eye(n))
        b = rng.standard_normal(n)
        lam = 0.3 * float(np.max(np.abs(b)))
        sol = solve_lasso(a, b, LassoConfig.absolute(lam))
        expected = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
        err = float(np.max(np.abs(sol.coefficients - expected)))
        if err > 1e-9:
            failures.append(f"n={n}: deviation {err:.3e} from soft threshold")
    _verdict(3, "identity designs up to 64x64 match the soft-threshold "
                "closed form within 1e-9", failures)


def test_criterion_4_self_match_calibration():
    failures = []
    d = orthogonal_dictionary(32, 20, seed=40)
    b = d.matrix[:, 7].copy()
    sol = solve_lasso(d, b, LassoConfig.relative(0.024))
    top = float(np.max(sol.coefficients))
    if abs(top - 0.976) > 1e-6:
        failures.append(f"top score {top:.9f} not within 1e-6 of 0.976")
    if int(np.argmax(sol.coefficients)) != 7:
        failures.append("planted column is not the top match")
    _verdict(4, f"planted query over an orthogonal remainder scores "
                f"{top:.6f} (target 0.976 +/- 1e-6)", failures)


def _reference_trace(s1v, s2v, s3v):
    """Second transcription of the decision table, kept deliberately naive."""
    appended = 0
    if s1v > 0.43:
        appended = 1
        if s1v != 0.0 and s2v / s1v > 0.82:
            appended = 2
            if s2v != 0.0 and s3v / s2v > 0.53:
                appended = 3
    return appended


def test_criterion_5_concatenation_conformance():
    failures = []
    policy = ConcatenationPolicy(0.43, 0.82, 0.53)
    checked = 0
    for i in range(21):
        for j in range(i + 1):
            for k in range(j + 1):
                scores = (i / 20, j / 20, k / 20)
                got = decide_appends(scores, policy)
                want = _reference_trace(*scores)
                checked += 1
                if got != want:
                    failures.append(f"{scores}: got {got}, reference {want}")
    # equality at each threshold must not append at that stage
    boundary = [
        ((0.43, 0.43, 0.43), 0),   # score1 == s1
        ((0.5, 0.41, 0.0), 1),     # score2/score1 == s2 exactly in binary
        ((0.6, 0.5, 0.265), 2),    # score3/score2 == s3 exactly in binary
    ]
    for scores, want in boundary:
        got = decide_appends(scores, policy)
        if got != want:
            failures.append(f"boundary {scores}: got {got}, want {want}")
    _verdict(5, f"append decision matches an independent trace on "
                f"{checked} grid triples plus boundary-equality cases", failures)


def test_criterion_6_statistics_and_partition():
    from test_policy import make_record

    failures = []
    stats = score_statistics(
        [make_record((0.4, 0.2, 0.1)), make_record((0.6, 0.3, 0.15))]
    )
    for name, got, want in [
        ("avg(score1)", stats.score1.avg, 0.5),
        ("std(score1)", stats.score1.std, 0.1),
        ("avg(score2/score1)", stats.score2_over_score1.avg, 0.5),
        ("std(score2/score1)", stats.score2_over_score1.std, 0.0),
        ("avg(score3/score2)", stats.score3_over_score2.avg, 0.5),
        ("std(score3/score2)", stats.score3_over_score2.std, 0.0),
    ]:
        if abs(got - want) > 1e-12:
            failures.append(f"{name} = {got!r}, want {want} within 1e-12")

    records = [
        make_record((0.2, 0.1, 0.05)),
        make_record((0.9, 0.2, 0.1)),
        make_record((0.9, 0.8, 0.2)),
        make_record((0.9, 0.8, 0.5)),
    ]
    counts = partition_counts(records, ConcatenationPolicy(0.43, 0.82, 0.53))
    if counts.by_appends != (1, 1, 1, 1):
        failures.append(f"partition {counts.by_appends}, want (1, 1, 1, 1)")

    stats_lines = format_stats_table(stats).splitlines()
    if stats_lines[0].split() != ["score1", "score2/score1", "score3/score2"] \
            or not stats_lines[1].startswith("avg") \
            or not stats_lines[2].startswith("std"):
        failures.append("statistics table layout is off")
    part_lines = format_partition_table(counts).splitlines()
    if part_lines[0] != "Total: 4 questions" or not part_lines[3].startswith("# Q"):
        failures.append("partition table layout is off")
    _verdict(6, "hand-computed statistics within 1e-12, exact partition "
                "counts, report layouts intact", failures)


def test_criterion_7_attention_kernel():
    failures = []
    for seed in range(1000):
        rng = np.random.default_rng(7000 + seed)
        d = int(rng.integers(1, 7))
        t = int(rng.integers(1, 8))
        k = int(rng.integers(1, 6))
        d_g = int(rng.integers(1, 5))
        x = 3.0 * rng.standard_normal((d, t))
        g = rng.standard_normal(d_g)
        params = AttentionParameters.random(k, d, d_g, seed=seed, scale=1.5)
        result = attention_op(x, g, params)
        w = result.weights
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            failures.append(f"seed {seed}: weights leave the simplex")
        lo, hi = x.min(axis=1) - 1e-12, x.max(axis=1) + 1e-12
        if np.any(result.attended < lo) or np.any(result.attended > hi):
            failures.append(f"seed {seed}: attended vector left the hull")
        perm = rng.permutation(t)
        permuted = attention_op(x[:, perm], g, params)
        if not np.allclose(permuted.weights, w[perm], atol=1e-13):
            failures.append(f"seed {seed}: weights not permutation-equivariant")
        if not np.allclose(permuted.attended, result.attended, atol=1e-12):
            failures.append(f"seed {seed}: attended vector moved under permutation")
        if len(failures) > 5:
            break

    for seed in range(100):
        rng = np.random.default_rng(7500 + seed)
        q = rng.standard_normal((4, 5))
        v = rng.standard_normal((4, 6))
        steps = [AttentionParameters.random(3, 4, 4, seed=seed * 3 + s)
                 for s in range(3)]
        s_hat, v_hat, q_hat = alternating_coattention(q, v, steps)
        first = attention_op(q, np.zeros(4), steps[0])
        second = attention_op(v, first.attended, steps[1])
        third = attention_op(q, second.attended, steps[2])
        if not (np.array_equal(s_hat, first.attended)
                and np.array_equal(v_hat, second.attended)
                and np.array_equal(q_hat, third.attended)):
            failures.append(f"seed {seed}: three-step path differs from "
                            "composed operator calls")
    _verdict(7, "1000 attention instances keep simplex/hull/equivariance; "
                "alternating procedure equals composed calls bit for bit",
             failures)


def test_criterion_8_accuracy_metric():
    failures = []
    fixtures = [
        ("none", ["blue"] * 10, 0.0),
        ("two", ["two"] * 2 + ["blue"] * 8, 2.0 / 3.0),
        ("five", ["five"] * 5 + ["blue"] * 5, 1.0),
    ]
    for predicted, answers, want in fixtures:
        report = evaluate([AnswerRecord(question_id="q", predicted=predicted,
                                        annotator_answers=tuple(answers))])
        if report.mean != want:
            failures.append(f"{predicted!r}: score {report.mean}, want {want}")

    rng = np.random.default_rng(8000)
    pool = ["yes", "no", "red", "blue", "1", "2"]
    records = [
        AnswerRecord(
            question_id=f"q{i}",
            predicted=pool[rng.integers(len(pool))],
            annotator_answers=tuple(pool[rng.integers(len(pool))] for _ in range(10)),
        )
        for i in range(100)
    ]
    report = evaluate(records)
    for (qid, got), rec in zip(report.per_question, records):
        want = min(sum(a == rec.predicted for a in rec.annotator_answers) / 3.0, 1.0)
        if got != want:
            failures.append(f"{qid}: score {got}, brute force {want}")
    _verdict(8, "fixture scores {0, 2/3, 1} exact; 100 random records match "
                "brute-force re-evaluation", failures)


def _run_pipeline(workdir, corpus_path, queries_path):
    outputs = {
        "dict": workdir / "dict.bin",
        "bqd": workdir / "bqd.jsonl",
        "concat": workdir / "concat.jsonl",
        "stats": workdir / "stats.json",
        "partition": workdir / "partition.json",
    }
    steps = [
        ["build-dict", corpus_path, "--out", outputs["dict"]],
        ["gen-bq", "--dict", outputs["dict"], "--queries", queries_path,
         "--out", outputs["bqd"]],
        ["concat", "--bqd", outputs["bqd"], "--out", outputs["concat"]],
        ["stats", "--bqd", outputs["bqd"], "--out", outputs["stats"]],
        ["partition", "--bqd", outputs["bqd"], "--out", outputs["partition"]],
    ]
    for step in steps:
        code = main([str(a) for a in step])
        if code != EXIT_OK:
            raise AssertionError(f"pipeline step {step[0]} exited {code}")
    return outputs


def test_criterion_9_end_to_end(tmp_path, capsys):
    failures = []
    data = resources.files("basiq") / "data"
    corpus = data / "mini_corpus.txt"
    queries = data / "mini_queries.txt"

    run1 = tmp_path / "run"
    run1.mkdir()
    start = time.perf_counter()
    outputs = _run_pipeline(run1, corpus, queries)
    elapsed = time.perf_counter() - start
    if elapsed >= 2.0:
        failures.append(f"pipeline took {elapsed:.2f}s, budget 2s")

    # independent reader: every record ordered and in range
    lines = outputs["bqd"].read_text(encoding="utf-8").splitlines()
    if len(lines) != 8:
        failures.append(f"{len(lines)} records, want 8")
    for line in lines:
        obj = json.loads(line)
        scores = [bq["score"] for bq in obj["bqs"]]
        if scores != sorted(scores, reverse=True) or len(scores) != 3:
            failures.append(f"{obj['image_id']}: scores {scores} out of order")
        if any(not 0.0 <= s <= 1.0 for s in scores):
            failures.append(f"{obj['image_id']}: scores {scores} out of range")

    # rerun over the same paths: every artifact byte-identical
    first_bytes = {k: p.read_bytes() for k, p in outputs.items()}
    manifests = {p: (run1 / (p.name + ".manifest.json")).read_bytes()
                 for p in outputs.values()
                 if (run1 / (p.name + ".manifest.json")).exists()}
    _run_pipeline(run1, corpus, queries)
    for key, path in outputs.items():
        if path.read_bytes() != first_bytes[key]:
            failures.append(f"rerun changed {key}")
    for path, raw in manifests.items():
        again = (run1 / (path.name + ".manifest.json")).read_bytes()
        if again != raw:
            failures.append(f"rerun changed manifest of {path.name}")

    # solve time must scale subquadratically in the column count
    times = {}
    for n in (64, 1024):
        corpus_records = make_corpus(n, 16, seed=7)
        d = build_dictionary(corpus_records)
        batch = [(r.id, r.text, r.vector)
                 for r in make_queries(corpus_records, 16, seed=11)]
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            generate_batch(d, batch)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    exponent = float(np.log(times[1024] / times[64]) / np.log(16.0))
    if exponent >= 2.0:
        failures.append(f"solve-time exponent {exponent:.2f} is not subquadratic")

    _verdict(9, f"mini pipeline ran in {elapsed:.2f}s, reruns byte-identical, "
                f"x16 columns scale with exponent {exponent:.2f}", failures)
