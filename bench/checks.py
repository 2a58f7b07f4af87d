"""Output checks written independently of ``basiq``.

Nothing here imports the package under test: certificates, the append
cascade, score statistics and consensus accuracy are recomputed from
their definitions, and outputs are parsed as plain JSON.  Each check
returns a list of problems; an empty list means the output is correct.
"""

import hashlib
import json
import math

import numpy as np

THRESHOLDS = (0.43, 0.82, 0.53)      # the CLI's default cascade
SELF_MATCH_SCORE = 1.0 - 0.024       # default lambda_rel on an exact column
# A solve certified to a duality gap of 1e-6 (the CLI default) pins the fit
# A x to within sqrt(2 * 1e-6) of the optimum's, not the score to 1e-6: over
# 4096 random columns a certified self-match scored 0.975989.
SELF_MATCH_ATOL = math.sqrt(2 * 1e-6)
STAT_RTOL = 1e-9


def lasso_certificate(a, b, lam, x):
    """(duality gap, worst stationarity violation) of x for
    min 0.5||Ax - b||^2 + lam ||x||_1, from the optimality conditions."""
    r = b - a @ x
    g = a.T @ r
    dual_norm = float(np.max(np.abs(g)))
    scale = 1.0 if dual_norm <= lam else lam / dual_norm
    primal = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))
    dual = scale * float(r @ b) - 0.5 * scale * scale * float(r @ r)
    kkt = np.where(x > 0, np.abs(g - lam),
                   np.where(x < 0, np.abs(g + lam), np.maximum(np.abs(g) - lam, 0.0)))
    return primal - dual, float(kkt.max())


def certificate_problems(converged, reported_gap, gap, kkt, tol, kkt_tol=None):
    """(failures, contradictions) of one solve's certificate.

    A failure is a solve that is not certified: the independent gap
    exceeds ``tol``, or, where a stationarity bound applies (criterion 1's
    problems), the residual exceeds ``kkt_tol``.  A contradiction is a
    solve whose claimed certificate is false: it reports convergence with
    a gap above ``tol``, or a gap that the recomputation does not match.
    """
    failures, contradictions = [], []
    if not converged or not gap <= tol:
        failures.append(f"duality gap {gap:.3e} against tol {tol:g}")
    if kkt_tol is not None and not kkt <= kkt_tol:
        failures.append(f"stationarity residual {kkt:.3e} > {kkt_tol:g}")
    if converged and not gap <= tol * (1 + 1e-9) + 1e-15:
        contradictions.append(f"claims convergence at independent gap {gap:.3e}")
    if not abs(reported_gap - gap) <= 1e-9 * max(1.0, abs(gap)) + 1e-12:
        contradictions.append(f"reported gap {reported_gap:.3e} != recomputed {gap:.3e}")
    return failures, contradictions


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def appends(scores):
    """Strict three-stage cascade under the default thresholds."""
    s1, s2, s3 = scores
    if not s1 > THRESHOLDS[0]:
        return 0
    if s1 == 0.0 or not s2 / s1 > THRESHOLDS[1]:
        return 1
    if s2 == 0.0 or not s3 / s2 > THRESHOLDS[2]:
        return 2
    return 3


def bqd_problems(records, ids, mq_texts, dictionary_texts=None):
    """One record per query in input order; 3 nonincreasing scores in [0, 1]."""
    out = []
    if len(records) != len(ids):
        return [f"{len(records)} records for {len(ids)} queries"]
    for rec, qid, mq in zip(records, ids, mq_texts):
        if rec.get("image_id") != qid or rec.get("mq") != mq:
            out.append(f"record {rec.get('image_id')!r} out of order or altered")
            continue
        bqs = rec.get("bqs", [])
        scores = [float(bq["score"]) for bq in bqs]
        if len(scores) != 3:
            out.append(f"{qid}: {len(scores)} supporting questions")
        elif not (1.0 >= scores[0] >= scores[1] >= scores[2] >= 0.0):
            out.append(f"{qid}: scores {scores} not nonincreasing in [0, 1]")
        if dictionary_texts is not None and any(bq["text"] not in dictionary_texts for bq in bqs):
            out.append(f"{qid}: supporting question not in the dictionary")
    return out


def planted_problems(records, planted, column_texts):
    """Retrieval laws that hold by construction of the query regimes.

    An exact column scores 1 - lambda_rel, up to the certificate's
    precision, and ranks first; a mixture or
    a lightly perturbed column still ranks its dominant column first.
    Heavily perturbed queries carry no ranking law.
    """
    out = []
    for rec, p in zip(records, planted):
        if p["regime"] == "heavy":
            continue
        top = rec["bqs"][0]
        if top["text"] != column_texts[p["column"]]:
            out.append(f"{rec['image_id']}: {p['regime']} query did not rank its column first")
        elif p["regime"] == "exact" and \
                abs(float(top["score"]) - SELF_MATCH_SCORE) > SELF_MATCH_ATOL:
            out.append(f"{rec['image_id']}: self-match scored {top['score']}")
    return out


def concat_problems(lines, records):
    out = []
    if len(lines) != len(records):
        return [f"concat wrote {len(lines)} lines for {len(records)} records"]
    for line, rec in zip(lines, records):
        bqs = rec["bqs"]
        n = appends([float(bq["score"]) for bq in bqs])
        text = " ".join([rec["mq"]] + [bq["text"] for bq in bqs[:n]])
        if line.get("image_id") != rec["image_id"] or line.get("appended") != n \
                or line.get("text") != text:
            out.append(f"concat {rec['image_id']}: expected {n} appended")
    return out


def _population(values):
    if not values:
        return None
    avg = math.fsum(values) / len(values)
    return avg, math.sqrt(math.fsum((v - avg) ** 2 for v in values) / len(values)), len(values)


def stats_problems(report, records):
    score1, r21, r32 = [], [], []
    for rec in records:
        s1, s2, s3 = (float(bq["score"]) for bq in rec["bqs"])
        score1.append(s1)
        if s1 != 0.0:
            r21.append(s2 / s1)
        if s2 != 0.0:
            r32.append(s3 / s2)
    out = []
    if report.get("total") != len(records):
        out.append(f"stats total {report.get('total')} != {len(records)}")
    for name, values in (("score1", score1), ("score2_over_score1", r21),
                         ("score3_over_score2", r32)):
        want = _population(values)
        got = report.get(name, {})
        if want is None:
            continue
        avg, std, count = want
        if got.get("count") != count or not math.isclose(got.get("avg", math.nan), avg,
                                                          rel_tol=STAT_RTOL, abs_tol=1e-12) \
                or not math.isclose(got.get("std", math.nan), std, rel_tol=STAT_RTOL,
                                    abs_tol=1e-12):
            out.append(f"stats {name}: got {got}, expected avg {avg} std {std} n {count}")
    if set(report.get("candidates", {})) != {"score1", "score2_over_score1",
                                              "score3_over_score2"}:
        out.append("stats: threshold candidates missing")
    return out


def partition_problems(report, records):
    want = [0, 0, 0, 0]
    for rec in records:
        want[appends([float(bq["score"]) for bq in rec["bqs"]])] += 1
    got = [report.get("by_appends", {}).get(str(k)) for k in range(4)]
    out = []
    if got != want:
        out.append(f"partition {got} != expected {want}")
    if report.get("total") != len(records) or sum(want) != len(records):
        out.append(f"partition total {report.get('total')} != {len(records)}")
    return out


def _norm(s):
    return " ".join(s.split()).casefold()


def eval_problems(report, predictions, annotations, matches):
    """Brute-force consensus accuracy: count normalized equal answers."""
    answers = {a["question_id"]: a["answers"] for a in annotations}
    scores = []
    out = []
    for pred, m in zip(predictions, matches):
        p = _norm(pred["answer"])
        count = sum(1 for ans in answers[pred["question_id"]] if _norm(ans) == p)
        if count != m:
            out.append(f"eval input {pred['question_id']}: {count} matches, generated {m}")
        scores.append(min(count / 3.0, 1.0))
    mean = math.fsum(scores) / len(scores)
    got = [q["score"] for q in report.get("per_question", [])]
    if report.get("n") != len(scores) or got != scores:
        out.append("eval per-question scores differ from recomputation")
    if not math.isclose(report.get("mean", math.nan), mean, rel_tol=1e-12, abs_tol=1e-15):
        out.append(f"eval mean {report.get('mean')} != recomputed {mean}")
    return out
