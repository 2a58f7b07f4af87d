"""Seeded input generators for the three benchmark workloads.

Every input is a pure function of (workload, seed).  Files are written
once per seed into the cache directory, outside any timed region, next
to an ``expected.json`` that holds what the output checks need (planted
columns, expected append counts, expected eval scores).  Only the most
recent seed of each workload is kept, so the cache stays small.

The generators touch the program only through its file formats: they
write embedding text files, BQD JSON lines and eval JSON lines with
their own code, never through ``basiq``.
"""

import json
import os
import shutil

import numpy as np

# --- workload sizes and mixes (also recorded in bench/README.md) ----------

CERTIFY_DIM, CERTIFY_N = 32, 128
CERTIFY_POOL = 512                  # problems per seed; cycled if exhausted
CERTIFY_LAMBDA_REL = 0.1
CERTIFY_TOL = 1e-6

RETRIEVE_DIM, RETRIEVE_N = 64, 4096
RETRIEVE_FILES = 48                 # query files per seed, one per pipeline
# Every file holds two queries of each regime, so the proportions are fixed;
# light and heavy add noise of these norms to a unit column.  Small files
# make many pipelines a run, so their median is steady, while the solves
# still dominate gen-bq over its fixed cost of loading the dictionary.
RETRIEVE_REGIMES = ("exact", "mix2", "light", "heavy", "exact", "mix3", "light", "heavy")
LIGHT_NOISE, HEAVY_NOISE = 0.1, 0.25

INGEST_DIM, INGEST_N = 300, 5000
INGEST_DUP_SHARE = 0.10             # corpus texts that are case/space variants
INGEST_RECORDS = 10_000             # BQD records and eval questions
ANSWERS_PER_QUESTION = 10

_FORMS = (
    "what color is the {} {}?", "how many {} are {}?", "is the {} {} moving?",
    "where is the {} {}?", "what type of {} is {}?", "who is holding the {} {}?",
    "is there a {} {} in the picture?", "what is behind the {} {}?",
    "is the {} {} wet?", "what shape is the {} {}?", "are the {} {} real?",
    "what is the {} {} made of?", "is the {} {} old or new?",
    "how big is the {} {}?", "what brand is the {} {}?", "is the {} {} turned on?",
)
_SUBJECTS = (
    "bench", "car", "umbrella", "kitten", "train", "pizza", "laptop", "surfer",
    "clock", "giraffe", "boat", "mirror", "helmet", "sandwich", "kite", "vase",
    "ladder", "horse", "guitar", "bottle", "couch", "skateboard", "lamp", "donut",
    "truck", "parrot", "oven", "scarf", "fence", "tractor", "camera", "mug",
    "bicycle", "zebra", "backpack", "toaster", "banana", "snowboard", "candle", "rug",
)
_PLACES = (
    "near the window", "on the left", "in the street", "by the river",
    "at the back", "under the tree", "on the table", "in the kitchen",
    "next to the door", "in the field", "on the shelf", "at the station",
)
_ANSWERS = (
    "yes", "no", "2", "3", "red", "blue", "white", "black", "green", "wood",
    "metal", "tennis racket", "frisbee", "kitchen", "left", "right", "dog",
    "cat", "pizza", "train station", "nothing", "man", "woman", "round",
)


def _texts(rng, n):
    """n distinct questions (distinct after case and whitespace folding)."""
    total = len(_FORMS) * len(_SUBJECTS) * len(_PLACES)
    if n > total:
        raise ValueError(f"only {total} distinct questions available")
    out = []
    for k in rng.permutation(total)[:n]:
        f, rest = divmod(int(k), len(_SUBJECTS) * len(_PLACES))
        s, p = divmod(rest, len(_PLACES))
        out.append(_FORMS[f].format(_SUBJECTS[s], _PLACES[p]))
    return out


def _variant(rng, text):
    """A case- or whitespace-variant that the normalized dedup must collapse."""
    kind = int(rng.integers(4))
    if kind == 0:
        return text.upper()
    if kind == 1:
        return text.replace(" ", "  ", 1)
    if kind == 2:
        return " " + text + " "
    return text[0].upper() + text[1:]


def _write_embeddings(path, ids, texts, vectors):
    """Text embedding format: header line, then id<TAB>text<TAB>values."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"dim={vectors.shape[1]} count={len(ids)}\n")
        for rec_id, text, vec in zip(ids, texts, vectors):
            fh.write(f"{rec_id}\t{text}\t{' '.join(map(repr, vec.tolist()))}\n")


def _unit(vec):
    # Same arithmetic as the dictionary build, so planted columns match it bit for bit.
    return vec / float(np.linalg.norm(vec))


def certify_problems(seed):
    """(matrix, query) pairs: fresh unit-column 32x128 matrices, Gaussian queries."""
    rng = np.random.default_rng([seed, 1])
    problems = []
    for _ in range(CERTIFY_POOL):
        a = rng.standard_normal((CERTIFY_DIM, CERTIFY_N))
        a /= np.linalg.norm(a, axis=0)
        problems.append((np.asfortranarray(a), rng.standard_normal(CERTIFY_DIM)))
    return problems


def _gen_retrieve(out, seed):
    rng = np.random.default_rng([seed, 2])
    texts = _texts(rng, RETRIEVE_N)
    ids = [f"q{j:05d}" for j in range(RETRIEVE_N)]
    vectors = rng.standard_normal((RETRIEVE_N, RETRIEVE_DIM))
    _write_embeddings(os.path.join(out, "corpus.txt"), ids, texts, vectors)
    unit = np.array([_unit(v) for v in vectors])
    files = []
    for f in range(RETRIEVE_FILES):
        q_ids, q_texts, q_vecs, planted = [], [], [], []
        for n, regime in enumerate(RETRIEVE_REGIMES):
            cols = [int(c) for c in rng.choice(RETRIEVE_N, 3, replace=False)]
            if regime == "exact":
                vec = unit[cols[0]].copy()
            elif regime == "mix2":
                vec = 0.9 * unit[cols[0]] + 0.5 * unit[cols[1]]
            elif regime == "mix3":
                vec = 0.9 * unit[cols[0]] + 0.6 * unit[cols[1]] + 0.4 * unit[cols[2]]
            else:
                noise = rng.standard_normal(RETRIEVE_DIM)
                sigma = LIGHT_NOISE if regime == "light" else HEAVY_NOISE
                vec = unit[cols[0]] + sigma * noise / np.linalg.norm(noise)
            q_ids.append(f"img{f:02d}{n}")
            q_texts.append(f"{regime} query {n} of file {f}: {texts[cols[0]]}")
            q_vecs.append(vec)
            planted.append({"regime": regime, "column": cols[0]})
        name = f"queries{f:02d}.txt"
        _write_embeddings(os.path.join(out, name), q_ids, q_texts, np.array(q_vecs))
        files.append({"file": name, "ids": q_ids, "texts": q_texts, "planted": planted})
    return {"columns": RETRIEVE_N, "dim": RETRIEVE_DIM, "duplicates": 0,
            "texts": texts, "query_files": files}


def _scores_for(rng, appends):
    """Three nonincreasing scores in [0, 1] that the default cascade
    (0.43, 0.82, 0.53) appends exactly ``appends`` questions for, with
    margins wide enough to survive 6-decimal rounding."""
    if appends == 0:
        s1 = 0.0 if rng.random() < 0.1 else rng.uniform(0.01, 0.41)
        return s1, s1 * rng.uniform(0, 1), s1 * rng.uniform(0, 1) * rng.uniform(0, 1)
    s1 = rng.uniform(0.45, 1.0)
    if appends == 1:
        r2 = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 0.8)
        return s1, s1 * r2, s1 * r2 * rng.uniform(0, 1)
    r2 = rng.uniform(0.84, 1.0)
    r3 = rng.uniform(0.0, 0.51) if appends == 2 else rng.uniform(0.55, 1.0)
    return s1, s1 * r2, s1 * r2 * r3


def _gen_ingest(out, seed):
    rng = np.random.default_rng([seed, 3])
    n_dups = int(round(INGEST_DUP_SHARE * INGEST_N))
    distinct = _texts(rng, INGEST_N - n_dups)
    texts = list(distinct)
    # Each duplicate is a variant of an earlier text, inserted after it.
    for _ in range(n_dups):
        src = int(rng.integers(len(texts)))
        texts.insert(int(rng.integers(src + 1, len(texts) + 1)), _variant(rng, texts[src]))
    ids = [f"c{j:06d}" for j in range(INGEST_N)]
    vectors = rng.standard_normal((INGEST_N, INGEST_DIM))
    _write_embeddings(os.path.join(out, "corpus.txt"), ids, texts, vectors)

    bq_texts = rng.choice(len(distinct), (INGEST_RECORDS, 3))
    appends = rng.integers(0, 4, INGEST_RECORDS)
    with open(os.path.join(out, "bqd.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
        for i in range(INGEST_RECORDS):
            scores = sorted(_scores_for(rng, int(appends[i])), reverse=True)
            fh.write(json.dumps({
                "image_id": f"img{i:06d}", "mq": distinct[int(bq_texts[i][0])] + " now?",
                "bqs": [{"text": distinct[t], "score": round(s, 6)}
                        for t, s in zip(bq_texts[i], scores)],
            }) + "\n")

    matches = rng.choice(np.arange(0, 6), INGEST_RECORDS, p=[0.3, 0.15, 0.15, 0.15, 0.15, 0.1])
    with open(os.path.join(out, "predictions.jsonl"), "w", encoding="utf-8", newline="\n") as pf, \
            open(os.path.join(out, "annotations.jsonl"), "w", encoding="utf-8", newline="\n") as af:
        for i in range(INGEST_RECORDS):
            a = rng.permutation(len(_ANSWERS))
            answer, others = _ANSWERS[a[0]], [_ANSWERS[k] for k in a[1:]]
            m = int(matches[i])
            pool = [_variant(rng, answer) if rng.random() < 0.3 else answer for _ in range(m)]
            pool += [others[int(rng.integers(len(others)))]
                     for _ in range(ANSWERS_PER_QUESTION - m)]
            pool = [pool[k] for k in rng.permutation(len(pool))]
            predicted = _variant(rng, answer) if rng.random() < 0.2 else answer
            qid = f"{i:07d}"
            pf.write(json.dumps({"question_id": qid, "answer": predicted}) + "\n")
            af.write(json.dumps({"question_id": qid, "answers": pool}) + "\n")
    return {"columns": INGEST_N - n_dups, "dim": INGEST_DIM, "duplicates": n_dups,
            "records": INGEST_RECORDS, "eval_matches": matches.tolist()}


_GENERATORS = {"retrieve-4096x64": _gen_retrieve, "ingest-score": _gen_ingest}


def prepare(cache_root, workload, seed):
    """Directory holding the workload's files for ``seed``, generated on first use."""
    base = os.path.join(cache_root, workload)
    out = os.path.join(base, f"seed-{seed}")
    if os.path.exists(os.path.join(out, "expected.json")):
        return out
    if os.path.isdir(base):
        shutil.rmtree(base)
    tmp = out + ".tmp"
    os.makedirs(tmp)
    expected = _GENERATORS[workload](tmp, seed)
    with open(os.path.join(tmp, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh)
    os.rename(tmp, out)
    return out


if __name__ == "__main__":
    import sys

    print(prepare(sys.argv[1], sys.argv[2], int(sys.argv[3])))
