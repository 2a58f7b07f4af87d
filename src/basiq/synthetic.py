"""Seeded synthetic corpora and queries for demos, fixtures, and smoke tests.

Question texts are generated from templates so they read like real
dataset questions; vectors are seeded Gaussian draws.  Everything here
is deterministic in its seed.
"""

import numpy as np

from .fileformats import QuestionRecord

_FORMS = (
    "what color is the {}?",
    "how many {} are there?",
    "is the {} moving?",
    "where is the {}?",
    "what type of {} is this?",
    "who is holding the {}?",
    "is there a {} in the picture?",
    "what is behind the {}?",
    "is the {} wet?",
    "what shape is the {}?",
    "are these {} real?",
    "what is the {} made of?",
    "is the {} old or new?",
    "how big is the {}?",
    "what brand is the {}?",
    "is the {} turned on?",
)

_SUBJECTS = (
    "bench", "car", "umbrella", "kitten", "train", "pizza", "laptop", "surfer",
    "clock", "giraffe", "boat", "mirror", "helmet", "sandwich", "kite", "vase",
    "ladder", "horse", "guitar", "bottle", "couch", "skateboard", "lamp", "donut",
    "truck", "parrot", "oven", "scarf", "fence", "tractor", "camera", "mug",
    "bicycle", "zebra", "backpack", "toaster", "banana", "snowboard", "candle", "rug",
    "bus", "sheep", "wallet", "printer", "apple", "canoe", "drum", "plant",
    "taxi", "eagle", "stool", "monitor", "melon", "sled", "violin", "jar",
    "tram", "otter", "hammock", "router", "pear", "cart", "flute", "bowl",
    "ferry", "crow", "bench press", "scanner", "plum", "wagon", "cello", "pot",
    "jeep", "swan", "tent", "speaker", "grape", "trolley", "banjo", "pan",
)


def question_texts(n):
    """The first n distinct template questions, in a fixed enumeration order."""
    if n > len(_FORMS) * len(_SUBJECTS):
        raise ValueError(f"only {len(_FORMS) * len(_SUBJECTS)} distinct questions available")
    out = []
    for i in range(n):
        form = _FORMS[i % len(_FORMS)]
        subject = _SUBJECTS[(i // len(_FORMS)) % len(_SUBJECTS)]
        out.append(form.format(subject))
    return out


def make_corpus(n, dim, seed=7):
    """n question records with seeded Gaussian embedding vectors."""
    rng = np.random.default_rng(seed)
    texts = question_texts(n)
    records = []
    for i, text in enumerate(texts):
        vec = rng.standard_normal(dim)
        records.append(QuestionRecord(id=f"q{i:05d}", text=text, vector=vec))
    return records


def make_queries(corpus_records, dim, seed=11):
    """Eight query records exercising different retrieval regimes.

    Two copy a corpus vector exactly (self-match), three mix two or
    three corpus vectors with dominant-to-weak weights, two perturb one
    corpus vector with noise, and one is pure noise.
    """
    rng = np.random.default_rng(seed)
    cols = {rec.id: np.asarray(rec.vector) / np.linalg.norm(rec.vector) for rec in corpus_records}
    ids = list(cols)

    def col(i):
        return cols[ids[i % len(ids)]]

    def noise():
        return rng.standard_normal(dim)

    specs = [
        ("img0001", "what color is the wooden bench?", col(0)),
        ("img0002", "how many stray cars are there?", col(1)),
        ("img0003", "is this couch made of leather?", 0.9 * col(4) + 0.8 * col(9)),
        ("img0004", "what kind of train station is this?", 0.9 * col(2) + 0.8 * col(7) + 0.6 * col(12)),
        ("img0005", "where is the striped umbrella?", 0.8 * col(3) + 0.3 * col(20)),
        ("img0006", "is the small kitten sleeping?", col(5) + 0.25 * noise()),
        ("img0007", "what type of pizza topping is that?", col(6) + 0.4 * noise()),
        ("img0008", "could anyone explain the scene?", 1.2 * noise()),
    ]
    return [QuestionRecord(id=i, text=t, vector=v) for i, t, v in specs]
