"""Question encoding: a gated recurrent unit with loadable parameters.

The recurrence below maps a token sequence to a fixed-size vector: the
final hidden state stands in for the whole question.  Parameters are
plain float64 matrices, loadable from a matrix-section file or drawn
from a seeded generator; there is no training loop.  The production
path for realistic embeddings is ``load_embeddings``, which reads
precomputed sentence vectors from an embedding file, so nothing
downstream depends on trained weights.

All operations here are pure functions over immutable inputs.
"""

import string
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import fileformats
from .errors import InvalidInputError, ShapeError
from .immutable import readonly_array

_PUNCT_TABLE = str.maketrans({ch: f" {ch} " for ch in string.punctuation})


class QuestionRecord(NamedTuple):
    """One embedded question: stable id, raw text, and its vector."""

    id: str
    text: str
    vector: np.ndarray


@dataclass(frozen=True)
class GruParameters(fileformats.MatrixSections):
    """The six weight matrices of the recurrence.

    ``u_r``, ``u_z``, ``u`` act on the previous hidden state
    (hidden_dim x hidden_dim); ``w_r``, ``w_z``, ``w`` act on the input
    token embedding (hidden_dim x input_dim).  ``from_file`` and
    ``to_file`` keep one section per matrix, under these names.
    """

    u_r: np.ndarray
    u_z: np.ndarray
    u: np.ndarray
    w_r: np.ndarray
    w_z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, readonly_array(getattr(self, f.name), f.name, 2))
        h, h2 = self.u_r.shape
        if h != h2:
            raise ShapeError(f"u_r must be square, got {self.u_r.shape}")
        for name in ("u_z", "u"):
            if getattr(self, name).shape != (h, h):
                raise ShapeError(f"{name} shape {getattr(self, name).shape} != u_r shape {(h, h)}")
        d = self.w_r.shape[1]
        for name in ("w_r", "w_z", "w"):
            if getattr(self, name).shape != (h, d):
                raise ShapeError(f"{name} shape {getattr(self, name).shape} != w_r shape {(h, d)}")
        if h < 1 or d < 1:
            raise ShapeError("hidden_dim and input_dim must both be >= 1")

    @property
    def hidden_dim(self):
        return self.u_r.shape[0]

    @property
    def input_dim(self):
        return self.w_r.shape[1]

    @classmethod
    def random(cls, hidden_dim, input_dim, seed=0, scale=0.1):
        """Seeded synthetic parameters, for demos and tests."""
        rng = np.random.default_rng(seed)
        mk = lambda rows, cols: scale * rng.standard_normal((rows, cols))
        return cls(
            u_r=mk(hidden_dim, hidden_dim),
            u_z=mk(hidden_dim, hidden_dim),
            u=mk(hidden_dim, hidden_dim),
            w_r=mk(hidden_dim, input_dim),
            w_z=mk(hidden_dim, input_dim),
            w=mk(hidden_dim, input_dim),
        )


@dataclass(frozen=True)
class TokenEmbeddingTable:
    """Maps tokens to input vectors; unknown tokens share one reserved vector."""

    vectors: dict
    input_dim: int
    unknown: np.ndarray = None

    def __post_init__(self):
        if self.input_dim < 1:
            raise ShapeError("input_dim must be >= 1")
        clean = {}
        for tok, vec in self.vectors.items():
            v = readonly_array(vec, f"vector for token {tok!r}", 1)
            if v.shape != (self.input_dim,):
                raise ShapeError(
                    f"vector for token {tok!r} has length {v.shape[0]}, expected {self.input_dim}"
                )
            clean[tok] = v
        object.__setattr__(self, "vectors", clean)
        unk = self.unknown if self.unknown is not None else np.zeros(self.input_dim)
        unk = readonly_array(unk, "unknown-token vector", 1)
        if unk.shape != (self.input_dim,):
            raise ShapeError("unknown-token vector length does not match input_dim")
        object.__setattr__(self, "unknown", unk)

    def vector(self, token):
        return self.vectors.get(token, self.unknown)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_step(params, h_prev, x):
    """One step of the recurrence: gates, candidate state, convex blend.

    reset    r = sigmoid(u_r h + w_r x)
    update   z = sigmoid(u_z h + w_z x)
    candidate    hbar = tanh(u (r*h) + w x)
    new state    h' = z * hbar + (1 - z) * h
    """
    h_prev = np.asarray(h_prev, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if h_prev.shape != (params.hidden_dim,):
        raise ShapeError(
            f"h_prev has shape {h_prev.shape}, expected ({params.hidden_dim},)"
        )
    if x.shape != (params.input_dim,):
        raise ShapeError(f"x has shape {x.shape}, expected ({params.input_dim},)")
    r = _sigmoid(params.u_r @ h_prev + params.w_r @ x)
    z = _sigmoid(params.u_z @ h_prev + params.w_z @ x)
    hbar = np.tanh(params.u @ (r * h_prev) + params.w @ x)
    return z * hbar + (1.0 - z) * h_prev


def tokenize(text):
    """Lowercase, split punctuation into separate tokens, then split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def encode_question(params, table, tokens):
    """Run the recurrence over the token sequence from a zero initial state."""
    if not tokens:
        raise InvalidInputError("cannot encode an empty token sequence")
    h = np.zeros(params.hidden_dim)
    for tok in tokens:
        h = gru_step(params, h, table.vector(tok))
    return h


def load_embeddings(path):
    """Load precomputed sentence embeddings as QuestionRecords.

    Accepts either the text or the binary embedding format; rejects
    dimension mismatches, duplicate ids, and non-finite values.
    """
    return [QuestionRecord(*rec) for rec in fileformats.read_embeddings(path)]
