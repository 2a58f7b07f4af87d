"""Sparse-coding retrieval of supporting questions for VQA pipelines.

The package encodes questions with a GRU over token embeddings, stacks
unit-normalized sentence vectors into a dictionary, solves an L1
penalized least-squares problem per query to score every dictionary
question, keeps the top three as supporting questions, and appends them
to the query under a threshold cascade.  A co-attention operator and a
consensus accuracy metric round out the pipeline.
"""

from .coattention import (
    AttentionParameters,
    AttentionResult,
    alternating_coattention,
    attention_op,
    softmax,
)
from .dictionary import (
    Dictionary,
    build_dictionary,
    load_dictionary_cache,
    normalize_question_text,
    save_dictionary_cache,
)
from .encoder import (
    GruParameters,
    QuestionRecord,
    TokenEmbeddingTable,
    encode_question,
    gru_step,
    tokenize,
)
from .errors import (
    BasiqError,
    InvalidInputError,
    ParseError,
    ShapeError,
    UnsupportedConfigError,
)
from .generator import (
    BatchResult,
    BqdRecord,
    ScoredBasicQuestion,
    emit_bqd_record,
    generate_basic_questions,
    generate_batch,
    read_bqd,
    record_from_json,
    record_to_json,
    write_bqd,
)
from .policy import (
    DEFAULT_THRESHOLDS,
    ConcatenationPolicy,
    PartitionCounts,
    ScoreStats,
    concatenate,
    decide_appends,
    partition_counts,
    score_statistics,
    threshold_candidates,
)
from .solver import (
    DEFAULT_LAMBDA_REL,
    LassoConfig,
    SparseSolution,
    duality_gap,
    lambda_max,
    soft_threshold,
    solve_lasso,
)
from .vqa_metric import (
    AccuracyReport,
    AnswerRecord,
    evaluate,
    load_answer_records,
    normalize_answer,
    question_score,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AnswerRecord",
    "AttentionParameters",
    "AttentionResult",
    "BasiqError",
    "BatchResult",
    "BqdRecord",
    "ConcatenationPolicy",
    "DEFAULT_LAMBDA_REL",
    "DEFAULT_THRESHOLDS",
    "Dictionary",
    "GruParameters",
    "InvalidInputError",
    "LassoConfig",
    "ParseError",
    "PartitionCounts",
    "QuestionRecord",
    "ScoreStats",
    "ScoredBasicQuestion",
    "ShapeError",
    "SparseSolution",
    "TokenEmbeddingTable",
    "UnsupportedConfigError",
    "alternating_coattention",
    "attention_op",
    "build_dictionary",
    "concatenate",
    "decide_appends",
    "duality_gap",
    "emit_bqd_record",
    "encode_question",
    "evaluate",
    "generate_basic_questions",
    "generate_batch",
    "gru_step",
    "lambda_max",
    "load_answer_records",
    "load_dictionary_cache",
    "normalize_answer",
    "normalize_question_text",
    "partition_counts",
    "question_score",
    "read_bqd",
    "record_from_json",
    "record_to_json",
    "save_dictionary_cache",
    "score_statistics",
    "soft_threshold",
    "softmax",
    "solve_lasso",
    "threshold_candidates",
    "tokenize",
    "write_bqd",
]
