"""Sparse-coding retrieval of supporting questions for VQA pipelines.

The package reads precomputed question embeddings, stacks
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
from .errors import (
    BasiqError,
    InvalidInputError,
    ParseError,
    ShapeError,
    UncertifiedSolveError,
    UnsupportedConfigError,
)
from .fileformats import QuestionRecord
from .generator import (
    BatchResult,
    BqdRecord,
    generate_basic_questions,
    generate_batch,
    read_bqd,
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
    solve_lasso,
)
from .vqa_metric import (
    AccuracyReport,
    AnswerRecord,
    evaluate,
    load_answer_records,
    question_score,
)

__version__ = "0.1.0"
