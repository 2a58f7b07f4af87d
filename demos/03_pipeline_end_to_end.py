"""Run the whole pipeline in-process on the bundled mini corpus.

Mirrors what the command-line flow does: build the dictionary, generate
records for every query, append under the threshold cascade, and report
score statistics and the partition of questions by appended count.
"""

from importlib import resources

from basiq.dictionary import build_dictionary
from basiq.fileformats import load_embeddings
from basiq.generator import generate_batch
from basiq.policy import (
    ConcatenationPolicy,
    concatenate,
    decide_appends,
    format_partition_table,
    format_stats_table,
    partition_counts,
    score_statistics,
)

data = resources.files("basiq") / "data"
corpus = load_embeddings(data / "mini_corpus.txt")
queries = load_embeddings(data / "mini_queries.txt")

d = build_dictionary(corpus)
print(f"dictionary: {d.n_columns} columns, dim {d.dim}")

result = generate_batch(d, [(r.id, r.text, r.vector) for r in queries])
print(f"generated {len(result.records)} records "
      f"({result.diagnostics.clamped} scores clamped)\n")

policy = ConcatenationPolicy(0.43, 0.82, 0.53)
for record in result.records:
    n = decide_appends(record.scores, policy)
    merged = concatenate(record.mq_text, record.texts, n)
    marker = "=" if merged == record.mq_text else "+"
    print(f" {marker} {merged}")

print()
print(format_stats_table(score_statistics(result.records)))
print()
print(format_partition_table(partition_counts(result.records, policy)))
