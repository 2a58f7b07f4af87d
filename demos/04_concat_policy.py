"""Explore how the threshold cascade reacts as thresholds move.

Sweeps the first threshold over a synthetic score population and shows
the partition shifting mass from three-append to zero-append, then
derives data-driven threshold candidates from the statistics.
"""

import numpy as np

from basiq.generator import BqdRecord
from basiq.policy import (
    ConcatenationPolicy,
    partition_counts,
    score_statistics,
    threshold_candidates,
)

rng = np.random.default_rng(9)
records = []
for i in range(400):
    s1 = float(rng.beta(4, 2))
    s2 = s1 * float(rng.beta(3, 2))
    s3 = s2 * float(rng.beta(3, 2))
    texts = [f"q{i}.{j}?" for j in range(3)]
    records.append(BqdRecord(f"img{i}", f"main {i}?", texts, (s1, s2, s3)))

print("first threshold sweep (second 0.82, third 0.53):")
print("  s1     0 BQ   1 BQ   2 BQ   3 BQ")
for s1 in (0.1, 0.3, 0.5, 0.7, 0.9):
    counts = partition_counts(records, ConcatenationPolicy(s1, 0.82, 0.53))
    row = "  ".join(f"{c:5d}" for c in counts.by_appends)
    print(f"  {s1:.2f} {row}")

stats = score_statistics(records)
print("\ndata-driven threshold candidates (avg, avg+std, avg-std):")
for channel, grid in threshold_candidates(stats).items():
    values = "  ".join(f"{name}={value:.4f}" for name, value in grid.items())
    print(f"  {channel}: {values}")
