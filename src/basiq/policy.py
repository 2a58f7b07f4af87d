"""Threshold-driven concatenation of retrieved questions onto the query.

The append rule is a strict three-stage cascade over the sorted scores
(score1 >= score2 >= score3, all in [0, 1]):

    append the first question   iff score1 > s1
    then append the second      iff score2 / score1 > s2
    then append the third       iff score3 / score2 > s3

All inequalities are strict, so threshold equality never appends.  A
zero denominator means there was no meaningful question at the previous
rank: the test fails and, for statistics, the record is excluded from
that ratio's average (the exclusion is counted, not hidden).

Also here: population statistics of the three score channels, the
candidate threshold grid derived from them (avg, avg+std, avg-std per
channel), partition accounting over a record set, and report rendering
as dicts and aligned text tables.  The policy is a checked tuple; the
statistics and counts are named tuples.
"""

import math
from typing import NamedTuple

from .errors import InvalidInputError
from .generator import check_scores
from .immutable import checked_tuple, is_real

DEFAULT_THRESHOLDS = (0.43, 0.82, 0.53)

STAT_CHANNELS = ("score1", "score2_over_score1", "score3_over_score2")


class ConcatenationPolicy(checked_tuple("ConcatenationPolicy", "s1 s2 s3")):
    """The three append thresholds, each in [0, 1], kept as Python floats."""

    __slots__ = ()

    def __new__(cls, s1=DEFAULT_THRESHOLDS[0], s2=DEFAULT_THRESHOLDS[1],
                s3=DEFAULT_THRESHOLDS[2]):
        for name, v in (("s1", s1), ("s2", s2), ("s3", s3)):
            if not is_real(v):
                raise InvalidInputError(f"{name} must be a real number, got {v!r}")
            if not 0.0 <= v <= 1.0:
                raise InvalidInputError(f"{name}={v!r} outside [0, 1]")
        return tuple.__new__(cls, (float(s1), float(s2), float(s3)))


class StatEntry(NamedTuple):
    avg: float
    std: float
    count: int  # shadows tuple.count


class ScoreStats(NamedTuple):
    """Population avg/std of score1, score2/score1, score3/score2."""

    score1: StatEntry
    score2_over_score1: StatEntry
    score3_over_score2: StatEntry
    total: int

    @property
    def channels(self):
        """The three entries, in ``STAT_CHANNELS`` order."""
        return (self.score1, self.score2_over_score1, self.score3_over_score2)

    def as_dict(self):
        return {
            name: {"avg": entry.avg, "std": entry.std, "count": entry.count}
            for name, entry in zip(STAT_CHANNELS, self.channels)
        } | {"total": self.total}


class PartitionCounts(NamedTuple):
    """How many records receive 0, 1, 2, or 3 appended questions."""

    by_appends: tuple
    total: int

    def as_dict(self):
        return {
            "total": self.total,
            "by_appends": {str(k): self.by_appends[k] for k in range(4)},
        }


def decide_appends(scores, policy):
    """Number of questions (0..3) to append under the strict cascade; the
    scores must keep the record's score law (``check_scores``)."""
    s1, s2, s3 = check_scores(scores)
    if not s1 > policy.s1:
        return 0
    if s1 == 0.0 or not s2 / s1 > policy.s2:
        return 1
    if s2 == 0.0 or not s3 / s2 > policy.s3:
        return 2
    return 3


def concatenate(mq_text, texts, n, separator=" "):
    """Query text followed by the first ``n`` of ``texts``, best score first;
    ``n`` is the count that ``decide_appends`` gives for their scores."""
    if not mq_text.strip():
        raise InvalidInputError("mq_text must be nonempty")
    return separator.join([mq_text, *texts[:n]])


def _population_stats(values):
    n = len(values)
    if n == 0:
        return StatEntry(avg=math.nan, std=math.nan, count=0)
    avg = math.fsum(values) / n
    var = math.fsum((v - avg) ** 2 for v in values) / n
    return StatEntry(avg=avg, std=math.sqrt(var), count=n)


def score_statistics(records):
    """Population statistics over the three score channels of a record set.

    Ratio channels skip records whose denominator is zero; the channel
    counts record how many contributed.
    """
    records = list(records)
    if not records:
        raise InvalidInputError("cannot compute statistics over zero records")
    score1 = []
    ratio21 = []
    ratio32 = []
    for rec in records:
        s1, s2, s3 = rec.scores
        score1.append(s1)
        if s1 != 0.0:
            ratio21.append(s2 / s1)
        if s2 != 0.0:
            ratio32.append(s3 / s2)
    return ScoreStats(
        score1=_population_stats(score1),
        score2_over_score1=_population_stats(ratio21),
        score3_over_score2=_population_stats(ratio32),
        total=len(records),
    )


def threshold_candidates(stats):
    """Initial-guess grid per channel: avg, avg+std, avg-std (clipped to [0,1])."""
    out = {}
    for name, entry in zip(STAT_CHANNELS, stats.channels):
        out[name] = {
            "avg": entry.avg,
            "avg_plus_std": min(entry.avg + entry.std, 1.0),
            "avg_minus_std": max(entry.avg - entry.std, 0.0),
        }
    return out


def partition_counts(records, policy):
    """Count records by how many questions the policy appends to each."""
    records = list(records)
    if not records:
        raise InvalidInputError("cannot partition zero records")
    counts = [0, 0, 0, 0]
    for rec in records:
        counts[decide_appends(rec.scores, policy)] += 1
    return PartitionCounts(by_appends=tuple(counts), total=len(records))


def _align(rows):
    """Rows of cells as left-aligned columns two spaces apart, right edges trimmed."""
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


def format_stats_table(stats):
    """Aligned two-row table: avg and std per score channel."""
    headers = ["", "score1", "score2/score1", "score3/score2"]
    avg_row = ["avg"] + [f"{e.avg:.4f}" for e in stats.channels]
    std_row = ["std"] + [f"{e.std:.4f}" for e in stats.channels]
    return "\n".join(_align([headers, avg_row, std_row]))


def format_partition_table(counts):
    """Aligned table: share and count of records per number of appends."""
    total = counts.total
    headers = [""] + [f"{k} BQ" for k in range(4)]
    pct_row = [""] + [f"({100.0 * c / total:.2f}%)" for c in counts.by_appends]
    q_row = ["# Q"] + [str(c) for c in counts.by_appends]
    return "\n".join([f"Total: {total} questions"] + _align([headers, pct_row, q_row]))
