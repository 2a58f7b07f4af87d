"""Command-line pipeline driver.

One binary, six subcommands: ``build-dict``, ``gen-bq``, ``concat``,
``stats``, ``partition``, ``eval``.  Every run is reproducible: the
same inputs and flags produce byte-identical outputs, and each command
that writes a file also writes a ``<file>.manifest.json`` recording the
resolved configuration (no timestamps, so manifests rerun identically).

Exit status: 0 on success, 1 on a fatal or file-level error, 2 when
record-level failures were skipped under ``--keep-going``.
"""

import argparse
import dataclasses
import json
import sys

from . import fileformats
from .dictionary import build_dictionary, load_dictionary_cache, save_dictionary_cache
from .encoder import load_embeddings
from .errors import BasiqError, ParseError
from .generator import generate_batch, read_bqd, record_to_json
from .policy import (
    DEFAULT_THRESHOLDS,
    ConcatenationPolicy,
    concatenate,
    decide_appends,
    format_partition_table,
    format_stats_table,
    partition_counts,
    partition_to_json,
    score_statistics,
    stats_to_json,
    threshold_candidates,
)
from .solver import DEFAULT_LAMBDA_REL, DEFAULT_MAX_SWEEPS, DEFAULT_TOL, LassoConfig
from .vqa_metric import aggregate_by_type, evaluate, load_answer_records, report_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARTIAL = 2


def _write_manifest(out_path, command, inputs, config):
    """Auditable record of one run: inputs, output, resolved knobs."""
    manifest = {
        "command": command,
        "inputs": inputs,
        "output": str(out_path),
        "config": config,
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
        fh.write("\n")


def _policy_from_args(args):
    return ConcatenationPolicy(s1=args.s1, s2=args.s2, s3=args.s3)


def _lasso_config_from_args(args):
    knobs = dict(tol=args.tol, max_sweeps=args.max_sweeps, nonnegative=args.nonneg)
    if args.lambda_abs is not None:
        return LassoConfig.absolute(args.lambda_abs, **knobs)
    rel = DEFAULT_LAMBDA_REL if args.lambda_rel is None else args.lambda_rel
    return LassoConfig.relative(rel, **knobs)


def cmd_build_dict(args):
    records = load_embeddings(args.corpus)
    d = build_dictionary(records, dedup=args.dedup)
    dropped = len(records) - d.n_columns
    save_dictionary_cache(d, args.out)
    _write_manifest(args.out, "build-dict", {"corpus": str(args.corpus)},
                    {"dedup": args.dedup})
    print(f"dictionary: {d.n_columns} columns, dim {d.dim}, {dropped} duplicates dropped")
    return EXIT_OK


def cmd_gen_bq(args):
    d = load_dictionary_cache(args.dict)
    queries = [(rec.id, rec.text, rec.vector) for rec in load_embeddings(args.queries)]
    config = _lasso_config_from_args(args)
    result = generate_batch(d, queries, config=config, exclude_exact=args.exclude_exact)
    errors = result.diagnostics.errors
    for image_id, message in errors:
        print(f"error: query {image_id!r}: {message}", file=sys.stderr)
    if errors and not args.keep_going:
        print(f"error: {len(errors)} queries failed (rerun with --keep-going "
              "to write the successful records)", file=sys.stderr)
        return EXIT_FAIL

    fileformats.write_jsonl(args.out, (record_to_json(r) for r in result.records))
    _write_manifest(
        args.out, "gen-bq",
        {"dict": str(args.dict), "queries": str(args.queries)},
        dict(dataclasses.asdict(config), exclude_exact=args.exclude_exact,
             keep_going=args.keep_going),
    )
    clamped = result.diagnostics.clamped
    print(f"wrote {len(result.records)} records to {args.out}"
          + (f" ({clamped} scores clamped)" if clamped else ""))
    return EXIT_PARTIAL if errors else EXIT_OK


def cmd_concat(args):
    records = read_bqd(args.bqd)
    policy = _policy_from_args(args)
    lines = []
    for rec in records:
        n = decide_appends(rec.scores, policy)
        text = concatenate(rec.mq_text, rec.basic_questions, policy,
                           separator=args.separator)
        lines.append(json.dumps(
            {"image_id": rec.image_id, "appended": n, "text": text},
            ensure_ascii=False, sort_keys=True,
        ))
    fileformats.write_jsonl(args.out, lines)
    _write_manifest(
        args.out, "concat", {"bqd": str(args.bqd)},
        {"s1": policy.s1, "s2": policy.s2, "s3": policy.s3,
         "separator": args.separator},
    )
    print(f"wrote {len(lines)} concatenated questions to {args.out}")
    return EXIT_OK


def cmd_stats(args):
    records = read_bqd(args.bqd)
    stats = score_statistics(records)
    print(format_stats_table(stats))
    candidates = threshold_candidates(stats) if args.candidates else None
    if args.candidates:
        for channel, grid in candidates.items():
            print(f"{channel}: " + "  ".join(
                f"{k}={v:.4f}" for k, v in grid.items()))
    if args.out:
        payload = json.loads(stats_to_json(stats))
        if candidates is not None:
            payload["candidates"] = candidates
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True))
            fh.write("\n")
        _write_manifest(args.out, "stats", {"bqd": str(args.bqd)},
                        {"candidates": args.candidates})
    return EXIT_OK


def cmd_partition(args):
    records = read_bqd(args.bqd)
    policy = _policy_from_args(args)
    counts = partition_counts(records, policy)
    print(format_partition_table(counts))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(partition_to_json(counts))
            fh.write("\n")
        _write_manifest(args.out, "partition", {"bqd": str(args.bqd)},
                        {"s1": policy.s1, "s2": policy.s2, "s3": policy.s3})
    return EXIT_OK


def _load_type_map(path):
    with open(path, encoding="utf-8") as fh:
        try:
            type_map = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not isinstance(type_map, dict):
        raise ParseError(f"{path}: expected a JSON object mapping question ids to types")
    return {str(k): str(v) for k, v in type_map.items()}


def cmd_eval(args):
    records = load_answer_records(args.predictions, args.annotations)
    report = evaluate(records, normalize=not args.raw)
    per_type = None
    if args.per_type:
        per_type = aggregate_by_type(report, _load_type_map(args.per_type))
    print(f"accuracy: {report.mean:.6f} over {report.n} questions")
    if per_type:
        for label, entry in per_type.items():
            print(f"  {label}: {entry['mean']:.6f} over {entry['n']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report, per_type=per_type))
            fh.write("\n")
        _write_manifest(
            args.out, "eval",
            {"predictions": str(args.predictions),
             "annotations": str(args.annotations),
             "per_type": str(args.per_type) if args.per_type else None},
            {"raw": args.raw},
        )
    return EXIT_OK


def _add_policy_flags(sub):
    sub.add_argument("--s1", type=float, default=DEFAULT_THRESHOLDS[0],
                     help="threshold on score1")
    sub.add_argument("--s2", type=float, default=DEFAULT_THRESHOLDS[1],
                     help="threshold on score2/score1")
    sub.add_argument("--s3", type=float, default=DEFAULT_THRESHOLDS[2],
                     help="threshold on score3/score2")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="basiq",
        description="Retrieve supporting questions by sparse coding and "
                    "concatenate them under a threshold policy.",
    )
    fmt = argparse.ArgumentDefaultsHelpFormatter
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dict", formatter_class=fmt,
                       help="build a dictionary cache from an embedding corpus")
    p.add_argument("corpus", help="embedding file (text or binary)")
    p.add_argument("--out", required=True, help="cache file to write")
    p.add_argument("--dedup", choices=("normalized", "exact"), default="normalized",
                   help="duplicate-question collapse rule")
    p.set_defaults(func=cmd_build_dict)

    p = sub.add_parser("gen-bq", formatter_class=fmt,
                       help="retrieve top-3 supporting questions per query")
    p.add_argument("--dict", required=True, help="dictionary cache")
    p.add_argument("--queries", required=True,
                   help="query embedding file (id doubles as image id)")
    p.add_argument("--out", required=True, help="JSON-lines output")
    lam = p.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lambda_abs", type=float, default=None,
                     help="absolute L1 penalty")
    lam.add_argument("--lambda-rel", type=float, default=None,
                     help=f"penalty relative to the per-query critical value "
                          f"(default {DEFAULT_LAMBDA_REL})")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="duality-gap stopping tolerance")
    p.add_argument("--max-sweeps", type=int, default=DEFAULT_MAX_SWEEPS,
                   help="homotopy path-step limit")
    p.add_argument("--nonneg", action="store_true",
                   help="constrain coefficients to be nonnegative")
    p.add_argument("--exclude-exact", action="store_true",
                   help="skip dictionary questions whose text equals the query text")
    p.add_argument("--keep-going", action="store_true",
                   help="write successful records even if some queries fail")
    p.set_defaults(func=cmd_gen_bq)

    p = sub.add_parser("concat", formatter_class=fmt,
                       help="append retrieved questions under the threshold cascade")
    p.add_argument("--bqd", required=True, help="JSON-lines records from gen-bq")
    p.add_argument("--out", required=True, help="JSON-lines output")
    _add_policy_flags(p)
    p.add_argument("--separator", default=" ", help="string joining appended questions")
    p.set_defaults(func=cmd_concat)

    p = sub.add_parser("stats", formatter_class=fmt,
                       help="score-channel averages and standard deviations")
    p.add_argument("--bqd", required=True, help="JSON-lines records from gen-bq")
    p.add_argument("--out", default=None, help="optional JSON report file")
    p.add_argument("--candidates", action="store_true",
                   help="also emit avg / avg+std / avg-std threshold candidates")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("partition", formatter_class=fmt,
                       help="count records by how many questions get appended")
    p.add_argument("--bqd", required=True, help="JSON-lines records from gen-bq")
    p.add_argument("--out", default=None, help="optional JSON report file")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="consensus accuracy of predictions against annotations")
    p.add_argument("--predictions", required=True,
                   help='JSON-lines {"question_id", "answer"}')
    p.add_argument("--annotations", required=True,
                   help='JSON-lines {"question_id", "answers": [...]}')
    p.add_argument("--out", default=None, help="optional JSON report file")
    p.add_argument("--per-type", default=None,
                   help="JSON file mapping question_id to a type label")
    p.add_argument("--raw", action="store_true",
                   help="compare answers byte-for-byte instead of normalized")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (None, 0):
            raise
        # argparse exits 2 on usage errors; keep that code reserved for
        # partial batches and report usage problems as plain failures.
        return EXIT_FAIL
    try:
        return args.func(args)
    except (BasiqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
