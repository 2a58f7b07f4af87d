"""Per-layer metrics computed from the spans of one traced pass.

Times are totals over the traced pass, in seconds unless the name says
otherwise; counts are totals too, except sizes of the last dictionary
built.  A metric whose spans could not be installed is left out and
reported as not observed.  Solver metrics read 0 when there were no
solves (the ingest workload never solves).
"""

import statistics

import numpy as np

# name -> (unit, span names it is computed from)
METRICS = {
    "solver.solves": ("count", ("solver.solve_lasso",)),
    "solver.self_s": ("s", ("solver.solve_lasso",)),
    "solver.solve_ms_p50": ("ms", ("solver.solve_lasso",)),
    "solver.solve_ms_p90": ("ms", ("solver.solve_lasso",)),
    "solver.sweeps_total": ("count", ("solver.solve_lasso",)),
    "solver.sweeps_p50": ("count", ("solver.solve_lasso",)),
    "solver.sweeps_max": ("count", ("solver.solve_lasso",)),
    "solver.ms_per_sweep": ("ms", ("solver.solve_lasso",)),
    "solver.hit_max_sweeps": ("count", ("solver.solve_lasso",)),
    "solver.certified_frac": ("ratio", ("solver.solve_lasso",)),
    "solver.gap_max": ("1", ("solver.solve_lasso",)),
    "solver.kkt_max": ("1", ("solver.solve_lasso",)),
    "solver.nnz_p50": ("count", ("solver.solve_lasso",)),
    "solver.gen_bq_share": ("ratio", ("solver.solve_lasso", "cli.main")),
    "generator.self_s": ("s", ("generator.generate_batch", "solver.solve_lasso")),
    "generator.records": ("count", ("generator.generate_batch",)),
    "generator.errors": ("count", ("generator.generate_batch",)),
    "generator.clamped": ("count", ("generator.generate_batch",)),
    "generator.read_bqd_s": ("s", ("generator.read_bqd",)),
    "generator.records_read": ("count", ("generator.read_bqd",)),
    "fileformats.embeddings_read_s": ("s", ("fileformats.load_embeddings",)),
    "fileformats.embeddings_bytes": ("bytes", ("fileformats.load_embeddings",)),
    "fileformats.embeddings_records": ("count", ("fileformats.load_embeddings",)),
    "fileformats.jsonl_write_s": ("s", ("fileformats.write_jsonl",)),
    "fileformats.jsonl_bytes_written": ("bytes", ("fileformats.write_jsonl",)),
    "dictionary.build_s": ("s", ("dictionary.build_dictionary",)),
    "dictionary.columns": ("count", ("dictionary.build_dictionary",)),
    "dictionary.duplicates_dropped": ("count", ("dictionary.build_dictionary",)),
    "dictionary.cache_save_s": ("s", ("dictionary.save_dictionary_cache",)),
    "dictionary.cache_load_s": ("s", ("dictionary.load_dictionary_cache",)),
    "dictionary.cache_bytes": ("bytes", ("dictionary.save_dictionary_cache",)),
    "dictionary.matrix_bytes": ("bytes", ("dictionary.build_dictionary",)),
    "policy.concatenate_s": ("s", ("policy.concatenate", "policy.decide_appends")),
    "policy.statistics_s": ("s", ("policy.score_statistics", "policy.threshold_candidates")),
    "policy.partition_s": ("s", ("policy.partition_counts",)),
    "policy.appends_0": ("count", ("policy.partition_counts",)),
    "policy.appends_1": ("count", ("policy.partition_counts",)),
    "policy.appends_2": ("count", ("policy.partition_counts",)),
    "policy.appends_3": ("count", ("policy.partition_counts",)),
    "vqa_metric.load_s": ("s", ("vqa_metric.load_answer_records",)),
    "vqa_metric.evaluate_s": ("s", ("vqa_metric.evaluate",)),
    "vqa_metric.questions": ("count", ("vqa_metric.evaluate",)),
    "cli.build_dict_s": ("s", ("cli.main",)),
    "cli.gen_bq_s": ("s", ("cli.main",)),
    "cli.concat_s": ("s", ("cli.main",)),
    "cli.stats_s": ("s", ("cli.main",)),
    "cli.partition_s": ("s", ("cli.main",)),
    "cli.eval_s": ("s", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",)),
}


def _p(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(tracer):
    """({metric: (value, unit)}, names not observed, uncertified solve count)."""
    children = tracer.children()
    by_name = {}
    for i, name in enumerate(tracer.names):
        by_name.setdefault(name, []).append(i)

    def total(name):
        return sum(tracer.duration(i) for i in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(tracer.attrs[i][key] for i in by_name.get(name, ()))

    def last(name, key):
        spans = by_name.get(name)
        return tracer.attrs[spans[-1]][key] if spans else 0

    solves = [tracer.attrs[i] for i in by_name.get("solver.solve_lasso", ())]
    solve_ms = [1000 * tracer.duration(i) for i in by_name.get("solver.solve_lasso", ())]
    sweeps = [s["sweeps"] for s in solves]
    certified = [s["certified"] for s in solves]
    cli = {}
    for i in by_name.get("cli.main", ()):
        cmd = tracer.attrs[i]["command"]
        cli[cmd] = cli.get(cmd, 0.0) + tracer.duration(i)
    gen_bq = cli.get("gen-bq", 0.0)
    solve_in_gen_bq = sum(
        tracer.duration(i) for i in by_name.get("solver.solve_lasso", ())
        if _ancestor_command(tracer, i) == "gen-bq")
    appends = [0, 0, 0, 0]
    for i in by_name.get("policy.partition_counts", ()):
        appends = [a + b for a, b in zip(appends, tracer.attrs[i]["by_appends"])]

    values = {
        "solver.solves": len(solves),
        "solver.self_s": total("solver.solve_lasso"),
        "solver.solve_ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "solver.solve_ms_p90": _p(solve_ms, 90),
        "solver.sweeps_total": sum(sweeps),
        "solver.sweeps_p50": statistics.median(sweeps) if sweeps else 0,
        "solver.sweeps_max": max(sweeps, default=0),
        "solver.ms_per_sweep": sum(solve_ms) / sum(sweeps) if sweeps else 0.0,
        "solver.hit_max_sweeps": sum(s["sweeps"] >= s["max_sweeps"] for s in solves),
        "solver.certified_frac": sum(certified) / len(solves) if solves else 0.0,
        "solver.gap_max": max((s["gap_indep"] for s in solves), default=0.0),
        "solver.kkt_max": max((s["kkt"] for s in solves), default=0.0),
        "solver.nnz_p50": statistics.median([s["nnz"] for s in solves]) if solves else 0,
        "solver.gen_bq_share": solve_in_gen_bq / gen_bq if gen_bq else 0.0,
        "generator.self_s": sum(tracer.self_time(i, children)
                                for i in by_name.get("generator.generate_batch", ())),
        "generator.records": attr_sum("generator.generate_batch", "records"),
        "generator.errors": attr_sum("generator.generate_batch", "errors"),
        "generator.clamped": attr_sum("generator.generate_batch", "clamped"),
        "generator.read_bqd_s": total("generator.read_bqd"),
        "generator.records_read": attr_sum("generator.read_bqd", "records"),
        "fileformats.embeddings_read_s": total("fileformats.load_embeddings"),
        "fileformats.embeddings_bytes": attr_sum("fileformats.load_embeddings", "bytes"),
        "fileformats.embeddings_records": attr_sum("fileformats.load_embeddings", "records"),
        "fileformats.jsonl_write_s": total("fileformats.write_jsonl"),
        "fileformats.jsonl_bytes_written": attr_sum("fileformats.write_jsonl", "bytes"),
        "dictionary.build_s": total("dictionary.build_dictionary"),
        "dictionary.columns": last("dictionary.build_dictionary", "columns"),
        "dictionary.duplicates_dropped": last("dictionary.build_dictionary", "dropped"),
        "dictionary.cache_save_s": total("dictionary.save_dictionary_cache"),
        "dictionary.cache_load_s": total("dictionary.load_dictionary_cache"),
        "dictionary.cache_bytes": last("dictionary.save_dictionary_cache", "bytes"),
        "dictionary.matrix_bytes": last("dictionary.build_dictionary", "matrix_bytes"),
        "policy.concatenate_s": total("policy.concatenate") + total("policy.decide_appends"),
        "policy.statistics_s": total("policy.score_statistics")
        + total("policy.threshold_candidates"),
        "policy.partition_s": total("policy.partition_counts"),
        "policy.appends_0": appends[0],
        "policy.appends_1": appends[1],
        "policy.appends_2": appends[2],
        "policy.appends_3": appends[3],
        "vqa_metric.load_s": total("vqa_metric.load_answer_records"),
        "vqa_metric.evaluate_s": total("vqa_metric.evaluate"),
        "vqa_metric.questions": attr_sum("vqa_metric.evaluate", "questions"),
        "cli.build_dict_s": cli.get("build-dict", 0.0),
        "cli.gen_bq_s": gen_bq,
        "cli.concat_s": cli.get("concat", 0.0),
        "cli.stats_s": cli.get("stats", 0.0),
        "cli.partition_s": cli.get("partition", 0.0),
        "cli.eval_s": cli.get("eval", 0.0),
        "cli.self_s": sum(tracer.self_time(i, children) for i in by_name.get("cli.main", ())),
    }
    missing = {m for m, (_, needs) in METRICS.items() if tracer.missing.intersection(needs)}
    metrics = {m: (values[m], unit) for m, (unit, _) in METRICS.items() if m not in missing}
    return metrics, missing, len(solves) - sum(certified)


def _ancestor_command(tracer, i):
    """The CLI command whose span encloses span i, if any."""
    p = tracer.parents[i]
    while p >= 0:
        if tracer.names[p] == "cli.main":
            return tracer.attrs[p]["command"]
        p = tracer.parents[p]
    return None
