"""The basiq benchmark: three seeded workloads, checked outputs, one JSON result.

    python3 bench/run.py --workload certify-32x128 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from its
``src`` directory, so nothing needs installing.  Inputs are generated
from ``--seed`` before any timing and cached under ``.bench_cache/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see ``tracing.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is nonzero when an output check fails.
Workloads, metrics and predictions are described in ``bench/README.md``.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import calibrate
import checks
import inputs
import layers
import machine
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = ".bench_cache"
WORKLOADS = ("certify-32x128", "retrieve-4096x64", "ingest-score")


class Workload:
    """One seeded input set, set-ups timed on their own, and repeated steps.

    ``step(i)`` runs one unit of user-visible work, checks its outputs
    and returns its stage wall times (None if it failed).  Set-ups and
    steps are timed by ``clock()``, which leaves out the speed sampler
    running beside them (``calibrate.py``).
    ``figures(scale)`` turns the steps into the workload's own figures,
    every time multiplied by ``scale``; ``LATENCY`` names the one
    reported as the end-to-end ``latency_ms``.
    """

    def __init__(self):
        import basiq.cli
        import basiq.dictionary
        import basiq.solver

        self.cli, self.dictionary, self.solver = basiq.cli, basiq.dictionary, basiq.solver
        self.cal = calibrate.Sampler()
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.setups = []    # wall seconds
        self.steps = []     # stage wall times of each step that ran to the end

    def problem(self, message):
        if len(self.problems) < 20:
            print(f"check failed: {message}", file=sys.stderr)
        self.problems.append(message)

    def run_setup(self):
        gc.collect()
        self.setups.append(self.setup())

    def run_steps(self, seconds=None, count=None, tracer=None, setups=0):
        """Steps 0, 1, ... until ``seconds`` of wall time have passed, or
        ``count`` steps; returns the number run.  ``setups`` set-ups are
        spread evenly over ``seconds``, the first before step 0, so they
        meet the same stretches of host load as the steps do."""
        t0 = time.perf_counter()
        n = done = 0
        while n < count if count is not None else (n == 0 or time.perf_counter() - t0 < seconds):
            if done < setups and time.perf_counter() - t0 >= done * seconds / setups:
                self.run_setup()
                done += 1
                continue
            if tracer is not None:
                tracer.step = n
            gc.collect()    # start every step from the same heap state
            times = self.step(n)
            if times is not None:
                self.steps.append(times)
            n += 1
        for _ in range(done, setups):
            self.run_setup()
        return n

    def wall_total(self, setups, steps):
        """Wall seconds of the given set-ups and steps."""
        return sum(setups) + sum(times[k] for times in steps for k in self.STAGES)

    def run_cli(self, argv):
        """Run one CLI command in-process; (seconds, exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = self.cal.clock()
            rc = self.cli.main(argv)
            dt = self.cal.clock() - t0
        if rc != 0:
            self.problem(f"{argv[0]} exited {rc}: {err.getvalue().strip()[:200]}")
        return dt, rc, out.getvalue()

    def same_bytes(self, key, paths):
        """Artifacts made from the same input must be byte-identical."""
        files = [f for p in paths for f in (p, p + ".manifest.json") if os.path.exists(f)]
        digest = {f: checks.sha256(f) for f in files}
        if self.digests.setdefault(key, digest) != digest:
            self.problem(f"{key}: artifacts differ between repeats of the same input")
            return False
        return True


class Certify(Workload):
    """Independent 32x128 LASSO problems, criterion 1's configuration."""

    name = "certify-32x128"
    matrix_bytes = inputs.CERTIFY_DIM * inputs.CERTIFY_N * 8
    SETUP_REPS = 25
    LATENCY = "solve_iqm_ms"
    STAGES = ("solve",)

    def __init__(self, seed):
        super().__init__()
        self.pool = inputs.certify_problems(seed)
        self.config = self.solver.LassoConfig.relative(
            inputs.CERTIFY_LAMBDA_REL, tol=inputs.CERTIFY_TOL)
        self.uncertified = 0    # solves that honestly report no certificate

    def setup(self):
        """Cold start: a fresh import of every basiq module (numpy stays
        loaded), timed in this process so the speed samples cover it; the
        modules the steps use are put back afterwards."""
        def ours():
            return [k for k in sys.modules if k == "basiq" or k.startswith("basiq.")]

        saved = {k: sys.modules.pop(k) for k in ours()}
        try:
            t0 = self.cal.clock()
            importlib.import_module("basiq")
            dt = self.cal.clock() - t0
        except Exception as exc:    # any import failure is a failed set-up
            self.problem(f"import basiq failed: {exc!r}")
            dt = 0.0
        finally:
            for k in ours():
                del sys.modules[k]
            sys.modules.update(saved)
        return dt

    def step(self, i):
        a, b = self.pool[i % len(self.pool)]
        t0 = self.cal.clock()
        sol = self.solver.solve_lasso(a, b, self.config)
        dt = self.cal.clock() - t0
        self.attempted += 1
        lam = self.config.resolve_lambda(float(np.max(np.abs(a.T @ b))))
        gap, kkt = checks.lasso_certificate(a, b, lam, sol.coefficients)
        failures, contradictions = checks.certificate_problems(
            sol.converged, sol.duality_gap, gap, kkt, self.config.tol, kkt_tol=self.config.tol)
        for message in contradictions:
            self.problem(f"solve {i}: {message}")
        self.failed += bool(contradictions)
        self.uncertified += bool(failures)
        return {"solve": dt, "certified": not failures}

    def figures(self, scale):
        solve = [scale * t["solve"] for t in self.steps]
        certified = sum(t["certified"] for t in self.steps)
        middle = sorted(solve)[len(solve) // 4:max(1, 3 * len(solve) // 4)]
        return {
            "solves_per_s": (certified / sum(solve), "1/s"),
            "solve_iqm_ms": (1000 * statistics.fmean(middle), "ms"),
            "solve_p50_ms": (1000 * statistics.median(solve), "ms"),
            "solve_p90_ms": (1000 * float(np.percentile(solve, 90)), "ms"),
        }, f"{certified} certified of {len(solve)} solves"


class DictionaryWorkload(Workload):
    """Shared set-up: build-dict on the corpus file, then load the cache."""

    SETUP_REPS = 5

    def __init__(self, seed):
        super().__init__()
        # Generated in a child process, so generation never counts in peak RSS.
        proc = subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), CACHE,
                               self.name, str(seed)], capture_output=True, text=True,
                              check=True, timeout=600)
        self.dir = proc.stdout.strip()
        with open(os.path.join(self.dir, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)
        self.work = os.path.join(self.dir, "work")
        os.makedirs(self.work, exist_ok=True)
        self.corpus = os.path.join(self.dir, "corpus.txt")

    def out(self, name):
        return os.path.join(self.work, name)

    def setup(self):
        path = self.out("setup-dict.bin")
        t0 = self.cal.clock()
        _, rc, text = self.run_cli(["build-dict", self.corpus, "--out", path])
        d = self.dictionary.load_dictionary_cache(path) if rc == 0 else None
        dt = self.cal.clock() - t0
        e = self.expected
        want = (f"dictionary: {e['columns']} columns, dim {e['dim']}, "
                f"{e['duplicates']} duplicates dropped")
        if d is None or text.strip() != want or (d.dim, d.n_columns) != (e["dim"], e["columns"]):
            self.problem(f"build-dict: {text.strip()!r}, expected {want!r}")
        elif "texts" in e and list(d.texts) != e["texts"]:
            self.problem("build-dict: dictionary texts differ from the corpus")
        self.same_bytes("dictionary", [path])
        return dt

    def run_stages(self, stages, n):
        """Run CLI stages in order, stopping at the first failure; wall times or None."""
        times = []
        for argv in stages:
            dt, rc, _ = self.run_cli(argv)
            if rc != 0:
                self.failed += n
                return None
            times.append(dt)
        return times


class Retrieve(DictionaryWorkload):
    """4096 x 64 dictionary; the five-stage CLI pipeline per query file."""

    name = "retrieve-4096x64"
    matrix_bytes = inputs.RETRIEVE_DIM * inputs.RETRIEVE_N * 8
    SETUP_REPS = 10
    LATENCY = "pipeline_ms"
    STAGES = ("pipeline",)

    def __init__(self, seed):
        super().__init__(seed)
        self.files = self.expected["query_files"]
        self.texts = set(self.expected["texts"])

    def step(self, i):
        qf = self.files[i % len(self.files)]
        n = len(qf["ids"])
        self.attempted += n
        dict_bin, bq = self.out("dict.bin"), self.out("bq.jsonl")
        times = self.run_stages([
            ["build-dict", self.corpus, "--out", dict_bin],
            ["gen-bq", "--dict", dict_bin, "--queries", os.path.join(self.dir, qf["file"]),
             "--out", bq],
            ["concat", "--bqd", bq, "--out", self.out("concat.jsonl")],
            ["stats", "--bqd", bq, "--candidates", "--out", self.out("stats.json")],
            ["partition", "--bqd", bq, "--out", self.out("partition.json")],
        ], n)
        if times is None:
            return None
        artifacts = [dict_bin, bq] + [self.out(f) for f in
                                      ("concat.jsonl", "stats.json", "partition.json")]
        first_lap = qf["file"] not in self.digests
        if not self.same_bytes(qf["file"], artifacts):
            self.failed += n
        elif first_lap:
            self.failed += self.check(qf, bq)
        return {"pipeline": sum(times), "gen_bq": times[1], "queries": n}

    def check(self, qf, bq):
        """Full output checks; returns the number of failed queries."""
        try:
            records = checks.read_jsonl(bq)
            bad = checks.bqd_problems(records, qf["ids"], qf["texts"], self.texts)
            if not bad:
                bad = checks.planted_problems(records, qf["planted"], self.expected["texts"])
            bad += checks.concat_problems(checks.read_jsonl(self.out("concat.jsonl")), records)
            with open(self.out("stats.json"), encoding="utf-8") as fh:
                bad += checks.stats_problems(json.load(fh), records)
            with open(self.out("partition.json"), encoding="utf-8") as fh:
                bad += checks.partition_problems(json.load(fh), records)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        for message in bad:
            self.problem(f"{qf['file']}: {message}")
        return len(qf["ids"]) if bad else 0

    def figures(self, scale):
        queries = sum(t["queries"] for t in self.steps)
        return {
            "gen_bq_queries_per_s": (queries / sum(scale * t["gen_bq"] for t in self.steps),
                                     "1/s"),
            "pipeline_ms": (1000 * scale * statistics.fmean(t["pipeline"] for t in self.steps),
                            "ms"),
            "pipeline_p50_ms": (1000 * scale * statistics.median(t["pipeline"]
                                                                 for t in self.steps), "ms"),
        }, f"{len(self.steps)} five-stage pipelines, {queries} queries"


class Ingest(DictionaryWorkload):
    """No solves: dictionary build, BQD reads, policy passes and eval."""

    name = "ingest-score"
    matrix_bytes = inputs.INGEST_DIM * (inputs.INGEST_N - round(
        inputs.INGEST_DUP_SHARE * inputs.INGEST_N)) * 8
    LATENCY = "pass_ms"
    STAGES = ("downstream", "eval")

    def __init__(self, seed):
        super().__init__(seed)
        self.bqd = os.path.join(self.dir, "bqd.jsonl")
        self.pred = os.path.join(self.dir, "predictions.jsonl")
        self.ann = os.path.join(self.dir, "annotations.jsonl")
        self.n = self.expected["records"]

    def step(self, i):
        self.attempted += self.n
        times = self.run_stages([
            ["concat", "--bqd", self.bqd, "--out", self.out("concat.jsonl")],
            ["stats", "--bqd", self.bqd, "--candidates", "--out", self.out("stats.json")],
            ["partition", "--bqd", self.bqd, "--out", self.out("partition.json")],
            ["eval", "--predictions", self.pred, "--annotations", self.ann,
             "--out", self.out("eval.json")],
        ], self.n)
        if times is None:
            return None
        artifacts = [self.out(f) for f in
                     ("concat.jsonl", "stats.json", "partition.json", "eval.json")]
        first = "steps" not in self.digests
        if not self.same_bytes("steps", artifacts):
            self.failed += self.n
        elif first:
            self.failed += self.check()
        return {"downstream": sum(times[:3]), "eval": times[3]}

    def check(self):
        try:
            records = checks.read_jsonl(self.bqd)
            bad = checks.concat_problems(checks.read_jsonl(self.out("concat.jsonl")), records)
            with open(self.out("stats.json"), encoding="utf-8") as fh:
                bad += checks.stats_problems(json.load(fh), records)
            with open(self.out("partition.json"), encoding="utf-8") as fh:
                bad += checks.partition_problems(json.load(fh), records)
            with open(self.out("eval.json"), encoding="utf-8") as fh:
                bad += checks.eval_problems(json.load(fh), checks.read_jsonl(self.pred),
                                            checks.read_jsonl(self.ann),
                                            self.expected["eval_matches"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        for message in bad:
            self.problem(message)
        return self.n if bad else 0

    def figures(self, scale):
        k = len(self.steps)
        return {
            "downstream_records_per_s": (k * self.n / sum(
                scale * t["downstream"] for t in self.steps), "1/s"),
            "eval_questions_per_s": (k * self.n / sum(scale * t["eval"] for t in self.steps),
                                     "1/s"),
            "pass_ms": (1000 * scale * statistics.fmean(t["downstream"] + t["eval"]
                                                        for t in self.steps), "ms"),
            "pass_p50_ms": (1000 * scale * statistics.median(t["downstream"] + t["eval"]
                                                             for t in self.steps), "ms"),
        }, f"{k} passes of {self.n} records (concat, stats, partition) and questions (eval)"


CLASSES = {cls.name: cls for cls in (Certify, Retrieve, Ingest)}


def _format(figures):
    return ", ".join(f"{k} = {v:.6g} {u}" for k, (v, u) in figures.items())


def run_end_to_end(wl, seconds):
    wl.run_steps(seconds, setups=wl.SETUP_REPS)
    factor = wl.cal.factor()
    normalized, base = wl.figures(factor)
    wall, _ = wl.figures(1.0)
    metrics = {
        "setup_s": (factor * statistics.median(wl.setups), "s"),
        "latency_ms": normalized[wl.LATENCY],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    lines = [
        f"normalized: {_format(normalized)} ({base})",
        f"wall clock: {_format(wall)}",
        f"setup_s = {metrics['setup_s'][0]:.4f} s normalized, "
        f"{statistics.median(wl.setups):.4f} s wall (median of {wl.SETUP_REPS})",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MiB",
        f"speed factor {factor:.4f} (mean of {len(wl.cal.samples)} kernel samples)",
    ]
    return metrics, lines


def run_traced(wl, seconds):
    """Untraced pass, then the same steps traced; per-layer metrics."""
    wl.run_setup()
    steps = wl.run_steps(seconds / 2)
    untraced = wl.wall_total(wl.setups, wl.steps) * wl.cal.factor()
    done = (len(wl.setups), len(wl.steps), len(wl.cal.samples))
    tracer = tracing.Tracer(wl.cal.clock)
    tracer.install()
    try:
        wl.run_setup()
        wl.run_steps(count=steps, tracer=tracer)
    finally:
        tracer.uninstall()
    factor = wl.cal.factor(done[2])
    traced = wl.wall_total(wl.setups[done[0]:], wl.steps[done[1]:]) * factor
    tracer.write(os.path.join(CACHE, f"spans-{wl.name}.jsonl"))
    metrics, missing, uncertified = layers.per_layer(tracer)
    metrics = {k: (v * factor if u in ("s", "ms") else v, u) for k, (v, u) in metrics.items()}
    for attrs in tracer.attrs.values():
        for message in attrs.get("contradictions", ()):
            wl.problem(message)
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    lines = [f"traced {steps} steps: {traced:.3f} s against {untraced:.3f} s untraced "
             "(normalized)",
             f"uncertified solves in the traced pass: {uncertified}"]
    if missing:
        lines.append("not observed: " + ", ".join(sorted(missing)))
    return metrics, lines


def _digest_file_check(wl):
    """Artifacts of one seed must also match earlier runs of the same source tree."""
    if not isinstance(wl, DictionaryWorkload):
        return
    path = os.path.join(wl.dir, "digests.json")
    src = machine.source_digest(os.path.join(SRC, "basiq"))
    try:
        with open(path, encoding="utf-8") as fh:
            saved = json.load(fh)
    except (OSError, ValueError):
        saved = {}
    if saved.get("src") == src:
        for key, digest in wl.digests.items():
            if key in saved["digests"] and saved["digests"][key] != digest:
                wl.problem(f"{key}: artifacts differ from an earlier run of this source")
        wl.digests = dict(saved["digests"], **wl.digests)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"src": src, "digests": wl.digests}, fh, sort_keys=True)


def run_one(args):
    wl = CLASSES[args.workload](args.seed)
    print("machine: " + json.dumps(machine.record({wl.name: wl.matrix_bytes})), flush=True)
    wl.cal.start()
    try:
        if args.trace:
            metrics, lines = run_traced(wl, args.seconds)
        else:
            metrics, lines = run_end_to_end(wl, args.seconds)
    finally:
        wl.cal.stop()
    _digest_file_check(wl)
    correct = not wl.problems
    lines.append(f"failed_frac = {wl.failed / max(wl.attempted, 1):.6f} "
                 f"({wl.failed} failed of {wl.attempted} attempted)")
    if isinstance(wl, Certify):
        lines.append(f"uncertified = {wl.uncertified} of {wl.attempted} solves "
                     "(stopped at the sweep cap or above a certificate bound)")
    for line in lines:
        print(f"{wl.name}: {line}")
    print(json.dumps({
        "correct": correct, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after the other."""
    results, rc = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=1800)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        rc = rc or proc.returncode or (0 if lines else 1)
        results[name] = json.loads(lines[-1]) if lines else {
            "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return rc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "basiq", "__init__.py")):
        print(f"error: no package source at {SRC}/basiq; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
