"""The phases of one benchmark run: set-up, training rounds, prediction
and checks, plus the traced variant. ``run.py`` is the entry point."""
from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import layertrace
import workloads
from clner import clrunner
from clner.encoder import Vocab

# set-ups per run, half before training and half after the prediction
# phase, so that the median samples the machine at two moments
SETUP_REPEATS = 16
# share of the window in which another training round may still start
TRAIN_SHARE = 0.7
MIN_PREDICT_CALLS = 400
TRACED_PREDICT_PASSES = 3


class Run:
    """One workload at one seed; every file goes under ``work``."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def config(self, model: str) -> clrunner.RunConfig:
        return workloads.run_config(self.workload, model, self.seed)

    def setup(self, repeats: int, dest: Path):
        """Time ``repeats`` full set-ups into ``dest``; return the times
        and the last benchmark."""
        times, bench = [], None
        for _ in range(repeats):
            shutil.rmtree(dest, ignore_errors=True)
            start = time.perf_counter()
            bench = workloads.make_benchmark(self.workload, self.seed, dest)
            times.append(time.perf_counter() - start)
        return times, bench

    def train(self, bench, runs: Path):
        """One round: a CL run per model kind. Returns seconds and results."""
        shutil.rmtree(runs, ignore_errors=True)
        results = {}
        start = time.perf_counter()
        for model in self.workload.models:
            results[model] = clrunner.run_cl(self.config(model), bench, runs / model)
        self.attempted += len(results)
        return time.perf_counter() - start, results

    def predict(self, bench, runs: Path, until: float, min_passes: int) -> list[float]:
        """Reload each final-step model and decode the test set one
        sentence per call, in whole passes, until ``until`` has passed
        and at least ``min_passes`` passes and MIN_PREDICT_CALLS calls
        are made. Returns per-call latencies in ms; a call whose output
        differs from the run's predictions.jsonl is a problem."""
        vocab = Vocab(bench.vocab_tokens)
        steps = len(bench.tasks)
        ids = [vocab.encode(s.tokens) for s in bench.tasks[-1].test]
        models = [
            (clrunner.load_step_model(self.config(m), bench, runs / m, steps),
             checks.read_predictions(runs / m, steps))
            for m in self.workload.models
        ]
        latencies: list[float] = []
        mismatches = passes = 0
        while passes < min_passes or len(latencies) < MIN_PREDICT_CALLS or time.perf_counter() < until:
            for model, expected in models:
                for sent_ids, want in zip(ids, expected):
                    self.attempted += 1
                    try:
                        t0 = time.perf_counter_ns()
                        spans = model.predict(sent_ids)
                        latencies.append((time.perf_counter_ns() - t0) / 1e6)
                    except Exception:
                        traceback.print_exc()
                        self.failed += 1
                        continue
                    mismatches += [list(s) for s in spans] != want
            passes += 1
        if mismatches:
            self.problems.append(f"{mismatches} predict calls differ from the run's predictions")
        return latencies

    def check(self, bench, runs: Path) -> None:
        for m in self.workload.models:
            self.problems += [f"{m}: {p}" for p in checks.check_run(self.config(m), bench, runs / m)]

    # -- the two kinds of run ------------------------------------------------
    def end_to_end(self, seconds: float):
        """Metrics as a user sees them, tracing off."""
        setup_times, bench = self.setup(SETUP_REPEATS // 2, self.work / "benchmark")
        start = time.perf_counter()
        rounds = []
        while not rounds or time.perf_counter() + rounds[-1][0] <= start + TRAIN_SHARE * seconds:
            rounds.append(self.train(bench, self.work / "runs"))
        finals = [{m: r.final_macro() for m, r in results.items()} for _, results in rounds]
        if any(f != finals[0] for f in finals):
            self.problems.append(f"final macro-F1 differs between rounds: {finals}")
        run_s = statistics.fmean(s for s, _ in rounds)
        results = rounds[-1][1]
        latencies = self.predict(bench, self.work / "runs", start + seconds, 1)
        setup_times += self.setup(SETUP_REPEATS // 2, self.work / "benchmark-later")[0]
        self.check(bench, self.work / "runs")
        sentence_epochs = sum(
            len(bench.tasks[s.step - 1].train) * len(s.dev_f1_per_epoch)
            for r in results.values() for s in r.steps
        )
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "train_sents_per_s": (sentence_epochs / run_s, "1/s"),
            "predict_ms_p50": (statistics.median(latencies), "ms"),
            "predict_ms_p95": (statistics.quantiles(latencies, n=20)[-1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "final_macro_f1": (statistics.fmean(finals[0].values()), "F1"),
        }
        info = {"rounds": len(rounds), "predict_samples": len(latencies),
                "sentence_epochs": sentence_epochs, "final_macro_f1": finals[0],
                "step1_macro_f1": {m: r.macro(1) for m, r in results.items()}}
        return metrics, info

    def traced(self):
        """Per-layer metrics: train once untraced, then set up, train and
        predict again with every layer boundary wrapped."""
        _, bench = self.setup(1, self.work / "benchmark")
        untraced_s, plain = self.train(bench, self.work / "runs")
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        try:
            bench = workloads.make_benchmark(self.workload, self.seed, self.work / "benchmark-traced")
            traced_s, results = self.train(bench, self.work / "runs-traced")
            self.predict(bench, self.work / "runs-traced", 0.0, TRACED_PREDICT_PASSES)
        finally:
            tracer.uninstall()
        self.check(bench, self.work / "runs-traced")
        for m, r in results.items():
            if r.final_macro() != plain[m].final_macro():
                self.problems.append(f"{m}: traced final macro-F1 {r.final_macro()!r} "
                                     f"differs from untraced {plain[m].final_macro()!r}")
        metrics = layertrace.layer_metrics(tracer)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        info = {"untraced_run_s": untraced_s, "traced_run_s": traced_s,
                "absent": tracer.absent, "span_count": len(tracer.spans)}
        tracer.write(self.work / "trace.json",
                     {"workload": self.workload.name, "seed": self.seed} | info)
        return metrics, info


def main(workload_name: str, seed: int, seconds: float, trace: int, out: Path) -> int:
    workload = workloads.WORKLOADS[workload_name]
    work = out / f"{workload.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, work)
    metrics, info = run.traced() if trace else run.end_to_end(seconds)
    for p in run.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(result | {"info": info}, indent=1) + "\n")
    print(f"# {workload.name} seed {seed} trace {trace}: {json.dumps(info)}")
    print(json.dumps(result))
    return 0
