#!/usr/bin/env python3
"""End-to-end benchmark of the udkernels CLI steps.

Runs from the root of a source checkout:

  python3 perfbench/run.py --workload pi-ptk-long --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from --seed, then the set-up work
every step repeats (load_resources plus prepare_split for both splits)
is timed, a few times before the first pass and again after every pass.
The four CLI steps (gram -> train --gram -> predict -> eval) run
in-process through `udkernels.cli.main`, pass after pass until
--seconds is spent, and every pass's outputs are checked. Each timing
is the mean of its executions, calibrated to a nominal host speed by a
reference work sampled while they ran (calibration.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead. `--workload all` runs every workload
in turn. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A record with host,
input sizes and every run's figures is written to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

STEPS = ("gram", "train", "predict", "eval")
SETUP_FIRST = 5  # timed set-ups before the first pass
SETUP_PER_PASS = 5  # and after every pass, so they sample the whole run
TRAIN_REPEATS = 10  # train takes tens of milliseconds: sample it more often
MIN_RUNS = 3  # untraced pipeline passes per --trace 0 run
MIN_TRACE_RUNS = 4  # alternating untraced/traced, so two traced passes to compare
SAMPLE_CELLS = 6  # Gram cells re-evaluated through the uncached kernels
REL_TOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "gram_s": "s",
    "train_s": "s",
    "predict_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "%",
    "macro_f1": "%",
    "ok_share": "ratio",
}


class Ledger:
    """Operations attempted and failed: CLI steps plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok


class Bench:
    """One workload's generated inputs and config, its CLI passes and their checks."""

    def __init__(self, workload, seed: int, work: Path):
        from udkernels.config import load_config

        from calibration import Clock
        from workloads import write_config

        self.seed = seed
        self.ledger = Ledger()
        self.clock = Clock()
        self.config_path = write_config(str(work), workload.make(str(work), seed))
        self.cfg = load_config(self.config_path)
        self.paths = {
            "gram": str(work / "train.gram"),
            "model": str(work / "model.json"),
            "predictions": str(work / "predictions.tsv"),
        }
        self.reference = None  # (gram values, predicted labels) of the first run

    def argv(self, step: str) -> list:
        config, p = self.config_path, self.paths
        return {
            "gram": ["gram", "--config", config, "--out", p["gram"]],
            "train": ["train", "--config", config, "--model", p["model"], "--gram", p["gram"]],
            "predict": ["predict", "--config", config, "--model", p["model"], "--out", p["predictions"]],
            "eval": ["eval", "--config", config, "--predictions", p["predictions"], "--format", "json"],
        }[step]

    def setup(self, repeats: int) -> list:
        """Timings of `repeats` set-ups; keeps the last one's splits."""
        from udkernels.pipeline import load_resources, prepare_split

        def once():
            resources = load_resources(self.cfg)
            return resources, prepare_split(self.cfg, resources, "train"), prepare_split(self.cfg, resources, "test")

        times = []
        for _ in range(repeats):
            (self.resources, self.train, self.test), timing = self.clock.time(once)
            times.append(timing)
        return times

    def pipeline(self, tracer=None):
        """One gram -> train -> predict -> eval pass.

        Returns the Timing of every execution of each step (an untraced
        pass runs train TRAIN_REPEATS times over the same Gram; a traced
        one is timed without reference samples) and the eval stdout, or
        None when a step failed.
        """
        from udkernels.cli import main as cli_main

        from calibration import Timing

        def execute(step):
            buffer = io.StringIO()
            try:
                with redirect_stdout(buffer):
                    rc = cli_main(self.argv(step))
            except Exception:
                traceback.print_exc()
                rc = None
            return rc, buffer.getvalue()

        times = {}
        stdout = ""
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            for step in STEPS:
                times[step] = []
                repeats = TRAIN_REPEATS if step == "train" and tracer is None else 1
                for _ in range(repeats):
                    if tracer is None:
                        (rc, stdout), timing = self.clock.time(lambda: execute(step))
                    else:
                        tracer.step = step
                        tracer.begin("step." + step)
                        started = perf_counter()
                        try:
                            rc, stdout = execute(step)
                        finally:
                            timing = Timing(perf_counter() - started, [])
                            tracer.end()
                    if not self.ledger.check(rc == 0, f"step {step} returned {rc}"):
                        return None
                    times[step].append(timing)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return times, stdout

    def check_outputs(self, eval_stdout: str):
        """Output checks; returns the eval report, or None when unreadable."""
        import numpy as np

        from udkernels.datasets import read_predictions
        from udkernels.pipeline import read_gram

        check = self.ledger.check
        try:
            gram = read_gram(self.paths["gram"])
            rows = read_predictions(self.paths["predictions"])
            report = json.loads(eval_stdout)
        except Exception as exc:
            check(False, f"outputs unreadable: {exc!r}")
            return None
        ids = self.train.instance_ids
        values = gram.values
        check(values.shape == (len(ids), len(ids)) and gram.instance_ids == ids,
              "gram has the training ids on both axes")
        check(bool(np.all(np.isfinite(values))) and np.array_equal(values, values.T),
              "gram is finite and symmetric")
        predicted = [label for _, label in rows]
        check(tuple(iid for iid, _ in rows) == self.test.instance_ids
              and set(predicted) <= set(self.train.labels),
              "every test id gets a label seen in training")
        hits = sum(p == g for p, g in zip(predicted, self.test.labels))
        check(len(predicted) == len(self.test.labels)
              and report["accuracy"] == hits / len(self.test.labels),
              "eval accuracy matches the predictions")
        if self.reference is None:
            self.reference = (values, predicted)
            self.check_cells(values)
        else:
            check(np.array_equal(values, self.reference[0]), "gram repeats bit for bit")
            check(predicted == self.reference[1], "predictions repeat")
        return report

    def check_cells(self, values):
        """Seeded Gram cells against the plain, uncached public kernels."""
        from udkernels.combine import PairKernelParams, composite_kernel, sm_tk
        from udkernels.pipeline import bind_sigma

        spec = bind_sigma(self.cfg.kernel_spec, self.cfg, self.resources)
        kernel = sm_tk if isinstance(spec, PairKernelParams) else composite_kernel
        payloads = self.train.payloads
        rng = random.Random(self.seed)
        n = len(payloads)
        diagonal = rng.randrange(n)
        cells = [(diagonal, diagonal)] + [tuple(sorted(rng.sample(range(n), 2))) for _ in range(SAMPLE_CELLS - 1)]
        for i, j in cells:
            expected = kernel(payloads[i], payloads[j], spec)
            found = values[i, j]
            self.ledger.check(
                abs(found - expected) <= REL_TOL * max(abs(found), abs(expected)),
                f"gram cell ({i}, {j}) = {found!r}, plain kernel gives {expected!r}",
            )

    def input_sizes(self) -> dict:
        def trees(payload):
            return payload if isinstance(payload, tuple) else (payload.lct,)

        nodes = [t.size() for split in (self.train, self.test) for p in split.payloads for t in trees(p)]
        n = len(self.train.instance_ids)
        return {
            "train_instances": n,
            "test_instances": len(self.test.instance_ids),
            "gram_cells": n * (n + 1) // 2,
            "tokens_mean": statistics.fmean(nodes) / 3,  # an LCT has 3 nodes per token
            "tokens_max": max(nodes) // 3,
            "lct_nodes_mean": statistics.fmean(nodes),
            "lct_nodes_max": max(nodes),
        }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work)
        with bench.clock.running():
            result = _measure(bench, seconds, trace)
        result.update(workload=workload.name, why=workload.why, seed=seed)
        _write_record(result, result.pop("spans"))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(bench, seconds: float, trace: bool) -> dict:
    """Set-ups and pipeline passes of one run, with their metrics."""
    from calibration import Timing, calibrated
    from tracing import Tracer

    setup_times = bench.setup(SETUP_FIRST)
    tracer = Tracer() if trace else None
    runs, traced_runs, spans = [], [], []
    report, counts = None, None
    started = perf_counter()
    last = 0.0
    while True:
        traced = trace and len(runs) % 2 == 1
        begun = perf_counter()
        result = bench.pipeline(tracer if traced else None)
        if result is None:
            break
        times, eval_stdout = result
        report = bench.check_outputs(eval_stdout) or report
        setup_times += bench.setup(SETUP_PER_PASS)
        # a pass's total counts each step once, as a user would run it
        firsts = [times[s][0] for s in STEPS]
        total = Timing(sum(t.seconds for t in firsts), [r for t in firsts for r in t.references])
        runs.append({"traced": traced, **times, "total": total})
        if traced:
            layer = tracer.layer_metrics()
            traced_runs.append(layer)
            spans.append(tracer.spans)
            exact = tracer.exact_counts()
            if counts is not None:
                bench.ledger.check(exact == counts, f"exact counts differ between traced runs: {counts} vs {exact}")
            counts = exact
        last = perf_counter() - begun
        minimum = MIN_TRACE_RUNS if trace else MIN_RUNS
        if len(runs) >= minimum and perf_counter() - started + last > seconds:
            break
    ledger = bench.ledger
    timings = {
        "setup_s": setup_times,
        **{f"{s}_s": [t for r in runs if not r["traced"] for t in r[s]] for s in STEPS if s != "eval"},
        "total_s": [r["total"] for r in runs if not r["traced"]],
    }
    # the run's first train is a warm-up: up to 1.8 times slower than the rest
    timings["train_s"] = timings["train_s"][1:]
    result = {
        "seconds": seconds,
        "trace": int(trace),
        "host": host_record(),
        "inputs": bench.input_sizes(),
        # every timed execution as [net seconds, reference samples, their mean]
        "timings": {name: [_record(t) for t in v] for name, v in timings.items()},
        "passes": len(runs),
        "traced_passes": [i for i, r in enumerate(runs) if r["traced"]],
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "spans": spans,
    }
    if trace:
        metrics = {name: min(r[name] for r in traced_runs) for name in traced_runs[0]} if traced_runs else {}
        # passes alternate, so each traced pass is paired with the untraced
        # pass just before it, which ran under much the same host load
        overheads = [b["total"].seconds - a["total"].seconds for a, b in zip(runs, runs[1:]) if b["traced"]]
        metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
        result["absent"] = tracer.absent
        result["exact_counts"] = counts
        result["gram_step_counts"] = {
            name: tracer.step_count("gram", name) for name in ("kernels.calls.SPTK", "lexical.sigma_calls")
        } if traced_runs else {}
    else:
        failed_share = len(ledger.failures) / max(ledger.attempted, 1)
        result["uncalibrated_s"] = {
            name: statistics.fmean(t.seconds for t in v) if v else 0.0 for name, v in timings.items()
        }
        metrics = {
            **{name: calibrated(v) for name, v in timings.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy": 100 * report["accuracy"] if report else 0.0,
            "macro_f1": 100 * report["macro_f1"] if report else 0.0,
            "ok_share": 1 - failed_share,
        }
        result["failed_share"] = failed_share
    result["metrics"] = metrics
    return result


def _record(timing) -> list:
    refs = timing.references
    return [timing.seconds, len(refs), statistics.fmean(refs) if refs else None]


def host_record() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _write_record(result: dict, spans: list):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if spans:
        with gzip.open(results / f"{stem}-spans.tsv.gz", "wt", encoding="utf-8") as handle:
            handle.write("run\tindex\tname\tstart\tend\tparent\n")
            for run, run_spans in enumerate(spans):
                for index, (name, start, end, parent, _) in enumerate(run_spans):
                    handle.write(f"{run}\t{index}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def _print_table(result: dict, units: dict):
    name = result["workload"]
    print(f"{name} seed={result['seed']} passes={result['passes']} "
          f"attempted={result['attempted']} failed={len(result['failures'])}")
    rows = dict(result["metrics"])
    if "failed_share" in result:
        rows["failed_share"] = result["failed_share"]
        units = {**units, "failed_share": "ratio"}
    for metric, value in rows.items():
        print(f"  {metric:34s} {value:14.6f} {units[metric]}")
    for absent in result.get("absent", []):
        print(f"  absent: {absent} (its metrics read 0)")


def import_checkout() -> bool:
    """Import udkernels from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import udkernels
    except ImportError as exc:
        print(f"perfbench: cannot import udkernels from {SRC}: {exc}", file=sys.stderr)
        return False
    if not Path(udkernels.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: udkernels resolves to {udkernels.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend on pipeline runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_checkout():
        return 2
    from tracing import LAYER_UNITS

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    units = LAYER_UNITS if args.trace else END_TO_END
    results = [run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names]
    metrics = {}
    for result in results:
        _print_table(result, units)
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    failed = sum(len(r["failures"]) for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
