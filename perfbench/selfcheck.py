#!/usr/bin/env python3
"""Exact-count self-check of the traced run.

  python3 perfbench/selfcheck.py

1. At the `xl --soft --size 60` shape on seed 13 (write_crosslingual_re
   with 60 sentences per relation, CK2 with SPTK translate_then_compare),
   the traced `gram` step must make 9,180 SPTK calls and 3,283,173 sigma
   calls, and the traced `predict` step 1,343,601 sigma calls. These
   figures were counted independently of the tracer.
2. For every workload, one traced run (two traced pipeline passes of one
   seed) must give identical kernel calls and node pairs per kind, sigma
   calls, Gram cells and SMO sweeps; run.py records a differing pair as a
   failed check.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

PINNED_SEED = 13
PINNED_SIZE = 60
PINNED = {
    ("gram", "kernels.calls.SPTK"): 9_180,
    ("gram", "lexical.sigma_calls"): 3_283_173,
    ("predict", "lexical.sigma_calls"): 1_343_601,
}


def _make_pinned(work_dir, seed):
    from udkernels.synthetic import write_crosslingual_re

    from workloads import xl_config

    paths = write_crosslingual_re(os.path.join(work_dir, "data"), n_per_class=PINNED_SIZE, seed=seed)
    return xl_config(paths)


def pinned_counts() -> bool:
    from tracing import Tracer

    from workloads import Workload

    work = run.OUT / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = run.Bench(Workload("xl-soft-60", "", _make_pinned), PINNED_SEED, work)
        tracer = Tracer()
        if bench.pipeline(tracer) is None:
            print("pinned counts: pipeline failed")
            return False
        ok = True
        for (step, name), expected in PINNED.items():
            found = tracer.step_count(step, name)
            ok &= found == expected
            print(f"pinned {step:8s} {name:22s} expected {expected:>10,} found {found:>10,}"
                  f"  {'ok' if found == expected else 'MISMATCH'}")
        return ok
    finally:
        shutil.rmtree(work, ignore_errors=True)


def repeated_counts() -> bool:
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS.values():
        result = run.run_workload(workload, seed=1, seconds=0, trace=True)
        same = not result["failures"]
        ok &= same
        print(f"repeat {workload.name:12s} {'identical' if same else 'DIFFER'}: {result['exact_counts']}")
    return ok


def main() -> int:
    if not run.import_checkout():
        return 2
    ok = pinned_counts()
    ok &= repeated_counts()
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
