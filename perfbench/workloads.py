"""The benchmark's workloads: seeded inputs plus a run config for each.

Each workload isolates a different layer (see WHY). Sizes are fixed
constants so every seed does the same amount of work; the seed only
changes which trees are drawn. Configs omit `threads`, so every
workload measures a default run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

from udkernels.synthetic import write_crosslingual_re, write_re_corpus

from pairs import write_pair_corpus

PI_TRAIN_PAIRS = 32
PI_TEST_PAIRS = 16
PI_LABEL_NOISE = 0.125  # 2 of the 16 test labels flipped
XL_PER_CLASS = 40  # 90 training, 30 test instances
RE_PER_CLASS = 50  # 113 training, 37 test instances
# Small enough that SMO puts every training instance at the bound, so
# predict scores the whole test x train rectangle on every seed. With
# C = 1 the support count varied with the seed (23 to 30 of 32 pairs),
# and predict time with it. At C = 0.01 every instance is a support too,
# but SMO took 9 to 25 ms on one workload depending on the seed; at
# 0.001 it takes 7 to 14 ms on every workload. Accuracy is the same.
SVM_C = 0.001


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable  # (work_dir, seed) -> config dict


def _make_pi(work_dir, seed):
    paths = write_pair_corpus(
        os.path.join(work_dir, "data"), PI_TRAIN_PAIRS, PI_TEST_PAIRS, seed, PI_LABEL_NOISE
    )
    return {
        "task": "pi",
        "kernel": {"base": {"kind": "PTK"}, "m": 100.0},
        "data": {
            "train": paths["bank"],
            "pairs_train": paths["pairs_train"],
            "pairs_test": paths["pairs_test"],
            "source_lang": "en",
        },
        "svm": {"C": SVM_C},
    }


def _make_xl(work_dir, seed):
    paths = write_crosslingual_re(os.path.join(work_dir, "data"), n_per_class=XL_PER_CLASS, seed=seed)
    return {**xl_config(paths), "svm": {"C": SVM_C}}


def xl_config(paths):
    """CK2 with SPTK translate_then_compare over write_crosslingual_re files."""
    return {
        "task": "re",
        "kernel": {
            "variant": "CK2",
            "sst": {"kind": "SST"},
            "pt": {"kind": "SPTK", "sigma": {"mode": "translate_then_compare"}},
        },
        "data": {
            "train": paths["train.conllu"],
            "test": paths["test.conllu"],
            "source_lang": "en",
            "target_lang": "xx",
        },
        "resources": {"embeddings": {"en": paths["vectors.txt"]}, "dictionary": paths["dict.tsv"]},
        "svm": {"C": 1.0},
    }


def _make_re(work_dir, seed):
    paths = write_re_corpus(os.path.join(work_dir, "data"), n_per_class=RE_PER_CLASS, seed=seed)
    return {
        "task": "re",
        "kernel": {"variant": "CK3", "sst": {"kind": "SST"}, "pt": {"kind": "PTK"}},
        "data": {
            "train": paths["train.conllu"],
            "test": paths["test.conllu"],
            "train_const": paths["train.const"],
            "test_const": paths["test.const"],
            "source_lang": "en",
        },
        "resources": {"embeddings": {"en": paths["vectors.txt"]}},
        "svm": {"C": SVM_C},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pi-ptk-long",
            "pair task, PTK on 8-40 token sentences: DP cost per cell grows superlinearly "
            "and few node pairs share a label, so bucketing and Gram parallelism show here",
            _make_pi,
        ),
        Workload(
            "xl-sptk-ck2",
            "cross-lingual CK2 with SPTK translate_then_compare: the only workload that "
            "calls sigma, once per node pair, mostly returning 0",
            _make_xl,
        ),
        Workload(
            "re-ck3-wide",
            "CK3 (SST on PET, PTK on LCT, poly on V_ud) over many short instances: "
            "per-call overhead, tree indexing and cache growth dominate; only SST user",
            _make_re,
        ),
    )
}


def write_config(work_dir, config: dict) -> str:
    path = os.path.join(work_dir, "config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=1)
    return path
