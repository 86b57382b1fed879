#!/usr/bin/env python3
"""End-to-end experiment on synthetic data, composed from the CLI.

Generates a corpus, writes the run config, then drives the same four
steps a manual run would: gram -> train -> predict -> eval. The eval
report lands on stdout and every artifact (corpus, config, Gram matrix,
model, predictions) stays in the output directory for inspection.

Tasks:

  pi   pair classification with the soft-max pair kernel over a tree
       kernel on lexically centered dependency trees
  re   relation classification with a composite kernel (pick the
       variant with --variant, add --soft for the soft tree kernel)
  xl   relation classification trained on the base language and tested
       on a pseudo-language twin reached through a bilingual dictionary

Examples:

  python3 scripts/run_experiment.py pi --out /tmp/pi-run
  python3 scripts/run_experiment.py re --variant CK3 --out /tmp/re-run
  python3 scripts/run_experiment.py xl --soft --out /tmp/xl-run
"""

import argparse
import json
import os
import sys
import time

from udkernels.cli import main as cli_main
from udkernels.synthetic import write_crosslingual_re, write_pi_corpus, write_re_corpus


def build_config(args, paths) -> dict:
    if args.task == "pi":
        return {
            "task": "pi",
            "kernel": {"base": {"kind": args.base}, "m": args.m},
            "data": {
                "train": paths["bank"],
                "pairs_train": paths["pairs_train.tsv"],
                "pairs_test": paths["pairs_test.tsv"],
                "source_lang": "en",
            },
            "svm": {"C": args.C},
        }
    pt = {"kind": "PTK"}
    if args.soft:
        mode = "translate_then_compare" if args.task == "xl" else "monolingual"
        pt = {"kind": "SPTK", "sigma": {"mode": mode}}
    data = {
        "train": paths["train.conllu"],
        "test": paths["test.conllu"],
        "source_lang": "en",
    }
    resources = {"embeddings": {"en": paths["vectors.txt"]}}
    if args.task == "xl":
        data["target_lang"] = "xx"
        resources["dictionary"] = paths["dict.tsv"]
    if args.variant in ("CK1", "CK3"):
        data["train_const"] = paths["train.const"]
        data["test_const"] = paths["test.const"]
    return {
        "task": "re",
        "kernel": {"variant": args.variant, "sst": {"kind": "SST"}, "pt": pt},
        "data": data,
        "resources": resources,
        "svm": {"C": args.C},
    }


def run_step(argv) -> None:
    print("$ udkernels " + " ".join(argv), flush=True)
    started = time.monotonic()
    rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(rc)
    print(f"  ({time.monotonic() - started:.2f}s)", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=("pi", "re", "xl"))
    parser.add_argument("--out", required=True, help="run directory for all artifacts")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="pairs (pi) or sentences per relation (re/xl); defaults 40 / 20",
    )
    parser.add_argument("--variant", choices=("CK1", "CK2", "CK3"), default="CK2")
    parser.add_argument(
        "--soft",
        action="store_true",
        help="soft tree kernel over word vectors as the dependency component (re/xl)",
    )
    parser.add_argument("--base", choices=("SST", "PTK"), default="PTK", help="pair task base kernel")
    parser.add_argument("--m", type=float, default=100.0, help="soft-max sharpness for the pair task")
    parser.add_argument("--C", type=float, default=1.0, help="SVM regularization")
    args = parser.parse_args(argv)
    if args.soft and args.task == "pi":
        parser.error("--soft applies to the relation tasks (re, xl)")

    data_dir = os.path.join(args.out, "data")
    if args.task == "pi":
        paths = write_pi_corpus(data_dir, n_pairs=args.size or 40, seed=args.seed)
    else:
        write = write_re_corpus if args.task == "re" else write_crosslingual_re
        paths = write(data_dir, n_per_class=args.size or 20, seed=args.seed)

    config_path = os.path.join(args.out, "config.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(build_config(args, paths), handle, indent=1)
        handle.write("\n")

    gram = os.path.join(args.out, "train.gram")
    model = os.path.join(args.out, "model.json")
    predictions = os.path.join(args.out, "predictions.tsv")
    run_step(["gram", "--config", config_path, "--out", gram])
    run_step(["train", "--config", config_path, "--model", model, "--gram", gram])
    run_step(["predict", "--config", config_path, "--model", model, "--out", predictions])
    run_step(["eval", "--config", config_path, "--predictions", predictions])
    print(f"artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
