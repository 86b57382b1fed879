#!/usr/bin/env python3
"""Write every artifact that must repeat byte for byte, and a manifest of them.

    python3 scripts/byte_contract.py CHECKOUT OUT

Runs CHECKOUT's own scripts/ and src/, so a checkout without this script
is checked the same way: the experiment runs (Gram, model, predictions,
eval report, and for the cross-lingual runs the predictions and eval
report of the source-language train split too), the synthetic corpora
with their lct and pet transforms, the transforms of a sentence deeper
than the recursion limit, an xl --soft run through the relaxed sigma
branches, and node-pair delta tables. Then writes OUT/manifest.tsv, one
sorted line per artifact: its path relative to OUT, its SHA-256 and its
size. OUT must be absent or empty, and a failing command stops the
script before the manifest exists.
"""

import glob
import hashlib
import json
import os
import subprocess
import sys

# SST on lexical-centred trees (pi --base SST) and on PETs (CK1, CK3), PTK
# (pi, re, xl), and SPTK with each sigma mode (re --soft, xl --soft)
RUNS = ("pi", "pi --base SST", "re", "re --variant CK1", "re --variant CK3", "re --soft",
        "xl", "xl --soft")
CLI = ("-m", "udkernels.cli")
RUN_FILES = ("train.gram", "model.json", "predictions.tsv", "eval.json")
# lexical-centred trees: a pair, a root with ten dependents and a copy of
# it with those dependents reordered (long child sequences run the
# subsequence recursion many levels deep), and one constituency pair in
# which A -> B is carried both by a node whose children are all leaves and
# by a deeper one, so one SST production group holds both kinds of rows
CHASE = "(chase^VERB (root) (VERB) (dog^NOUN (nsubj) (NOUN) (the^DET (det) (DET))) (cat^NOUN (obj) (NOUN) (the^DET (det) (DET))))"
CHASED = "(chase^VERB (root) (VERB) (cat^NOUN (nsubj) (NOUN) (a^DET (det) (DET))) (dog^NOUN (obj) (NOUN) (the^DET (det) (DET))))"
WIDE = "(gave^VERB (root) (VERB) (she^PRON (nsubj) (PRON)) (him^PRON (iobj) (PRON)) (book^NOUN (obj) (NOUN) (a^DET (det) (DET))) (yesterday^ADV (advmod) (ADV)) (park^NOUN (obl) (NOUN) (in^ADP (case) (ADP)) (the^DET (det) (DET))) (quietly^ADV (advmod) (ADV)) (smiled^VERB (conj) (VERB) (and^CCONJ (cc) (CCONJ))) (then^ADV (advmod) (ADV)) (.^PUNCT (punct) (PUNCT)))"
REORDERED = "(gave^VERB (root) (VERB) (yesterday^ADV (advmod) (ADV)) (she^PRON (nsubj) (PRON)) (quietly^ADV (advmod) (ADV)) (him^PRON (iobj) (PRON)) (book^NOUN (obj) (NOUN) (a^DET (det) (DET))) (park^NOUN (obl) (NOUN) (in^ADP (case) (ADP)) (the^DET (det) (DET))) (then^ADV (advmod) (ADV)) (.^PUNCT (punct) (PUNCT)) (smiled^VERB (conj) (VERB) (and^CCONJ (cc) (CCONJ))))"
# delta table name -> kind, tree1, tree2 and the decays when not the defaults
DELTAS = {f"delta-{kind}": [kind, CHASE, CHASED] for kind in ("SST", "PTK", "SPTK")}
for kind in ("PTK", "SPTK"):
    for decays, args in (("default", []), ("one", ["--lam", "1", "--mu", "1"])):
        for other, tree in (("wide", WIDE), ("reordered", REORDERED)):
            DELTAS[f"delta-wide-{kind}-{decays}-{other}"] = [kind, WIDE, tree, *args]
DELTAS["delta-SST-const"] = ["SST", "(S (A (B)) (A (B (c))))", "(S (A (B (c))) (A (B)))"]


def main(checkout: str, out: str) -> int:
    if os.path.exists(out) and (not os.path.isdir(out) or os.listdir(out)):
        sys.exit(f"byte_contract: {out} must be absent or an empty directory")
    checkout, out = os.path.abspath(checkout), os.path.abspath(out)
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    artifacts = []

    def run(*argv, stdout=os.devnull) -> None:
        with open(stdout, "w", encoding="utf-8") as handle:
            done = subprocess.run([sys.executable, *argv], env=env, cwd=out, stdout=handle)
        if done.returncode != 0:
            sys.exit(f"byte_contract: exit status {done.returncode} from {' '.join(argv)}")

    os.makedirs(out, exist_ok=True)
    for spec in RUNS:
        run_dir = f"{out}/{spec.replace(' ', '').replace('-', '')}"
        run(f"{checkout}/scripts/run_experiment.py", *spec.split(), "--out", run_dir)
        config, predictions = f"{run_dir}/config.json", f"{run_dir}/predictions.tsv"
        run(*CLI, "eval", "--config", config, "--predictions", predictions, "--format", "json",
            stdout=f"{run_dir}/eval.json")
        artifacts += [f"{run_dir}/{file}" for file in RUN_FILES]
        if spec.startswith("xl"):
            # the train split is in the source language, so a config that
            # sets target_lang must not translate it
            train_predictions = f"{run_dir}/train-predictions.tsv"
            train_eval = f"{run_dir}/train-eval.json"
            run(*CLI, "predict", "--config", config, "--model", f"{run_dir}/model.json",
                "--split", "train", "--out", train_predictions)
            run(*CLI, "eval", "--config", config, "--predictions", train_predictions,
                "--split", "train", "--format", "json", stdout=train_eval)
            artifacts += [train_predictions, train_eval]

    # one sentence whose token i hangs from token i + 1, and a parse of it
    # whose first leaf sits at the bottom of a chain of as many N nodes
    depth = sys.getrecursionlimit() + 100
    deep = f"{out}/deep/deep"
    os.makedirs(f"{out}/deep")
    with open(f"{deep}.conllu", "w", encoding="utf-8") as handle:
        handle.write("# sent_id = deep\n")
        for i in range(1, depth + 1):
            head, deprel = (0, "root") if i == depth else (i + 1, "dep")
            misc = {1: "Entity=e1", 2: "Entity=e2"}.get(i, "_")
            handle.write(f"{i}\tw{i}\tw{i}\tX\t_\t_\t{head}\t{deprel}\t_\t{misc}\n")
    leaves = " ".join(f"w{i}" for i in range(2, depth + 1))
    with open(f"{deep}.const", "w", encoding="utf-8") as handle:
        handle.write("(S " + "(N " * depth + "w1" + ")" * depth + f" {leaves})\n")
    for task in ("pi", "re", "xl"):
        run(f"{checkout}/scripts/make_synthetic_data.py", task, "--out", f"{out}/synth/{task}")
    for conllu in [*glob.glob(f"{out}/synth/*/*.conllu"), f"{deep}.conllu"]:
        run(*CLI, "transform", "lct", "--conllu", conllu, "--out", f"{conllu}.lct")
    for base in (f"{out}/synth/re/train", f"{out}/synth/re/test", deep):
        run(*CLI, "transform", "pet", "--conllu", f"{base}.conllu", "--const", f"{base}.const",
            "--out", f"{base}.pet")
    artifacts += [*glob.glob(f"{out}/synth/*/*"), f"{deep}.conllu.lct", f"{deep}.pet"]

    relaxed = f"{out}/xlrelaxed"
    os.makedirs(relaxed)
    with open(f"{out}/xlsoft/config.json", encoding="utf-8") as handle:
        config = json.load(handle)
    config["kernel"]["pt"]["sigma"].update(pos_must_match=False, oov_policy="exact_match_fallback")
    with open(f"{relaxed}/config.json", "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=1)
    gram, model = f"{relaxed}/train.gram", f"{relaxed}/model.json"
    run(*CLI, "gram", "--config", f"{relaxed}/config.json", "--out", gram)
    run(*CLI, "train", "--config", f"{relaxed}/config.json", "--model", model, "--gram", gram)
    run(*CLI, "predict", "--config", f"{relaxed}/config.json", "--model", model,
        "--out", f"{relaxed}/predictions.tsv")
    artifacts += [f"{relaxed}/{file}" for file in RUN_FILES[:3]]

    os.makedirs(f"{out}/delta")
    for name, (kind, tree1, tree2, *decays) in DELTAS.items():
        table = f"{out}/delta/{name}.tsv"
        run(*CLI, "delta", "--kind", kind, "--tree1", tree1, "--tree2", tree2, *decays,
            stdout=table)
        artifacts.append(table)

    with open(f"{out}/manifest.tsv", "w", encoding="utf-8") as manifest:
        for path in sorted(os.path.relpath(path, out) for path in artifacts):
            with open(f"{out}/{path}", "rb") as handle:
                data = handle.read()
            manifest.write(f"{path}\t{hashlib.sha256(data).hexdigest()}\t{len(data)}\n")
    print(f"{len(artifacts)} artifacts in {out}/manifest.tsv")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
