"""Command line front end.

Subcommands mirror the pipeline steps: gram, train, predict, eval,
plus tree utilities (transform, validate, delta). Tool failures exit
with status 2 and one categorized line on stderr; validate exits 1
when it finds problems.
"""

from __future__ import annotations

import argparse
import sys

from . import transforms
from .config import load_config
from .conllu import parse_conllu_file, to_conllu, validate
from .datasets import _entity_span
from .errors import ConfigError, DataError, ToolkitError
from .kernels import TreeKernelParams, delta_matrix
from .lexical import indicator_sigma
from .metrics import render_json, render_text
from .pipeline import run_eval, run_gram, run_predict, run_train


def _add_config(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="run configuration JSON")


def _open_out(path):
    return open(path, "w", encoding="utf-8") if path else sys.stdout


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udkernels",
        description="tree kernel training and prediction over dependency parses",
    )
    parser.add_argument("--verbose", action="store_true", help="full tracebacks on errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="compute and store the training Gram matrix")
    _add_config(p)
    p.add_argument("--out", required=True, help="output Gram file path")

    p = sub.add_parser("train", help="train a classifier")
    _add_config(p)
    p.add_argument("--model", required=True, help="output model JSON path")
    p.add_argument("--gram", default=None, help="reuse a precomputed training Gram file")

    p = sub.add_parser("predict", help="label a data split with a trained model")
    _add_config(p)
    p.add_argument("--model", required=True, help="trained model JSON path")
    p.add_argument("--out", required=True, help="output predictions TSV")
    p.add_argument("--split", choices=("train", "test"), default="test")

    p = sub.add_parser("eval", help="score predictions against gold labels")
    _add_config(p)
    p.add_argument("--predictions", required=True, help="predictions TSV path")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("transform", help="tree conversions")
    p.add_argument("op", choices=("lct", "collapse", "pet"))
    p.add_argument("--conllu", required=True, help="input CoNLL-U file")
    p.add_argument("--const", default=None, help="bracketed parses (op=pet)")
    p.add_argument("--out", default=None, help="output path, default stdout")
    p.add_argument("--relations", default="fixed", help="comma list of relations to collapse")
    p.add_argument("--keep-case", action="store_true", help="keep original casing (op=lct)")

    p = sub.add_parser("validate", help="check CoNLL-U structural well-formedness")
    p.add_argument("--conllu", required=True, help="input CoNLL-U file")

    p = sub.add_parser("delta", help="print the node-pair delta table of two trees")
    p.add_argument("--kind", choices=("SST", "PTK", "SPTK"), default="PTK")
    p.add_argument("--tree1", required=True, help="first tree as an s-expression")
    p.add_argument("--tree2", required=True, help="second tree as an s-expression")
    p.add_argument("--lam", type=float, default=0.4, help="decay over fragment width")
    p.add_argument("--mu", type=float, default=0.4, help="decay over fragment depth")
    return parser


def _cmd_gram(args) -> int:
    cfg = load_config(args.config)
    gram = run_gram(cfg, args.out)
    print(f"wrote {len(gram)}x{len(gram)} gram to {args.out} (kernel {gram.fingerprint})")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    model = run_train(cfg, args.model, gram_path=args.gram)
    counts = ", ".join(f"{c.label}:{len(c.support_idx)}" for c in model.classes)
    print(f"wrote model to {args.model} (supports per class: {counts})")
    return 0


def _cmd_predict(args) -> int:
    cfg = load_config(args.config)
    _, labels, _ = run_predict(cfg, args.model, args.out, split=args.split)
    print(f"wrote {len(labels)} predictions to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = load_config(args.config)
    report = run_eval(cfg, args.predictions, split=args.split)
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(report))
    return 0


def _cmd_transform(args) -> int:
    trees = parse_conllu_file(args.conllu)
    out = _open_out(args.out)
    try:
        if args.op == "lct":
            for tree in trees:
                lct = transforms.to_lct(tree, lowercase=not args.keep_case)
                out.write(transforms.labeled_to_sexpr(lct) + "\n")
        elif args.op == "collapse":
            relations = frozenset(r for r in args.relations.split(",") if r)
            cfg = transforms.MweConfig(relations=relations, scope="whole_tree")
            for tree in trees:
                collapsed, _ = transforms.collapse_mwe(
                    tree, cfg, [t.id for t in tree.tokens]
                )
                out.write(to_conllu(collapsed) + "\n")
        else:  # pet
            if not args.const:
                raise ConfigError("transform pet requires --const")
            with open(args.const, encoding="utf-8", newline="") as handle:
                consts = transforms.parse_bracketed(handle.read(), source=args.const)
            if len(consts) != len(trees):
                raise ConfigError(
                    f"{len(consts)} parses for {len(trees)} sentences"
                )
            for tree, const in zip(trees, consts):
                span1 = _entity_span(tree, "e1")
                span2 = _entity_span(tree, "e2")
                try:
                    pet = transforms.extract_pet(const, span1, span2)
                except DataError as exc:
                    raise DataError(f"{tree.sent_id}: {exc}") from None
                out.write(transforms.const_to_bracketed(pet) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_validate(args) -> int:
    trees = parse_conllu_file(args.conllu)
    problems = 0
    for tree in trees:
        for line in validate(tree):
            problems += 1
            print(f"{tree.sent_id}: {line}")
    print(f"checked {len(trees)} sentences, {problems} problems")
    return 1 if problems else 0


def _cmd_delta(args) -> int:
    t1 = transforms.labeled_from_sexpr(args.tree1)
    t2 = transforms.labeled_from_sexpr(args.tree2)
    sigma = indicator_sigma if args.kind == "SPTK" else None
    params = TreeKernelParams(kind=args.kind, lam=args.lam, mu=args.mu, sigma=sigma)
    sys.stdout.write(delta_matrix(t1, t2, params).to_tsv())
    return 0


_COMMANDS = {
    "gram": _cmd_gram,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "transform": _cmd_transform,
    "validate": _cmd_validate,
    "delta": _cmd_delta,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ToolkitError as exc:
        if args.verbose:
            raise
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
