"""End-to-end wiring: resources, instance preparation, Gram artifacts,
training, prediction, evaluation.

Every step is a plain function over a RunConfig so scripts and the CLI
share one code path. Artifacts carry a kernel fingerprint and steps
refuse to mix artifacts produced under different kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .combine import (
    CompositeParams,
    PairKernelParams,
    REKernelInput,
    kernel_fingerprint,
    kernel_matrix,
    kernel_spec_to_dict,
)
from .config import RunConfig
from .conllu import DepTree
from .datasets import load_pi_dataset, load_re_dataset, write_predictions
from .errors import ConfigError, DataError
from .features import PIInstance, REInstance, build_vo, build_vud
from .lexical import (
    BilingualDictionary,
    EmbeddingStore,
    load_dictionary,
    load_embeddings,
    make_sigma,
)
from .metrics import EvalReport, evaluate
from .svm import (
    GramMatrix,
    SvmModel,
    build_model,
    load_model,
    predict,
    save_model,
    train_ovr,
)
from .transforms import const_to_labeled, extract_pet, to_lct


@dataclass
class Resources:
    stores: dict = field(default_factory=dict)  # lang -> EmbeddingStore
    dictionary: BilingualDictionary | None = None

    def store_for(self, lang: str) -> EmbeddingStore | None:
        if lang and lang in self.stores:
            return self.stores[lang]
        if len(self.stores) == 1:
            return next(iter(self.stores.values()))
        return None


def load_resources(cfg: RunConfig) -> Resources:
    stores = {
        lang: load_embeddings(path, lang=lang)
        for lang, path in sorted(cfg.resources.embeddings.items())
    }
    dictionary = None
    if cfg.resources.dictionary:
        dictionary = load_dictionary(
            cfg.resources.dictionary,
            source_lang=cfg.data.target_lang,
            target_lang=cfg.data.source_lang,
            lowercase=cfg.features.lowercase,
        )
    return Resources(stores=stores, dictionary=dictionary)


def pivot_store(cfg: RunConfig, resources: Resources) -> EmbeddingStore:
    """The embedding space kernels and features are anchored in.

    Cross-lingual runs translate non-pivot words into this store, so it
    is the source-language one (training side) when that is configured.
    """
    store = resources.store_for(cfg.data.source_lang)
    if store is None:
        raise ConfigError(
            f"no embeddings for source language {cfg.data.source_lang!r}; "
            f"available: {sorted(resources.stores)}"
        )
    return store


def bind_sigma(spec, cfg: RunConfig, resources: Resources):
    """Attach the node-similarity function where a soft kernel needs one."""

    def bound(tree_params):
        if tree_params.kind != "SPTK":
            return tree_params
        sigma_cfg = tree_params.sigma_cfg
        if sigma_cfg is None:
            raise ConfigError("soft tree kernel requires a sigma config")
        fn = make_sigma(sigma_cfg, pivot_store(cfg, resources), resources.dictionary)
        return replace(tree_params, sigma=fn)

    if isinstance(spec, PairKernelParams):
        return replace(spec, base=bound(spec.base))
    if isinstance(spec, CompositeParams):
        return replace(spec, pt=bound(spec.pt))
    return spec


# ---------------------------------------------------------------------------
# Instance preparation: datasets -> kernel payloads.


def prepare_pi_payload(inst: PIInstance, cfg: RunConfig):
    return (
        to_lct(inst.tree_a, lowercase=cfg.features.lowercase),
        to_lct(inst.tree_b, lowercase=cfg.features.lowercase),
    )


def _instance_pet(inst: REInstance):
    if inst.const_tree is None:
        return None
    pet = extract_pet(inst.const_tree, inst.e1_span, inst.e2_span)
    return const_to_labeled(pet)


def prepare_re_payload(
    inst: REInstance, cfg: RunConfig, resources: Resources, feature_mode: str
) -> REKernelInput:
    store = pivot_store(cfg, resources)
    build = build_vo if feature_mode == "V_o" else build_vud
    features = cfg.features
    if inst.lang and cfg.data.source_lang and inst.lang != cfg.data.source_lang:
        # non-pivot side reaches the pivot space through the dictionary
        features = replace(features, translate=True)
    vec = build(inst, store, features, resources.dictionary)
    return REKernelInput(
        lct=to_lct(inst.dep_tree, lowercase=cfg.features.lowercase),
        vec=vec,
        pet=_instance_pet(inst),
    )


@dataclass
class PreparedSplit:
    instance_ids: tuple
    labels: tuple
    payloads: list


def _load_split(cfg: RunConfig, split: str):
    data = cfg.data
    lang = data.source_lang if split == "train" else (data.target_lang or data.source_lang)
    if cfg.task == "pi":
        pairs = data.pairs_train if split == "train" else data.pairs_test
        bank = data.train if split == "train" else (data.test or data.train)
        if not pairs or not bank:
            raise ConfigError(f"config lacks {split} paths for the pair task")
        return load_pi_dataset(pairs, bank, lang=lang)
    conllu = data.train if split == "train" else data.test
    if not conllu:
        raise ConfigError(f"config lacks data.{'train' if split == 'train' else 'test'}")
    spec = cfg.kernel_spec
    needs_const = isinstance(spec, CompositeParams) and spec.variant in ("CK1", "CK3")
    const = None
    if needs_const:
        const = data.train_const if split == "train" else data.test_const
    return load_re_dataset(conllu, const_path=const, lang=lang)


def prepare_split(cfg: RunConfig, resources: Resources, split: str) -> PreparedSplit:
    instances = _load_split(cfg, split)
    if cfg.task == "pi":
        payloads = [prepare_pi_payload(inst, cfg) for inst in instances]
        labels = tuple("1" if inst.label else "0" for inst in instances)
    else:
        mode = cfg.kernel_spec.feature_mode
        payloads = [prepare_re_payload(inst, cfg, resources, mode) for inst in instances]
        labels = tuple(inst.label for inst in instances)
    return PreparedSplit(
        instance_ids=tuple(inst.instance_id for inst in instances),
        labels=labels,
        payloads=payloads,
    )


def spec_fingerprint(spec) -> str:
    return kernel_fingerprint(kernel_spec_to_dict(spec))


# ---------------------------------------------------------------------------
# Gram artifacts. TSV with ids on both axes, values via repr so reading
# them back is exact; a metadata line pins the producing kernel.


def write_gram(path, gram: GramMatrix):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# fingerprint = {gram.fingerprint}\n")
        handle.write("\t".join(["id", *gram.instance_ids]) + "\n")
        for i, iid in enumerate(gram.instance_ids):
            row = [iid] + [repr(float(v)) for v in gram.values[i]]
            handle.write("\t".join(row) + "\n")


def read_gram(path) -> GramMatrix:
    fingerprint = ""
    ids = None
    rows = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("fingerprint"):
                    _, _, value = body.partition("=")
                    fingerprint = value.strip()
                continue
            parts = line.split("\t")
            if ids is None:
                if parts[0] != "id":
                    raise DataError(f"{path}:{lineno}: expected header starting with 'id'")
                ids = tuple(parts[1:])
                continue
            if len(parts) != len(ids) + 1:
                raise DataError(
                    f"{path}:{lineno}: expected {len(ids) + 1} columns, got {len(parts)}"
                )
            try:
                rows.append((parts[0], [float(x) for x in parts[1:]]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if ids is None or len(rows) != len(ids):
        raise DataError(f"{path}: truncated gram matrix")
    if tuple(r[0] for r in rows) != ids:
        raise DataError(f"{path}: row ids do not match column ids")
    values = np.array([r[1] for r in rows], dtype=np.float64)
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"{path}: non-finite gram entry at {ids[i]} x {ids[j]}")
    if not np.array_equal(values, values.T):
        i, j = np.argwhere(values != values.T)[0]
        raise DataError(f"{path}: gram matrix is not symmetric at {ids[i]} x {ids[j]}")
    return GramMatrix(values=values, instance_ids=ids, fingerprint=fingerprint)


def _check_fingerprint(expected: str, found: str, what: str):
    if not found:
        raise DataError(f"{what} carries no kernel fingerprint; recompute it")
    if found != expected:
        raise DataError(
            f"{what} was produced under kernel {found}, run configures {expected}; "
            "recompute it or fix the config"
        )


# ---------------------------------------------------------------------------
# Run steps.


def _gram(spec, prepared: PreparedSplit, fingerprint: str) -> GramMatrix:
    payloads, ids = prepared.payloads, prepared.instance_ids
    return GramMatrix(kernel_matrix(payloads, payloads, spec, ids), ids, fingerprint)


def run_gram(cfg: RunConfig, out_path, split: str = "train") -> GramMatrix:
    resources = load_resources(cfg)
    spec = bind_sigma(cfg.kernel_spec, cfg, resources)
    prepared = prepare_split(cfg, resources, split)
    gram = _gram(spec, prepared, spec_fingerprint(cfg.kernel_spec))
    if out_path is not None:
        write_gram(out_path, gram)
    return gram


def run_train(cfg: RunConfig, model_out, gram_path=None) -> SvmModel:
    resources = load_resources(cfg)
    spec = bind_sigma(cfg.kernel_spec, cfg, resources)
    prepared = prepare_split(cfg, resources, "train")
    fingerprint = spec_fingerprint(cfg.kernel_spec)
    if gram_path is not None:
        gram = read_gram(gram_path)
        _check_fingerprint(fingerprint, gram.fingerprint, f"gram file {gram_path}")
        if gram.instance_ids != prepared.instance_ids:
            raise DataError(f"gram file {gram_path} covers different instances than data.train")
    else:
        gram = _gram(spec, prepared, fingerprint)
    ovr = train_ovr(
        gram.values,
        prepared.labels,
        C=cfg.svm.C,
        tol=cfg.svm.tol,
        max_passes=cfg.svm.max_passes,
        class_weights=cfg.svm.class_weights or None,
    )
    model = build_model(
        cfg.task,
        kernel_spec_to_dict(cfg.kernel_spec),
        ovr,
        prepared.labels,
        prepared.payloads,
        training_meta={"fingerprint": fingerprint, "C": cfg.svm.C, "tol": cfg.svm.tol},
    )
    if model_out is not None:
        save_model(model, model_out)
    return model


def run_predict(cfg: RunConfig, model_path, out_path, split: str = "test"):
    model = load_model(model_path) if not isinstance(model_path, SvmModel) else model_path
    if model.task != cfg.task:
        raise ConfigError(f"model solves task {model.task!r}, config says {cfg.task!r}")
    _check_fingerprint(
        spec_fingerprint(cfg.kernel_spec), kernel_fingerprint(model.kernel_spec),
        "model file",
    )
    resources = load_resources(cfg)
    spec = bind_sigma(cfg.kernel_spec, cfg, resources)
    prepared = prepare_split(cfg, resources, split)
    # columns are named by support position: supports carry no ids
    values = kernel_matrix(prepared.payloads, model.supports, spec, prepared.instance_ids)
    labels = []
    decisions = []
    for row in values:
        label, decision = predict(model, row)
        labels.append(label)
        decisions.append(decision)
    if out_path is not None:
        write_predictions(out_path, prepared.instance_ids, labels, decisions)
    return prepared, labels, decisions


def run_eval(cfg: RunConfig, predictions, split: str = "test") -> EvalReport:
    """Score a prediction list or file against the configured gold split."""
    resources = load_resources(cfg)
    prepared = prepare_split(cfg, resources, split)
    if isinstance(predictions, (str,)) or hasattr(predictions, "__fspath__"):
        from .datasets import read_predictions

        rows = read_predictions(predictions)
        by_id = {}
        for iid, label in rows:
            if iid in by_id:
                raise DataError(f"duplicate prediction for {iid}")
            by_id[iid] = label
        missing = [iid for iid in prepared.instance_ids if iid not in by_id]
        if missing:
            raise DataError(f"predictions missing for {missing[0]} (+{len(missing) - 1} more)")
        predicted = [by_id[iid] for iid in prepared.instance_ids]
    else:
        predicted = list(predictions)
        if len(predicted) != len(prepared.instance_ids):
            raise DataError(
                f"{len(predicted)} predictions for {len(prepared.instance_ids)} gold instances"
            )
    return evaluate(
        prepared.labels,
        predicted,
        exclude=cfg.eval.exclude,
        merge_directions=cfg.eval.merge_directions,
    )
