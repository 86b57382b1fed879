"""End-to-end wiring: resources, instance preparation, Gram artifacts,
training, prediction, evaluation.

Every step is a plain function over a RunConfig so scripts and the CLI
share one code path. Artifacts carry a kernel fingerprint and steps
refuse to mix artifacts produced under different kernels.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .combine import (
    CompositeParams,
    PairKernelParams,
    REKernelInput,
    kernel_matrix,
    payload_from_dict,
    payload_to_dict,
)
from .config import RunConfig, kernel_fingerprint, kernel_spec_to_dict
from .datasets import load_pi_dataset, load_re_dataset, read_predictions, write_predictions
from .errors import ConfigError, DataError, ModelError
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
    check_class_weights,
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
        fn = make_sigma(tree_params.sigma_cfg, pivot_store(cfg, resources), resources.dictionary)
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
    try:
        pet = extract_pet(inst.const_tree, inst.e1_span, inst.e2_span)
    except DataError as exc:
        raise DataError(f"{inst.dep_tree.sent_id}: {exc}") from None
    return const_to_labeled(pet)


def prepare_re_payload(
    inst: REInstance, cfg: RunConfig, resources: Resources, feature_mode: str
) -> REKernelInput:
    store = pivot_store(cfg, resources)
    # the tree before the vector: to_lct refuses a sentence whose heads do
    # not form one tree, where the vector's head paths fail uncategorized
    lct = to_lct(inst.dep_tree, lowercase=cfg.features.lowercase)
    build = build_vo if feature_mode == "V_o" else build_vud
    features = cfg.features
    if inst.lang and cfg.data.source_lang and inst.lang != cfg.data.source_lang:
        # non-pivot side reaches the pivot space through the dictionary
        features = replace(features, translate=True)
    vec = build(inst, store, features, resources.dictionary)
    return REKernelInput(lct=lct, vec=vec, pet=_instance_pet(inst))


@dataclass
class PreparedSplit:
    instance_ids: tuple
    labels: tuple
    payloads: list


def _load_split(cfg: RunConfig, split: str):
    """A split's instances, and the file their ids come from: the pair
    file for the pair task, the CoNLL-U file for relations."""
    data = cfg.data
    lang = data.source_lang if split == "train" else (data.target_lang or data.source_lang)
    if cfg.task == "pi":
        pairs = data.pairs_train if split == "train" else data.pairs_test
        bank = data.train if split == "train" else (data.test or data.train)
        if not pairs or not bank:
            raise ConfigError(f"config lacks {split} paths for the pair task")
        return pairs, load_pi_dataset(pairs, bank)
    conllu = data.train if split == "train" else data.test
    if not conllu:
        raise ConfigError(f"config lacks data.{'train' if split == 'train' else 'test'}")
    spec = cfg.kernel_spec
    needs_const = isinstance(spec, CompositeParams) and spec.variant in ("CK1", "CK3")
    const = None
    if needs_const:
        const = data.train_const if split == "train" else data.test_const
    return conllu, load_re_dataset(conllu, const_path=const, lang=lang)


def _gold(cfg: RunConfig, source, instances) -> tuple:
    """Instance ids and gold labels of a split loaded from source.

    Predictions are matched to gold by id, so an id that repeats is
    refused here, before any step spends work on the split.
    """
    ids = tuple(inst.instance_id for inst in instances)
    if len(set(ids)) != len(ids):
        repeated = next(iid for iid, count in Counter(ids).items() if count > 1)
        raise DataError(f"{source}: instance id {repeated} appears more than once")
    if cfg.task == "pi":
        return ids, tuple("1" if inst.label else "0" for inst in instances)
    return ids, tuple(inst.label for inst in instances)


def prepare_split(cfg: RunConfig, resources: Resources, split: str) -> PreparedSplit:
    source, instances = _load_split(cfg, split)
    instance_ids, labels = _gold(cfg, source, instances)
    if cfg.task == "pi":
        payloads = [prepare_pi_payload(inst, cfg) for inst in instances]
    else:
        mode = cfg.kernel_spec.feature_mode
        payloads = [prepare_re_payload(inst, cfg, resources, mode) for inst in instances]
    return PreparedSplit(instance_ids=instance_ids, labels=labels, payloads=payloads)


def spec_fingerprint(spec) -> str:
    return kernel_fingerprint(kernel_spec_to_dict(spec))


# ---------------------------------------------------------------------------
# Gram artifacts: one JSON header line holding the kernel fingerprint and
# the instance ids, then the matrix in .npy format, so values read back
# bit for bit and the same matrix always gives the same bytes.


def write_gram(path, gram: GramMatrix):
    header = {"fingerprint": gram.fingerprint, "ids": list(gram.instance_ids)}
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        np.lib.format.write_array(handle, gram.values, allow_pickle=False)


def read_gram(path) -> GramMatrix:
    try:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            values = np.lib.format.read_array(handle, allow_pickle=False)
        fingerprint, ids = header["fingerprint"], header["ids"]
    except (OSError, ValueError, TypeError, KeyError, MemoryError) as exc:
        raise DataError(f"{path}: not a readable gram file ({exc!r}); recompute it") from None
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in [fingerprint, *ids]):
        raise DataError(f"{path}: gram header needs a string fingerprint and a list of string ids")
    if not fingerprint:
        raise DataError(f"gram file {path} carries no kernel fingerprint; recompute it")
    if values.dtype != np.float64 or values.shape != (len(ids), len(ids)):
        n = len(ids)
        raise DataError(f"{path}: expected a float64 {n}x{n} matrix, found {values.dtype} {values.shape}")
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"{path}: non-finite gram entry at {ids[i]} x {ids[j]}")
    if not np.array_equal(values, values.T):
        i, j = np.argwhere(values != values.T)[0]
        raise DataError(f"{path}: gram matrix is not symmetric at {ids[i]} x {ids[j]}")
    return GramMatrix(values=values, instance_ids=tuple(ids), fingerprint=fingerprint)


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


def run_gram(cfg: RunConfig, out_path) -> GramMatrix:
    resources = load_resources(cfg)
    spec = bind_sigma(cfg.kernel_spec, cfg, resources)
    prepared = prepare_split(cfg, resources, "train")
    gram = _gram(spec, prepared, spec_fingerprint(cfg.kernel_spec))
    if out_path is not None:
        write_gram(out_path, gram)
    return gram


def run_train(cfg: RunConfig, model_out, gram_path=None) -> SvmModel:
    resources = load_resources(cfg)
    spec = bind_sigma(cfg.kernel_spec, cfg, resources)
    prepared = prepare_split(cfg, resources, "train")
    # before the Gram, the step that costs the most
    check_class_weights(cfg.svm.class_weights, prepared.labels)
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
    # build_model pools only the support vectors' payloads, so only those are encoded
    supports = sorted({int(i) for binary in ovr.binaries.values() for i in binary.support})
    model = build_model(
        cfg.task,
        kernel_spec_to_dict(cfg.kernel_spec),
        ovr,
        prepared.labels,
        {i: payload_to_dict(cfg.task, prepared.payloads[i]) for i in supports},
        training_meta={"fingerprint": fingerprint, "C": cfg.svm.C, "tol": cfg.svm.tol},
    )
    if model_out is not None:
        save_model(model, model_out)
    return model


def run_predict(cfg: RunConfig, model_path, out_path, split: str = "test"):
    model = load_model(model_path)
    if model.task != cfg.task:
        raise ConfigError(f"model solves task {model.task!r}, config says {cfg.task!r}")
    _check_fingerprint(
        spec_fingerprint(cfg.kernel_spec), kernel_fingerprint(model.kernel_spec),
        "model file",
    )
    source = f"model file {model_path}"
    try:
        supports = [payload_from_dict(model.task, p) for p in model.supports]
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{source} holds a support payload that does not decode: {exc!r}") from None
    resources = load_resources(cfg)
    spec = bind_sigma(cfg.kernel_spec, cfg, resources)
    prepared = prepare_split(cfg, resources, split)
    if model.task == "re" and prepared.payloads:
        # a model trained on embeddings of another size would fail its
        # first vector pair; name the cause instead
        want = prepared.payloads[0].vec.shape
        for support in supports:
            if support.vec is not None and support.vec.shape != want:
                raise ModelError(
                    f"{source} holds context vectors of length {support.vec.size}, "
                    f"but the configured embeddings give length {want[0]}"
                )
    # columns are named by support position: supports carry no ids
    values = kernel_matrix(prepared.payloads, supports, spec, prepared.instance_ids)
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
    """Score a prediction list or file against the configured gold split.

    The gold files are parsed and checked as every step does, but only
    their ids and labels are read: no tree, vector or resource is built.
    """
    instance_ids, gold = _gold(cfg, *_load_split(cfg, split))
    if isinstance(predictions, (str,)) or hasattr(predictions, "__fspath__"):
        rows = read_predictions(predictions)
        by_id = {}
        for iid, label in rows:
            if iid in by_id:
                raise DataError(f"{predictions}: duplicate prediction for {iid}")
            by_id[iid] = label
        missing = [iid for iid in instance_ids if iid not in by_id]
        if missing:
            raise DataError(
                f"{predictions}: predictions missing for {missing[0]} (+{len(missing) - 1} more)"
            )
        predicted = [by_id[iid] for iid in instance_ids]
    else:
        predicted = list(predictions)
        if len(predicted) != len(instance_ids):
            raise DataError(
                f"{len(predicted)} predictions for {len(instance_ids)} gold instances"
            )
    return evaluate(
        gold,
        predicted,
        exclude=cfg.eval.exclude,
        merge_directions=cfg.eval.merge_directions,
    )
