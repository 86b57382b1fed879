"""Run configuration: one JSON file describing task, kernel, data, resources.

Validation happens up front so a bad file fails with the offending
field named, before any data is loaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .combine import CompositeParams, PairKernelParams, kernel_spec_from_dict
from .errors import ConfigError
from .features import FeatureConfig
from .transforms import MweConfig

TASKS = ("pi", "re")


@dataclass
class DataConfig:
    train: str | None = None
    test: str | None = None
    train_const: str | None = None
    test_const: str | None = None
    pairs_train: str | None = None
    pairs_test: str | None = None
    source_lang: str = ""
    target_lang: str = ""


@dataclass
class ResourceConfig:
    embeddings: dict = field(default_factory=dict)  # lang -> path
    dictionary: str | None = None


@dataclass
class SvmConfig:
    C: float = 1.0
    tol: float = 1e-3
    max_passes: int = 10
    class_weights: dict = field(default_factory=dict)


@dataclass
class EvalConfig:
    exclude: tuple = ()
    merge_directions: bool = False


@dataclass
class RunConfig:
    task: str
    kernel_spec: object
    data: DataConfig
    resources: ResourceConfig
    features: FeatureConfig
    svm: SvmConfig
    eval: EvalConfig


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing field {where}.{key}" if where else f"missing field {key}")
    return mapping[key]


def _check_keys(mapping: dict, allowed, where: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field {where}.{unknown[0]}" if where else f"unknown field {unknown[0]}")


def _feature_config(data: dict) -> FeatureConfig:
    _check_keys(
        data,
        ("window", "exclude_punct", "mwe_relations", "mwe_scope", "translate", "lowercase", "use_forms"),
        "features",
    )
    window = data.get("window", 3)
    if not isinstance(window, int) or window < 0:
        raise ConfigError(f"features.window must be a non-negative integer, got {window!r}")
    scope = data.get("mwe_scope", "sdp_and_dependents")
    relations = data.get("mwe_relations", ["fixed"])
    if not isinstance(relations, list) or not all(isinstance(r, str) for r in relations):
        raise ConfigError("features.mwe_relations must be a list of relation names")
    try:
        mwe = MweConfig(relations=frozenset(relations), scope=scope)
    except ValueError as exc:
        raise ConfigError(f"features.mwe_scope: {exc}") from None
    return FeatureConfig(
        window=window,
        exclude_punct=bool(data.get("exclude_punct", True)),
        mwe=mwe,
        translate=bool(data.get("translate", False)),
        lowercase=bool(data.get("lowercase", True)),
        use_forms=bool(data.get("use_forms", False)),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    _check_keys(
        raw,
        ("task", "kernel", "data", "resources", "features", "svm", "eval"),
        "",
    )
    task = _require(raw, "task", "")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")

    kernel_raw = dict(_require(raw, "kernel", ""))
    kernel_raw.setdefault("task", task)
    if kernel_raw["task"] != task:
        raise ConfigError(f"kernel.task {kernel_raw['task']!r} conflicts with task {task!r}")
    try:
        kernel_spec = kernel_spec_from_dict(kernel_raw)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"kernel: {exc}") from None

    data_raw = raw.get("data", {})
    _check_keys(
        data_raw,
        ("train", "test", "train_const", "test_const", "pairs_train", "pairs_test",
         "source_lang", "target_lang"),
        "data",
    )
    data = DataConfig(**data_raw)

    res_raw = raw.get("resources", {})
    _check_keys(res_raw, ("embeddings", "dictionary"), "resources")
    embeddings = res_raw.get("embeddings", {})
    if not isinstance(embeddings, dict):
        raise ConfigError("resources.embeddings must map language codes to paths")
    resources = ResourceConfig(embeddings=dict(embeddings), dictionary=res_raw.get("dictionary"))

    features = _feature_config(raw.get("features", {}))

    svm_raw = raw.get("svm", {})
    _check_keys(svm_raw, ("C", "tol", "max_passes", "class_weights"), "svm")
    svm = SvmConfig(
        C=float(svm_raw.get("C", 1.0)),
        tol=float(svm_raw.get("tol", 1e-3)),
        max_passes=int(svm_raw.get("max_passes", 10)),
        class_weights=dict(svm_raw.get("class_weights", {})),
    )
    if svm.C <= 0:
        raise ConfigError(f"svm.C must be positive, got {svm.C}")
    if svm.tol <= 0:
        raise ConfigError(f"svm.tol must be positive, got {svm.tol}")
    if svm.max_passes < 1:
        raise ConfigError(f"svm.max_passes must be at least 1, got {svm.max_passes}")

    eval_raw = raw.get("eval", {})
    _check_keys(eval_raw, ("exclude", "merge_directions"), "eval")
    eval_cfg = EvalConfig(
        exclude=tuple(eval_raw.get("exclude", ())),
        merge_directions=bool(eval_raw.get("merge_directions", False)),
    )

    cfg = RunConfig(
        task=task,
        kernel_spec=kernel_spec,
        data=data,
        resources=resources,
        features=features,
        svm=svm,
        eval=eval_cfg,
    )
    _check_cross_requirements(cfg)
    return cfg


def _needs_embeddings(cfg: RunConfig) -> bool:
    spec = cfg.kernel_spec
    if isinstance(spec, CompositeParams):
        return True  # the vector term always needs embeddings
    if isinstance(spec, PairKernelParams):
        return spec.base.kind == "SPTK"
    return False


def _check_cross_requirements(cfg: RunConfig):
    spec = cfg.kernel_spec
    if isinstance(spec, CompositeParams) and spec.variant in ("CK1", "CK3"):
        if cfg.data.train and not cfg.data.train_const:
            raise ConfigError(f"data.train_const is required for variant {spec.variant}")
        if cfg.data.test and not cfg.data.test_const:
            raise ConfigError(f"data.test_const is required for variant {spec.variant}")
    if _needs_embeddings(cfg) and not cfg.resources.embeddings:
        raise ConfigError("resources.embeddings is required for this kernel")
    sigma_cfg = (spec.pt if isinstance(spec, CompositeParams) else spec.base).sigma_cfg
    if sigma_cfg is not None and sigma_cfg.mode == "translate_then_compare":
        if not cfg.resources.dictionary:
            raise ConfigError("resources.dictionary is required for translate_then_compare")
    if cfg.features.translate and not cfg.resources.dictionary:
        raise ConfigError("resources.dictionary is required when features.translate is on")
