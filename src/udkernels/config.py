"""Run configuration: one JSON file describing task, kernel, data, resources.

Every JSON object in a config is read by one rule, _read, from the
dataclass it fills, and every kernel-spec object is written by its
inverse, _write, from the same dataclass fields, so each field's name,
default, type and JSON key is written once, in that dataclass and
_FIELD_OF. Validation happens up front so a bad file fails with the
offending field named, before any data is loaded; a refusal by a
dataclass's own checks names its object, or for the features' mwe keys
the key.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

# SHA-256 from the interpreter's own module, as random.py takes sha512:
# hashlib would map OpenSSL's libcrypto into every run for one digest
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .combine import CompositeParams, PairKernelParams
from .errors import ConfigError
from .features import FeatureConfig
from .kernels import TreeKernelParams
from .transforms import MweConfig

# task -> the kernel spec class its kernel object fills
_SPEC_OF = {"pi": PairKernelParams, "re": CompositeParams}
TASKS = tuple(_SPEC_OF)


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
    embeddings: dict[str, str] = field(default_factory=dict)  # lang -> path
    dictionary: str | None = None


@dataclass
class SvmConfig:
    C: float = 1.0
    tol: float = 1e-3
    max_passes: int = 10
    class_weights: dict[str, float] = field(default_factory=dict)  # label -> C factor


@dataclass
class EvalConfig:
    exclude: tuple = ()
    merge_directions: bool = False


@dataclass
class RunConfig:
    task: str
    kernel_spec: object
    data: DataConfig = field(default_factory=DataConfig)
    resources: ResourceConfig = field(default_factory=ResourceConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")


# ---------------------------------------------------------------------------
# The reader.

# JSON key -> dataclass field, where a config spells a field differently;
# the field is then reachable only under its JSON key
_FIELD_OF = {
    "lambda": "lam",
    "degree": "vec_degree",
    "coef0": "vec_coef0",
    "sigma": "sigma_cfg",
    "mwe_relations": "relations",
    "mwe_scope": "scope",
}

_JSON_TYPE = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
    tuple: "a list of strings",
    frozenset: "a list of strings",
}


def _object(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    return raw


def _read(cls, raw, where: str, **given):
    """The cls dataclass the JSON object raw, at dotted path where, describes.

    Each key names a field, through _FIELD_OF where the two differ, and
    a left-out key keeps the field's default. given fills fields that
    no key may set. Values follow _typed; an error of cls's own checks
    comes back naming where.
    """
    path = lambda key: f"{where}.{key}" if where else key
    hints = typing.get_type_hints(cls)
    args = dict(given)
    for key, value in _object(raw, where).items():
        name = _FIELD_OF.get(key, key)
        if name not in hints or name in given or key in _FIELD_OF.values():
            raise ConfigError(f"unknown field {path(key)}")
        args[name] = _typed(hints[name], value, path(key))
    for f in fields(cls):
        if f.name not in args and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing field {path(f.name)}")
    try:
        return cls(**args)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def _typed(hint, value, path: str):
    """value as a field declared hint holds it.

    The JSON type must be the declared one, with three conversions: an
    int fills a float field, a list of strings a tuple or frozenset
    field, and null a field that may be None. A bool is never a number.
    A nested object is read by its dataclass's reader, and each value
    of a dict[str, X] field is read as an X.
    """
    if typing.get_origin(hint) is dict:
        if isinstance(value, dict):
            item = typing.get_args(hint)[1]
            return {k: _typed(item, v, f"{path}.{k}") for k, v in value.items()}
        hint = dict
    kinds = typing.get_args(hint) or (hint,)  # str | None -> (str, NoneType)
    kind = kinds[0]
    if value is None and type(None) in kinds:
        return None
    if is_dataclass(kind):
        reader = _READERS.get(kind)
        return reader(value, path) if reader else _read(kind, value, path)
    if kind in (tuple, frozenset):
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return kind(value)
    elif isinstance(value, bool) is (kind is bool):
        if isinstance(value, kind):
            return value
        if kind is float and isinstance(value, int):
            return float(value)
    nullable = " or null" if type(None) in kinds else ""
    raise ConfigError(f"{path} must be {_JSON_TYPE[kind]}{nullable}, got {value!r}")


def _unbound_sigma(n1, n2):
    raise ConfigError("SPTK similarity is not bound to embedding resources yet")


def _tree_params(raw, where: str) -> TreeKernelParams:
    """Only SPTK reads a sigma block; its similarity is a placeholder
    until bind_sigma."""
    sptk = isinstance(raw, dict) and raw.get("kind") == "SPTK"
    params = _read(TreeKernelParams, raw, where, sigma=_unbound_sigma if sptk else None)
    if not sptk and "sigma" in raw:
        raise ConfigError(f"{where}.sigma is read by SPTK kernels only")
    return params


def _features(raw, where: str) -> FeatureConfig:
    """The mwe_relations and mwe_scope keys fill the MweConfig, one key
    at a time, so that a refusal by its own checks names the key."""
    raw = _object(raw, where)
    mwe_keys = ("mwe_relations", "mwe_scope")
    mwe = MweConfig()
    for key in mwe_keys:
        if key in raw:
            name = _FIELD_OF[key]
            value = _typed(typing.get_type_hints(MweConfig)[name], raw[key], f"{where}.{key}")
            try:
                mwe = replace(mwe, **{name: value})
            except ValueError as exc:
                raise ConfigError(f"{where}.{key}: {exc}") from None
    rest = {k: v for k, v in raw.items() if k not in mwe_keys}
    features = _read(FeatureConfig, rest, where, mwe=mwe)
    if features.window < 0:
        raise ConfigError(f"{where}.window must be a non-negative integer, got {features.window!r}")
    return features


_READERS = {TreeKernelParams: _tree_params, FeatureConfig: _features}


def kernel_spec_from_dict(data):
    """Kernel params from their JSON form, a config's kernel object or
    kernel_spec_to_dict's output: the _SPEC_OF class of its task key.
    A CompositeParams' feature_mode key, when present, must be its
    variant's."""
    where = "kernel"
    rest = {k: v for k, v in _object(data, where).items() if k != "task"}
    task = data.get("task")
    if not (isinstance(task, str) and task in _SPEC_OF):
        raise ConfigError(f"{where}.task must be one of {TASKS}, got {task!r}")
    cls = _SPEC_OF[task]
    mode = rest.pop("feature_mode", None) if cls is CompositeParams else None
    spec = _read(cls, rest, where)
    if mode is not None and mode != spec.feature_mode:
        raise ConfigError(f"{where}.feature_mode {mode!r} does not match variant {spec.variant}")
    return spec


# ---------------------------------------------------------------------------
# The writer, the reader's inverse on kernel specs. Every field is
# written, so model files and Gram headers pin the exact kernel they
# used.

_KEY_OF = {name: key for key, name in _FIELD_OF.items()}


def _write(obj) -> dict:
    """The JSON object _read reads the dataclass obj back from: every
    field that is not None, under the key _read reads it from, and a
    nested dataclass as an object of its own. A field no key reaches,
    such as the bound SPTK sigma, is left out."""
    out = {}
    for f in fields(obj):
        key, value = _KEY_OF.get(f.name, f.name), getattr(obj, f.name)
        if value is not None and _FIELD_OF.get(key, key) == f.name:
            out[key] = _write(value) if is_dataclass(value) else value
    return out


def kernel_spec_to_dict(spec) -> dict:
    """spec's JSON form, which kernel_spec_from_dict reads back: its
    fields, its task, and a CompositeParams' feature_mode."""
    task = next((t for t, cls in _SPEC_OF.items() if isinstance(spec, cls)), None)
    if task is None:
        raise ConfigError(f"cannot serialize kernel spec of type {type(spec).__name__}")
    out = {"task": task, **_write(spec)}
    if isinstance(spec, CompositeParams):
        out["feature_mode"] = spec.feature_mode
    return out


def kernel_fingerprint(spec_dict: dict) -> str:
    """The first 16 hex digits of SHA-256 over spec_dict's JSON with
    sorted keys and compact separators."""
    canon = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return _sha256(canon.encode("utf-8")).hexdigest()[:16]


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
    """The run a config's JSON object describes; its kernel object is
    read under the config's task."""
    rest = {k: v for k, v in raw.items() if k != "kernel"}
    cfg = _read(RunConfig, rest, "", kernel_spec=None)
    if "kernel" not in raw:
        raise ConfigError("missing field kernel")
    kernel = raw["kernel"]
    if isinstance(kernel, dict):
        if "task" in kernel and kernel["task"] != cfg.task:
            raise ConfigError(f"kernel.task {kernel['task']!r} conflicts with task {cfg.task!r}")
        kernel = {**kernel, "task": cfg.task}
    cfg.kernel_spec = kernel_spec_from_dict(kernel)
    svm = cfg.svm
    weights = {f"svm.class_weights.{label}": w for label, w in svm.class_weights.items()}
    for name, value in {"svm.C": svm.C, "svm.tol": svm.tol, **weights}.items():
        if not 0 < value < math.inf:  # false for nan too, which json reads from NaN
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    if svm.max_passes < 1:
        raise ConfigError(f"svm.max_passes must be at least 1, got {svm.max_passes}")
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
    if isinstance(spec, CompositeParams) and spec.reads_constituency:
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
