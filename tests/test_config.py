"""Run configuration parsing and validation."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from udkernels.combine import CompositeParams, PairKernelParams
from udkernels.config import (
    _SPEC_OF,
    EvalConfig,
    SvmConfig,
    kernel_fingerprint,
    kernel_spec_to_dict,
    load_config,
    parse_config,
)
from udkernels.errors import ConfigError
from udkernels.kernels import TreeKernelParams
from udkernels.lexical import indicator_sigma
from udkernels.transforms import MweConfig


def pi_raw(**overrides):
    raw = {
        "task": "pi",
        "kernel": {"base": {"kind": "PTK", "lambda": 0.4, "mu": 0.4}, "m": 100.0},
        "data": {"train": "t.conllu", "pairs_train": "p.tsv"},
    }
    raw.update(overrides)
    return raw


def re_raw(variant="CK2", **overrides):
    raw = {
        "task": "re",
        "kernel": {"variant": variant, "sst": {"kind": "SST"}, "pt": {"kind": "PTK"}},
        "resources": {"embeddings": {"en": "vectors.txt"}},
        "data": {"train": "t.conllu", "source_lang": "en"},
    }
    raw.update(overrides)
    return raw


def test_minimal_pi_config():
    cfg = parse_config(pi_raw())
    assert cfg.task == "pi"
    assert isinstance(cfg.kernel_spec, PairKernelParams)
    assert cfg.kernel_spec.base.kind == "PTK"
    assert cfg.data.train == "t.conllu"
    assert cfg.svm.C == 1.0
    assert cfg.features.window == 3
    assert cfg.features.mwe.relations == frozenset({"fixed"})


def test_minimal_re_config():
    cfg = parse_config(re_raw())
    assert isinstance(cfg.kernel_spec, CompositeParams)
    assert cfg.kernel_spec.variant == "CK2"
    assert cfg.kernel_spec.alpha == 0.23
    assert cfg.eval.exclude == ()
    custom = parse_config(
        re_raw(
            svm={"C": 2.0, "class_weights": {"Other": 0.5}},
            eval={"exclude": ["Other"], "merge_directions": True},
        )
    )
    assert custom.svm.class_weights == {"Other": 0.5}
    assert custom.eval.exclude == ("Other",)
    assert custom.eval.merge_directions is True


def test_task_is_injected_into_kernel():
    cfg = parse_config(pi_raw())
    assert kernel_spec_to_dict(cfg.kernel_spec)["task"] == "pi"


def test_kernel_task_conflict():
    raw = pi_raw()
    raw["kernel"]["task"] = "re"
    with pytest.raises(ConfigError, match="conflicts with task"):
        parse_config(raw)


def test_unknown_fields_are_named():
    with pytest.raises(ConfigError, match="unknown field surprise"):
        parse_config(pi_raw(surprise=1))
    with pytest.raises(ConfigError, match="unknown field data.validation"):
        parse_config(pi_raw(data={"validation": "x"}))
    with pytest.raises(ConfigError, match="unknown field svm.gamma"):
        parse_config(pi_raw(svm={"gamma": 1.0}))
    with pytest.raises(ConfigError, match="unknown field features.stemming"):
        parse_config(pi_raw(features={"stemming": True}))


def test_missing_and_bad_task():
    with pytest.raises(ConfigError, match="missing field task"):
        parse_config({"kernel": {}})
    with pytest.raises(ConfigError, match="task must be one of"):
        parse_config(pi_raw(task="parsing"))


def test_bad_kernel_kind():
    raw = pi_raw()
    raw["kernel"]["base"]["kind"] = "RBF"
    with pytest.raises(ConfigError, match="kernel"):
        parse_config(raw)


def test_svm_bounds():
    with pytest.raises(ConfigError, match="svm.C must be positive"):
        parse_config(pi_raw(svm={"C": 0.0}))
    with pytest.raises(ConfigError, match="svm.tol must be positive"):
        parse_config(pi_raw(svm={"tol": -1.0}))
    with pytest.raises(ConfigError, match="max_passes must be at least 1"):
        parse_config(pi_raw(svm={"max_passes": 0}))


def test_thread_and_window_validation():
    # threads and seed are no longer config fields
    with pytest.raises(ConfigError, match="unknown field threads"):
        parse_config(pi_raw(threads=1))
    with pytest.raises(ConfigError, match="unknown field seed"):
        parse_config(pi_raw(seed=13))
    with pytest.raises(ConfigError, match="features.window"):
        parse_config(pi_raw(features={"window": -2}))


def test_mwe_feature_fields():
    cfg = parse_config(
        pi_raw(features={"mwe_relations": ["fixed", "flat"], "mwe_scope": "whole_tree"})
    )
    assert cfg.features.mwe.relations == frozenset({"fixed", "flat"})
    assert cfg.features.mwe.scope == "whole_tree"
    with pytest.raises(ConfigError, match="features.mwe_scope: unknown scope 'somewhere'"):
        parse_config(pi_raw(features={"mwe_scope": "somewhere"}))
    with pytest.raises(ConfigError, match="features.mwe_relations must be a list of strings"):
        parse_config(pi_raw(features={"mwe_relations": "fixed"}))
    with pytest.raises(ConfigError, match="features.mwe_relations: MweConfig.relations must not"):
        parse_config(pi_raw(features={"mwe_relations": [], "mwe_scope": "whole_tree"}))
    with pytest.raises(ConfigError, match="features.mwe_scope: unknown scope"):
        parse_config(pi_raw(features={"mwe_relations": ["flat"], "mwe_scope": "somewhere"}))


def test_composite_requires_embeddings():
    raw = re_raw()
    raw["resources"] = {}
    with pytest.raises(ConfigError, match="embeddings is required"):
        parse_config(raw)


def test_constituency_variants_require_parse_files():
    raw = re_raw(variant="CK1")
    with pytest.raises(ConfigError, match="train_const is required for variant CK1"):
        parse_config(raw)
    raw["data"]["train_const"] = "t.const"
    parse_config(raw)
    raw["data"]["test"] = "e.conllu"
    with pytest.raises(ConfigError, match="test_const is required for variant CK1"):
        parse_config(raw)


def test_ck2_needs_no_parse_files():
    parse_config(re_raw(variant="CK2"))


def test_sptk_pair_kernel_requires_embeddings():
    raw = pi_raw()
    raw["kernel"]["base"] = {"kind": "SPTK"}
    with pytest.raises(ConfigError, match="embeddings is required"):
        parse_config(raw)
    raw["resources"] = {"embeddings": {"en": "v.txt"}}
    cfg = parse_config(raw)
    assert cfg.kernel_spec.base.sigma_cfg is not None


def test_translate_then_compare_requires_dictionary():
    raw = re_raw()
    raw["kernel"]["pt"] = {
        "kind": "SPTK",
        "sigma": {"mode": "translate_then_compare"},
    }
    with pytest.raises(ConfigError, match="dictionary is required for translate_then_compare"):
        parse_config(raw)
    raw["resources"]["dictionary"] = "dict.tsv"
    parse_config(raw)


def test_feature_translate_requires_dictionary():
    raw = re_raw(features={"translate": True})
    with pytest.raises(ConfigError, match="dictionary is required when features.translate"):
        parse_config(raw)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(pi_raw()))
    cfg = load_config(path)
    assert cfg.task == "pi"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    scalar = tmp_path / "scalar.json"
    scalar.write_text('"just a string"')
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(scalar)



SPTK = TreeKernelParams("SPTK", sigma=indicator_sigma)
# one spec of each class, every tree kernel kind among them
FINGERPRINTED = [
    PairKernelParams(base=TreeKernelParams("SST")),
    PairKernelParams(base=SPTK, m=20.0),
    CompositeParams("CK1"),
    CompositeParams("CK2", pt=SPTK),
    CompositeParams("CK3", alpha=0.5),
]


def hashlib_fingerprint(spec_dict: dict) -> str:
    canon = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def test_fingerprint_is_sha256_of_the_canonical_json():
    assert {type(spec) for spec in FINGERPRINTED} == set(_SPEC_OF.values())
    for spec in FINGERPRINTED:
        data = kernel_spec_to_dict(spec)
        assert kernel_fingerprint(data) == hashlib_fingerprint(data), data
    # the value Gram headers and model files have carried for this spec
    assert kernel_fingerprint(kernel_spec_to_dict(CompositeParams("CK2"))) == "a1842134b9fc15cc"


def test_fingerprint_falls_back_to_hashlib_without_the_builtin_sha256():
    script = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib, json
from udkernels import config
assert config._sha256 is hashlib.sha256
print(json.dumps([config.kernel_fingerprint(data) for data in json.load(sys.stdin)]))
"""
    specs = [kernel_spec_to_dict(spec) for spec in FINGERPRINTED]
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(specs),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert json.loads(done.stdout) == [hashlib_fingerprint(data) for data in specs]


def test_readme_configuration_block_parses():
    """The README's full field set is a config the reader takes as is."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(json.loads(block))
    assert cfg.kernel_spec.variant == "CK3"
    assert cfg.kernel_spec.pt.sigma_cfg.mode == "translate_then_compare"
    assert cfg.features.mwe == MweConfig()
    assert cfg.svm == SvmConfig()
    assert cfg.eval == EvalConfig()


def _sptk_pt():
    raw = re_raw()
    raw["kernel"]["pt"] = {"kind": "SPTK", "sigma": {"oov": "zero"}}
    return raw


def _set(section, key, value):
    def make():
        raw = pi_raw()
        raw.setdefault(section, {})[key] = value
        return raw

    return make


@pytest.mark.parametrize(
    "make, message",
    [
        (_set("kernel", "base", {"kind": "PTK", "lamda": 0.1}), "unknown field kernel.base.lamda"),
        (_sptk_pt, "unknown field kernel.pt.sigma.oov"),
        (_set("kernel", "m", "100"), "kernel.m must be a number"),
        (
            _set("kernel", "base", {"kind": "PTK", "normalize": "false"}),
            "kernel.base.normalize must be true or false",
        ),
        (lambda: pi_raw(kernel="PTK"), "kernel must be a JSON object"),
        (_set("features", "exclude_punct", "false"), "features.exclude_punct must be true or false"),
        (_set("eval", "exclude", "Other"), "eval.exclude must be a list of strings"),
        (_set("svm", "max_passes", 2.7), "svm.max_passes must be an integer"),
        (_set("data", "train", 3), "data.train must be a string or null"),
    ],
    ids=[
        "kernel.base.lamda",
        "kernel.pt.sigma.oov",
        "kernel.m",
        "kernel.base.normalize",
        "kernel",
        "features.exclude_punct",
        "eval.exclude",
        "svm.max_passes",
        "data.train",
    ],
)
def test_each_section_names_a_bad_field(make, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(make())


def test_type_rule_conversions():
    # an int fills a float field; a bool is never a number
    kernel = {"base": {"kind": "PTK", "lambda": 1}, "m": 50}
    cfg = parse_config(pi_raw(svm={"C": 2, "tol": 1}, kernel=kernel))
    assert type(cfg.svm.C) is float and type(cfg.kernel_spec.base.lam) is float
    assert cfg.kernel_spec.m == 50.0 and type(cfg.kernel_spec.m) is float
    with pytest.raises(ConfigError, match="svm.C must be a number, got True"):
        parse_config(pi_raw(svm={"C": True}))
    with pytest.raises(ConfigError, match="features.window must be an integer, got False"):
        parse_config(pi_raw(features={"window": False}))
    # each value of an object field has the field's value type
    weights = parse_config(pi_raw(svm={"class_weights": {"1": 2}})).svm.class_weights
    assert weights == {"1": 2.0} and type(weights["1"]) is float
    with pytest.raises(ConfigError, match="svm.class_weights.Other must be a number, got '0.5'"):
        parse_config(pi_raw(svm={"class_weights": {"Other": "0.5"}}))
    with pytest.raises(ConfigError, match="resources.embeddings.en must be a string, got 1"):
        parse_config(pi_raw(resources={"embeddings": {"en": 1}}))
    with pytest.raises(ConfigError, match="resources.embeddings must be an object"):
        parse_config(pi_raw(resources={"embeddings": ["en"]}))
    # null fills only a field that may be None
    assert parse_config(pi_raw(resources={"dictionary": None})).resources.dictionary is None
    with pytest.raises(ConfigError, match="svm.tol must be a number, got None"):
        parse_config(pi_raw(svm={"tol": None}))


def test_renamed_fields_answer_only_to_their_json_names():
    for base in ({"kind": "PTK", "lam": 0.2}, {"kind": "PTK", "sigma_cfg": {}}):
        with pytest.raises(ConfigError, match="unknown field kernel.base."):
            parse_config(pi_raw(kernel={"base": base}))
    with pytest.raises(ConfigError, match="unknown field kernel.vec_degree"):
        parse_config(re_raw(kernel={"variant": "CK2", "vec_degree": 3}))
    with pytest.raises(ConfigError, match="unknown field features.mwe"):
        parse_config(pi_raw(features={"mwe": {"scope": "whole_tree"}}))
    with pytest.raises(ConfigError, match="unknown field kernel_spec"):
        parse_config(pi_raw(kernel_spec={}))


def test_sigma_block_is_read_by_sptk_only():
    for sigma in ({"mode": "monolingual"}, None):
        raw = pi_raw()
        raw["kernel"]["base"]["sigma"] = sigma
        with pytest.raises(ConfigError, match="kernel.base.sigma is read by SPTK kernels only"):
            parse_config(raw)


def test_missing_required_kernel_fields_are_named():
    with pytest.raises(ConfigError, match="missing field kernel.base"):
        parse_config(pi_raw(kernel={"m": 100.0}))
    with pytest.raises(ConfigError, match="missing field kernel.variant"):
        parse_config(re_raw(kernel={"alpha": 0.5}))
    with pytest.raises(ConfigError, match="missing field kernel$"):
        parse_config({"task": "pi"})
    with pytest.raises(ConfigError, match=r"kernel.base: lambda must be in \(0, 1\]"):
        parse_config(pi_raw(kernel={"base": {"kind": "PTK", "lambda": 2.0}}))


def test_composite_degree_must_be_a_positive_integer():
    for degree in (0, -1):
        message = f"kernel: degree must be a positive integer, got {degree}"
        with pytest.raises(ConfigError, match=message):
            parse_config(re_raw(kernel={"variant": "CK2", "degree": degree}))
    for degree in (True, 2.0, 0):
        with pytest.raises(ConfigError, match="degree must be a positive integer"):
            CompositeParams("CK2", vec_degree=degree)
    assert parse_config(re_raw(kernel={"variant": "CK2", "degree": 3})).kernel_spec.vec_degree == 3


# --- non-finite and non-positive numbers -------------------------------------

# what json reads from NaN, Infinity and -Infinity, and the non-positive values
NOT_POSITIVE_FINITE = (float("nan"), float("inf"), float("-inf"), 0.0, -1.0)


def with_field(field, value):
    """A config whose field, a dotted path, holds value."""
    if field == "kernel.coef0":
        return re_raw(kernel={"variant": "CK2", "coef0": value})
    if field == "kernel.m":
        return pi_raw(kernel={"base": {"kind": "PTK"}, "m": value})
    if field == "svm.class_weights.Other":
        return pi_raw(svm={"class_weights": {"Other": value}})
    return pi_raw(svm={field.split(".")[1]: value})


@pytest.mark.parametrize("field", ["svm.C", "svm.tol", "svm.class_weights.Other"])
@pytest.mark.parametrize("value", NOT_POSITIVE_FINITE)
def test_svm_numbers_must_be_positive_and_finite(field, value):
    message = f"^{re.escape(field)} must be positive and finite, got {value}$"
    with pytest.raises(ConfigError, match=message):
        parse_config(with_field(field, value))


@pytest.mark.parametrize("value", NOT_POSITIVE_FINITE)
def test_softmax_sharpness_must_be_positive_and_finite(value):
    detail = rf"m \(softmax sharpness\) must be positive and finite, got {value}"
    with pytest.raises(ConfigError, match=f"^kernel: {detail}$"):
        parse_config(with_field("kernel.m", value))
    with pytest.raises(ConfigError, match=f"^{detail}$"):
        PairKernelParams(base=TreeKernelParams(kind="PTK"), m=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_composite_coef0_must_be_finite(value):
    with pytest.raises(ConfigError, match=f"^kernel: coef0 must be finite, got {value}$"):
        parse_config(with_field("kernel.coef0", value))
    with pytest.raises(ConfigError, match=f"^coef0 must be finite, got {value}$"):
        CompositeParams("CK2", vec_coef0=value)


def test_non_finite_json_numbers_are_refused_when_a_config_file_loads(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(pi_raw(svm={"C": float("nan")})), encoding="utf-8")
    assert "NaN" in path.read_text(encoding="utf-8")
    with pytest.raises(ConfigError, match="^svm.C must be positive and finite, got nan$"):
        load_config(path)


@pytest.mark.parametrize(
    "field, values",
    [
        ("svm.C", (1e-300, 0.001, 1, 2.5, 1e300)),
        ("svm.tol", (1e-12, 1e-3, 0.5, 10)),
        ("svm.class_weights.Other", (1e-9, 0.5, 2, 1e6)),
        ("kernel.m", (1e-3, 1, 100.0, 1e6)),
        # a negative coef0 stays allowed
        ("kernel.coef0", (-5.0, -1e-9, 0, 0.0, 1, 1e10)),
    ],
)
def test_values_accepted_before_the_finite_checks_still_pass(field, values):
    for value in values:
        cfg = parse_config(with_field(field, value))
        held = {
            "svm.C": lambda: cfg.svm.C,
            "svm.tol": lambda: cfg.svm.tol,
            "svm.class_weights.Other": lambda: cfg.svm.class_weights["Other"],
            "kernel.m": lambda: cfg.kernel_spec.m,
            "kernel.coef0": lambda: cfg.kernel_spec.vec_coef0,
        }[field]()
        assert held == value
