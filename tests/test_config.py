"""Run configuration parsing and validation."""

import json

import pytest

from udkernels.combine import CompositeParams, PairKernelParams, kernel_spec_to_dict
from udkernels.config import load_config, parse_config
from udkernels.errors import ConfigError


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
    with pytest.raises(ConfigError, match="features.mwe_scope"):
        parse_config(pi_raw(features={"mwe_scope": "somewhere"}))
    with pytest.raises(ConfigError, match="mwe_relations"):
        parse_config(pi_raw(features={"mwe_relations": "fixed"}))


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

