"""Resource loading, Gram artifacts, and the train/predict/eval steps.

Runs against small generated corpora so every step exercises real data
without slowing the suite down.
"""

import filecmp
import json
import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from udkernels.combine import kernel_matrix, payload_from_dict
from udkernels.config import parse_config
from udkernels.datasets import write_predictions
from udkernels.errors import ConfigError, DataError, ModelError
from udkernels.pipeline import (
    Resources,
    bind_sigma,
    load_resources,
    pivot_store,
    prepare_split,
    read_gram,
    run_eval,
    run_gram,
    run_predict,
    run_train,
    spec_fingerprint,
    write_gram,
)
from udkernels.svm import GramMatrix, predict, save_model
from udkernels.synthetic import write_crosslingual_re, write_pi_corpus, write_re_corpus
from udkernels.transforms import labeled_to_sexpr


@pytest.fixture(scope="module")
def pi_paths(tmp_path_factory):
    return write_pi_corpus(tmp_path_factory.mktemp("pi"), n_pairs=12, seed=13)


@pytest.fixture(scope="module")
def re_paths(tmp_path_factory):
    return write_re_corpus(tmp_path_factory.mktemp("re"), n_per_class=6, seed=13)


@pytest.fixture(scope="module")
def xl_paths(tmp_path_factory):
    return write_crosslingual_re(tmp_path_factory.mktemp("xl"), n_per_class=6, seed=13)


def pi_config(paths, m=100.0):
    return parse_config(
        {
            "task": "pi",
            "kernel": {"base": {"kind": "PTK"}, "m": m},
            "data": {
                "train": paths["bank"],
                "pairs_train": paths["pairs_train.tsv"],
                "pairs_test": paths["pairs_test.tsv"],
                "source_lang": "en",
            },
        }
    )


def re_config(paths, variant="CK2", **data_extra):
    data = {
        "train": paths["train.conllu"],
        "test": paths["test.conllu"],
        "source_lang": "en",
    }
    data.update(data_extra)
    resources = {"embeddings": {"en": paths["vectors.txt"]}}
    if "dict.tsv" in paths:
        resources["dictionary"] = paths["dict.tsv"]
    return parse_config(
        {
            "task": "re",
            "kernel": {"variant": variant, "sst": {"kind": "SST"}, "pt": {"kind": "PTK"}},
            "data": data,
            "resources": resources,
        }
    )


# ---------------------------------------------------------------------------
# resources


def test_store_for_falls_back_to_single_store(re_paths):
    resources = load_resources(re_config(re_paths))
    assert resources.store_for("en") is resources.stores["en"]
    # one loaded store serves any language query
    assert resources.store_for("zz") is resources.stores["en"]
    assert Resources(stores={}).store_for("en") is None


def test_pivot_store_requires_source_language(re_paths):
    cfg = re_config(re_paths)
    empty = Resources(stores={})
    with pytest.raises(ConfigError, match="no embeddings for source language"):
        pivot_store(cfg, empty)


def test_bind_sigma_attaches_similarity(re_paths):
    cfg = re_config(re_paths)
    raw = parse_config(
        {
            "task": "re",
            "kernel": {
                "variant": "CK2",
                "sst": {"kind": "SST"},
                "pt": {"kind": "SPTK", "sigma": {"mode": "monolingual"}},
            },
            "data": {"train": re_paths["train.conllu"], "source_lang": "en"},
            "resources": {"embeddings": {"en": re_paths["vectors.txt"]}},
        }
    )
    bound = bind_sigma(raw.kernel_spec, cfg, load_resources(cfg))
    assert callable(bound.pt.sigma)
    with pytest.raises(ConfigError, match="unsupported kernel spec"):
        kernel_matrix([], [], "not a spec")


# ---------------------------------------------------------------------------
# gram artifacts


def test_gram_write_read_roundtrip(pi_paths, tmp_path):
    cfg = pi_config(pi_paths)
    path = tmp_path / "train.gram"
    gram = run_gram(cfg, path)
    back = read_gram(path)
    assert back.instance_ids == gram.instance_ids
    assert back.fingerprint == spec_fingerprint(cfg.kernel_spec)
    # repr-based serialization reads back to the exact same floats
    assert np.array_equal(back.values, gram.values)
    assert np.array_equal(gram.values, gram.values.T)


def write_raw_gram(path, header, values, allow_pickle=False):
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        np.lib.format.write_array(handle, values, allow_pickle=allow_pickle)


def test_read_gram_input_errors(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("read_gram must never unpickle")

    monkeypatch.setattr(pickle, "load", refuse)
    bad = tmp_path / "bad.gram"
    unreadable = "not a readable gram file"
    # an old repr-TSV gram is refused, not misread
    bad.write_text("# fingerprint = abc\nid\ta\tb\na\t1.0\t0.5\nb\t0.5\t1.0\n")
    with pytest.raises(DataError, match=unreadable):
        read_gram(bad)
    write_gram(bad, GramMatrix(np.eye(2), ("a", "b"), "abc"))
    whole = bad.read_bytes()
    newline = whole.index(b"\n")
    for cut in (0, 10, newline, newline + 1, newline + 20, len(whole) - 1):
        bad.write_bytes(whole[:cut])
        with pytest.raises(DataError, match=unreadable):
            read_gram(bad)
    bad.write_bytes(b"fingerprint = abc" + whole[newline:])
    with pytest.raises(DataError, match=unreadable):
        read_gram(bad)
    header = {"fingerprint": "abc", "ids": ["a", "b"]}
    for missing in ("ids", "fingerprint"):
        write_raw_gram(bad, {k: v for k, v in header.items() if k != missing}, np.eye(2))
        with pytest.raises(DataError, match=f"{unreadable}.*{missing}"):
            read_gram(bad)
    write_raw_gram(bad, ["abc", ["a", "b"]], np.eye(2))
    with pytest.raises(DataError, match=unreadable):
        read_gram(bad)
    write_raw_gram(bad, {**header, "ids": ["a", 2]}, np.eye(2))
    with pytest.raises(DataError, match="list of string ids"):
        read_gram(bad)
    write_raw_gram(bad, {**header, "fingerprint": ""}, np.eye(2))
    with pytest.raises(DataError, match="no kernel fingerprint"):
        read_gram(bad)
    write_raw_gram(bad, header, np.eye(2, dtype=np.int64))
    with pytest.raises(DataError, match="float64 2x2 matrix, found int64"):
        read_gram(bad)
    write_raw_gram(bad, header, np.eye(3))
    with pytest.raises(DataError, match=r"float64 2x2 matrix, found float64 \(3, 3\)"):
        read_gram(bad)
    write_raw_gram(bad, header, np.eye(2).astype(object), allow_pickle=True)
    with pytest.raises(DataError, match=f"{unreadable}.*allow_pickle"):
        read_gram(bad)
    # a .npy header claiming 10^16 cells fails to allocate at once
    with open(bad, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        np.lib.format.write_array_header_1_0(
            handle, {"descr": "<f8", "fortran_order": False, "shape": (10**8, 10**8)}
        )
    with pytest.raises(DataError, match=unreadable):
        read_gram(bad)
    with open(bad, "wb") as handle:
        np.savez(handle, values=np.eye(2))
    with pytest.raises(DataError, match=unreadable):
        read_gram(bad)


def test_read_gram_rejects_non_finite(tmp_path):
    bad = tmp_path / "bad.gram"
    nan = float("nan")
    write_gram(bad, GramMatrix(np.array([[1.0, nan], [nan, 1.0]]), ("a", "b"), "abc"))
    with pytest.raises(DataError, match="non-finite gram entry at a x b"):
        read_gram(bad)
    write_gram(bad, GramMatrix(np.array([[float("inf")]]), ("a",), "abc"))
    with pytest.raises(DataError, match="non-finite"):
        read_gram(bad)


def test_read_gram_rejects_non_symmetric(tmp_path):
    bad = tmp_path / "bad.gram"
    write_gram(bad, GramMatrix(np.array([[1.0, 0.5], [0.25, 1.0]]), ("a", "b"), "abc"))
    with pytest.raises(DataError, match="not symmetric at a x b"):
        read_gram(bad)


def test_write_gram_values_survive_exactly(tmp_path):
    tiny = 5e-324  # the smallest subnormal
    huge = 1.7976931348623157e308
    values = np.array(
        [
            [1.0, 0.1234567890123456789, -0.0],
            [0.1234567890123456789, 4.0, tiny],
            [-0.0, tiny, huge],
        ]
    )
    ids = ("x\ty", "with space", "n\u00e4ive \u0641\u0627\u0631\u0633\u06cc")
    gram = GramMatrix(values=values, instance_ids=ids, fingerprint="abc")
    path = tmp_path / "g.gram"
    write_gram(path, gram)
    back = read_gram(path)
    assert back.values.tobytes() == values.tobytes()
    assert np.signbit(back.values[0, 2])
    assert back.instance_ids == ids
    assert back.fingerprint == "abc"


# ---------------------------------------------------------------------------
# train / predict / eval


def test_pi_end_to_end(pi_paths, tmp_path):
    cfg = pi_config(pi_paths)
    model_path = tmp_path / "model.json"
    run_train(cfg, model_path)
    pred_path = tmp_path / "pred.tsv"
    prepared, labels, decisions = run_predict(cfg, model_path, pred_path)
    assert len(labels) == len(prepared.instance_ids)
    assert set(labels) <= {"0", "1"}
    report_from_list = run_eval(cfg, labels)
    report_from_file = run_eval(cfg, pred_path)
    assert report_from_list.to_dict() == report_from_file.to_dict()
    assert report_from_list.accuracy == 1.0


def test_train_reuses_gram_file(pi_paths, tmp_path):
    cfg = pi_config(pi_paths)
    gram_path = tmp_path / "train.gram"
    run_gram(cfg, gram_path)
    direct = tmp_path / "direct.json"
    reused = tmp_path / "reused.json"
    run_train(cfg, direct)
    run_train(cfg, reused, gram_path=gram_path)
    assert filecmp.cmp(direct, reused, shallow=False)


def test_train_encodes_only_the_support_payloads(re_paths, tmp_path, monkeypatch):
    import udkernels.pipeline as pipeline

    cfg = re_config(re_paths)
    encoded, built = [], {}
    real_train, real_encode, real_build = (
        pipeline.train_ovr,
        pipeline.payload_to_dict,
        pipeline.build_model,
    )

    def train(*args, **kwargs):
        # every instance of these small corpora is a support; make the
        # first two supports of no class
        ovr = real_train(*args, **kwargs)
        for binary in ovr.binaries.values():
            binary.alpha[:2] = 0.0
        return ovr

    def encode(task, payload):
        encoded.append(payload)
        return real_encode(task, payload)

    def build(task, spec, ovr, labels, payloads, **kwargs):
        built.update(args=(task, spec, ovr, labels), kwargs=kwargs)
        return real_build(task, spec, ovr, labels, payloads, **kwargs)

    monkeypatch.setattr(pipeline, "train_ovr", train)
    monkeypatch.setattr(pipeline, "payload_to_dict", encode)
    monkeypatch.setattr(pipeline, "build_model", build)
    model = run_train(cfg, tmp_path / "model.json")
    payloads = prepare_split(cfg, load_resources(cfg), "train").payloads
    # only the supports are encoded
    assert 0 < len(model.supports) == len(payloads) - 2
    assert len(encoded) == len(model.supports)
    # the model file holds the bytes a model pooling from every encoded payload gives
    every = [real_encode(cfg.task, p) for p in payloads]
    save_model(real_build(*built["args"], every, **built["kwargs"]), tmp_path / "every.json")
    assert filecmp.cmp(tmp_path / "model.json", tmp_path / "every.json", shallow=False)


def test_train_refuses_unknown_class_weight_before_the_gram(re_paths, monkeypatch):
    cfg = re_config(re_paths)
    cfg = replace(cfg, svm=replace(cfg.svm, class_weights={"Nope": 2.0}))

    def no_gram(*args):
        raise AssertionError("the Gram was built before the class weights were checked")

    monkeypatch.setattr("udkernels.pipeline._gram", no_gram)
    with pytest.raises(ConfigError, match=r"absent from the training data: \['Nope'\]"):
        run_train(cfg, None)


def test_train_refuses_foreign_gram(pi_paths, tmp_path):
    gram_path = tmp_path / "train.gram"
    run_gram(pi_config(pi_paths), gram_path)
    other = pi_config(pi_paths, m=50.0)
    with pytest.raises(DataError, match="produced under kernel"):
        run_train(other, None, gram_path=gram_path)


def test_train_refuses_unfingerprinted_gram(pi_paths, tmp_path):
    cfg = pi_config(pi_paths)
    gram_path = tmp_path / "train.gram"
    gram = run_gram(cfg, None)
    write_gram(gram_path, replace(gram, fingerprint=""))
    with pytest.raises(DataError, match="no kernel fingerprint"):
        run_train(cfg, None, gram_path=gram_path)
    # a header without the fingerprint key at all
    header, newline, matrix = gram_path.read_bytes().partition(b"\n")
    stripped = json.dumps({"ids": json.loads(header)["ids"]}).encode("utf-8")
    gram_path.write_bytes(stripped + newline + matrix)
    with pytest.raises(DataError, match="fingerprint"):
        run_train(cfg, None, gram_path=gram_path)


def test_train_refuses_wrong_split_gram(pi_paths, tmp_path):
    cfg = pi_config(pi_paths)
    # the same kernel over the test pairs as training instances
    other = pi_config({**pi_paths, "pairs_train.tsv": pi_paths["pairs_test.tsv"]})
    gram_path = tmp_path / "other.gram"
    run_gram(other, gram_path)
    with pytest.raises(DataError, match="different instances"):
        run_train(cfg, None, gram_path=gram_path)


def test_predict_refuses_mismatched_model(pi_paths, re_paths, tmp_path):
    pi_cfg = pi_config(pi_paths)
    model_path = tmp_path / "model.json"
    run_train(pi_cfg, model_path)
    with pytest.raises(ConfigError, match="solves task"):
        run_predict(re_config(re_paths), model_path, None)
    with pytest.raises(DataError, match="model file was produced under kernel"):
        run_predict(pi_config(pi_paths, m=50.0), model_path, None)


def test_predict_rejects_undecodable_support(pi_paths, tmp_path):
    cfg = pi_config(pi_paths)
    model_path = tmp_path / "model.json"
    run_train(cfg, model_path)
    data = json.loads(model_path.read_text())
    data["supports"][0]["a"] = "(root (unclosed)"
    model_path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match=f"model file {model_path} holds a support payload"):
        run_predict(cfg, model_path, None)
    data["supports"][0] = {"b": "(root)"}
    model_path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match="KeyError"):
        run_predict(cfg, model_path, None)


def test_predict_refuses_context_vectors_of_another_length(re_paths, tmp_path):
    cfg = re_config(re_paths)
    model_path = tmp_path / "model.json"
    run_train(cfg, model_path)
    length = len(json.loads(model_path.read_text())["supports"][0]["vec"])
    # the same words, each vector written twice over
    wide = tmp_path / "wide.txt"
    rows = [line.split() for line in open(re_paths["vectors.txt"], encoding="utf-8")]
    wide.write_text("".join(" ".join([w, *v, *v]) + "\n" for w, *v in rows))
    message = (
        f"model file {model_path} holds context vectors of length {length}, "
        f"but the configured embeddings give length {2 * length}"
    )
    with pytest.raises(ModelError, match=f"^{message}$"):
        run_predict(re_config({**re_paths, "vectors.txt": str(wide)}), model_path, None)


def test_predict_with_matching_context_vectors_writes_the_kernel_rows_predictions(re_paths, tmp_path):
    # the length check refuses nothing that fits: the predictions are
    # those of the model's kernel rows against the test split
    cfg = re_config(re_paths)
    model_path = tmp_path / "model.json"
    model = run_train(cfg, model_path)
    run_predict(cfg, model_path, tmp_path / "pred.tsv")
    resources = load_resources(cfg)
    test = prepare_split(cfg, resources, "test")
    supports = [payload_from_dict("re", p) for p in model.supports]
    values = kernel_matrix(test.payloads, supports, bind_sigma(cfg.kernel_spec, cfg, resources))
    labels, decisions = zip(*(predict(model, row) for row in values))
    write_predictions(tmp_path / "want.tsv", test.instance_ids, labels, decisions)
    assert filecmp.cmp(tmp_path / "pred.tsv", tmp_path / "want.tsv", shallow=False)


def test_re_end_to_end(re_paths, tmp_path):
    cfg = re_config(re_paths)
    model_path = tmp_path / "model.json"
    run_train(cfg, model_path)
    _, labels, _ = run_predict(cfg, model_path, None)
    report = run_eval(cfg, labels)
    assert report.n_instances == 4
    assert report.accuracy >= 0.75


def test_crosslingual_re_end_to_end(xl_paths, tmp_path):
    # test split is pseudo-translated; its words reach the pivot
    # vectors only through the dictionary
    cfg = re_config(xl_paths, target_lang="xx")
    model_path = tmp_path / "model.json"
    run_train(cfg, model_path)
    _, labels, _ = run_predict(cfg, model_path, None)
    report = run_eval(cfg, labels)
    assert report.accuracy >= 0.75


@pytest.mark.parametrize("variant", ["CK1", "CK2"])
def test_the_split_decides_translation(xl_paths, re_paths, tmp_path, variant):
    # write_re_corpus draws the same sentences and embeddings from the same
    # seed as write_crosslingual_re, so re_paths' test split is the
    # pseudo-language test split before pseudo_translate_corpus; its
    # parses serve both runs for CK1, which reads them
    tagged = tmp_path / "tagged.conllu"
    with open(xl_paths["test.conllu"], encoding="utf-8") as handle:
        tagged.write_text(handle.read().replace("# sent_id", "# lang = xx\n# sent_id"))

    def payloads(paths, split="test", **data):
        if variant == "CK1":
            data = {f"{s}_const": re_paths[f"{s}.const"] for s in ("train", "test")} | data
        cfg = re_config(paths, variant=variant, **data)
        prepared = prepare_split(cfg, load_resources(cfg), split)
        return [
            (labeled_to_sexpr(p.lct), p.pet and labeled_to_sexpr(p.pet), p.vec.tobytes())
            for p in prepared.payloads
        ]

    def vectors(rows):
        return [vec for *_, vec in rows]

    translated = payloads(xl_paths, target_lang="xx")
    # the dictionary maps each prefixed word to its base word, and the
    # prefix keeps the sorted order words are summed in: the same bits
    assert vectors(translated) == vectors(payloads(re_paths))
    xl_tagged = {**xl_paths, "test.conllu": str(tagged)}
    untranslated = payloads(xl_paths)
    for data in ({}, {"target_lang": ""}, {"target_lang": "en"}):
        assert payloads(xl_paths, **data) == untranslated
        # a "# lang = xx" tag on every sentence changes no payload
        assert payloads(xl_tagged, **data) == untranslated
    assert payloads(xl_tagged, target_lang="xx") == translated
    assert all(a != b for a, b in zip(vectors(untranslated), vectors(translated)))
    # the train split is never translated, even where it holds the
    # pseudo-language sentences
    xl_train = {**xl_paths, "train.conllu": xl_paths["test.conllu"]}
    train_const = {"train_const": re_paths["test.const"]} if variant == "CK1" else {}
    for data in ({}, {"target_lang": "xx"}):
        assert payloads(xl_train, "train", **train_const, **data) == untranslated
        assert payloads(xl_paths, "train", **data) == payloads(re_paths, "train")


def test_run_eval_prediction_file_checks(pi_paths, tmp_path):
    cfg = pi_config(pi_paths)
    with pytest.raises(DataError, match="predictions for"):
        run_eval(cfg, ["1"])
    resources = load_resources(cfg)
    prepared = prepare_split(cfg, resources, "test")
    path = tmp_path / "pred.tsv"
    first = prepared.instance_ids[0]
    path.write_text(f"{first}\t1\n{first}\t0\n")
    with pytest.raises(DataError, match="duplicate prediction") as excinfo:
        run_eval(cfg, path)
    assert str(excinfo.value) == f"{path}: duplicate prediction for {first}"
    path.write_text(f"{first}\t1\n")
    with pytest.raises(DataError, match="predictions missing for") as excinfo:
        run_eval(cfg, path)
    missing = len(prepared.instance_ids) - 1
    second = prepared.instance_ids[1]
    assert str(excinfo.value) == f"{path}: predictions missing for {second} (+{missing - 1} more)"


@pytest.mark.parametrize("task", ["pi", "re"])
def test_eval_reads_only_gold_ids_and_labels(pi_paths, re_paths, monkeypatch, task):
    import udkernels.pipeline as pipeline

    if task == "pi":
        cfg = pi_config(pi_paths)
    else:
        consts = {f"{split}_const": re_paths[f"{split}.const"] for split in ("train", "test")}
        cfg = re_config(re_paths, variant="CK3", **consts)
    prepared = prepare_split(cfg, load_resources(cfg), "test")
    predicted = list(reversed(prepared.labels))
    want = run_eval(cfg, predicted).to_dict()

    def refuse(*args, **kwargs):
        raise AssertionError("eval built a payload or loaded a resource")

    for name in ("load_resources", "to_lct", "extract_pet", "build_vo", "build_vud"):
        monkeypatch.setattr(pipeline, name, refuse)
    assert run_eval(cfg, predicted).to_dict() == want
    # the gold files are still read and checked
    cfg.data.test = cfg.data.pairs_test = None
    with pytest.raises(ConfigError, match="lacks"):
        run_eval(cfg, predicted)


def with_first_row_twice(path, dest) -> Path:
    """dest: a copy of a pair file or CoNLL-U file whose first pair or
    sentence is listed twice."""
    text = Path(path).read_text(encoding="utf-8")
    if str(path).endswith(".tsv"):
        first = next(row for row in text.splitlines(keepends=True) if not row.startswith("#"))
    else:
        first = text[: text.index("\n\n") + 2]
    dest.write_text(first + text, encoding="utf-8")
    return dest


@pytest.mark.parametrize("task", ["pi", "re"])
def test_a_repeated_instance_id_stops_every_step(pi_paths, re_paths, tmp_path, task):
    if task == "pi":
        cfg, keys = pi_config(pi_paths), {"train": "pairs_train", "test": "pairs_test"}
    else:
        cfg, keys = re_config(re_paths), {"train": "train", "test": "test"}
    model = tmp_path / "model.json"
    run_train(cfg, model)
    steps = {
        "train": [lambda c: run_gram(c, None), lambda c: run_train(c, None)],
        "test": [lambda c: run_predict(c, model, None), lambda c: run_eval(c, [])],
    }
    for split, key in keys.items():
        path = Path(getattr(cfg.data, key))
        copy = with_first_row_twice(path, tmp_path / f"{split}-{path.name}")
        repeated = prepare_split(cfg, load_resources(cfg), split).instance_ids[0]
        broken = replace(cfg, data=replace(cfg.data, **{key: str(copy)}))
        want = re.escape(f"{copy}: instance id {repeated} appears more than once")
        for step in steps[split]:
            with pytest.raises(DataError, match=want):
                step(broken)


def test_missing_split_paths_are_reported(pi_paths, re_paths):
    cfg = pi_config(pi_paths)
    cfg.data.pairs_test = None
    with pytest.raises(ConfigError, match="lacks test paths|lacks"):
        prepare_split(cfg, load_resources(cfg), "test")
    re_cfg = re_config(re_paths)
    re_cfg.data.test = None
    with pytest.raises(ConfigError, match="data.test"):
        prepare_split(re_cfg, load_resources(re_cfg), "test")
