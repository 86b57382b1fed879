import numpy as np
import pytest

from udkernels.errors import DataError
from udkernels.features import (
    FeatureConfig,
    REInstance,
    _mean_of_words,
    build_vo,
    build_vud,
)
from udkernels.lexical import EmbeddingStore

from conftest import permute, tok, tree


def audits_instance(audits_tree):
    return REInstance(dep_tree=audits_tree, e1=4, e2=7, label="Message-Topic")


# --- block arithmetic ------------------------------------------------------


def test_mean_counts_oov_in_divisor(unit_store):
    cfg = FeatureConfig()
    vec = _mean_of_words(["audit", "zzz"], unit_store, None, cfg)
    assert vec.tolist() == [0.5, 0.0, 0.0]


def test_mean_of_empty_group_is_zero(unit_store):
    assert _mean_of_words([], unit_store, None, FeatureConfig()).tolist() == [0.0, 0.0, 0.0]


def test_mean_is_order_independent(unit_store):
    cfg = FeatureConfig()
    a = _mean_of_words(["audit", "waste", "about"], unit_store, None, cfg)
    b = _mean_of_words(["about", "audit", "waste"], unit_store, None, cfg)
    assert np.array_equal(a, b)


# --- surface windows -------------------------------------------------------


def test_vo_blocks(audits_tree, unit_store):
    inst = audits_instance(audits_tree)
    vec = build_vo(inst, unit_store, FeatureConfig(window=3))
    blocks = vec.reshape(5, 3)
    assert blocks[0].tolist() == [1.0, 0.0, 0.0]  # audit
    assert blocks[1].tolist() == [0.0, 1.0, 0.0]  # waste
    # between: were, about
    np.testing.assert_allclose(blocks[2], [0.35, 0.35, 0.1])
    # before: the, most, common
    np.testing.assert_allclose(blocks[3], np.array([0.4, 0.4, 0.7]) / 3.0)
    # after: and, recycling; the final period is punctuation
    np.testing.assert_allclose(blocks[4], [0.05, 0.5, 0.35])


def test_vo_window_truncates(audits_tree, unit_store):
    inst = audits_instance(audits_tree)
    vec = build_vo(inst, unit_store, FeatureConfig(window=1))
    blocks = vec.reshape(5, 3)
    # only the word adjacent to the first entity: common
    np.testing.assert_allclose(blocks[3], [0.0, 0.3, 0.3])
    # only the first word after the second entity: and
    np.testing.assert_allclose(blocks[4], [0.1, 0.2, 0.1])


def test_vo_window_zero_empties_outer_blocks(audits_tree, unit_store):
    inst = audits_instance(audits_tree)
    blocks = build_vo(inst, unit_store, FeatureConfig(window=0)).reshape(5, 3)
    assert blocks[3].tolist() == [0.0, 0.0, 0.0]
    assert blocks[4].tolist() == [0.0, 0.0, 0.0]


def test_vo_keeps_punctuation_when_asked(audits_tree, unit_store):
    inst = audits_instance(audits_tree)
    cfg = FeatureConfig(window=3, exclude_punct=False)
    blocks = build_vo(inst, unit_store, cfg).reshape(5, 3)
    # after block now averages and, recycling, and the OOV period
    np.testing.assert_allclose(blocks[4], np.array([0.1, 1.0, 0.7]) / 3.0)


# --- dependency contexts ---------------------------------------------------


def test_vud_blocks(audits_tree, unit_store):
    inst = audits_instance(audits_tree)
    vec = build_vud(inst, unit_store, FeatureConfig())
    blocks = vec.reshape(5, 3)
    assert blocks[0].tolist() == [1.0, 0.0, 0.0]  # audit
    assert blocks[1].tolist() == [0.0, 1.0, 0.0]  # waste
    # the entities are directly related: empty path interior
    assert blocks[2].tolist() == [0.0, 0.0, 0.0]
    # dependents of audits: the, common
    np.testing.assert_allclose(blocks[3], [0.05, 0.2, 0.2])
    # dependents of waste: were, about, recycling (entity + punct excluded)
    np.testing.assert_allclose(blocks[4], np.array([0.7, 1.5, 0.8]) / 3.0)


def test_vud_invariant_to_surface_order(audits_tree, unit_store):
    inst = audits_instance(audits_tree)
    scrambled_tree = permute(audits_tree, [6, 7, 1, 2, 3, 4, 5, 8, 9, 10])
    scrambled = REInstance(
        dep_tree=scrambled_tree,
        e1=6,  # audits moved to position 6
        e2=2,  # waste moved to position 2
        label="Message-Topic",
    )
    cfg = FeatureConfig()
    assert np.array_equal(
        build_vud(inst, unit_store, cfg), build_vud(scrambled, unit_store, cfg)
    )
    assert not np.array_equal(
        build_vo(inst, unit_store, cfg), build_vo(scrambled, unit_store, cfg)
    )


def test_vud_merges_fixed_chain(farsi_audits_tree):
    store = EmbeddingStore(
        dim=2,
        vectors={
            "زباله": np.array([1.0, 0.0]),
            "حسابرسی": np.array([0.0, 1.0]),
            "به": np.array([0.4, 0.0]),
            "راجع": np.array([0.0, 0.4]),
            "بود": np.array([0.2, 0.2]),
            "بازیافت": np.array([0.6, 0.6]),
        },
        lang="fa",
    )
    inst = REInstance(dep_tree=farsi_audits_tree, e1=4, e2=7, label="Message-Topic")
    blocks = build_vud(inst, store, FeatureConfig()).reshape(5, 2)
    assert blocks[0].tolist() == [1.0, 0.0]
    assert blocks[1].tolist() == [0.0, 1.0]
    assert blocks[2].tolist() == [0.0, 0.0]
    # dependents of the root after collapse: بود, بازیافت, and the merged
    # «به راجع», whose vector is the average of its members
    merged = (np.array([0.4, 0.0]) + np.array([0.0, 0.4])) / 2.0
    expected = (np.array([0.2, 0.2]) + np.array([0.6, 0.6]) + merged) / 3.0
    np.testing.assert_allclose(blocks[3], expected)


def test_entity_spans_excluded_from_contexts(unit_store):
    dep = tree(
        "spans",
        [
            tok(1, "audit", "audit", "NOUN", 2, "compound", {"Entity": "e1"}),
            tok(2, "waste", "waste", "NOUN", 3, "nsubj", {"Entity": "e1"}),
            tok(3, "about", "about", "VERB", 0, "root"),
            tok(4, "memo", "memo", "NOUN", 3, "obj", {"Entity": "e2"}),
        ],
    )
    inst = REInstance(
        dep_tree=dep, e1=2, e2=4, label="x", e1_span=(1, 2), e2_span=(4, 4)
    )
    blocks = build_vo(inst, unit_store, FeatureConfig()).reshape(5, 3)
    # e1 block averages the whole span
    np.testing.assert_allclose(blocks[0], [0.5, 0.5, 0.0])
    # before-block must not leak span member "audit"
    assert blocks[3].tolist() == [0.0, 0.0, 0.0]


def test_instance_rejects_equal_heads(audits_tree):
    with pytest.raises(DataError, match="must differ"):
        REInstance(dep_tree=audits_tree, e1=4, e2=4, label="x")
