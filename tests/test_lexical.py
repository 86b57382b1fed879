import itertools
import re
import struct
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracle import reference_make_sigma
from udkernels import lexical
from udkernels.config import kernel_spec_from_dict
from udkernels.errors import EmbeddingError
from udkernels.lexical import (
    BilingualDictionary,
    EmbeddingStore,
    SigmaConfig,
    cosine,
    indicator_sigma,
    load_dictionary,
    load_embeddings,
    make_sigma,
    resolve_vector,
    translate,
)
from udkernels.conllu import parse_conllu_file
from udkernels.synthetic import write_crosslingual_re
from udkernels.transforms import LabeledTree, lex, syn, to_lct


# --- file loading ----------------------------------------------------------


def test_load_embeddings_plain(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    store = load_embeddings(path, lang="en")
    assert store.dim == 2
    assert len(store) == 2
    assert store.get("cat").tolist() == [1.0, 0.0]
    assert store.get("missing") is None


def test_load_embeddings_with_header(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 3\ncat 1 2 3\ndog 4 5 6\n")
    store = load_embeddings(path)
    assert store.dim == 3
    assert len(store) == 2


def test_load_embeddings_dimension_mismatch(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("cat 1.0 0.0\ndog 0.0\n")
    with pytest.raises(EmbeddingError, match=":2"):
        load_embeddings(path)


def test_load_embeddings_rejects_garbage(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("cat one two\n")
    with pytest.raises(EmbeddingError, match="non-numeric"):
        load_embeddings(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_embeddings_rejects_non_finite_components(tmp_path, token):
    path = tmp_path / "vec.txt"
    path.write_text(f"cat 1.0 0.0\ndog 0.5 {token}\n")
    message = re.escape(f"{path}:2: vector component '{token}' is not finite")
    with pytest.raises(EmbeddingError, match=f"^{message}$"):
        load_embeddings(path)


def test_load_embeddings_rejects_empty(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("\n\n")
    with pytest.raises(EmbeddingError, match="no embedding rows"):
        load_embeddings(path)


def test_load_dictionary_ranks_by_file_order(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("Chat\tcat\nchat\tfeline\nchien\tdog\n")
    d = load_dictionary(path, source_lang="fr", target_lang="en")
    assert translate(d, "chat") == "cat"
    assert d.entries["chat"] == ("cat", "feline")
    assert translate(d, "CHAT") == "cat"
    assert translate(d, "cheval") is None


def test_load_dictionary_rejects_bad_rows(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("oneword\n")
    with pytest.raises(EmbeddingError, match="source<TAB>target"):
        load_dictionary(path)


def test_load_dictionary_keeps_a_lone_carriage_return_in_a_word(tmp_path):
    # only a line feed ends a row; one carriage return before it is dropped
    path = tmp_path / "dict.tsv"
    path.write_bytes(b"a\rb\tc\r\nd\te\n")
    d = load_dictionary(path)
    assert d.entries == {"a\rb": ("c",), "d": ("e",)}
    path.write_bytes(b"a\rb\n")
    with pytest.raises(EmbeddingError, match=r":1: expected 'source<TAB>target', got 'a\\rb'$"):
        load_dictionary(path)


# --- vector math -----------------------------------------------------------


def test_cosine_basics():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == pytest.approx(1.0)
    v = np.array([0.3, 0.4])
    assert cosine(v, v) == 1.0  # identity short-circuit is exact
    assert cosine(np.zeros(2), np.array([1.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        cosine(np.array([1.0]), np.array([1.0, 2.0]))


@settings(max_examples=200, deadline=None)
@given(
    u=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    v=arrays(np.float64, 4, elements=st.floats(-10, 10)),
)
def test_cosine_bounded(u, v):
    value = cosine(u, v)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
    assert cosine(u, v) == cosine(v, u)


def test_cosine_exact_for_tiny_and_huge_magnitudes():
    # squares of these components underflow or overflow; the result must
    # not, and no overflow warning may reach the caller
    u = np.array([1.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cosine(u, np.array([9.42762753e-160, 0.0, 0.0, 0.0])) == 1.0
        assert cosine(u, np.array([1e-170, 0.0, 0.0, 0.0])) == 1.0
        assert cosine(np.array([1e200, 1e200]), np.array([1.0, 1.0])) == pytest.approx(1.0)
        assert cosine(np.array([1e-170, 0.0]), np.array([0.0, 1e-170])) == 0.0


def small_store():
    from udkernels.lexical import EmbeddingStore

    return EmbeddingStore(
        dim=2,
        vectors={
            "cat": np.array([1.0, 0.0]),
            "dog": np.array([0.0, 1.0]),
            "feline": np.array([0.9, 0.1]),
        },
        lang="en",
    )


def test_resolve_vector_direct_hit():
    assert resolve_vector("Cat", small_store()).tolist() == [1.0, 0.0]


def test_resolve_vector_via_translation():
    d = BilingualDictionary(entries={"chat": ("cat",)})
    assert resolve_vector("chat", small_store(), d, translate_first=True).tolist() == [1.0, 0.0]
    assert resolve_vector("chat", small_store(), d, translate_first=False) is None


def test_resolve_vector_multiword_average():
    vec = resolve_vector("cat dog", small_store())
    assert vec.tolist() == [0.5, 0.5]
    # members that stay unresolved are simply left out of the average
    vec = resolve_vector("cat unknown", small_store())
    assert vec.tolist() == [1.0, 0.0]
    assert resolve_vector("unknown1 unknown2", small_store()) is None


# --- node similarity -------------------------------------------------------


def test_indicator_sigma():
    assert indicator_sigma(syn("nsubj"), syn("nsubj")) == 1.0
    assert indicator_sigma(syn("nsubj"), syn("obj")) == 0.0


def test_sigma_syntactic_pairs_match_on_label():
    sigma = make_sigma(SigmaConfig(), small_store())
    assert sigma(syn("nsubj"), syn("nsubj")) == 1.0
    assert sigma(syn("nsubj"), syn("obj")) == 0.0


def test_sigma_mixed_kinds_score_zero():
    sigma = make_sigma(SigmaConfig(), small_store())
    assert sigma(syn("NOUN"), lex("cat", "NOUN")) == 0.0


def test_sigma_lexical_cosine_with_pos_gate():
    sigma = make_sigma(SigmaConfig(), small_store())
    assert sigma(lex("cat", "NOUN"), lex("feline", "NOUN")) == pytest.approx(
        cosine(np.array([1.0, 0.0]), np.array([0.9, 0.1]))
    )
    assert sigma(lex("cat", "NOUN"), lex("feline", "VERB")) == 0.0
    relaxed = make_sigma(SigmaConfig(pos_must_match=False), small_store())
    assert relaxed(lex("cat", "NOUN"), lex("feline", "VERB")) > 0.0


def test_sigma_clamps_to_unit_interval():
    from udkernels.lexical import EmbeddingStore

    store = EmbeddingStore(
        dim=2,
        vectors={"up": np.array([1.0, 0.0]), "down": np.array([-1.0, 0.0])},
    )
    sigma = make_sigma(SigmaConfig(), store)
    assert sigma(lex("up", "X"), lex("down", "X")) == 0.0  # cosine -1 clamps


def test_sigma_identical_word_is_exactly_one():
    sigma = make_sigma(SigmaConfig(), small_store())
    assert sigma(lex("cat", "NOUN"), lex("cat", "NOUN")) == 1.0


def test_sigma_oov_policies():
    zero = make_sigma(SigmaConfig(oov_policy="zero"), small_store())
    assert zero(lex("blorp", "NOUN"), lex("blorp", "NOUN")) == 0.0
    fallback = make_sigma(SigmaConfig(oov_policy="exact_match_fallback"), small_store())
    assert fallback(lex("blorp", "NOUN"), lex("blorp", "NOUN")) == 1.0
    assert fallback(lex("blorp", "NOUN"), lex("blip", "NOUN")) == 0.0


def test_sigma_translate_then_compare():
    d = BilingualDictionary(entries={"chat": ("cat",), "chien": ("dog",)})
    sigma = make_sigma(
        SigmaConfig(mode="translate_then_compare"), small_store(), d
    )
    # pivot-side word compares against the translated one
    assert sigma(lex("chat", "NOUN"), lex("cat", "NOUN")) == pytest.approx(1.0)
    assert sigma(lex("chat", "NOUN"), lex("feline", "NOUN")) == pytest.approx(
        cosine(np.array([1.0, 0.0]), np.array([0.9, 0.1]))
    )
    # store hit wins before translation is attempted
    assert sigma(lex("cat", "NOUN"), lex("dog", "NOUN")) == 0.0


def uncached_sigma(cfg, store, dictionary=None):
    """make_sigma as it was before its label cache: both vectors are
    resolved afresh on every call."""
    translate_first = cfg.mode == "translate_then_compare"

    def sigma(n1, n2):
        if n1.kind == "syntactic" and n2.kind == "syntactic":
            return 1.0 if n1.label == n2.label else 0.0
        if n1.kind != "lexical" or n2.kind != "lexical":
            return 0.0
        if cfg.pos_must_match and n1.pos_tag != n2.pos_tag:
            return 0.0
        v1 = resolve_vector(n1.label, store, dictionary, translate_first, cfg.lowercase)
        v2 = resolve_vector(n2.label, store, dictionary, translate_first, cfg.lowercase)
        if v1 is None or v2 is None:
            if cfg.oov_policy == "exact_match_fallback":
                w1 = n1.label.lower() if cfg.lowercase else n1.label
                w2 = n2.label.lower() if cfg.lowercase else n2.label
                return 1.0 if w1 == w2 else 0.0
            return 0.0
        return min(1.0, max(0.0, cosine(v1, v2)))

    return sigma


def crosslingual_nodes(tmp_path):
    """One node per distinct (kind, label, POS) of the cross-lingual
    corpus, plus OOV, multiword, zero, tiny and huge-vector words; every
    lexical extra appears as two distinct but equal nodes."""
    paths = write_crosslingual_re(tmp_path, n_per_class=2, seed=13)
    store = load_embeddings(paths["vectors.txt"])
    dictionary = load_dictionary(paths["dict.tsv"])
    base = sorted(store.vectors)
    store.vectors["zeroword"] = np.zeros(store.dim)
    store.vectors["tinyword"] = np.linspace(1e-170, 3e-170, store.dim)
    store.vectors["hugeword"] = np.linspace(1e200, 3e200, store.dim)
    trees = [to_lct(t) for name in ("train.conllu", "test.conllu") for t in parse_conllu_file(paths[name])]
    nodes = {(n.kind, n.label, n.pos_tag): n for t in trees for n in t.iter_nodes()}
    extras = ["blorp", "zeroword", "tinyword", "hugeword", base[0].upper(), "blorp zeroword"]
    extras += [f"{a} {b}" for a, b in itertools.combinations(base[:5], 2)]
    extras += [f"{base[0]} blorp", f"{sorted(dictionary.entries)[0]} {base[1]}", "hugeword tinyword"]
    out = list(nodes.values())
    out += [lex(word, "NOUN") for word in extras for _ in (0, 1)]
    return out, store, dictionary


@pytest.mark.parametrize(
    "cfg",
    [
        SigmaConfig(mode="translate_then_compare"),
        SigmaConfig(mode="translate_then_compare", oov_policy="exact_match_fallback"),
        SigmaConfig(pos_must_match=False, lowercase=False),
    ],
)
def test_cached_sigma_equals_uncached_bit_for_bit(tmp_path, monkeypatch, cfg):
    from udkernels import lexical

    nodes, store, dictionary = crosslingual_nodes(tmp_path)
    pairs = [(n1, n2) for n1 in nodes for n2 in nodes]
    old = uncached_sigma(cfg, store, dictionary)
    bits = lambda x: struct.pack("<d", x)
    with np.errstate(over="ignore"):
        wants = [old(n1, n2) for n1, n2 in pairs]
    # equal multiword labels score below 1 through the dot product, so
    # the comparison does reach the case a shared vector would shortcut
    assert any(n1 is not n2 and n1.label == n2.label and 0.0 < w < 1.0 for (n1, n2), w in zip(pairs, wants))

    resolutions = []
    real = lexical._resolve
    monkeypatch.setattr(
        lexical, "_resolve", lambda word, *args: resolutions.append(word) or real(word, *args)
    )
    new = make_sigma(cfg, store, dictionary)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (n1, n2), want in zip(pairs, wants):
            assert bits(new(n1, n2)) == bits(want), (n1.label, n2.label)
        # every label was resolved on its first pair; a second sweep over
        # all pairs resolves nothing and scores the same
        assert resolutions
        resolutions.clear()
        for (n1, n2), want in zip(pairs, wants):
            assert bits(new(n1, n2)) == bits(want), (n1.label, n2.label)
    assert resolutions == []


def test_sigma_config_validation():
    with pytest.raises(ValueError):
        SigmaConfig(mode="nope")
    with pytest.raises(ValueError):
        SigmaConfig(oov_policy="nope")
    cfg = SigmaConfig(mode="translate_then_compare", oov_policy="exact_match_fallback")
    spec = kernel_spec_from_dict({"task": "pi", "base": {"kind": "SPTK", "sigma": asdict(cfg)}})
    assert spec.base.sigma_cfg == cfg


# --- the score memo against the sigma it replaced -------------------------

def memo_store():
    """Store and dictionary behind DIFF_LABELS: unit, clamped, zero,
    tiny and huge vectors, two labels sharing one vector object, and
    translations to a store word, to a word only its capitalized form
    reaches, and to nothing."""
    cat = np.array([1.0, 0.0, 0.0])
    store = EmbeddingStore(
        dim=3,
        vectors={
            "cat": cat,
            "twin": cat,
            "Cat": np.array([0.2, 0.9, 0.1]),
            "feline": np.array([0.9, 0.1, 0.0]),
            "dog": np.array([0.0, 1.0, 0.0]),
            "anti": np.array([-1.0, 0.0, 0.0]),
            "zero": np.zeros(3),
            "tiny": np.array([1e-170, 2e-170, 3e-170]),
            "huge": np.array([1e200, 2e200, 3e200]),
        },
    )
    dictionary = BilingualDictionary(
        entries={"chat": ("cat",), "gato": ("Cat",), "perro": ("dog",), "vide": ("nowhere",)}
    )
    return store, dictionary


DIFF_LABELS = [
    "cat", "Cat", "twin", "feline", "dog", "anti", "zero", "tiny", "huge",
    "chat", "Chat", "gato", "Perro", "vide", "blorp", "Blorp",
    "cat dog", "Cat feline", "chat blorp", "blorp zero", "huge tiny", "cat cat", "blorp  vide",
]
diff_nodes = st.builds(
    LabeledTree,
    label=st.sampled_from(DIFF_LABELS),
    kind=st.sampled_from(["syntactic", "lexical", "other"]),
    pos_tag=st.sampled_from(["NOUN", "VERB", None]),
)
ALL_SIGMA_CONFIGS = [
    SigmaConfig(mode=m, pos_must_match=p, oov_policy=o, lowercase=c)
    for m, p, o, c in itertools.product(
        ("monolingual", "translate_then_compare"), (True, False), ("zero", "exact_match_fallback"), (True, False)
    )
]


def memo_of(sigma) -> dict:
    """The score memo a make_sigma closure keeps: first label ->
    {second label: score}."""
    cells = dict(zip(sigma.__code__.co_freevars, sigma.__closure__))
    return cells["scores"].cell_contents


def memo_size(sigma) -> int:
    return sum(map(len, memo_of(sigma).values()))


def bits(x) -> bytes:
    return struct.pack("d", x)


@pytest.mark.parametrize("cfg", ALL_SIGMA_CONFIGS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(pairs=st.lists(st.tuples(diff_nodes, diff_nodes), min_size=1, max_size=40))
def test_memoized_sigma_equals_reference_bit_for_bit(cfg, pairs):
    store, dictionary = memo_store()
    ref = reference_make_sigma(cfg, store, dictionary)
    wants = [bits(ref(n1, n2)) for n1, n2 in pairs]
    sigma = make_sigma(cfg, store, dictionary)
    # a second sweep answers the pairs the first stored from the memo
    for _ in range(2):
        assert [bits(sigma(n1, n2)) for n1, n2 in pairs] == wants
    assert memo_size(sigma) <= len(pairs)
    # a memo of two scores empties itself over and over, and still
    # answers every pair with the same bits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lexical, "_SCORE_CAP", 2)
        capped = make_sigma(cfg, store, dictionary)
        for _ in range(2):
            for (n1, n2), want in zip(pairs, wants):
                assert bits(capped(n1, n2)) == want
                assert memo_size(capped) <= 2


def test_full_score_memo_empties_on_a_miss():
    store, dictionary = memo_store()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lexical, "_SCORE_CAP", 2)
        sigma = make_sigma(SigmaConfig(), store, dictionary)
        cat, dog, feline = (lex(w, "NOUN") for w in ("cat", "dog", "feline"))
        sigma(cat, dog)
        sigma(cat, feline)
        assert memo_of(sigma) == {"cat": {"dog": 0.0, "feline": sigma(cat, feline)}}
        # a hit on a full memo keeps it; a miss empties it first
        sigma(cat, dog)
        assert memo_size(sigma) == 2
        sigma(dog, feline)
        assert memo_of(sigma) == {"dog": {"feline": sigma(dog, feline)}}
    # syntactic, mixed, POS-gated and unknown-kind pairs are never stored
    sigma = make_sigma(SigmaConfig(), store, dictionary)
    sigma(syn("cat"), syn("cat"))
    sigma(syn("cat"), lex("cat", "NOUN"))
    sigma(lex("cat", "NOUN"), lex("cat", "VERB"))
    sigma(LabeledTree("cat", "other"), LabeledTree("cat", "other"))
    assert memo_of(sigma) == {}


def test_vector_shape_mismatch_raises_on_every_call_and_is_never_stored():
    store, dictionary = memo_store()
    store.vectors["wide"] = np.array([1.0, 2.0])
    cat, wide = lex("cat", "NOUN"), lex("wide", "NOUN")
    sigma = make_sigma(SigmaConfig(), store, dictionary)
    ref = reference_make_sigma(SigmaConfig(), store, dictionary)
    for _ in range(3):
        for f in (sigma, ref):
            with pytest.raises(ValueError, match=r"^vector shapes differ: \(3,\) vs \(2,\)$"):
                f(cat, wide)
            with pytest.raises(ValueError, match=r"^vector shapes differ: \(2,\) vs \(3,\)$"):
                f(wide, cat)
        assert memo_of(sigma) == {}
    assert sigma(wide, wide) == ref(wide, wide) == 1.0
    assert memo_of(sigma) == {"wide": {"wide": 1.0}}
