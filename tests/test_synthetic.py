"""Generated corpora: shape, well-formedness, and reproducibility."""

import filecmp
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from udkernels.conllu import parse_conllu_file, validate
from udkernels.datasets import load_pi_dataset, load_re_dataset
from udkernels.synthetic import (
    RELATIONS,
    const_parse_line,
    make_pi_corpus,
    make_re_corpus,
    pseudo_translate_corpus,
    write_crosslingual_re,
    write_pi_corpus,
    write_re_corpus,
)
from udkernels.transforms import parse_bracketed

from oracle import reference_const_parse_line


def test_pi_corpus_shape():
    trees, pairs = make_pi_corpus(n_pairs=8, seed=13)
    assert len(pairs) == 8
    assert len(trees) == 16
    labels = [label for label, _, _ in pairs]
    assert labels.count("1") == 4 and labels.count("0") == 4
    for tree in trees:
        assert validate(tree) == []


def test_pi_corpus_is_seeded():
    first = make_pi_corpus(n_pairs=8, seed=13)
    again = make_pi_corpus(n_pairs=8, seed=13)
    other = make_pi_corpus(n_pairs=8, seed=14)
    assert [p for _, *p in first[1]] == [p for _, *p in again[1]]
    assert first[1] != other[1]


def test_write_pi_corpus_loads_back(tmp_path):
    paths = write_pi_corpus(tmp_path, n_pairs=8, seed=13)
    train = load_pi_dataset(paths["pairs_train.tsv"], paths["bank"])
    test = load_pi_dataset(paths["pairs_test.tsv"], paths["bank"])
    assert len(train) == 6 and len(test) == 2


def test_re_corpus_shape():
    trees = make_re_corpus(n_per_class=4, seed=13)
    assert len(trees) == 12
    by_label = {}
    for tree in trees:
        by_label.setdefault(tree.metadata["relation"], []).append(tree)
        assert validate(tree) == []
    assert set(by_label) == set(RELATIONS)
    assert all(len(group) == 4 for group in by_label.values())


def test_write_re_corpus_loads_back(tmp_path):
    paths = write_re_corpus(tmp_path, n_per_class=4, seed=13)
    train = load_re_dataset(paths["train.conllu"], const_path=paths["train.const"])
    assert all(inst.const_tree is not None for inst in train)
    assert {inst.label for inst in train} <= set(RELATIONS)


def test_const_parses_align_with_sentences():
    trees = make_re_corpus(n_per_class=3, seed=13)
    for tree in trees:
        parses = parse_bracketed(const_parse_line(tree))
        assert len(parses) == 1
        leaves = [leaf.label for leaf in parses[0].leaves()]
        assert leaves == [t.form for t in tree.tokens]


# one sentence of each shape: a transitive verb, and a copula with a preposition
SHAPES = {tree.metadata["relation"]: tree for tree in make_re_corpus(n_per_class=1, seed=13)}
# nonempty forms of brackets, carets, backslashes, whitespace and letters
form = st.text(alphabet="()^\\ \t\xa0\u2028\rab\xe9", min_size=1, max_size=4)


def with_forms(tree, forms):
    tokens = tuple(replace(t, form=form) for t, form in zip(tree.tokens, forms))
    return replace(tree, tokens=tokens)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SHAPES)), st.lists(form, min_size=7, max_size=7))
def test_const_parse_line_equals_the_text_template(relation, forms):
    tree = with_forms(SHAPES[relation], forms)
    line = const_parse_line(tree)
    assert line == reference_const_parse_line(tree)
    (parsed,) = parse_bracketed(line)
    assert [leaf.label for leaf in parsed.leaves()] == [t.form for t in tree.tokens]


def test_const_parse_line_escapes_syntax_in_forms():
    tree = with_forms(SHAPES["Content-Container"], ["(a", "b)", "c^d", "e\\", "f g", "", "."])
    want = (
        "(S (NP (DT \\(a) (NN b\\))) (VP (VBD c\\^d) (PP (IN e\\\\) "
        "(NP (DT f\\ g) (NN )))) (PUNCT .))"
    )
    assert const_parse_line(tree) == reference_const_parse_line(tree) == want
    assert {tree.metadata["relation"] for tree in SHAPES.values()} == set(RELATIONS)


def test_pseudo_translation_prefixes_content_words():
    trees = make_re_corpus(n_per_class=2, seed=13)
    translated = pseudo_translate_corpus(trees)
    for orig, trans in zip(trees, translated):
        for a, b in zip(orig.tokens, trans.tokens):
            if a.upos == "PUNCT":
                assert b.form == a.form
            else:
                assert b.form == "x" + a.form


def test_crosslingual_dictionary_covers_test_words(tmp_path):
    paths = write_crosslingual_re(tmp_path, n_per_class=3, seed=13)
    mapping = {}
    with open(paths["dict.tsv"], encoding="utf-8") as handle:
        for line in handle:
            src, dst = line.rstrip("\n").split("\t")
            mapping[src] = dst
    for tree in parse_conllu_file(paths["test.conllu"]):
        for token in tree.tokens:
            if token.upos != "PUNCT":
                assert token.form.lower() in mapping


def test_generation_is_deterministic_on_disk(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_re_corpus(a, n_per_class=3, seed=13)
    write_re_corpus(b, n_per_class=3, seed=13)
    for name in ("train.conllu", "test.conllu", "train.const", "vectors.txt"):
        assert filecmp.cmp(a / name, b / name, shallow=False)
