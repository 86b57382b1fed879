import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udkernels.conllu import parse_conllu
from udkernels.datasets import load_re_dataset
from udkernels.errors import BracketError, ConlluError, DataError
from udkernels.kernels import TreeKernelParams, tree_kernel
from udkernels.synthetic import write_re_corpus
from udkernels.transforms import (
    LEXICAL,
    SYNTACTIC,
    ConstTree,
    LabeledTree,
    MweConfig,
    TreeIndex,
    collapse_mwe,
    const_to_bracketed,
    const_to_labeled,
    extract_pet,
    labeled_from_sexpr,
    labeled_to_sexpr,
    lex,
    parse_bracketed,
    shortest_path,
    _fold,
    _postorder,
    syn,
    to_lct,
)

from conftest import tok, tree
from oracle import (
    reference_const_to_bracketed,
    reference_const_to_labeled,
    reference_labeled_from_sexpr,
    reference_labeled_to_sexpr,
    reference_parse_bracketed,
)


# --- lexical centered trees ------------------------------------------------


def test_lct_has_three_nodes_per_token(memo_tree, audits_tree, farsi_audits_tree):
    for dep in (memo_tree, audits_tree, farsi_audits_tree):
        assert to_lct(dep).size() == 3 * len(dep)


def test_lct_root_structure(memo_tree):
    lct = to_lct(memo_tree)
    assert lct.kind == LEXICAL
    assert lct.label == "present"
    assert lct.pos_tag == "VERB"
    # relation and POS first, then dependents in surface order
    assert [c.label for c in lct.children] == ["root", "VERB", "memo", "detail"]
    assert [c.kind for c in lct.children] == [SYNTACTIC, SYNTACTIC, LEXICAL, LEXICAL]
    memo = lct.children[2]
    assert [c.label for c in memo.children] == ["nsubj", "NOUN", "the"]


def test_lct_lowercases_by_default(audits_tree):
    lct = to_lct(audits_tree)
    words = {n.label for n in lct.iter_nodes() if n.kind == LEXICAL}
    assert "the" in words and "The" not in words


def test_lct_falls_back_to_form_without_lemma():
    dep = tree("nolemma", [tok(1, "Word", None, "NOUN", 0, "root")])
    assert to_lct(dep).label == "word"
    assert to_lct(dep, lowercase=False).label == "Word"


def reference_lct(dep, lowercase=True):
    """to_lct as written with the syn/lex helpers, the reference for the
    builder that makes each node once."""

    def build(node_id):
        token = dep.token(node_id)
        word = token.lemma if token.lemma not in (None, "", "_") else token.form
        kids = [syn(token.deprel), syn(token.upos)]
        kids.extend(build(c) for c in dep.children(node_id))
        return lex(word.lower() if lowercase else word, token.upos, *kids)

    return build(dep.root_id)


@st.composite
def dependency_trees(draw):
    """A well-formed sentence: each token but the root hangs from one
    placed before it in a drawn order, so every token reaches the root."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    pick = lambda *values: draw(st.sampled_from(values))  # noqa: E731
    tokens = [
        tok(
            i,
            pick("Cat", "dog", "RUNS", "É", "a^b", "x y"),
            pick(None, "", "_", "Cat", "run"),
            pick("NOUN", "VERB", "PUNCT"),
            heads[i],
            pick("root", "nsubj", "obj", "(x)"),
        )
        for i in range(1, n + 1)
    ]
    return tree("drawn", tokens)


@settings(max_examples=150, deadline=None)
@given(dependency_trees(), st.booleans())
def test_lct_equals_reference_builder(dep, lowercase):
    lct, want = to_lct(dep, lowercase), reference_lct(dep, lowercase)
    assert lct == want
    assert labeled_to_sexpr(lct) == labeled_to_sexpr(want)
    kinds = lambda t: [(n.kind, n.pos_tag) for n in t.iter_nodes()]  # noqa: E731
    assert kinds(lct) == kinds(want)
    assert lct.size() == 3 * len(dep)


def test_lct_takes_a_head_chain_deeper_than_the_recursion_limit():
    # token i hangs from token i + 1, and the last token is the root
    n = sys.getrecursionlimit() + 100
    deprel = lambda i: "root" if i == n else "dep"  # noqa: E731
    tokens = [tok(i, f"W{i}", None, "X", (i + 1) % (n + 1), deprel(i)) for i in range(1, n + 1)]
    dep = tree("chain", tokens)
    lct = to_lct(dep)
    levels = [f"(w{i}^X ({deprel(i)}) (X)" for i in range(n, 0, -1)]
    assert labeled_to_sexpr(lct) == " ".join(levels) + ")" * n
    assert lct.size() == 3 * n


@pytest.mark.parametrize(
    "heads, message",
    [
        # a root and a 2 <-> 3 head cycle: the cycle used to be dropped
        ((0, 3, 2), "^s: tokens 2, 3 cannot be reached from the root$"),
        ((0, 1, 9), "^s: tokens 3 cannot be reached from the root$"),
        ((0, 3, 3), "^s: tokens 2, 3 cannot be reached from the root$"),
        ((0, 1, 0), "^s: expected one root, found 2$"),
        ((2, 1), "^s: expected one root, found 0$"),
    ],
)
def test_lct_refuses_tokens_the_root_cannot_reach(heads, message):
    text = "# sent_id = s\n" + "".join(
        f"{i}\tw{i}\t_\tX\t_\t_\t{head}\tdep\t_\t_\n" for i, head in enumerate(heads, start=1)
    )
    (dep,) = parse_conllu(text)
    with pytest.raises(ConlluError, match=message):
        to_lct(dep)


# --- paths and dependents --------------------------------------------------


def test_direct_relation_has_empty_path_interior(audits_tree):
    assert shortest_path(audits_tree, 4, 7) == ()
    assert shortest_path(audits_tree, 7, 4) == ()


def test_path_interior_order(memo_tree):
    # memo -> presents <- details: one interior node each direction
    assert shortest_path(memo_tree, 2, 4) == (3,)
    # management -> details -> presents <- memo
    assert shortest_path(memo_tree, 8, 2) == (4, 3)
    assert shortest_path(memo_tree, 2, 8) == (3, 4)


def test_path_errors(memo_tree):
    with pytest.raises(ValueError, match="must differ"):
        shortest_path(memo_tree, 3, 3)


def test_dependents_of_copular_root(audits_tree):
    deps = audits_tree.children(7)
    assert 5 in deps and 6 in deps  # were, about
    assert deps == (4, 5, 6, 9, 10)


# --- multiword collapse ----------------------------------------------------


def farsi_targets(dep):
    path = shortest_path(dep, 4, 7)
    return set(path) | set(dep.children(4)) | set(dep.children(7)) | {4, 7}


def test_collapse_merges_fixed_chain(farsi_audits_tree):
    collapsed, remap = collapse_mwe(
        farsi_audits_tree, MweConfig(), farsi_targets(farsi_audits_tree)
    )
    assert len(collapsed) == 7
    merged = collapsed.token(5)
    assert merged.form == "به راجع"
    assert merged.lemma == "به راجع"
    assert merged.upos == "ADP"
    assert merged.deprel == "case"
    assert merged.head == 4
    assert remap[5] == 5 and remap[6] == 5
    assert remap[7] == 6 and remap[8] == 7
    assert remap[4] == 4
    # entity tokens survive with structure intact
    assert collapsed.token(6).form == "حسابرسی‌ها"
    assert collapsed.children(4) == (1, 2, 5, 6)


def test_collapse_without_matches_is_identity(audits_tree):
    collapsed, remap = collapse_mwe(
        audits_tree, MweConfig(), [t.id for t in audits_tree.tokens]
    )
    assert collapsed is audits_tree
    assert remap == {i: i for i in range(1, 11)}


def test_collapse_respects_relation_set(farsi_audits_tree):
    cfg = MweConfig(relations=frozenset({"flat"}))
    collapsed, _ = collapse_mwe(
        farsi_audits_tree, cfg, farsi_targets(farsi_audits_tree)
    )
    assert len(collapsed) == 8


def test_collapse_only_under_targets(farsi_audits_tree):
    collapsed, _ = collapse_mwe(farsi_audits_tree, MweConfig(), {7})
    assert len(collapsed) == 8  # the chain hangs under 6, not under 7


def test_collapse_transitive_chain():
    dep = tree(
        "chain",
        [
            tok(1, "a", "a", "ADP", 2, "fixed"),
            tok(2, "b", "b", "ADP", 3, "fixed"),
            tok(3, "c", "c", "ADP", 4, "case"),
            tok(4, "d", "d", "NOUN", 0, "root"),
        ],
    )
    collapsed, remap = collapse_mwe(dep, MweConfig(), {3})
    assert len(collapsed) == 2
    assert collapsed.token(1).form == "a b c"
    assert collapsed.token(1).deprel == "case"
    assert remap == {1: 1, 2: 1, 3: 1, 4: 2}


# --- constituency trees and fragments --------------------------------------

BRACKETED = "(S (NP (DT The) (NN memo)) (VP (VBZ presents) (NP (NN details))))"


def test_parse_bracketed_spans():
    (ct,) = parse_bracketed(BRACKETED)
    assert ct.label == "S"
    assert ct.span == (1, 4)
    assert [leaf.label for leaf in ct.leaves()] == ["The", "memo", "presents", "details"]
    assert ct.children[0].span == (1, 2)
    assert ct.children[1].children[0].span == (3, 3)


def test_parse_bracketed_roundtrip():
    (ct,) = parse_bracketed(BRACKETED)
    assert const_to_bracketed(ct) == BRACKETED


def test_parse_bracketed_reports_offset():
    with pytest.raises(BracketError, match="line 1"):
        parse_bracketed("(S (NP broken)")
    with pytest.raises(BracketError):
        parse_bracketed("(S a))")


def test_extract_pet_prunes_outside_envelope():
    (ct,) = parse_bracketed(BRACKETED)
    pet = extract_pet(ct, (2, 2), (4, 4))
    assert const_to_bracketed(pet) == "(S (NP (NN memo)) (VP (VBZ presents) (NP (NN details))))"


def test_extract_pet_descends_to_lowest_cover():
    (ct,) = parse_bracketed(BRACKETED)
    pet = extract_pet(ct, (1, 1), (2, 2))
    assert const_to_bracketed(pet) == "(NP (DT The) (NN memo))"


def test_extract_pet_span_checks():
    (ct,) = parse_bracketed(BRACKETED)
    with pytest.raises(DataError, match="bad span"):
        extract_pet(ct, (2, 1), (3, 3))
    with pytest.raises(DataError, match="overlap"):
        extract_pet(ct, (1, 3), (2, 4))
    with pytest.raises(DataError, match="outside sentence span"):
        extract_pet(ct, (1, 1), (9, 9))


def test_const_to_labeled_marks_leaves_lexical():
    (ct,) = parse_bracketed(BRACKETED)
    lt = const_to_labeled(ct)
    assert lt.kind == SYNTACTIC
    leaves = [n for n in lt.iter_nodes() if n.is_leaf()]
    assert all(n.kind == LEXICAL for n in leaves)
    assert sorted(n.pos_tag for n in leaves) == ["DT", "NN", "NN", "VBZ"]
    assert sorted(n.label for n in leaves) == ["The", "details", "memo", "presents"]


# --- s-expression serialization --------------------------------------------


def test_labeled_sexpr_roundtrip(memo_tree):
    lct = to_lct(memo_tree)
    text = labeled_to_sexpr(lct)
    again = labeled_from_sexpr(text)
    assert again == lct


def test_labeled_sexpr_escapes_specials():
    ugly = lex("a^b (c)", "PO S", syn("x\\y"))
    text = labeled_to_sexpr(ugly)
    again = labeled_from_sexpr(text)
    assert again == ugly


def test_labeled_sexpr_plain_atom_is_syntactic():
    t = labeled_from_sexpr("(root (nsubj) (obj))")
    assert t.kind == SYNTACTIC
    assert [c.kind for c in t.children] == [SYNTACTIC, SYNTACTIC]


def test_labeled_sexpr_annotated_atom_is_lexical():
    t = labeled_from_sexpr("(walk^VERB (nsubj))")
    assert t.kind == LEXICAL
    assert t.pos_tag == "VERB"


def test_labeled_sexpr_refuses_two_carets():
    with pytest.raises(BracketError, match=r"offset 3: label 'a\^b\^c' has more than one"):
        labeled_from_sexpr("(x (a^b^c))")
    # an escaped caret belongs to the word
    assert labeled_from_sexpr("(a\\^b^c)") == lex("a^b", "c")


# --- bracket round trips and errors ----------------------------------------

# every character the escape rule covers (no-break space and U+3000 are
# whitespace too; vertical tab, form feed, the separators \x1c-\x1e,
# U+0085, U+2028 and U+2029 are whitespace that str.splitlines would also
# end a line at), plus non-ASCII letters
ALPHABET = "ab()^\\ \t\xa0\u3000\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029é中ß"
labels = st.text(alphabet=ALPHABET, min_size=1, max_size=5)
# s-expressions may also hold line breaks; .const files hold one tree a line
sexpr_labels = st.text(alphabet=ALPHABET + "\n", min_size=1, max_size=5)


def labeled_nodes(kids):
    """A node over a drawn list of children: lexical when it draws a POS tag."""
    return st.builds(
        lambda label, pos, children: LabeledTree(
            label, LEXICAL if pos is not None else SYNTACTIC, tuple(children), pos
        ),
        sexpr_labels,
        st.none() | sexpr_labels,
        kids,
    )


labeled_trees = st.recursive(
    labeled_nodes(st.just([])),
    lambda children: labeled_nodes(st.lists(children, max_size=3)),
    max_leaves=10,
)

const_trees = st.recursive(
    st.builds(ConstTree, labels),
    lambda kids: st.builds(
        lambda label, c: ConstTree(label, tuple(c)), labels, st.lists(kids, min_size=1, max_size=3)
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(labeled_trees)
def test_labeled_sexpr_roundtrip_any_labels(tree):
    assert labeled_from_sexpr(labeled_to_sexpr(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(const_trees, st.none() | labels)
def test_const_to_labeled_equals_the_recursive_conversion(tree, pos):
    assert const_to_labeled(tree, pos) == reference_const_to_labeled(tree, pos)


@settings(max_examples=200, deadline=None)
@given(const_trees)
def test_bracketed_roundtrip_any_labels(tree):
    text = const_to_bracketed(tree)
    (parsed,) = parse_bracketed(text)
    assert const_to_bracketed(parsed) == text


def test_const_to_bracketed_refuses_a_line_feed_in_a_label():
    # a .const line ends at the line feed, so the tree could not be read back
    tree = ConstTree("S", (ConstTree("S\nT"),))
    with pytest.raises(BracketError, match="label 'S\\\\nT' holds a line feed"):
        const_to_bracketed(tree)
    # a carriage return is escaped and stays inside its line
    tree = ConstTree("S", (ConstTree("S\rT"),))
    (again,) = parse_bracketed(const_to_bracketed(tree) + "\r\n")
    assert again.leaves()[0].label == "S\rT"


@pytest.mark.parametrize("label", ["a\r", "\r", "a\r\r", "a\rb"])
def test_one_node_tree_with_a_carriage_return_round_trips_through_a_file(tmp_path, label):
    trees = [ConstTree(label, span=(1, 1)), ConstTree("S", (ConstTree(label, span=(1, 1)),), (1, 1))]
    path = tmp_path / "trees.const"
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.writelines(const_to_bracketed(t) + "\n" for t in trees)
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    # no written line ends in a carriage return, escaped or not
    assert not any(line.endswith("\r") for line in lines)
    assert parse_bracketed("\n".join(lines), str(path)) == trees


def test_bracketed_caret_is_plain_text():
    (ct,) = parse_bracketed("(NP^x a^b^c \\^d)")
    assert ct.label == "NP^x"
    assert [leaf.label for leaf in ct.leaves()] == ["a^b^c", "^d"]


@pytest.mark.parametrize(
    "read, text, message",
    [
        (labeled_from_sexpr, "", "<sexpr>: empty"),
        (labeled_from_sexpr, " \t", "<sexpr>: empty"),
        (labeled_from_sexpr, "(a\\", "offset 2: dangling escape"),
        (parse_bracketed, "(S a\\", "line 1, offset 4: dangling escape"),
        (labeled_from_sexpr, "(a ())", "offset 3: missing node label"),
        (parse_bracketed, "(S ((NP a)))", "line 1, offset 3: missing node label"),
        (labeled_from_sexpr, "(a (b)", "offset 0: unbalanced parentheses"),
        (parse_bracketed, "(S a)\n(S (NP a)", "line 2, offset 0: unbalanced parentheses"),
        (labeled_from_sexpr, "(a) (b)", "trailing content"),
        (parse_bracketed, "(S a) b", "line 1, offset 6: trailing content"),
        (labeled_from_sexpr, ") (a)", "offset 0"),
        (parse_bracketed, ") (S a)", "line 1, offset 0: unexpected '\\)'"),
        (labeled_from_sexpr, "(a b)", "offset 3: expected '\\('"),
        (labeled_from_sexpr, "b", "offset 0: expected '\\('"),
    ],
)
def test_bracket_errors(read, text, message):
    with pytest.raises(BracketError, match=message):
        read(text)


# --- the regex reader against the character-by-character reference --------

# brackets, carets, backslashes, spaces, an ASCII separator and U+2028 (both
# str.isspace()), a line feed, and two letters
READER_ALPHABET = "()^\\ \x1c \nab"
reader_texts = st.text(alphabet=READER_ALPHABET, max_size=24)
# labels over the same alphabet, for the writers
reader_labels = st.text(alphabet=READER_ALPHABET, min_size=1, max_size=4)
written_trees = st.recursive(
    st.builds(
        lambda label, pos: LabeledTree(label, LEXICAL if pos else SYNTACTIC, (), pos),
        reader_labels,
        st.none() | reader_labels,
    ),
    lambda kids: st.builds(
        lambda label, pos, c: LabeledTree(label, LEXICAL if pos else SYNTACTIC, tuple(c), pos),
        reader_labels,
        st.none() | reader_labels,
        st.lists(kids, max_size=3),
    ),
    max_leaves=6,
)


def outcome(read, *args):
    """read(*args), or the type and text of the error it raises."""
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(reader_texts)
def test_readers_equal_the_reference_reader(text):
    # every bracket pair and every bare atom also gets a chance to parse
    for candidate in (text, f"({text})", f"(a {text})"):
        assert outcome(labeled_from_sexpr, candidate) == outcome(
            reference_labeled_from_sexpr, candidate
        )
        assert outcome(parse_bracketed, candidate, "f") == outcome(
            reference_parse_bracketed, candidate, "f"
        )


@settings(max_examples=300, deadline=None)
@given(written_trees)
def test_writers_equal_the_reference_writer(tree):
    text = labeled_to_sexpr(tree)
    assert text == reference_labeled_to_sexpr(tree)
    assert labeled_from_sexpr(text) == tree
    # the same shape as a constituency tree; a label holding a line feed
    # is refused by both writers
    const = as_const(tree)
    assert outcome(const_to_bracketed, const) == outcome(reference_const_to_bracketed, const)
    # and converted back, with a leaf root tagged by pos or "X"
    for pos in (None, "", "P"):
        assert const_to_labeled(const, pos) == reference_const_to_labeled(const, pos)


def as_const(tree: LabeledTree) -> ConstTree:
    return ConstTree(tree.label, tuple(map(as_const, tree.children)))


def test_regex_whitespace_is_exactly_str_isspace():
    # the reader splits tokens at \s and the writer escapes \s: both rely on
    # it matching the characters str.isspace() accepts, and no others
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


def test_reader_takes_a_tree_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    tree = labeled_from_sexpr("(a " * depth + "(b)" + ")" * depth)
    for _ in range(depth):
        (tree,) = tree.children
    assert tree == syn("b")


def test_writers_take_a_tree_deeper_than_the_recursion_limit():
    # a chain of alternating lexical and syntactic nodes, labels that need
    # escaping, and a leaf at the bottom; compared as text, since == on
    # nested dataclasses recurses
    depth = sys.getrecursionlimit() + 100
    tree = lex("b", "P")
    for level in range(depth):
        tree = lex("w(", "V", tree) if level % 2 else syn("a b", tree)
    levels = ["(a\\ b " if level % 2 == 0 else "(w\\(^V " for level in range(depth)]
    text = "".join(reversed(levels)) + "(b^P)" + ")" * depth
    assert labeled_to_sexpr(tree) == text
    assert labeled_to_sexpr(labeled_from_sexpr(text)) == text


def test_constituency_writer_and_conversion_take_a_tree_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    const = ConstTree("w", span=(1, 1))
    for level in range(depth):
        const = ConstTree(f"N{level % 3}", (const, ConstTree("x")) if level == 0 else (const,))
    text = "".join(f"(N{level % 3} " for level in reversed(range(depth))) + "w x" + ")" * depth
    assert const_to_bracketed(const) == text
    (again,) = parse_bracketed(text)
    assert const_to_bracketed(again) == text
    # the conversion tags each leaf with its parent's label, N0
    labeled = const_to_labeled(again)
    want = "".join(f"(N{level % 3} " for level in reversed(range(depth)))
    assert labeled_to_sexpr(labeled) == want + "(w^N0) (x^N0)" + ")" * depth
    # a line feed at the bottom is still refused, by label
    deep = ConstTree("bad\nlabel")
    for _ in range(depth):
        deep = ConstTree("N", (deep,))
    with pytest.raises(BracketError, match="'bad\\\\nlabel' holds a line feed"):
        const_to_bracketed(deep)


# --- postorder views and path-enclosed trees ----------------------------------


def test_fold_builds_children_first_left_to_right():
    calls = []

    def build(node, built):
        calls.append((node.label, list(built)))
        return node.label

    tree = syn("r", syn("a", syn("b"), syn("c")), syn("d"))
    assert _fold(tree, lambda n: n.children, build) == "r"
    assert calls == [("b", []), ("c", []), ("a", ["b", "c"]), ("d", []), ("r", ["a", "d"])]


def test_fold_builds_a_reused_subtree_once_at_each_of_its_positions():
    shared = syn("t", syn("u"))
    tree = syn("r", shared, syn("x", shared))
    calls = []

    def build(node, built):
        calls.append(node)
        return len(calls) - 1

    top = _fold(tree, lambda n: n.children, build)
    assert [n.label for n in calls] == ["u", "t", "u", "t", "x", "r"]
    assert calls[1] is calls[3] is shared and top == 5


def test_fold_builds_a_leaf_root_with_no_children():
    calls = []

    def build(node, built):
        calls.append((node, tuple(built)))
        return "built"

    leaf = syn("leaf")
    assert _fold(leaf, lambda n: n.children, build) == "built"
    assert calls == [(leaf, ())]


def reference_postorder(tree):
    """The stack walk with an id()-keyed position map that _postorder
    replaced."""
    order = []
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        stack.append((node, True))
        for child in reversed(node.children):
            stack.append((child, False))
    index = {id(n): i for i, n in enumerate(order)}
    return order, tuple(tuple(index[id(c)] for c in n.children) for n in order)


@settings(max_examples=200, deadline=None)
@given(labeled_trees)
def test_postorder_matches_reference_walk(tree):
    order, children = _postorder(tree)
    want_order, want_children = reference_postorder(tree)
    assert len(order) == len(want_order)
    assert all(a is b for a, b in zip(order, want_order))
    assert children == want_children
    # the index keeps the nodes the walk placed
    nodes = tree.index.nodes(tree)
    assert len(nodes) == len(want_order) and all(a is b for a, b in zip(nodes, want_order))


def test_postorder_walks_a_tree_deeper_than_the_recursion_limit():
    chain = syn("leaf")
    for depth in range(sys.getrecursionlimit() + 100):
        chain = syn(f"n{depth % 3}", chain)
    order, children = _postorder(chain)
    want_order, want_children = reference_postorder(chain)
    assert all(a is b for a, b in zip(order, want_order)) and children == want_children
    params = TreeKernelParams("PTK", lam=0.1, mu=0.1)
    assert tree_kernel(chain, chain, params) == pytest.approx(1.0)


def test_postorder_places_a_reused_subtree_at_each_of_its_positions():
    # the id()-keyed map sent both uses of one object to its last position,
    # and the kernels then read a row not yet filled or raised IndexError
    def make(shared):
        leaf = syn("t", syn("u"))
        return syn("r", syn("x", leaf), leaf if shared else syn("t", syn("u")))

    assert _postorder(make(True))[1] == _postorder(make(False))[1] == (
        (), (0,), (1,), (), (3,), (2, 4),
    )
    shared = make(True)
    nodes = shared.index.nodes(shared)
    assert nodes[1] is nodes[4] and nodes[0] is nodes[3]
    for kind in ("SST", "PTK"):
        params = TreeKernelParams(kind, lam=0.5, mu=0.5, normalize=False)
        assert tree_kernel(make(True), make(True), params) == tree_kernel(
            make(False), make(False), params
        )


def reference_pet(tree, span1, span2):
    """extract_pet's pruning as written with dataclasses.replace."""
    lo, hi = min(span1[0], span2[0]), max(span1[1], span2[1])
    node = tree
    while True:
        inner = [c for c in node.children if c.span[0] <= lo and hi <= c.span[1]]
        if not inner:
            break
        node = inner[0]

    def prune(n):
        if n.is_leaf():
            return n
        kept = [prune(c) for c in n.children if not (c.span[1] < lo or c.span[0] > hi)]
        return replace(n, children=tuple(kept))

    return prune(node)


def test_pet_and_labeled_pet_equal_references_on_the_relation_corpus(tmp_path):
    paths = write_re_corpus(tmp_path, n_per_class=8, seed=5)
    instances = load_re_dataset(paths["train.conllu"], const_path=paths["train.const"])
    assert len(instances) > 10
    for inst in instances:
        pet = extract_pet(inst.const_tree, inst.e1_span, inst.e2_span)
        want = reference_pet(inst.const_tree, inst.e1_span, inst.e2_span)
        assert pet == want and const_to_bracketed(pet) == const_to_bracketed(want)
        labeled = const_to_labeled(pet)
        assert labeled == reference_const_to_labeled(want)
        assert labeled_to_sexpr(labeled) == labeled_to_sexpr(reference_const_to_labeled(want))


def reference_size(tree):
    """LabeledTree.size as it recursed once per level."""
    return 1 + sum(reference_size(c) for c in tree.children)


def reference_leaves(tree):
    """ConstTree.leaves as it recursed once per level."""
    if not tree.children:
        return [tree]
    return [leaf for c in tree.children for leaf in reference_leaves(c)]


@settings(max_examples=200, deadline=None)
@given(labeled_trees, const_trees)
def test_size_and_leaves_equal_the_recursive_walks(labeled, const):
    assert labeled.size() == reference_size(labeled)
    leaves, want = const.leaves(), reference_leaves(const)
    assert len(leaves) == len(want) and all(a is b for a, b in zip(leaves, want))


@st.composite
def pet_inputs(draw):
    """A drawn constituency tree with its leaf spans, and two disjoint
    entity spans within them."""
    drawn = draw(const_trees.filter(lambda t: len(t.leaves()) > 1))
    (const,) = parse_bracketed(const_to_bracketed(drawn))
    n = const.span[1]
    end = draw(st.integers(1, n - 1))
    first = (draw(st.integers(1, end)), end)
    start = draw(st.integers(end + 1, n))
    second = (start, draw(st.integers(start, n)))
    return const, *draw(st.permutations([first, second]))


@settings(max_examples=300, deadline=None)
@given(pet_inputs())
def test_pet_equals_the_recursive_pruning(inputs):
    const, span1, span2 = inputs
    pet, want = extract_pet(const, span1, span2), reference_pet(const, span1, span2)
    assert pet == want and const_to_bracketed(pet) == const_to_bracketed(want)


def test_pet_size_and_leaves_take_a_parse_deeper_than_the_recursion_limit():
    # leaves w x deep in a chain of N nodes, y z beside it under S; the
    # entities x and y keep S as the cover, so the whole chain is pruned
    depth = sys.getrecursionlimit() + 100
    chain = "(N " * depth + "w x" + ")" * depth
    (const,) = parse_bracketed(f"(S {chain} y z)")
    assert [leaf.label for leaf in const.leaves()] == ["w", "x", "y", "z"]
    pet = extract_pet(const, (2, 2), (3, 3))
    assert const_to_bracketed(pet) == "(S " + "(N " * depth + "x" + ")" * depth + " y)"
    assert const_to_labeled(pet).size() == depth + 3


@settings(max_examples=200, deadline=None)
@given(labeled_trees)
def test_index_nodes_are_the_postorder_walk(tree):
    index = TreeIndex(tree)
    nodes, want = index.nodes(tree), _postorder(tree)[0]
    assert len(nodes) == len(want) and all(a is b for a, b in zip(nodes, want))
    # the root is put back by nodes(), not kept in the index
    assert nodes[-1] is tree and all(n is not tree for n in index.below)
