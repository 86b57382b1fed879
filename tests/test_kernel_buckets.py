"""The label-bucketed SST/PTK/SPTK dynamic programs against full scans.

The kernels visit only node pairs whose productions (SST) or labels
(PTK) match, over the one postorder index memoized on each tree
(transforms.TreeIndex), which SST, PTK and SPTK share. SST and PTK
compute one row of deltas per distinct subtree of the row trees and
column tree (kernels.subtree_matrix), SST only for the subtrees that
share a production with the column tree; SPTK keeps the node-pair deltas
of one tree pair in one flat float buffer. PTK fills pairs with a
childless node from a constant, and PTK and SPTK run the
child-subsequence recursion on plain Python floats and memoize its
totals by their child-delta inputs. The references below scan every
node pair of freshly indexed trees into numpy tables and run the
recursion on numpy tables with no memo; both must give the same values
bit for bit.
"""

import math
import struct
import warnings
from dataclasses import replace
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udkernels import combine, kernels, transforms
from udkernels.combine import _tree_matrix
from udkernels.conllu import parse_conllu_file
from udkernels.errors import NumericError
from udkernels.kernels import (
    TreeKernelParams,
    _matrix,
    _subseq_sum,
    delta_matrix,
    subtree_matrix,
    tree_kernel,
)
from udkernels.lexical import (
    SigmaConfig,
    indicator_sigma,
    load_dictionary,
    load_embeddings,
    make_sigma,
)
from udkernels.synthetic import (
    const_parse_line,
    make_pi_corpus,
    make_re_corpus,
    write_crosslingual_re,
)
from udkernels.transforms import lex, parse_bracketed, syn, to_lct

from oracle import reference_const_to_labeled

# --- reference: every node pair, trees indexed afresh per call -------------


def reference_subseq_sum(delta, ch1, ch2, lam):
    """The child-subsequence recursion on numpy tables, filled cell by
    cell; the kernel's plain-float version must match it bit for bit."""
    a, b = len(ch1), len(ch2)
    lam2 = lam * lam
    T = np.zeros((a + 1, b + 1))
    for x in range(1, a + 1):
        row = delta[ch1[x - 1]]
        for y in range(1, b + 1):
            T[x, y] = lam2 * row[ch2[y - 1]]
    total = T.sum()
    for _ in range(2, min(a, b) + 1):
        R = np.zeros((a + 1, b + 1))
        for x in range(1, a + 1):
            for y in range(1, b + 1):
                R[x, y] = (
                    T[x, y] + lam * R[x - 1, y] + lam * R[x, y - 1] - lam2 * R[x - 1, y - 1]
                )
        T = np.zeros((a + 1, b + 1))
        level = 0.0
        for x in range(2, a + 1):
            row = delta[ch1[x - 1]]
            for y in range(2, b + 1):
                d = row[ch2[y - 1]]
                if d != 0.0:
                    v = d * lam2 * R[x - 1, y - 1]
                    T[x, y] = v
                    level += v
        if level == 0.0:
            break
        total += level
    return float(total)


def _postorder(tree):
    order = []

    def visit(node):
        for child in node.children:
            visit(child)
        order.append(node)

    visit(tree)
    index = {id(n): i for i, n in enumerate(order)}
    children = [tuple(index[id(c)] for c in n.children) for n in order]
    return order, children


def full_scan_sst(t1, t2, lam):
    nodes1, ch1 = _postorder(t1)
    nodes2, ch2 = _postorder(t2)
    prods1 = [(n.label, tuple(c.label for c in n.children)) for n in nodes1]
    prods2 = [(n.label, tuple(c.label for c in n.children)) for n in nodes2]
    delta = np.zeros((len(nodes1), len(nodes2)))
    for i, n1 in enumerate(nodes1):
        for j, n2 in enumerate(nodes2):
            if prods1[i] != prods2[j]:
                continue
            if all(c.is_leaf() for c in n1.children) or all(c.is_leaf() for c in n2.children):
                delta[i, j] = lam
                continue
            val = lam
            for ci, cj in zip(ch1[i], ch2[j]):
                val *= 1.0 + delta[ci, cj]
            delta[i, j] = val
    return delta


def full_scan_ptk(t1, t2, lam, mu, sigma=indicator_sigma):
    nodes1, ch1 = _postorder(t1)
    nodes2, ch2 = _postorder(t2)
    delta = np.zeros((len(nodes1), len(nodes2)))
    for i, n1 in enumerate(nodes1):
        for j, n2 in enumerate(nodes2):
            gate = float(sigma(n1, n2))
            if gate == 0.0:
                continue
            total = lam * lam
            if ch1[i] and ch2[j]:
                total += reference_subseq_sum(delta, ch1[i], ch2[j], lam)
            delta[i, j] = mu * gate * total
    return delta


def assert_buckets_match(t1, t2, lam=0.4, mu=0.4):
    sst = delta_matrix(t1, t2, TreeKernelParams("SST", lam=lam, normalize=False)).values
    assert np.array_equal(sst, full_scan_sst(t1, t2, lam))
    ptk = delta_matrix(t1, t2, TreeKernelParams("PTK", lam=lam, mu=mu, normalize=False)).values
    assert np.array_equal(ptk, full_scan_ptk(t1, t2, lam, mu))
    # SPTK scans every pair; with the exact-label sigma it is PTK bit for bit
    sptk = TreeKernelParams("SPTK", lam=lam, mu=mu, sigma=indicator_sigma, normalize=False)
    assert np.array_equal(delta_matrix(t1, t2, sptk).values, ptk)


# --- drawn trees over a tiny alphabet, so labels and productions collide ---

labels = st.sampled_from("abc")
trees = st.recursive(
    labels.map(syn),
    lambda sub: st.builds(lambda lab, kids: syn(lab, *kids), labels, st.lists(sub, max_size=4)),
    max_leaves=12,
)
decays = st.floats(min_value=0.1, max_value=1.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(t1=trees, t2=trees, lam=decays, mu=decays)
def test_bucketed_deltas_equal_full_scan(t1, t2, lam, mu):
    assert_buckets_match(t1, t2, lam, mu)


@settings(max_examples=50, deadline=None)
@given(t=trees)
def test_bucketed_self_deltas_equal_full_scan(t):
    assert_buckets_match(t, t)


# --- leaf-heavy trees: most matching pairs hold a childless node ----------

leaves = labels.map(syn)
# wide parents whose children are mostly childless nodes over few labels
leafy_trees = st.recursive(
    leaves,
    lambda sub: st.builds(
        lambda lab, kids: syn(lab, *kids),
        labels,
        st.lists(st.one_of(leaves, leaves, sub), max_size=7),
    ),
    max_leaves=24,
)


def graded_sigma(n1, n2):
    """1 on equal labels, and a fractional gate between childless nodes."""
    if n1.label == n2.label:
        return 1.0
    return 0.3 if not (n1.children or n2.children) else 0.0


def assert_same_matrix(values, want, t1, t2):
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert values.shape == (t1.size(), t2.size())
    assert values.tobytes() == want.tobytes()


def memo_keys(t1, t2, want, sigma):
    """The child-delta inputs of every gated pair of nodes that both have
    children: exactly the totals the memo should hold."""
    nodes1, ch1 = _postorder(t1)
    nodes2, ch2 = _postorder(t2)
    return {
        (len(ch1[i]), *[want[c1, c2] for c1 in ch1[i] for c2 in ch2[j]])
        for i, n1 in enumerate(nodes1)
        for j, n2 in enumerate(nodes2)
        if ch1[i] and ch2[j] and sigma(n1, n2) != 0.0
    }


@settings(max_examples=150, deadline=None)
@given(t1=leafy_trees, t2=leafy_trees, lam=decays, mu=decays)
def test_leaf_heavy_deltas_equal_full_scan_bit_for_bit(t1, t2, lam, mu):
    sst = delta_matrix(t1, t2, TreeKernelParams("SST", lam=lam)).values
    assert_same_matrix(sst, full_scan_sst(t1, t2, lam), t1, t2)
    for kind, sigma in (("PTK", None), ("SPTK", indicator_sigma), ("SPTK", graded_sigma)):
        memo = {}
        params = TreeKernelParams(kind, lam=lam, mu=mu, sigma=sigma)
        gate = sigma or indicator_sigma  # PTK's exact-label gate
        values = _matrix(t1, t2, params, memo)
        want = full_scan_ptk(t1, t2, lam, mu, gate)
        assert_same_matrix(values, want, t1, t2)
        assert_same_matrix(delta_matrix(t1, t2, params).values, want, t1, t2)
        # a pair with a childless node never reaches the memo
        assert set(memo) == memo_keys(t1, t2, want, gate)


# --- the synthetic corpora -------------------------------------------------


def synthetic_trees():
    pi_trees, _ = make_pi_corpus(n_pairs=4, seed=3)
    re_trees = make_re_corpus(n_per_class=2, seed=3)
    out = [to_lct(t) for t in pi_trees + re_trees]
    out += [
        reference_const_to_labeled(c) for t in re_trees for c in parse_bracketed(const_parse_line(t))
    ]
    return out


def test_bucketed_deltas_equal_full_scan_on_synthetic_trees():
    corpus = synthetic_trees()
    for t1 in corpus:
        for t2 in corpus[::3]:
            assert_buckets_match(t1, t2)


def test_sptk_deltas_equal_full_scan_with_translating_sigma(tmp_path):
    paths = write_crosslingual_re(tmp_path, n_per_class=2, seed=13)
    sigma = make_sigma(
        SigmaConfig(mode="translate_then_compare"),
        load_embeddings(paths["vectors.txt"]),
        load_dictionary(paths["dict.tsv"]),
    )
    train = [to_lct(t) for t in parse_conllu_file(paths["train.conllu"])]
    test = [to_lct(t) for t in parse_conllu_file(paths["test.conllu"])]
    # the pseudo-translated test words reach vectors only through the
    # dictionary, and score fractional gates against the training words
    assert any(
        0.0 < sigma(n1, n2) < 1.0 for n1 in test[0].iter_nodes() for n2 in train[0].iter_nodes()
    )
    params = TreeKernelParams("SPTK", sigma=sigma, normalize=False)
    for t1 in test + train[:2]:
        for t2 in train:
            values = delta_matrix(t1, t2, params).values
            assert np.array_equal(values, full_scan_ptk(t1, t2, 0.4, 0.4, sigma))


# --- the child-subsequence recursion against its numpy reference ----------


def child_rows(flat, n, ch1):
    """The delta rows, n floats each, of the first node's children in a
    flat row-major table: the rows _subseq_sum reads."""
    return [flat[c * n : (c + 1) * n] for c in ch1]


def same_bits(x, y):
    if np.isnan(x) and np.isnan(y):
        return True
    return struct.pack("<d", x) == struct.pack("<d", y)


# mixed magnitudes with many exact zeros, as child deltas are in practice
finite_cells = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e6),
    st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=True),
    st.sampled_from([5e-324, 1e-300, 0.16, 0.064, 1.0]),
)
# and the deltas that overflow a level, or turn a zero prefix sum into
# nan: the recursion skips such cells only while every delta is finite
cells = st.one_of(
    finite_cells,
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e300, -1e300, 1e308]),
)
N_NODES = 12
children = st.lists(st.integers(0, N_NODES - 1), min_size=1, max_size=12).map(tuple)
# half the tables all finite, so the skipped cells are exercised too
tables = st.one_of(
    *(
        st.lists(c, min_size=N_NODES * N_NODES, max_size=N_NODES * N_NODES)
        for c in (finite_cells, cells)
    )
)


@settings(max_examples=200, deadline=None)
@given(
    cells=tables,
    ch1=children,
    ch2=children,
    lam=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_subseq_sum_matches_numpy_reference_bit_for_bit(cells, ch1, ch2, lam):
    delta = np.array(cells).reshape(N_NODES, N_NODES)
    flat = array("d", cells)
    # every pair of suffixes of the child lists: dropping leading children
    # moves each delta across the bounds of the cells the recursion skips
    for i in range(len(ch1)):
        for j in range(len(ch2)):
            with np.errstate(all="ignore"):
                got = _subseq_sum(child_rows(flat, N_NODES, ch1[i:]), ch2[j:], lam)
                want = reference_subseq_sum(delta, ch1[i:], ch2[j:], lam)
            assert type(got) is float
            assert same_bits(got, want), (i, j)


def test_subseq_sum_keeps_the_nan_of_an_inf_delta_times_a_zero_prefix_sum():
    # level 2 reaches inf through the inf delta; at level 3 the full table
    # multiplies that delta by a zero prefix sum, which gives nan
    delta = np.array([[0.0, 0.0, 0.0], [0.16, 0.0, 0.0], [0.0, math.inf, 0.0]])
    rows = [array("d", r) for r in delta]
    with np.errstate(all="ignore"):
        want = reference_subseq_sum(delta, (0, 1, 2), (0, 1, 2), 0.4)
    assert math.isnan(want)
    assert same_bits(_subseq_sum(rows, (0, 1, 2), 0.4), want)


@pytest.mark.parametrize(
    "shape, nan", [((2, 2), False), ((3, 5), False), ((6, 6), True), ((10, 7), True)]
)
@pytest.mark.parametrize("lam", [1.0, 0.4])
def test_subseq_sum_overflow_matches_numpy_reference(shape, nan, lam):
    # child deltas near 1e300 drive the levels to inf, and on the wider
    # shapes inf - inf in the prefix sums to NaN; both versions must land
    # on the same value
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    delta = rng.uniform(1e299, 1e300, size=(12, 12))
    delta[rng.random((12, 12)) < 0.2] = 0.0
    ch1, ch2 = tuple(range(shape[0])), tuple(range(2, 2 + shape[1]))
    with np.errstate(all="ignore"):
        got = _subseq_sum(child_rows(array("d", delta.tobytes()), 12, ch1), ch2, lam)
        want = reference_subseq_sum(delta, ch1, ch2, lam)
    assert not np.isfinite(want) and np.isnan(want) == nan
    assert same_bits(got, want)


# --- the memo of child-subsequence totals -----------------------------------


def assert_raw_matrices_match(rows, cols, params, sigma=indicator_sigma):
    """Raw _tree_matrix cells, square over rows and rectangular over
    rows x cols, against the memo-free full scan, bit for bit."""
    raw = TreeKernelParams(
        params.kind, lam=params.lam, mu=params.mu, sigma=params.sigma, normalize=False
    )
    reference = lambda t1, t2: float(full_scan_ptk(t1, t2, raw.lam, raw.mu, sigma).sum())
    row_ids = tuple(map(str, range(len(rows))))
    col_ids = tuple(map(str, range(len(cols))))
    square = _tree_matrix(rows, rows, raw, row_ids, row_ids)
    for i, t1 in enumerate(rows):
        for j in range(i, len(rows)):
            assert same_bits(square[i, j], reference(t1, rows[j]))
            assert same_bits(square[j, i], square[i, j])
    rect = _tree_matrix(rows, cols, raw, row_ids, col_ids)
    for i, t1 in enumerate(rows):
        for j, t2 in enumerate(cols):
            assert same_bits(rect[i, j], reference(t1, t2))


tree_lists = st.lists(trees, min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(rows=tree_lists, cols=tree_lists, lam=decays, mu=decays)
def test_memoized_ptk_matrix_equals_full_scan(rows, cols, lam, mu):
    assert_raw_matrices_match(rows, cols, TreeKernelParams("PTK", lam=lam, mu=mu))


@pytest.fixture(scope="module")
def translating_resources(tmp_path_factory):
    """The cross-lingual corpus's embeddings and dictionary, and words
    that reach them directly, through translation, as multiword
    averages, or not at all."""
    paths = write_crosslingual_re(tmp_path_factory.mktemp("xl"), n_per_class=2, seed=13)
    store = load_embeddings(paths["vectors.txt"])
    dictionary = load_dictionary(paths["dict.tsv"])
    base = sorted(store.vectors)[:6]
    foreign = sorted(dictionary.entries)[:6]
    words = base + foreign + [f"{base[0]} {base[1]}", f"{foreign[0]} blorp", "blorp"]
    return store, dictionary, words


def lct_trees(words):
    """Lexical-centred trees: each word node heads its relation and POS
    leaves, then its dependents, as to_lct builds them."""
    pos = st.sampled_from(["NOUN", "VERB"])
    rel = st.sampled_from(["nsubj", "obj"])

    def word_node(word, tag, relation, dependents):
        return lex(word, tag, syn(relation), syn(tag), *dependents)

    leaf = st.builds(word_node, words, pos, rel, st.just(()))
    return st.recursive(
        leaf,
        lambda sub: st.builds(word_node, words, pos, rel, st.lists(sub, max_size=3)),
        max_leaves=6,
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), lam=decays, mu=decays)
def test_memoized_sptk_matrix_equals_full_scan(translating_resources, data, lam, mu):
    store, dictionary, words = translating_resources
    word_trees = lct_trees(st.sampled_from(words))
    rows = data.draw(st.lists(word_trees, min_size=1, max_size=3))
    cols = data.draw(st.lists(word_trees, min_size=1, max_size=3))
    cfg = SigmaConfig(mode="translate_then_compare")
    params = TreeKernelParams("SPTK", lam=lam, mu=mu, sigma=make_sigma(cfg, store, dictionary))
    # the reference scores with a sigma of its own, so no cache is shared
    assert_raw_matrices_match(rows, cols, params, make_sigma(cfg, store, dictionary))
    ptk = TreeKernelParams("PTK", lam=lam, mu=mu)
    assert_raw_matrices_match(rows, cols, ptk)


# the first tree holds two parents, postorder rows 2 and 5, each over two
# leaves; the second one parent, row 2, over two leaves. sigma gives
# each parent's leaf pairs the drawn gates, the parent pairs 1.0 and every
# other pair 0, so the leaf deltas mu * gate * lam^2 (-0.0 from a tiny
# negative gate, inf, NaN) make up the parents' memo keys
TINY = 5e-324


def twin_trees(first, second):
    t1 = syn("r", syn("p", syn("a0"), syn("a1")), syn("q", syn("b0"), syn("b1")))
    t2 = syn("s", syn("c0"), syn("c1"))
    gates = {("p", "s"): 1.0, ("q", "s"): 1.0}
    for prefix, leaf_gates in (("a", first), ("b", second)):
        pairs = [(f"{prefix}{x}", f"c{y}") for x in range(2) for y in range(2)]
        gates.update(zip(pairs, leaf_gates))
    return t1, t2, lambda n1, n2: gates.get((n1.label, n2.label), 0.0)


@pytest.mark.parametrize(
    "first, second, hits",
    [
        ([0.0, 1.0, 0.5, 2.0], [-TINY, 1.0, 0.5, 2.0], True),
        ([-TINY, -TINY, 0.5, -TINY], [0.0, 0.0, 0.5, 0.0], True),
        ([math.inf, 1.0, 0.5, 2.0], [math.inf, 1.0, 0.5, 2.0], True),
        ([-TINY, math.inf, math.inf, -TINY], [0.0, math.inf, math.inf, 0.0], True),
        ([math.nan, 1.0, 0.5, 2.0], [math.nan, 1.0, 0.5, 2.0], False),
        ([math.inf, 1.0, -math.inf, 0.0], [math.inf, 1.0, -math.inf, 0.0], True),
    ],
)
@pytest.mark.parametrize("lam", [0.4, 1.0])
def test_memoized_totals_equal_recomputed_ones(first, second, hits, lam):
    mu = 0.4
    memo = {}
    t1, t2, sigma = twin_trees(first, second)
    params = TreeKernelParams("SPTK", lam=lam, mu=mu, sigma=sigma)
    with np.errstate(all="ignore"):
        delta = _matrix(t1, t2, params, memo)
        if first[0] == -TINY:
            assert math.copysign(1.0, delta[0, 0]) == -1.0 and delta[0, 0] == 0.0
        for parent, ch in ((2, (0, 1)), (5, (3, 4))):
            want = mu * 1.0 * (lam * lam + reference_subseq_sum(delta, ch, (0, 1), lam))
            assert same_bits(delta[parent, 2], want)
    # equal keys share one entry; a NaN key never equals another
    assert len(memo) == (1 if hits else 2)


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(allow_nan=False),
            st.floats(min_value=-1e-300, max_value=1e-300),
        ),
        min_size=16,
        max_size=16,
    ),
    signs=st.lists(st.booleans(), min_size=16, max_size=16),
    shape=st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 2), (4, 4), (1, 4)]),
    lam=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_signed_zero_child_deltas_give_equal_totals(cells, signs, shape, lam):
    # 0.0 and -0.0 are one memo key, so the totals they lead to must
    # agree bit for bit
    a, b = shape
    plus = np.array(cells).reshape(4, 4)
    minus = plus.copy()
    for k, flip in enumerate(signs):
        if flip and plus.flat[k] == 0.0:
            minus.flat[k] = -0.0
    ch1, ch2 = tuple(range(a)), tuple(range(b))
    lam2 = lam * lam
    plus = child_rows(array("d", plus.tobytes()), 4, ch1)
    minus = child_rows(array("d", minus.tobytes()), 4, ch1)
    with np.errstate(all="ignore"):
        assert same_bits(lam2 + _subseq_sum(plus, ch2, lam), lam2 + _subseq_sum(minus, ch2, lam))


def test_tree_matrix_keeps_one_memo_up_to_its_cap(monkeypatch):
    corpus = [to_lct(t) for t in make_re_corpus(n_per_class=2, seed=3)]
    ids = tuple(map(str, range(len(corpus))))
    seen = []  # (memo, memo size after the lookup) per child-subsequence total
    real = kernels._child_total

    def spy(rows, ch2, lam, memo):
        total = real(rows, ch2, lam, memo)
        seen.append((id(memo), len(memo)))
        return total

    monkeypatch.setattr(kernels, "_child_total", spy)
    matrices = {
        "PTK": lambda: _tree_matrix(corpus, corpus, TreeKernelParams("PTK"), ids, ids),
        "PTK rectangle": lambda: _tree_matrix(
            corpus[:3], corpus, TreeKernelParams("PTK"), ids[:3], ids
        ),
        "SPTK": lambda: _tree_matrix(
            corpus, corpus, TreeKernelParams("SPTK", sigma=indicator_sigma), ids, ids
        ),
    }
    for name, matrix in matrices.items():
        seen.clear()
        want = matrix()
        sizes = [size for _, size in seen]
        # one memo serves the whole matrix, self values and every row
        # tree included, and below the cap it is never emptied
        assert len({memo for memo, _ in seen}) == 1, name
        assert sizes == sorted(sizes) and sizes[-1] > 2, name
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_MEMO_CAP", 2)
            got = matrix()
        sizes = [size for _, size in seen]
        # a full memo is emptied before it grows past the cap, and the
        # values stay the same bit for bit
        assert max(sizes) == 2 and 1 in sizes[sizes.index(2) :], name
        assert got.tobytes() == want.tobytes(), name


def count_subseq_sums(monkeypatch):
    calls = []
    real = kernels._subseq_sum

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(kernels, "_subseq_sum", counting)
    return calls


def distinct_inputs(trees, sigma):
    """The child-delta inputs of every pair of the upper triangle of a
    Gram over trees, at the default lam and mu."""
    keys = set()
    for i, t1 in enumerate(trees):
        for t2 in trees[i:]:
            keys |= memo_keys(t1, t2, full_scan_ptk(t1, t2, 0.4, 0.4, sigma), sigma)
    return keys


def test_subseq_sum_calls_per_training_gram(monkeypatch, tmp_path):
    # one memo per matrix runs the recursion once per distinct child-delta
    # input of the whole Gram: 5 and 12 calls here, where a memo emptied
    # per row tree made 38 and 36
    calls = count_subseq_sums(monkeypatch)
    corpus = [to_lct(t) for t in make_re_corpus(n_per_class=4, seed=3)]
    ids = tuple(map(str, range(len(corpus))))
    _tree_matrix(corpus, corpus, TreeKernelParams("PTK"), ids, ids)
    assert len(calls) == len(distinct_inputs(corpus, indicator_sigma)) == 5
    paths = write_crosslingual_re(tmp_path, n_per_class=3, seed=13)
    sigma = make_sigma(
        SigmaConfig(mode="translate_then_compare"),
        load_embeddings(paths["vectors.txt"]),
        load_dictionary(paths["dict.tsv"]),
    )
    train = [to_lct(t) for t in parse_conllu_file(paths["train.conllu"])]
    ids = tuple(map(str, range(len(train))))
    calls.clear()
    _tree_matrix(train, train, TreeKernelParams("SPTK", sigma=sigma), ids, ids)
    assert len(calls) == len(distinct_inputs(train, sigma)) == 12


# --- forests that share subtrees -------------------------------------------

small_trees = st.recursive(
    labels.map(syn),
    lambda sub: st.builds(lambda lab, kids: syn(lab, *kids), labels, st.lists(sub, max_size=3)),
    max_leaves=7,
)


def rebuilt(tree):
    """An equal tree made of new node objects."""
    return syn(tree.label, *map(rebuilt, tree.children))


@st.composite
def forests(draw):
    """Trees over a tiny alphabet plus a repeated tree object, an equal
    copy of a tree and a subtree of a tree, in drawn order."""
    base = draw(st.lists(small_trees, min_size=1, max_size=3))
    host = draw(st.sampled_from(base))
    extra = [
        draw(st.sampled_from(base)),
        rebuilt(draw(st.sampled_from(base))),
        draw(st.sampled_from(list(host.iter_nodes()))),
    ]
    return draw(st.permutations(base + extra))


@settings(max_examples=150, deadline=None)
@given(rows=forests(), cols=forests(), lam=decays, mu=decays)
def test_subtree_matrix_equals_full_scan_on_shared_subtrees(rows, cols, lam, mu):
    scans = {
        "SST": lambda t1, t2: full_scan_sst(t1, t2, lam),
        "PTK": lambda t1, t2: full_scan_ptk(t1, t2, lam, mu),
    }
    for kind, scan in scans.items():
        params = TreeKernelParams(kind, lam=lam, mu=mu, normalize=False)
        square = subtree_matrix(rows, rows, params, {})[0]
        rect = subtree_matrix(rows, cols, params, {})[0]
        for i, t1 in enumerate(rows):
            for j, t2 in enumerate(rows):
                want = float(scan(t1, t2).sum()) if j >= i else 0.0
                assert same_bits(square[i, j], want)
            for j, t2 in enumerate(cols):
                want = scan(t1, t2)
                assert same_bits(rect[i, j], float(want.sum()))
                # the scalar kernel and the delta table take the same path
                assert same_bits(tree_kernel(t1, t2, params), rect[i, j])
                assert_same_matrix(delta_matrix(t1, t2, params).values, want, t1, t2)
        # a memo emptied before every insertion changes no bit
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_MEMO_CAP", 1)
            assert subtree_matrix(rows, rows, params, {})[0].tobytes() == square.tobytes()
            assert subtree_matrix(rows, cols, params, {})[0].tobytes() == rect.tobytes()


# --- row trees grouped by node count ----------------------------------------


@st.composite
def sized_trees(draw, size: int):
    """A tree of exactly size nodes over the tiny alphabet."""
    kids, left = [], size - 1
    while left:
        k = draw(st.integers(1, left))
        kids.append(draw(sized_trees(k)))
        left -= k
    return syn(draw(labels), *kids)


@st.composite
def sized_forests(draw):
    """Trees that all have one node count, all have distinct node counts,
    or mix the two. Shared counts come with a repeated tree object and
    an equal copy of a tree, in drawn order."""
    mode = draw(st.sampled_from(["same", "distinct", "mixed"]))
    if mode == "same":
        sizes = [draw(st.integers(1, 8))] * draw(st.integers(2, 5))
    elif mode == "distinct":
        sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True))
    else:
        sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=7))
    base = [draw(sized_trees(n)) for n in sizes]
    if mode != "distinct":
        base += [draw(st.sampled_from(base)), rebuilt(draw(st.sampled_from(base)))]
    return draw(st.permutations(base))


@settings(max_examples=100, deadline=None)
@given(rows=sized_forests(), cols=sized_forests(), lam=decays, mu=decays, data=st.data())
def test_grouped_sums_equal_full_scan_bit_for_bit(rows, cols, lam, mu, data):
    # the columns also hold a row tree object and an equal copy of one
    cols = cols + [data.draw(st.sampled_from(rows)), rebuilt(data.draw(st.sampled_from(rows)))]
    scans = {
        "SST": lambda t1, t2: full_scan_sst(t1, t2, lam),
        "PTK": lambda t1, t2: full_scan_ptk(t1, t2, lam, mu),
    }
    for kind, scan in scans.items():
        params = TreeKernelParams(kind, lam=lam, mu=mu, normalize=False)
        want_square = np.array(
            [[scan(t1, t2).sum() if j >= i else 0.0 for j, t2 in enumerate(rows)] for i, t1 in enumerate(rows)]
        )
        want_rect = np.array([[scan(t1, t2).sum() for t2 in cols] for t1 in rows])
        square = subtree_matrix(rows, rows, params, {})[0]
        rect = subtree_matrix(rows, cols, params, {})[0]
        assert square.tobytes() == want_square.tobytes()
        assert rect.tobytes() == want_rect.tobytes()
        # an emptied memo, one tree per gather, or a few, change no bit
        for memo_cap, gather_cap in [(1, kernels._GATHER_CAP), (kernels._MEMO_CAP, 1), (1, 40)]:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "_MEMO_CAP", memo_cap)
                patch.setattr(kernels, "_GATHER_CAP", gather_cap)
                assert subtree_matrix(rows, rows, params, {})[0].tobytes() == square.tobytes()
                assert subtree_matrix(rows, cols, params, {})[0].tobytes() == rect.tobytes()


@pytest.mark.parametrize(
    "m", [*range(1, 10), 127, 128, 129, 8191, 8192, 8193, 3 * 8192 + 5]
)
def test_numpy_row_sums_equal_whole_array_sums(m):
    """subtree_matrix sums k row trees' (n, n2) cells as the rows of one
    (k, n * n2) array. That gives the same bits only because numpy sums
    each contiguous row in the order it sums the (n, n2) array alone."""
    rng = np.random.default_rng(m)
    shapes = sorted({(p, m // p) for p in (1, 2, 3, 7, 64, 128, m) if m % p == 0})
    for k in (1, 2, 5, 64) if m > 129 else (1, 2, 5, 64, 1000):
        a = rng.standard_normal((k, m)) * 10.0 ** rng.integers(-12, 12, size=(k, m))
        sums = a.sum(axis=1)
        for i in sorted({0, k // 2, k - 1}):
            for p, q in shapes:
                assert sums[i].tobytes() == a[i].reshape(p, q).sum().tobytes(), (k, i, p, q)


# --- SST rows filled only for the productions a column tree holds -----------

# one production, ("NP", ("DT", "NN")), carried by a subtree that matches as
# one unit (its children are leaves) and by two that do not; against the
# first, the one with a leaf child would score lam * (1 + lam), not lam
ATOMIC_NP = syn("NP", syn("DT"), syn("NN"))
NESTED_NP = syn("NP", syn("DT", syn("the")), syn("NN", syn("cat")))
MIXED_NP = syn("NP", syn("DT", syn("the")), syn("NN"))
# labels no other drawn tree uses, so it shares no production with them
strangers = st.recursive(
    st.sampled_from("xyz").map(lambda lab: syn(lab.upper())),
    lambda sub: st.builds(
        lambda lab, kids: syn(lab.upper(), *kids), st.sampled_from("xyz"), st.lists(sub, max_size=3)
    ),
    max_leaves=5,
)


def regrafted(tree):
    """A tree with tree's root production over new child subtrees."""
    return syn(tree.label, *[syn(c.label, syn("d"), *c.children) for c in tree.children])


@st.composite
def production_forests(draw):
    """Row and column trees over the tiny alphabet plus the NP trees in
    drawn places, a column tree of strangers, and, after some row tree,
    a row tree that carries its root production over new subtrees, so a
    Gram column holds a production that later row trees add ids to."""
    rows = draw(st.lists(small_trees, min_size=1, max_size=3))
    rows = draw(st.permutations(rows + [ATOMIC_NP, rebuilt(NESTED_NP), MIXED_NP]))
    host = draw(st.integers(0, len(rows) - 1))
    rows.insert(draw(st.integers(host + 1, len(rows))), regrafted(rows[host]))
    cols = draw(st.lists(small_trees, max_size=2)) + [NESTED_NP, rebuilt(ATOMIC_NP), MIXED_NP]
    stranger = draw(strangers)
    return rows, draw(st.permutations(cols + [stranger])), stranger


@settings(max_examples=150, deadline=None)
@given(forest=production_forests(), lam=decays, gather_cap=st.sampled_from([None, 1]))
def test_sst_production_rows_equal_full_scan_bit_for_bit(forest, lam, gather_cap):
    rows, cols, stranger = forest
    params = TreeKernelParams("SST", lam=lam, normalize=False)
    want_square = np.array(
        [
            [full_scan_sst(t1, t2, lam).sum() if j >= i else 0.0 for j, t2 in enumerate(rows)]
            for i, t1 in enumerate(rows)
        ]
    )
    want_rect = np.array([[full_scan_sst(t1, t2, lam).sum() for t2 in cols] for t1 in rows])
    with pytest.MonkeyPatch.context() as patch:
        if gather_cap is not None:
            patch.setattr(kernels, "_GATHER_CAP", gather_cap)
        square = subtree_matrix(rows, rows, params, {})[0]
        rect = subtree_matrix(rows, cols, params, {})[0]
    assert square.tobytes() == want_square.tobytes()
    assert rect.tobytes() == want_rect.tobytes()
    # the stranger's cells are exactly +0.0
    assert rect[:, cols.index(stranger)].tobytes() == bytes(8 * len(rows))


@settings(max_examples=100, deadline=None)
@given(forest=production_forests(), lam=decays)
def test_sst_column_rows_cover_only_ids_below_count(forest, lam):
    # in a Gram, column c asks for the ids of row trees 0..c only: it gets
    # a row for each of those whose production it holds and no other, and
    # each earlier row tree's deltas against it equal the full scan
    rows, cols, _ = forest
    params = TreeKernelParams("SST", lam=lam, normalize=False)
    table = kernels._Subtrees("SST")
    sids, counts = [], []
    for tree in rows:
        sids.append(table.add(tree))
        counts.append(len(table.keys))
    for t2 in rows + cols:
        prods2 = set(t2.index.sst[0])
        for c, count in enumerate(counts):
            block, where = table.column(t2, count, params, {})
            held = [s for s in range(count) if table.keys[s] in prods2]
            assert where.shape == (count,) and block.shape == (1 + len(held), t2.size())
            assert sorted(where[held]) == list(range(1, 1 + len(held)))
            assert not block[0].any() and not where[np.setdiff1d(range(count), held)].any()
            for r in range(c + 1):
                deltas = block[where[sids[r]]]
                assert_same_matrix(deltas, full_scan_sst(rows[r], t2, lam), rows[r], t2)


def test_sst_group_of_unit_and_deeper_subtrees_against_a_deeper_node():
    # ATOMIC_NP matches as one unit and NESTED_NP does not, yet both carry
    # NP -> DT NN, so they hold one group of rows; against NESTED_NP's
    # root, which is no unit, the unit row stays lam while the deeper one
    # multiplies in its children's deltas
    lam = 0.5
    params = TreeKernelParams("SST", lam=lam, normalize=False)
    table = kernels._Subtrees("SST")
    unit, deeper = table.add(ATOMIC_NP)[-1], table.add(NESTED_NP)[-1]
    assert table.keys[unit] == table.keys[deeper]
    block, where = table.column(NESTED_NP, len(table.keys), params, {})
    root = NESTED_NP.size() - 1
    assert abs(where[deeper] - where[unit]) == 1
    assert block[where[unit], root] == lam
    assert block[where[deeper], root] == lam * (1.0 + lam) * (1.0 + lam)
    rows, cols = [ATOMIC_NP, NESTED_NP, MIXED_NP], [NESTED_NP, MIXED_NP, ATOMIC_NP]
    want = np.array([[full_scan_sst(t1, t2, lam).sum() for t2 in cols] for t1 in rows])
    assert subtree_matrix(rows, cols, params, {})[0].tobytes() == want.tobytes()


def test_sst_fill_overflows_to_inf_without_a_warning():
    # the root pair's delta is 2^1100 * (1 + 1) with lam = 1: it overflows
    # inside the fill, every other delta is 1.0, and the numpy fill must
    # stay as silent as Python floats are
    wide = syn("a", syn("b", syn("c")), *[syn(f"x{k}") for k in range(1100)])
    small = syn("a", syn("b"))
    params = TreeKernelParams("SST", lam=1.0)
    raw = replace(params, normalize=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isinf(delta_matrix(wide, wide, raw).values[-1, -1])
        message = "^SST kernel overflowed; use smaller lambda/mu or normalization$"
        for p in (params, raw):
            with pytest.raises(NumericError, match=message):
                tree_kernel(wide, wide, p)
        ids = ("s", "w")
        with pytest.raises(NumericError, match="^kernel failed on pair w x w: SST kernel overflowed"):
            _tree_matrix([small, wide], [small, wide], params, ids, ids)


# --- self values from the shared subtree table -----------------------------


@settings(max_examples=100, deadline=None)
@given(rows=forests(), cols=forests(), lam=decays, mu=decays, data=st.data())
def test_rectangle_self_values_equal_scalar_self_kernels_bit_for_bit(rows, cols, lam, mu, data):
    # the columns hold a row tree object and an equal copy of one, which
    # share every subtree with the rows, and a tree of strangers, which
    # shares none; each side is also taken against an empty other side
    cols = cols + [
        data.draw(st.sampled_from(rows)),
        rebuilt(data.draw(st.sampled_from(rows))),
        data.draw(strangers),
    ]
    for kind in ("SST", "PTK"):
        params = TreeKernelParams(kind, lam=lam, mu=mu)
        raw = replace(params, normalize=False)
        for r, c in [(rows, cols), ([], cols), (rows, [])]:
            values, row_self, col_self = subtree_matrix(r, c, params, {})
            assert values.tobytes() == subtree_matrix(r, c, raw, {})[0].tobytes()
            want_row = np.array([tree_kernel(t, t, raw) for t in r], dtype=float)
            want_col = np.array([tree_kernel(t, t, raw) for t in c], dtype=float)
            assert row_self.tobytes() == want_row.tobytes()
            assert col_self.tobytes() == want_col.tobytes()
            # an emptied memo changes no bit
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "_MEMO_CAP", 1)
                again = subtree_matrix(r, c, params, {})
            assert again[1].tobytes() == row_self.tobytes()
            assert again[2].tobytes() == col_self.tobytes()
        # a square matrix's self values are its diagonal; unnormalized,
        # no side has any
        values, row_self, col_self = subtree_matrix(rows, rows, params, {})
        assert row_self.tobytes() == col_self.tobytes() == values.diagonal().tobytes()
        assert subtree_matrix(rows, cols, raw, {})[1:] == (None, None)


# --- the scalar tree kernel as a one-by-one subtree matrix ----------------


def one_tree_kernel(t1, t2, params):
    """tree_kernel from three one-tree tables: the raw value and both
    self values each summed from delta_matrix, then normalized."""
    raw = replace(params, normalize=False)
    value = lambda a, b: float(delta_matrix(a, b, raw).values.sum())
    if not params.normalize:
        return value(t1, t2)
    return kernels.normalize(value(t1, t2), value(t1, t1), value(t2, t2))


@settings(max_examples=100, deadline=None)
@given(t1=trees, t2=trees, lam=decays, mu=decays)
def test_scalar_tree_kernel_equals_one_tree_tables_bit_for_bit(t1, t2, lam, mu):
    for kind in ("SST", "PTK"):
        for normalized in (True, False):
            params = TreeKernelParams(kind, lam=lam, mu=mu, normalize=normalized)
            for a, b in ((t1, t2), (t2, t1), (t1, t1)):
                assert same_bits(tree_kernel(a, b, params), one_tree_kernel(a, b, params))


def test_scalar_tree_kernel_names_an_overflowing_self_value():
    # the cross value of small and spine is finite, spine's own overflows
    spine = syn("a", *[syn(f"x{k}") for k in range(64)])
    for _ in range(16):
        spine = syn("a", *[syn(f"x{k}") for k in range(64)], spine)
    small = syn("a", syn("x0"))
    params = TreeKernelParams("SST", lam=1.0)
    with np.errstate(over="ignore"):
        assert math.isfinite(tree_kernel(small, spine, replace(params, normalize=False)))
        for a, b in ((small, spine), (spine, small)):
            with pytest.raises(NumericError, match="^SST self kernel overflowed; use smaller lambda/mu$"):
                tree_kernel(a, b, params)


# --- SPTK gates of other numeric types ------------------------------------

# each maker turns a gate drawn from {0, 0.25, 1, 2} into the type or
# value a sigma may return; nan and inf stand in for the nonzero gates
GATE_TYPES = {
    "float64": np.float64,
    "int": lambda g: int(g),
    "bool": lambda g: g != 0,
    "negative zero": lambda g: g if g else -0.0,
    "nan": lambda g: math.nan if g == 1 else g,
    "inf": lambda g: math.inf if g == 2 else g,
}


@pytest.mark.parametrize("make", GATE_TYPES.values(), ids=GATE_TYPES.keys())
@settings(max_examples=40, deadline=None)
@given(t1=trees, t2=trees, table=st.lists(st.sampled_from([0, 0.25, 1, 2]), min_size=9, max_size=9))
def test_sptk_gates_of_any_numeric_type_give_the_float_gate_bytes(make, t1, t2, table):
    # the gate depends on both labels, so childless rows and rows with
    # children both meet zero and nonzero gates
    gate = lambda n1, n2: make(table[3 * "abc".index(n1.label) + "abc".index(n2.label)])
    for a, b in ((t1, t2), (syn("a", t1, syn("b")), t2), (syn("c"), t2)):
        got = delta_matrix(a, b, TreeKernelParams("SPTK", sigma=gate)).values
        as_float = lambda n1, n2: float(gate(n1, n2))
        want = delta_matrix(a, b, TreeKernelParams("SPTK", sigma=as_float)).values
        assert got.tobytes() == want.tobytes()
        if all(math.isfinite(float(gate(n1, n2))) for n1 in a.iter_nodes() for n2 in b.iter_nodes()):
            assert got.tobytes() == full_scan_ptk(a, b, 0.4, 0.4, gate).tobytes()


# --- the per-tree index memo --------------------------------------------------


@pytest.mark.parametrize("kind", ["SST", "PTK"])
def test_memoized_tree_gives_same_value(kind):
    def fresh():
        return [to_lct(t) for t in make_re_corpus(n_per_class=1, seed=5)]

    params = TreeKernelParams(kind)
    a, b, c = fresh()
    first = [tree_kernel(a, b, params), tree_kernel(a, c, params), tree_kernel(b, c, params)]
    again = [tree_kernel(a, b, params), tree_kernel(a, c, params), tree_kernel(b, c, params)]
    cold = fresh()
    cold_values = [
        tree_kernel(cold[0], cold[1], params),
        tree_kernel(cold[0], cold[2], params),
        tree_kernel(cold[1], cold[2], params),
    ]
    assert first == again == cold_values
    assert "index" in vars(a)
    assert a.index is a.index
    if kind == "SST":
        assert a.index.sst is a.index.sst


def test_one_walk_per_tree_for_every_kind(monkeypatch):
    walks = []
    walk = transforms._postorder

    def counted(tree):
        walks.append(tree)
        return walk(tree)

    monkeypatch.setattr(transforms, "_postorder", counted)
    tree = to_lct(make_re_corpus(n_per_class=1, seed=5)[0])
    for kind in kernels.KINDS:
        params = TreeKernelParams(kind, sigma=indicator_sigma if kind == "SPTK" else None)
        assert tree_kernel(tree, tree, params) == 1.0
        delta_matrix(tree, tree, params)
    assert len(walks) == 1 and walks[0] is tree


def production_rule(tree):
    """Each node's production, (label, child labels), and whether its
    children are all leaves, in postorder: the rule of the separate
    production index that TreeIndex.sst replaced, read from node objects."""
    nodes, _ = _postorder(tree)
    prods = tuple((n.label, tuple(c.label for c in n.children)) for n in nodes)
    atomic = tuple(all(not c.children for c in n.children) for n in nodes)
    return prods, atomic


@settings(max_examples=200, deadline=None)
@given(tree=trees | st.sampled_from([syn("a"), ATOMIC_NP, NESTED_NP, MIXED_NP]))
def test_tree_index_sst_view_equals_production_rule(tree):
    # repeated productions, nodes whose children are all leaves and a
    # childless root all come from the tiny alphabet and the NP trees
    view = tree.index.sst
    assert view == production_rule(tree)
    assert tree.index.sst is view
    prods = view[0]
    # equal productions share one key object
    assert all(p is q for p in prods for q in prods if p == q)


def test_overflow_still_raises_on_bucketed_path():
    # a spine of 17 nodes, each with 64 distinctly labeled leaves: every
    # spine level multiplies the SST delta of the roots by 2**64
    def leaves():
        return [syn(f"x{k}") for k in range(64)]

    tree = syn("a", *leaves())
    for _ in range(16):
        tree = syn("a", *leaves(), tree)
    params = TreeKernelParams("SST", lam=1.0, normalize=False)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="SST kernel overflowed"):
        tree_kernel(tree, tree, params)


def test_tree_matrix_names_the_first_overflowing_pair():
    def leaves():
        return [syn(f"x{k}") for k in range(64)]

    spine = syn("a", *leaves())
    for _ in range(16):
        spine = syn("a", *leaves(), spine)
    small = syn("a", syn("x0"))
    params = TreeKernelParams("SST", lam=1.0)
    trees, ids = [small, spine, spine], ("s", "t", "u")
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="^kernel failed on pair t x t: SST kernel overflowed"):
            _tree_matrix(trees, trees, params, ids, ids)
        with pytest.raises(NumericError, match="^kernel failed on pair t x c: SST kernel overflowed"):
            _tree_matrix(trees[:2], [small, spine], params, ids[:2], ("b", "c"))
        # only a self value overflows: a row tree's fails before a column tree's
        with pytest.raises(NumericError, match="^kernel failed on pair t x t: SST kernel overflowed"):
            _tree_matrix([small, spine], [small, small], params, ("s", "t"), ("b", "c"))
        with pytest.raises(NumericError, match="^kernel failed on pair c x c: SST kernel overflowed"):
            _tree_matrix([small], [small, spine], params, ("s",), ("b", "c"))


@pytest.mark.parametrize("kind", ["SST", "PTK"])
def test_tree_matrix_names_an_overflow_from_its_indices(monkeypatch, kind):
    # the pair is named from the non-finite value's position, in the
    # same order as above, and no tree_kernel call evaluates it again
    calls = []
    real = combine.tree_kernel
    monkeypatch.setattr(combine, "tree_kernel", lambda *args: calls.append(args) or real(*args))
    spine = syn("a", *[syn(f"x{k}") for k in range(64)])
    for _ in range(16):
        spine = syn("a", *[syn(f"x{k}") for k in range(64)], spine)
    small = syn("a", syn("x0"))
    params = TreeKernelParams(kind, lam=1.0, mu=1.0)
    message = f"{kind} kernel overflowed; use smaller lambda/mu or normalization$"
    cases = [
        ([small, spine, spine], None, ("s", "t", "u"), None, "t x t"),
        ([small, spine], [small, spine], ("s", "t"), ("b", "c"), "t x c"),
        ([small, spine], [small, small], ("s", "t"), ("b", "c"), "t x t"),
        ([small], [small, spine], ("s",), ("b", "c"), "c x c"),
    ]
    with np.errstate(over="ignore"):
        for rows, cols, row_ids, col_ids, pair in cases:
            cols, col_ids = (rows, row_ids) if cols is None else (cols, col_ids)
            with pytest.raises(NumericError, match=f"^kernel failed on pair {pair}: {message}"):
                _tree_matrix(rows, cols, params, row_ids, col_ids)
    assert calls == []
