"""The label-bucketed SST/PTK dynamic programs against full scans.

The kernels visit only node pairs whose productions (SST) or labels
(PTK) match, over a postorder index memoized on each tree, and run the
child-subsequence recursion on plain Python floats. The references
below scan every node pair of freshly indexed trees and run the
recursion on numpy tables; both must give the same values bit for bit.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udkernels.conllu import parse_conllu_file
from udkernels.errors import NumericError
from udkernels.kernels import TreeKernelParams, _subseq_sum, delta_matrix, tree_kernel
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
from udkernels.transforms import const_to_labeled, parse_bracketed, syn, to_lct

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


# --- the synthetic corpora -------------------------------------------------


def synthetic_trees():
    pi_trees, _ = make_pi_corpus(n_pairs=4, seed=3)
    re_trees = make_re_corpus(n_per_class=2, seed=3)
    out = [to_lct(t) for t in pi_trees + re_trees]
    out += [const_to_labeled(c) for t in re_trees for c in parse_bracketed(const_parse_line(t))]
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


def same_bits(x, y):
    if np.isnan(x) and np.isnan(y):
        return True
    return struct.pack("<d", x) == struct.pack("<d", y)


# mixed magnitudes with many exact zeros, as child deltas are in practice
cells = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e6),
    st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=True),
    st.sampled_from([5e-324, 1e-300, 0.16, 0.064, 1.0]),
)
N_NODES = 10
children = st.lists(st.integers(0, N_NODES - 1), min_size=1, max_size=10).map(tuple)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(cells, min_size=N_NODES * N_NODES, max_size=N_NODES * N_NODES),
    ch1=children,
    ch2=children,
    lam=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_subseq_sum_matches_numpy_reference_bit_for_bit(cells, ch1, ch2, lam):
    delta = np.array(cells).reshape(N_NODES, N_NODES)
    with np.errstate(all="ignore"):
        got = _subseq_sum(delta, ch1, ch2, lam)
        want = reference_subseq_sum(delta, ch1, ch2, lam)
    assert type(got) is float
    assert same_bits(got, want)


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
        got = _subseq_sum(delta, ch1, ch2, lam)
        want = reference_subseq_sum(delta, ch1, ch2, lam)
    assert not np.isfinite(want) and np.isnan(want) == nan
    assert same_bits(got, want)


# --- the memo ----------------------------------------------------------------


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
    memo = "production_index" if kind == "SST" else "label_index"
    assert memo in vars(a)
    assert getattr(a, memo) is getattr(a, memo)


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
