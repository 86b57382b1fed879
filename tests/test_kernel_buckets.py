"""The label-bucketed SST/PTK dynamic programs against full scans.

The kernels visit only node pairs whose productions (SST) or labels
(PTK) match, over a postorder index memoized on each tree. The reference
below scans every node pair of freshly indexed trees; both must give the
same delta matrices bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udkernels.errors import NumericError
from udkernels.kernels import TreeKernelParams, _subseq_sum, delta_matrix, tree_kernel
from udkernels.lexical import indicator_sigma
from udkernels.synthetic import const_parse_line, make_pi_corpus, make_re_corpus
from udkernels.transforms import const_to_labeled, parse_bracketed, syn, to_lct

# --- reference: every node pair, trees indexed afresh per call -------------


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


def full_scan_ptk(t1, t2, lam, mu):
    nodes1, ch1 = _postorder(t1)
    nodes2, ch2 = _postorder(t2)
    delta = np.zeros((len(nodes1), len(nodes2)))
    for i, n1 in enumerate(nodes1):
        for j, n2 in enumerate(nodes2):
            gate = 1.0 if n1.label == n2.label else 0.0
            if gate == 0.0:
                continue
            total = lam * lam
            if ch1[i] and ch2[j]:
                total += _subseq_sum(delta, ch1[i], ch2[j], lam)
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
