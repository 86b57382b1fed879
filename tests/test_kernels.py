import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udkernels.combine import CompositeParams
from udkernels.errors import ConfigError, NumericError
from udkernels.kernels import (
    TreeKernelParams,
    delta_matrix,
    normalize,
    normalize_rows,
    poly_kernel,
    tree_kernel,
)
from udkernels.lexical import indicator_sigma
from udkernels.transforms import lex, syn

from oracle import brute_force_kernel, brute_force_sptk

A = syn("a")
B = syn("a", syn("b"), syn("c"))
B_OTHER = syn("a", syn("b"), syn("d"))
B_REVERSED = syn("a", syn("c"), syn("b"))
DEEP = syn("a", syn("b", syn("c")), syn("d"))

LAM = MU = 0.4


def raw(kind, **kw):
    return TreeKernelParams(kind=kind, lam=LAM, mu=MU, normalize=False, **kw)


# --- frozen values, each derived by hand from the closed form --------------


def test_sst_single_node():
    # lone matching nodes contribute lam
    assert tree_kernel(A, A, raw("SST")) == pytest.approx(0.4, abs=1e-12)


def test_sst_flat_production():
    # root (atomic production) + two leaf pairs: 3 * lam
    assert tree_kernel(B, B, raw("SST")) == pytest.approx(1.2, abs=1e-12)


def test_sst_production_gate():
    # a->(b,c) vs a->(b,d) differ, only the b pair survives
    assert tree_kernel(B, B_OTHER, raw("SST")) == pytest.approx(0.4, abs=1e-12)


def test_sst_child_order_matters():
    # a->(b,c) vs a->(c,b) differ as productions; two leaf pairs remain
    assert tree_kernel(B, B_REVERSED, raw("SST")) == pytest.approx(0.8, abs=1e-12)


def test_sst_nested():
    # lam*(1+lam)^2 at the root + three leaf-level pairs at lam each
    expected = LAM * (1 + LAM) ** 2 + 3 * LAM
    assert expected == pytest.approx(1.984, abs=1e-12)
    assert tree_kernel(DEEP, DEEP, raw("SST")) == pytest.approx(expected, abs=1e-12)


def test_ptk_single_node():
    # mu * lam^2
    assert tree_kernel(A, A, raw("PTK")) == pytest.approx(0.064, abs=1e-12)


def test_ptk_flat_tree():
    # root: mu*lam^2*(1 + 2*mu*lam^2 + mu^2*lam^6), leaves: 2*mu*lam^2
    expected = MU * LAM**2 * (1 + 2 * MU * LAM**2 + MU**2 * LAM**6) + 2 * MU * LAM**2
    assert expected == pytest.approx(0.20023394304, abs=1e-12)
    assert tree_kernel(B, B, raw("PTK")) == pytest.approx(expected, abs=1e-12)


def test_ptk_label_gate():
    # d vs c blocks the pair and every subsequence through it
    expected = MU * LAM**2 * (1 + MU * LAM**2) + MU * LAM**2
    assert tree_kernel(B, B_OTHER, raw("PTK")) == pytest.approx(expected, abs=1e-12)


def test_sptk_with_indicator_equals_ptk():
    params = raw("SPTK", sigma=indicator_sigma)
    for t1, t2 in [(A, A), (B, B), (B, B_OTHER), (DEEP, B), (DEEP, DEEP)]:
        assert tree_kernel(t1, t2, params) == pytest.approx(
            tree_kernel(t1, t2, raw("PTK")), abs=1e-12
        )


def test_sptk_scales_by_similarity():
    cat = lex("cat", "NOUN")
    dog = lex("dog", "NOUN")

    def half(n1, n2):
        return 0.5

    params = raw("SPTK", sigma=half)
    # mu * sigma * lam^2
    assert tree_kernel(cat, dog, params) == pytest.approx(0.032, abs=1e-12)


def test_sptk_zero_similarity_kills_pair():
    params = raw("SPTK", sigma=lambda a, b: 0.0)
    assert tree_kernel(B, B, params) == 0.0


def test_sptk_requires_sigma():
    with pytest.raises(ConfigError, match="similarity"):
        TreeKernelParams(kind="SPTK")


def test_param_validation():
    with pytest.raises(ConfigError):
        TreeKernelParams(kind="nope")
    with pytest.raises(ConfigError):
        TreeKernelParams(kind="SST", lam=0.0)
    with pytest.raises(ConfigError):
        TreeKernelParams(kind="PTK", mu=1.5)


# --- normalization ---------------------------------------------------------


def test_normalized_self_kernel_is_exactly_one():
    params = TreeKernelParams(kind="PTK", lam=LAM, mu=MU)
    assert tree_kernel(DEEP, DEEP, params) == 1.0


def test_normalized_cross_kernel_in_unit_interval():
    params = TreeKernelParams(kind="SST", lam=LAM)
    value = tree_kernel(B, DEEP, params)
    assert 0.0 <= value <= 1.0
    raw_value = tree_kernel(B, DEEP, raw("SST"))
    denom = math.sqrt(
        tree_kernel(B, B, raw("SST")) * tree_kernel(DEEP, DEEP, raw("SST"))
    )
    assert value == pytest.approx(raw_value / denom, abs=1e-12)


def test_disjoint_trees_normalize_to_zero():
    params = TreeKernelParams(kind="SST", lam=LAM)
    assert tree_kernel(syn("x"), syn("y"), params) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    s1=st.floats(min_value=1e-150, max_value=1e150),
    s2=st.floats(min_value=1e-150, max_value=1e150),
    share=st.floats(min_value=-1.0, max_value=1.0),
)
def test_normalize_is_raw_over_root_of_product(s1, s2, share):
    # s1 * s2 stays a normal float here, so the identity rule agrees too
    raw = share * math.sqrt(s1) * math.sqrt(s2)
    assert normalize(raw, s1, s2) == raw / math.sqrt(s1 * s2)


def test_normalize_maps_empty_self_kernel_to_zero():
    for s1, s2 in [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (2.0, -0.0), (0.0, 0.0)]:
        assert normalize(0.5, s1, s2) == 0.0


@pytest.mark.parametrize("s", [5e-324, 1e-300, 1.0, 1e300])
def test_normalize_object_against_itself_is_exactly_one(s):
    assert normalize(s, s, s) == 1.0


@pytest.mark.parametrize(
    "s1, s2",
    [(1e-200, 1e-170), (5e-324, 0.25), (1e200, 1e170), (1e308, 1e308)],
)
def test_normalize_stays_finite_when_the_product_under_or_overflows(s1, s2):
    assert s1 * s2 in (0.0, math.inf)
    raw = 0.5 * math.sqrt(s1) * math.sqrt(s2)
    value = normalize(raw, s1, s2)
    assert math.isfinite(value) and value == pytest.approx(0.5)


# self values <= 0, subnormal and huge ones (whose products under- or
# overflow), an infinite and a NaN one
NORMALIZE_SPECIALS = [
    0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-170, 0.25, 1.0, 3.0, 1e170, 1e300, 1e308, math.inf, math.nan,
]


def same_cells(got: np.ndarray, want: list) -> bool:
    want = np.array(want, dtype=float)
    return got.shape == want.shape and all(
        a.tobytes() == b.tobytes() or (math.isnan(a) and math.isnan(b))
        for a, b in zip(got.ravel(), want.ravel())
    )


def normalize_rows_quietly(raw, s1, s2):
    # floating-point warnings raised as errors, as CI runs the tests
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return normalize_rows(
            np.array(raw, dtype=float).reshape(len(s1), len(s2)),
            np.array(s1, dtype=float),
            np.array(s2, dtype=float),
        )


def test_normalize_rows_equals_normalize_on_every_special_cell():
    # every (raw, s2) pair of the specials in one row per s1, raw == s1 == s2 among them
    pairs = list(itertools.product(NORMALIZE_SPECIALS, repeat=2))
    raws, s2s = [r for r, _ in pairs], [t for _, t in pairs]
    for s1 in NORMALIZE_SPECIALS:
        got = normalize_rows_quietly(raws, [s1], s2s)
        assert same_cells(got, [[normalize(r, s1, t) for r, t in pairs]]), s1
    # and one block per raw value: a row per s1, a column per s2
    n = len(NORMALIZE_SPECIALS)
    for raw in NORMALIZE_SPECIALS:
        raws = [raw] * n * n
        got = normalize_rows_quietly(raws, NORMALIZE_SPECIALS, NORMALIZE_SPECIALS)
        want = [[normalize(raw, s1, s2) for s2 in NORMALIZE_SPECIALS] for s1 in NORMALIZE_SPECIALS]
        assert same_cells(got, want), raw


finite = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)
special = st.sampled_from(NORMALIZE_SPECIALS)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_normalize_rows_equals_normalize_bit_for_bit(data):
    # a block of rows, some with s1 <= 0, some columns with s2 <= 0, and
    # cells that repeat their row's s1 as raw and s2, where the exact 1.0
    # applies
    value = st.one_of(finite, special)
    s1 = data.draw(st.lists(value, min_size=1, max_size=5), label="s1")
    s2 = data.draw(st.lists(value, max_size=6), label="s2")
    s2 += [s1[data.draw(st.integers(0, len(s1) - 1))] for _ in range(data.draw(st.integers(0, 2)))]
    raw = [[data.draw(st.one_of(value, st.just(a))) for _ in s2] for a in s1]
    got = normalize_rows_quietly([x for row in raw for x in row], s1, s2)
    want = [[normalize(raw[i][j], a, b) for j, b in enumerate(s2)] for i, a in enumerate(s1)]
    assert same_cells(got, want)


# --- bookkeeping and errors ------------------------------------------------


def test_non_finite_similarity_raises():
    params = raw("SPTK", sigma=lambda a, b: float("inf"))
    with pytest.raises(NumericError):
        tree_kernel(lex("w", "X"), lex("w", "X"), params)


def test_delta_matrix_layout():
    dm = delta_matrix(B, B_OTHER, raw("SST"))
    assert dm.values.shape == (3, 3)
    lines = dm.to_tsv().rstrip("\n").split("\n")
    assert len(lines) == 4
    assert lines[0].split("\t")[1:] == list(dm.col_labels)


def test_poly_kernel_values():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 0.5])
    assert poly_kernel(u, v, degree=2, coef0=1.0) == pytest.approx(25.0)
    assert poly_kernel(u, v, degree=1, coef0=0.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        poly_kernel(u, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigError):
        poly_kernel(u, v, degree=0)


@pytest.mark.parametrize("degree", [True, 2.0, 0, "2"])
def test_poly_kernel_refuses_each_degree_the_composite_kernel_refuses(degree):
    # True and 2.0 equal a valid degree, and "2" compares with no int
    message = f"^degree must be a positive integer, got {re.escape(repr(degree))}$"
    with pytest.raises(ConfigError, match=message):
        poly_kernel([1.0, 2.0], [3.0, 4.0], degree=degree)
    with pytest.raises(ConfigError, match=message):
        CompositeParams("CK2", vec_degree=degree)


# --- the dynamic program against the enumeration oracle --------------------

labels = st.sampled_from("ab")


def bounded_trees(max_children=3, max_depth=3):
    return st.recursive(
        labels.map(syn),
        lambda sub: st.builds(
            lambda lab, kids: syn(lab, *kids),
            labels,
            st.lists(sub, max_size=max_children),
        ),
        max_leaves=4,
    )


small_trees = bounded_trees().filter(lambda t: t.size() <= 6)
decays = st.floats(min_value=0.2, max_value=1.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(t1=small_trees, t2=small_trees, lam=decays, mu=decays)
def test_dp_matches_enumeration(t1, t2, lam, mu):
    for kind in ("SST", "PTK"):
        dp = tree_kernel(
            t1, t2, TreeKernelParams(kind=kind, lam=lam, mu=mu, normalize=False)
        )
        oracle = brute_force_kernel(t1, t2, kind, lam=lam, mu=mu)
        assert dp == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def graded_sigma(n1, n2):
    """1.0 on equal labels, else 0.3, times 0.9 per unit of child-count
    difference: a similarity that sees whole nodes, not labels alone."""
    score = 1.0 if n1.label == n2.label else 0.3
    return score * 0.9 ** abs(len(n1.children) - len(n2.children))


def zero_sigma(n1, n2):
    return 0.0


@settings(max_examples=100, deadline=None)
@given(t1=small_trees, t2=small_trees, lam=decays, mu=decays)
def test_sptk_dp_matches_enumeration(t1, t2, lam, mu):
    for sigma in (indicator_sigma, graded_sigma, zero_sigma):
        params = TreeKernelParams(kind="SPTK", lam=lam, mu=mu, sigma=sigma, normalize=False)
        oracle = brute_force_sptk(t1, t2, sigma, lam=lam, mu=mu)
        assert tree_kernel(t1, t2, params) == pytest.approx(oracle, rel=1e-9, abs=1e-12)
    # under the indicator the two enumerations count the same fragments
    assert brute_force_sptk(t1, t2, indicator_sigma, lam=lam, mu=mu) == pytest.approx(
        brute_force_kernel(t1, t2, "PTK", lam=lam, mu=mu), rel=1e-9, abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(t1=small_trees, t2=small_trees, lam=decays, mu=decays)
def test_kernel_is_symmetric(t1, t2, lam, mu):
    # symmetric up to summation order; Gram construction mirrors the
    # upper triangle so stored matrices are symmetric exactly
    for kind in ("SST", "PTK"):
        params = TreeKernelParams(kind=kind, lam=lam, mu=mu, normalize=False)
        assert tree_kernel(t1, t2, params) == pytest.approx(
            tree_kernel(t2, t1, params), rel=1e-12, abs=1e-15
        )


@settings(max_examples=100, deadline=None)
@given(t=small_trees, lam=decays, mu=decays)
def test_normalized_diagonal(t, lam, mu):
    for kind in ("SST", "PTK"):
        params = TreeKernelParams(kind=kind, lam=lam, mu=mu)
        assert tree_kernel(t, t, params) == 1.0


@settings(max_examples=100, deadline=None)
@given(t1=small_trees, t2=small_trees)
def test_sptk_indicator_reduction_property(t1, t2):
    sptk = TreeKernelParams(kind="SPTK", lam=LAM, mu=MU, sigma=indicator_sigma, normalize=False)
    ptk = TreeKernelParams(kind="PTK", lam=LAM, mu=MU, normalize=False)
    assert tree_kernel(t1, t2, sptk) == pytest.approx(
        tree_kernel(t1, t2, ptk), rel=1e-12, abs=1e-15
    )
