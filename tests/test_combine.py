import math
import re
import warnings
from collections import Counter
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from udkernels import combine
from udkernels.combine import (
    CompositeParams,
    PairKernelParams,
    REKernelInput,
    _tree_matrix,
    composite_kernel,
    kernel_matrix,
    sm_tk,
    softmax2,
)
from udkernels.config import (
    kernel_fingerprint,
    kernel_spec_from_dict,
    kernel_spec_to_dict,
    parse_config,
)
from udkernels.errors import ConfigError, NumericError
from udkernels.kernels import TreeKernelParams, tree_kernel
from udkernels.lexical import SigmaConfig, indicator_sigma
from udkernels.pipeline import bind_sigma, load_resources, prepare_split
from udkernels.svm import GramMatrix
from udkernels.synthetic import write_crosslingual_re, write_pi_corpus, write_re_corpus
from udkernels.transforms import lex, syn

T1 = syn("a", syn("b"), syn("c"))
T2 = syn("a", syn("b"), syn("d"))
T3 = syn("x", syn("b", syn("c")))


# --- smooth maximum --------------------------------------------------------


def test_softmax2_upper_bound_at_tie():
    # equal arguments sit exactly log(2)/m above the maximum
    assert softmax2(1.0, 1.0, m=100.0) == pytest.approx(1.0 + math.log(2) / 100.0, abs=1e-15)


def test_softmax2_approaches_max():
    assert softmax2(3.0, 0.0, m=100.0) == pytest.approx(3.0, abs=1e-12)


def test_softmax2_rejects_nonpositive_sharpness():
    with pytest.raises(ConfigError):
        softmax2(1.0, 2.0, m=0.0)


@settings(max_examples=300, deadline=None)
@given(
    x1=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    x2=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    m=st.floats(min_value=1e-3, max_value=1e4, allow_nan=False),
)
def test_softmax2_envelope(x1, x2, m):
    value = softmax2(x1, x2, m)
    top = max(x1, x2)
    assert top <= value <= top + math.log(2) / m + 1e-12
    assert value == softmax2(x2, x1, m)


# --- sub-kernel matrices --------------------------------------------------


def test_cache_matches_direct_evaluation():
    # one sub-kernel matrix per tree slot, square or rectangular, holds
    # exactly the normalized tree kernel of each pair it covers
    params = TreeKernelParams(kind="PTK", lam=0.4, mu=0.4)
    trees = [T1, T2, T3]
    ids = ("0", "1", "2")
    square = _tree_matrix(trees, trees, params, ids, ids)
    rect = _tree_matrix([T2, T3], trees, params, ids[1:], ids)
    for i, a in enumerate(trees):
        for j in range(i, 3):
            assert square[i, j] == tree_kernel(a, trees[j], params)
            assert square[j, i] == square[i, j]
    for r, a in enumerate([T2, T3]):
        for c, b in enumerate(trees):
            assert rect[r, c] == tree_kernel(a, b, params)


def test_cache_self_kernel_exactly_one():
    trees = [T1, T2]
    values = _tree_matrix(trees, trees, TreeKernelParams(kind="SST", lam=0.4), ("0", "1"), ("0", "1"))
    assert values[0, 0] == 1.0
    assert values[1, 1] == 1.0


# --- pair kernel -----------------------------------------------------------


def pair_params():
    return PairKernelParams(base=TreeKernelParams(kind="PTK", lam=0.4, mu=0.4), m=100.0)


def test_sm_tk_is_symmetric_in_instances():
    params = pair_params()
    assert sm_tk((T1, T2), (T2, T3), params) == pytest.approx(
        sm_tk((T2, T3), (T1, T2), params), abs=1e-15
    )


def test_sm_tk_ignores_member_order():
    # flipping one instance's members swaps straight and crossed products
    params = pair_params()
    assert sm_tk((T1, T2), (T3, T2), params) == sm_tk((T2, T1), (T3, T2), params)


def test_sm_tk_self_pair_peaks():
    params = pair_params()
    value = sm_tk((T1, T2), (T1, T2), params)
    assert value == pytest.approx(softmax2(1.0, tree_kernel(T1, T2, params.base) ** 2), abs=1e-12)


def test_pair_params_validation():
    with pytest.raises(ConfigError):
        PairKernelParams(base=TreeKernelParams(kind="PTK"), m=-1.0)


# --- composite kernels -----------------------------------------------------


def make_inputs(with_pet=True):
    lct_a = lex("present", "VERB", syn("root"), syn("VERB"), lex("memo", "NOUN"))
    lct_b = lex("present", "VERB", syn("root"), syn("VERB"), lex("detail", "NOUN"))
    pet_a = syn("NP", lex("memo", "NN")) if with_pet else None
    pet_b = syn("NP", lex("detail", "NN")) if with_pet else None
    a = REKernelInput(lct=lct_a, vec=np.array([1.0, 0.0, 2.0]), pet=pet_a)
    b = REKernelInput(lct=lct_b, vec=np.array([0.5, 1.0, 1.0]), pet=pet_b)
    return a, b


def composite(variant, **kw):
    return CompositeParams(
        variant=variant,
        sst=TreeKernelParams(kind="SST", lam=0.4),
        pt=TreeKernelParams(kind="PTK", lam=0.4, mu=0.4),
        **kw,
    )


def test_identical_instance_scores_four_under_squared_core():
    a, _ = make_inputs(with_pet=False)
    assert composite_kernel(a, a, composite("CK2")) == pytest.approx(4.0, abs=1e-12)


def count_tree_kernel_calls(monkeypatch) -> Counter:
    """Per-kind count of the tree pairs combine evaluates, one per
    tree_kernel call and one per cell a kernels.subtree_matrix call
    fills (the upper triangle of a square one) or self value it adds (a
    normalized rectangle's, one per row and column tree), and of the
    vector cells and self values the context-vector slot's row functions
    give under "poly"."""
    calls = Counter()
    real_tree, real_matrix, real_vector_cells = (
        combine.tree_kernel,
        combine.subtree_matrix,
        combine._vector_cells,
    )

    def counted_tree(t1, t2, params, *args):
        calls[params.kind] += 1
        return real_tree(t1, t2, params, *args)

    def counted_matrix(rows, cols, params, *args):
        n = len(rows)
        if cols is rows:
            calls[params.kind] += n * (n + 1) // 2
        else:
            calls[params.kind] += n * len(cols) + (n + len(cols) if params.normalize else 0)
        return real_matrix(rows, cols, params, *args)

    def counted(values):
        for value in values:
            calls["poly"] += 1
            yield value

    def counted_vector_cells(*args):
        cells, selfs = real_vector_cells(*args)
        return (lambda r, start: counted(cells(r, start))), (lambda: counted(selfs()))

    monkeypatch.setattr(combine, "tree_kernel", counted_tree)
    monkeypatch.setattr(combine, "subtree_matrix", counted_matrix)
    monkeypatch.setattr(combine, "_vector_cells", counted_vector_cells)
    return calls


def test_ck2_never_touches_constituency_kernel(monkeypatch):
    a, b = make_inputs(with_pet=True)
    calls = count_tree_kernel_calls(monkeypatch)
    composite_kernel(a, b, composite("CK2"))
    composite_kernel(a, a, composite("CK2"))
    assert calls["SST"] == 0
    assert calls["PTK"] > 0


def test_ck3_combines_blocks():
    a, b = make_inputs()
    params = composite("CK3", alpha=0.23)
    k_sst = tree_kernel(a.pet, b.pet, params.sst)
    k_pt = tree_kernel(a.lct, b.lct, params.pt)
    poly = lambda u, v: (float(np.dot(u, v)) + 1.0) ** 2
    k_vec = poly(a.vec, b.vec) / math.sqrt(poly(a.vec, a.vec) * poly(b.vec, b.vec))
    expected = 0.23 * k_sst + 0.77 * (k_vec + k_pt) ** 2
    assert composite_kernel(a, b, params) == pytest.approx(expected, abs=1e-12)


def test_ck1_requires_constituency_fragment():
    a, b = make_inputs(with_pet=False)
    with pytest.raises(ConfigError, match="constituency"):
        composite_kernel(a, b, composite("CK1"))


def test_composite_vector_term_survives_underflowing_self_product():
    # the vector self kernels are about 1e-320 and 4e-320, so their
    # product underflows to 0 while the normalized vector term stays
    # about 1
    a, b = make_inputs(with_pet=False)
    a = REKernelInput(lct=a.lct, vec=np.array([1e-160]))
    b = REKernelInput(lct=b.lct, vec=np.array([2e-160]))
    params = composite("CK2", vec_degree=1, vec_coef0=0.0)
    value = composite_kernel(a, b, params)
    k_pt = tree_kernel(a.lct, b.lct, params.pt)
    assert value == pytest.approx((1.0 + k_pt) ** 2, rel=1e-3)
    assert kernel_matrix([a, b], [a, b], params)[0, 1] == value
    assert kernel_matrix([a], [b], params)[0, 0] == value


def test_composite_requires_vectors():
    a, b = make_inputs()
    a_no_vec = REKernelInput(lct=a.lct, vec=None, pet=a.pet)
    with pytest.raises(ConfigError, match="vector"):
        composite_kernel(a_no_vec, b, composite("CK2"))


def test_composite_validation():
    with pytest.raises(ConfigError):
        composite("CK9")
    with pytest.raises(ConfigError):
        composite("CK1", alpha=1.5)
    with pytest.raises(ConfigError):
        CompositeParams(variant="CK1", sst=TreeKernelParams(kind="PTK"))


def test_feature_mode_follows_variant():
    assert composite("CK1").feature_mode == "V_o"
    assert composite("CK2").feature_mode == "V_ud"
    assert composite("CK3").feature_mode == "V_ud"


# --- kernel matrices --------------------------------------------------------

# pi: pair kernel over PTK; xl: CK2 with SPTK translate_then_compare on
# pseudo-translated test data; re: CK3 (SST on PET, PTK on LCT, poly)
RUNS = ("pi", "xl", "re")


def prepared_run(tmp_path, run):
    """The bound kernel spec and train/test payloads of a small run."""
    if run == "pi":
        paths = write_pi_corpus(tmp_path, n_pairs=12, seed=5)
        raw = {
            "task": "pi",
            "kernel": {"base": {"kind": "PTK"}, "m": 100.0},
            "data": {
                "train": paths["bank"],
                "pairs_train": paths["pairs_train.tsv"],
                "pairs_test": paths["pairs_test.tsv"],
                "source_lang": "en",
            },
        }
    elif run == "xl":
        paths = write_crosslingual_re(tmp_path, n_per_class=3, seed=5)
        raw = {
            "task": "re",
            "kernel": {
                "variant": "CK2",
                "sst": {"kind": "SST"},
                "pt": {"kind": "SPTK", "sigma": {"mode": "translate_then_compare"}},
            },
            "data": {
                "train": paths["train.conllu"],
                "test": paths["test.conllu"],
                "source_lang": "en",
                "target_lang": "xx",
            },
            "resources": {"embeddings": {"en": paths["vectors.txt"]}, "dictionary": paths["dict.tsv"]},
        }
    else:
        paths = write_re_corpus(tmp_path, n_per_class=3, seed=5)
        raw = {
            "task": "re",
            "kernel": {"variant": "CK3", "sst": {"kind": "SST"}, "pt": {"kind": "PTK"}},
            "data": {
                "train": paths["train.conllu"],
                "test": paths["test.conllu"],
                "train_const": paths["train.const"],
                "test_const": paths["test.const"],
                "source_lang": "en",
            },
            "resources": {"embeddings": {"en": paths["vectors.txt"]}},
        }
    cfg = parse_config(raw)
    resources = load_resources(cfg)
    spec = bind_sigma(cfg.kernel_spec, cfg, resources)
    train = prepare_split(cfg, resources, "train").payloads
    test = prepare_split(cfg, resources, "test").payloads
    return spec, train, test


@pytest.mark.parametrize("run", RUNS)
def test_kernel_matrix_cells_equal_scalar_kernels(tmp_path, run):
    spec, train, test = prepared_run(tmp_path, run)
    scalar = sm_tk if isinstance(spec, PairKernelParams) else composite_kernel
    gram = kernel_matrix(train, train, spec)
    n = len(train)
    assert gram.shape == (n, n)
    for i in range(n):
        for j in range(i, n):
            assert gram[i, j] == scalar(train[i], train[j], spec)
    # the lower triangle mirrors the upper one
    assert np.array_equal(gram, gram.T)
    rect = kernel_matrix(test, train, spec)
    assert rect.shape == (len(test), n)
    for r, payload in enumerate(test):
        for c, support in enumerate(train):
            assert rect[r, c] == scalar(payload, support, spec)


@pytest.mark.parametrize("run", RUNS)
def test_kernel_matrix_evaluates_each_tree_pair_once(tmp_path, monkeypatch, run):
    spec, train, test = prepared_run(tmp_path, run)
    # the context vectors of a composite kernel are one more slot
    slots = {"pi": ("PTK",), "xl": ("SPTK", "poly"), "re": ("PTK", "SST", "poly")}[run]
    width = 2 if run == "pi" else 1  # trees per instance in each slot
    n, r = width * len(train), width * len(test)
    calls = count_tree_kernel_calls(monkeypatch)
    kernel_matrix(train, train, spec)
    assert calls == {kind: n * (n + 1) // 2 for kind in slots}
    calls.clear()
    kernel_matrix(test, train, spec)
    # every cross pair once, plus each row and column object against itself
    assert calls == {kind: r * n + r + n for kind in slots}


class PairFailure(Exception):
    def __init__(self, code, detail):
        super().__init__(code, detail)
        self.code = code


def test_kernel_matrix_names_instance_pair_when_sigma_fails():
    # the exception type cannot be rebuilt from one message, so the
    # original is re-raised with the test id and support position named
    def sigma(n1, n2):
        if "boom" in (n1.label, n2.label):
            raise PairFailure(7, "boom")
        return indicator_sigma(n1, n2)

    spec = PairKernelParams(base=TreeKernelParams("SPTK", sigma=sigma))
    supports = [(T1, T2), (T2, T3), (T3, syn("a", syn("boom")))]
    test = [(T1, T3), (T2, T1)]
    with pytest.raises(PairFailure, match=r"pair t0 x 2: .*boom") as info:
        kernel_matrix(test, supports, spec, row_ids=("t0", "t1"))
    assert info.value.code == 7


def vector_inputs(*vectors):
    """CK2 payloads over one-node trees, a, b, ... in order, with the
    given context vectors."""
    return [
        REKernelInput(lct=syn(chr(97 + k)), vec=np.array(v, dtype=float))
        for k, v in enumerate(vectors)
    ]


# a square matrix over rows, and a rectangle whose one row is rows[0]:
# each names the first failing pair by its ids
SQUARE_IDS, RECT_IDS = ("a", "b", "c"), (("r",), ("c0", "c1", "c2"))


def fail_both_ways(spec, rows, error, square_pair: str, rect_pair: str, detail: str):
    ids = SQUARE_IDS[: len(rows)]
    with pytest.raises(error, match=f"^kernel failed on pair {square_pair}: {detail}"):
        kernel_matrix(rows, rows, spec, row_ids=ids)
    with pytest.raises(error, match=f"^kernel failed on pair {rect_pair}: {detail}"):
        kernel_matrix(rows[:1], rows, spec, RECT_IDS[0], RECT_IDS[1][: len(rows)])


def test_vectors_poly_kernel_must_read_give_the_same_matrix():
    # a list and an int array are read by poly_kernel pair by pair; the
    # values equal those over float64 arrays
    floats = vector_inputs([1.0, 2.0], [3.0, 1.0], [0.0, 4.0])
    others = [
        replace(floats[0], vec=[1.0, 2.0]),
        replace(floats[1], vec=np.array([3, 1])),
        floats[2],
    ]
    spec = composite("CK2")
    square = kernel_matrix(floats, floats, spec).tobytes()
    rect = kernel_matrix(floats[:2], floats, spec).tobytes()
    assert kernel_matrix(others, others, spec).tobytes() == square
    assert kernel_matrix(others[:2], others, spec).tobytes() == rect


def test_overflowing_vector_pair_is_named():
    # (1e70 * 1e70 + 1)^2 is finite; (1e70 * 1e90 + 1)^2 overflows:
    # Python's float power raises OverflowError for it, which the matrix
    # reports as a NumericError
    rows = vector_inputs([1e70], [1e90])
    fail_both_ways(composite("CK2"), rows, NumericError, "a x b", "r x c1", "")


def test_overflowing_vector_dot_is_named_at_its_pair():
    # degree 1, so no power overflows: a dot of 1e160 and 1e160 or 1e200
    # overflows itself. The row path takes that dot again with np.dot,
    # which warns at its pair as a per-pair dot does; under
    # warnings-as-errors the warning is raised there, named
    spec = composite("CK2", vec_degree=1)
    square = vector_inputs([1.0], [1e160], [1e200])
    detail = "overflow encountered in dot"
    cases = [
        (square, square, SQUARE_IDS, SQUARE_IDS, "b x b"),
        (vector_inputs([1e160]), vector_inputs([1.0], [1e100], [1e200]), *RECT_IDS, "r x c2"),
        # a rectangle's self values: the column vector against itself
        (vector_inputs([1.0]), vector_inputs([1e200]), ("r",), ("c0",), "c0 x c0"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows, cols, row_ids, col_ids, pair in cases:
            with pytest.raises(RuntimeWarning, match=f"^kernel failed on pair {pair}: {detail}$"):
                kernel_matrix(rows, cols, spec, row_ids, col_ids)
    # otherwise each overflowing dot warns once: b.b, b.c and c.c
    with pytest.warns(RuntimeWarning) as record:
        kernel_matrix(square, square, spec)
    assert [str(w.message) for w in record] == [detail] * 3


def per_pair_slot(rows: list, cols: list, degree: int, coef0: float, row_ids, col_ids, selfs: bool):
    """The context-vector slot's raw matrix as per-pair np.dot calls give
    it, or the first pair whose value raises (as warnings-as-errors
    raises an overflowing dot) with its error: the cells in row-major
    order, then, if selfs, a rectangle's self values, row vectors
    first."""
    poly = lambda u, v: float((float(np.dot(u, v)) + coef0) ** degree)
    square = cols is rows
    values = np.zeros((len(rows), len(cols)))
    pairs = [(r, c) for r in range(len(rows)) for c in range(r if square else 0, len(cols))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            for r, c in pairs:
                pair = f"{row_ids[r]} x {col_ids[c]}"
                values[r, c] = poly(rows[r], cols[c])
            if selfs and not square:
                for x, name in zip([*rows, *cols], [*row_ids, *col_ids]):
                    pair = f"{name} x {name}"
                    poly(x, x)
        except (OverflowError, RuntimeWarning) as exc:
            return None, (pair, exc)
    if square:
        # copied, not added to a zero, so a -0.0 cell keeps its sign
        lower = np.tril_indices(len(rows), -1)
        values[lower] = values.T[lower]
    return values, None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vector_slot_equals_per_pair_dots_bit_for_bit(data):
    # separately allocated vectors of one odd or even length, each at its
    # own magnitude, 1e-150 to 1e150, so self products underflow and
    # powers overflow
    dim = data.draw(st.integers(1, 300), label="dim")
    degree = data.draw(st.sampled_from([1, 2, 3]), label="degree")
    coef0 = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="coef0")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def vectors(count: int) -> list:
        return [
            np.array((rng.standard_normal(dim) * 10.0 ** data.draw(st.integers(-150, 150))).tolist())
            for _ in range(count)
        ]

    rows = vectors(data.draw(st.integers(1, 4)))
    cols = rows if data.draw(st.booleans(), label="square") else vectors(data.draw(st.integers(1, 4)))
    ids = lambda objs, name: tuple(f"{name}{k}" for k in range(len(objs)))
    row_ids, col_ids = ids(rows, "r"), ids(cols, "r" if cols is rows else "c")
    variant = data.draw(st.sampled_from(["CK2", "CK3"]), label="variant")
    spec = composite(variant, vec_degree=degree, vec_coef0=coef0)
    payloads = lambda vs: [REKernelInput(lct=syn("a"), vec=v, pet=syn("p")) for v in vs]
    row_payloads = payloads(rows)
    col_payloads = row_payloads if cols is rows else payloads(cols)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = lambda: combine._slot_matrix(
            rows, cols, *combine._vector_cells(rows, cols, spec), row_ids, col_ids, normalized=False
        )
        matrix = lambda: kernel_matrix(row_payloads, col_payloads, spec, row_ids, col_ids)
        # the raw slot takes no self values; kernel_matrix's normalized one does
        for build, selfs in ((raw, False), (matrix, True)):
            want, failed = per_pair_slot(rows, cols, degree, coef0, row_ids, col_ids, selfs)
            if failed is not None:
                pair, exc = failed
                error = RuntimeWarning if isinstance(exc, RuntimeWarning) else NumericError
                with pytest.raises(error, match=f"^kernel failed on pair {pair}: {re.escape(str(exc))}$"):
                    build()
        event("a pair fails" if failed else "every pair evaluates")
        if failed is not None:
            return
        assert raw().tobytes() == want.tobytes()
        got = matrix()
    # and each cell, normalized and combined, is composite_kernel's
    for r, a in enumerate(row_payloads):
        for c, b in enumerate(col_payloads):
            assert got[r, c].tobytes() == np.float64(composite_kernel(a, b, spec)).tobytes()


@pytest.mark.parametrize("run", RUNS)
def test_normalization_blocks_leave_kernel_matrix_bytes_unchanged(tmp_path, monkeypatch, run):
    spec, train, test = prepared_run(tmp_path, run)
    square = kernel_matrix(train, train, spec).tobytes()
    rect = kernel_matrix(test, train, spec).tobytes()
    blocks = []
    real = combine.normalize_rows

    def recorded(raw, s1, s2):
        blocks.append(raw.shape)
        return real(raw, s1, s2)

    monkeypatch.setattr(combine, "normalize_rows", recorded)
    n = (2 if run == "pi" else 1) * len(train)  # trees per row and column
    # a row per block, then blocks that split the matrices mid-way and
    # leave a shorter last block
    for cap in (1, 3 * n + 1, n * n // 2):
        monkeypatch.setattr(combine, "_BLOCK_CELLS", cap)
        blocks.clear()
        assert kernel_matrix(train, train, spec).tobytes() == square
        assert kernel_matrix(test, train, spec).tobytes() == rect
        # every block is whole rows within the bound, or one row
        assert blocks and all(k * width <= max(cap, width) for k, width in blocks)
        assert any(k > 1 for k, _ in blocks) == (cap > 1)


def test_overflowing_composite_cell_is_named():
    # an unnormalized SPTK whose similarity is huge for different labels:
    # k_pt of a and b is about 6.4e158, finite, and its square overflows
    sigma = lambda n1, n2: 1.0 if n1.label == n2.label else 1e160
    spec = CompositeParams(variant="CK2", pt=TreeKernelParams("SPTK", sigma=sigma, normalize=False))
    rows = vector_inputs([1.0], [2.0])
    fail_both_ways(spec, rows, NumericError, "a x b", "r x c1", "")


def test_slot_matrix_names_the_first_failing_pair_in_row_major_order():
    # kernel(x, y) = x * 10 + y, failing on the pairs in `bad`; the
    # failing cell's position in its row names it
    calls = []

    def slot(rows, cols, bad, normalized=False):
        calls.clear()

        def kernel(x, y):
            calls.append((x, y))
            if (x, y) in bad:
                raise ValueError(f"bad {x}{y}")
            return float(x * 10 + y)

        ids = lambda objs: tuple(f"i{x}" for x in objs)
        cells, selfs = combine._pairwise(rows, cols, kernel)
        return combine._slot_matrix(rows, cols, cells, selfs, ids(rows), ids(cols), normalized), calls

    def fails(rows, cols, bad, pair, evaluated, normalized=False):
        # the pairs evaluated are those before the failing one in
        # row-major order, and it, each once
        x, y = evaluated[-1]
        with pytest.raises(ValueError, match=f"^kernel failed on pair {pair}: bad {x}{y}$"):
            slot(rows, cols, bad, normalized)
        assert calls == evaluated

    objs = [1, 2, 3, 4]
    upper = [(x, y) for i, x in enumerate(objs) for y in objs[i:]]
    rect = [(x, y) for x in objs[:2] for y in objs]
    # square: only the upper triangle is evaluated, so (3, 2) never fails
    fails(objs, objs, {(2, 4), (2, 3), (3, 3)}, "i2 x i3", upper[:6])
    fails(objs, objs, {(3, 2), (2, 4)}, "i2 x i4", upper[:7])
    # rectangle: a later column of an earlier row fails first
    fails(objs[:2], objs, {(2, 1), (1, 4)}, "i1 x i4", rect[:4])
    fails(objs[:2], objs, {(2, 1), (2, 4)}, "i2 x i1", rect[:5])
    # a rectangle's self values: the row objects' first, then the columns'
    cells = [(1, 3), (1, 4), (2, 3), (2, 4)]
    fails([1, 2], [3, 4], {(2, 2), (3, 3)}, "i2 x i2", cells + [(1, 1), (2, 2)], normalized=True)
    selfs = [(1, 1), (2, 2), (3, 3), (4, 4)]
    fails([1, 2], [3, 4], {(4, 4)}, "i4 x i4", cells + selfs, normalized=True)
    # with nothing failing, each pair is evaluated once, in row-major
    # order, and the values are those of a cell-by-cell fill
    values, calls = slot(objs, objs, set())
    assert calls == [(x, y) for i, x in enumerate(objs) for y in objs[i:]]
    want = np.array([[x * 10 + y if y >= x else y * 10 + x for y in objs] for x in objs], dtype=float)
    assert values.tobytes() == want.tobytes()
    values, calls = slot(objs[:2], objs, set())
    assert calls == [(x, y) for x in objs[:2] for y in objs]
    assert values.tobytes() == np.array([[x * 10 + y for y in objs] for x in objs[:2]], dtype=float).tobytes()


def test_vector_of_another_shape_raises_poly_kernel_error_for_the_first_pair():
    rows = vector_inputs([1.0, 2.0, 3.0], [0.5, 1.0, 1.0], [1.0, 2.0])
    detail = re.escape("vector shapes differ: (3,) vs (2,)")
    fail_both_ways(composite("CK2"), rows, ValueError, "a x c", "r x c2", detail)
    # a later row fails first in a rectangle when the earlier rows agree
    detail = re.escape("vector shapes differ: (2,) vs (3,)")
    with pytest.raises(ValueError, match=f"^kernel failed on pair t1 x s0: {detail}"):
        kernel_matrix([rows[0], rows[2]], rows[:1], composite("CK2"), ("t0", "t1"), ("s0",))
    # a degree made invalid after validation fails on the first pair
    spec = composite("CK2")
    spec.vec_degree = 0
    detail = "polynomial degree must be a positive integer, got 0"
    fail_both_ways(spec, rows[:2], ConfigError, "a x a", "r x c0", detail)


def test_normalization_survives_underflowing_self_kernel_product():
    # each self kernel is about 1e-171 (1e169), so their product
    # underflows to 0 (overflows to inf) while the normalized value is 1
    for gate in (1e-170, 1e170):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = TreeKernelParams("SPTK", sigma=lambda n1, n2, gate=gate: gate)
            a, b = syn("a"), syn("b")
            value = tree_kernel(a, b, params)
            assert value == 1.0
            ids = ("a", "b")
            assert _tree_matrix([a, b], [a, b], params, ids, ids)[0, 1] == value
            assert _tree_matrix([a], [b], params, ids[:1], ids[1:])[0, 0] == value
            spec = PairKernelParams(base=params)
            # the second pair repeats the first one's tree objects, crossed
            for second in [(syn("c"), syn("d")), (b, a)]:
                pairs = [(a, b), second]
                expected = sm_tk(pairs[0], pairs[1], spec)
                assert math.isfinite(expected)
                assert kernel_matrix(pairs, pairs, spec)[0, 1] == expected
                assert kernel_matrix(pairs[:1], pairs[1:], spec)[0, 0] == expected


def test_kernel_matrix_rejects_unknown_spec():
    with pytest.raises(ConfigError, match="unsupported kernel spec str"):
        kernel_matrix([], [], "not a spec")


def test_kernel_matrix_requires_vectors_and_constituency_trees():
    a, b = make_inputs()
    no_vec = REKernelInput(lct=a.lct, vec=None, pet=a.pet)
    with pytest.raises(ConfigError, match="vectors .instance 1 has none"):
        kernel_matrix([a, no_vec], [a, no_vec], composite("CK2"))
    no_pet = REKernelInput(lct=b.lct, vec=b.vec, pet=None)
    with pytest.raises(ConfigError, match="CK3 requires constituency trees.*instance 0 has none"):
        kernel_matrix([a], [no_pet], composite("CK3"))
    # CK2 never reads constituency trees
    kernel_matrix([a], [no_pet], composite("CK2"))


# the square matrices SMO trains on, built by the same kernel_matrix

PAIRS = [
    (syn("a", syn("b"), syn("c")), syn("a", syn("b"), syn("d"))),
    (syn("a", syn("b")), syn("x", syn("b", syn("c")))),
    (syn("a", syn("c")), syn("boom", syn("b"))),
]


def pair_spec(sigma=indicator_sigma):
    return PairKernelParams(base=TreeKernelParams("SPTK", sigma=sigma))


def failing_sigma(error):
    """Indicator similarity that raises on the node labeled 'boom'."""

    def sigma(n1, n2):
        if "boom" in (n1.label, n2.label):
            raise error
        return indicator_sigma(n1, n2)

    return sigma


def test_kernel_matrix_square_values_and_exact_symmetry():
    spec = pair_spec()
    values = kernel_matrix(PAIRS, PAIRS, spec, row_ids=("a", "b", "c"))
    gram = GramMatrix(values=values, instance_ids=("a", "b", "c"), fingerprint="ff")
    assert values.shape == (3, 3)
    assert len(gram) == 3
    assert values[0, 1] == sm_tk(PAIRS[0], PAIRS[1], spec)
    assert values[2, 2] == sm_tk(PAIRS[2], PAIRS[2], spec)
    # mirrored from the upper triangle, so symmetric to the bit
    assert np.array_equal(values, values.T)


def test_kernel_matrix_default_ids_and_repeated_builds():
    # without ids, instances are named by position; repeated builds
    # give the same bits
    spec = pair_spec()
    assert np.array_equal(kernel_matrix(PAIRS, PAIRS, spec), kernel_matrix(PAIRS, PAIRS, spec))
    with pytest.raises(ValueError, match=r"pair 0 x 2"):
        kernel_matrix(PAIRS, PAIRS, pair_spec(failing_sigma(ValueError("boom"))))


def test_kernel_matrix_refuses_ids_of_another_length():
    with pytest.raises(ValueError, match="row_ids holds 2 ids for 3 payloads"):
        kernel_matrix(PAIRS, PAIRS, pair_spec(), row_ids=("a", "b"))
    with pytest.raises(ValueError, match="col_ids holds 1 ids for 3 payloads"):
        kernel_matrix(PAIRS[:1], PAIRS, pair_spec(), col_ids=("a",))


def test_kernel_matrix_names_the_failing_pair_by_its_ids():
    spec = pair_spec(failing_sigma(ValueError("boom")))
    with pytest.raises(ValueError, match=r"a x c"):
        kernel_matrix(PAIRS, PAIRS, spec, row_ids=("a", "b", "c"))


def test_kernel_matrix_names_the_pair_for_any_exception_type():
    # the type's constructor takes two arguments, so it cannot be rebuilt
    # from a message; the original is re-raised with the pair named
    spec = pair_spec(failing_sigma(PairFailure(7, "boom")))
    with pytest.raises(PairFailure, match=r"0 x 2.*boom") as info:
        kernel_matrix(PAIRS, PAIRS, spec)
    assert info.value.code == 7


def test_kernel_matrix_rejects_non_finite_values():
    # an infinite context vector makes the normalized polynomial kernel
    # inf / inf against any other instance
    lct = syn("a", syn("b"))
    inputs = [
        REKernelInput(lct=lct, vec=np.array([1.0, 0.0])),
        REKernelInput(lct=lct, vec=np.array([np.inf, 0.0])),
    ]
    with pytest.raises(NumericError, match=r"non-finite kernel value at 0 x 1"):
        kernel_matrix(inputs, inputs, CompositeParams("CK2"))


# --- serialization and fingerprints ----------------------------------------


def test_pair_spec_roundtrip():
    spec = pair_params()
    data = kernel_spec_to_dict(spec)
    assert data["task"] == "pi"
    again = kernel_spec_from_dict(data)
    assert kernel_spec_to_dict(again) == data


def test_composite_spec_roundtrip():
    spec = composite("CK3", alpha=0.23)
    data = kernel_spec_to_dict(spec)
    assert data["task"] == "re"
    assert data["feature_mode"] == "V_ud"
    again = kernel_spec_from_dict(data)
    assert kernel_spec_to_dict(again) == data


def test_spec_rejects_feature_mode_mismatch():
    data = kernel_spec_to_dict(composite("CK3"))
    data["feature_mode"] = "V_o"
    with pytest.raises(ConfigError, match="feature_mode"):
        kernel_spec_from_dict(data)


def test_sptk_spec_needs_binding():
    data = {
        "task": "pi",
        "m": 100.0,
        "base": {"kind": "SPTK", "lambda": 0.4, "mu": 0.4},
    }
    spec = kernel_spec_from_dict(data)
    assert spec.base.sigma_cfg is not None
    with pytest.raises(ConfigError, match="not bound"):
        spec.base.sigma(syn("a"), syn("a"))


def test_fingerprint_stability_and_sensitivity():
    base = kernel_spec_to_dict(composite("CK3"))
    assert kernel_fingerprint(base) == kernel_fingerprint(dict(reversed(base.items())))
    changed = kernel_spec_to_dict(
        CompositeParams(
            variant="CK3",
            sst=TreeKernelParams(kind="SST", lam=0.5),
            pt=TreeKernelParams(kind="PTK"),
        )
    )
    assert kernel_fingerprint(base) != kernel_fingerprint(changed)
    assert len(kernel_fingerprint(base)) == 16


SST, PTK = TreeKernelParams("SST"), TreeKernelParams("PTK")
SPTK = TreeKernelParams("SPTK", sigma=indicator_sigma)


# the kinds each tree kernel slot of a spec accepts
SLOT_KINDS = {"base": ("SST", "PTK", "SPTK"), "sst": ("SST",), "pt": ("PTK", "SPTK")}


def field_changes(obj, slot: str) -> dict:
    """Field name -> the replace() keywords that give it another valid
    value, for every JSON-reachable field of the spec object obj, which
    sits in the field named slot of its parent."""
    if isinstance(obj, TreeKernelParams):
        changes = {
            "lam": {"lam": 0.7},
            "mu": {"mu": 0.6},
            "normalize": {"normalize": not obj.normalize},
        }
        for kind in SLOT_KINDS[slot]:
            if kind != obj.kind:
                sigma = indicator_sigma if kind == "SPTK" else None
                changes["kind"] = {"kind": kind, "sigma": sigma, "sigma_cfg": None}
        if obj.kind == "SPTK":
            changes["sigma_cfg"] = {"sigma_cfg": SigmaConfig(mode="translate_then_compare")}
        return changes
    if isinstance(obj, SigmaConfig):
        return {
            "mode": {"mode": "translate_then_compare"},
            "pos_must_match": {"pos_must_match": not obj.pos_must_match},
            "oov_policy": {"oov_policy": "exact_match_fallback"},
            "lowercase": {"lowercase": not obj.lowercase},
        }
    if isinstance(obj, PairKernelParams):
        return {"base": {"base": SST if obj.base.kind != "SST" else PTK}, "m": {"m": 20.0}}
    assert isinstance(obj, CompositeParams)
    return {
        "variant": {"variant": "CK1" if obj.variant != "CK1" else "CK2"},
        "alpha": {"alpha": 0.5},
        "sst": {"sst": TreeKernelParams("SST", lam=0.7)},
        "pt": {"pt": SPTK if obj.pt.kind == "PTK" else PTK},
        "vec_degree": {"vec_degree": 3},
        "vec_coef0": {"vec_coef0": 0.5},
    }


def spec_objects(obj, path=()):
    """(path, object) for obj and every dataclass nested in it."""
    yield path, obj
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from spec_objects(value, path + (f.name,))


def replaced_at(spec, path: tuple, value):
    if not path:
        return value
    head = path[0]
    return replace(spec, **{head: replaced_at(getattr(spec, head), path[1:], value)})


def without_sigma(value):
    """asdict output with every tree kernel's bound sigma left out."""
    if isinstance(value, dict):
        return {k: without_sigma(v) for k, v in value.items() if k != "sigma"}
    return value


@pytest.mark.parametrize(
    "spec",
    [
        PairKernelParams(base=SST),
        PairKernelParams(base=PTK),
        PairKernelParams(base=SPTK),
        CompositeParams(variant="CK3"),
        CompositeParams(variant="CK2", pt=SPTK),
    ],
    ids=["pi-SST", "pi-PTK", "pi-SPTK", "re-CK3", "re-CK2-SPTK"],
)
def test_every_spec_field_is_written_and_fingerprinted(spec):
    before = kernel_fingerprint(kernel_spec_to_dict(spec))
    for path, obj in spec_objects(spec):
        changes = field_changes(obj, path[-1] if path else "")
        # no JSON key reaches the bound similarity, nor a non-SPTK
        # kernel's sigma block; the composite's sst slot holds SST only
        fixed = {"sigma"}
        if isinstance(obj, TreeKernelParams) and obj.kind != "SPTK":
            fixed.add("sigma_cfg")
        if path[-1:] == ("sst",):
            fixed.add("kind")
        assert set(changes) == {f.name for f in fields(obj)} - fixed, path
        for name, kw in changes.items():
            where = ".".join(path + (name,))
            other = replaced_at(spec, path, replace(obj, **kw))
            data = kernel_spec_to_dict(other)
            back = kernel_spec_from_dict(data)
            assert type(back) is type(other), where
            assert without_sigma(asdict(back)) == without_sigma(asdict(other)), where
            assert kernel_fingerprint(data) != before, where
