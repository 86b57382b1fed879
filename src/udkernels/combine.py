"""Kernel combination: smoothed-max pair kernel and composite kernels.

The pair kernel scores two sentence pairs by the better of the two
cross-pair alignments, using a log-sum-exp smooth maximum so the result
stays a well-behaved kernel. The composite kernels mix a dependency
tree kernel, a polynomial kernel on entity context vectors, and
optionally a constituency tree kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError
from .kernels import (
    TreeKernelParams,
    _check_degree,
    normalize,
    normalize_rows,
    poly_kernel,
    subtree_matrix,
    tree_kernel,
)
from .transforms import LabeledTree, labeled_from_sexpr, labeled_to_sexpr

VARIANTS = ("CK1", "CK2", "CK3")


def softmax2(x1: float, x2: float, m: float = 100.0) -> float:
    """Smooth maximum (1/m) * log(exp(m*x1) + exp(m*x2)).

    Evaluated as max + log1p(exp(-m*|x1 - x2|))/m so it never overflows;
    the result sits within log(2)/m above the true maximum.
    """
    if m <= 0:
        raise ConfigError(f"softmax sharpness must be positive, got {m}")
    return max(x1, x2) + math.log1p(math.exp(-m * abs(x1 - x2))) / m


@dataclass
class PairKernelParams:
    base: TreeKernelParams
    m: float = 100.0

    def __post_init__(self):
        if not 0 < self.m < math.inf:
            raise ConfigError(f"m (softmax sharpness) must be positive and finite, got {self.m}")


def sm_tk(pair_a, pair_b, params: PairKernelParams) -> float:
    """Smoothed maximum over the two cross-pair kernel products.

    pair_a and pair_b are (tree, tree) tuples.
    """
    a1, a2 = pair_a
    b1, b2 = pair_b
    tk = lambda x, y: tree_kernel(x, y, params.base)
    straight = tk(a1, b1) * tk(a2, b2)
    crossed = tk(a1, b2) * tk(a2, b1)
    return softmax2(straight, crossed, params.m)


@dataclass
class REKernelInput:
    """Prepared relation instance: dependency LCT, context vector, and
    the constituency fragment when the variant needs one."""

    lct: LabeledTree
    vec: np.ndarray | None = None
    pet: LabeledTree | None = None


def payload_to_dict(task: str, payload) -> dict:
    """JSON-ready form of a prepared payload, as model files store it:
    trees as s-expressions, the context vector as a list of floats."""
    if task == "pi":
        a, b = payload
        return {"a": labeled_to_sexpr(a), "b": labeled_to_sexpr(b)}
    if task == "re":
        return {
            "lct": labeled_to_sexpr(payload.lct),
            "pet": labeled_to_sexpr(payload.pet) if payload.pet is not None else None,
            "vec": [float(x) for x in payload.vec] if payload.vec is not None else None,
        }
    raise ValueError(f"unknown task {task!r}")


def payload_from_dict(task: str, data: dict):
    """Inverse of payload_to_dict."""
    if task == "pi":
        return (labeled_from_sexpr(data["a"]), labeled_from_sexpr(data["b"]))
    if task == "re":
        return REKernelInput(
            lct=labeled_from_sexpr(data["lct"]),
            pet=labeled_from_sexpr(data["pet"]) if data.get("pet") else None,
            vec=np.array(data["vec"], dtype=np.float64) if data.get("vec") is not None else None,
        )
    raise ValueError(f"unknown task {task!r}")


@dataclass
class CompositeParams:
    variant: str
    alpha: float = 0.23
    sst: TreeKernelParams = field(default_factory=lambda: TreeKernelParams("SST"))
    pt: TreeKernelParams = field(default_factory=lambda: TreeKernelParams("PTK"))
    vec_degree: int = 2
    vec_coef0: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown composite variant {self.variant!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.sst.kind != "SST":
            raise ConfigError("composite sst slot must hold an SST kernel")
        if self.pt.kind not in ("PTK", "SPTK"):
            raise ConfigError("composite pt slot must hold a PTK or SPTK kernel")
        _check_degree(self.vec_degree)
        if not math.isfinite(self.vec_coef0):
            raise ConfigError(f"coef0 must be finite, got {self.vec_coef0}")

    @property
    def feature_mode(self) -> str:
        """Entity context flavor: surface windows for CK1, dependency
        contexts for CK2 and CK3."""
        return "V_o" if self.variant == "CK1" else "V_ud"

    @property
    def reads_constituency(self) -> bool:
        """Whether the kernel adds alpha * K_sst on constituency fragments (CK1, CK3)."""
        return self.variant != "CK2"


def composite_kernel(a: REKernelInput, b: REKernelInput, params: CompositeParams) -> float:
    """Composite kernel over two prepared relation instances.

    CK2 = (K_vec + K_pt)^2 and never evaluates a constituency kernel;
    CK1 and CK3 add alpha * K_sst on the enclosing constituency
    fragment. Every sub-kernel is normalized by kernels.normalize: the
    vector term is normalize(poly(u, v), poly(u, u), poly(v, v)).
    """
    if a.vec is None or b.vec is None:
        raise ConfigError("composite kernel requires entity context vectors")
    k_pt = tree_kernel(a.lct, b.lct, params.pt)
    poly = lambda u, v: poly_kernel(u, v, params.vec_degree, params.vec_coef0)
    k_vec = normalize(poly(a.vec, b.vec), poly(a.vec, a.vec), poly(b.vec, b.vec))
    if not params.reads_constituency:
        return _composite_value(params, k_vec, k_pt)
    if a.pet is None or b.pet is None:
        raise ConfigError(f"{params.variant} requires constituency trees for both instances")
    return _composite_value(params, k_vec, k_pt, tree_kernel(a.pet, b.pet, params.sst))


def _composite_value(params: CompositeParams, k_vec: float, k_pt: float, k_sst=None) -> float:
    core = (k_vec + k_pt) ** 2
    if k_sst is None:
        return core
    return params.alpha * k_sst + (1.0 - params.alpha) * core


# ---------------------------------------------------------------------------
# Kernel matrices: train evaluates kernel_matrix(X, X, spec), predict
# kernel_matrix(test, supports, spec).


def _raise_named(exc: Exception, pair: str):
    """Re-raise exc, from its handler, with the failing pair named.

    An ArithmeticError, such as a float power's OverflowError, becomes a
    NumericError. A type that cannot be built from one message gets the
    message written into the original's args instead, so reporting a
    failure never raises an error of its own.
    """
    message = f"kernel failed on pair {pair}: {exc}"
    try:
        named = (NumericError if isinstance(exc, ArithmeticError) else type(exc))(message)
    except Exception:
        named = None
    if named is None:
        exc.args = (message,)
        raise exc
    raise named from exc


def _fill(values: np.ndarray, square: bool, row_cells, pair) -> np.ndarray:
    """values, filled in place row r from the iterable row_cells(r, start):
    its cells from column start on, where start is r in a square matrix
    (the upper triangle) and 0 otherwise. A cell that raises is named by
    pair(r, c), where c is start plus the cells its row already gave."""
    for r in range(len(values)):
        start = r if square else 0
        row: list = []
        try:
            row.extend(row_cells(r, start))
        except Exception as exc:
            _raise_named(exc, pair(r, start + len(row)))
        values[r, start:] = row
    return values


def _mirror(values: np.ndarray):
    """Copy a square matrix's upper triangle into its lower one, in place."""
    for i in range(1, len(values)):
        values[i, :i] = values[:i, i]


# Cells per normalization block in _finish: whole rows, at least one,
# so its temporaries stay a fixed size however large the matrix grows.
_BLOCK_CELLS = 1 << 12


def _finish(values: np.ndarray, square: bool, s_row, s_col) -> np.ndarray:
    """values normalized in place by the self values s_row and s_col,
    unless they are None; then a square matrix's upper triangle is
    mirrored into its lower one.

    kernels.normalize_rows normalizes a block of whole rows at a time,
    as many as _BLOCK_CELLS cells hold (at least one row), with the bits
    kernels.normalize gives each cell. A square block starts at its
    first row's diagonal: the cells it holds left of a later row's
    diagonal are normalized too, and the mirror then overwrites them.
    """
    if s_row is not None:
        step = max(1, _BLOCK_CELLS // max(1, values.shape[1]))
        for i in range(0, len(values), step):
            start = i if square else 0
            block = values[i : i + step, start:]  # a view, normalized in place
            block[:] = normalize_rows(block, s_row[i : i + step], s_col[start:])
    if square:
        _mirror(values)
    return values


def _pairwise(rows: list, cols: list, kernel) -> tuple:
    """The cells and self values of a slot whose kernel is called pair
    by pair: cells(r, start) gives kernel(rows[r], y) for each column
    object y from start on, and selfs() kernel(x, x) for each row object
    x and then each column object."""
    cells = lambda r, start: (kernel(rows[r], y) for y in cols[start:])
    selfs = lambda: (kernel(x, x) for x in [*rows, *cols])
    return cells, selfs


def _slot_matrix(rows: list, cols: list, cells, selfs, row_ids, col_ids, normalized=True) -> np.ndarray:
    """One slot's kernel values between its row and column objects, from
    the row functions cells and selfs (see _pairwise).

    Raw values are filled by _fill from cells, only the upper triangle
    when cols is rows. Self values are a square matrix's diagonal; in a
    rectangle, the values selfs() gives, also filled by _fill. The ids
    name each object's instance when a value fails. _finish then
    normalizes the matrix (unless normalized is false) and mirrors a
    square one.
    """
    square = cols is rows
    pair = lambda r, c: f"{row_ids[r]} x {col_ids[c]}"
    values = _fill(np.zeros((len(rows), len(cols))), square, cells, pair)
    s_row = s_col = None
    if normalized and square:
        s_row = s_col = values.diagonal().copy()
    elif normalized:
        # one row whose cell c is object c against itself
        ids = (*row_ids, *col_ids)
        self_pair = lambda r, c: f"{ids[c]} x {ids[c]}"
        s = _fill(np.zeros((1, len(ids))), False, lambda r, start: selfs(), self_pair)[0]
        s_row, s_col = s[: len(rows)], s[len(rows) :]
    return _finish(values, square, s_row, s_col)


def _vector_cells(rows: list, cols: list, spec: CompositeParams) -> tuple:
    """The cells and self values of the context-vector slot, as
    _slot_matrix reads them: poly_kernel(u, v, degree, coef0) of each
    pair of the vectors kernel_matrix has checked.

    The vectors are stacked once into C-contiguous float64 rows, so no
    value depends on a vector's memory layout. Each row's dots are one
    np.vecdot call, which runs the inner loop np.dot runs and so gives
    poly_kernel's bits; a rectangle's self values are one np.vecdot of
    the stacked vectors with themselves. A cell stays poly_kernel's
    Python float expression over its dot, so a power that overflows
    raises at its pair. A dot that is not finite is taken again by
    np.dot on its stacked rows, which warns as a per-pair dot does.
    """
    degree, coef0 = spec.vec_degree, spec.vec_coef0
    vectors = [*rows, *cols]
    dim = len(vectors[0]) if vectors else 0
    stack = lambda vs: np.array(vs, dtype=np.float64).reshape(len(vs), dim)
    row_stack = stack(rows)
    col_stack = row_stack if cols is rows else stack(cols)

    def polys(dots: np.ndarray, left, right):
        # (dot + coef0) ** degree per dot of left[k] and right[k]
        if np.isfinite(dots).all():
            return ((d + coef0) ** degree for d in dots.tolist())
        return (
            ((d if math.isfinite(d) else float(np.dot(u, v))) + coef0) ** degree
            for d, u, v in zip(dots.tolist(), left, right)
        )

    def cells(r: int, start: int):
        with np.errstate(all="ignore"):
            dots = np.vecdot(row_stack[r], col_stack[start:])
        return polys(dots, itertools.repeat(row_stack[r]), col_stack[start:])

    def selfs():
        every = stack(vectors)
        with np.errstate(all="ignore"):
            dots = np.vecdot(every, every)
        return polys(dots, every, every)

    return cells, selfs


def _tree_matrix(rows: list, cols: list, params: TreeKernelParams, row_ids, col_ids) -> np.ndarray:
    """tree_kernel values between row and column trees.

    SST and PTK raw values, and a rectangle's self values, come from one
    kernels.subtree_matrix call. A non-finite one raises the NumericError
    its tree_kernel call would, named from its indices: a cell first,
    then a row tree's self value, then a column tree's. Every SPTK pair
    and self value is one tree_kernel call, via _slot_matrix. All of them
    share one memo of child-subsequence totals, which kernels._MEMO_CAP
    bounds.
    """
    memo: dict = {}
    if params.kind == "SPTK":
        raw = replace(params, normalize=False)
        kernel = lambda t1, t2: tree_kernel(t1, t2, raw, memo)
        return _slot_matrix(rows, cols, *_pairwise(rows, cols, kernel), row_ids, col_ids, params.normalize)
    values, s_row, s_col = subtree_matrix(rows, cols, params, memo)
    failed = [f"{row_ids[i]} x {col_ids[j]}" for i, j in np.argwhere(~np.isfinite(values))[:1]]
    if s_row is not None:
        for selfs, ids in ((s_row, row_ids), (s_col, col_ids)):
            failed += [f"{ids[i]} x {ids[i]}" for i in np.flatnonzero(~np.isfinite(selfs))[:1]]
    if failed:
        overflowed = f"{params.kind} kernel overflowed; use smaller lambda/mu or normalization"
        raise NumericError(f"kernel failed on pair {failed[0]}: {overflowed}")
    return _finish(values, cols is rows, s_row, s_col)


def _ids(ids, payloads: list, name: str) -> tuple:
    ids = tuple(map(str, range(len(payloads)))) if ids is None else tuple(ids)
    if len(ids) != len(payloads):
        raise ValueError(f"{name} holds {len(ids)} ids for {len(payloads)} payloads")
    return ids


def kernel_matrix(rows: list, cols: list, spec, row_ids=None, col_ids=None) -> np.ndarray:
    """Kernel values between every row and every column payload.

    Pass one list as rows and cols for a training Gram: only its upper
    triangle is evaluated and the lower one mirrors it. Each pair is
    evaluated once, and the first that fails, in row-major order, is
    named by row_ids and col_ids (positions by default; a square
    matrix's columns take the row ids). An overflow or other arithmetic
    error, and a non-finite value, raise NumericError. Cells are the
    scalar expressions of sm_tk and composite_kernel, over Python floats,
    read from one matrix per slot: the trees of a pair, or a composite
    kernel's LCTs, constituency fragments and context vectors, whose
    dots are taken a row at a time by np.vecdot (see _vector_cells).
    Each slot matrix is normalized in row blocks of at most
    _BLOCK_CELLS cells (or one row), so no temporary grows with n².

    Composite payloads are checked first, and a refusal names the
    instance: a missing vector or constituency fragment (ConfigError),
    or a vector that, read as float64, is not 1-D or not as long as the
    first (ValueError). The degree must be an int >= 1 (ConfigError).
    """
    if not isinstance(spec, (PairKernelParams, CompositeParams)):
        raise ConfigError(f"unsupported kernel spec {type(spec).__name__}")
    square = cols is rows
    row_ids = _ids(row_ids, rows, "row_ids")
    col_ids = _ids(row_ids if square and col_ids is None else col_ids, cols, "col_ids")

    if isinstance(spec, PairKernelParams):
        def flat(payloads: list, ids: tuple):
            # instance r holds trees 2r and 2r + 1, both named by its id
            return [t for pair in payloads for t in pair], [i for i in ids for _ in (0, 1)]

        row_trees, row_tree_ids = flat(rows, row_ids)
        col_trees, col_tree_ids = (row_trees, row_tree_ids) if square else flat(cols, col_ids)
        t = _tree_matrix(row_trees, col_trees, spec.base, row_tree_ids, col_tree_ids)

        def cells(r: int, start: int):
            first, second = t[2 * r].tolist(), t[2 * r + 1].tolist()
            return (
                softmax2(first[2 * c] * second[2 * c + 1], first[2 * c + 1] * second[2 * c], spec.m)
                for c in range(start, len(cols))
            )

    else:
        required = {"vec": "composite kernel requires entity context vectors"}
        if spec.reads_constituency:
            required["pet"] = f"{spec.variant} requires constituency trees for both instances"
        named = [*zip(row_ids, rows), *zip(col_ids, cols)]
        for attr, message in required.items():
            for iid, payload in named:
                if getattr(payload, attr) is None:
                    raise ConfigError(f"{message} (instance {iid} has none)")
        vectors = [np.asarray(payload.vec, dtype=np.float64) for _, payload in named]
        for (iid, _), vec in zip(named, vectors):
            if vec.ndim != 1 or vec.shape != vectors[0].shape:
                shapes = f"instance {iid} has shape {vec.shape}, the first {vectors[0].shape}"
                raise ValueError(f"context vectors must be 1-D and as long as the first: {shapes}")
        _check_degree(spec.vec_degree)

        def slot(attr: str) -> tuple:
            objects = [getattr(x, attr) for x in rows]
            return objects, objects if square else [getattr(x, attr) for x in cols]

        pt = _tree_matrix(*slot("lct"), spec.pt, row_ids, col_ids)
        sst = _tree_matrix(*slot("pet"), spec.sst, row_ids, col_ids) if "pet" in required else None
        vecs = slot("vec")
        vec = _slot_matrix(*vecs, *_vector_cells(*vecs, spec), row_ids, col_ids)
        alpha, beta = spec.alpha, 1.0 - spec.alpha

        def cells(r: int, start: int):
            # _composite_value's expression over row r from column start on
            k_vec, k_pt = vec[r, start:].tolist(), pt[r, start:].tolist()
            if sst is None:
                return ((v + p) ** 2 for v, p in zip(k_vec, k_pt))
            k_sst = sst[r, start:].tolist()
            return (alpha * s + beta * (v + p) ** 2 for v, p, s in zip(k_vec, k_pt, k_sst))

    pair = lambda r, c: f"{row_ids[r]} x {col_ids[c]}"
    values = _fill(np.zeros((len(rows), len(cols))), square, cells, pair)
    if square:
        _mirror(values)
    if not np.all(np.isfinite(values)):
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise NumericError(f"non-finite kernel value at {row_ids[r]} x {col_ids[c]}")
    return values
