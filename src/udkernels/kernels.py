"""Tree kernels as decayed counts of shared tree fragments.

Three fragment spaces are supported. SST counts production-closed
fragments: a node either keeps all of its children or stops. PTK counts
any order-preserving fragment, scoring child subsequences with a
gap-weighted subsequence recursion, which at each subsequence length
fills only the cells where a subsequence of that length can end (all
of them when the length-1 sum is not finite, as an inf or nan child
delta makes it). SPTK is PTK with the exact-label
gate replaced by a node similarity score, so lexically different but
related nodes can still match.

Each tree is indexed in postorder once, on its first kernel call, and
keeps that index, one transforms.TreeIndex that all three kinds read.
The SST and PTK programs visit only the node pairs whose productions or
labels match (the fast tree kernel of Moschitti, EACL 2006); SPTK
scores every pair, since any two nodes may be similar.

A node pair's SST or PTK delta depends only on the two subtrees under
it, and trees repeat subtrees: every relation and POS leaf of a
lexical-centred tree, every word without dependents. subtree_matrix,
the one SST/PTK kernel-matrix primitive, therefore interns the nodes of
its row trees into a table of distinct subtrees, keyed by label and
child subtree ids, that lives for that call only (the forest-as-DAG
idea of Aiolli, Da San Martino, Sperduti and Moschitti, ICDM 2006). It
then takes the column trees one at a time. Per column tree it gives one
row of n2 deltas to each distinct subtree whose label (PTK) or
production (SST) occurs in that tree; every other subtree shares one
zero row. SST keeps a map from each production to the ascending ids of
the subtrees that carry it, so a column tree visits only the subtrees
that share one of its productions (the fast tree kernel's skip of
non-matching pairs, applied to the subtree table). Their rows form one
numpy array, where each production's subtrees hold one run of rows,
filled node of the column tree by node, in postorder, so the entries a
pair reads at its children are final; a node fills its production's
rows in one pass of elementwise numpy operations per child, which round
as Python floats do, in the per-pair order, so the bits are the same.
PTK fills one array('d') row per subtree, in ascending id, so children
come first: its time goes to the child-subsequence totals, not to the
scan of ids, and on a flat scheme (child rows as memoryview slices of
one array('d')) it ran slower. A cell is the numpy sum of the (n1, n2)
array that stacks those rows in the row tree's postorder: the same
floats in the same places as a per-pair program's delta table, so the
same value bit for bit. Row trees that share a node count n are summed
together: one gather of their stacked arrays, viewed as (k, n * n2),
then one sum along its rows. Each row is the C-contiguous array a lone
sum would reduce, and numpy sums a contiguous row in the order it sums
that array alone, so the bits are the same (test_kernel_buckets checks
this assumption). A gather holds at most _GATHER_CAP floats, or one
tree's cells; a larger group is summed in chunks. A node count that
only one row tree has is a group of one. The rows are dropped before
the next column tree. A scalar SST or PTK tree_kernel is subtree_matrix
over one row and one column tree, self values included, and
delta_matrix goes through the same table, over one row tree.

A normalized rectangle also needs each tree's value against itself,
and takes it from the same table. The column trees are interned after
the row trees, and a column's block also fills the rows of the column
tree's own subtrees that no row tree holds, so its self value is the
sum of its own rows in the block its cells read. Each row tree's self
value takes one more column, the tree itself, over only its own ids. A
row holds the same floats in any table, so a self value has the bits
of a one-tree table's. normalize_rows then normalizes a block of whole
matrix rows at a time (combine._finish bounds its cells), with the bits
normalize gives each cell.

SPTK keeps one program per tree pair, since its node similarity sees
whole nodes. It fills one flat array('d') of n1 * n2 floats, the delta
of nodes i and j at i * n2 + j, and reads a node's child rows through
memoryview slices of it. Every program reads and writes plain Python
floats, and every float operation keeps the order of the numpy-table
formulation, so values match it bit for bit.

In PTK a node pair with a childless node has no child subsequences,
and its delta is the constant mu * lam^2, so a childless subtree fills
its label bucket with that constant in one loop. The PTK/SPTK
child-subsequence total of a pair of nodes with children depends only
on lambda and the child deltas it reads, and in lexical-centred trees
the same inputs recur: every word without dependents has the same two
leaf children. The programs therefore take a memo of totals keyed by
those deltas. combine._tree_matrix keeps one for a whole kernel matrix;
a scalar call uses a fresh one. A memo is emptied when it reaches
_MEMO_CAP entries, a fixed bound on its memory: a hit returns the float
a miss computes, so emptying it changes no value.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .lexical import SigmaConfig
from .transforms import LabeledTree, TreeIndex

KINDS = ("SST", "PTK", "SPTK")

@dataclass
class TreeKernelParams:
    kind: str
    lam: float = 0.4  # SST: decay per node; PTK/SPTK: decay per child-sequence span
    mu: float = 0.4  # decay per node, PTK and SPTK only
    sigma: Callable | None = None  # node similarity, SPTK only
    sigma_cfg: SigmaConfig | None = None  # describes sigma; SigmaConfig() for SPTK by default
    normalize: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.lam <= 1.0:
            raise ConfigError(f"lambda must be in (0, 1], got {self.lam}")
        if not 0.0 < self.mu <= 1.0:
            raise ConfigError(f"mu must be in (0, 1], got {self.mu}")
        if self.kind == "SPTK":
            if self.sigma is None:
                raise ConfigError("SPTK requires a node similarity function")
            if self.sigma_cfg is None:
                self.sigma_cfg = SigmaConfig()


@dataclass
class DeltaMatrix:
    """Per node-pair fragment sums, with node labels for inspection."""

    row_labels: tuple
    col_labels: tuple
    values: np.ndarray

    def to_tsv(self) -> str:
        lines = ["\t" + "\t".join(self.col_labels)]
        for label, row in zip(self.row_labels, self.values):
            lines.append(label + "\t" + "\t".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


_ZERO = array("d", [0.0])


def _zeros(n: int) -> array:
    """A flat buffer of n zero doubles. Repeating a one-item array is
    quicker than converting n*8 zero bytes."""
    return _ZERO * n


# The most child-subsequence totals one memo holds: a miss on a full
# memo empties it first. Hits return the float a miss computes, so the
# cap bounds memory without changing a value.
_MEMO_CAP = 512

# The most floats one grouped gather of subtree_matrix holds; a group of
# row trees larger than that is summed in chunks, at least one tree per
# chunk. Each tree's sum is the same float in any chunk, so the cap
# bounds memory without changing a value. 2^14 sums the benchmark's
# groups as fast as 2^17 did, with a smaller peak.
_GATHER_CAP = 1 << 14


def _subseq_sum(rows: list, ch2: tuple, lam: float) -> float:
    """Sum over equal-length ordered child subsequence pairs of
    lam^(span1 + span2) times the product of child deltas. rows holds
    one delta row per child of the first node, and ch2 the positions of
    the second node's children in those rows.

    span counts positions from the first to the last picked child
    inclusive, so gaps inside a subsequence decay the term.

    A subsequence of length p ends at child p or later, so level p's
    terms lie in rows and columns >= p and their prefix sums in rows and
    columns >= p - 1; every cell outside that triangle is an exact zero
    (+0.0 in the prefix sums, +-0.0 among the terms, which leave a level
    sum unchanged). The recursion fills only the triangle when the
    level-1 sum is finite, which it can be only if every child delta is
    finite. A skipped cell would multiply an inf or nan delta by zero to
    nan, so otherwise every cell is filled; the bits are the full
    table's either way.
    """
    a, b = len(rows), len(ch2)
    lam2 = lam * lam
    # The tables are lists of Python floats, since per-cell numpy scalar
    # indexing and arithmetic cost more than the arithmetic itself. Every
    # float operation keeps the order of the numpy-table formulation, so
    # results match it bit for bit.
    # D[x - 1][y - 1]: delta of child x of the first node and child y of
    # the second. T[x][y]: current-length terms whose subsequences end
    # exactly at those children (1-based); row 0 and column 0 stay zero.
    zeros = [0.0] * (b + 1)
    D, T = [], [zeros]
    for r in rows:
        d = [r[c2] for c2 in ch2]
        D.append(d)
        T.append([0.0, *[lam2 * v for v in d]])
    # numpy sums the zero-padded table, so its pairwise order is unchanged
    total = float(np.array(T).sum())
    finite = math.isfinite(total)
    for p in range(2, min(a, b) + 1):
        # the first row and column that level p - 1 can hold
        s = p - 1 if finite else 1
        # R: lam-discounted 2d prefix sums of T, so extending both
        # subsequences by one picked child costs lam^(gap+1) per side;
        # only rows < a and columns < b are ever read
        R = [zeros] * s
        for x in range(s, a):
            t, up = T[x], R[x - 1]
            r = [0.0] * b
            for y in range(s, b):
                r[y] = t[y] + lam * up[y] + lam * r[y - 1] - lam2 * up[y - 1]
            R.append(r)
        T = [zeros] * (s + 1)
        level = 0.0
        for x in range(s + 1, a + 1):
            row, prev = D[x - 1], R[x - 1]
            t = [0.0] * (b + 1)
            for y in range(s + 1, b + 1):
                d = row[y - 1]
                if d != 0.0:
                    v = d * lam2 * prev[y - 1]
                    t[y] = v
                    level += v
            T.append(t)
        if level == 0.0:
            break
        total += level
    return total


def _child_total(rows: list, ch2: tuple, lam: float, memo: dict) -> float:
    """lam^2 + _subseq_sum for a node pair whose nodes both have children.

    memo maps a child-delta input, (len(rows), *deltas read row by row),
    to its total, which depends on nothing else for a fixed lam; so one
    memo must serve one lam only. A hit returns the float a miss
    computed from equal inputs, and a NaN input never hits.
    """
    key = (len(rows), *[r[c2] for r in rows for c2 in ch2])
    total = memo.get(key)
    if total is None:
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        total = memo[key] = lam * lam + _subseq_sum(rows, ch2, lam)
    return total


class _Subtrees:
    """The distinct subtrees of the row trees of one SST or PTK call.

    A node is interned by its label and its children's subtree ids, so
    equal subtrees share one id wherever they occur. Ids follow postorder
    of first appearance: a child's id is below its parent's, and the
    trees added first hold the lowest ids. Per id the table keeps its
    key, read from the tree's TreeIndex (the label for PTK, the
    production for SST), and the child ids. SST also marks the subtrees
    whose children are all leaves, which match as one unit, and maps
    each production to the ascending ids that carry it, so a column tree
    visits only the subtrees that share one of its productions. Its
    first column, once every tree of the call is added, puts every
    subtree's child ids and unit mark into numpy arrays, so a column
    fills a production's rows in one pass per child position.
    """

    __slots__ = ("sst", "ids", "keys", "children", "atomic", "by_prod", "arrays")

    def __init__(self, kind: str):
        self.sst = kind == "SST"
        self.ids: dict = {}
        self.keys: list = []
        self.children: list = []
        self.atomic: list = []
        self.by_prod: dict = {}
        self.arrays: tuple | None = None

    def add(self, tree: LabeledTree) -> np.ndarray:
        """Intern tree's nodes; their subtree ids in postorder."""
        ix = tree.index
        keys, atomic = ix.sst if self.sst else (ix.labels, None)
        ids, sids = self.ids, []
        for i, (key, kids) in enumerate(zip(keys, ix.children)):
            child_ids = tuple([sids[c] for c in kids])
            s = ids.setdefault((key, child_ids), len(ids))
            if s == len(self.keys):
                self.keys.append(key)
                self.children.append(child_ids)
                if self.sst:
                    self.by_prod.setdefault(key, []).append(s)
                    self.atomic.append(atomic[i])
            sids.append(s)
        return np.array(sids, dtype=np.intp)

    def _child_arrays(self) -> tuple:
        """(starts, flat, units, arity) for SST: every subtree's child
        ids, in id order, in one flat array that subtree s reads from
        starts[s]; which subtrees match as one unit; and each subtree's
        number of children. Built on the first column, once every tree
        of the call is added, and again only if the table has grown."""
        if self.arrays is None or len(self.arrays[0]) != len(self.keys):
            arity = np.fromiter(map(len, self.children), np.intp, len(self.children))
            starts = np.zeros(len(arity), np.intp)
            np.cumsum(arity[:-1], out=starts[1:])
            flat = np.fromiter(itertools.chain(*self.children), np.intp)
            self.arrays = (starts, flat, np.array(self.atomic, dtype=bool), arity)
        return self.arrays

    def column(self, t2: LabeledTree, count: int, params: TreeKernelParams, memo: dict, extra=()):
        """The deltas of subtrees 0..count-1, and of the ascending ids in
        extra (all >= count), against the nodes of t2, as (block, where):
        a row tree's (n1, n2) node-pair deltas, in both trees' postorder,
        are block[where[ids]] for its subtree ids.

        Each of those subtrees whose bucket key occurs in t2 gets a row of
        block; every other id maps to the shared zero row 0. A row holds
        the floats the node-pair program writes for any node rooted at
        that subtree. SST visits only the ids of t2's productions and
        fills their rows node of t2 by node of t2 in postorder, one
        production's rows at a time; PTK visits every id and fills one
        row at a time, in ascending id. Either way a pair's child
        entries are final before the pair reads them: extra holds ids of
        t2's own subtrees, and a subtree's children are among them or
        below count.
        """
        ix2 = t2.index
        size = extra[-1] + 1 if extra else count
        if self.sst:
            return self._sst_column(ix2, count, extra, size, params.lam)
        n2 = len(ix2.children)
        rows, where = [_zeros(n2)], [0] * size
        self._ptk_rows(rows, where, ix2, params, memo, count, extra)
        block = np.frombuffer(b"".join(rows)).reshape(len(rows), n2)
        return block, np.array(where, dtype=np.intp)

    def _sst_column(self, ix2: TreeIndex, count: int, extra, size: int, lam: float):
        """column's (block, where) for SST: block is one (rows, n2)
        array, row 0 all zero.

        Only subtrees whose production occurs in t2 get a row, taken from
        the production's ascending ids below count, then its ids in
        extra, t2's productions in the order they first occur in its
        postorder; so a production's subtrees hold one run of rows, its
        group. The block is filled node of t2 by node of t2, in
        postorder, so the entries of j's children are final before j
        reads them, and each node fills only its own production's group
        (only node pairs with equal productions can share a fragment).
        A pair is lam when either node's children are all leaves, else
        lam times 1 + the child pair's delta, child by child. A group's
        entries against j are one numpy pass per child position:
        elementwise IEEE adds and multiplies, in child order, so each
        entry has the bits of the per-pair program's product. A unit row
        reads its children from the zero row, and x * (1.0 + 0.0) is x.
        Overflow gives inf without a warning, as Python floats do.
        """
        children2, n2 = ix2.children, len(ix2.children)
        prods2, atomic2 = ix2.sst
        starts, flat, units, arities = self._child_arrays()
        own: dict = {}
        for s in extra:
            own.setdefault(self.keys[s], []).append(s)
        kept, groups, rows = [], {}, 1
        for prod in dict.fromkeys(prods2):
            entry = self.by_prod.get(prod)
            if entry is None:
                continue
            ids = entry[: bisect_left(entry, count)]
            if own:
                ids += own.get(prod, ())
            if ids:
                kept += ids
                groups[prod] = rows, rows + len(ids)
                rows += len(ids)
        kept = np.array(kept, dtype=np.intp)
        block = np.zeros((rows, n2))
        where = np.zeros(size, dtype=np.intp)
        where[kept] = np.arange(1, rows)
        # the block rows of the kept subtrees' children, one row per child
        # position up to the widest kept arity, block row r's at column r;
        # a unit subtree, and one with fewer children, reads the zero row
        base, arity = starts[kept], arities[kept]
        positions = np.arange(arity.max(initial=0))
        arity[units[kept]] = 0
        read = positions < arity[:, None]
        child_rows = np.zeros((len(positions), rows), dtype=np.intp)
        child_rows.T[1:][read] = where[flat[(base[:, None] + positions)[read]]]
        with np.errstate(all="ignore"):
            for j, (prod, unit) in enumerate(zip(prods2, atomic2)):
                group = groups.get(prod)
                if group is None:
                    continue
                first, last = group
                # a node whose production bottoms out in leaves matches as
                # a single unit, the production itself admits no sub-choices
                if unit:
                    block[first:last, j] = lam
                    continue
                # lam * (1 + d1) * (1 + d2) ..., left to right; IEEE adds
                # and multiplies commute, so d + 1.0 is 1.0 + d and
                # (1 + d1) * lam is lam * (1 + d1), bit for bit
                kids = zip(child_rows, children2[j])
                at, cj = next(kids)
                val = block[at[first:last], cj]
                val += 1.0
                val *= lam
                for at, cj in kids:
                    factor = block[at[first:last], cj]
                    factor += 1.0
                    val *= factor
                block[first:last, j] = val
        return block, where

    def _ptk_rows(self, rows: list, where: list, ix2: TreeIndex, params, memo: dict, count, extra):
        lam, mu, n2 = params.lam, params.mu, len(ix2.children)
        buckets, children2 = ix2.buckets, ix2.children
        keys, children = self.keys, self.children
        # a pair's delta is mu * gate * total with the exact-label gate 1.0
        # (and mu * 1.0 is mu); a pair with a childless node has no child
        # subsequences, so its total is lam^2
        leaf = mu * (lam * lam)
        for s, label, kids in itertools.chain(
            zip(range(count), keys, children),
            zip(extra, map(keys.__getitem__, extra), map(children.__getitem__, extra)),
        ):
            cols = buckets.get(label)
            if cols is None:
                continue
            where[s] = len(rows)
            row = _zeros(n2)
            rows.append(row)
            if not kids:
                for j in cols:
                    row[j] = leaf
                continue
            child_rows = [rows[where[c]] for c in kids]
            for j in cols:
                ch2 = children2[j]
                row[j] = mu * _child_total(child_rows, ch2, lam, memo) if ch2 else leaf


def _own_ids(sids: np.ndarray, count: int) -> list:
    """A tree's distinct subtree ids at or above count, ascending."""
    return sorted(set(sids[sids >= count].tolist()))


def _own_sum(block: np.ndarray, where: np.ndarray, sids: np.ndarray) -> float:
    """A tree's raw kernel against itself from a column over its own
    ids: its (n, n) deltas, summed as a per-pair program's table."""
    return float(block.take(where.take(sids), axis=0).sum())


def subtree_matrix(rows: list, cols: list, params: TreeKernelParams, memo: dict) -> tuple:
    """(values, row_self, col_self): raw SST or PTK values of every row
    tree against every column tree, and, when params.normalize, each
    tree's raw value against itself (both None otherwise). When cols is
    rows, values holds only the upper triangle, the rest stays 0, and
    both self-value arrays are its diagonal.

    The row trees are interned into one _Subtrees table. Each column tree
    then gets one block of subtree rows, over the ids its cells need
    (those of row trees 0..c for column c of a square matrix), and a cell
    is the sum of the block's rows taken in the row tree's postorder: the
    (n1, n2) node-pair deltas, in the float positions of a per-pair
    program, so the value is the same bit for bit. Row trees are grouped
    by node count once per call. A group's cells in one column come from
    one gather, (k * n1, n2) floats viewed as (k, n1 * n2), and one sum
    along its rows, which gives each row the bits of its lone sum; a
    gather over _GATHER_CAP floats is split into chunks of whole trees.
    In a square matrix a group takes only its members 0..c; a row tree
    whose node count no other row tree shares is a group of one. A column's
    sums fill a buffer ordered by node count, where each group's are one
    slice, and are scattered to the rows once per column. The block is
    dropped before the next column. memo holds child-subsequence totals
    (_child_total) and must serve one lam only.

    A rectangle's self values come from the same table. The column trees
    are interned after the row trees, and a column's block also fills the
    rows of its own subtrees that no row tree holds, so its self value is
    the sum of its own rows in that block. Each row tree's comes from one
    more column, itself, over only its own ids. A row is the same floats
    in any table, so each self value has the bits of a one-tree table's.
    """
    square = cols is rows
    selfs = params.normalize
    values = np.zeros((len(rows), len(cols)))
    table = _Subtrees(params.kind)
    sids, counts = [], []
    for tree in rows:
        sids.append(table.add(tree))
        counts.append(len(table.keys))
    row_subtrees = len(table.keys)  # the ids the row trees hold
    col_sids = [table.add(tree) for tree in cols] if selfs and not square else None
    # the row trees sorted stably by node count, so each count's trees
    # hold one run of positions, in ascending row order
    order = sorted(range(len(rows)), key=lambda r: len(sids[r]))
    runs, start = [], 0
    for n, run in itertools.groupby(order, key=lambda r: len(sids[r])):
        members = list(run)
        runs.append((start, members, n, np.concatenate([sids[r] for r in members])))
        start += len(members)
    order = np.array(order, dtype=np.intp)
    col_self = np.zeros(len(cols))
    for c, t2 in enumerate(cols):
        if square:
            block, where = table.column(t2, counts[c], params, memo)
        else:
            extra = () if col_sids is None else _own_ids(col_sids[c], row_subtrees)
            block, where = table.column(t2, row_subtrees, params, memo, extra)
            if col_sids is not None:
                col_self[c] = _own_sum(block, where, col_sids[c])
        column, n2 = np.zeros(len(rows)), block.shape[1]  # in sorted order
        for start, members, n, ids in runs:
            k = bisect_right(members, c) if square else len(members)
            step = max(1, _GATHER_CAP // (n * n2))
            # take gathers the same rows as fancy indexing, in about half the time
            for a in range(0, k, step):
                b = min(a + step, k)
                cells = block.take(where.take(ids[a * n : b * n]), axis=0)
                column[start + a : start + b] = cells.reshape(b - a, n * n2).sum(axis=1)
        values[order, c] = column
    if not selfs:
        return values, None, None
    if square:
        diagonal = values.diagonal().copy()
        return values, diagonal, diagonal
    row_self = np.zeros(len(rows))
    for r, tree in enumerate(rows):
        block, where = table.column(tree, 0, params, memo, _own_ids(sids[r], 0))
        row_self[r] = _own_sum(block, where, sids[r])
    return values, row_self, col_self


def _sptk_matrix(t1: LabeledTree, t2: LabeledTree, params: TreeKernelParams, memo: dict):
    """The SPTK node-pair deltas of t1 and t2 in postorder: an (n1, n2)
    view of one flat buffer, the delta of nodes i and j at i * n2 + j.

    sigma is opaque, so every node pair is scored, row by row. A gate is
    a number (float, int, bool or numpy scalar), whose truth value is
    that of float(gate) != 0, so only nonzero gates are converted by
    float, and the row holds the floats that testing float(gate) would
    give. A childless row node has no child subsequences, so its gated
    pairs are mu * gate * lam^2, in a loop of their own. Other rows read
    their child rows through memoryview slices of the buffer, taken on
    the row's first gated pair of nodes that both have children.
    """
    ix1, ix2 = t1.index, t2.index
    children1, children2 = ix1.children, ix2.children
    nodes2 = ix2.nodes(t2)
    lam, mu, sigma = params.lam, params.mu, params.sigma
    lam2 = lam * lam
    n2 = len(children2)
    delta = _zeros(len(children1) * n2)
    view = memoryview(delta)
    for i, (n1, ch1) in enumerate(zip(ix1.nodes(t1), children1)):
        row = i * n2
        if not ch1:
            for cell, node2 in enumerate(nodes2, row):
                gate = sigma(n1, node2)
                if gate:
                    delta[cell] = mu * float(gate) * lam2
            continue
        child_rows = None
        for j, node2 in enumerate(nodes2):
            gate = sigma(n1, node2)
            if not gate:
                continue
            ch2 = children2[j]
            if ch2:
                if child_rows is None:
                    child_rows = [view[c * n2 : (c + 1) * n2] for c in ch1]
                total = _child_total(child_rows, ch2, lam, memo)
            else:
                total = lam2
            delta[row + j] = mu * float(gate) * total
    return np.frombuffer(delta).reshape(len(children1), n2)


def _matrix(t1: LabeledTree, t2: LabeledTree, params: TreeKernelParams, memo: dict) -> np.ndarray:
    """The node-pair deltas, in postorder, as a C-contiguous (n1, n2)
    float64 array: the buffer whose sum is the raw kernel value."""
    if params.kind == "SPTK":
        return _sptk_matrix(t1, t2, params, memo)
    table = _Subtrees(params.kind)
    sids = table.add(t1)
    block, where = table.column(t2, len(table.keys), params, memo)
    return block[where[sids]]


def _sptk_value(t1: LabeledTree, t2: LabeledTree, params: TreeKernelParams, memo: dict) -> float:
    return float(_sptk_matrix(t1, t2, params, memo).sum())


def delta_matrix(t1: LabeledTree, t2: LabeledTree, params: TreeKernelParams) -> DeltaMatrix:
    values = _matrix(t1, t2, params, {})
    return DeltaMatrix(t1.index.labels, t2.index.labels, values)


def normalize(raw: float, s1: float, s2: float) -> float:
    """Normalized kernel value raw / sqrt(s1 * s2) from a cross value and
    the two self values, the one normalization rule of every sub-kernel.

    A self value <= 0 gives 0.0, and an object against itself
    (raw == s1 == s2) gives exactly 1.0. When s1 * s2 underflows to 0 or
    overflows to inf, the square roots are taken one by one.
    """
    if s1 <= 0.0 or s2 <= 0.0:
        return 0.0
    if raw == s1 == s2:
        return 1.0
    product = s1 * s2
    if product == 0.0 or product == math.inf:
        return raw / (math.sqrt(s1) * math.sqrt(s2))
    return raw / math.sqrt(product)


def normalize_rows(raw: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """normalize(raw[i, j], s1[i], s2[j]) for every cell of a 2-D block,
    bit for bit, as one block of numpy operations: numpy's multiply, sqrt
    and divide round as Python's do, and the special cases are applied as
    masks in the order normalize tests them. No floating-point warning
    is raised, as normalize raises none."""
    rows = s1[:, None]
    with np.errstate(all="ignore"):
        product = rows * s2
        root = np.sqrt(product)
        odd = (product == 0.0) | (product == math.inf)
        if odd.any():
            i, j = np.nonzero(odd)
            root[i, j] = np.sqrt(s1[i]) * np.sqrt(s2[j])
        out = raw / root
    out[(raw == rows) & (s2 == rows)] = 1.0
    out[:, s2 <= 0.0] = 0.0
    out[s1 <= 0.0] = 0.0
    return out


def tree_kernel(
    t1: LabeledTree, t2: LabeledTree, params: TreeKernelParams, memo: dict | None = None
) -> float:
    """Kernel value between two trees, normalized unless disabled.

    The raw value and both self kernels go through normalize, so a tree
    against itself scores exactly 1.0 and one with a zero self kernel 0.
    SST and PTK take all three from one subtree_matrix([t1], [t2]) call,
    whose self values have the bits of one-tree tables; SPTK runs its
    node-pair program once per value. memo holds PTK/SPTK
    child-subsequence totals across calls that share params.lam (see
    _child_total); without one, each call uses a fresh dict.
    """
    memo = {} if memo is None else memo
    sptk = params.kind == "SPTK"
    if sptk:
        raw = _sptk_value(t1, t2, params, memo)
    else:
        values, s1, s2 = subtree_matrix([t1], [t2], params, memo)
        raw = float(values[0, 0])
    if not math.isfinite(raw):
        raise NumericError(
            f"{params.kind} kernel overflowed; use smaller lambda/mu or normalization"
        )
    if not params.normalize:
        return raw
    if sptk:
        s1, s2 = _sptk_value(t1, t1, params, memo), _sptk_value(t2, t2, params, memo)
    else:
        s1, s2 = float(s1[0]), float(s2[0])
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise NumericError(f"{params.kind} self kernel overflowed; use smaller lambda/mu")
    return normalize(raw, s1, s2)


def poly_kernel(u, v, degree: int = 2, coef0: float = 1.0) -> float:
    """(u . v + coef0) ** degree on plain feature vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vector shapes differ: {u.shape} vs {v.shape}")
    if degree < 1 or int(degree) != degree:
        raise ConfigError(f"polynomial degree must be a positive integer, got {degree}")
    return float((float(np.dot(u, v)) + coef0) ** int(degree))
