"""Fragment-enumeration oracles for the tree kernels, on tiny trees.

Each kernel here is the sum its definition states, over explicitly
enumerated fragment occurrences, and shares no code with
udkernels.kernels: brute_force_kernel for SST and PTK, and
brute_force_sptk for SPTK (Croce, Moschitti and Basili, EMNLP 2011).
The enumeration is exponential in tree size, so every oracle refuses
trees of more than _ORACLE_MAX_NODES nodes.
"""

import itertools

from udkernels.transforms import LabeledTree, _escape

_ORACLE_MAX_NODES = 6


def _sst_fragments(node: LabeledTree) -> dict:
    """Serialized production-closed fragments rooted at node, mapped to
    the number of expanded nodes (the lambda exponent).

    A stopped child renders as a bare label; an expanded node renders
    parenthesized. Nodes whose children are all leaves expand as one
    indivisible unit.
    """
    if not node.children:
        return {f"({_escape(node.label)})": 1}
    if all(not c.children for c in node.children):
        inner = " ".join(_escape(c.label) for c in node.children)
        return {f"({_escape(node.label)} {inner})": 1}
    options = []
    for child in node.children:
        opts = [(_escape(child.label), 0)]
        opts.extend(_sst_fragments(child).items())
        options.append(opts)
    out = {}
    for combo in itertools.product(*options):
        ser = f"({_escape(node.label)} " + " ".join(s for s, _ in combo) + ")"
        out[ser] = 1 + sum(w for _, w in combo)
    return out


def _pt_occurrences(node: LabeledTree) -> list:
    """Every embedding of a partial fragment rooted at node, as
    (serialization, span exponent, node count) triples.

    The span exponent collects, per fragment node, the child-index span
    it picks (1 for fragment leaves), which is this side's lambda
    exponent for the embedding.
    """
    out = [(_escape(node.label), 1, 1)]
    k = len(node.children)
    for r in range(1, k + 1):
        for picks in itertools.combinations(range(k), r):
            span = picks[-1] - picks[0] + 1
            child_occs = [_pt_occurrences(node.children[j]) for j in picks]
            for combo in itertools.product(*child_occs):
                ser = f"({_escape(node.label)} " + " ".join(c[0] for c in combo) + ")"
                out.append(
                    (ser, span + sum(c[1] for c in combo), 1 + sum(c[2] for c in combo))
                )
    return out


def _pt_table(node: LabeledTree, lam: float) -> dict:
    table: dict = {}
    for ser, span_exp, n_nodes in _pt_occurrences(node):
        entry = table.setdefault(ser, [0.0, n_nodes])
        entry[0] += lam**span_exp
    return table


def brute_force_kernel(
    t1: LabeledTree, t2: LabeledTree, kind: str, lam: float = 1.0, mu: float = 1.0
) -> float:
    """Fragment-enumeration kernel for checking tree_kernel, unnormalized.

    Only SST and PTK are supported and only on trees with at most 6
    nodes; anything larger raises ValueError.
    """
    for t in (t1, t2):
        if t.size() > _ORACLE_MAX_NODES:
            raise ValueError(
                f"brute-force oracle limited to {_ORACLE_MAX_NODES} nodes, got {t.size()}"
            )
    if kind == "SST":
        total = 0.0
        tables2 = [(_sst_fragments(n2)) for n2 in t2.iter_nodes()]
        for n1 in t1.iter_nodes():
            f1 = _sst_fragments(n1)
            for f2 in tables2:
                for ser, wraps in f1.items():
                    other = f2.get(ser)
                    if other is not None:
                        assert other == wraps, "fragment weight must be intrinsic"
                        total += lam**wraps
        return total
    if kind == "PTK":
        total = 0.0
        tables2 = [_pt_table(n2, lam) for n2 in t2.iter_nodes()]
        for n1 in t1.iter_nodes():
            f1 = _pt_table(n1, lam)
            for f2 in tables2:
                for ser, (weight1, n_nodes) in f1.items():
                    other = f2.get(ser)
                    if other is not None:
                        assert other[1] == n_nodes, "node count must be intrinsic"
                        total += mu**n_nodes * weight1 * other[0]
        return total
    raise ValueError(f"no brute-force oracle for kind {kind!r}")


def _sptk_occurrences(node: LabeledTree) -> list:
    """Every embedding of a partial fragment rooted at node, as (shape,
    nodes, span exponent) triples: the fragment serialized without its
    labels, its nodes in preorder, and the span exponent of
    _pt_occurrences. Two occurrences of one shape align their nodes
    position by position."""
    out = [("()", (node,), 1)]
    k = len(node.children)
    for r in range(1, k + 1):
        for picks in itertools.combinations(range(k), r):
            span = picks[-1] - picks[0] + 1
            child_occs = [_sptk_occurrences(node.children[j]) for j in picks]
            for combo in itertools.product(*child_occs):
                shape = "(" + " ".join(c[0] for c in combo) + ")"
                nodes = (node,) + tuple(n for c in combo for n in c[1])
                out.append((shape, nodes, span + sum(c[2] for c in combo)))
    return out


def brute_force_sptk(
    t1: LabeledTree, t2: LabeledTree, sigma, lam: float = 1.0, mu: float = 1.0
) -> float:
    """Fragment-enumeration SPTK for checking tree_kernel, unnormalized.

    Every pair of equal-shape fragment occurrences, one in each tree,
    scores the product of sigma over its aligned nodes, times mu per
    fragment node and lam to both occurrences' span exponents. Trees
    of more than 6 nodes raise ValueError.
    """
    for t in (t1, t2):
        if t.size() > _ORACLE_MAX_NODES:
            raise ValueError(
                f"brute-force oracle limited to {_ORACLE_MAX_NODES} nodes, got {t.size()}"
            )
    occurrences2 = [occ for n2 in t2.iter_nodes() for occ in _sptk_occurrences(n2)]
    total = 0.0
    for n1 in t1.iter_nodes():
        for shape, nodes1, span1 in _sptk_occurrences(n1):
            for other, nodes2, span2 in occurrences2:
                if other == shape:
                    score = mu ** len(nodes1) * lam ** (span1 + span2)
                    for a, b in zip(nodes1, nodes2):
                        score *= sigma(a, b)
                    total += score
    return total
