"""Fragment-enumeration oracles for the tree kernels, on tiny trees.

Each kernel here is the sum its definition states, over explicitly
enumerated fragment occurrences, and shares no code with
udkernels.kernels: brute_force_kernel for SST and PTK, and
brute_force_sptk for SPTK (Croce, Moschitti and Basili, EMNLP 2011).
The enumeration is exponential in tree size, so every oracle refuses
trees of more than _ORACLE_MAX_NODES nodes.

The module also keeps the character-by-character bracket reader and
the recursive writers and constituency conversion that
udkernels.transforms replaced with a regex scan and explicit stacks,
and the text templates that udkernels.synthetic replaced with trees:
reference_labeled_from_sexpr, reference_parse_bracketed,
reference_labeled_to_sexpr, reference_const_to_bracketed,
reference_const_to_labeled and reference_const_parse_line must agree
with the package's functions on every result and on the type and text
of every error.

reference_make_sigma keeps the node similarity of udkernels.lexical as
it was before its score memo and kind-first test: every call walks the
kind, POS and vector branches in turn, over a per-label cache of
resolved vectors. make_sigma must give the same bits on every pair and
raise the same error type.
"""

import itertools

import numpy as np

from udkernels.conllu import split_lines
from udkernels.errors import BracketError
from udkernels.lexical import _resolve, _unit, cosine
from udkernels.transforms import LEXICAL, SYNTACTIC, ConstTree, LabeledTree

_ORACLE_MAX_NODES = 6


def _sst_fragments(node: LabeledTree) -> dict:
    """Serialized production-closed fragments rooted at node, mapped to
    the number of expanded nodes (the lambda exponent).

    A stopped child renders as a bare label; an expanded node renders
    parenthesized. Nodes whose children are all leaves expand as one
    indivisible unit.
    """
    if not node.children:
        return {f"({reference_escape(node.label)})": 1}
    if all(not c.children for c in node.children):
        inner = " ".join(reference_escape(c.label) for c in node.children)
        return {f"({reference_escape(node.label)} {inner})": 1}
    options = []
    for child in node.children:
        opts = [(reference_escape(child.label), 0)]
        opts.extend(_sst_fragments(child).items())
        options.append(opts)
    out = {}
    for combo in itertools.product(*options):
        ser = f"({reference_escape(node.label)} " + " ".join(s for s, _ in combo) + ")"
        out[ser] = 1 + sum(w for _, w in combo)
    return out


def _pt_occurrences(node: LabeledTree) -> list:
    """Every embedding of a partial fragment rooted at node, as
    (serialization, span exponent, node count) triples.

    The span exponent collects, per fragment node, the child-index span
    it picks (1 for fragment leaves), which is this side's lambda
    exponent for the embedding.
    """
    out = [(reference_escape(node.label), 1, 1)]
    k = len(node.children)
    for r in range(1, k + 1):
        for picks in itertools.combinations(range(k), r):
            span = picks[-1] - picks[0] + 1
            child_occs = [_pt_occurrences(node.children[j]) for j in picks]
            for combo in itertools.product(*child_occs):
                ser = f"({reference_escape(node.label)} " + " ".join(c[0] for c in combo) + ")"
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


# --- the reference bracket reader and writer --------------------------------


def reference_escape(atom: str) -> str:
    """atom with a backslash before each character reference_tokenize
    would read as syntax: brackets, carets, backslashes and any
    str.isspace()."""
    return "".join("\\" + ch if ch in "()^\\" or ch.isspace() else ch for ch in atom)


def reference_tokenize(line: str, where: str) -> list:
    """(kind, parts, offset) tokens of a bracketed line. A bracket's kind
    is "(" or ")" and its parts None; an atom's kind is "atom" and its
    parts are its unescaped text split at its unescaped carets."""
    tokens = []
    parts = None  # the atom being read
    run = 0  # where its current run of plain characters starts
    i = 0
    while i < len(line):
        ch = line[i]
        if ch in "()" or ch.isspace():
            if parts is not None:
                parts[-1] += line[run:i]
                tokens.append(("atom", parts, start))
                parts = None
            if ch in "()":
                tokens.append((ch, None, i))
        elif parts is None or ch in "^\\":
            if parts is None:
                parts, start, run = [""], i, i
            if ch == "^":
                parts[-1] += line[run:i]
                parts.append("")
                run = i + 1
            elif ch == "\\":
                if i + 1 == len(line):
                    raise BracketError(f"{where}, offset {i}: dangling escape")
                parts[-1] += line[run:i]
                run = i + 1  # the escaped character opens the next run
                i += 1
        i += 1
    if parts is not None:
        parts[-1] += line[run:]
        tokens.append(("atom", parts, start))
    return tokens


def reference_parse(text: str, where: str, build):
    """The one tree written in text, by recursive descent over
    reference_tokenize's tokens.

    build(parts, children, offset) makes each node after its children:
    children is None for a bare atom and a tuple, maybe empty, for a
    bracketed node; offset is where the node starts.
    """
    tokens = reference_tokenize(text, where)
    if not tokens:
        raise BracketError(f"{where}: empty tree")
    pos = 0

    def node():
        nonlocal pos
        kind, parts, off = tokens[pos]
        pos += 1
        if kind == ")":
            raise BracketError(f"{where}, offset {off}: unexpected ')'")
        if kind == "atom":
            return build(parts, None, off)
        if pos == len(tokens) or tokens[pos][0] != "atom":
            raise BracketError(f"{where}, offset {off}: missing node label")
        label = tokens[pos][1]
        pos += 1
        children = []
        while pos < len(tokens) and tokens[pos][0] != ")":
            children.append(node())
        if pos == len(tokens):
            raise BracketError(f"{where}, offset {off}: unbalanced parentheses")
        pos += 1
        return build(label, tuple(children), off)

    tree = node()
    if pos != len(tokens):
        raise BracketError(f"{where}, offset {tokens[pos][2]}: trailing content after tree")
    return tree


def _reference_labeled_node(parts, children, off) -> LabeledTree:
    if children is None:
        raise BracketError(f"<sexpr>, offset {off}: expected '('")
    if len(parts) > 2:
        atom = "^".join(map(reference_escape, parts))
        raise BracketError(f"<sexpr>, offset {off}: label {atom!r} has more than one unescaped '^'")
    if len(parts) == 2:
        return LabeledTree(label=parts[0], kind=LEXICAL, children=children, pos_tag=parts[1])
    return LabeledTree(label=parts[0], kind=SYNTACTIC, children=children)


def reference_labeled_from_sexpr(text: str) -> LabeledTree:
    return reference_parse(text, "<sexpr>", _reference_labeled_node)


def reference_parse_bracketed(text: str, source: str = "<string>") -> list:
    trees = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        leaves = 0

        def build(parts, children, _off) -> ConstTree:
            nonlocal leaves
            label = "^".join(parts)
            if children:
                return ConstTree(label, children, (children[0].span[0], children[-1].span[1]))
            leaves += 1
            return ConstTree(label, span=(leaves, leaves))

        trees.append(reference_parse(line, f"{source}:line {lineno}", build))
    return trees


def reference_labeled_to_sexpr(tree: LabeledTree) -> str:
    atom = reference_escape(tree.label)
    if tree.kind == LEXICAL:
        atom += "^" + reference_escape(tree.pos_tag or "X")
    if not tree.children:
        return f"({atom})"
    return f"({atom} {' '.join(map(reference_labeled_to_sexpr, tree.children))})"


def reference_const_to_bracketed(tree: ConstTree) -> str:
    def bracketed(node: ConstTree) -> str:
        if "\n" in node.label:
            raise BracketError(f"constituency label {node.label!r} holds a line feed")
        if not node.children:
            return reference_escape(node.label)
        return f"({reference_escape(node.label)} {' '.join(map(bracketed, node.children))})"

    text = bracketed(tree)
    return f"({text})" if text.endswith("\r") else text


def reference_const_parse_line(tree) -> str:
    """synthetic.const_parse_line as an f-string template per sentence
    shape, a dependency tree's forms escaped into it."""
    e = reference_escape
    f = [t.form for t in tree.tokens]
    if any(t.deprel == "cop" for t in tree.tokens):
        # the e1 was prep the e2 .
        return (
            f"(S (NP (DT {e(f[0])}) (NN {e(f[1])})) "
            f"(VP (VBD {e(f[2])}) (PP (IN {e(f[3])}) (NP (DT {e(f[4])}) (NN {e(f[5])})))) "
            f"(PUNCT {e(f[6])}))"
        )
    # the e1 verbed the e2 .
    return (
        f"(S (NP (DT {e(f[0])}) (NN {e(f[1])})) "
        f"(VP (VBD {e(f[2])}) (NP (DT {e(f[3])}) (NN {e(f[4])}))) "
        f"(PUNCT {e(f[5])}))"
    )


def reference_const_to_labeled(tree: ConstTree, pos: str | None = None) -> LabeledTree:
    if not tree.children:
        return LabeledTree(label=tree.label, kind=LEXICAL, pos_tag=pos or "X")
    kids = tuple(reference_const_to_labeled(c, pos=tree.label) for c in tree.children)
    return LabeledTree(label=tree.label, kind=SYNTACTIC, children=kids)


def reference_make_sigma(cfg, store, dictionary=None):
    translate_first = cfg.mode == "translate_then_compare"
    resolved: dict = {}  # label -> (vector, unit vector, score against itself)

    def lookup(label: str) -> tuple:
        entry = resolved.get(label)
        if entry is None:
            vec, shared = _resolve(label, store, dictionary, translate_first, cfg.lowercase)
            if vec is None:
                entry = (None, None, 0.0)
            else:
                self_score = min(1.0, max(0.0, cosine(vec, vec if shared else vec.copy())))
                entry = (vec, _unit(vec), self_score)
            resolved[label] = entry
        return entry

    def sigma(n1: LabeledTree, n2: LabeledTree) -> float:
        if n1.kind == SYNTACTIC and n2.kind == SYNTACTIC:
            return 1.0 if n1.label == n2.label else 0.0
        if n1.kind != LEXICAL or n2.kind != LEXICAL:
            return 0.0
        if cfg.pos_must_match and n1.pos_tag != n2.pos_tag:
            return 0.0
        v1, a, self_score = lookup(n1.label)
        v2, b, _ = lookup(n2.label)
        if v1 is None or v2 is None:
            if cfg.oov_policy == "exact_match_fallback":
                w1 = n1.label.lower() if cfg.lowercase else n1.label
                w2 = n2.label.lower() if cfg.lowercase else n2.label
                return 1.0 if w1 == w2 else 0.0
            return 0.0
        if v1.shape != v2.shape:
            raise ValueError(f"vector shapes differ: {v1.shape} vs {v2.shape}")
        if v1 is v2:
            return self_score
        if a is None or b is None:
            return 0.0
        return min(1.0, max(0.0, float(np.dot(a, b))))

    return sigma
