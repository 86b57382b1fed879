"""Tree transforms feeding the kernel engine.

Dependency trees become lexical-centered trees (LCT) where every token
contributes a lexical node plus two syntactic children (dependency
relation, then POS) followed by the subtrees of its dependents in
surface order. Constituency trees are parsed from bracketed text and
can be reduced to the smallest subtree enclosing two entity spans.

A LabeledTree keeps one postorder index, TreeIndex, built on its first
kernel call: SST, PTK and SPTK all read it, so a tree is walked once.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter

from .conllu import DepTree, Token, split_lines
from .errors import BracketError, ConlluError, DataError

LEXICAL = "lexical"
SYNTACTIC = "syntactic"

# Sets a field of a frozen tree node as a generated __init__ does, less its
# lookup of object.__setattr__ per field. Tree nodes do not store into the
# instance dict as conllu.Token does: CPython reads a field faster from an
# instance whose dict was never built, and the kernels read node fields
# once per node pair.
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class LabeledTree:
    """Ordered labeled tree consumed by the kernels."""

    label: str
    kind: str = SYNTACTIC
    children: tuple = ()
    pos_tag: str | None = None

    def __init__(self, label, kind=SYNTACTIC, children=(), pos_tag=None):
        _set(self, "label", label)
        _set(self, "kind", kind)
        _set(self, "children", children)
        _set(self, "pos_tag", pos_tag)

    def is_leaf(self) -> bool:
        return not self.children

    def size(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    @cached_property
    def index(self) -> "TreeIndex":
        """The postorder index every kernel reads, built on first use and
        kept with the tree."""
        return TreeIndex(self)


_children = attrgetter("children")


def _fold(root, children_of, build):
    """What build(node, built) returns for root. build is called on each
    node after its children, where built holds what it returned for
    those children, left to right: a list that build may change, or an
    empty sequence for a node without children. children_of(node) gives
    a node's children, or an empty sequence; a node reached at two
    positions is built once at each.

    The walk keeps its own stack, so a tree of any depth is walked: each
    entry is a node, an iterator over its children not yet built and
    what was built for those already built. A child without children is
    built where it is met, without an entry of its own.
    """
    stack = [(root, iter(children_of(root)), [])]
    while True:
        node, pending, built = stack[-1]
        for child in pending:
            kids = children_of(child)
            if kids:
                stack.append((child, iter(kids), []))
                break
            built.append(build(child, ()))
        else:
            stack.pop()
            value = build(node, built)
            if not stack:
                return value
            stack[-1][2].append(value)


def _postorder(tree: LabeledTree) -> tuple:
    """Nodes in postorder (children before their parents) and, per node,
    the postorder positions of its children, found by one _fold."""
    order = []
    children = []

    def place(node, placed) -> int:
        order.append(node)
        children.append(tuple(placed))
        return len(children) - 1

    _fold(tree, _children, place)
    return order, tuple(children)


def _buckets(keys) -> dict:
    """Each key mapped to the ascending positions that carry it."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return {key: tuple(ids) for key, ids in groups.items()}


class TreeIndex:
    """A tree's nodes in postorder, as every kernel reads them: labels,
    child positions, label buckets (PTK), and the nodes themselves
    (SPTK, whose node similarity sees whole nodes).

    The root, last in postorder, is left out of `below` so the index on a
    tree never refers back to that tree; nodes(tree) puts it back.
    """

    def __init__(self, tree: LabeledTree):
        order, self.children = _postorder(tree)
        self.labels = tuple([n.label for n in order])
        self.buckets = _buckets(self.labels)
        order.pop()
        self.below = tuple(order)

    def nodes(self, tree: LabeledTree) -> tuple:
        """The nodes in postorder, tree last."""
        return (*self.below, tree)

    @cached_property
    def sst(self) -> tuple:
        """(prods, atomic), built on SST's first use: each node's
        production, (label, child labels), and whether its children are
        all leaves. Equal productions share one key object, so a subtree
        table holds each distinct production once."""
        labels, children = self.labels, self.children
        canonical: dict = {}
        prods = [(label, tuple([labels[c] for c in kids])) for label, kids in zip(labels, children)]
        return (
            tuple([canonical.setdefault(p, p) for p in prods]),
            tuple([not any(children[c] for c in kids) for kids in children]),
        )


def syn(label: str, *children) -> LabeledTree:
    return LabeledTree(label=label, kind=SYNTACTIC, children=tuple(children))


def lex(label: str, pos: str, *children) -> LabeledTree:
    return LabeledTree(label=label, kind=LEXICAL, children=tuple(children), pos_tag=pos)


def to_lct(tree: DepTree, lowercase: bool = True) -> LabeledTree:
    """Lexical-centered tree of a dependency sentence.

    Every token yields exactly three nodes, so the result has 3 * len(tree)
    nodes in total. Punctuation is kept; filtering is a feature-layer
    concern. A sentence without exactly one root, or with tokens the root
    does not reach (a head cycle or a dangling head), raises ConlluError.
    """
    by_id = tree._by_id
    reached = []

    def lexical(node_id: int, kids) -> LabeledTree:
        reached.append(node_id)
        token = by_id[node_id]
        lemma = token.lemma
        word = lemma if lemma not in (None, "", "_") else token.form
        upos = token.upos
        kids = (LabeledTree(token.deprel), LabeledTree(upos), *kids)
        return LabeledTree(word.lower() if lowercase else word, LEXICAL, kids, upos)

    lct = _fold(tree.root_id, tree._children.__getitem__, lexical)
    if len(reached) != len(by_id):
        unreached = sorted(by_id.keys() - set(reached))
        raise ConlluError(
            f"{tree.sent_id}: tokens {', '.join(map(str, unreached))} "
            "cannot be reached from the root"
        )
    return lct


def shortest_path(tree: DepTree, e1: int, e2: int) -> tuple:
    """Interior token ids on the undirected head-path from e1 to e2.

    Endpoints are excluded; ids are ordered from the e1 side to the e2
    side. Adjacent tokens (direct head relation) yield ().
    """
    if e1 == e2:
        raise ValueError(f"{tree.sent_id}: path endpoints must differ, got {e1}")
    ids = {t.id for t in tree.tokens}

    def chain(node: int) -> list:
        out = [node]
        seen = {node}
        while True:
            head = tree.token(node).head
            if head == 0 or head not in ids or head in seen:
                return out
            out.append(head)
            seen.add(head)
            node = head

    up1 = chain(e1)
    up2 = chain(e2)
    on2 = {n: i for i, n in enumerate(up2)}
    for i, node in enumerate(up1):
        if node in on2:
            full = up1[: i + 1] + up2[: on2[node]][::-1]
            return tuple(full[1:-1])
    raise ValueError(f"{tree.sent_id}: no path between {e1} and {e2}")


@dataclass(frozen=True)
class MweConfig:
    """Which dependency relations glue tokens into one multiword unit."""

    relations: frozenset = frozenset({"fixed"})
    scope: str = "sdp_and_dependents"  # or "whole_tree"

    def __post_init__(self):
        if not self.relations:
            raise ValueError("MweConfig.relations must not be empty")
        if self.scope not in ("sdp_and_dependents", "whole_tree"):
            raise ValueError(f"unknown scope {self.scope!r}")
        object.__setattr__(self, "relations", frozenset(self.relations))


def collapse_mwe(tree: DepTree, cfg: MweConfig, targets) -> tuple:
    """Merge multiword expressions under the target tokens.

    A target that has a child attached by one of cfg.relations absorbs
    that child and, transitively, the child's own such children. The
    merged token keeps the head, deprel, and UPOS of the chain's top
    node; form and lemma are the surface-ordered members joined by
    single spaces. Returns the rebuilt tree and an old-id -> new-id map
    covering every original token.
    """
    targets = set(targets)
    for t in targets:
        tree.token(t)
    absorbed: dict = {}  # member id -> chain top id
    groups: dict = {}  # chain top id -> sorted member ids
    for top in sorted(targets):
        if top in absorbed:
            continue
        members = [top]
        queue = [top]
        while queue:
            node = queue.pop()
            for child in tree.children(node):
                if tree.token(child).deprel in cfg.relations and child not in members:
                    members.append(child)
                    queue.append(child)
        if len(members) > 1:
            groups[top] = sorted(members)
            for m in members:
                absorbed[m] = top
    if not groups:
        return tree, {t.id: t.id for t in tree.tokens}

    member_of = {m: top for top, ms in groups.items() for m in ms}
    # each surviving slot is keyed by the smallest old id it represents
    slots = []
    for tok in tree.tokens:
        if tok.id in member_of:
            top = member_of[tok.id]
            if tok.id == min(groups[top]):
                slots.append(top)
        else:
            slots.append(tok.id)
    new_id = {}
    for pos, rep in enumerate(slots, start=1):
        if rep in groups:
            for m in groups[rep]:
                new_id[m] = pos
        else:
            new_id[rep] = pos

    new_tokens = []
    for pos, rep in enumerate(slots, start=1):
        src = tree.token(rep)
        if rep in groups:
            members = [tree.token(m) for m in groups[rep]]
            form = " ".join(m.form for m in members)
            lemma = " ".join(
                m.lemma if m.lemma not in (None, "", "_") else m.form for m in members
            )
        else:
            form, lemma = src.form, src.lemma
        head = 0 if src.head == 0 else new_id[src.head]
        new_tokens.append(
            Token(
                id=pos,
                form=form,
                lemma=lemma,
                upos=src.upos,
                xpos=src.xpos,
                feats=dict(src.feats),
                head=head,
                deprel=src.deprel,
                misc=dict(src.misc),
            )
        )
    collapsed = DepTree(
        sent_id=tree.sent_id,
        tokens=tuple(new_tokens),
        text=tree.text,
        metadata=dict(tree.metadata),
    )
    return collapsed, new_id


@dataclass(frozen=True, init=False)
class ConstTree:
    """Constituency node; leaves carry token text and a 1-based span."""

    label: str
    children: tuple = ()
    span: tuple = (0, 0)

    def __init__(self, label, children=(), span=(0, 0)):
        _set(self, "label", label)
        _set(self, "children", children)
        _set(self, "span", span)

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list:
        """The leaves left to right, found from an explicit stack."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node)
        return out


# a bracketed text's tokens: a bracket, or an atom, a run of characters
# that are not brackets or whitespace, each one escapable by a backslash.
# \s is exactly str.isspace() (test_transforms checks every code point).
_TOKEN = re.compile(r"[()]|(?:[^()\s\\]|\\.)+", re.DOTALL)
# a character the reader takes as syntax, which _escape puts a backslash before
_SYNTAX = re.compile(r"[()^\\\s]")
# in an atom holding a backslash: an escaped character, or an unescaped caret
_ESCAPE_OR_CARET = re.compile(r"\\(.)|\^", re.DOTALL)


@lru_cache(maxsize=1 << 12)
def _escape(atom: str) -> str:
    """atom with a backslash before each character the reader would take
    as syntax: brackets, carets, backslashes and any str.isspace().
    The writer escapes every label, and labels repeat (every relation
    and POS leaf of a lexical-centred tree), so the last 4096 distinct
    atoms are cached: a hit costs less than the scan."""
    # a function replacement: on Python 3.11, re.sub parses a template
    # string again on every call, which costs more than the scan
    return _SYNTAX.sub(_escaped, atom)


def _escaped(match: re.Match) -> str:
    return "\\" + match.group()


def _parts(atom: str) -> list:
    """An atom token's unescaped text, split at its unescaped carets."""
    if "\\" not in atom:
        return atom.split("^")
    parts, start = [""], 0
    for match in _ESCAPE_OR_CARET.finditer(atom):
        parts[-1] += atom[start : match.start()]
        if match.group(1) is None:
            parts.append("")
        else:
            parts[-1] += match.group(1)
        start = match.end()
    parts[-1] += atom[start:]
    return parts


class _Refused(Exception):
    """Raised by a node builder of _parse; _parse reports it with the
    node's offset."""


def _parse(text: str, where: str, build):
    """The one tree written in text.

    build(parts, children) makes each node after its children, from the
    label's parts (its unescaped text split at unescaped carets): children
    is None for a bare atom and a tuple, maybe empty, for a bracketed
    node. It may raise _Refused(detail). The reader keeps its own stack
    of open nodes, so a tree of any depth is read; a token's offset is
    found only when an error names it.
    """
    # only the last character can be a backslash that escapes nothing
    if (len(text) - len(text.rstrip("\\"))) % 2:
        raise BracketError(f"{where}, offset {len(text) - 1}: dangling escape")
    tokens = _TOKEN.findall(text)
    end = len(tokens)
    if not end:
        raise BracketError(f"{where}: empty tree")

    def fail(detail: str, at: int):
        offset = next(itertools.islice(_TOKEN.finditer(text), at, None)).start()
        raise BracketError(f"{where}, offset {offset}: {detail}") from None

    stack = []  # open nodes: (label token, children so far, token index)
    i = 0
    try:
        while True:
            token = tokens[i]
            if token == "(":
                if i + 1 == end or tokens[i + 1] in "()":
                    fail("missing node label", i)
                stack.append((tokens[i + 1], [], i))
                i += 2
            else:
                if token == ")":
                    if not stack:
                        fail("unexpected ')'", i)
                    label, children, at = stack.pop()
                    node = build(_parts(label), tuple(children))
                else:
                    at = i
                    node = build(_parts(token), None)
                i += 1
                if not stack:
                    break
                stack[-1][1].append(node)
            if i == end:
                fail("unbalanced parentheses", stack[-1][2])
    except _Refused as exc:
        fail(str(exc), at)
    if i != end:
        fail("trailing content after tree", i)
    return node


def _parse_const_line(line: str, where: str) -> ConstTree:
    leaves = 0

    def build(parts, children) -> ConstTree:
        nonlocal leaves
        label = "^".join(parts)  # a caret is plain text in a constituency label
        if children:
            span = (children[0].span[0], children[-1].span[1])
            return ConstTree(label=label, children=children, span=span)
        leaves += 1
        return ConstTree(label=label, span=(leaves, leaves))

    return _parse(line, where, build)


def parse_bracketed(text: str, source: str = "<string>") -> list:
    """Parse one bracketed constituency tree per nonempty line.

    A leaf is a bare atom or a bracketed label without children; leaves
    get 1-based spans left to right. A caret in a label is plain text.
    Lines are split by conllu.split_lines, so an escaped vertical tab,
    form feed, U+0085 or U+2028 stays in its label.
    """
    trees = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        trees.append(_parse_const_line(line, f"{source}:line {lineno}"))
    return trees


def _write(tree, atom, bare_leaves: bool) -> str:
    """tree as bracketed text: a node with children is "(" atom(node),
    then a space before each child, then ")"; a node without children is
    "(" atom(node) ")", or its bare atom if bare_leaves. A bare root whose
    atom ends in a carriage return is bracketed all the same, since
    split_lines drops one that ends a line. The writer keeps its own
    stack of nodes still to write and text to put after them, so a tree
    of any depth is written; atom is called on the nodes in preorder, so
    an atom that refuses a label refuses the first in that order."""
    parts, stack = [], [tree]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
        elif item.children:
            parts.append("(" + atom(item))
            stack.append(")")
            for child in reversed(item.children):
                stack.append(child)
                stack.append(" ")
        else:
            text = atom(item)
            bare = bare_leaves and not (item is tree and text.endswith("\r"))
            parts.append(text if bare else "(" + text + ")")
    return "".join(parts)


def _const_atom(node: ConstTree) -> str:
    if "\n" in node.label:
        raise BracketError(f"constituency label {node.label!r} holds a line feed")
    return _escape(node.label)


def const_to_bracketed(tree: ConstTree) -> str:
    """tree as one line of bracketed text, which parse_bracketed reads
    back, leaves as bare atoms. A .const file holds one tree a line, so
    a label holding a line feed raises BracketError."""
    return _write(tree, _const_atom, True)


def extract_pet(tree: ConstTree, span1: tuple, span2: tuple) -> ConstTree:
    """Smallest subtree covering both spans, outside branches pruned.

    Spans are 1-based inclusive token ranges. Every subtree lying fully
    outside [min(starts), max(ends)] is dropped at any depth; the result
    keeps original span annotations. A reversed span, a span outside the
    tree's leaves or overlapping spans raise DataError. The pruning is
    a _fold, so a tree of any depth is pruned.
    """
    for span in (span1, span2):
        if span[0] > span[1]:
            raise DataError(f"bad span {span}")
        if span[0] < tree.span[0] or span[1] > tree.span[1]:
            raise DataError(f"span {span} outside sentence span {tree.span}")
    if not (span1[1] < span2[0] or span2[1] < span1[0]):
        raise DataError(f"entity spans {span1} and {span2} overlap")
    lo = min(span1[0], span2[0])
    hi = max(span1[1], span2[1])

    node = tree
    while True:
        inner = [c for c in node.children if c.span[0] <= lo and hi <= c.span[1]]
        if not inner:
            break
        node = inner[0]

    def inside(n):
        # the children kept; a leaf's () is returned without a new list
        kids = n.children
        return kids and [c for c in kids if lo <= c.span[1] and c.span[0] <= hi]

    def prune(n, kept) -> ConstTree:
        return ConstTree(n.label, tuple(kept), n.span) if n.children else n

    return _fold(node, inside, prune)


def const_to_labeled(tree: ConstTree, pos: str | None = None) -> LabeledTree:
    """Constituency tree as a LabeledTree; leaves become lexical nodes,
    tagged with their parent's label (a leaf root with pos). The tree is
    walked by _fold, so a tree of any depth is converted."""
    if not tree.children:
        return LabeledTree(tree.label, LEXICAL, (), pos or "X")
    return _fold(tree, _children, _labeled_from_const)


def _labeled_from_const(node: ConstTree, built):
    """const_to_labeled's builder: a leaf is left as it is for its parent,
    which knows the label to tag it with and converts it in built (a
    converted inner node always has children)."""
    if not node.children:
        return node
    tag = node.label or "X"
    for i, kid in enumerate(built):
        if not kid.children:
            built[i] = LabeledTree(kid.label, LEXICAL, (), tag)
    return LabeledTree(node.label, SYNTACTIC, tuple(built))


def _labeled_atom(node: LabeledTree) -> str:
    if node.kind == LEXICAL:
        return _escape(node.label) + "^" + _escape(node.pos_tag or "X")
    return _escape(node.label)


def labeled_to_sexpr(tree: LabeledTree) -> str:
    """Bracketed form of a LabeledTree, every node bracketed. Lexical
    nodes render as label^POS, so the expression parses back to an
    equal tree."""
    return _write(tree, _labeled_atom, False)


def _labeled_node(parts, children) -> LabeledTree:
    if children is None:
        raise _Refused("expected '('")
    if len(parts) > 2:
        atom = "^".join(map(_escape, parts))
        raise _Refused(f"label {atom!r} has more than one unescaped '^'")
    if len(parts) == 2:
        return LabeledTree(label=parts[0], kind=LEXICAL, children=children, pos_tag=parts[1])
    return LabeledTree(label=parts[0], kind=SYNTACTIC, children=children)


def labeled_from_sexpr(text: str) -> LabeledTree:
    """Inverse of labeled_to_sexpr: a label with one unescaped caret is
    a lexical node (word^POS), one without is a syntactic node."""
    return _parse(text, "<sexpr>", _labeled_node)
