"""CoNLL-U parsing, validation, and emission for dependency treebanks.

Only the basic 10-column format is handled: multiword range lines
(``1-2``) and empty nodes (``1.1``) are skipped, ``#`` lines are read as
``key = value`` metadata, and ``_`` marks an absent field. An empty
UPOS or DEPREL column is refused where the token line is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConlluError

N_COLUMNS = 10


def _parse_kv(cell: str) -> dict:
    """Parse a `k=v|k2=v2` column; bare flags map to empty values."""
    if cell in ("_", ""):
        return {}
    out = {}
    for item in cell.split("|"):
        key, sep, value = item.partition("=")
        out[key] = value if sep else ""
    return out


def _emit_kv(pairs: dict) -> str:
    if not pairs:
        return "_"
    return "|".join(k if v == "" else f"{k}={v}" for k, v in pairs.items())


@dataclass(frozen=True, init=False)
class Token:
    """One syntactic word. `id` is the 1-based surface position."""

    id: int
    form: str
    lemma: str | None
    upos: str
    xpos: str | None
    feats: dict
    head: int
    deprel: str
    misc: dict

    def __init__(self, id, form, lemma, upos, xpos, feats, head, deprel, misc):
        # stores into the instance dict in place of the nine frozen setters
        # a generated __init__ calls, as the parser builds a Token per line.
        # A field is then read from the dict, more slowly, which only the
        # tree builders pay; tree nodes keep setters (see transforms._set).
        fields = self.__dict__
        fields["id"] = id
        fields["form"] = form
        fields["lemma"] = lemma
        fields["upos"] = upos
        fields["xpos"] = xpos
        fields["feats"] = feats
        fields["head"] = head
        fields["deprel"] = deprel
        fields["misc"] = misc

    def is_punct(self) -> bool:
        return self.upos == "PUNCT"


@dataclass(frozen=True)
class DepTree:
    """A parsed sentence. Tokens are stored in surface order.

    Construction is permissive about head structure so that invalid
    trees can still be inspected by validate(); accessors that need a
    well-formed tree (root_id) raise on violations.
    """

    sent_id: str
    tokens: tuple
    text: str | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        by_id = {tok.id: tok for tok in self.tokens}
        if len(by_id) != len(self.tokens):
            seen = set()
            for tok in self.tokens:
                if tok.id in seen:
                    raise ConlluError(f"{self.sent_id}: duplicate token id {tok.id}")
                seen.add(tok.id)
        children: dict = {node_id: [] for node_id in by_id}
        for tok in self.tokens:
            kids = children.get(tok.head)
            if kids is not None:
                kids.append(tok.id)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in children.items()})

    def __len__(self) -> int:
        return len(self.tokens)

    def token(self, node_id: int) -> Token:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"{self.sent_id}: no token with id {node_id}") from None

    def children(self, node_id: int) -> tuple:
        """Ids of direct dependents in surface order."""
        if node_id not in self._by_id:
            raise KeyError(f"{self.sent_id}: no token with id {node_id}")
        return self._children[node_id]

    @property
    def root_id(self) -> int:
        roots = [t.id for t in self.tokens if t.head == 0]
        if len(roots) != 1:
            raise ConlluError(f"{self.sent_id}: expected one root, found {len(roots)}")
        return roots[0]


def split_lines(text: str) -> list:
    """Split text at line feeds only, dropping one trailing carriage return
    per line, so a vertical tab, form feed, U+0085 or U+2028 inside a form
    or label stays on its line (str.splitlines would break there)."""
    return [line.removesuffix("\r") for line in text.split("\n")]


def _parse_token_line(line: str, source: str, lineno: int):
    # the file:line prefix is formatted only when the line is refused
    cols = line.split("\t")
    if len(cols) != N_COLUMNS:
        raise ConlluError(f"{source}:{lineno}: expected {N_COLUMNS} columns, got {len(cols)}")
    tid = cols[0]
    if "-" in tid or "." in tid:
        return None
    try:
        node_id = int(tid)
    except ValueError:
        raise ConlluError(f"{source}:{lineno}: bad token id {tid!r}") from None
    if node_id < 1:
        raise ConlluError(f"{source}:{lineno}: token id must be positive, got {node_id}")
    try:
        head = int(cols[6])
    except ValueError:
        raise ConlluError(f"{source}:{lineno}: non-integer head {cols[6]!r}") from None
    if head < 0:
        raise ConlluError(f"{source}:{lineno}: negative head {head}")
    # an empty tag would become an unlabeled node of the lexical-centred
    # tree, which a saved model cannot read back
    if not (cols[3] and cols[7]):
        name = "DEPREL" if cols[3] else "UPOS"
        raise ConlluError(f"{source}:{lineno}: empty {name} column")
    _, form, lemma, upos, xpos, feats, _, deprel, _, misc = cols
    return Token(
        node_id,
        form,
        None if lemma == "_" else lemma,
        upos,
        None if xpos == "_" else xpos,
        {} if feats == "_" else _parse_kv(feats),
        head,
        deprel,
        {} if misc == "_" else _parse_kv(misc),
    )


def parse_conllu(text: str, source: str = "<string>") -> list:
    """Parse CoNLL-U text into DepTrees.

    Sentences without a `sent_id` metadata line get the synthetic id
    `<source>:<ordinal>` (1-based).
    """
    trees = []
    tokens: list = []
    meta: dict = {}
    start_line = 1

    def flush(ordinal: int):
        sent_id = meta.get("sent_id", f"{source}:{ordinal}")
        ids = [tok.id for tok in tokens]
        if len(set(ids)) != len(ids):
            seen = set()
            for node_id in ids:
                if node_id in seen:
                    raise ConlluError(
                        f"{source}:{start_line}: duplicate token id {node_id} in sentence {sent_id}"
                    )
                seen.add(node_id)
        trees.append(
            DepTree(
                sent_id=sent_id,
                tokens=tuple(tokens),
                text=meta.get("text"),
                metadata=dict(meta),
            )
        )

    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            if tokens:
                flush(len(trees) + 1)
                tokens, meta = [], {}
            continue
        if not tokens and not meta:
            start_line = lineno
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        tok = _parse_token_line(line, source, lineno)
        if tok is not None:
            tokens.append(tok)
    if tokens:
        flush(len(trees) + 1)
    return trees


def parse_conllu_file(path) -> list:
    # newline="" keeps a lone carriage return inside a form on its line
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_conllu(handle.read(), source=str(path))


def to_conllu(tree: DepTree) -> str:
    """Emit a DepTree back to CoNLL-U. Reparsing yields an equal tree."""
    meta = dict(tree.metadata)
    meta.setdefault("sent_id", tree.sent_id)
    if tree.text is not None:
        meta.setdefault("text", tree.text)
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    for t in tree.tokens:
        lines.append(
            "\t".join(
                [
                    str(t.id),
                    t.form,
                    t.lemma if t.lemma is not None else "_",
                    t.upos,
                    t.xpos if t.xpos is not None else "_",
                    _emit_kv(t.feats),
                    str(t.head),
                    t.deprel,
                    "_",
                    _emit_kv(t.misc),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def validate(tree: DepTree) -> list:
    """Return human-readable reports for structural violations, [] if clean."""
    problems = []
    ids = {t.id for t in tree.tokens}
    roots = [t.id for t in tree.tokens if t.head == 0]
    if not tree.tokens:
        problems.append("empty sentence")
        return problems
    if not roots:
        problems.append("no root token (head 0)")
    elif len(roots) > 1:
        problems.append("multiple roots: " + ", ".join(str(i) for i in roots))
    for t in tree.tokens:
        if t.head == t.id:
            problems.append(f"token {t.id} is its own head")
        elif t.head != 0 and t.head not in ids:
            problems.append(f"dangling head: token {t.id} -> {t.head}")
        if t.deprel in ("", "_"):
            problems.append(f"empty deprel on token {t.id}")
    # cycle detection over the head relation, self-loops already reported
    state = {}  # 0 visiting, 1 done
    for start in ids:
        if start in state:
            continue
        chain = []
        node = start
        while node in ids and node not in state:
            state[node] = 0
            chain.append(node)
            node = tree.token(node).head
        if node in state and state[node] == 0 and node != 0:
            cycle_start = chain.index(node) if node in chain else 0
            cyc = chain[cycle_start:]
            problems.append("cycle among tokens: " + ", ".join(str(i) for i in cyc))
        for seen in chain:
            state[seen] = 1
    return problems

