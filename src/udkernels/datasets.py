"""Dataset readers for the two supported tasks.

Relation instances live in CoNLL-U files: each sentence carries a
``relation`` metadata line and marks entity mentions through MISC
``Entity=e1`` / ``Entity=e2`` (optionally ``EntityType=...``).
Constituency parses, when a kernel needs them, come from a parallel
file of one bracketed tree per line, aligned by sentence order.

Paraphrase instances are TSV rows ``label<TAB>sent_a<TAB>sent_b``
referencing sentence ids in a CoNLL-U file.
"""

from __future__ import annotations

from .conllu import DepTree, parse_conllu_file, split_lines
from .errors import DataError
from .features import PIInstance, REInstance
from .transforms import parse_bracketed


def _entity_span(tree: DepTree, marker: str):
    ids = [t.id for t in tree.tokens if t.misc.get("Entity") == marker]
    if not ids:
        raise DataError(f"{tree.sent_id}: no token marked Entity={marker}")
    ids.sort()
    if ids[-1] - ids[0] + 1 != len(ids):
        raise DataError(f"{tree.sent_id}: Entity={marker} span is not contiguous")
    return ids[0], ids[-1]


def _span_head(tree: DepTree, span) -> int:
    lo, hi = span
    inside = set(range(lo, hi + 1))
    heads = [i for i in inside if tree.token(i).head not in inside]
    # a well-formed mention has exactly one token attached outside it;
    # fall back to the last token otherwise
    return heads[0] if len(heads) == 1 else hi


def load_re_dataset(conllu_path, const_path=None, lang: str = "") -> list:
    """Relation instances from a CoNLL-U file, plus optional parses.

    Every sentence must name its relation and mark both entities. When
    const_path is given it must hold exactly one bracketed tree per
    sentence, in the same order.
    """
    trees = parse_conllu_file(conllu_path)
    const_trees = None
    if const_path is not None:
        with open(const_path, encoding="utf-8", newline="") as handle:
            const_trees = parse_bracketed(handle.read(), source=str(const_path))
        if len(const_trees) != len(trees):
            raise DataError(
                f"{const_path}: {len(const_trees)} parses for {len(trees)} sentences in {conllu_path}"
            )
    instances = []
    for index, tree in enumerate(trees):
        label = tree.metadata.get("relation")
        if label is None:
            raise DataError(f"{tree.sent_id}: missing relation metadata")
        span1 = _entity_span(tree, "e1")
        span2 = _entity_span(tree, "e2")
        instances.append(
            REInstance(
                dep_tree=tree,
                e1=_span_head(tree, span1),
                e2=_span_head(tree, span2),
                label=label,
                e1_span=span1,
                e2_span=span2,
                const_tree=const_trees[index] if const_trees else None,
                lang=lang or tree.metadata.get("lang", ""),
            )
        )
    return instances


def load_pi_dataset(pairs_path, conllu_path) -> list:
    """Paraphrase pairs from a TSV file over a sentence bank.

    Rows are ``label<TAB>sent_a<TAB>sent_b`` with label 1 or 0. A pair's
    instance id joins its two sent_ids with ``::``; two different pairs
    whose ids coincide, because a sent_id holds ``::``, are refused.
    """
    trees = parse_conllu_file(conllu_path)
    by_id = {}
    for tree in trees:
        if tree.sent_id in by_id:
            raise DataError(f"{conllu_path}: duplicate sent_id {tree.sent_id}")
        by_id[tree.sent_id] = tree
    instances = []
    pair_at = {}  # instance id -> (line, sent_a, sent_b) of its first pair
    with open(pairs_path, encoding="utf-8", newline="") as handle:
        lines = split_lines(handle.read())
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"{pairs_path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
            )
        raw_label, sid_a, sid_b = parts
        if raw_label not in ("0", "1"):
            raise DataError(f"{pairs_path}:{lineno}: label must be 0 or 1, got {raw_label!r}")
        for sid in (sid_a, sid_b):
            if sid not in by_id:
                raise DataError(f"{pairs_path}:{lineno}: unknown sent_id {sid!r}")
        instance = PIInstance(by_id[sid_a], by_id[sid_b], label=raw_label == "1")
        first = pair_at.setdefault(instance.instance_id, (lineno, sid_a, sid_b))
        if first[1:] != (sid_a, sid_b):
            raise DataError(
                f"{pairs_path}:{lineno}: pair ({sid_a!r}, {sid_b!r}) has the instance id "
                f"{instance.instance_id!r} of the pair ({first[1]!r}, {first[2]!r}) on line "
                f"{first[0]}, because a sent_id holds '::'"
            )
        instances.append(instance)
    return instances


def write_predictions(path, instance_ids, labels, decisions=None):
    """TSV of id, predicted label, and optionally sorted decision values."""
    with open(path, "w", encoding="utf-8") as handle:
        for pos, (iid, lab) in enumerate(zip(instance_ids, labels)):
            row = [str(iid), str(lab)]
            if decisions is not None:
                row.extend(
                    f"{name}={repr(value)}" for name, value in sorted(decisions[pos].items())
                )
            handle.write("\t".join(row) + "\n")


def read_predictions(path) -> list:
    """Rows of (id, label) from a prediction TSV, ignoring decision columns."""
    rows = []
    with open(path, encoding="utf-8", newline="") as handle:
        lines = split_lines(handle.read())
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise DataError(f"{path}:{lineno}: expected at least id and label")
        rows.append((parts[0], parts[1]))
    return rows
