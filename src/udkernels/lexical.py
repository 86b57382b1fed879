"""Word embeddings, bilingual dictionaries, and node similarity.

The node similarity built here gates the soft tree kernel: syntactic
nodes match on label identity, lexical nodes compare word vectors after
an optional dictionary translation into the pivot language.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conllu import split_lines
from .errors import EmbeddingError
from .transforms import LEXICAL, SYNTACTIC, LabeledTree


@dataclass
class EmbeddingStore:
    dim: int
    vectors: dict

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, word: str):
        return self.vectors.get(word)


def load_embeddings(path) -> EmbeddingStore:
    """Load a text embedding file: optional `count dim` header, then
    one `word v1 .. vd` row per line. The word is the first field.
    Fields are separated by ASCII whitespace only, as in fastText files,
    so a word keeps any other character, such as U+00A0 or U+2028, and
    numbers are read in ASCII digits."""
    vectors: dict = {}
    dim = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            # bytes.split breaks at ASCII whitespace only, str.split at any
            fields = raw.encode("utf-8").split()
            if not fields:
                continue
            if lineno == 1 and len(fields) == 2:
                try:
                    int(fields[0])
                    dim = int(fields[1])
                    continue
                except ValueError:
                    pass
            word = fields[0].decode("utf-8")
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError:
                raise EmbeddingError(
                    f"{path}:{lineno}: non-numeric vector component"
                ) from None
            if vec.size == 0:
                raise EmbeddingError(f"{path}:{lineno}: row has no vector components")
            if not np.isfinite(vec).all():
                bad = fields[1 + int(np.flatnonzero(~np.isfinite(vec))[0])].decode("utf-8")
                raise EmbeddingError(f"{path}:{lineno}: vector component {bad!r} is not finite")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise EmbeddingError(
                    f"{path}:{lineno}: expected {dim} components, got {vec.size}"
                )
            vectors[word] = vec
    if not vectors:
        raise EmbeddingError(f"{path}: no embedding rows")
    return EmbeddingStore(dim=dim, vectors=vectors)


@dataclass
class BilingualDictionary:
    entries: dict

    def __len__(self) -> int:
        return len(self.entries)


def load_dictionary(path, lowercase: bool = True) -> BilingualDictionary:
    """Load a `source<TAB>target` file; repeated sources accumulate
    ranked targets in file order."""
    entries: dict = {}
    # newline="" keeps a lone carriage return inside a word on its line
    with open(path, encoding="utf-8", newline="") as handle:
        lines = split_lines(handle.read())
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise EmbeddingError(
                f"{path}:{lineno}: expected 'source<TAB>target', got {line!r}"
            )
        src, tgt = parts
        if lowercase:
            src, tgt = src.lower(), tgt.lower()
        bucket = entries.setdefault(src, [])
        if tgt not in bucket:
            bucket.append(tgt)
    return BilingualDictionary(entries={k: tuple(v) for k, v in entries.items()})


def translate(dictionary: BilingualDictionary, word: str, lowercase: bool = True):
    """First-ranked translation of word, or None when absent."""
    key = word.lower() if lowercase else word
    targets = dictionary.entries.get(key)
    return targets[0] if targets else None


# Norms inside this range are computed from squares that neither underflow
# nor overflow, so dividing by them gives a unit vector to rounding.
_NORM_MIN = 1e-150
_NORM_MAX = 1e150


def _unit(x: np.ndarray):
    """x scaled to unit length, None when x is all zeros."""
    # squares of huge components overflow to an inf norm, which the
    # rescaling below handles, so numpy need not warn about it
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(x))
    if _NORM_MIN < n < _NORM_MAX:
        return x / n
    # the squares of tiny components go subnormal (or of huge ones infinite),
    # which skews the norm: scale by the largest magnitude first
    m = float(np.max(np.abs(x))) if x.size else 0.0
    if m == 0.0:
        return None
    x = x / m
    return x / float(np.linalg.norm(x))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        raise ValueError(f"vector shapes differ: {u.shape} vs {v.shape}")
    if u is v:
        return 1.0 if u.size and float(np.max(np.abs(u))) > 0.0 else 0.0
    a = _unit(u)
    b = _unit(v)
    if a is None or b is None:
        return 0.0
    # normalize before the dot so near-zero norms cannot overflow
    return float(np.dot(a, b))


def resolve_vector(
    word: str,
    store: EmbeddingStore,
    dictionary: BilingualDictionary | None = None,
    lowercase: bool = True,
):
    """Embedding for a word, None when out of vocabulary.

    Lookup order: the word itself in the store, then its first-ranked
    dictionary translation when a dictionary is given. Space-joined
    multiword keys fall back to averaging whichever member tokens
    resolve.
    """
    return _resolve(word, store, dictionary, lowercase)[0]


def _resolve(word, store, dictionary, lowercase) -> tuple:
    """(vector, shared) for resolve_vector: shared when the vector is
    the store's own object, False for a multiword average, which is
    built afresh on every call, or for None."""
    key = word.lower() if lowercase else word
    vec = store.get(key)
    if vec is not None:
        return vec, True
    if dictionary is not None:
        target = translate(dictionary, key, lowercase=False)
        if target is not None:
            vec = store.get(target.lower() if lowercase else target)
            if vec is not None:
                return vec, True
    if " " in key:
        parts = [
            resolve_vector(p, store, dictionary, lowercase=False)
            for p in key.split(" ")
            if p
        ]
        found = [p for p in parts if p is not None]
        if found:
            return np.mean(np.stack(found), axis=0), False
    return None, False


@dataclass(frozen=True)
class SigmaConfig:
    mode: str = "monolingual"  # or "translate_then_compare"
    pos_must_match: bool = True
    oov_policy: str = "zero"  # or "exact_match_fallback"
    lowercase: bool = True

    def __post_init__(self):
        if self.mode not in ("monolingual", "translate_then_compare"):
            raise ValueError(f"unknown sigma mode {self.mode!r}")
        if self.oov_policy not in ("zero", "exact_match_fallback"):
            raise ValueError(f"unknown oov policy {self.oov_policy!r}")


def indicator_sigma(n1: LabeledTree, n2: LabeledTree) -> float:
    """Exact-label similarity; the soft kernel collapses to its hard
    counterpart under this function."""
    return 1.0 if n1.label == n2.label else 0.0


# The most lexical pair scores one sigma's memo holds: a miss on a full
# memo empties it first. A hit returns the float a miss computes, so the
# cap bounds memory without changing a value. Repeats of a label pair
# fall mostly within one row of a kernel matrix, so 2^12 scores keep
# nearly every hit of the benchmark's Grams, in well under 1 MB.
_SCORE_CAP = 1 << 12


def make_sigma(
    cfg: SigmaConfig,
    store: EmbeddingStore,
    dictionary: BilingualDictionary | None = None,
):
    """Node similarity bound to an embedding store and dictionary.

    Syntactic pairs score 1 on equal labels. Lexical pairs with the
    same POS score the cosine of their vectors clamped to [0, 1]. In
    translate_then_compare mode a word missing from the store reaches
    it through the dictionary; the monolingual mode never reads the
    dictionary. Everything else scores 0.

    Each lexical label is resolved and unit-normalized once per sigma,
    and the cache holds one entry per label. Every score equals
    min(1, max(0, cosine(v1, v2))) on freshly resolved vectors, bit for
    bit.

    A lexical pair that passes the POS test scores by its two labels
    alone, so the sigma also keeps a memo of those scores, one dict per
    first label, mapping the second label to the score. It holds at most
    _SCORE_CAP scores: a miss on a full memo empties it, so its memory
    stays bounded (a few hundred KB) and no value changes. A pair whose
    vectors differ in shape raises ValueError on every call and is
    never stored.
    """
    if cfg.mode != "translate_then_compare":
        dictionary = None
    pos_must_match, fallback = cfg.pos_must_match, cfg.oov_policy == "exact_match_fallback"
    resolved: dict = {}  # label -> (vector, unit vector, score against itself)
    scores: dict = {}  # first label -> {second label: score}
    stored = 0  # the scores held in all of scores' dicts

    def lookup(label: str) -> tuple:
        entry = resolved.get(label)
        if entry is None:
            vec, shared = _resolve(label, store, dictionary, cfg.lowercase)
            if vec is None:
                entry = (None, None, 0.0)
            else:
                # against itself, a store vector takes cosine's u is v
                # shortcut; a multiword average, resolved afresh per node,
                # met an equal copy and went through the dot product
                self_score = min(1.0, max(0.0, cosine(vec, vec if shared else vec.copy())))
                entry = (vec, _unit(vec), self_score)
            resolved[label] = entry
        return entry

    def score(label1: str, label2: str) -> float:
        v1, a, self_score = lookup(label1)
        v2, b, _ = lookup(label2)
        if v1 is None or v2 is None:
            if fallback:
                w1 = label1.lower() if cfg.lowercase else label1
                w2 = label2.lower() if cfg.lowercase else label2
                return 1.0 if w1 == w2 else 0.0
            return 0.0
        if v1.shape != v2.shape:
            raise ValueError(f"vector shapes differ: {v1.shape} vs {v2.shape}")
        # one cached vector behind both labels: the same label, or two
        # labels that resolve to one store vector, scoring as cosine would
        if v1 is v2:
            return self_score
        if a is None or b is None:
            return 0.0
        return min(1.0, max(0.0, float(np.dot(a, b))))

    def remember(label1: str, label2: str) -> float:
        nonlocal stored
        value = score(label1, label2)
        if stored >= _SCORE_CAP:
            scores.clear()
            stored = 0
        scores.setdefault(label1, {})[label2] = value
        stored += 1
        return value

    def sigma(n1: LabeledTree, n2: LabeledTree) -> float:
        # one comparison settles a syntactic node against a lexical one,
        # the commonest pair; unknown kinds score 0 against everything
        kind = n1.kind
        if kind != n2.kind:
            return 0.0
        if kind == SYNTACTIC:
            return 1.0 if n1.label == n2.label else 0.0
        if kind != LEXICAL or (pos_must_match and n1.pos_tag != n2.pos_tag):
            return 0.0
        row = scores.get(n1.label)
        if row is not None:
            value = row.get(n2.label)
            if value is not None:
                return value
        return remember(n1.label, n2.label)

    return sigma
