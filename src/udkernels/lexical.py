"""Word embeddings, bilingual dictionaries, and node similarity.

The node similarity built here gates the soft tree kernel: syntactic
nodes match on label identity, lexical nodes compare word vectors after
an optional dictionary translation into the pivot language.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmbeddingError
from .transforms import LEXICAL, SYNTACTIC, LabeledTree


@dataclass
class EmbeddingStore:
    dim: int
    vectors: dict
    lang: str = ""

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, word: str):
        return self.vectors.get(word)


def load_embeddings(path, lang: str = "") -> EmbeddingStore:
    """Load a text embedding file: optional `count dim` header, then
    one `word v1 .. vd` row per line. The word is the first field."""
    vectors: dict = {}
    dim = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if lineno == 1 and len(fields) == 2:
                try:
                    int(fields[0])
                    dim = int(fields[1])
                    continue
                except ValueError:
                    pass
            word = fields[0]
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError:
                raise EmbeddingError(
                    f"{path}:{lineno}: non-numeric vector component"
                ) from None
            if vec.size == 0:
                raise EmbeddingError(f"{path}:{lineno}: row has no vector components")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise EmbeddingError(
                    f"{path}:{lineno}: expected {dim} components, got {vec.size}"
                )
            vectors[word] = vec
    if not vectors:
        raise EmbeddingError(f"{path}: no embedding rows")
    return EmbeddingStore(dim=dim, vectors=vectors, lang=lang)


@dataclass
class BilingualDictionary:
    entries: dict
    source_lang: str = ""
    target_lang: str = ""

    def __len__(self) -> int:
        return len(self.entries)


def load_dictionary(
    path, source_lang: str = "", target_lang: str = "", lowercase: bool = True
) -> BilingualDictionary:
    """Load a `source<TAB>target` file; repeated sources accumulate
    ranked targets in file order."""
    entries: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
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
    return BilingualDictionary(
        entries={k: tuple(v) for k, v in entries.items()},
        source_lang=source_lang,
        target_lang=target_lang,
    )


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
    translate_first: bool = False,
    lowercase: bool = True,
):
    """Embedding for a word, None when out of vocabulary.

    Lookup order: the word itself in the store, then its dictionary
    translation when translate_first is set. Space-joined multiword keys
    fall back to averaging whichever member tokens resolve.
    """
    key = word.lower() if lowercase else word
    vec = store.get(key)
    if vec is not None:
        return vec
    if translate_first and dictionary is not None:
        target = translate(dictionary, key, lowercase=False)
        if target is not None:
            vec = store.get(target.lower() if lowercase else target)
            if vec is not None:
                return vec
    if " " in key:
        parts = [
            resolve_vector(p, store, dictionary, translate_first, lowercase=False)
            for p in key.split(" ")
            if p
        ]
        found = [p for p in parts if p is not None]
        if found:
            return np.mean(np.stack(found), axis=0)
    return None


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

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "pos_must_match": self.pos_must_match,
            "oov_policy": self.oov_policy,
            "lowercase": self.lowercase,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SigmaConfig":
        return cls(
            mode=data.get("mode", "monolingual"),
            pos_must_match=data.get("pos_must_match", True),
            oov_policy=data.get("oov_policy", "zero"),
            lowercase=data.get("lowercase", True),
        )


def indicator_sigma(n1: LabeledTree, n2: LabeledTree) -> float:
    """Exact-label similarity; the soft kernel collapses to its hard
    counterpart under this function."""
    return 1.0 if n1.label == n2.label else 0.0


def make_sigma(
    cfg: SigmaConfig,
    store: EmbeddingStore,
    dictionary: BilingualDictionary | None = None,
):
    """Node similarity bound to an embedding store and dictionary.

    Syntactic pairs score 1 on equal labels. Lexical pairs with the
    same POS score the cosine of their vectors clamped to [0, 1];
    non-pivot words reach the store through the dictionary. Everything
    else scores 0.
    """
    translate_first = cfg.mode == "translate_then_compare"

    def sigma(n1: LabeledTree, n2: LabeledTree) -> float:
        if n1.kind == SYNTACTIC and n2.kind == SYNTACTIC:
            return 1.0 if n1.label == n2.label else 0.0
        if n1.kind != LEXICAL or n2.kind != LEXICAL:
            return 0.0
        if cfg.pos_must_match and n1.pos_tag != n2.pos_tag:
            return 0.0
        v1 = resolve_vector(n1.label, store, dictionary, translate_first, cfg.lowercase)
        v2 = resolve_vector(n2.label, store, dictionary, translate_first, cfg.lowercase)
        if v1 is None or v2 is None:
            if cfg.oov_policy == "exact_match_fallback":
                w1 = n1.label.lower() if cfg.lowercase else n1.label
                w2 = n2.label.lower() if cfg.lowercase else n2.label
                return 1.0 if w1 == w2 else 0.0
            return 0.0
        return min(1.0, max(0.0, cosine(v1, v2)))

    return sigma
