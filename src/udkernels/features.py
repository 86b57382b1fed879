"""Entity context vectors for relation classification.

Two flavors of the same 5-block layout: the surface flavor averages
word vectors in linear windows around the entities, the dependency
flavor averages over the shortest dependency path and the entities'
dependents, which makes it independent of surface word order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conllu import DepTree, Token
from .errors import DataError
from .lexical import BilingualDictionary, EmbeddingStore, resolve_vector
from .transforms import ConstTree, MweConfig, collapse_mwe, shortest_path


@dataclass(frozen=True)
class REInstance:
    """One labeled relation mention; e1/e2 are entity head token ids."""

    dep_tree: DepTree
    e1: int
    e2: int
    label: str
    e1_span: tuple | None = None
    e2_span: tuple | None = None
    const_tree: ConstTree | None = None

    def __post_init__(self):
        if self.e1 == self.e2:
            raise DataError(f"{self.dep_tree.sent_id}: entity heads must differ")
        if self.e1_span is None:
            object.__setattr__(self, "e1_span", (self.e1, self.e1))
        if self.e2_span is None:
            object.__setattr__(self, "e2_span", (self.e2, self.e2))

    @property
    def instance_id(self) -> str:
        return self.dep_tree.sent_id


@dataclass(frozen=True)
class PIInstance:
    """One sentence pair with a paraphrase judgment."""

    tree_a: DepTree
    tree_b: DepTree
    label: bool

    @property
    def instance_id(self) -> str:
        return f"{self.tree_a.sent_id}::{self.tree_b.sent_id}"


@dataclass
class FeatureConfig:
    window: int = 3
    exclude_punct: bool = True
    mwe: MweConfig = field(default_factory=MweConfig)
    lowercase: bool = True
    use_forms: bool = False

    def word_of(self, token: Token) -> str:
        if self.use_forms or token.lemma in (None, "", "_"):
            word = token.form
        else:
            word = token.lemma
        return word.lower() if self.lowercase else word


def _mean_of_words(
    words, store: EmbeddingStore, dictionary, cfg: FeatureConfig
) -> np.ndarray:
    """Mean vector of a word group; OOV members contribute zeros. A word
    missing from the store is looked up through dictionary, when given.

    Words are summed in sorted order so the result depends only on the
    multiset of words, not on their surface arrangement.
    """
    if not words:
        return np.zeros(store.dim)
    total = np.zeros(store.dim)
    for word in sorted(words):
        vec = resolve_vector(word, store, dictionary, cfg.lowercase)
        if vec is not None:
            total = total + vec
    return total / len(words)


def _entity_words(tree: DepTree, span: tuple, cfg: FeatureConfig):
    ids = [t.id for t in tree.tokens if span[0] <= t.id <= span[1]]
    return [cfg.word_of(tree.token(i)) for i in ids]


def build_vo(
    inst: REInstance,
    store: EmbeddingStore,
    cfg: FeatureConfig,
    dictionary: BilingualDictionary | None = None,
) -> np.ndarray:
    """Surface context vector: entity embeddings, words between the two
    entities, and up to `window` words before the first and after the
    second. Entity spans and (by default) punctuation are excluded from
    the context blocks."""
    tree = inst.dep_tree
    span1, span2 = inst.e1_span, inst.e2_span
    in_spans = set(range(span1[0], span1[1] + 1)) | set(range(span2[0], span2[1] + 1))

    def context_ok(token: Token) -> bool:
        if token.id in in_spans:
            return False
        if cfg.exclude_punct and token.is_punct():
            return False
        return True

    lo, hi = min(inst.e1, inst.e2), max(inst.e1, inst.e2)
    between = [t for t in tree.tokens if lo < t.id < hi and context_ok(t)]
    first_head, second_head = (
        (inst.e1, inst.e2) if inst.e1 < inst.e2 else (inst.e2, inst.e1)
    )
    before = [t for t in tree.tokens if t.id < first_head and context_ok(t)]
    after = [t for t in tree.tokens if t.id > second_head and context_ok(t)]
    before = before[-cfg.window :] if cfg.window else []
    after = after[: cfg.window] if cfg.window else []

    blocks = [
        _mean_of_words(_entity_words(tree, span1, cfg), store, dictionary, cfg),
        _mean_of_words(_entity_words(tree, span2, cfg), store, dictionary, cfg),
        _mean_of_words([cfg.word_of(t) for t in between], store, dictionary, cfg),
        _mean_of_words([cfg.word_of(t) for t in before], store, dictionary, cfg),
        _mean_of_words([cfg.word_of(t) for t in after], store, dictionary, cfg),
    ]
    return np.concatenate(blocks)


def build_vud(
    inst: REInstance,
    store: EmbeddingStore,
    cfg: FeatureConfig,
    dictionary: BilingualDictionary | None = None,
) -> np.ndarray:
    """Dependency context vector: entity embeddings, shortest-path
    interior, and each entity's dependents.

    Multiword expressions among the involved tokens are collapsed first,
    so a grammaticalized word chain contributes a single vector. Blocks
    average over multisets of words, making the result invariant to
    surface order for a fixed dependency structure."""
    tree = inst.dep_tree
    path = shortest_path(tree, inst.e1, inst.e2)
    dep1 = tree.children(inst.e1)
    dep2 = tree.children(inst.e2)
    if cfg.mwe.scope == "whole_tree":
        targets = [t.id for t in tree.tokens]
    else:
        targets = set(path) | set(dep1) | set(dep2) | {inst.e1, inst.e2}
    ctree, remap = collapse_mwe(tree, cfg.mwe, targets)
    e1, e2 = remap[inst.e1], remap[inst.e2]
    path = shortest_path(ctree, e1, e2)
    dep1 = ctree.children(e1)
    dep2 = ctree.children(e2)

    span1 = tuple(sorted({remap[i] for i in range(inst.e1_span[0], inst.e1_span[1] + 1) if i in remap}))
    span2 = tuple(sorted({remap[i] for i in range(inst.e2_span[0], inst.e2_span[1] + 1) if i in remap}))
    entity_ids = set(span1) | set(span2) | {e1, e2}

    def context_words(ids):
        out = []
        for i in ids:
            token = ctree.token(i)
            if i in entity_ids:
                continue
            if cfg.exclude_punct and token.is_punct():
                continue
            out.append(cfg.word_of(token))
        return out

    e1_span = (span1[0], span1[-1]) if span1 else (e1, e1)
    e2_span = (span2[0], span2[-1]) if span2 else (e2, e2)
    blocks = [
        _mean_of_words(_entity_words(ctree, e1_span, cfg), store, dictionary, cfg),
        _mean_of_words(_entity_words(ctree, e2_span, cfg), store, dictionary, cfg),
        _mean_of_words(context_words(path), store, dictionary, cfg),
        _mean_of_words(context_words(dep1), store, dictionary, cfg),
        _mean_of_words(context_words(dep2), store, dictionary, cfg),
    ]
    return np.concatenate(blocks)
