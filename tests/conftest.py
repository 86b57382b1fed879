"""Shared fixtures: hand-parsed sentences exercising the interesting
structures (noun-phrase chains, copular roots, grammaticalized
multiword chains) and small embedding stores."""

import numpy as np
import pytest

from udkernels.conllu import DepTree, Token
from udkernels.lexical import EmbeddingStore


def tok(tid, form, lemma, upos, head, deprel, misc=None):
    return Token(
        id=tid,
        form=form,
        lemma=lemma,
        upos=upos,
        xpos=None,
        feats={},
        head=head,
        deprel=deprel,
        misc=dict(misc or {}),
    )


def tree(sent_id, tokens, metadata=None):
    return DepTree(
        sent_id=sent_id,
        tokens=tuple(tokens),
        text=" ".join(t.form for t in tokens),
        metadata=dict(metadata or {}),
    )


def permute(dep: DepTree, order):
    """Rebuild a sentence with tokens in a new surface order, keeping
    every dependency arc. order[i] is the old id at new position i+1."""
    new_of_old = {old: new for new, old in enumerate(order, start=1)}
    tokens = []
    for new, old in enumerate(order, start=1):
        t = dep.token(old)
        tokens.append(
            Token(
                id=new,
                form=t.form,
                lemma=t.lemma,
                upos=t.upos,
                xpos=t.xpos,
                feats=dict(t.feats),
                head=0 if t.head == 0 else new_of_old[t.head],
                deprel=t.deprel,
                misc=dict(t.misc),
            )
        )
    tokens.sort(key=lambda t: t.id)
    return DepTree(
        sent_id=dep.sent_id + "-scrambled",
        tokens=tuple(tokens),
        text=" ".join(t.form for t in tokens),
        metadata=dict(dep.metadata),
    )


@pytest.fixture
def memo_tree():
    """The memo presents details about the lineup management."""
    return tree(
        "memo",
        [
            tok(1, "The", "the", "DET", 2, "det"),
            tok(2, "memo", "memo", "NOUN", 3, "nsubj"),
            tok(3, "presents", "present", "VERB", 0, "root"),
            tok(4, "details", "detail", "NOUN", 3, "obj"),
            tok(5, "about", "about", "ADP", 8, "case"),
            tok(6, "the", "the", "DET", 8, "det"),
            tok(7, "lineup", "lineup", "NOUN", 8, "compound"),
            tok(8, "management", "management", "NOUN", 4, "nmod"),
        ],
    )


@pytest.fixture
def audits_tree():
    """The most common audits were about waste and recycling .

    Copular sentence whose entity pair (audits, waste) is directly
    connected: the shortest path between them has no interior.
    """
    return tree(
        "audits-waste",
        [
            tok(1, "The", "the", "DET", 4, "det"),
            tok(2, "most", "most", "ADV", 3, "advmod"),
            tok(3, "common", "common", "ADJ", 4, "amod"),
            tok(4, "audits", "audit", "NOUN", 7, "nsubj", {"Entity": "e1"}),
            tok(5, "were", "be", "AUX", 7, "cop"),
            tok(6, "about", "about", "ADP", 7, "case"),
            tok(7, "waste", "waste", "NOUN", 0, "root", {"Entity": "e2"}),
            tok(8, "and", "and", "CCONJ", 9, "cc"),
            tok(9, "recycling", "recycling", "NOUN", 7, "conj"),
            tok(10, ".", ".", "PUNCT", 7, "punct"),
        ],
        {"relation": "Message-Topic"},
    )


@pytest.fixture
def farsi_audits_tree():
    """The same sentence in Farsi, verb-final with the grammaticalized
    chain «راجع به» (about): به attaches to راجع via `fixed`."""
    return tree(
        "audits-waste-fa",
        [
            tok(1, "بود", "بود", "AUX", 4, "cop"),
            tok(2, "بازیافت", "بازیافت", "NOUN", 4, "conj"),
            tok(3, "و", "و", "CCONJ", 2, "cc"),
            tok(4, "زباله", "زباله", "NOUN", 0, "root", {"Entity": "e1"}),
            tok(5, "به", "به", "ADP", 6, "fixed"),
            tok(6, "راجع", "راجع", "ADP", 4, "case"),
            tok(7, "حسابرسی‌ها", "حسابرسی", "NOUN", 4, "nsubj", {"Entity": "e2"}),
            tok(8, "رایجترین", "رایج", "ADJ", 7, "amod"),
        ],
        {"relation": "Message-Topic"},
    )


@pytest.fixture
def unit_store():
    """Orthogonal unit vectors plus a couple of correlated words."""
    vectors = {
        "audit": np.array([1.0, 0.0, 0.0]),
        "waste": np.array([0.0, 1.0, 0.0]),
        "recycling": np.array([0.0, 0.8, 0.6]),
        "memo": np.array([0.0, 0.0, 1.0]),
        "about": np.array([0.5, 0.5, 0.0]),
        "be": np.array([0.2, 0.2, 0.2]),
        "the": np.array([0.1, 0.1, 0.1]),
        "most": np.array([0.3, 0.0, 0.3]),
        "common": np.array([0.0, 0.3, 0.3]),
        "and": np.array([0.1, 0.2, 0.1]),
    }
    return EmbeddingStore(dim=3, vectors=vectors)
