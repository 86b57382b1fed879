"""Seeded synthetic corpora for smoke tests and demos.

The paraphrase corpus pairs an active-voice sentence with either its
passive counterpart (a paraphrase) or an unrelated copular sentence.
Content lemmas are unique to each pair, so classifiers must read the
structural signal rather than memorizing vocabulary.

The relation corpus realizes three relation types through distinct
verb and preposition inventories over per-instance entity nouns, with
embedding vectors clustered by type so both the tree kernel and the
context vectors carry signal.

A pseudo-language twin (every surface form prefixed) plus a matching
dictionary supports cross-lingual round trips without real parallel
data.
"""

from __future__ import annotations

import random

from .conllu import DepTree, Token, to_conllu
from .transforms import ConstTree, const_to_bracketed


def _tok(tid, form, lemma, upos, head, deprel, misc=None):
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


def _tree(sent_id, tokens, metadata=None):
    return DepTree(
        sent_id=sent_id,
        tokens=tuple(tokens),
        text=" ".join(t.form for t in tokens),
        metadata=dict(metadata or {}),
    )


# ---------------------------------------------------------------------------
# Paraphrase pairs.


def _active(sid, agent, verb, theme):
    # the <agent> <verb>ed the <theme> .
    return _tree(
        sid,
        [
            _tok(1, "the", "the", "DET", 2, "det"),
            _tok(2, agent, agent, "NOUN", 3, "nsubj"),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, "the", "the", "DET", 5, "det"),
            _tok(5, theme, theme, "NOUN", 3, "obj"),
            _tok(6, ".", ".", "PUNCT", 3, "punct"),
        ],
    )


def _passive(sid, agent, verb, theme):
    # the <theme> was <verb>ed by the <agent> .
    return _tree(
        sid,
        [
            _tok(1, "the", "the", "DET", 2, "det"),
            _tok(2, theme, theme, "NOUN", 4, "nsubj:pass"),
            _tok(3, "was", "be", "AUX", 4, "aux:pass"),
            _tok(4, verb + "ed", verb, "VERB", 0, "root"),
            _tok(5, "by", "by", "ADP", 7, "case"),
            _tok(6, "the", "the", "DET", 7, "det"),
            _tok(7, agent, agent, "NOUN", 4, "obl:agent"),
            _tok(8, ".", ".", "PUNCT", 4, "punct"),
        ],
    )


def _copular(sid, noun, adjective):
    # the <noun> is quite <adjective> today .
    return _tree(
        sid,
        [
            _tok(1, "the", "the", "DET", 2, "det"),
            _tok(2, noun, noun, "NOUN", 5, "nsubj"),
            _tok(3, "is", "be", "AUX", 5, "cop"),
            _tok(4, "quite", "quite", "ADV", 5, "advmod"),
            _tok(5, adjective, adjective, "ADJ", 0, "root"),
            _tok(6, "today", "today", "NOUN", 5, "obl:tmod"),
            _tok(7, ".", ".", "PUNCT", 5, "punct"),
        ],
    )


def make_pi_corpus(n_pairs: int = 40, seed: int = 13):
    """Sentence bank plus labeled pairs, half paraphrases."""
    rng = random.Random(seed)
    trees = []
    pairs = []
    for i in range(n_pairs):
        agent, verb, theme = f"agent{i}", f"lift{i}", f"crate{i}"
        sid_a = f"pi{i:03d}a"
        sid_b = f"pi{i:03d}b"
        trees.append(_active(sid_a, agent, verb, theme))
        positive = i % 2 == 0
        if positive:
            trees.append(_passive(sid_b, agent, verb, theme))
        else:
            trees.append(_copular(sid_b, f"lamp{i}", f"bright{i}"))
        pairs.append(("1" if positive else "0", sid_a, sid_b))
    rng.shuffle(pairs)
    return trees, pairs


def write_pi_corpus(out_dir, n_pairs: int = 40, seed: int = 13, test_fraction: float = 0.25):
    """Write sentences.conllu, pairs_train.tsv, pairs_test.tsv."""
    import os

    trees, pairs = make_pi_corpus(n_pairs, seed)
    os.makedirs(out_dir, exist_ok=True)
    bank = os.path.join(out_dir, "sentences.conllu")
    with open(bank, "w", encoding="utf-8") as handle:
        for tree in trees:
            handle.write(to_conllu(tree) + "\n")
    n_test = max(1, int(len(pairs) * test_fraction))
    splits = {
        "pairs_test.tsv": pairs[:n_test],
        "pairs_train.tsv": pairs[n_test:],
    }
    paths = {"bank": bank}
    for name, rows in splits.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            for label, sid_a, sid_b in rows:
                handle.write(f"{label}\t{sid_a}\t{sid_b}\n")
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# Relation instances.

RELATIONS = ("Cause-Effect", "Content-Container", "Message-Topic")

_VERBS = {
    "Cause-Effect": ("cause", "trigger", "produce"),
    "Message-Topic": ("discuss", "describe", "address"),
}
_CONTAINER_PREPS = ("inside", "within", "in")


def _transitive_re(sid, relation, e1, verb, e2):
    # the <e1> <verb>ed the <e2> .
    return _tree(
        sid,
        [
            _tok(1, "the", "the", "DET", 2, "det"),
            _tok(2, e1, e1, "NOUN", 3, "nsubj", {"Entity": "e1"}),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, "the", "the", "DET", 5, "det"),
            _tok(5, e2, e2, "NOUN", 3, "obj", {"Entity": "e2"}),
            _tok(6, ".", ".", "PUNCT", 3, "punct"),
        ],
        {"relation": relation},
    )


def _container_re(sid, e1, prep, e2):
    # the <e1> was <prep> the <e2> .
    return _tree(
        sid,
        [
            _tok(1, "the", "the", "DET", 2, "det"),
            _tok(2, e1, e1, "NOUN", 6, "nsubj", {"Entity": "e1"}),
            _tok(3, "was", "be", "AUX", 6, "cop"),
            _tok(4, prep, prep, "ADP", 6, "case"),
            _tok(5, "the", "the", "DET", 6, "det"),
            _tok(6, e2, e2, "NOUN", 0, "root", {"Entity": "e2"}),
            _tok(7, ".", ".", "PUNCT", 6, "punct"),
        ],
        {"relation": "Content-Container"},
    )


def make_re_corpus(n_per_class: int = 20, seed: int = 13):
    """Instances cycling through the three relation frames."""
    rng = random.Random(seed)
    trees = []
    counter = 0
    for relation in RELATIONS:
        for j in range(n_per_class):
            sid = f"re{counter:03d}"
            e1 = f"item{counter}"
            e2 = f"thing{counter}"
            if relation == "Content-Container":
                trees.append(_container_re(sid, e1, _CONTAINER_PREPS[j % 3], e2))
            else:
                verb = _VERBS[relation][j % 3]
                trees.append(_transitive_re(sid, relation, e1, verb, e2))
            counter += 1
    rng.shuffle(trees)
    return trees


def corpus_vocabulary(trees):
    words = set()
    for tree in trees:
        for token in tree.tokens:
            if token.upos == "PUNCT":
                continue
            words.add(token.form.lower())
            if token.lemma:
                words.add(token.lemma.lower())
    return sorted(words)


def write_clustered_embeddings(path, trees, dim: int = 8, seed: int = 13):
    """Vector file covering the corpus vocabulary.

    Relation-bearing words (the verb and preposition inventories) sit
    in tight per-relation clusters; everything else is drawn at random.
    """
    rng = random.Random(seed)
    clusters = {}
    for index, relation in enumerate(RELATIONS):
        center = [0.0] * dim
        center[index % dim] = 4.0
        clusters[relation] = center
    assigned = {}
    for relation, verbs in _VERBS.items():
        for verb in verbs:
            assigned[verb] = clusters[relation]
            assigned[verb + "ed"] = clusters[relation]
    for prep in _CONTAINER_PREPS:
        assigned[prep] = clusters["Content-Container"]

    with open(path, "w", encoding="utf-8") as handle:
        for word in corpus_vocabulary(trees):
            base = assigned.get(word)
            if base is None:
                vec = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
            else:
                vec = [c + rng.uniform(-0.05, 0.05) for c in base]
            handle.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
    return path


def pseudo_translate_corpus(trees, prefix: str = "x"):
    """Pseudo-language twin: every non-punctuation surface form and
    lemma gains a prefix, structure untouched."""
    out = []
    for tree in trees:
        tokens = []
        for tok in tree.tokens:
            if tok.upos == "PUNCT":
                tokens.append(tok)
                continue
            tokens.append(
                Token(
                    id=tok.id,
                    form=prefix + tok.form,
                    lemma=prefix + tok.lemma if tok.lemma else tok.lemma,
                    upos=tok.upos,
                    xpos=tok.xpos,
                    feats=dict(tok.feats),
                    head=tok.head,
                    deprel=tok.deprel,
                    misc=dict(tok.misc),
                )
            )
        out.append(_tree(tree.sent_id, tokens, tree.metadata))
    return out


def write_pseudo_dictionary(path, trees, prefix: str = "x"):
    """Dictionary rows mapping pseudo-language words back to the base."""
    with open(path, "w", encoding="utf-8") as handle:
        for word in corpus_vocabulary(trees):
            handle.write(f"{prefix}{word}\t{word}\n")
    return path


def const_parse_line(tree: DepTree) -> str:
    """Bracketed constituency parse matching a synthetic relation tree."""
    n = lambda label, *children: ConstTree(label, children)
    w = [n(t.form) for t in tree.tokens]
    if any(t.deprel == "cop" for t in tree.tokens):
        # the e1 was prep the e2 .
        pp = n("PP", n("IN", w[3]), n("NP", n("DT", w[4]), n("NN", w[5])))
        vp, punct = n("VP", n("VBD", w[2]), pp), w[6]
    else:
        # the e1 verbed the e2 .
        vp, punct = n("VP", n("VBD", w[2]), n("NP", n("DT", w[3]), n("NN", w[4]))), w[5]
    s = n("S", n("NP", n("DT", w[0]), n("NN", w[1])), vp, n("PUNCT", punct))
    return const_to_bracketed(s)


def write_const_parses(path, trees):
    with open(path, "w", encoding="utf-8") as handle:
        for tree in trees:
            handle.write(const_parse_line(tree) + "\n")
    return path


def write_re_corpus(out_dir, n_per_class: int = 20, seed: int = 13, test_fraction: float = 0.25):
    """Write train.conllu, test.conllu, vectors.txt for a relation run."""
    import os

    trees = make_re_corpus(n_per_class, seed)
    os.makedirs(out_dir, exist_ok=True)
    n_test = max(1, int(len(trees) * test_fraction))
    paths = {}
    for name, subset in (("test.conllu", trees[:n_test]), ("train.conllu", trees[n_test:])):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            for tree in subset:
                handle.write(to_conllu(tree) + "\n")
        paths[name] = path
        const_name = name.replace(".conllu", ".const")
        paths[const_name] = write_const_parses(os.path.join(out_dir, const_name), subset)
    paths["vectors.txt"] = write_clustered_embeddings(
        os.path.join(out_dir, "vectors.txt"), trees, seed=seed
    )
    return paths


def write_crosslingual_re(out_dir, n_per_class: int = 20, seed: int = 13, test_fraction: float = 0.25):
    """Relation run with pseudo-language test data.

    Training sentences, embeddings, and parses stay in the base
    language; the held-out split is pseudo-translated and a dictionary
    maps its words back, so the test side only reaches vectors through
    translation.
    """
    import os

    trees = make_re_corpus(n_per_class, seed)
    os.makedirs(out_dir, exist_ok=True)
    n_test = max(1, int(len(trees) * test_fraction))
    test, train = trees[:n_test], trees[n_test:]
    paths = {}
    for name, subset in (("test.conllu", pseudo_translate_corpus(test)), ("train.conllu", train)):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            for tree in subset:
                handle.write(to_conllu(tree) + "\n")
        paths[name] = path
    paths["vectors.txt"] = write_clustered_embeddings(
        os.path.join(out_dir, "vectors.txt"), trees, seed=seed
    )
    paths["dict.tsv"] = write_pseudo_dictionary(os.path.join(out_dir, "dict.tsv"), test)
    return paths
