"""Seeded long-sentence pair corpus for the pair-classification workload.

Sentences are random projective clauses over a fixed length multiset
(roughly 8 to 40 tokens, skewed short as news sentences are) whose
phrase mix depends on the length alone, so every seed yields about the
same amount of kernel work with different trees.

A positive pair is a sentence and an edited passive copy of it: the
object becomes the passive subject, the subject an agent phrase, and a
few modifiers are swapped for others of the same part of speech. A
negative pair is a sentence and another active clause over the same
vocabulary that reuses some of its nouns, written with possessives
instead of articles; the pair kernel compares pairs only across pairs,
so the class has to show in the second sentence's own structure. An
exact, class-balanced share of test labels is flipped, so accuracy sits
below 100 and can move.
"""

from __future__ import annotations

import os
import random

from udkernels.conllu import DepTree, Token, to_conllu, validate

NOUNS = (
    "board analyst bank company court deal director market minister official "
    "plan price report share team union vote worker budget contract council "
    "decision economy election family fund growth judge lawyer loan manager "
    "network offer office party player police policy profit project school "
    "senator server software station student system tax teacher trade village"
).split()
VERBS = (
    "approve block cancel check close cover delay design expect follow help "
    "inform launch manage move open order plan protect publish reject replace "
    "report review share sign support test track train value visit warn"
).split()
ADJECTIVES = (
    "annual big central early federal final foreign formal global huge key "
    "large late local main major national new old private public recent "
    "senior small special strong weak"
).split()
ADVERBS = "already also finally quickly recently still again openly quietly soon".split()
PREPOSITIONS = "in on at for with after before during under over".split()
DETERMINERS = "the a this that every".split()
POSSESSIVES = "his her its our their".split()

LENGTH_RANGE = (8, 38)  # active sentence; its passive copy has two more tokens


class _Node:
    __slots__ = ("form", "lemma", "upos", "deprel", "left", "right")

    def __init__(self, form, upos, deprel, lemma=None):
        self.form = form
        self.lemma = lemma or form
        self.upos = upos
        self.deprel = deprel
        self.left = []
        self.right = []


def _np(rng, noun, deprel, possessive=False):
    node = _Node(noun, "NOUN", deprel)
    if possessive:
        node.left.append(_Node(rng.choice(POSSESSIVES), "PRON", "nmod:poss"))
    else:
        node.left.append(_Node(rng.choice(DETERMINERS), "DET", "det"))
    return node


def _pp(rng, noun, deprel, possessive=False):
    node = _np(rng, noun, deprel, possessive)
    node.left.insert(0, _Node(rng.choice(PREPOSITIONS), "ADP", "case"))
    return node


def _clause(rng, length, nouns, possessive=False):
    """Active clause of exactly `length` tokens as a (root, subj, obj) triple.

    The mix of phrases depends on the length alone; the seed picks words
    and attachment sites.
    """
    verb = rng.choice(VERBS)
    root = _Node(verb + "ed", "VERB", "root", lemma=verb)
    subj = _np(rng, nouns.pop(), "nsubj", possessive)
    obj = _np(rng, nouns.pop(), "obj", possessive)
    root.left.append(subj)
    root.right.append(obj)
    noun_phrases = [subj, obj]
    extra = length - 6
    n_pp = extra // 5
    n_adv = (extra - 3 * n_pp) // 4
    n_adj = extra - 3 * n_pp - n_adv
    for k in range(n_pp):
        if k % 2 == 0:
            pp = _pp(rng, nouns.pop(), "obl", possessive)
            root.right.append(pp)
        else:
            pp = _pp(rng, nouns.pop(), "nmod", possessive)
            rng.choice(noun_phrases).right.append(pp)
        noun_phrases.append(pp)
    for _ in range(n_adj):
        rng.choice(noun_phrases).left.append(_Node(rng.choice(ADJECTIVES), "ADJ", "amod"))
    for _ in range(n_adv):
        root.left.insert(0, _Node(rng.choice(ADVERBS), "ADV", "advmod"))
    root.right.append(_Node(".", "PUNCT", "punct"))
    return root, subj, obj


def _passive_copy(rng, root, subj, obj):
    """Passive twin of an active clause with a few modifiers swapped."""

    def copy(node, deprel=None):
        out = _Node(node.form, node.upos, deprel or node.deprel, node.lemma)
        if node.upos in ("ADJ", "ADV") and rng.random() < 0.25:
            pool = ADJECTIVES if node.upos == "ADJ" else ADVERBS
            out.form = out.lemma = rng.choice(pool)
        out.left = [copy(n) for n in node.left]
        out.right = [copy(n) for n in node.right]
        return out

    new_root = _Node(root.form, root.upos, "root", root.lemma)
    agent = copy(subj, "obl:agent")
    agent.left.insert(0, _Node("by", "ADP", "case"))
    adverbs = [copy(n) for n in root.left if n is not subj]
    new_root.left = [copy(obj, "nsubj:pass"), *adverbs, _Node("was", "AUX", "aux:pass", "be")]
    rest = [copy(n) for n in root.right if n is not obj]
    new_root.right = [agent, *rest]
    return new_root


def _to_tree(sent_id, root) -> DepTree:
    order = []

    def walk(node, head_slot):
        for child in node.left:
            walk(child, node)
        order.append((node, head_slot))
        for child in node.right:
            walk(child, node)

    walk(root, None)
    ids = {id(node): i for i, (node, _) in enumerate(order, start=1)}
    tokens = tuple(
        Token(
            id=ids[id(node)],
            form=node.form,
            lemma=node.lemma,
            upos=node.upos,
            xpos=None,
            feats={},
            head=ids[id(head)] if head is not None else 0,
            deprel=node.deprel,
            misc={},
        )
        for node, head in order
    )
    tree = DepTree(sent_id=sent_id, tokens=tokens, text=" ".join(t.form for t in tokens))
    problems = validate(tree)
    if problems:
        raise ValueError(f"generated tree {sent_id} is malformed: {problems[0]}")
    return tree


def _lengths(n: int, rng) -> list:
    lo, hi = LENGTH_RANGE
    # quantiles of a short-skewed distribution, the same multiset for every seed
    out = [lo + round((hi - lo) * ((k + 0.5) / n) ** 1.6) for k in range(n)]
    rng.shuffle(out)
    return out


def _split(rng, prefix, n_pairs, noise=0.0):
    trees, rows = [], []
    lengths = _lengths(n_pairs, rng)
    for i, length in enumerate(lengths):
        nouns = rng.sample(NOUNS, len(NOUNS))
        root, subj, obj = _clause(rng, length, list(nouns))
        sid_a, sid_b = f"{prefix}{i:03d}a", f"{prefix}{i:03d}b"
        positive = i % 2 == 0
        if positive:
            other = _passive_copy(rng, root, subj, obj)
        else:
            shared = nouns[: length // 3]
            fresh = [n for n in NOUNS if n not in shared]
            rng.shuffle(fresh)
            other, _, _ = _clause(rng, length + 2, fresh + shared, possessive=True)
        trees.append(_to_tree(sid_a, root))
        trees.append(_to_tree(sid_b, other))
        rows.append([positive, sid_a, sid_b])
    flips = round(noise * n_pairs / 2)
    pools = [[row for row in rows if row[0] == positive] for positive in (True, False)]
    for pool in pools:
        for row in rng.sample(pool, flips):
            row[0] = not row[0]
    rng.shuffle(rows)
    return trees, [("1" if pos else "0", a, b) for pos, a, b in rows]


def write_pair_corpus(out_dir, n_train: int, n_test: int, seed: int, noise: float):
    """Write sentences.conllu, pairs_train.tsv and pairs_test.tsv; return paths.

    `noise` is the share of test labels flipped, half in each class.
    """
    rng = random.Random(seed)
    # training labels stay clean: noisy ones make SMO's work depend on
    # which pairs were flipped, so train time would vary with the seed
    train_trees, train_rows = _split(rng, "tr", n_train)
    test_trees, test_rows = _split(rng, "te", n_test, noise)
    os.makedirs(out_dir, exist_ok=True)
    paths = {"bank": os.path.join(out_dir, "sentences.conllu")}
    with open(paths["bank"], "w", encoding="utf-8") as handle:
        for tree in train_trees + test_trees:
            handle.write(to_conllu(tree) + "\n")
    for name, rows in (("pairs_train", train_rows), ("pairs_test", test_rows)):
        paths[name] = os.path.join(out_dir, name + ".tsv")
        with open(paths[name], "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write("\t".join(row) + "\n")
    return paths
