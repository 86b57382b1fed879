"""Shipping gate: every release criterion at its stated tolerance.

Run `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion. Each test prints its verdict before asserting, so the line
appears whether the criterion holds or not.
"""

import filecmp
import itertools
import math
import pathlib
import random
import time

import numpy as np

from udkernels.combine import (
    CompositeParams,
    PairKernelParams,
    REKernelInput,
    kernel_matrix,
    softmax2,
)
from udkernels.config import parse_config
from udkernels.features import FeatureConfig, REInstance, build_vo, build_vud
from udkernels.kernels import TreeKernelParams, tree_kernel
from udkernels.lexical import indicator_sigma
from udkernels.metrics import evaluate
from udkernels.pipeline import run_eval, run_gram, run_predict, run_train
from udkernels.svm import kkt_violations, train_binary
from udkernels.synthetic import write_pi_corpus, write_re_corpus
from udkernels.transforms import (
    MweConfig,
    collapse_mwe,
    shortest_path,
    syn,
)

from conftest import permute
from oracle import brute_force_kernel


def verdict(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:>2} [{status}] {name}{extra}")
    assert not failures, f"criterion {num} {name}: " + "; ".join(
        str(f) for f in failures[:5]
    )


# ---------------------------------------------------------------------------
# 1. kernel-oracle equivalence on every small tree


def _compositions(total):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in _compositions(total - head):
            yield (head, *rest)


def _shapes(n):
    if n == 1:
        return [()]
    out = []
    for comp in _compositions(n - 1):
        for kids in itertools.product(*[_shapes(k) for k in comp]):
            out.append(tuple(kids))
    return out


def _build(shape, labels):
    label = next(labels)
    return syn(label, *[_build(kid, labels) for kid in shape])


def all_small_trees(max_nodes, alphabet="ab"):
    trees = []
    for n in range(1, max_nodes + 1):
        for shape in _shapes(n):
            for labeling in itertools.product(alphabet, repeat=n):
                trees.append(_build(shape, iter(labeling)))
    return trees


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    trees = all_small_trees(4)
    assert len(trees) == 102
    failures = []
    checked = 0
    for lam, mu in ((1.0, 1.0), (0.5, 0.5)):
        params = {
            kind: TreeKernelParams(kind=kind, lam=lam, mu=mu, normalize=False)
            for kind in ("SST", "PTK")
        }
        for t1, t2 in itertools.combinations_with_replacement(trees, 2):
            for kind in ("SST", "PTK"):
                got = tree_kernel(t1, t2, params[kind])
                want = brute_force_kernel(t1, t2, kind, lam=lam, mu=mu)
                checked += 1
                if abs(got - want) > 1e-9:
                    failures.append(f"{kind} lam={lam}: {got} vs oracle {want}")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, limit 30s")
    verdict(1, "kernel-oracle equivalence", failures,
            f"{checked} comparisons, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. positive semidefiniteness across all kernel families


def random_tree(rng, budget, alphabet="abc"):
    label = rng.choice(alphabet)
    if budget <= 1:
        return syn(label)
    n_children = rng.randint(0, min(3, budget - 1))
    children = []
    remaining = budget - 1
    for i in range(n_children):
        share = max(1, remaining // (n_children - i))
        size = rng.randint(1, share)
        children.append(random_tree(rng, size, alphabet))
        remaining -= children[-1].size()
    return syn(label, *children)


def relabel_one(rng, tree):
    """Copy of tree with one node's label changed."""
    nodes = list(tree.iter_nodes())
    target = rng.choice(nodes)

    def rebuild(node):
        label = node.label
        if node is target:
            label = "z" if label != "z" else "a"
        return syn(label, *[rebuild(c) for c in node.children])

    return rebuild(tree)


def tree_gram(trees, params):
    """Gram matrix of a bare tree kernel, upper triangle mirrored."""
    n = len(trees)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = tree_kernel(trees[i], trees[j], params)
    return gram


def check_psd(name, gram, failures):
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < -1e-8 * eigs[-1]:
        failures.append(f"{name}: min eig {eigs[0]:.3e} vs max {eigs[-1]:.3e}")


def test_criterion_2_psd_suite():
    start = time.monotonic()
    rng = random.Random(13)
    base = [random_tree(rng, rng.randint(1, 8)) for _ in range(20)]
    # a pair instance holds two parses of overlapping content, so pair
    # each tree with a lightly relabeled copy of itself
    pairs = [(t, relabel_one(rng, t)) for t in base]
    vec_rng = np.random.default_rng(13)
    vecs = vec_rng.normal(size=(20, 6))
    re_inputs = [
        REKernelInput(lct=t, vec=vecs[i], pet=relabel_one(rng, t))
        for i, t in enumerate(base)
    ]

    failures = []
    check_psd("SST", tree_gram(base, TreeKernelParams("SST")), failures)
    check_psd("PTK", tree_gram(base, TreeKernelParams("PTK")), failures)
    soft = TreeKernelParams("SPTK", sigma=indicator_sigma)
    check_psd("SPTK", tree_gram(base, soft), failures)
    sm = PairKernelParams(base=TreeKernelParams("PTK"))
    check_psd("SM_TK", kernel_matrix(pairs, pairs, sm), failures)
    ck2, ck3 = CompositeParams("CK2"), CompositeParams("CK3")
    check_psd("CK2", kernel_matrix(re_inputs, re_inputs, ck2), failures)
    check_psd("CK3", kernel_matrix(re_inputs, re_inputs, ck3), failures)

    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, limit 60s")
    verdict(2, "Gram matrices are PSD", failures, f"6 kernels, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. softmax stays inside its envelope


def test_criterion_3_softmax_envelope():
    rng = np.random.default_rng(13)
    xs = rng.uniform(-50.0, 50.0, size=(100_000, 2))
    ceiling = math.log(2.0) / 100.0
    failures = []
    for x1, x2 in xs:
        value = softmax2(float(x1), float(x2), m=100.0)
        top = max(x1, x2)
        if not (top - 1e-12 <= value <= top + ceiling + 1e-12):
            failures.append(f"softmax2({x1}, {x2}) = {value} outside envelope")
            if len(failures) > 3:
                break
    verdict(3, "softmax envelope on 1e5 pairs", failures)


# ---------------------------------------------------------------------------
# 4. the soft kernel collapses onto PTK under an indicator similarity


def test_criterion_4_sptk_reduces_to_ptk():
    rng = random.Random(29)
    soft = TreeKernelParams("SPTK", sigma=indicator_sigma, normalize=False)
    hard = TreeKernelParams("PTK", normalize=False)
    failures = []
    for _ in range(100):
        t1 = random_tree(rng, rng.randint(1, 8))
        t2 = random_tree(rng, rng.randint(1, 8))
        a = tree_kernel(t1, t2, soft)
        b = tree_kernel(t1, t2, hard)
        if abs(a - b) > 1e-9:
            failures.append(f"{a} vs {b}")
    verdict(4, "SPTK with indicator equals PTK", failures, "100 pairs")


# ---------------------------------------------------------------------------
# 5. SVM solver correctness


def test_criterion_5_svm_correctness():
    failures = []

    # (a) two orthonormal points: alpha = (1, 1), zero bias, decision
    # values exactly on the margins
    gram2 = np.eye(2)
    y2 = np.array([1.0, -1.0])
    model2 = train_binary(gram2, y2, C=10.0)
    if np.max(np.abs(model2.alpha - 1.0)) > 1e-6:
        failures.append(f"closed-form alpha {model2.alpha}")
    f2 = (model2.alpha * y2) @ gram2 + model2.bias
    if not np.all(np.sign(f2) == y2):
        failures.append(f"closed-form decision signs {f2}")

    # (b) two separable blocks of 10
    rng = np.random.default_rng(13)
    points = np.vstack(
        [
            np.array([2.0, 0.0]) + 0.1 * rng.normal(size=(10, 2)),
            np.array([0.0, 2.0]) + 0.1 * rng.normal(size=(10, 2)),
        ]
    )
    gram20 = points @ points.T
    y20 = np.array([1.0] * 10 + [-1.0] * 10)
    model20 = train_binary(gram20, y20, C=1.0)
    f20 = (model20.alpha * y20) @ gram20 + model20.bias
    accuracy = float(np.mean(np.sign(f20) == y20))
    if accuracy != 1.0:
        failures.append(f"block training accuracy {accuracy}")

    # (c) KKT conditions hold at tol
    for name, gram, y, model, C in (
        ("2-point", gram2, y2, model2, 10.0),
        ("blocks", gram20, y20, model20, 1.0),
    ):
        bad = kkt_violations(gram, y, model, C=C, tol=1e-3)
        if bad:
            failures.append(f"{name} KKT violations at {bad}")

    # (d) the dual objective never decreases across sweeps
    for name, model in (("2-point", model2), ("blocks", model20)):
        hist = model.objective_history
        drops = [b - a for a, b in zip(hist, hist[1:]) if b < a - 1e-9]
        if drops:
            failures.append(f"{name} objective drops {drops}")

    verdict(5, "SVM closed form, blocks, KKT, monotone dual", failures)


# ---------------------------------------------------------------------------
# 6. linguistic fixtures


def test_criterion_6_fixture_properties(audits_tree, farsi_audits_tree):
    failures = []

    # (a) adjacent entities: empty path interior, copula and case
    # marker live among the dependents of the second entity
    interior = shortest_path(audits_tree, 4, 7)
    if interior != ():
        failures.append(f"path interior {interior}")
    dep_forms = {audits_tree.token(i).form for i in audits_tree.children(7)}
    if not {"were", "about"} <= dep_forms:
        failures.append(f"dependents of entity 2 are {sorted(dep_forms)}")

    # (b) the grammaticalized chain collapses one pair: 8 -> 7 tokens
    cfg = MweConfig(relations=frozenset({"fixed"}), scope="whole_tree")
    collapsed, remap = collapse_mwe(
        farsi_audits_tree, cfg, [t.id for t in farsi_audits_tree.tokens]
    )
    if len(farsi_audits_tree.tokens) != 8 or len(collapsed.tokens) != 7:
        failures.append(
            f"collapse {len(farsi_audits_tree.tokens)} -> {len(collapsed.tokens)} tokens"
        )
    merged = [t for t in collapsed.tokens if " " in t.form]
    if len(merged) != 1 or merged[0].form != "به راجع":
        failures.append(f"merged tokens {[t.form for t in merged]}")

    # (c) the always-positive baseline on a 50.6%-positive set
    gold = ["1"] * 506 + ["0"] * 494
    report = evaluate(gold, ["1"] * 1000)
    accuracy = 100.0 * report.accuracy
    f1 = 100.0 * report.per_class["1"].f1
    if abs(accuracy - 50.6) > 0.05:
        failures.append(f"baseline accuracy {accuracy}")
    if abs(f1 - 67.2) > 0.05:
        failures.append(f"baseline F1 {f1}")

    verdict(6, "linguistic fixture properties", failures)


# ---------------------------------------------------------------------------
# 7. dependency features ignore surface order; window features do not


def test_criterion_7_word_order_invariance(audits_tree, unit_store):
    inst = REInstance(dep_tree=audits_tree, e1=4, e2=7, label="Message-Topic")
    scrambled_tree = permute(audits_tree, [6, 7, 1, 2, 3, 4, 5, 8, 9, 10])
    scrambled = REInstance(dep_tree=scrambled_tree, e1=6, e2=2, label="Message-Topic")
    cfg = FeatureConfig()

    failures = []
    vud_a = build_vud(inst, unit_store, cfg)
    vud_b = build_vud(scrambled, unit_store, cfg)
    if not np.array_equal(vud_a, vud_b):
        failures.append(f"V_ud changed by {np.max(np.abs(vud_a - vud_b))}")
    vo_a = build_vo(inst, unit_store, cfg)
    vo_b = build_vo(scrambled, unit_store, cfg)
    if np.array_equal(vo_a, vo_b):
        failures.append("V_o identical under permuted surface order")
    verdict(7, "V_ud order-invariant, V_o order-sensitive", failures)


# ---------------------------------------------------------------------------
# 8. end-to-end smoke on generated data


def pi_config(paths):
    return parse_config(
        {
            "task": "pi",
            "kernel": {"base": {"kind": "PTK"}, "m": 100.0},
            "data": {
                "train": paths["bank"],
                "pairs_train": paths["pairs_train.tsv"],
                "pairs_test": paths["pairs_test.tsv"],
                "source_lang": "en",
            },
        }
    )


def re_config(paths):
    return parse_config(
        {
            "task": "re",
            "kernel": {"variant": "CK2", "sst": {"kind": "SST"}, "pt": {"kind": "PTK"}},
            "data": {
                "train": paths["train.conllu"],
                "test": paths["test.conllu"],
                "source_lang": "en",
            },
            "resources": {"embeddings": {"en": paths["vectors.txt"]}},
        }
    )


def test_criterion_8_end_to_end_smoke(tmp_path):
    start = time.monotonic()
    failures = []

    pi_paths = write_pi_corpus(tmp_path / "pi", n_pairs=40, seed=13)
    cfg = pi_config(pi_paths)
    model = tmp_path / "pi-model.json"
    run_train(cfg, model)
    _, labels, _ = run_predict(cfg, model, None)
    pi_report = run_eval(cfg, labels)
    if pi_report.accuracy < 0.9:
        failures.append(f"pair task held-out accuracy {pi_report.accuracy:.3f}")

    re_paths = write_re_corpus(tmp_path / "re", n_per_class=20, seed=13)
    re_cfg = re_config(re_paths)
    re_model = tmp_path / "re-model.json"
    run_train(re_cfg, re_model)
    _, re_labels, _ = run_predict(re_cfg, re_model, None)
    re_report = run_eval(re_cfg, re_labels)
    if re_report.accuracy < 0.9:
        failures.append(f"relation task held-out accuracy {re_report.accuracy:.3f}")

    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, limit 120s")
    verdict(
        8,
        "end-to-end smoke",
        failures,
        f"pair acc {pi_report.accuracy:.2f}, relation acc {re_report.accuracy:.2f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. full-scale runs are a documented runbook, not a desk test


def test_criterion_9_runbook_documented():
    failures = []
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    if not readme.exists():
        failures.append("README.md missing")
        text = ""
    else:
        text = readme.read_text(encoding="utf-8")
    if "Full-scale runbook" not in text:
        failures.append("runbook section missing")
    for needle in ("SemEval", "paraphrase", "embedding", "dictionar"):
        if needle.lower() not in text.lower():
            failures.append(f"runbook does not mention {needle}")
    verdict(9, "full-scale runbook documented", failures)


# ---------------------------------------------------------------------------
# 10. byte-identical artifacts


def test_criterion_10_determinism(tmp_path):
    failures = []
    paths = write_pi_corpus(tmp_path / "data", n_pairs=12, seed=13)
    cfg = pi_config(paths)

    gram_a = tmp_path / "a.gram"
    gram_b = tmp_path / "b.gram"
    run_gram(cfg, gram_a)
    run_gram(cfg, gram_b)
    if not filecmp.cmp(gram_a, gram_b, shallow=False):
        failures.append("gram differs between consecutive runs")

    model_a = tmp_path / "a.json"
    model_b = tmp_path / "b.json"
    run_train(cfg, model_a)
    run_train(cfg, model_b, gram_path=gram_b)
    if not filecmp.cmp(model_a, model_b, shallow=False):
        failures.append("model differs between direct and gram-reusing runs")

    pred_a = tmp_path / "a.tsv"
    pred_b = tmp_path / "b.tsv"
    run_predict(cfg, model_a, pred_a)
    run_predict(cfg, model_b, pred_b)
    if not filecmp.cmp(pred_a, pred_b, shallow=False):
        failures.append("predictions differ between runs")

    # repeated in-memory kernel evaluation is bit-stable too
    rng = random.Random(13)
    trees = [random_tree(rng, rng.randint(1, 8)) for _ in range(10)]
    params = TreeKernelParams("SST")
    if not np.array_equal(tree_gram(trees, params), tree_gram(trees, params)):
        failures.append("kernel evaluations differ between runs")

    verdict(10, "byte-identical artifacts", failures)
