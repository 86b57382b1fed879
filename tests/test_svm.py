"""SMO solver, one-vs-rest wrapper, and model persistence."""

import filecmp
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udkernels.combine import payload_to_dict
from udkernels.errors import ConfigError, ModelError, NumericError, TrainingError
from udkernels.svm import (
    ClassModel,
    SvmModel,
    build_model,
    kkt_violations,
    load_model,
    predict,
    save_model,
    train_binary,
    train_ovr,
)
from udkernels.transforms import labeled_from_sexpr


# ---------------------------------------------------------------------------
# binary solver

# Two orthonormal points with opposite labels. The dual collapses to
# max 2a - a^2 under alpha_1 = alpha_2 = a, so a = 1, b = 0, and both
# margins sit exactly on the boundary.


def test_two_point_closed_form():
    gram = np.eye(2)
    y = [1.0, -1.0]
    model = train_binary(gram, y, C=10.0)
    assert model.alpha == pytest.approx([1.0, 1.0], abs=1e-9)
    assert model.bias == pytest.approx(0.0, abs=1e-9)
    f = (model.alpha * np.array(y)) @ gram + model.bias
    assert f == pytest.approx([1.0, -1.0], abs=1e-9)
    assert model.objective_history[-1] == pytest.approx(1.0, abs=1e-9)
    assert list(model.support) == [0, 1]
    assert kkt_violations(gram, y, model, C=10.0) == []


def test_two_point_box_clamp():
    # same problem with C below the unconstrained optimum: both alphas
    # stop at the box and the bias falls back to the feasibility midpoint
    gram = np.eye(2)
    y = [1.0, -1.0]
    model = train_binary(gram, y, C=0.5)
    assert model.alpha == pytest.approx([0.5, 0.5], abs=1e-9)
    assert model.bias == pytest.approx(0.0, abs=1e-9)
    assert kkt_violations(gram, y, model, C=0.5) == []


def test_flat_direction_duplicate_points():
    # identical rows make eta zero; the step must still move to the
    # better box endpoint instead of dividing by zero
    gram = np.ones((2, 2))
    y = [1.0, -1.0]
    model = train_binary(gram, y, C=1.0)
    assert model.alpha == pytest.approx([1.0, 1.0], abs=1e-9)
    assert kkt_violations(gram, y, model, C=1.0) == []


def test_per_sample_box():
    gram = np.ones((2, 2))
    y = [1.0, -1.0]
    model = train_binary(gram, y, C=1.0, sample_C=[1.0, 0.3])
    # the equality constraint keeps the alphas tied, so the smaller
    # box binds both
    assert model.alpha == pytest.approx([0.3, 0.3], abs=1e-9)


def block_problem():
    """Six separable points in two feature-space clusters."""
    points = np.array(
        [
            [2.0, 0.0],
            [2.2, 0.1],
            [1.9, -0.1],
            [0.0, 2.0],
            [0.1, 2.1],
            [-0.1, 1.9],
        ]
    )
    gram = points @ points.T
    y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    return gram, y


def test_block_separable_problem():
    gram, y = block_problem()
    model = train_binary(gram, y, C=1.0)
    f = (model.alpha * y) @ gram + model.bias
    assert np.all(np.sign(f) == y)
    assert kkt_violations(gram, y, model, C=1.0) == []
    assert float(np.dot(model.alpha, y)) == pytest.approx(0.0, abs=1e-9)


def test_objective_history_monotone():
    gram, y = block_problem()
    model = train_binary(gram, y, C=1.0)
    hist = model.objective_history
    assert len(hist) >= 1
    for earlier, later in zip(hist, hist[1:]):
        assert later >= earlier - 1e-9


def test_training_is_deterministic():
    gram, y = block_problem()
    first = train_binary(gram, y, C=1.0)
    second = train_binary(gram, y, C=1.0)
    assert np.array_equal(first.alpha, second.alpha)
    assert first.bias == second.bias
    assert first.objective_history == second.objective_history


def test_label_and_shape_validation():
    with pytest.raises(TrainingError, match="both classes"):
        train_binary(np.eye(2), [1.0, 1.0])
    with pytest.raises(TrainingError, match="shape"):
        train_binary(np.eye(3), [1.0, -1.0])
    with pytest.raises(NumericError, match="non-finite"):
        train_binary(np.array([[1.0, np.nan], [np.nan, 1.0]]), [1.0, -1.0])


@st.composite
def psd_problems(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    entries = st.floats(min_value=-2.0, max_value=2.0)
    a = np.array([[draw(entries) for _ in range(n)] for _ in range(n)])
    gram = a @ a.T + 1e-6 * np.eye(n)
    n_pos = draw(st.integers(min_value=1, max_value=n - 1))
    y = np.array([1.0] * n_pos + [-1.0] * (n - n_pos))
    return gram, y


@settings(max_examples=40, deadline=None)
@given(problem=psd_problems())
def test_solver_invariants_on_random_problems(problem):
    gram, y = problem
    model = train_binary(gram, y, C=1.0)
    assert kkt_violations(gram, y, model, C=1.0) == []
    assert float(np.dot(model.alpha, y)) == pytest.approx(0.0, abs=1e-8)
    assert np.all(model.alpha >= -1e-12)
    assert np.all(model.alpha <= 1.0 + 1e-12)
    hist = model.objective_history
    for earlier, later in zip(hist, hist[1:]):
        assert later >= earlier - 1e-8


def test_final_bias_keeps_kkt_when_free_mean_drifts():
    # Found by Hypothesis: the free instances' y - g spread nearly 2*tol,
    # so their mean put instance 3's margin at 1.0011, outside 1 +- tol.
    gram = np.array(
        [
            [2.31640725, 1.5625, -1.6661376953125, -1.986328125, -0.8315169191030831, 0.0],
            [1.5625, 4.7080088125, 2.6376953125, -0.0692138671875, 2.974609375, 0.0],
            [-1.6661376953125, 2.6376953125, 7.138249443603516, 3.309844970703125,
             3.585795892452312, 0.0],
            [-1.986328125, -0.0692138671875, 3.309844970703125, 3.8170214162597658,
             0.9003728199621418, 0.59375],
            [-0.8315169191030831, 2.974609375, 3.585795892452312, 0.9003728199621418,
             5.308846972292896, 0.0],
            [0.0, 0.0, 0.0, 0.59375, 0.0, 1.000001],
        ]
    )
    y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    model = train_binary(gram, y, C=1.0)
    assert kkt_violations(gram, y, model, C=1.0) == []


# ---------------------------------------------------------------------------
# one-vs-rest and persisted models


def three_class_problem():
    points = np.array(
        [
            [2.0, 0.0, 0.0],
            [2.1, 0.1, 0.0],
            [0.0, 2.0, 0.1],
            [0.1, 2.2, 0.0],
            [0.0, 0.1, 2.0],
            [0.1, 0.0, 2.1],
        ]
    )
    labels = ["cause", "cause", "message", "message", "content", "content"]
    return points @ points.T, labels


def pair_payload(tag):
    a = labeled_from_sexpr(f"(root ({tag}))")
    b = labeled_from_sexpr(f"(root ({tag}) (extra))")
    return (a, b)


def test_train_ovr_classes_and_errors():
    gram, labels = three_class_problem()
    ovr = train_ovr(gram, labels, C=1.0)
    assert ovr.classes == ("cause", "content", "message")
    assert set(ovr.binaries) == set(ovr.classes)
    with pytest.raises(TrainingError, match="2 classes"):
        train_ovr(gram, ["only"] * 6)


def test_class_weights_scale_the_box():
    gram, labels = three_class_problem()
    ovr = train_ovr(gram, labels, C=1.0, class_weights={"cause": 0.5})
    for binary in ovr.binaries.values():
        assert np.all(binary.alpha <= 1.0 + 1e-12)


def test_class_weighted_model_meets_kkt_at_its_weighted_box():
    rng = np.random.default_rng(0)
    points = np.vstack([rng.normal(0.0, 1.0, (20, 2)), rng.normal(1.0, 1.0, (20, 2))])
    gram = points @ points.T
    labels = ["a"] * 20 + ["b"] * 20
    ovr = train_ovr(gram, labels, C=1.0, class_weights={"a": 0.25})
    box = np.array([0.25] * 20 + [1.0] * 20)
    for cls, binary in ovr.binaries.items():
        y = [1.0 if lab == cls else -1.0 for lab in labels]
        # overlapping clusters: some alphas sit at the weighted bound 0.25
        assert np.any(np.abs(binary.alpha[:20] - 0.25) < 1e-12)
        assert kkt_violations(gram, y, binary, C=box) == []


def test_class_weights_refuse_labels_absent_from_training():
    gram, labels = three_class_problem()
    with pytest.raises(ConfigError, match=r"absent from the training data: \['Nope', 'other'\]"):
        train_ovr(gram, labels, class_weights={"cause": 0.5, "other": 2.0, "Nope": 2.0})


NOT_POSITIVE_FINITE = (float("nan"), float("inf"), float("-inf"), 0.0, -1.0)


@pytest.mark.parametrize("value", NOT_POSITIVE_FINITE)
def test_training_refuses_a_box_or_tolerance_that_is_not_positive_and_finite(value):
    # each used to train a model with no supports and a bias of 0.0
    gram, y = np.eye(2), [1.0, -1.0]
    with pytest.raises(ConfigError, match=f"^C must be positive and finite, got {value}$"):
        train_binary(gram, y, C=value)
    with pytest.raises(ConfigError, match=f"^tol must be positive and finite, got {value}$"):
        train_binary(gram, y, tol=value)
    detail = f"must be positive and finite, got {value}$"
    with pytest.raises(ConfigError, match=r"^sample_C\[1\] " + detail):
        train_binary(gram, y, sample_C=[1.0, value])
    gram, labels = three_class_problem()
    with pytest.raises(ConfigError, match="^class_weights.cause " + detail):
        train_ovr(gram, labels, class_weights={"message": 2.0, "cause": value})


def test_training_takes_every_positive_finite_box():
    gram, y = np.eye(2), [1.0, -1.0]
    for C in (1e-300, 1e-3, 1, 1e300):
        assert train_binary(gram, y, C=C, tol=1e-12).alpha == pytest.approx([min(C, 1.0)] * 2)


def test_build_model_pools_supports():
    gram, labels = three_class_problem()
    payloads = [pair_payload(f"w{i}") for i in range(len(labels))]
    ovr = train_ovr(gram, labels, C=1.0)
    model = build_model("pi", {"task": "pi"}, ovr, labels, payloads, {"C": 1.0})
    assert [cls.label for cls in model.classes] == ["cause", "content", "message"]
    assert len(model.supports) <= len(labels)
    # every pooled payload is one of the training payloads, stored once
    assert all(any(p is q for q in payloads) for p in model.supports)
    assert model.training_meta["n_train"] == 6
    assert model.training_meta["class_counts"] == {"cause": 2, "content": 2, "message": 2}
    assert model.training_meta["C"] == 1.0


def pool_rows(model, payloads, gram):
    """Kernel rows of each training instance against the support pool."""
    original = [next(i for i, p in enumerate(payloads) if p is q) for q in model.supports]
    return [gram[t, original] for t in range(len(payloads))]


def test_predict_recovers_training_labels():
    gram, labels = three_class_problem()
    payloads = [pair_payload(f"w{i}") for i in range(len(labels))]
    ovr = train_ovr(gram, labels, C=1.0)
    model = build_model("pi", {"task": "pi"}, ovr, labels, payloads)
    for row, expected in zip(pool_rows(model, payloads, gram), labels):
        got, decisions = predict(model, row)
        assert got == expected
        assert set(decisions) == {"cause", "content", "message"}


def test_predict_row_length_check():
    gram, labels = three_class_problem()
    payloads = [pair_payload(f"w{i}") for i in range(len(labels))]
    model = build_model("pi", {"task": "pi"}, train_ovr(gram, labels), labels, payloads)
    with pytest.raises(ValueError, match="supports"):
        predict(model, np.zeros(len(model.supports) + 1))


def test_predict_tie_goes_to_smallest_label():
    tied = SvmModel(
        task="pi",
        kernel_spec={},
        classes=[
            ClassModel("beta", 0.5, np.zeros(0), np.zeros(0, dtype=int)),
            ClassModel("alpha", 0.5, np.zeros(0), np.zeros(0, dtype=int)),
        ],
        supports=[],
        label_map={},
        training_meta={},
    )
    tied.classes.sort(key=lambda c: c.label)
    label, decisions = predict(tied, np.zeros(0))
    assert decisions == {"alpha": 0.5, "beta": 0.5}
    assert label == "alpha"


def encoded_payloads(n):
    return [payload_to_dict("pi", pair_payload(f"w{i}")) for i in range(n)]


def test_model_save_load_roundtrip(tmp_path):
    gram, labels = three_class_problem()
    payloads = encoded_payloads(len(labels))
    ovr = train_ovr(gram, labels, C=1.0)
    model = build_model("pi", {"task": "pi", "kind": "sm"}, ovr, labels, payloads)

    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.task == "pi"
    assert loaded.kernel_spec == {"task": "pi", "kind": "sm"}
    assert [cls.label for cls in loaded.classes] == [cls.label for cls in model.classes]
    assert loaded.supports == model.supports
    for orig, back in zip(model.classes, loaded.classes):
        assert back.bias == orig.bias
        assert np.array_equal(back.coeffs, orig.coeffs)
        assert np.array_equal(back.support_idx, orig.support_idx)

    # the reloaded model predicts identically
    for row in pool_rows(model, payloads, gram):
        assert predict(loaded, row) == predict(model, row)

    # and re-saving reproduces the file byte for byte
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert filecmp.cmp(path, again, shallow=False)


@pytest.mark.parametrize(
    "keep, message",
    [
        (lambda classes: [], "a model needs at least 2 classes, got 0"),
        (lambda classes: classes[:1], "a model needs at least 2 classes, got 1"),
        (lambda classes: [*classes, classes[0]], "class 'cause' is listed twice"),
    ],
    ids=["no-class", "one-class", "repeated-class"],
)
def test_load_model_refuses_fewer_than_two_classes_or_a_repeated_one(tmp_path, keep, message):
    # train_ovr writes none of these; predict would label every
    # instance with the one class, or with None when there is none
    gram, labels = three_class_problem()
    ovr = train_ovr(gram, labels, C=1.0)
    path = tmp_path / "model.json"
    save_model(build_model("pi", {}, ovr, labels, encoded_payloads(len(labels))), path)
    data = json.loads(path.read_text())
    assert data["classes"][0]["label"] == "cause"
    data["classes"] = keep(data["classes"])
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError, match=f": {message}$") as info:
        load_model(path)
    assert str(info.value).startswith(f"malformed model file {path}: ")


def test_model_save_is_deterministic(tmp_path):
    gram, labels = three_class_problem()
    payloads = encoded_payloads(len(labels))
    for name in ("one.json", "two.json"):
        ovr = train_ovr(gram, labels, C=1.0)
        model = build_model("pi", {"task": "pi"}, ovr, labels, payloads)
        save_model(model, tmp_path / name)
    assert filecmp.cmp(tmp_path / "one.json", tmp_path / "two.json", shallow=False)


def test_load_model_rejects_other_versions(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"version": "999", "task": "pi", "classes": []}')
    with pytest.raises(ModelError, match="version"):
        load_model(path)


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelError, match="cannot read"):
        load_model(path)


V2_HEAD = '{"version": "2", "task": "pi", "supports": [{}], "classes": '


def v2_class(fields: str) -> str:
    """A version-2 model file with one support and one class."""
    return '%s[{"label": "a", "bias": 0, %s}]}' % (V2_HEAD, fields)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "does not hold a JSON object"),
        ('{"version": "2", "classes": []}', "missing field 'task'"),
        ('{"version": "2", "task": "pi", "classes": []}', "missing field 'supports'"),
        ('{"version": "2", "task": "pi", "supports": []}', "missing field 'classes'"),
        (V2_HEAD + '[{"label": "a"}]}', "missing field 'support_idx'"),
        ('{"version": "2", "task": "pi", "supports": [], "classes": ["a"]}', "malformed"),
        ('{"version": "2", "task": 7, "supports": [], "classes": []}', "task is not a string"),
        ('{"version": "2", "task": "pi", "supports": [], "classes": [], "label_map": []}', "label_map"),
        ('{"version": "2", "task": "pi", "supports": {}, "classes": []}', "supports is not a list"),
        ('{"version": "2", "task": "pi", "supports": ["(a)"], "classes": []}', "list of objects"),
        (v2_class('"coeffs": [1.0, 2.0], "support_idx": [0]'), "2 coeffs for 1 supports"),
        (v2_class('"coeffs": [1.0], "support_idx": 0'), "support_idx list"),
        (v2_class('"coeffs": [1.0], "support_idx": [false]'), "not an index into the 1 supports"),
        (v2_class('"coeffs": [1.0], "support_idx": [0.0]'), "not an index"),
        (v2_class('"coeffs": [1.0], "support_idx": [-1]'), "not an index"),
        (v2_class('"coeffs": [1.0], "support_idx": [1]'), "not an index"),
        (V2_HEAD + '[{"label": 3, "bias": 0, "coeffs": [], "support_idx": []}]}', "string label"),
        (V2_HEAD + '[{"label": "a", "bias": "high", "coeffs": [], "support_idx": []}]}', "high"),
        (v2_class('"coeffs": ["x"], "support_idx": [0]'), "malformed"),
        # a bias or coefficient must be a finite JSON number, never a bool
        *[
            (V2_HEAD + '[{"label": "a", "bias": %s, "coeffs": [], "support_idx": []}]}' % bias,
             "class 'a' has a bias that is not a finite number")
            for bias in ('"nan"', '"inf"', "true", "NaN", "Infinity", "-Infinity", "1e400")
        ],
        *[
            (v2_class('"coeffs": [%s], "support_idx": [0]' % coeff),
             "class 'a' has a coeffs entry that is not a finite number")
            for coeff in ('"0.5"', "true", "NaN", "-Infinity", "[0.5]", "1" + "0" * 400)
        ],
        (v2_class('"coeffs": 0.5, "support_idx": [0]'), "coeffs entry that is not a finite"),
        # version 1 repeated each support per class; such files are refused
        (
            '{"version": "1", "task": "pi", "classes": '
            '[{"label": "a", "bias": 0, "coeffs": [1.0], "support": [{}]}]}',
            "unsupported version '1'",
        ),
    ],
)
def test_load_model_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelError, match=message) as info:
        load_model(path)
    assert str(path) in str(info.value)
