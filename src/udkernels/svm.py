"""Kernel SVM training on precomputed Gram matrices.

The binary solver runs deterministic pairwise coordinate updates on the
soft-margin dual: scan instances in index order, pair each violator
with the partner maximizing the error gap, fall back to an ordered scan
when that pair makes no progress. No randomness anywhere, so training
is reproducible bit for bit. Multiclass is one-vs-rest with argmax and
lexicographic tie-breaking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ModelError, NumericError, TrainingError

MODEL_VERSION = "2"
# the solver stops after this many sweeps even if some instance still
# violates its KKT condition
_MAX_SWEEPS = 1000


@dataclass
class GramMatrix:
    values: np.ndarray
    instance_ids: tuple
    fingerprint: str = ""

    def __len__(self) -> int:
        return len(self.instance_ids)


@dataclass
class BinaryModel:
    alpha: np.ndarray
    bias: float
    objective_history: list = field(default_factory=list)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.alpha > 1e-12)


def _dual_objective(gram: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    q = alpha * y
    return float(alpha.sum() - 0.5 * q @ gram @ q)


def train_binary(
    gram: np.ndarray,
    y,
    C: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 10,
    sample_C=None,
) -> BinaryModel:
    """Solve the soft-margin dual for labels in {-1, +1}.

    Sweeps the training set until max_passes consecutive sweeps produce
    no update, meaning every instance satisfies its KKT condition within
    tol, or until _MAX_SWEEPS sweeps. The bias is then recomputed from
    free support vectors, or from the midpoint of the feasible interval
    when none exist.
    """
    for name, value in (("C", C), ("tol", tol)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    gram = np.asarray(gram, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if gram.shape != (n, n):
        raise TrainingError(f"gram shape {gram.shape} does not match {n} labels")
    if not np.all(np.isfinite(gram)):
        raise NumericError("gram matrix contains non-finite entries")
    if set(y.ravel().tolist()) != {-1.0, 1.0}:
        raise TrainingError("training labels must contain both classes as -1/+1")
    box = np.full(n, float(C)) if sample_C is None else np.asarray(sample_C, dtype=np.float64)
    bad = np.flatnonzero(~((box > 0) & (box < math.inf)))
    if len(bad):
        i = bad[0]
        raise ConfigError(f"sample_C[{i}] must be positive and finite, got {box[i]}")

    alpha = np.zeros(n)
    b = 0.0
    g = np.zeros(n)  # decision values without bias
    history: list = []

    def take_step(i: int, j: int) -> bool:
        nonlocal b, g
        if i == j:
            return False
        ai, aj = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        Ei = g[i] + b - yi
        Ej = g[j] + b - yj
        s = yi * yj
        if s < 0:
            L, H = max(0.0, aj - ai), min(box[j], box[i] + aj - ai)
        else:
            L, H = max(0.0, ai + aj - box[i]), min(box[j], ai + aj)
        if H - L < 1e-12:
            return False
        eta = gram[i, i] + gram[j, j] - 2.0 * gram[i, j]
        if eta > 1e-12:
            aj_new = aj + yj * (Ei - Ej) / eta
            aj_new = min(H, max(L, aj_new))
        else:
            # flat direction: move to whichever box end improves the dual
            fi = yi * (Ei + b) - ai * gram[i, i] - s * aj * gram[i, j]
            fj = yj * (Ej + b) - s * ai * gram[i, j] - aj * gram[j, j]
            L1 = ai + s * (aj - L)
            H1 = ai + s * (aj - H)
            obj_L = (
                L1 + L - 0.5 * L1 * L1 * gram[i, i] - 0.5 * L * L * gram[j, j]
                - s * L * L1 * gram[i, j] - L1 * fi - L * fj
            )
            obj_H = (
                H1 + H - 0.5 * H1 * H1 * gram[i, i] - 0.5 * H * H * gram[j, j]
                - s * H * H1 * gram[i, j] - H1 * fi - H * fj
            )
            if obj_L > obj_H + 1e-12:
                aj_new = L
            elif obj_H > obj_L + 1e-12:
                aj_new = H
            else:
                return False
        if abs(aj_new - aj) < 1e-12 * (aj_new + aj + 1e-12):
            return False
        ai_new = ai + s * (aj - aj_new)
        ai_new = min(box[i], max(0.0, ai_new))
        di, dj = ai_new - ai, aj_new - aj
        b1 = b - Ei - yi * di * gram[i, i] - yj * dj * gram[i, j]
        b2 = b - Ej - yi * di * gram[i, j] - yj * dj * gram[j, j]
        if 0.0 < ai_new < box[i]:
            b = b1
        elif 0.0 < aj_new < box[j]:
            b = b2
        else:
            b = (b1 + b2) / 2.0
        g += yi * di * gram[i] + yj * dj * gram[j]
        alpha[i], alpha[j] = ai_new, aj_new
        return True

    def examine(i: int) -> bool:
        Ei = g[i] + b - y[i]
        r = Ei * y[i]
        if not ((r < -tol and alpha[i] < box[i]) or (r > tol and alpha[i] > 0.0)):
            return False
        errors = g + b - y
        free = np.flatnonzero((alpha > 0.0) & (alpha < box))
        if free.size:
            j = int(free[np.argmax(np.abs(Ei - errors[free]))])
            if take_step(i, j):
                return True
            for j in free:
                if take_step(i, int(j)):
                    return True
        for j in range(n):
            if take_step(i, j):
                return True
        return False

    clean = 0
    sweeps = 0
    while clean < max_passes and sweeps < _MAX_SWEEPS:
        changed = 0
        for i in range(n):
            if examine(i):
                changed += 1
        history.append(_dual_objective(gram, y, alpha))
        clean = clean + 1 if changed == 0 else 0
        sweeps += 1

    # final bias from free support vectors, else feasibility midpoint
    free = np.flatnonzero((alpha > 1e-12) & (alpha < box - 1e-12))
    if free.size:
        mean = float(np.mean(y[free] - g[free]))
        # The free instances' y - g spread up to 2*tol, so their mean can
        # sit more than tol from one of them. Keep the mean while every
        # KKT condition still holds at tol, else take the middle of the
        # bias interval where they all hold.
        lo, hi = _kkt_bias_interval(y, g, alpha, box, tol)
        b = mean if lo <= mean <= hi or lo > hi else (lo + hi) / 2.0
    else:
        lower = [
            y[i] - g[i]
            for i in range(n)
            if (alpha[i] <= 1e-12 and y[i] > 0) or (alpha[i] >= box[i] - 1e-12 and y[i] < 0)
        ]
        upper = [
            y[i] - g[i]
            for i in range(n)
            if (alpha[i] <= 1e-12 and y[i] < 0) or (alpha[i] >= box[i] - 1e-12 and y[i] > 0)
        ]
        if lower and upper:
            b = (max(lower) + min(upper)) / 2.0
        elif lower:
            b = max(lower)
        elif upper:
            b = min(upper)
    return BinaryModel(alpha=alpha, bias=float(b), objective_history=history)


def _kkt_bias_interval(y, g, alpha, box, tol):
    """Biases b for which y_i * (g_i + b) meets each instance's KKT
    condition at tol: margin >= 1 - tol below the box, margin <= 1 + tol
    above zero. Empty (lo > hi) when no bias satisfies them all."""
    c = y - g
    below_box = alpha < box - 1e-12
    above_zero = alpha > 1e-12
    pos = y > 0
    # margin >= 1 - tol: b >= c - tol for y = +1, b <= c + tol for y = -1
    # margin <= 1 + tol: b <= c + tol for y = +1, b >= c - tol for y = -1
    lower = (below_box & pos) | (above_zero & ~pos)
    upper = (below_box & ~pos) | (above_zero & pos)
    lo = float(np.max(c[lower] - tol)) if lower.any() else -np.inf
    hi = float(np.min(c[upper] + tol)) if upper.any() else np.inf
    return lo, hi


def kkt_violations(gram: np.ndarray, y, model: BinaryModel, C=1.0, tol: float = 1e-3):
    """Instances whose KKT condition fails at tol, for diagnostics.

    C is one box for every instance or, as train_binary's sample_C, one
    per instance.
    """
    y = np.asarray(y, dtype=np.float64)
    box = np.broadcast_to(np.asarray(C, dtype=np.float64), y.shape)
    f = (model.alpha * y) @ gram + model.bias
    out = []
    for i in range(len(y)):
        margin = y[i] * f[i]
        a = model.alpha[i]
        if a <= 1e-12 and margin < 1.0 - tol:
            out.append(i)
        elif a >= box[i] - 1e-12 and margin > 1.0 + tol:
            out.append(i)
        elif 1e-12 < a < box[i] - 1e-12 and abs(margin - 1.0) > tol:
            out.append(i)
    return out


@dataclass
class OvrModel:
    classes: tuple
    binaries: dict


def check_class_weights(class_weights: dict, labels) -> None:
    """Refuse class weights that are not positive finite numbers, or that
    name labels the training data does not hold."""
    for label, weight in class_weights.items():
        if not 0 < weight < math.inf:
            raise ConfigError(f"class_weights.{label} must be positive and finite, got {weight}")
    unknown = sorted(set(class_weights) - set(labels))
    if unknown:
        raise ConfigError(
            f"class_weights names labels absent from the training data: {unknown}"
        )


def train_ovr(
    gram: np.ndarray,
    labels,
    C: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 10,
    class_weights: dict | None = None,
) -> OvrModel:
    """One binary model per distinct label, positives against the rest."""
    labels = list(labels)
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise TrainingError(f"need at least 2 classes, got {classes}")
    sample_C = None
    if class_weights:
        check_class_weights(class_weights, labels)
        sample_C = np.array([C * class_weights.get(lab, 1.0) for lab in labels])
    binaries = {}
    for cls in classes:
        y = np.array([1.0 if lab == cls else -1.0 for lab in labels])
        binaries[cls] = train_binary(
            gram, y, C=C, tol=tol, max_passes=max_passes, sample_C=sample_C
        )
    return OvrModel(classes=classes, binaries=binaries)


# ---------------------------------------------------------------------------
# Persisted models: weights plus the support payloads needed to evaluate
# kernels against new data. Payloads are opaque JSON-ready dicts here
# (combine.payload_to_dict makes them), so this layer knows no task types.


@dataclass
class ClassModel:
    label: str
    bias: float
    coeffs: np.ndarray  # alpha_i * y_i over this class's supports
    support_idx: np.ndarray  # indices into SvmModel.supports


@dataclass
class SvmModel:
    task: str  # "pi" | "re"
    kernel_spec: dict
    classes: list
    supports: list  # JSON-ready payload dicts, each training support once
    label_map: dict
    training_meta: dict
    version: str = MODEL_VERSION


def build_model(
    task: str,
    kernel_spec: dict,
    ovr: OvrModel,
    labels,
    payloads,
    training_meta: dict | None = None,
) -> SvmModel:
    """Package a trained one-vs-rest model with its support payloads.

    payloads[i] is training instance i's payload; only the support
    vectors' are read, so a dict holding just those serves as well."""
    labels = list(labels)
    pool: list = []
    pool_index: dict = {}
    classes = []
    for cls in ovr.classes:
        binary = ovr.binaries[cls]
        sup = binary.support
        y = np.array([1.0 if lab == cls else -1.0 for lab in labels])
        idx = []
        for i in sup:
            if i not in pool_index:
                pool_index[i] = len(pool)
                pool.append(payloads[i])
            idx.append(pool_index[i])
        classes.append(
            ClassModel(
                label=cls,
                bias=binary.bias,
                coeffs=(binary.alpha[sup] * y[sup]),
                support_idx=np.array(idx, dtype=int),
            )
        )
    meta = dict(training_meta or {})
    meta.setdefault("n_train", len(labels))
    counts: dict = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    meta.setdefault("class_counts", {k: counts[k] for k in sorted(counts)})
    return SvmModel(
        task=task,
        kernel_spec=kernel_spec,
        classes=classes,
        supports=pool,
        label_map={cls: i for i, cls in enumerate(ovr.classes)},
        training_meta=meta,
    )


def predict(model: SvmModel, kernel_row) -> tuple:
    """Classify from a row of kernel values against model.supports.

    Returns (label, decisions). Argmax over classes; exact ties go to
    the lexicographically smallest label.
    """
    kernel_row = np.asarray(kernel_row, dtype=np.float64)
    if kernel_row.shape != (len(model.supports),):
        raise ValueError(
            f"kernel row has {kernel_row.shape} values, model has {len(model.supports)} supports"
        )
    decisions = {}
    best_label = None
    best_value = None
    for cls in model.classes:  # classes are stored sorted by label
        value = float(cls.coeffs @ kernel_row[cls.support_idx] + cls.bias)
        decisions[cls.label] = value
        if best_value is None or value > best_value:
            best_label, best_value = cls.label, value
    return best_label, decisions


def save_model(model: SvmModel, path):
    data = {
        "version": model.version,
        "task": model.task,
        "kernel_spec": model.kernel_spec,
        "supports": model.supports,
        "classes": [
            {
                "label": cls.label,
                "bias": cls.bias,
                "coeffs": [float(c) for c in cls.coeffs],
                "support_idx": [int(i) for i in cls.support_idx],
            }
            for cls in model.classes
        ],
        "label_map": model.label_map,
        "training_meta": model.training_meta,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, separators=(",", ": "), indent=1)
        handle.write("\n")


def load_model(path) -> SvmModel:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ModelError(f"model file {path} does not hold a JSON object")
    if data.get("version") != MODEL_VERSION:
        raise ModelError(
            f"model file {path} has unsupported version {data.get('version')!r}, "
            f"expected {MODEL_VERSION}"
        )
    try:
        return _model_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ModelError(f"malformed model file {path}: {detail}") from None


def _finite(value) -> bool:
    """Whether value is a JSON number, an int or a float but not a bool,
    that is finite as a float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _model_from_dict(data: dict) -> SvmModel:
    for key in ("kernel_spec", "label_map", "training_meta"):
        if not isinstance(data.get(key, {}), dict):
            raise ValueError(f"{key} is not an object")
    if not isinstance(data["task"], str):
        raise ValueError("task is not a string")
    supports = data["supports"]
    if not isinstance(supports, list) or not all(isinstance(p, dict) for p in supports):
        raise ValueError("supports is not a list of objects")
    classes = []
    for cls in data["classes"]:
        label, idx, bias, coeffs = cls["label"], cls["support_idx"], cls["bias"], cls["coeffs"]
        if not isinstance(label, str) or not isinstance(idx, list):
            raise ValueError("a class needs a string label and a support_idx list")
        if "\t" in label:
            raise ValueError(f"class {label!r} holds a tab in its label")
        if not _finite(bias):
            raise ValueError(f"class {label!r} has a bias that is not a finite number: {bias!r}")
        if not isinstance(coeffs, list) or not all(map(_finite, coeffs)):
            raise ValueError(f"class {label!r} has a coeffs entry that is not a finite number")
        if not all(type(i) is int and 0 <= i < len(supports) for i in idx):
            raise ValueError(
                f"class {label!r} has a support_idx entry that is not an index "
                f"into the {len(supports)} supports"
            )
        if len(coeffs) != len(idx):
            raise ValueError(f"class {label!r} has {len(coeffs)} coeffs for {len(idx)} supports")
        if any(c.label == label for c in classes):
            raise ValueError(f"class {label!r} is listed twice")
        classes.append(
            ClassModel(
                label=label,
                bias=float(bias),
                coeffs=np.array(coeffs, dtype=np.float64),
                support_idx=np.array(idx, dtype=int),
            )
        )
    if len(classes) < 2:
        raise ValueError(f"a model needs at least 2 classes, got {len(classes)}")
    classes.sort(key=lambda c: c.label)
    return SvmModel(
        task=data["task"],
        kernel_spec=data.get("kernel_spec", {}),
        classes=classes,
        supports=supports,
        label_map=data.get("label_map", {}),
        training_meta=data.get("training_meta", {}),
        version=data["version"],
    )
