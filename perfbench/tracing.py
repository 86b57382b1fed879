"""Spans and counters recorded around udkernels' public functions.

The program is not edited: `Tracer.install` replaces each function at
the import site its caller resolves it through (mostly names imported
into `udkernels.pipeline`, plus `udkernels.combine.tree_kernel` and
`TreeKernelCache.__call__`) and `uninstall` puts the originals back.
A function a later version renamed away is listed in `absent` and its
metrics read 0.

A span is [name, start, end, parent index, seconds covered by children];
self time is the span minus its children. Work the tracer does after a
call returns (tree sizes, label counts, KKT checks) is charged to no
span. Sigma is counted, never clocked: a clock read per call would
double the cost of the soft-kernel Gram.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import Counter
from time import perf_counter

KINDS = ("SST", "PTK", "SPTK")
MB = 1024 * 1024

# (module, attribute, span name) for plain timed wrappers
_TIMED = (
    ("udkernels.pipeline", "load_resources", "pipeline.load_resources"),
    ("udkernels.pipeline", "prepare_split", "pipeline.prepare_split"),
    ("udkernels.pipeline", "write_gram", "pipeline.write_gram"),
    ("udkernels.pipeline", "read_gram", "pipeline.read_gram"),
    ("udkernels.pipeline", "load_embeddings", "lexical.load_embeddings"),
    ("udkernels.pipeline", "load_dictionary", "lexical.load_dictionary"),
    ("udkernels.pipeline", "load_pi_dataset", "datasets.load"),
    ("udkernels.pipeline", "load_re_dataset", "datasets.load"),
    ("udkernels.pipeline", "to_lct", "transforms.to_lct"),
    ("udkernels.pipeline", "extract_pet", "transforms.extract_pet"),
    ("udkernels.pipeline", "build_vo", "features.build"),
    ("udkernels.pipeline", "build_vud", "features.build"),
    ("udkernels.pipeline", "compute_gram", "svm.compute_gram"),
    ("udkernels.pipeline", "train_ovr", "svm.train_ovr"),
    ("udkernels.pipeline", "save_model", "svm.save_model"),
    ("udkernels.pipeline", "load_model", "svm.load_model"),
    ("udkernels.pipeline", "predict", "svm.predict"),
    ("udkernels.pipeline", "evaluate", "metrics.evaluate"),
    ("udkernels.pipeline", "sm_tk", "combine.cell"),
    ("udkernels.pipeline", "composite_kernel", "combine.cell"),
)

# per-layer metric -> unit; `run.py` and BENCHMARK.json list the same names
LAYER_UNITS = {
    **{f"kernels.calls.{k}": "count" for k in KINDS},
    **{f"kernels.busy_s.{k}": "s" for k in KINDS},
    **{f"kernels.call_ms.{k}.{q}": "ms" for k in KINDS for q in ("p50", "p99")},
    **{f"kernels.node_pairs.{k}": "count" for k in KINDS},
    **{f"kernels.match_ratio.{k}": "ratio" for k in KINDS},
    "lexical.load_embeddings_s": "s",
    "lexical.load_dictionary_s": "s",
    "lexical.sigma_calls": "count",
    "lexical.sigma_nonzero_ratio": "ratio",
    "combine.cells": "count",
    "combine.self_s": "s",
    "combine.cache_hit_ratio": "ratio",
    "svm.compute_gram_s": "s",
    "svm.gram_cells": "count",
    "svm.train_ovr_s": "s",
    "svm.smo_sweeps": "count",
    "svm.kkt_violations": "count",
    "svm.support_vectors": "count",
    "svm.save_model_s": "s",
    "svm.load_model_s": "s",
    "svm.model_mb": "MB",
    "svm.predict_s": "s",
    "pipeline.load_resources_s": "s",
    "pipeline.prepare_split_s": "s",
    "pipeline.write_gram_s": "s",
    "pipeline.read_gram_s": "s",
    "pipeline.gram_mb": "MB",
    "datasets.load_s": "s",
    "transforms.to_lct_s": "s",
    "transforms.extract_pet_s": "s",
    "transforms.lct_nodes.mean": "count",
    "transforms.lct_nodes.max": "count",
    "features.build_s": "s",
    "metrics.evaluate_s": "s",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    *(f"kernels.calls.{k}" for k in KINDS),
    *(f"kernels.node_pairs.{k}" for k in KINDS),
    "lexical.sigma_calls",
    "svm.gram_cells",
    "svm.smo_sweeps",
)


class _TreeInfo:
    __slots__ = ("tree", "size", "labels", "prods")

    def __init__(self, tree):
        nodes = list(tree.iter_nodes())
        self.tree = tree  # pinned, so id() stays unique while cached
        self.size = len(nodes)
        self.labels = Counter(n.label for n in nodes)
        self.prods = Counter((n.label, tuple(c.label for c in n.children)) for n in nodes)


def _matches(c1: Counter, c2: Counter) -> int:
    if len(c2) < len(c1):
        c1, c2 = c2, c1
    return sum(n * c2[key] for key, n in c1.items() if key in c2)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()  # (step, name) -> count
        self.values: dict = {}  # name -> list of sampled values
        self.absent: list = []
        self.step = None
        self._stack: list = []
        self._trees: dict = {}
        self._sigma_cells: list = []  # (step, [calls, nonzero])
        self._cache_depth = 0
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])

    def end(self):
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def _hide(self, started: float):
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self.spans[self._stack[-1]][4] += perf_counter() - started

    def count(self, name: str, n=1):
        self.counts[(self.step, name)] += n

    def sample(self, name: str, value):
        self.values.setdefault(name, []).append(value)

    def reset(self):
        self.spans, self.counts, self.values = [], Counter(), {}
        self._trees, self._sigma_cells = {}, []

    def step_count(self, step: str, name: str):
        if name == "lexical.sigma_calls":
            return sum(cell[0] for s, cell in self._sigma_cells if s == step)
        return self.counts[(step, name)]

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self):
        self.absent = []
        for module_name, attr, name in _TIMED:
            module = importlib.import_module(module_name)
            self._patch(module, attr, lambda fn, name=name: self._timed(fn, name))
        pipeline = importlib.import_module("udkernels.pipeline")
        combine = importlib.import_module("udkernels.combine")
        self._patch(pipeline, "make_sigma", self._counted_sigma)
        self._patch(combine, "tree_kernel", self._tree_kernel)
        cache = getattr(combine, "TreeKernelCache", None)
        if cache is None or "__call__" not in vars(cache):
            self.absent.append("udkernels.combine.TreeKernelCache.__call__")
        else:
            self._patch(cache, "__call__", self._cache_call)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name):
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                started = perf_counter()
                after(self, result, *args, **kwargs)
                self._hide(started)
            return result

        return traced

    def _tree_kernel(self, fn):
        def traced(t1, t2, params, *args, **kwargs):
            name = "kernels.tree_kernel." + params.kind
            self.begin(name)
            try:
                result = fn(t1, t2, params, *args, **kwargs)
            finally:
                self.end()
            started = perf_counter()
            i1, i2 = self._info(t1), self._info(t2)
            kind = params.kind
            self.count("kernels.calls." + kind)
            self.count("kernels.node_pairs." + kind, i1.size * i2.size)
            same = _matches(i1.prods, i2.prods) if kind == "SST" else _matches(i1.labels, i2.labels)
            self.count("kernels.matches." + kind, same)
            if self._cache_depth:
                self.count("combine.cache_misses")
            self._hide(started)
            return result

        return traced

    def _cache_call(self, fn):
        def traced(cache, t1, t2):
            # a normalized value between two trees reads the cross value
            # and both self values from the cache, otherwise one value
            normalized = cache.params.normalize and t1 is not t2
            self.count("combine.cache_lookups", 3 if normalized else 1)
            self._cache_depth += 1
            try:
                return fn(cache, t1, t2)
            finally:
                self._cache_depth -= 1

        return traced

    def _counted_sigma(self, fn):
        def make(*args, **kwargs):
            sigma = fn(*args, **kwargs)
            cell = [0, 0]
            self._sigma_cells.append((self.step, cell))

            def counted(n1, n2):
                value = sigma(n1, n2)
                cell[0] += 1
                if value:
                    cell[1] += 1
                return value

            return counted

        return make

    def _info(self, tree) -> _TreeInfo:
        info = self._trees.get(id(tree))
        if info is None:
            info = self._trees[id(tree)] = _TreeInfo(tree)
        return info

    # -- per-layer metrics of one traced pipeline run ------------------------

    def layer_metrics(self) -> dict:
        self_s: Counter = Counter()
        durations: dict = {}
        cells_in_gram = 0
        for name, start, end, parent, children in self.spans:
            self_s[name] += end - start - children
            if name.startswith("kernels."):
                durations.setdefault(name, []).append(end - start)
            elif name == "combine.cell" and parent >= 0 and self.spans[parent][0] == "svm.compute_gram":
                cells_in_gram += 1
        total: Counter = Counter()
        for (_, name), n in self.counts.items():
            total[name] += n
        out = {}
        for kind in KINDS:
            spent = durations.get("kernels.tree_kernel." + kind, [])
            pairs = total["kernels.node_pairs." + kind]
            out[f"kernels.calls.{kind}"] = total["kernels.calls." + kind]
            out[f"kernels.busy_s.{kind}"] = sum(spent)
            out[f"kernels.call_ms.{kind}.p50"] = _percentile(spent, 50) * 1000
            out[f"kernels.call_ms.{kind}.p99"] = _percentile(spent, 99) * 1000
            out[f"kernels.node_pairs.{kind}"] = pairs
            out[f"kernels.match_ratio.{kind}"] = _ratio(total["kernels.matches." + kind], pairs)
        sigma_calls = sum(cell[0] for _, cell in self._sigma_cells)
        lookups = total["combine.cache_lookups"]
        lct = self.values.get("transforms.lct_nodes", [])
        out.update(
            {
                "lexical.load_embeddings_s": self_s["lexical.load_embeddings"],
                "lexical.load_dictionary_s": self_s["lexical.load_dictionary"],
                "lexical.sigma_calls": sigma_calls,
                "lexical.sigma_nonzero_ratio": _ratio(
                    sum(cell[1] for _, cell in self._sigma_cells), sigma_calls
                ),
                "combine.cells": sum(1 for s in self.spans if s[0] == "combine.cell"),
                "combine.self_s": self_s["combine.cell"],
                "combine.cache_hit_ratio": _ratio(lookups - total["combine.cache_misses"], lookups),
                "svm.compute_gram_s": self_s["svm.compute_gram"],
                "svm.gram_cells": cells_in_gram,
                "svm.train_ovr_s": self_s["svm.train_ovr"],
                "svm.smo_sweeps": total["svm.smo_sweeps"],
                "svm.kkt_violations": total["svm.kkt_violations"],
                "svm.support_vectors": total["svm.support_vectors"],
                "svm.save_model_s": self_s["svm.save_model"],
                "svm.load_model_s": self_s["svm.load_model"],
                "svm.model_mb": total["svm.model_bytes"] / MB,
                "svm.predict_s": self_s["svm.predict"],
                "pipeline.load_resources_s": self_s["pipeline.load_resources"],
                "pipeline.prepare_split_s": self_s["pipeline.prepare_split"],
                "pipeline.write_gram_s": self_s["pipeline.write_gram"],
                "pipeline.read_gram_s": self_s["pipeline.read_gram"],
                "pipeline.gram_mb": total["pipeline.gram_bytes"] / MB,
                "datasets.load_s": self_s["datasets.load"],
                "transforms.to_lct_s": self_s["transforms.to_lct"],
                "transforms.extract_pet_s": self_s["transforms.extract_pet"],
                "transforms.lct_nodes.mean": statistics.fmean(lct) if lct else 0,
                "transforms.lct_nodes.max": max(lct, default=0),
                "features.build_s": self_s["features.build"],
                "metrics.evaluate_s": self_s["metrics.evaluate"],
            }
        )
        return out

    def exact_counts(self) -> dict:
        metrics = self.layer_metrics()
        return {name: metrics[name] for name in EXACT_COUNTS}


def _percentile(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# -- hooks run after a traced call returns, outside every span --------------


def _after_train_ovr(tracer, ovr, gram, labels, *args, C=1.0, tol=1e-3, **kwargs):
    from udkernels.svm import kkt_violations

    labels = list(labels)
    for cls, binary in ovr.binaries.items():
        tracer.count("svm.smo_sweeps", len(binary.objective_history))
        y = [1.0 if lab == cls else -1.0 for lab in labels]
        tracer.count("svm.kkt_violations", len(kkt_violations(gram, y, binary, C=C, tol=tol)))


def _after_save_model(tracer, _result, model, path, *args, **kwargs):
    tracer.count("svm.support_vectors", len(model.supports))
    tracer.count("svm.model_bytes", os.path.getsize(path))


def _after_write_gram(tracer, _result, path, *args, **kwargs):
    tracer.count("pipeline.gram_bytes", os.path.getsize(path))


def _after_to_lct(tracer, tree, *args, **kwargs):
    tracer.sample("transforms.lct_nodes", tree.size())


_AFTER = {
    "svm.train_ovr": _after_train_ovr,
    "svm.save_model": _after_save_model,
    "pipeline.write_gram": _after_write_gram,
    "transforms.to_lct": _after_to_lct,
}
