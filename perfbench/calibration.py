"""Host-speed calibration of the end-to-end timings.

On a VM shared with other tenants the same Gram build takes anywhere
from 1.0 to 2.4 s, in slow and fast phases lasting from under a second
to minutes. The slowdown is in the CPU itself, not in waiting for it:
process CPU time tracks wall time within a few percent through the slow
phases, so timing CPU time instead of wall time does not help.

So the benchmark measures the host's speed while the program runs. A
real-time interval timer (SIGALRM, every INTERVAL_S) interrupts each
timed execution, and the handler times a small fixed reference work
that shares no code with udkernels (see `reference_seconds`). The
handler's time is taken out of the execution's wall time. A timing is
then reported as the mean net seconds of its executions times NOMINAL_S
over the mean reference time sampled during them: the seconds it would
take on a host where the reference takes NOMINAL_S. The timer runs
freely across executions, so short ones are sampled too, in proportion
to their length. No thread or process is started.

Over ten 35-second runs of each workload on a 2-vCPU VM (seeds 101 to
110), the quartile spread across runs of the gram, train, predict and
total timings, as a share of their median, was 6-22% uncalibrated and
1.3-5.2% calibrated this way; of the set-up timing, 10-17% and 2-9%.
On eight runs of `pi-ptk-long`, any one of the three parts of the
reference alone left 2-12%, and reference samples taken between the
steps instead of during them 6-10%.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025  # reference sample period while an execution is timed
NOMINAL_S = 0.0024  # about the reference work's median on the VM above

_rng = random.Random(1234)
_SEQUENCES = tuple(tuple(_rng.randrange(6) for _ in range(24)) for _ in range(2))
_LABELS = [f"label{i}" for i in range(14)]


def _random_tree(n: int):
    """Labels and child-index tuples of a random n-node tree, children first."""
    children = [[] for _ in range(n)]
    for node in range(1, n):
        children[_rng.randrange(node)].append(node)
    order = []

    def walk(node):
        for child in children[node]:
            walk(child)
        order.append(node)

    walk(0)
    position = {node: k for k, node in enumerate(order)}
    return [_rng.choice(_LABELS) for _ in order], [tuple(position[c] for c in children[v]) for v in order]


_TREES = (_random_tree(40), _random_tree(40))
_WORDS = "the board approved a new plan for local schools after the vote in march".split() * 2
_TEXT = "\n".join(
    "\t".join((str(i + 1), w, w.upper(), "NOUN", "_", "Number=Sing|Case=Nom", str(i), "dep", "_", "SpaceAfter=No"))
    for i, w in enumerate(_WORDS)
)


def _table_dp():
    for a, b in zip(_SEQUENCES, reversed(_SEQUENCES)):
        table = np.zeros((len(a) + 1, len(b) + 1))
        for x in range(1, len(a) + 1):
            above = table[x - 1]
            for y in range(1, len(b) + 1):
                if a[x - 1] == b[y - 1]:
                    table[x, y] = above[y - 1] + 1.0
                else:
                    table[x, y] = max(above[y], table[x, y - 1])


def _tree_dp():
    (labels1, kids1), (labels2, kids2) = _TREES
    for _ in range(4):
        delta = np.zeros((len(labels1), len(labels2)))
        for i in range(len(labels1)):
            for j in range(len(labels2)):
                if labels1[i] != labels2[j]:
                    continue
                total = 0.16
                for ci in kids1[i]:
                    row = delta[ci]
                    for cj in kids2[j]:
                        total += 0.16 * row[cj]
                delta[i, j] = 0.4 * total


def _escape(text):
    return "".join("\\" + c if c in "()^\\ " else c for c in text)


def _text():
    for _ in range(4):
        rows = []
        for line in _TEXT.split("\n"):
            cols = line.split("\t")
            feats = dict(kv.split("=", 1) for kv in cols[5].split("|"))
            rows.append({"id": int(cols[0]), "form": cols[1], "lemma": cols[2], "upos": cols[3], "feats": feats})
        hash(" ".join(f"({_escape(r['form'])}^{_escape(r['upos'])} ({_escape(r['lemma'])}) {len(r['feats'])})" for r in rows))


def reference_seconds() -> float:
    """Wall seconds of one run of the reference work (1.2 to 3.5 ms).

    Three parts of similar length, each in the manner of one layer of
    the program: a dynamic program over numpy tables, a label-gated
    dynamic program over two trees (the tree kernels), and parsing
    tab-separated lines into dicts and rendering them as bracketed text
    (data loading and model files). Host contention slows each layer by
    its own amount, and the mix tracks all of them better than any one.
    """
    started = perf_counter()
    _table_dp()
    _tree_dp()
    _text()
    return perf_counter() - started


class Timing:
    """One timed execution: net wall seconds and the reference samples taken in it."""

    __slots__ = ("seconds", "references")

    def __init__(self, seconds: float, references: list):
        self.seconds = seconds
        self.references = references


class Clock:
    """Times executions while a timer samples the reference work inside them."""

    def __init__(self):
        self._samples = None  # reference samples of the execution being timed

    def _sample(self, signum, frame):
        if self._samples is not None:
            self._samples.append(reference_seconds())

    @contextmanager
    def running(self):
        """Keep the sampling timer running for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, work):
        """Run work() inside running(); return (its result, Timing)."""
        # in this order, every sample the handler records lies inside `elapsed`
        started = perf_counter()
        samples = self._samples = []
        try:
            result = work()
        finally:
            self._samples = None
            elapsed = perf_counter() - started
        return result, Timing(elapsed - sum(samples), samples)


def calibrated(timings) -> float:
    """Mean net seconds of `timings` at the nominal host speed (0 when empty)."""
    samples = [s for t in timings for s in t.references]
    if not timings or not samples:
        return 0.0
    return statistics.fmean(t.seconds for t in timings) * NOMINAL_S / statistics.fmean(samples)
