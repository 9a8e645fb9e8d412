"""Per-layer tracing from outside the program.

The tracer wraps public ``midas`` functions at every place the program looks
them up: the defining module and each ``midas`` module that imported the
name, so ``midas.model.midas_batch`` and ``midas.cli.train`` are wrapped as
well as ``midas.mixer.midas_batch`` and ``midas.model.train``. Each call
records one span (id, parent id, name, start, end) in memory; spans are
written out only when the run ends. Self time is a span's duration minus the
time its wrapped children took. The program itself is not modified on disk.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

CLIP_HEADER_BYTES = 24  # "MDSC" plus five u32 words


def _clip_bytes(dataset) -> int:
    return sum(CLIP_HEADER_BYTES + e.clip.frames.nbytes for e in dataset.entries)


def _pairs(args, kwargs, result):
    return len(result.samples)


def _rows(args, kwargs, result):
    frames = args[0] if args else kwargs["frames"]
    return frames.shape[0]


def _written(args, kwargs, result):
    dataset = args[0] if args else kwargs["dataset"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return Path(path).stat().st_size + _clip_bytes(dataset)


def _read(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return Path(path).stat().st_size + _clip_bytes(result)


CLI_SUBCOMMANDS = (
    "synth", "aggregate", "split", "train", "eval", "sweep-alpha",
    "analyze", "ambiguity-ablation", "mix", "risk",
)

# (module, attribute, span name, counter). An attribute with a dot names a
# method patched on its class. A counter is (metric name, function of the
# call's args, kwargs and result giving the amount to add).
TARGETS = (
    ("midas.synth", "generate", "synth.generate", None),
    ("midas.synth", "simulate_annotators", "synth.simulate_annotators", None),
    ("midas.labels", "filter_unresolved", "labels.filter_unresolved", None),
    ("midas.labels", "aggregate_votes", "labels.aggregate_votes", None),
    ("midas.dataset", "LabeledDataset.__post_init__", "dataset.LabeledDataset", None),
    ("midas.dataset", "save_manifest", "dataset.save_manifest", ("dataset.bytes_written", _written)),
    ("midas.dataset", "load_manifest", "dataset.load_manifest", ("dataset.bytes_read", _read)),
    ("midas.dataset", "stratified_split", "dataset.stratified_split", None),
    ("midas.dataset", "partition_by_ambiguity", "dataset.partition_by_ambiguity", None),
    ("midas.dataset", "hard_relabeled", "dataset.hard_relabeled", None),
    ("midas.mixer", "midas_batch", "mixer.midas_batch", ("mixer.pairs", _pairs)),
    ("midas.mixer", "mix_clips", "mixer.mix_clips", None),
    ("midas.mixer", "mix_labels", "mixer.mix_labels", None),
    ("midas.mixer", "sample_lambda", "mixer.sample_lambda", None),
    ("midas.model", "featurize_frames", "model.featurize_frames", ("model.featurize_frames.rows", _rows)),
    ("midas.model", "featurize", "model.featurize", None),
    ("midas.model", "forward", "model.forward", None),
    ("midas.model", "forward_batch", "model.forward_batch", None),
    ("midas.model", "gradient", "model.gradient", None),
    ("midas.model", "evaluate", "model.evaluate", None),
    ("midas.model", "train", "model.train", None),
    ("midas.model", "save_checkpoint", "model.save_checkpoint", None),
    ("midas.model", "load_checkpoint", "model.load_checkpoint", None),
    ("midas.metrics", "confusion", "metrics.confusion", None),
    ("midas.metrics", "coexistence", "metrics.coexistence", None),
    ("midas.metrics", "report", "metrics.report", None),
    ("midas.vicinal", "vicinal_risk", "vicinal.vicinal_risk", None),
    ("midas.vicinal", "empirical_risk", "vicinal.empirical_risk", None),
    ("midas.vicinal", "cross_entropy", "vicinal.cross_entropy", None),
) + tuple(
    ("midas.cli", f"cmd_{sub.replace('-', '_')}", f"cli.{sub}", None) for sub in CLI_SUBCOMMANDS
)

# Every metric name that ``Tracer.take`` can report.
METRIC_NAMES = frozenset(
    f"{span}.{suffix}" for _, _, span, _ in TARGETS for suffix in ("self_s", "s", "calls")
) | frozenset(counter[0] for *_, counter in TARGETS if counter is not None)


class Tracer:
    """Spans and per-name totals for calls into the wrapped functions."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._ids = itertools.count(1)
        self._stack: list[list[int]] = []  # [span id, ns spent in children]
        self._totals = defaultdict(lambda: [0, 0, 0])  # name -> [self ns, total ns, calls]
        self._counts = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, totals, counts = self.spans, self._stack, self._totals, self._counts
        ids, clock = self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                entry = totals[name]
                entry[0] += took - frame[1]
                entry[1] += took
                entry[2] += 1
                spans.append((frame[0], parent, name, start, end))
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded ``midas`` module holds it.

        That includes default arguments, such as ``vicinal_risk``'s
        ``loss=cross_entropy``, which are bound when the function is defined.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "midas" or n.startswith("midas.")]
        wrappers = {}  # id of the original function -> its wrapper
        for module_name, attr, name, counter in self.targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(name, vars(cls)[method], counter))
            else:
                original = getattr(owner, attr)
                wrappers[id(original)] = self._wrap(name, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, key, wrappers[id(value)])
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    defaults = value.__defaults__
                    if any(id(d) in wrappers for d in defaults):
                        self._patch(value, "__defaults__", tuple(wrappers.get(id(d), d) for d in defaults))

    def _patch(self, holder, key, replacement) -> None:
        self._patches.append((holder, key, getattr(holder, key) if key == "__defaults__" else vars(holder)[key]))
        setattr(holder, key, replacement)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def take(self) -> dict[str, float]:
        """Totals since the last call, as metric name -> value; resets them."""
        out: dict[str, float] = {}
        for name, (self_ns, total_ns, calls) in self._totals.items():
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.s"] = total_ns / 1e9
            out[f"{name}.calls"] = calls
        out.update(self._counts)
        self._totals.clear()
        self._counts.clear()
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, parent, name, start_ns, end_ns."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fp.write("\t".join(map(str, span)) + "\n")
