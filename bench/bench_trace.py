"""Span tracing for the benchmark, applied from outside the package.

``Tracer.install`` replaces public functions and methods of ``domainmix``
with wrappers in place, in every module namespace that holds them (the
package imports names with ``from .x import f``, so one function can be
bound in several modules). Each wrapped call records a span: name, start,
end and the span that was open when it began. Some wrappers also bump
counters from their arguments or results. ``uninstall`` puts the original
objects back. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_pairs(counts, args, kwargs, result):
    counts["mixing.pairs_selected"] += len(result)
    counts["mixing.pairs_requested"] += int(_arg(args, kwargs, 3, "n_pairs"))


def _count_queries(counts, args, kwargs, result):
    counts["adapt.queries"] += len(_arg(args, kwargs, 5, "task").query)


def _count_adapt_steps(counts, args, kwargs, result):
    counts["adapt.steps"] += len(result[1])


def _count_boundaries(counts, args, kwargs, result):
    # every stage of a run selects the same sets; keep the last call's view
    counts["boundary.nodes"] = sum(len(bs.node_ids) for bs in result)
    counts["boundary.fallback_domains"] = sum(bool(bs.used_fallback) for bs in result)


# (module, attribute, span name, counter hook). Methods are patched on
# their class; functions are patched wherever the package binds them.
_FUNCTIONS = [
    ("domainmix.synth", "make_synth", "synth.make", None),
    ("domainmix.synth", "load_synth_dir", "io.load", None),
    ("domainmix.io", "save_checkpoint", "io.checkpoint", None),
    ("domainmix.io", "load_checkpoint", "io.checkpoint", None),
    ("domainmix.cli", "cli", "cli", None),
    ("domainmix.align", "align_graphs", "align", None),
    ("domainmix.align", "pca_project", "align", None),
    ("domainmix.boundary", "select_boundaries", "boundary", _count_boundaries),
    ("domainmix.pipeline", "prepare", "pipeline.prepare", None),
    ("domainmix.pipeline", "episode_metrics", "pipeline.episodes", None),
    ("domainmix.nn", "pretrain", "nn.pretrain", None),
    ("domainmix.nn", "loss_pretrain", "nn.forward", None),
    ("domainmix.nn", "gcn_encode", "nn.gcn_encode", None),
    ("domainmix.nn", "normalized_adjacency", "nn.normalized_adjacency", None),
    ("domainmix.mixing", "select_pairs", "mixing.select_pairs", _count_pairs),
    ("domainmix.mixing", "sample_intra_pairs", "mixing.intra_pairs", None),
    ("domainmix.mixing", "build_batch", "mixing.build_batch", None),
    ("domainmix.mixing", "mix_subgraphs", "mixing.mix_subgraphs", None),
    ("domainmix.graphs", "extract_ego", "graphs.extract_ego", None),
    ("domainmix.autodiff", "spmm", "autodiff.spmm", None),
    ("domainmix.adapt", "sample_task", "adapt.sample_task", None),
    ("domainmix.adapt", "adapt", "adapt.adapt", _count_adapt_steps),
    ("domainmix.adapt", "evaluate", "adapt.evaluate", _count_queries),
    ("domainmix.diagnostics", "compute_diagnostics", "diagnostics", None),
    ("domainmix.diagnostics", "lipschitz_upper", "diagnostics.lipschitz", None),
    ("domainmix.diagnostics", "stability_check", "diagnostics.stability", None),
    ("domainmix.diagnostics", "ambiguity_probe", "diagnostics.probe", None),
]

_METHODS = [
    ("domainmix.autodiff", "Tensor", "backward", "autodiff.backward"),
    ("domainmix.optim", "Adam", "step", "optim.step"),
]

# hot methods get a counter only: a span per call would cost more than the call
_COUNTED_METHODS = [
    ("domainmix.autodiff", "Tensor", "__init__", "autodiff.tensors"),
    ("domainmix.autodiff", "Tensor", "__matmul__", "autodiff.matmul_calls"),
]


class Tracer:
    """In-memory span recorder. Spans are [name, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._patches = []

    # --- wrapping ---

    def _span(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            index = len(tracer.spans)
            span = [name, parent, perf_counter(), None]
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._open.pop()
                span[3] = perf_counter()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "domainmix"]
        for module_name, attr, name, hook in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, attr, self._span(name, vars(cls)[attr]))
        for module_name, cls_name, attr, name in _COUNTED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, attr, self._counter(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- reading spans back ---

    def _ancestors(self, index):
        parent = self.spans[index][1]
        while parent is not None:
            yield parent
            parent = self.spans[parent][1]

    def total(self, name, under=None) -> float:
        """Summed duration of spans called ``name`` that are not nested in
        another span of that name (and, if given, lie under ``under``)."""
        out = 0.0
        for i, (span_name, _, start, end) in enumerate(self.spans):
            if span_name != name:
                continue
            names = [self.spans[a][0] for a in self._ancestors(i)]
            if name in names or (under is not None and under not in names):
                continue
            out += end - start
        return out

    def calls(self, name, under=None) -> int:
        return sum(
            1
            for i, span in enumerate(self.spans)
            if span[0] == name
            and (under is None or under in (self.spans[a][0] for a in self._ancestors(i)))
        )

    def self_time(self, name) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        children = defaultdict(float)  # parent index -> covered seconds
        for span_name, parent, start, end in self.spans:
            if parent is not None and self.spans[parent][0] == name:
                children[parent] += end - start
        return sum(
            (
                end - start - children[i]
                for i, (span_name, _, start, end) in enumerate(self.spans)
                if span_name == name
            ),
            0.0,
        )

    def _children(self, parent_name, child_name):
        """Per ``parent_name`` span, the direct children called ``child_name``."""
        groups = defaultdict(list)
        for span_name, parent, start, end in self.spans:
            if span_name == child_name and parent is not None:
                if self.spans[parent][0] == parent_name:
                    groups[parent].append((start, end))
        return [groups[k] for k in sorted(groups)]

    def phases(self, parent_name, first, last):
        """Durations from each ``first`` child's start to the matching
        ``last`` child's end, paired in call order under each parent."""
        out = []
        starts = self._children(parent_name, first)
        ends = self._children(parent_name, last)
        for s_group, e_group in zip(starts, ends):
            if len(s_group) != len(e_group):
                raise RuntimeError(
                    f"{parent_name}: {len(s_group)} {first} spans but "
                    f"{len(e_group)} {last} spans"
                )
            out.extend(e[1] - s[0] for s, e in zip(s_group, e_group))
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                row = {"id": i, "name": name, "parent": parent, "start": start, "end": end}
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures (name -> (value, unit)) from one traced round."""
    t, c = tracer, tracer.counts
    epochs = t.phases("nn.pretrain", "mixing.intra_pairs", "optim.step")
    episodes = t.phases("pipeline.episodes", "adapt.sample_task", "adapt.evaluate")
    evaluate_s = t.total("adapt.evaluate")
    out = {
        "mixing.select_pairs_s": (t.total("mixing.select_pairs"), "s"),
        "mixing.intra_pairs_s": (t.total("mixing.intra_pairs"), "s"),
        "mixing.build_batch_s": (t.total("mixing.build_batch"), "s"),
        "mixing.subgraphs": (t.calls("mixing.mix_subgraphs", under="nn.pretrain"), "count"),
        "graphs.extract_ego_s": (t.total("graphs.extract_ego"), "s"),
        "graphs.extract_ego_calls": (t.calls("graphs.extract_ego"), "count"),
        "nn.epoch_s": (statistics.median(epochs) if epochs else 0.0, "s"),
        "nn.forward_s": (t.total("nn.forward"), "s"),
        "nn.gcn_encode_calls": (t.calls("nn.gcn_encode"), "count"),
        "nn.normalized_adjacency_s": (t.total("nn.normalized_adjacency"), "s"),
        "nn.normalized_adjacency_calls": (t.calls("nn.normalized_adjacency"), "count"),
        "autodiff.spmm_s": (t.total("autodiff.spmm"), "s"),
        "autodiff.spmm_calls": (t.calls("autodiff.spmm"), "count"),
        "autodiff.backward_s": (t.total("autodiff.backward"), "s"),
        "autodiff.tensors": (c["autodiff.tensors"], "count"),
        "autodiff.matmul_calls": (c["autodiff.matmul_calls"], "count"),
        "optim.step_s": (t.total("optim.step"), "s"),
        "adapt.step_s": (t.total("adapt.adapt") / max(1, c["adapt.steps"]), "s"),
        "adapt.evaluate_s": (evaluate_s, "s"),
        "adapt.queries_per_s": (c["adapt.queries"] / evaluate_s if evaluate_s else 0.0, "1/s"),
        "pipeline.episode_s": (statistics.median(episodes) if episodes else 0.0, "s"),
        "diagnostics.lipschitz_s": (
            t.total("diagnostics.lipschitz") - t.total("diagnostics.lipschitz", under="diagnostics.stability"),
            "s",
        ),
        "diagnostics.stability_s": (t.total("diagnostics.stability"), "s"),
        "diagnostics.probe_s": (t.total("diagnostics.probe"), "s"),
        "diagnostics.probe_steps": (t.calls("optim.step", under="diagnostics.probe"), "count"),
        "synth.make_s": (t.total("synth.make"), "s"),
        "io.load_s": (t.total("io.load"), "s"),
        "io.checkpoint_s": (t.total("io.checkpoint"), "s"),
        "cli.self_s": (t.self_time("cli"), "s"),
        "align.s": (t.total("align"), "s"),
        "boundary.s": (t.total("boundary"), "s"),
        "boundary.nodes": (c["boundary.nodes"], "count"),
        "boundary.fallback_domains": (c["boundary.fallback_domains"], "count"),
    }
    requested = c["mixing.pairs_requested"]
    out["mixing.pairs_selected_per_requested"] = (
        c["mixing.pairs_selected"] / requested if requested else 0.0,
        "ratio",
    )
    return out
