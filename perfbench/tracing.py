"""Spans and counters recorded around calls into meshseg, from outside it.

`Patches` swaps public functions and methods of the package for wrappers
and puts the originals back on `restore()`. A function is replaced under
every name that refers to it in any loaded `meshseg` module, because the
package imports names directly (`from .build import build_hierarchy`).

`Tracer` keeps spans in memory: a name, start and end on the
`perf_counter` clock, the index of the enclosing span, and the operation
(request) the span belongs to. The spans are written out once, when the
run ends, and read back to derive each layer's self time: its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings
import weakref
from collections import defaultdict

SETUP, WARMUP = "setup", "warmup"   # operation ids outside the measured ones


class TraceFormatError(ValueError):
    """A written trace is truncated or inconsistent."""


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent, op]
        self.counters = defaultdict(float)
        self.op = None         # operation id stamped on new spans
        self._stack = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1.0):
        """Add to a counter of the current measured operation; else ignore."""
        if self.op not in (None, SETUP, WARMUP):
            self.counters[name] += amount

    def write(self, path):
        """One JSON span per line, then a trailer holding the span count."""
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                    "end": end, "parent": parent, "op": op}) + "\n")
            f.write(json.dumps({"run": self.run_id, "spans": len(self.spans)}) + "\n")


def read_trace(path):
    """Spans of a written trace, validated; raises TraceFormatError."""
    with open(path) as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    try:
        records = [json.loads(line) for line in lines]
    except json.JSONDecodeError as e:
        raise TraceFormatError(f"unparsable trace line: {e}") from None
    if not records or records[-1].get("spans") != len(records) - 1:
        raise TraceFormatError("trace trailer missing or span count wrong")
    spans = records[:-1]
    run_ids = {r["run"] for r in records}
    if len(run_ids) != 1:
        raise TraceFormatError(f"trace mixes runs {sorted(run_ids)}")
    for i, s in enumerate(spans):
        if s["end"] is None or s["end"] < s["start"]:
            raise TraceFormatError(f"span {i} ({s['name']}) never closed")
        p = s["parent"]
        if p is not None:
            if not 0 <= p < i:
                raise TraceFormatError(f"span {i} has parent {p} out of order")
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                raise TraceFormatError(f"span {i} ({s['name']}) outside its parent")
            if s["op"] != parent["op"]:
                raise TraceFormatError(f"span {i} changes operation inside its parent")
    return spans


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_seconds(spans, root: str):
    """Span time per name over the measured operations.

    Returns the summed self seconds per name, the summed inclusive
    seconds per name (a span nested in a span of the same name is not
    counted twice), the self seconds per name over set-up repetitions,
    the number of spans in measured operations, and the share of
    operation time that named layers cover (the rest is the `root`
    spans' own time).
    """
    selfs = self_times(spans)
    per_op, inclusive, per_setup = defaultdict(float), defaultdict(float), defaultdict(float)
    root_total = root_self = 0.0
    count = 0
    for s, st in zip(spans, selfs):
        if s["op"] in (None, WARMUP):
            continue
        if s["op"] == SETUP:
            per_setup[s["name"]] += st
            continue
        if s["name"] == root:
            root_total += s["end"] - s["start"]
            root_self += st
            continue
        count += 1
        per_op[s["name"]] += st
        if not _nested_in_namesake(spans, s):
            inclusive[s["name"]] += s["end"] - s["start"]
    coverage = 1.0 - root_self / root_total if root_total > 0 else 0.0
    return per_op, inclusive, per_setup, count, coverage


def _nested_in_namesake(spans, span):
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == span["name"]:
            return True
        parent = spans[parent]["parent"]
    return False


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None
    traced = spanned(Tracer("span-cost"), "noop")(noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max((time.perf_counter() - t1) - (t1 - t0), 0.0) / calls


class Patches:
    """Replace meshseg functions and methods; `restore()` undoes every swap.

    Functions are replaced in every meshseg module and in the modules
    named in `callers`, which call meshseg by directly imported names.
    """

    def __init__(self, callers=()):
        self._callers = set(callers)
        self._undo = []

    def function(self, module: str, name: str, make_wrapper):
        original = getattr(sys.modules[module], name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (mod_name.split(".")[0] != "meshseg"
                               and mod_name not in self._callers):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def method(self, cls, name: str, make_wrapper):
        original = cls.__dict__[name]
        setattr(cls, name, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((cls, name, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def spanned(tracer: Tracer, name, after=None):
    """Wrapper factory: time the call as a span; `name` may be a function
    of the call's arguments returning a span name or None (no span).
    `after(args, kwargs, result)` runs once the span is closed."""
    def make(original):
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if span is None:
                return original(*args, **kwargs)
            index = tracer.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper
    return make


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def instrument(patches: Patches, tracer: Tracer, hierarchy_sizes: list):
    """Wrap every layer boundary of meshseg that the per-layer metrics name.

    `hierarchy_sizes` receives the per-level vertex counts of each built
    hierarchy, set-up included. Returns the span names the wrappers use
    (block names for networks of up to four levels).
    """
    from meshseg.nn.layers import BatchNorm, Linear, ReLU, Sequential
    from meshseg.nn.edgeconv import EdgeConvBranch
    from meshseg.nn.network import SegmentationNetwork
    from meshseg.nn.optim import Adam
    from meshseg.hierarchy.build import Hierarchy

    fn = patches.function
    names = ["hierarchy.qem", "graph.euclidean", "nn.forward", "nn.backward", "nn.optimizer"]
    names += [f"nn.{part}{lvl}.{way}.{kind}"
              for part, levels in (("enc", 4), ("dec", 3)) for lvl in range(levels)
              for way in ("fwd", "bwd") for kind in ("mlp", "gather_scatter")]

    def plain(module, name, span, after=None):
        fn(module, name, spanned(tracer, span, after))
        if span not in names:
            names.append(span)

    # mesh
    plain("meshseg.mesh.io", "load_mesh", "mesh.io.load")
    plain("meshseg.mesh.io", "save_mesh", "mesh.io.save")
    plain("meshseg.mesh.subdivide", "midpoint_subdivide", "mesh.subdivide")
    plain("meshseg.mesh.subdivide", "interpolate_from_point_cloud", "mesh.interpolate")
    plain("meshseg.mesh.core", "geodesic_edge_set", "mesh.geodesic_edges")

    # hierarchy
    plain("meshseg.hierarchy.build", "build_hierarchy", "hierarchy.build",
          lambda a, k, hier: hierarchy_sizes.append(
              [m.num_vertices for m in hier.levels]))
    plain("meshseg.hierarchy.vertex_clustering", "vertex_clustering_pool", "hierarchy.vc")
    plain("meshseg.hierarchy.vertex_clustering", "pooled_edge_set", "hierarchy.pooled_edges")
    plain("meshseg.hierarchy.build", "merge_hierarchies", "hierarchy.merge")
    plain("meshseg.hierarchy.store", "serialize_hierarchy", "hierarchy.store.write")
    plain("meshseg.hierarchy.store", "deserialize_hierarchy", "hierarchy.store.read")

    def qem_wrapper(original):
        def wrapper(mesh, *args, **kwargs):
            index = tracer.begin("hierarchy.qem")
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    coarse, trace = original(mesh, *args, **kwargs)
            finally:
                tracer.end(index)
            tracer.count("hierarchy.qem.contractions",
                         mesh.num_vertices - coarse.num_vertices)
            for w in caught:
                if issubclass(w.category, RuntimeWarning) and str(w.message).startswith("qem:"):
                    tracer.count("hierarchy.qem.short_of_target")
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return coarse, trace
        return wrapper
    fn("meshseg.hierarchy.qem", "qem_pool", qem_wrapper)

    # graph
    patches.method(Hierarchy, "build_euclidean_edges",
                   spanned(tracer, "graph.euclidean"))

    def res_counts(args, kwargs, kept):
        tracer.count("graph.edges_offered", _arg(args, kwargs, 0, "edges").num_edges)
        tracer.count("graph.edges_kept", kept.num_edges)
    plain("meshseg.graph.res", "res_sample", "graph.res_sample", res_counts)

    # nn: block labels come from the network layout; decoder blocks are
    # labelled by the mesh level they run on.
    labels = weakref.WeakKeyDictionary()

    def label_blocks(args, kwargs, _):
        net = args[0]
        L = net.config.num_levels
        groups = [(f"nn.enc{lvl}", blocks) for lvl, blocks in enumerate(net.encoder)]
        groups += [(f"nn.dec{L - 2 - i}", blocks) for i, blocks in enumerate(net.decoder)]
        for label, blocks in groups:
            for blk in blocks:
                for branch in (blk.geodesic, blk.euclidean):
                    if branch is not None:
                        labels[branch] = label
                        labels[branch.phi] = label
    patches.method(SegmentationNetwork, "__init__", _after(label_blocks))

    def forward_counts(args, kwargs, _):
        tracer.count("nn.forward_calls")
    patches.method(SegmentationNetwork, "forward", spanned(tracer, "nn.forward", forward_counts))
    patches.method(SegmentationNetwork, "backward", spanned(tracer, "nn.backward"))
    plain("meshseg.nn.edgeconv", "prepared_edges", "nn.prepared_edges")
    plain("meshseg.nn.loss", "cross_entropy_loss", "nn.loss")
    patches.method(Adam, "step", spanned(tracer, "nn.optimizer"))

    def branch_forward_counts(args, kwargs, _):
        tracer.count("nn.edges", len(_arg(args, kwargs, 2, "centers")))
    patches.method(EdgeConvBranch, "forward", spanned(
        tracer, lambda a: f"{labels[a[0]]}.fwd.gather_scatter" if a[0] in labels else None,
        branch_forward_counts))
    patches.method(EdgeConvBranch, "backward", spanned(
        tracer, lambda a: f"{labels[a[0]]}.bwd.gather_scatter" if a[0] in labels else None))

    def mlp_shape_counts(args, kwargs, _, backward=False):
        seq, x = args[0], args[1]
        rows = x.shape[0]
        flops = sum(2 * rows * m.weight.value.size for m in seq.modules
                    if isinstance(m, Linear))
        tracer.count("nn.mlp_flops", 2 * flops if backward else flops)
        if backward or not _arg(args, kwargs, 2, "train"):
            return
        cached, width = 0, x.shape[1]
        for m in seq.modules:
            if isinstance(m, Linear):
                cached += rows * width * 8          # input kept for dW
                width = m.weight.value.shape[1]
            elif isinstance(m, BatchNorm):
                cached += rows * width * 8          # normalized input
            elif isinstance(m, ReLU):
                cached += rows * width              # boolean mask
        tracer.count("nn.edge_cache_bytes", cached)
    patches.method(Sequential, "forward", spanned(
        tracer, lambda a: f"{labels[a[0]]}.fwd.mlp" if a[0] in labels else None,
        mlp_shape_counts))
    patches.method(Sequential, "backward", spanned(
        tracer, lambda a: f"{labels[a[0]]}.bwd.mlp" if a[0] in labels else None,
        functools.partial(mlp_shape_counts, backward=True)))

    plain("meshseg.nn.checkpoint", "load_checkpoint", "nn.checkpoint.load")
    plain("meshseg.nn.checkpoint", "save_checkpoint", "nn.checkpoint.save")

    # pipeline
    plain("meshseg.pipeline.train", "prepare_sample", "pipeline.prepare_sample")
    plain("meshseg.pipeline.augment", "random_affine", "pipeline.augment")
    for module, name in (("meshseg.pipeline.crops", "crop_windows"),
                         ("meshseg.pipeline.crops", "crop_scene"),
                         ("meshseg.pipeline.crops", "submesh"),
                         ("meshseg.pipeline.train", "collect_crops")):
        plain(module, name, "pipeline.crop")
    plain("meshseg.pipeline.features", "vertex_features", "pipeline.features")
    plain("meshseg.pipeline.infer", "majority_vote", "pipeline.vote")
    plain("meshseg.pipeline.infer", "predict_hierarchy", "pipeline.predict")
    plain("meshseg.pipeline.infer", "infer_scene", "pipeline.infer_scene",
          lambda a, k, result: tracer.count("pipeline.crops", result.num_crops))
    plain("meshseg.pipeline.train", "train_step", "pipeline.train_step",
          lambda a, k, loss: tracer.count("pipeline.crops", len(_arg(a, k, 2, "samples"))))
    return names


def _after(hook):
    """Wrapper factory that only runs `hook(args, kwargs, result)` after the call."""
    def make(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(args, kwargs, result)
            return result
        return wrapper
    return make
