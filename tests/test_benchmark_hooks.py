"""The benchmark's tracing hooks still find every meshseg function they wrap.

perfbench/tracing.py wraps functions and methods by module attribute, so
a renamed or deleted one fails here and not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import meshseg.cli  # noqa: F401  (loads every module the hooks name)
from meshseg.graph.neighborhoods import EdgeSet, NeighborhoodConfig
from meshseg.hierarchy.build import HierarchyConfig, build_hierarchy, merge_hierarchies
from meshseg.hierarchy.store import deserialize_hierarchy, serialize_hierarchy
from meshseg.nn.edgeconv import prepared_edges
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.nn.optim import Adam
from meshseg.pipeline.toydata import ToySceneConfig, make_toy_scene
from meshseg.pipeline.train import network_inputs, prepare_sample


def load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def meshseg_attributes():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "meshseg"
            for attr, value in vars(mod).items() if callable(value)}


def test_instrument_wraps_and_restore_undoes():
    tracing = load_perfbench("tracing")
    before = meshseg_attributes()
    init = SegmentationNetwork.__dict__["__init__"]
    patches = tracing.Patches()
    tracer = tracing.Tracer("hooks")
    try:
        names = tracing.instrument(patches, tracer, [])
        swaps = len(patches._undo)
        assert "hierarchy.qem" in names and "pipeline.train_step" in names
        assert SegmentationNetwork.__dict__["__init__"] is not init
        # A wrapped function records its span.
        sys.modules["meshseg.graph.res"].res_sample(EdgeSet([np.array([1]), np.array([0])]),
                                                    15, 0)
        assert [span[0] for span in tracer.spans] == ["graph.res_sample"]
    finally:
        patches.restore()
    assert swaps > 0 and not patches._undo
    assert SegmentationNetwork.__dict__["__init__"] is init
    after = meshseg_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_train_step_counts_edges_and_restores():
    """A train step under the hooks: the edge counter sees every prepared
    row of every branch call, the per-block MLP spans are named, and the
    patches come off again."""
    tracing = load_perfbench("tracing")
    before = meshseg_attributes()
    sample = prepare_sample(make_toy_scene(0, ToySceneConfig(tiles_per_side=1)),
                            HierarchyConfig(strategy="vc", cells=(0.1, 0.3)),
                            [NeighborhoodConfig(kind="radius", radius=r) for r in (0.3, 0.6)])
    config = NetworkConfig(num_levels=2, num_classes=3, geo_widths=((8, 4),) * 2,
                           euc_widths=((8, 4),) * 2, head_hidden=4)
    patches = tracing.Patches()
    tracer = tracing.Tracer("hooks")
    try:
        tracing.instrument(patches, tracer, [])
        net = SegmentationNetwork(config)  # built under the hooks, so its blocks are labelled
        tracer.op = 1
        loss = sys.modules["meshseg.pipeline.train"].train_step(
            net, Adam(net.parameters()), [sample], 15, 7)
    finally:
        patches.restore()
    assert np.isfinite(loss)

    geo, euc, _ = network_inputs(net, *merge_hierarchies([sample.hierarchy]), 15, 7)
    blocks_per_level = [config.blocks_per_level * 2, config.blocks_per_level]
    rows = sum(blocks * (len(prepared_edges(g)) + len(prepared_edges(e)))
               for blocks, g, e in zip(blocks_per_level, geo, euc))
    assert tracer.counters["nn.edges"] == rows
    names = {span[0] for span in tracer.spans}
    assert {"nn.enc0.fwd.mlp", "nn.enc0.bwd.mlp", "nn.dec0.fwd.mlp", "nn.enc1.fwd.mlp",
            "nn.prepared_edges", "hierarchy.merge", "pipeline.train_step"} <= names
    assert not patches._undo
    after = meshseg_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


class RecordingRun:
    """The part of perfbench's `Run` that a check calls: it records each check."""

    def __init__(self):
        self.checks = []

    def check(self, what, ok):
        self.checks.append((what, bool(ok)))
        return ok


def test_scene_prep_round_trip_check_passes_on_a_stored_hierarchy(tmp_path):
    """The scene-prep check compares a built hierarchy with its store round
    trip, edge sets by `==`; the store keeps row order, so every check
    passes, and a row read back in another order fails."""
    workloads = load_perfbench("workloads")
    hier = build_hierarchy(make_toy_scene(0, ToySceneConfig(tiles_per_side=1)),
                           workloads.TOY_HIER)
    hier.build_euclidean_edges(workloads.TOY_NEIGH)
    serialize_hierarchy(hier, tmp_path / "h")
    loaded = deserialize_hierarchy(tmp_path / "h")

    run = RecordingRun()
    workloads.check_hierarchy_round_trip(run, hier, loaded)
    assert run.checks and all(ok for _, ok in run.checks), run.checks

    row = int(np.flatnonzero(loaded.geodesic_edges[0].degrees >= 2)[0])
    start, end = loaded.geodesic_edges[0].indptr[row:row + 2]
    loaded.geodesic_edges[0].indices[start:end] = loaded.geodesic_edges[0].indices[start:end][::-1]
    run = RecordingRun()
    workloads.check_hierarchy_round_trip(run, hier, loaded)
    assert dict(run.checks)["scene-prep: stored edge sets match"] is False
