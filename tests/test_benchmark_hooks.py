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
from meshseg.hierarchy.build import HierarchyConfig, merge_hierarchies
from meshseg.nn.edgeconv import prepared_edges
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.nn.optim import Adam
from meshseg.pipeline.toydata import ToySceneConfig, make_toy_scene
from meshseg.pipeline.train import network_inputs, prepare_sample


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def meshseg_attributes():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "meshseg"
            for attr, value in vars(mod).items() if callable(value)}


def test_instrument_wraps_and_restore_undoes():
    tracing = load_tracing()
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
    tracing = load_tracing()
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

    geo, euc, _ = network_inputs(net, merge_hierarchies([sample.hierarchy]), 15, 7)
    blocks_per_level = [config.blocks_per_level * 2, config.blocks_per_level]
    rows = sum(blocks * (len(prepared_edges(g)) + len(prepared_edges(e)))
               for blocks, g, e in zip(blocks_per_level, geo, euc))
    assert tracer.counters["nn.edges"] == rows
    names = {span[0] for span in tracer.spans}
    assert {"nn.enc0.fwd.mlp", "nn.enc0.bwd.mlp", "nn.dec0.fwd.mlp", "nn.enc1.fwd.mlp",
            "nn.prepared_edges", "pipeline.train_step"} <= names
    assert not patches._undo
    after = meshseg_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
