"""The benchmark's tracing hooks still find every meshseg function they wrap.

perfbench/tracing.py wraps functions and methods by module attribute, so
a renamed or deleted one fails here and not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import meshseg.cli  # noqa: F401  (loads every module the hooks name)
from meshseg.graph.neighborhoods import EdgeSet
from meshseg.nn.network import SegmentationNetwork


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
