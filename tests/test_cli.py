import argparse
import json
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from meshseg import cli
from meshseg.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from meshseg.mesh.core import UNLABELED, Mesh
from meshseg.mesh.io import load_mesh, save_mesh
from meshseg.nn.checkpoint import load_checkpoint
from meshseg.pipeline.toydata import make_toy_scene

from test_checkpoint import _edit_header, _set_payload_value

HIER_ARGS = [
    "--strategy", "vc", "--cells", "0.15,0.3,0.6,1.2",
    "--radius", "0.25,0.4,0.8,1.6",
]

FPS_ARGS = ["--strategy", "fps", "--radius", "0.1", "--fps-counts"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    save_mesh(make_toy_scene(0), d / "scene0.ply", binary=True)
    save_mesh(make_toy_scene(1), d / "scene1.ply", binary=True)
    (d / "dataset.json").write_text(json.dumps({
        "scenes": [
            {"path": str(d / "scene0.ply"), "split": "train"},
            {"path": str(d / "scene1.ply"), "split": "test"},
        ]
    }))
    return d


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "run"
    code = main([
        "train", "--manifest", str(workdir / "dataset.json"),
        "--output", str(out), *HIER_ARGS,
        "--classes", "3", "--widths", "8,4", "--epochs", "1",
        "--crop-extent", "3.6", "--crop-stride", "1.8",
        "--no-augment", "--quiet",
    ])
    assert code == EXIT_OK
    return out


def test_subdivide_round_trip(workdir, capsys):
    out = workdir / "sub" / "scene0_fine.ply"
    code = main(["subdivide", str(workdir / "scene0.ply"), str(out),
                 "--min-edge-len", "0.1"])
    assert code == EXIT_OK
    original = load_mesh(workdir / "scene0.ply")
    fine = load_mesh(out)
    assert fine.num_vertices > original.num_vertices
    assert (workdir / "sub" / "run_manifest.json").exists()
    assert "vertices" in capsys.readouterr().out


def test_subdivide_stops_at_the_first_pass_that_splits_nothing(workdir, tmp_path):
    scene = str(workdir / "scene0.ply")
    written = []
    for passes in ("1", str(2**62 - 1)):
        out = tmp_path / passes / "scene0.ply"
        assert main(["subdivide", scene, str(out), "--min-edge-len", "100",
                     "--passes", passes]) == EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]
    copy = tmp_path / "scene0.off"
    assert main(["subdivide", scene, str(copy), "--passes", "0"]) == EXIT_OK
    assert load_mesh(copy).num_vertices == load_mesh(scene).num_vertices


@pytest.mark.parametrize("missing", ["colors", "labels"])
def test_subdivide_cloud_without_an_attribute_exit_2(workdir, tmp_path, capsys, missing):
    cloud = make_toy_scene(0)
    setattr(cloud, missing, None)
    save_mesh(cloud, tmp_path / "cloud.ply", binary=True)
    out = tmp_path / "out" / "fine.ply"
    code = main(["subdivide", str(workdir / "scene0.ply"), str(out),
                 "--cloud", str(tmp_path / "cloud.ply")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"cloud.ply: point cloud carries no {missing}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_subdivide_cloud_label_beyond_binary_ply_exit_2(workdir, tmp_path, capsys):
    # The binary writer stores int32 labels; this one used to wrap to -1,294,967,296.
    cloud = make_toy_scene(0)
    cloud.labels[:] = 3_000_000_000
    save_mesh(cloud, tmp_path / "cloud.ply", binary=False)
    out = tmp_path / "out" / "fine.ply"
    code = main(["subdivide", str(workdir / "scene0.ply"), str(out),
                 "--cloud", str(tmp_path / "cloud.ply")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "label 3000000000 at vertex 0 does not fit the int32 of binary PLY" in err
    assert "Traceback" not in err
    assert not out.exists() and not (out.parent / "run_manifest.json").exists()


def test_build_hierarchy_and_graph_stats(workdir, capsys):
    hdir = workdir / "hier"
    code = main(["build-hierarchy", str(workdir / "scene0.ply"), str(hdir),
                 *HIER_ARGS])
    assert code == EXIT_OK
    manifest = (hdir / "run_manifest.json").read_text()
    assert json.loads(manifest)["command"] == "build-hierarchy"
    assert json.loads(manifest)["outputs"] == [str(hdir)]
    # The run manifest is where the build config is recorded.
    config = json.loads(manifest)["config"]
    assert config["strategy"] == "vc" and config["qem_ratio"] == 0.3
    assert config["cells"] == [0.15, 0.3, 0.6, 1.2]
    assert config["input"] == str(workdir / "scene0.ply")
    capsys.readouterr()
    assert main(["graph-stats", str(hdir)]) == EXIT_OK
    assert (hdir / "run_manifest.json").read_text() == manifest  # graph-stats writes none
    stats = json.loads(capsys.readouterr().out)
    assert len(stats) == 4
    for entry in stats:
        assert entry["geodesic"]["edges"] >= 0
        assert entry["euclidean"]["mean_degree"] > 0


def test_train_outputs(trained):
    assert (trained / "checkpoint.bin").exists()
    history = json.loads((trained / "loss_history.json").read_text())
    assert len(history) == 1 and np.isfinite(history[0])
    manifest = json.loads((trained / "run_manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 1
    assert "total" in manifest["timings_seconds"]


def test_infer_eval_vote_loop(workdir, trained, capsys):
    pred = workdir / "pred" / "scene1.txt"
    code = main([
        "infer", "--checkpoint", str(trained / "checkpoint.bin"),
        "--scene", str(workdir / "scene1.ply"), "--output", str(pred),
        *HIER_ARGS, "--crop-extent", "3.6", "--crop-stride", "1.8",
    ])
    assert code == EXIT_OK
    scene = load_mesh(workdir / "scene1.ply")
    predictions = np.loadtxt(pred, dtype=np.int64)
    assert predictions.shape == (scene.num_vertices,)
    assert predictions.min() >= 0 and predictions.max() < 3
    manifest = (pred.parent / "run_manifest.json").read_text()
    assert json.loads(manifest)["command"] == "infer"
    assert json.loads(manifest)["outputs"] == [str(pred)]
    # eval without --output writes no manifest.
    assert main(["eval", "--scene", str(workdir / "scene1.ply"),
                 "--predictions", str(pred), "--classes", "3"]) == EXIT_OK
    assert (pred.parent / "run_manifest.json").read_text() == manifest
    capsys.readouterr()

    out = workdir / "metrics"
    code = main(["eval", "--scene", str(workdir / "scene1.ply"),
                 "--predictions", str(pred), "--classes", "3",
                 "--output", str(out)])
    assert code == EXIT_OK
    assert "mIoU" in capsys.readouterr().out
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["mean_iou"] <= 1.0
    rows = (out / "confusion.csv").read_text().strip().split("\n")
    assert len(rows) == 3 and all(len(r.split(",")) == 3 for r in rows)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "total" in manifest["timings_seconds"]

    voted = workdir / "pred" / "voted.txt"
    code = main(["vote", str(pred), str(pred), str(pred),
                 "--output", str(voted), "--classes", "3"])
    assert code == EXIT_OK
    assert np.array_equal(np.loadtxt(voted, dtype=np.int64), predictions)
    assert json.loads((voted.parent / "run_manifest.json").read_text())["command"] == "vote"


def test_infer_on_a_scene_without_labels(trained, tmp_path):
    """Inference reads no labels: a scene saved without its label property
    gets the same predictions as the same scene saved with it."""
    scene = make_toy_scene(1)
    save_mesh(scene, tmp_path / "labeled.ply", binary=True)
    scene.labels = None
    save_mesh(scene, tmp_path / "unlabeled.ply", binary=True)
    assert load_mesh(tmp_path / "unlabeled.ply").labels is None
    written = []
    for name in ("labeled", "unlabeled"):
        out = tmp_path / f"{name}.txt"
        assert main(["infer", "--checkpoint", str(trained / "checkpoint.bin"),
                     "--scene", str(tmp_path / f"{name}.ply"), "--output", str(out),
                     *HIER_ARGS, "--crop-extent", "3.6", "--crop-stride", "1.8"]) == EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_config_errors_exit_3(workdir, capsys):
    assert main(["bogus-command"]) == EXIT_CONFIG
    assert main(["build-hierarchy", str(workdir / "scene0.ply"),
                 str(workdir / "x"), "--cells", "foo"]) == EXIT_CONFIG
    assert main(["train", "--output", str(workdir / "x")]) == EXIT_CONFIG  # no manifest
    assert main(["build-hierarchy", str(workdir / "scene0.ply"),
                 str(workdir / "x"), "--strategy", "vc",
                 "--cells", "0.15,0.3", "--radius", "0.25,0.4,0.8"]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_io_errors_exit_4(workdir, capsys):
    assert main(["subdivide", str(workdir / "missing.ply"),
                 str(workdir / "out.ply")]) == EXIT_IO
    assert main(["train", "--manifest", str(workdir / "missing.json"),
                 "--output", str(workdir / "x")]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_validation_errors_exit_2(workdir, capsys):
    bad = workdir / "bad.ply"
    bad.write_bytes((workdir / "scene0.ply").read_bytes()[:200])
    assert main(["subdivide", str(bad), str(workdir / "out.ply")]) == EXIT_VALIDATION

    # A damaged face element keyword must not load as a point cloud.
    fabe = workdir / "fabe.ply"
    fabe.write_bytes((workdir / "scene0.ply").read_bytes().replace(b"element face",
                                                                   b"element fabe"))
    assert main(["build-hierarchy", str(fabe), str(workdir / "x")]) == EXIT_VALIDATION
    assert "unknown element 'fabe'" in capsys.readouterr().err

    empty = workdir / "empty_hier"
    empty.mkdir()
    assert main(["graph-stats", str(empty)]) == EXIT_VALIDATION

    not_ckpt = workdir / "not_ckpt.bin"
    not_ckpt.write_bytes(b"garbage!" * 16)
    assert main(["infer", "--checkpoint", str(not_ckpt),
                 "--scene", str(workdir / "scene0.ply"),
                 "--output", str(workdir / "p.txt")]) == EXIT_VALIDATION

    # An unsupported mesh format, read and written.
    unknown = workdir / "scene0.xyz"
    unknown.write_text("0 0 0\n")
    assert main(["build-hierarchy", str(unknown), str(workdir / "x")]) == EXIT_VALIDATION
    assert main(["subdivide", str(workdir / "scene0.ply"), str(workdir / "out.xyz"),
                 "--min-edge-len", "100"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error" in err
    assert err.count("unsupported mesh format") == 2


def test_vote_length_mismatch_exit_2(workdir, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("0\n1\n")
    b.write_text("0\n")
    assert main(["vote", str(a), str(b), "--output",
                 str(tmp_path / "v.txt")]) == EXIT_VALIDATION


def test_vote_table_follows_the_predictions_not_classes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("0\n1\n1\n0\n")
    b.write_text("1\n0\n1\n0\n")
    written = []
    for classes in ("2", str(10**11)):
        out = tmp_path / classes / "v.txt"
        assert main(["vote", str(a), str(b), "--output", str(out),
                     "--classes", classes]) == EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert np.loadtxt(tmp_path / "2" / "v.txt", dtype=np.int64).tolist() == [0, 0, 1, 0]


def test_vote_with_a_huge_class_id(tmp_path):
    # A table of one column per class up to 2^62 does not fit in memory.
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(f"{2**62}\n{2**62}\n1\n")
    b.write_text(f"{2**62}\n0\n1\n")
    out = tmp_path / "v.txt"
    assert main(["vote", str(a), str(b), "--output", str(out),
                 "--classes", str(2**62 + 1)]) == EXIT_OK
    assert np.loadtxt(out, dtype=np.int64).tolist() == [2**62, 0, 1]


def test_threads_without_threadpoolctl_warns(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(cli, "_openblas_thread_setter", lambda: None)  # no OpenBLAS either
    preds = tmp_path / "p.txt"
    preds.write_text("0\n1\n")
    vote = ["vote", str(preds), str(preds), "--output", str(tmp_path / "v.txt")]
    assert main(vote) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert main(["--threads", "1", *vote]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--threads 1 not applied" in err[0]


@pytest.mark.parametrize("threads", [1, 2**63 - 1])
def test_threads_without_threadpoolctl_set_openblas(tmp_path, monkeypatch, capsys, threads):
    """--threads goes to NumPy's OpenBLAS, clamped to the CPU count; the
    setter is a stand-in, so no thread count is ever applied."""
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    calls = []
    monkeypatch.setattr(cli, "_openblas_thread_setter", lambda: calls.append)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    preds = tmp_path / "p.txt"
    preds.write_text("0\n1\n")
    vote = ["vote", str(preds), str(preds), "--output", str(tmp_path / "v.txt")]
    assert main(["--threads", str(threads), *vote]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert calls == [min(threads, 2)]


def test_openblas_thread_setter_is_found():
    """The set-num-threads symbol of NumPy's bundled OpenBLAS, looked up but
    not called."""
    if "openblas" not in str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]):
        pytest.skip("NumPy is not built with OpenBLAS")
    assert cli._openblas_thread_setter() is not None


# The message a row's options reach; negative numbers come in every float form.
RANGE_MESSAGES = {
    ("--lr=-inf",): "argument --lr: must be positive and finite",
    ("--lr=-1e-3",): "argument --lr: must be positive and finite",
    ("--lr", "-1e-3"): "argument --lr: must be positive and finite",
    ("--lr", "-inf"): "argument --lr: must be positive and finite",
    ("--crop-extent", "-1e0"): "argument --crop-extent: must be positive and finite",
    ("--cells", "-4e-2,0.08"): "argument --cells: must be positive and finite",
    ("--radius", "-1"): "argument --radius: must be positive and finite",
    ("--widths=8,0",): "must be (0, 0) or both at least 1",
    ("--widths=-3,4",): "argument --widths: must be an integer in [0, 2^63)",
    ("--widths=0,4",): "must be (0, 0) or both at least 1",
    ("--widths=0,0",): "every level needs at least one branch",
    ("--levels", "1000000000000"):
        "the network needs 1000000000000 mesh levels, the hierarchy has 4",
    ("--qem-levels", "1000000000000", "--radius", "0.1"):
        "--qem-levels 1000000000000: 1000000000001 levels need as many vertices",
    ("--crop-extent", "1.0", "--crop-stride", "2.0"):
        "crop stride 2.0 exceeds the crop extent 1.0",
    ("--classes", "1000000000000"):
        "the network that --classes 1000000000000 and --widths build cannot be allocated",
    ("--strategy", "vc", "--cells", "1e-300", "--radius", "0.05"):
        "pooling level 0: cell size 1e-300 puts",
    ("--crop-extent", "1e-300", "--crop-stride", "1e-300"):
        "crop extent 1e-300 and stride 1e-300 sweep",
}


@pytest.mark.parametrize("command, manifest, options, code", [
    ("train", "not json", [], EXIT_VALIDATION),
    ("train", '{"cases": []}', [], EXIT_VALIDATION),
    ("train", '{"scenes": [{"split": "train"}]}', [], EXIT_VALIDATION),
    ("train", '{"scenes": [7]}', [], EXIT_VALIDATION),
    ("train", '{"scenes": {"path": "scene0.ply"}}', [], EXIT_VALIDATION),
    ("build-hierarchy", None, ["--strategy", "fps"], EXIT_CONFIG),
    ("build-hierarchy", None, ["--qem-ratio", "1.5"], EXIT_CONFIG),
    ("build-hierarchy", None, ["--radius", "-1"], EXIT_CONFIG),
    ("build-hierarchy", None, ["--cells", "0.15,-0.3"], EXIT_CONFIG),
    ("train", None, ["--knn", "0"], EXIT_CONFIG),
    ("train", None, ["--crop-extent", "0"], EXIT_CONFIG),
    ("train", None, ["--epochs", "0"], EXIT_CONFIG),
    ("subdivide", None, ["--min-edge-len", "-1"], EXIT_CONFIG),
    ("infer", None, ["--qem-ratio", "0"], EXIT_CONFIG),
    ("build-hierarchy", None, FPS_ARGS + ["5000,100"], EXIT_VALIDATION),
    ("build-hierarchy", None, FPS_ARGS + ["100,500"], EXIT_CONFIG),
    ("build-hierarchy", None, FPS_ARGS + ["0,5"], EXIT_CONFIG),
    ("train", None, FPS_ARGS + ["1000,300,100,30", "--crop-extent", "1.0", "--crop-stride", "1.0"],
     EXIT_VALIDATION),
    ("train", None, ["--batch-size", "0"], EXIT_CONFIG),
    ("train", None, ["--res-train", "0"], EXIT_CONFIG),
    ("infer", None, ["--res-test", "0"], EXIT_CONFIG),
    ("train", None, ["--qem-levels", "2", "--radius", "0.1"], EXIT_CONFIG),
    ("train", None, ["--levels", "0"], EXIT_CONFIG),
    # Level 3 of a crop of scene 0 keeps its 17 vertices.
    ("train", None, ["--widths", "8,4", "--crop-extent", "1.0", "--crop-stride", "1.0"],
     EXIT_VALIDATION),
    ("train", None, ["--classes", "0"], EXIT_CONFIG),
    # Scene 0 has labels 0 to 2.
    ("train", None, ["--classes", "2"], EXIT_VALIDATION),
    # Level 3 of scene 0 keeps 48 vertices, and of each of its crops fewer.
    ("build-hierarchy", None, ["--knn", "50"], EXIT_VALIDATION),
    ("train", None, ["--knn", "50"], EXIT_VALIDATION),
    ("train", None, ["--crop-extent", "nan"], EXIT_CONFIG),
    ("infer", None, ["--crop-stride", "inf"], EXIT_CONFIG),
    ("build-hierarchy", None, ["--radius", "nan"], EXIT_CONFIG),
    ("build-hierarchy", None, ["--radius", "inf"], EXIT_CONFIG),
    ("build-hierarchy", None, ["--cells", "0.04,nan"], EXIT_CONFIG),
    ("subdivide", None, ["--min-edge-len", "nan"], EXIT_CONFIG),
    ("train", None, ["--lr", "nan"], EXIT_CONFIG),
    ("train", None, ["--lr", "inf"], EXIT_CONFIG),
    ("train", None, ["--lr=-inf"], EXIT_CONFIG),
    ("train", None, ["--lr", "0"], EXIT_CONFIG),
    ("train", None, ["--lr=-1e-3"], EXIT_CONFIG),
    ("train", None, ["--lr", "-1e-3"], EXIT_CONFIG),
    ("train", None, ["--lr", "-inf"], EXIT_CONFIG),
    ("train", None, ["--crop-extent", "-1e0"], EXIT_CONFIG),
    ("build-hierarchy", None, ["--cells", "-4e-2,0.08"], EXIT_CONFIG),
    ("train", None, ["--widths=8,0"], EXIT_CONFIG),
    ("train", None, ["--widths=-3,4"], EXIT_CONFIG),
    ("train", None, ["--widths=0,4"], EXIT_CONFIG),
    ("train", None, ["--widths=0,0"], EXIT_CONFIG),
    ("train", None, ["--levels", "1000000000000"], EXIT_CONFIG),
    ("build-hierarchy", None, ["--qem-levels", "1000000000000", "--radius", "0.1"], EXIT_CONFIG),
    ("train", None, ["--qem-levels", "1000000000000", "--radius", "0.1"], EXIT_CONFIG),
    ("train", None, ["--crop-extent", "1.0", "--crop-stride", "2.0"], EXIT_CONFIG),
    # A 32 x 10^12 head weight, which no allocator can reserve: nothing is allocated.
    ("train", None, ["--classes", "1000000000000"], EXIT_CONFIG),
    # Scene 0 spans about 3e300 cells of 1e-300 m, past any int64 cell index.
    ("build-hierarchy", None, ["--strategy", "vc", "--cells", "1e-300", "--radius", "0.05"],
     EXIT_VALIDATION),
    # About 3e300 crop windows per axis, past any allocation.
    ("train", None, ["--crop-extent", "1e-300", "--crop-stride", "1e-300"], EXIT_CONFIG),
    ("infer-trained", None, ["--crop-extent", "1e-300", "--crop-stride", "1e-300"], EXIT_CONFIG),
    # JSON nested deeper than the parser's recursion limit.
    pytest.param("train", "[" * 100000 + "]" * 100000, [], EXIT_VALIDATION,
                 id="train-nested-manifest"),
])
def test_bad_inputs_exit_without_traceback(workdir, tmp_path, capsys, request, command, manifest,
                                           options, code):
    scene = str(workdir / "scene0.ply")
    # Configs are checked before the checkpoint is opened, so infer rows name
    # a missing one; infer-trained rows load a real one to reach the crops.
    checkpoint = tmp_path / "missing.bin"
    if command == "infer-trained":
        command, checkpoint = "infer", request.getfixturevalue("trained") / "checkpoint.bin"
    dataset = workdir / "dataset.json"
    if manifest is not None:
        dataset = tmp_path / "dataset.json"
        dataset.write_text(manifest)
    argv = {
        "train": ["train", "--manifest", str(dataset), "--output", str(tmp_path / "run")],
        "build-hierarchy": ["build-hierarchy", scene, str(tmp_path / "hier")],
        "subdivide": ["subdivide", scene, str(tmp_path / "fine.ply")],
        "infer": ["infer", "--checkpoint", str(checkpoint), "--scene", scene,
                  "--output", str(tmp_path / "p.txt")],
    }[command]
    assert main([*argv, *options]) == code
    err = capsys.readouterr().err
    assert "error" in err
    assert RANGE_MESSAGES.get(tuple(options), "") in err


def test_more_qem_levels_than_vertices_write_nothing(workdir, trained, tmp_path, capsys):
    scene = str(workdir / "scene0.ply")
    for argv in (["build-hierarchy", scene, str(tmp_path / "hier")],
                 ["train", "--manifest", str(workdir / "dataset.json"),
                  "--output", str(tmp_path / "run")],
                 # The checkpoint is read first: the network depth is checked
                 # before the scene is read.
                 ["infer", "--checkpoint", str(trained / "checkpoint.bin"), "--scene", scene,
                  "--output", str(tmp_path / "p.txt")]):
        # Scene 0 has 1751 vertices.
        assert main([*argv, "--qem-levels", "1751"]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == []
    message = f"--qem-levels 1751: 1752 levels need as many vertices, {scene} has 1751"
    assert capsys.readouterr().err.count(message) == 3


def test_crop_stride_above_extent_writes_nothing(workdir, trained, tmp_path, capsys):
    # Toy scene 1 swept with these windows leaves 1,037 of its 1,751
    # vertices in no window; infer used to fail on them after the crops.
    out = tmp_path / "pred" / "p.txt"
    code = main(["infer", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--scene", str(workdir / "scene1.ply"), "--output", str(out), *HIER_ARGS,
                 "--crop-extent", "1.0", "--crop-stride", "2.0"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "crop stride 2.0 exceeds the crop extent 1.0" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("label, code", [(2_000_000_000, EXIT_OK), (-5, EXIT_VALIDATION)])
def test_extreme_scene_label(tmp_path, capsys, label, code):
    # Label pooling once allocated a coarse vertices x (largest label + 1)
    # table, and a label below UNLABELED landed in another group's count.
    scene = make_toy_scene(0)
    scene.labels[17] = label
    save_mesh(scene, tmp_path / "scene.ply")
    assert main(["build-hierarchy", str(tmp_path / "scene.ply"), str(tmp_path / "hier"),
                 *HIER_ARGS]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_VALIDATION:
        assert "label below -1 at vertex 17" in err
        assert not (tmp_path / "hier").exists()


def test_fps_count_above_vertex_count_names_both(workdir, tmp_path, capsys):
    scene = workdir / "scene0.ply"
    vertices = load_mesh(scene).num_vertices
    code = main(["build-hierarchy", str(scene), str(tmp_path / "hier"),
                 *FPS_ARGS, f"{vertices + 1},100"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{vertices + 1}" in err and f"{vertices} vertices" in err


def test_knn_above_level_size_names_the_level(workdir, tmp_path, capsys):
    code = main(["build-hierarchy", str(workdir / "scene0.ply"), str(tmp_path / "hier"),
                 "--knn", "48"])
    assert code == EXIT_VALIDATION
    assert "level 3 has 48 vertices" in capsys.readouterr().err


@pytest.mark.parametrize("name, binary", [
    ("empty.ply", False), ("empty.ply", True), ("empty.off", False),
], ids=["ascii-ply", "binary-ply", "off"])
def test_mesh_without_vertices_exit_2(workdir, trained, tmp_path, capsys, name, binary):
    scene = tmp_path / name
    save_mesh(Mesh(positions=np.empty((0, 3)), faces=np.empty((0, 3), dtype=np.int64)),
              scene, binary=binary)
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({"scenes": [{"path": str(scene)}]}))
    predictions = tmp_path / "p.txt"
    predictions.write_text("0\n")
    for argv in (
        ["subdivide", str(scene), str(tmp_path / "fine.ply")],
        ["build-hierarchy", str(scene), str(tmp_path / "hier")],
        ["train", "--manifest", str(dataset), "--output", str(tmp_path / "run")],
        ["infer", "--checkpoint", str(trained / "checkpoint.bin"), "--scene", str(scene),
         "--output", str(predictions)],
        ["eval", "--scene", str(scene), "--predictions", str(predictions)],
    ):
        assert main(argv) == EXIT_VALIDATION
        assert "mesh has no vertices" in capsys.readouterr().err


def test_truncated_checkpoint_exit_2(workdir, trained, tmp_path, capsys):
    ckpt = tmp_path / "short.bin"
    ckpt.write_bytes((trained / "checkpoint.bin").read_bytes()[:-100])
    assert main(["infer", "--checkpoint", str(ckpt), "--scene", str(workdir / "scene1.ply"),
                 "--output", str(tmp_path / "p.txt"), *HIER_ARGS]) == EXIT_VALIDATION
    assert "the network needs" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
def test_old_version_checkpoint_exit_2(workdir, trained, tmp_path, capsys, version):
    data = bytearray((trained / "checkpoint.bin").read_bytes())
    data[8:12] = struct.pack("<I", version)
    ckpt = tmp_path / "old.bin"
    ckpt.write_bytes(bytes(data))
    assert main(["infer", "--checkpoint", str(ckpt), "--scene", str(workdir / "scene1.ply"),
                 "--output", str(tmp_path / "p.txt"), *HIER_ARGS]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"unsupported checkpoint version {version}" in err and "Traceback" not in err
    assert not (tmp_path / "p.txt").exists()


@pytest.mark.parametrize("name, value", [
    ("encoder.0.0.geo.phi.0.weight", np.nan),
    ("head.1.running_var", -1.0),
], ids=["nan-weight", "negative-var"])
def test_checkpoint_with_a_bad_tensor_exit_2(workdir, trained, tmp_path, capsys, name, value):
    ckpt = tmp_path / "bad.bin"
    ckpt.write_bytes(_set_payload_value((trained / "checkpoint.bin").read_bytes(), name, value))
    assert main(["infer", "--checkpoint", str(ckpt), "--scene", str(workdir / "scene1.ply"),
                 "--output", str(tmp_path / "p.txt"), *HIER_ARGS]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"tensor {name!r} holds" in err and "Traceback" not in err
    assert not (tmp_path / "p.txt").exists()


def test_checkpoint_with_a_zero_width_exit_2(workdir, trained, tmp_path, capsys):
    ckpt = tmp_path / "zero.bin"
    ckpt.write_bytes(_edit_header((trained / "checkpoint.bin").read_bytes(),
                                  lambda h: h["config"].update(euc_widths=[[0, 4]] * 4)))
    assert main(["infer", "--checkpoint", str(ckpt), "--scene", str(workdir / "scene1.ply"),
                 "--output", str(tmp_path / "p.txt"), *HIER_ARGS]) == EXIT_VALIDATION
    assert "must be (0, 0) or both at least 1" in capsys.readouterr().err


def test_infer_checks_network_depth_before_reading_the_scene(workdir, trained, tmp_path,
                                                             capsys):
    code = main(["infer", "--checkpoint", str(trained / "checkpoint.bin"),
                 "--scene", str(tmp_path / "missing.ply"), "--output", str(tmp_path / "p.txt"),
                 "--strategy", "vc", "--cells", "0.15,0.3", "--radius", "0.25"])
    assert code == EXIT_CONFIG
    assert "the network needs 4 mesh levels, the hierarchy has 2" in capsys.readouterr().err


def test_network_widths_follow_levels(workdir, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--manifest", str(workdir / "dataset.json"), "--output", str(out),
                 *HIER_ARGS, "--classes", "3", "--levels", "3", "--epochs", "1",
                 "--crop-extent", "3.6", "--crop-stride", "1.8", "--no-augment", "--quiet"])
    assert code == EXIT_OK
    config = load_checkpoint(out / "checkpoint.bin").config
    assert config.num_levels == 3
    assert config.geo_widths == config.euc_widths == ((64, 32),) * 3
    # --widths applies at every level of a network deeper than the default.
    assert main(["train", "--manifest", str(workdir / "dataset.json"), "--output", str(out),
                 *HIER_ARGS, "--levels", "5", "--widths", "8,4"]) == EXIT_CONFIG
    assert "the network needs 5 mesh levels, the hierarchy has 4" in capsys.readouterr().err


def prediction_lines(workdir, bad_line):
    lines = ["0"] * load_mesh(workdir / "scene0.ply").num_vertices
    lines[7] = bad_line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad_line, message", [
    ("1.5", "expected one integer class per line"),
    ("zero", "expected one integer class per line"),
    ("0 1", "expected one integer class per line"),
    ("-3", "line 8: class -3 outside [0, 3)"),
    ("3", "line 8: class 3 outside [0, 3)"),
])
def test_bad_prediction_files_exit_2(workdir, tmp_path, capsys, bad_line, message):
    preds = tmp_path / "p.txt"
    preds.write_text(prediction_lines(workdir, bad_line))
    assert main(["vote", str(preds), str(preds), "--output", str(tmp_path / "v.txt"),
                 "--classes", "3"]) == EXIT_VALIDATION
    assert main(["eval", "--scene", str(workdir / "scene0.ply"), "--predictions", str(preds),
                 "--classes", "3"]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("validation error" in e and message in e for e in err)


def test_classes_below_one_exit_3(workdir, tmp_path):
    preds = tmp_path / "p.txt"
    preds.write_text(prediction_lines(workdir, "0"))
    assert main(["vote", str(preds), "--output", str(tmp_path / "v.txt"),
                 "--classes", "0"]) == EXIT_CONFIG
    assert main(["eval", "--scene", str(workdir / "scene0.ply"), "--predictions", str(preds),
                 "--classes", "0"]) == EXIT_CONFIG


def test_scene_label_outside_classes_exit_2(workdir, tmp_path, capsys):
    preds = tmp_path / "p.txt"
    preds.write_text(prediction_lines(workdir, "0"))
    assert main(["eval", "--scene", str(workdir / "scene0.ply"), "--predictions", str(preds),
                 "--classes", "1"]) == EXIT_VALIDATION
    assert "label outside [0, num_classes)" in capsys.readouterr().err


def test_classes_too_many_to_count_exit_3(workdir, tmp_path, capsys):
    # 10^22 confusion counts overflow the allocation size before anything is
    # allocated.
    preds = tmp_path / "p.txt"
    preds.write_text(prediction_lines(workdir, "0"))
    assert main(["eval", "--scene", str(workdir / "scene0.ply"), "--predictions", str(preds),
                 "--classes", str(10 ** 11)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--classes {10 ** 11} needs a" in err and f"of {10 ** 22} counts" in err
    assert "Traceback" not in err


def test_train_checks_scene_labels_against_classes(workdir, tmp_path, capsys):
    # Unlabeled vertices pass; a label at or above --classes stops the run
    # before any hierarchy is built, naming the scene.
    scene = load_mesh(workdir / "scene0.ply")
    scene.labels[::7] = UNLABELED
    path = tmp_path / "scene.ply"
    save_mesh(scene, path)
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({"scenes": [{"path": str(path), "split": "train"}]}))
    argv = ["train", "--manifest", str(dataset), "--output", str(tmp_path / "run"), *HIER_ARGS,
            "--widths", "8,4", "--epochs", "1", "--crop-extent", "3.6", "--crop-stride", "1.8",
            "--no-augment", "--quiet"]
    assert main([*argv, "--classes", "3"]) == EXIT_OK
    capsys.readouterr()
    assert main([*argv, "--classes", "2"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{path}: vertex" in err and "label 2 outside [0, 2)" in err


def test_empty_prediction_file_exit_2(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["vote", str(empty), "--output", str(tmp_path / "v.txt")]) == EXIT_VALIDATION
        assert main(["eval", "--scene", str(workdir / "scene0.ply"),
                     "--predictions", str(empty)]) == EXIT_VALIDATION
    assert not (tmp_path / "v.txt").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(f"{empty}: no predictions" in e for e in err)


# Every option with a domain parser, per subcommand; --threads goes before it.
HIER_OPTIONS = ("--cells", "--qem-ratio", "--qem-levels", "--fps-counts", "--radius", "--knn")
NUMERIC_OPTIONS = {
    "subdivide": ("--min-edge-len", "--passes"),
    "build-hierarchy": (*HIER_OPTIONS, "--seed"),
    "graph-stats": (),
    "train": (*HIER_OPTIONS, "--classes", "--levels", "--widths", "--epochs", "--batch-size",
              "--res-train", "--lr", "--crop-extent", "--crop-stride", "--seed"),
    "infer": (*HIER_OPTIONS, "--res-test", "--crop-extent", "--crop-stride", "--seed"),
    "vote": ("--classes",),
    "eval": ("--classes",),
}
# A valid item to put beside the drawn one in a comma-list option.
LIST_ITEMS = {"--cells": "0.1", "--radius": "0.1", "--fps-counts": "10", "--widths": "4"}
BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", str(2**64), "ten", "")
# The options whose domain holds a draw, which is then skipped for them.
IN_DOMAIN = {
    "0": {"--passes", "--qem-levels", "--widths", "--seed"},
    str(2**64): {"--min-edge-len", "--lr", "--crop-extent", "--crop-stride", "--cells",
                 "--radius"},
}
OPTION_CASES = [(command, option) for command, options in NUMERIC_OPTIONS.items()
                for option in ("--threads", *options)]


def test_numeric_options_are_the_listed_ones():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    walked = {(command, a.option_strings[0])
              for command, sub in commands.choices.items()
              for a in (*parser._actions, *sub._actions) if a.type is not None}
    assert walked == set(OPTION_CASES)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(OPTION_CASES), bad=st.sampled_from(BAD_VALUES),
       bad_first=st.booleans(), joined=st.booleans())
@example(case=("train", "--seed"), bad="-1", bad_first=True, joined=False)
@example(case=("infer", "--seed"), bad="-1", bad_first=True, joined=False)
@example(case=("build-hierarchy", "--seed"), bad="-1", bad_first=True, joined=False)
@example(case=("subdivide", "--passes"), bad="-1", bad_first=True, joined=False)
@example(case=("vote", "--threads"), bad="0", bad_first=True, joined=False)
@example(case=("vote", "--threads"), bad="-2", bad_first=True, joined=False)
@example(case=("build-hierarchy", "--qem-levels"), bad="-1", bad_first=True, joined=False)
@example(case=("train", "--levels"), bad=str(2**64), bad_first=True, joined=False)
@example(case=("train", "--widths"), bad=str(2**64), bad_first=True, joined=False)
def test_option_outside_its_domain_exits_naming_it(tmp_path, capsys, case, bad, bad_first,
                                                   joined):
    command, option = case
    if option in IN_DOMAIN.get(bad, ()):
        return
    value = bad
    if option in LIST_ITEMS:
        items = [bad, LIST_ITEMS[option]]
        value = ",".join(items if bad_first else items[::-1])
    given_option = [f"{option}={value}"] if joined else [option, value]
    # No file exists: every value is checked before any is opened.
    missing = str(tmp_path / "missing")
    argv = {
        "subdivide": ["subdivide", missing, missing],
        "build-hierarchy": ["build-hierarchy", missing, missing],
        "graph-stats": ["graph-stats", missing],
        "train": ["train", "--manifest", missing, "--output", missing],
        "infer": ["infer", "--checkpoint", missing, "--scene", missing, "--output", missing],
        "vote": ["vote", missing, "--output", missing],
        "eval": ["eval", "--scene", missing, "--predictions", missing],
    }[command]
    if option == "--threads":
        argv = [*given_option, *argv]
    else:
        argv = [*argv, *given_option]
    assert main(argv) in (EXIT_VALIDATION, EXIT_CONFIG)
    err = capsys.readouterr().err
    assert "Traceback" not in err and option in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("labels, message", [
    (None, "scene.ply: scene carries no labels"),
    (UNLABELED, "every crop was rejected; nothing to train on"),
], ids=["no-labels", "all-unlabeled"])
def test_train_on_unlabeled_scene_exit_2(tmp_path, capsys, labels, message):
    scene = make_toy_scene(0)
    if labels is None:
        scene.labels = None
    else:
        scene.labels[:] = labels
    save_mesh(scene, tmp_path / "scene.ply", binary=True)
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({"scenes": [{"path": str(tmp_path / "scene.ply")}]}))
    assert main(["train", "--manifest", str(dataset), "--output", str(tmp_path / "run"),
                 *HIER_ARGS, "--classes", "3", "--epochs", "1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_checkpoint_of_a_network_too_large_to_allocate_exit_2(workdir, trained, tmp_path,
                                                               capsys):
    # A stored 10^12 classes ask for a head weight no allocator can reserve.
    ckpt = tmp_path / "huge.bin"
    ckpt.write_bytes(_edit_header((trained / "checkpoint.bin").read_bytes(),
                                  lambda header: header["config"].update(num_classes=10 ** 12)))
    assert main(["infer", "--checkpoint", str(ckpt), "--scene", str(workdir / "scene1.ply"),
                 "--output", str(tmp_path / "p.txt"), *HIER_ARGS]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "stored network config rejected: Unable to allocate" in err
    assert "Traceback" not in err
    assert not (tmp_path / "p.txt").exists()
