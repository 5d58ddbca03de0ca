import json
import sys
import warnings

import numpy as np
import pytest

from meshseg.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from meshseg.mesh.core import UNLABELED, Mesh
from meshseg.mesh.io import load_mesh, save_mesh
from meshseg.nn.checkpoint import load_checkpoint
from meshseg.pipeline.toydata import make_toy_scene

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


def test_build_hierarchy_and_graph_stats(workdir, capsys):
    hdir = workdir / "hier"
    code = main(["build-hierarchy", str(workdir / "scene0.ply"), str(hdir),
                 *HIER_ARGS])
    assert code == EXIT_OK
    capsys.readouterr()
    assert main(["graph-stats", str(hdir)]) == EXIT_OK
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

    voted = workdir / "pred" / "voted.txt"
    code = main(["vote", str(pred), str(pred), str(pred),
                 "--output", str(voted), "--classes", "3"])
    assert code == EXIT_OK
    assert np.array_equal(np.loadtxt(voted, dtype=np.int64), predictions)


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


def test_threads_without_threadpoolctl_warns(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    preds = tmp_path / "p.txt"
    preds.write_text("0\n1\n")
    vote = ["vote", str(preds), str(preds), "--output", str(tmp_path / "v.txt")]
    assert main(vote) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert main(["--threads", "1", *vote]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--threads 1 not applied" in err[0]


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
    ("train", None, FPS_ARGS + ["1000,300,100,30", "--crop-extent", "1.0"], EXIT_VALIDATION),
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
])
def test_bad_inputs_exit_without_traceback(workdir, tmp_path, capsys, command, manifest,
                                           options, code):
    scene = str(workdir / "scene0.ply")
    dataset = workdir / "dataset.json"
    if manifest is not None:
        dataset = tmp_path / "dataset.json"
        dataset.write_text(manifest)
    argv = {
        "train": ["train", "--manifest", str(dataset), "--output", str(tmp_path / "run")],
        "build-hierarchy": ["build-hierarchy", scene, str(tmp_path / "hier")],
        "subdivide": ["subdivide", scene, str(tmp_path / "fine.ply")],
        # Configs are checked before the (missing) checkpoint is opened.
        "infer": ["infer", "--checkpoint", str(tmp_path / "missing.bin"), "--scene", scene,
                  "--output", str(tmp_path / "p.txt")],
    }[command]
    assert main([*argv, *options]) == code
    assert "error" in capsys.readouterr().err


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
    assert "header says" in capsys.readouterr().err


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
