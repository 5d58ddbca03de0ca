"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and checks
that each metric of BENCHMARK.json is printed with its unit and that the
run passes its checks. Then feeds corrupted outputs to the output checks
(a shuffled prediction array, a truncated trace, a changed stored edge
set, a wrong interpolated label, a rising or non-finite loss) and
requires each to fail. Last, runs the benchmark in a directory holding
only BENCHMARK.json and the benchmark, where it must fail without
printing a result. Exits 0 when everything held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
problems = []


def expect(what, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


class Recorder:
    """Stands in for `run.Run` when calling a check directly."""

    def __init__(self):
        self.failed = []

    def check(self, what, ok):
        if not ok:
            self.failed.append(what)
        return ok


def fails(check, *args):
    recorder = Recorder()
    check(recorder, *args)
    return bool(recorder.failed)


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def workload_runs():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run_benchmark(bench.ROOT, "--workload", workload, "--seed", 1,
                                 "--seconds", 1, "--trace", trace, "--size", "tiny")
            lines = proc.stdout.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                expect(f"{workload} trace={trace}: prints a JSON result", False)
                print(proc.stderr[-2000:])
                continue
            tag = f"{workload} trace={trace}"
            expect(f"{tag}: exit 0 and correct",
                   proc.returncode == 0 and result["correct"] and result["failed"] == 0)
            expect(f"{tag}: result keys", sorted(result) ==
                   ["attempted", "correct", "failed", "metrics"] and result["attempted"] >= 1)
            names = [m["name"] for m in spec]
            expect(f"{tag}: exactly the named metrics", sorted(result["metrics"]) == sorted(names))
            for m in spec:
                got = result["metrics"].get(m["name"], {})
                value = got.get("value")
                ok = got.get("unit") == m["unit"] and isinstance(value, (int, float))
                if trace == 0:
                    ok = ok and value > 0
                printed = any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                              for line in lines[:-1])
                if not (ok and printed):
                    expect(f"{tag}: {m['name']} printed in {m['unit']}", False)
            if trace == 0:
                expect(f"{tag}: error_rate line", any("error_rate" in line for line in lines))


def corrupted_outputs():
    import tracing
    import workloads as w
    from meshseg.graph.neighborhoods import EdgeSet
    from meshseg.hierarchy.build import build_hierarchy
    from meshseg.nn.network import NetworkConfig, SegmentationNetwork
    from meshseg.pipeline.toydata import make_toy_scene

    rng = np.random.default_rng(0)
    votes = rng.integers(0, 4, size=(50, 3))
    votes[:, 0] += 1
    predictions = np.argmax(votes, axis=1)
    total = int(votes.sum())
    expect("predictions: intact pass",
           not fails(w.check_predictions, predictions, votes, 50, 3, total, predictions))
    shuffled = rng.permutation(predictions)
    expect("predictions: shuffled array fails",
           fails(w.check_predictions, shuffled, votes, 50, 3, total))
    expect("predictions: truncated array fails",
           fails(w.check_predictions, predictions[:-1], votes, 50, 3, total))
    expect("predictions: a changed repeat fails",
           fails(w.check_predictions, predictions, votes, 50, 3, total, (predictions + 1) % 3))

    tracer = tracing.Tracer("selftest")
    tracer.op = 1
    outer = tracer.begin("bench.op")
    tracer.end(tracer.begin("mesh.io.load"))
    tracer.end(outer)
    path = bench.WORK / "selftest-trace.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(path)
    text = path.read_text()
    expect("trace: intact reads back", len(tracing.read_trace(path)) == 2)
    for label, cut in (("last line dropped", text[:text.rindex("{")]),
                       ("cut mid-line", text[:len(text) // 2])):
        path.write_text(cut)
        try:
            tracing.read_trace(path)
            expect(f"trace: {label} fails", False)
        except tracing.TraceFormatError:
            expect(f"trace: {label} fails", True)
    path.unlink()

    scene = make_toy_scene(0, w.SIZES["tiny"]["prep_scene"])
    hier = build_hierarchy(scene, w.TOY_HIER)
    hier.build_euclidean_edges(w.TOY_NEIGH)
    expect("hierarchy: identical passes", not fails(w.check_hierarchy_round_trip, hier, hier))
    broken = build_hierarchy(scene, w.TOY_HIER)
    broken.build_euclidean_edges(w.TOY_NEIGH)
    neighbors = list(broken.geodesic_edges[1].neighbors)
    neighbors[0] = neighbors[0][:-1]
    broken.geodesic_edges[1] = EdgeSet(neighbors)
    expect("hierarchy: a dropped edge fails", fails(w.check_hierarchy_round_trip, hier, broken))

    mesh = scene.copy()
    expect("interpolation: own labels pass", not fails(w.check_interpolation, mesh, scene))
    mesh.labels = mesh.labels.copy()
    mesh.labels[0] = (mesh.labels[0] + 1) % 3
    expect("interpolation: a wrong label fails", fails(w.check_interpolation, mesh, scene))

    expect("losses: falling pass", not fails(w.check_toy_losses, [1.0, 0.9, 0.8]))
    expect("losses: rising fail", fails(w.check_toy_losses, [0.8, 0.9, 1.0]))
    expect("losses: non-finite fail", fails(w.check_toy_losses, [1.0, np.nan, 0.8]))
    net = SegmentationNetwork(NetworkConfig(num_levels=2, geo_widths=((4, 2),) * 2,
                                            euc_widths=((4, 2),) * 2))
    expect("training: finite passes", not fails(w.check_finite_training, 0.5, net))
    next(net.parameters())[1].value[0, 0] = np.inf
    expect("training: an infinite parameter fails", fails(w.check_finite_training, 0.5, net))


def bare_directory():
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(bench.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", 0,
                             "--seconds", 1, "--trace", 0)
        last = (proc.stdout.strip().split("\n") or [""])[-1]
        expect("bare directory: non-zero exit, no result",
               proc.returncode != 0 and '"correct"' not in last)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench.import_program()
    corrupted_outputs()
    bare_directory()
    workload_runs()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
