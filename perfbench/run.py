"""meshseg benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 15 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's `src/`; without it the run exits with code 2 and prints no
result. The inputs are made from `--seed`. The run sets the program up
several times (median reported as `setup_s`), then repeats the workload's
operation until `--seconds` have passed, checking every output. With
`--trace 1` it wraps the layer boundaries of meshseg in spans, writes
them to `.perfbench/traces/`, reads them back and reports per-layer
metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
the same figures with sample counts and tails for people. The exit code
is 0 when every check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

ROOT_SPAN, SETUP_SPAN = "bench.op", "bench.setup"
OP_METRIC = {"toy-train": "train_epoch", "scaled-train": "train_step",
             "scaled-infer": "infer", "scene-prep": "prep_scene"}
# Set-up keeps repeating until it has run this often and this long.
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 3, 1.0, 20


def import_program():
    """Put the checkout's `src/` first on the path and load meshseg from it."""
    if not (SRC / "meshseg" / "__init__.py").is_file():
        print(f"perfbench: no meshseg package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import meshseg
    import meshseg.cli  # noqa: F401  (loads every module before any patching)
    if Path(meshseg.__file__).resolve().parent != (SRC / "meshseg").resolve():
        print(f"perfbench: meshseg loaded from {meshseg.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


class Run:
    """Timings, checks and failure counts of one benchmark run."""

    def __init__(self, seconds: float, tracer, patches):
        self.seconds = seconds
        self.tracer = tracer
        self.patches = patches
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self._ops_start = None
        self._ops_begun = 0
        self._op = None
        self._warmup = False

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def timed(self, metric, fn, *args, **kwargs):
        """Call fn once and record its wall time (not inside a warm-up
        operation); a raise counts as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        if not self._warmup:
            self.samples[metric].append(time.perf_counter() - t0)
        return result

    def setup(self, make):
        """Call make() several times, timing each; returns the last state."""
        state, times = None, self.samples["setup"]
        while (len(times) < SETUP_MIN_REPS
               or (sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS)):
            state = None  # release the previous set-up before the next
            gc.collect()
            self._enter(tracing.SETUP, SETUP_SPAN)
            try:
                state = self.timed("setup", make)
            finally:
                self._leave()
        return state

    def begin_op(self, warmup: bool = False):
        """Open one operation. A warm-up operation is checked like the
        others but not timed, and the measured window starts after it."""
        self.attempted += 1
        self._warmup = warmup
        if warmup:
            op_id = tracing.WARMUP
        else:
            if self._ops_start is None:
                self._ops_start = time.perf_counter()
            self._ops_begun += 1
            op_id = self._ops_begun
        self._enter(op_id, ROOT_SPAN)
        self._op = time.perf_counter()

    def end_op(self, metric: str, ok: bool = True):
        elapsed = time.perf_counter() - self._op
        self._leave()
        self._op = None
        if not ok:
            self.failed += 1
        elif not self._warmup:
            self.samples[metric].append(elapsed)

    def time_up(self, done: int, min_ops: int) -> bool:
        return (done >= min_ops and self._ops_start is not None
                and time.perf_counter() - self._ops_start >= self.seconds)

    def repeat(self, metric, op, after=None, min_ops=2):
        """Run op() once to warm up, then time it until --seconds have
        passed and min_ops have run; after(result) checks each result
        outside the timed interval."""
        done, warmup = 0, True
        while warmup or not self.time_up(done, min_ops):
            self.begin_op(warmup)
            try:
                result = op()
            except Exception:
                self.end_op(metric, ok=False)
                raise
            self.end_op(metric)
            done += not warmup
            warmup = False
            if after is not None:
                after(result)

    def abort_open_op(self):
        if self._op is not None:
            self.end_op("aborted", ok=False)

    def _enter(self, op_id, root):
        if self.tracer is not None:
            self.tracer.op = op_id
            self._root = self.tracer.begin(root)

    def _leave(self):
        if self.tracer is not None:
            self.tracer.end(self._root)
            self.tracer.op = None


# --------------------------------------------------------------- reporting


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None below twenty samples."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, sorted(values)[int(n * pct / 100) - 1]


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return {"nproc": os.cpu_count(), "memory_gib": round(mem, 1),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(run: Run, workload: str):
    op = run.samples[OP_METRIC[workload]]
    return {
        "op_s": statistics.median(op) if op else None,
        "setup_s": statistics.median(run.samples["setup"]) if run.samples["setup"] else None,
        "peak_rss_mb": peak_rss_mb(),
    }


LAYERS = ("mesh", "hierarchy", "graph", "nn", "pipeline")
# Spans that enclose other layers' spans; their inclusive time is reported too.
COMPOSITE_SPANS = ("hierarchy.build", "nn.forward", "nn.backward", "pipeline.prepare_sample",
                   "pipeline.train_step", "pipeline.infer_scene", "pipeline.predict")


def per_layer_metrics(spans, tracer, span_names, run: Run, workload: str, hierarchy_sizes):
    per_op, inclusive, per_setup, span_count, coverage = tracing.layer_seconds(spans, ROOT_SPAN)
    op = run.samples[OP_METRIC[workload]]
    n_ops = max(len(op), 1)
    op_seconds = sum(op)
    n_setups = max(len(run.samples["setup"]), 1)
    c = tracer.counters
    forwards = max(c["nn.forward_calls"], 1)
    out = {name + "_s": per_op.get(name, 0.0) / n_ops for name in span_names}
    for name in COMPOSITE_SPANS:
        out[name + ".total_s"] = inclusive.get(name, 0.0) / n_ops
    for layer in LAYERS:
        busy = sum(t for name, t in per_op.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}_share"] = busy / op_seconds if op_seconds else 0.0
    out["nn.checkpoint.save_s"] = per_setup.get("nn.checkpoint.save", 0.0) / n_setups
    for name in ("hierarchy.qem.contractions", "hierarchy.qem.short_of_target",
                 "graph.edges_offered", "graph.edges_kept", "pipeline.crops"):
        out[name] = c[name] / n_ops
    out["graph.res_keep_ratio"] = (c["graph.edges_kept"] / c["graph.edges_offered"]
                                   if c["graph.edges_offered"] else 0.0)
    out["nn.edges_per_step"] = c["nn.edges"] / forwards
    out["nn.mlp_flops_per_step"] = c["nn.mlp_flops"] / forwards
    out["nn.edge_cache_bytes"] = c["nn.edge_cache_bytes"] / forwards
    for lvl in range(4):
        counts = [s[lvl] for s in hierarchy_sizes if len(s) > lvl]
        out[f"hierarchy.vertices.l{lvl}"] = float(statistics.mean(counts)) if counts else 0.0
    out["trace.op_s"] = statistics.median(op) if op else None
    out["trace.coverage"] = coverage
    out["trace.spans_per_op"] = span_count / n_ops
    out["trace.overhead_share"] = (span_count * tracing.span_cost() / op_seconds
                                   if op_seconds else 0.0)
    return out


def report(run: Run, workload, args, info, metrics, spec):
    """Human-readable lines, then the JSON result as the last line."""
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  size {args.size}")
    print("machine " + json.dumps(machine()))
    print("sizes " + json.dumps(info))
    for key, values in sorted(run.samples.items()):
        if not values:
            continue
        line = f"  {key + '_s':<18} median {statistics.median(values):.4f} s  n={len(values)}"
        t = tail(values)
        if t is not None:
            line += f"  p{t[0]} {t[1]:.4f} s"
        if key == OP_METRIC[workload]:
            line += "  samples " + " ".join(f"{v:.3f}" for v in values)
        print(line)
    error_rate = run.failed / max(run.attempted, 1)
    print(f"  {'error_rate':<18} {error_rate:.4f} ratio  "
          f"({run.failed} failed of {run.attempted} timed calls and checks)")
    units = {m["name"]: m["unit"] for m in spec}
    for name, unit in units.items():
        print(f"  {name:<40} {metrics.get(name)} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_METRIC))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args(argv)

    import_program()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: missing {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]

    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    patches = tracing.Patches(callers=[workloads.__name__])
    tracer = tracing.Tracer(run_id) if args.trace else None
    run = Run(args.seconds, tracer, patches)
    hierarchy_sizes, span_names = [], []
    info, metrics = {}, {}
    try:
        workloads.gradient_check(run, args.seed)
        if tracer is not None:
            span_names = tracing.instrument(patches, tracer, hierarchy_sizes)
        info = workloads.WORKLOADS[args.workload](
            run, args.seed, workloads.SIZES[args.size], workdir)
    except Exception:
        traceback.print_exc()
        run.abort_open_op()
        run.failed += 1
        run.attempted += 1
    finally:
        patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end_metrics(run, args.workload)
    else:
        trace_path = WORK / "traces" / f"{run_id}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        try:
            spans = tracing.read_trace(trace_path)
        except tracing.TraceFormatError as e:
            run.check(f"trace reads back: {e}", False)
        else:
            run.check("trace reads back", True)
            metrics = per_layer_metrics(spans, tracer, span_names, run, args.workload,
                                        hierarchy_sizes)
            unknown = [m["name"] for m in spec if m["name"] not in metrics]
            if unknown:
                raise KeyError(f"BENCHMARK.json names metrics the run does not make: {unknown}")
    report(run, args.workload, args, info, metrics, spec)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
