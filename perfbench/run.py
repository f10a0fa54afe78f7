"""Benchmark of whole bifurcation diagrams, run from the repository root.

    python3 perfbench/run.py --workload deep --seed 0 --seconds 25 --trace 0

It imports bvpcont from ``src/`` of the current directory, calls only its
public functions, and loops passes over the workload's ops (closed loop, one
op after another, one process, no threads) until ``--seconds`` have passed
and at least two passes ran.  Each op is checked against the references in
``workloads.py`` and its artifacts are hashed; a hash that differs between
passes fails the op.

``--trace 0`` prints the end-to-end metrics, medians over the passes.
``--trace 1`` alternates an untraced and a traced pass and prints the
per-layer metrics, derived from the spans of the traced passes; the spans
are written to ``perfbench/_out/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the environment, every op and the spread of every
metric.
"""

import os

# Pin BLAS pools before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    if not (SRC / "bvpcont" / "__init__.py").is_file():
        sys.exit(f"error: no bvpcont sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bvpcont
    if Path(bvpcont.__file__).resolve().parent != SRC / "bvpcont":
        sys.exit(f"error: imported bvpcont from {bvpcont.__file__}")
    return bvpcont


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads_env": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def measure_setup(ops):
    """Wall seconds of fresh interpreters that each import bvpcont and build
    the weight and mesh of every op of the workload."""
    configs = [op.config for op in ops]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bvpcont, json\n"
            "for c in json.loads(sys.argv[2]):\n"
            "    bvpcont.RunConfig.from_dict(c).build()\n")
    cmd = [sys.executable, "-c", code, str(SRC), json.dumps(configs)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=os.environ.copy(), cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def release_memory():
    """Free garbage and hand freed heap pages back to the OS (glibc), so the
    peak resident memory of an op does not depend on the op before it."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:  # not glibc
        pass


class Runner:
    def __init__(self, bv, workload, ops):
        self.bv, self.workload, self.ops = bv, workload, ops
        self.ctx = {}
        self.digests = {}
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.failed_keys = set()
        for op in ops:
            cfg = bv.RunConfig.from_dict(op.config)
            w, m = cfg.build()
            self.ctx[op.key] = {
                "cfg": cfg, "weight": w, "n": m.n_interior, "nodes": m.nodes,
                "coef": wl.node_coefficient(m.nodes, w.intervals, w.eps),
                "lambda1": wl.first_eigenvalue(m.nodes),
                "lambda_min": cfg.lambda_min, "newton_tol": cfg.newton_tol}

    def run_op(self, op):
        """Time one op, then check it; returns (wall, cpu, Checked or None)."""
        bv, ctx = self.bv, self.ctx[op.key]
        outdir = OUT / self.workload / op.key
        if op.kind == "diagram":
            shutil.rmtree(outdir, ignore_errors=True)
        release_memory()
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if op.kind == "diagram":
                bundle = bv.run_diagram(ctx["cfg"])
                bv.write_bundle(bundle, outdir)
            elif op.kind == "census":
                census = bv.deep_census(ctx["cfg"])
            else:
                count, roots = bv.shoot_count(ctx["weight"], op.lam)
        except Exception as exc:  # an op that raises fails; the run goes on
            t1, c1 = time.perf_counter(), time.process_time()
            self.fail(op, [f"raised {type(exc).__name__}: {exc}"])
            return t1 - t0, c1 - c0, None
        t1, c1 = time.perf_counter(), time.process_time()
        try:
            if op.kind == "diagram":
                res = wl.check_diagram(op, bundle, outdir, ctx)
            elif op.kind == "census":
                res = wl.check_census(op, census, ctx)
            else:
                res = wl.check_count(op, count, roots)
        except Exception as exc:  # output the checks cannot read
            self.fail(op, [f"check raised {type(exc).__name__}: {exc}"])
            return t1 - t0, c1 - c0, None
        errors = list(res.errors)
        first = self.digests.setdefault(op.key, res.digest)
        if first != res.digest:
            errors.append("output differs from the previous pass")
        if errors:
            self.fail(op, errors)
        return t1 - t0, c1 - c0, res

    def fail(self, op, errors):
        self.failed += 1
        self.failed_keys.add(op.key)
        for e in errors:
            msg = f"{self.workload}/{op.key}: {e}"
            self.errors.append(msg)
            print(msg, file=sys.stderr)

    def run_pass(self, tracer=None):
        rec = {"wall": 0.0, "cpu": 0.0, "ops": {}}
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = i
            wall, cpu, res = self.run_op(op)
            rec["wall"] += wall
            rec["cpu"] += cpu
            rec["ops"][op.key] = {"kind": op.kind, "s": wall, "res": res}
        return rec


def spread(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def op_medians(passes, kind):
    vals = [o["s"] for p in passes for o in p["ops"].values()
            if o["kind"] == kind]
    return statistics.median(vals) if vals else 0.0


def pass_counts(rec):
    """Defect counts and artifact bytes of one pass; they repeat on every
    pass, apart from the digits of provenance.wall_time_s in the bytes."""
    tot = {"failures": 0, "census_missing": 0, "oracle_miscount": 0,
           "bytes": 0}
    for o in rec["ops"].values():
        res = o["res"]
        if res is not None:
            tot["failures"] += res.failures
            tot["census_missing"] += res.missing
            tot["oracle_miscount"] += res.miscount
            tot["bytes"] += res.bytes
    return tot


def main(argv=None):
    args = parse_args(argv)
    bv = import_library()

    ops = wl.generate(args.workload, args.seed)
    setup_times = measure_setup(ops)
    runner = Runner(bv, args.workload, ops)

    plain, traced = [], []
    tracer = Tracer(bv) if args.trace else None
    t_start = time.perf_counter()
    while (len(plain) + len(traced) < 2
           or time.perf_counter() - t_start < args.seconds):
        plain.append(runner.run_pass())
        if tracer is not None:
            tracer.patch()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.restore()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": (spread(setup_times), "s"),
        "wall_s": (spread([p["wall"] for p in plain]), "s"),
        "cpu_s": (spread([p["cpu"] for p in plain]), "s"),
        "rss_mb": ({"median": rss_mb, "q1": rss_mb, "q3": rss_mb, "n": 1},
                   "MB"),
    }
    counts = pass_counts(plain[0])
    written = counts.pop("bytes")
    per_op = {
        "diagram_s": op_medians(plain, "diagram"),
        "census_s": op_medians(plain, "census"),
        "count_s": op_medians(plain, "count"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "ops": [{"key": op.key, "kind": op.kind,
                 "n": runner.ctx[op.key]["n"] if op.kind != "count" else None,
                 "config": op.config, "lambda": op.lam} for op in ops],
        "pass_wall_s": [p["wall"] for p in plain],
        "pass_cpu_s": [p["cpu"] for p in plain],
        "traced_wall_s": [p["wall"] for p in traced],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_op_s": per_op, "correctness": counts,
        "write_bundle_bytes": written,
        "errors": runner.errors,
    }

    if tracer is None:
        metrics = {k: {"value": v["median"], "unit": u}
                   for k, (v, u) in e2e.items()}
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}.npz")
        layer = tracer.layer_metrics(len(traced))
        layer["diagram.write_bundle.bytes"] = written
        layer["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in plain))
        layer.update(per_op)
        layer.update(counts)
        layer["ops"] = len(ops)
        layer["ops_failed"] = len(runner.failed_keys)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        if set(units) != set(layer):
            sys.exit("error: per-layer metrics differ from BENCHMARK.json: "
                     f"{sorted(set(units) ^ set(layer))}")
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
        report["per_layer"] = layer

    print(json.dumps(report))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
