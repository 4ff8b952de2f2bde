"""cmvmix benchmark: time the public API on four workloads from outside.

Run from the repository root:

    python3 bench/run.py --workload fit-ref --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's operation is repeated for ``--seconds``
seconds and the end-to-end metrics are reported (medians over the
operations; times in reference seconds, see calibrate.py).  With
``--trace 1`` the operation runs once untraced and once with spans around
every layer, and the per-layer metrics are reported, plus the same
operation in a child process with BLAS threads as found.  Measured
operations run with one BLAS thread (``OPENBLAS_NUM_THREADS=1``, set
before numpy loads).  The last line of standard output is one JSON object:
correct, attempted, failed and the metrics declared in BENCHMARK.json.
``--workload all`` runs every workload in turn and prints every metric of
each, error_rate included.

See bench/README.md for why each workload exists and which layer metric
should move which end-to-end metric.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
import envinfo
from tracing import Tracer

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# BLAS threads of every measured process: OpenBLAS's default on a small
# shared host adds a worker that spins on the second core, doubling CPU time
# and tying each operation's time to the load on both cores.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import cmvmix from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cmvmix" / "__init__.py").is_file():
        die(f"no src/cmvmix under {ROOT}; run from the repository root")
    sys.path.insert(0, str(src))
    import cmvmix

    if Path(cmvmix.__file__).resolve().parent != (src / "cmvmix").resolve():
        die(f"imported cmvmix from {cmvmix.__file__}, not from {src}")
    return cmvmix


def declared_metrics():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cpu_time():
    """User plus system time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_child(mode, args, env=None):
    """Run this script as a child in the given mode; (wall s, stdout)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout


def timed_op(workloads, name, inp, probe=True):
    """Run one operation; (calibrate.Probed timing, answer or None, problems)."""
    with calibrate.Probed(cpu_time, probe) as timing:
        try:
            ans = workloads.run_op(name, inp)
            problems = list(ans.problems)
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc()
            ans, problems = None, [f"{type(exc).__name__}: {exc}"]
    return timing, ans, problems


def report(result, answer, workload):
    """Print the readable lines, then the result object as the last line."""
    if answer is not None:
        print("fingerprint " + json.dumps({"workload": workload, **answer.fingerprint()}))
    rate = result["failed"] / result["attempted"]
    for name, m in result["metrics"].items():
        print(f"metric {workload} {name} {m['value']} {m['unit']}")
    print(f"metric {workload} error_rate {rate} 1")
    print(json.dumps(result))


def metrics_obj(values, units):
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"computed and declared metrics differ: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_untraced(args, workloads, work_dir, units):
    """Repeat the operation for --seconds; times in reference seconds."""
    setup, setup_clock = [], []
    for _ in range(SETUP_REPEATS):
        wall, out = run_child("setup", args)
        child = json.loads(out.strip().splitlines()[-1])
        setup_clock.append(wall - child["probe_s"])
        setup.append(setup_clock[-1] * child["speed"])
    inp = workloads.make_inputs(args.workload, args.seed, work_dir)

    timings, first, attempted, failed = [], None, 0, 0
    deadline = time.perf_counter() + args.seconds
    while True:
        timing, ans, problems = timed_op(workloads, args.workload, inp)
        attempted += 1
        timings.append(timing)
        if ans is not None and first is None:
            first = ans
        elif ans is not None and ans.fingerprint() != first.fingerprint():
            problems.append("answers differ from the run's first operation")
        if problems:
            failed += 1
            print(f"failed operation {attempted}: {problems}", file=sys.stderr)
        # stop when less than half an operation's time is left, so a run
        # measures --seconds on average
        if deadline - time.perf_counter() < 0.5 * statistics.median(t.wall for t in timings):
            break

    values = {
        "wall_s": statistics.median(t.ref_wall for t in timings),
        "cpu_s": statistics.median(t.ref_cpu for t in timings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
        "best_loglik": first.best_loglik if first else 0.0,
        "ari_good": first.ari_good if first else 0.0,
        "detect_f1": first.detect_f1 if first else 0.0,
    }

    def show(xs):
        return [round(x, 3) for x in xs]

    print(f"operations {attempted}: reference s {show(t.ref_wall for t in timings)}, "
          f"clock s {show(t.wall for t in timings)}, speed {show(t.speed for t in timings)}")
    print(f"set-up: reference s {show(setup)}, clock s {show(setup_clock)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics_obj(values, units)}
    report(result, first, args.workload)


def layer_values(tracer, ans):
    calls, self_t = tracer.calls, tracer.self_time
    iters = calls["ecm.e_step"]

    def per(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    ledger = tracer.ledger()
    cells = list(ledger.values()) if ledger is not None else None

    def starts(key):
        return sum(c[key] for c in cells) if cells is not None else None

    io_bytes = ans.io_bytes if ans is not None else 0
    return ledger, {
        "linalg.distance.calls": calls["linalg.distance"],
        "linalg.distance.self_s": self_t["linalg.distance"],
        "linalg.distance.us_per_call": per(self_t["linalg.distance"], calls["linalg.distance"], 1e6),
        "linalg.distance.gflop_computed": tracer.distance_flops / 1e9,
        "linalg.scatter.calls": calls["linalg.scatter"],
        "linalg.scatter.self_s": self_t["linalg.scatter"],
        "linalg.cholesky.calls": calls["linalg.cholesky"],
        "linalg.cholesky.self_s": self_t["linalg.cholesky"],
        "linalg.distance_per_iter": per(calls["linalg.distance"], iters),
        "linalg.cholesky_per_iter": per(calls["linalg.cholesky"], iters),
        "distributions.logdens.calls": calls["distributions.logdens"],
        "distributions.logdens.self_s": self_t["distributions.logdens"],
        "ecm.iterations": iters,
        "ecm.ms_per_iter": per(tracer.total["ecm.chain"], iters, 1e3),
        "ecm.e_step.self_s": self_t["ecm.e_step"],
        "ecm.observed_loglik.self_s": self_t["ecm.observed_loglik"],
        "ecm.cm1.self_s": self_t["ecm.cm1"],
        "ecm.cm23.self_s": self_t["ecm.cm23"],
        "ecm.cm4.self_s": self_t["ecm.cm4"],
        "ecm.chain_overhead.self_s": self_t["ecm.chain"] + self_t["ecm.fit"],
        "ecm.starts.converged": starts("converged"),
        "ecm.starts.max_iter": starts("max_iter"),
        "ecm.starts.degenerate": starts("degenerate"),
        "ecm.starts.not_pd": starts("not_pd"),
        "ecm.useful_start_ratio": (per(starts("converged"), len(tracer.chains))
                                   if cells is not None else None),
        "ecm.distinct_optima": (sum(len(c["final_logliks"]) for c in cells)
                                if cells is not None else None),
        "selection.cells": tracer.cell_fits,
        "selection.cells_failed": tracer.cell_fails,
        "selection.self_s": self_t["selection.sweep"],
        "metrics.self_s": self_t["metrics"],
        "dataio.write.self_s": self_t["dataio.write"],
        "dataio.read.self_s": self_t["dataio.read"],
        "dataio.bytes": io_bytes,
        "dataio.read_mb_per_s": per(io_bytes / 1e6, self_t["dataio.read"]),
        "dataio.write_mb_per_s": per(io_bytes / 1e6, self_t["dataio.write"]),
    }


def run_traced(args, cmvmix, workloads, work_dir, units, found_env):
    inp = workloads.make_inputs(args.workload, args.seed, work_dir)
    attempted, failed = 0, 0

    def count(problems):
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            print(f"failed operation {attempted}: {problems}", file=sys.stderr)

    plain, ans_plain, problems = timed_op(workloads, args.workload, inp, probe=False)
    count(problems)
    tracer = Tracer()
    tracer.install(cmvmix)
    try:
        traced, ans, problems = timed_op(workloads, args.workload, inp, probe=False)
    finally:
        tracer.uninstall()
    if ans is not None and ans_plain is not None and ans.fingerprint() != ans_plain.fingerprint():
        problems.append("traced answers differ from untraced answers")
    count(problems)

    try:
        _, out = run_child("op-found", args, found_env)
        default = json.loads(out.strip().splitlines()[-1])
        count(default["problems"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        default = {"wall_s": 0.0, "cpu_s": 0.0, "blas_threads": 0}
        count([f"default-threads child: {exc}"])

    ledger, values = layer_values(tracer, ans)
    values["blas.threads"] = default["blas_threads"]
    values["blas.default_threads.wall_s"] = default["wall_s"]
    values["blas.default_threads.cpu_s"] = default["cpu_s"]
    values["trace.overhead_s"] = traced.wall - plain.wall
    print("ledger " + json.dumps(ledger))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics_obj(values, units)}
    report(result, ans, args.workload)


def run_all(args, found_env):
    """Every workload in turn, each in its own process; one table."""
    import workloads

    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, env=found_env, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        for line in lines[:-1]:
            if line.startswith(("fingerprint ", "ledger ")) or (line.startswith("env ") and not rows):
                print(line)
        result = json.loads(lines[-1])
        ok &= result["correct"]
        rows.append((name, result))
    print(f"{'workload':<13} {'metric':<32} {'value':>16} unit")
    for name, result in rows:
        metrics = dict(result["metrics"])
        metrics["error_rate"] = {"value": result["failed"] / result["attempted"], "unit": "1"}
        for metric, m in metrics.items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:<13} {metric:<32} {value:>16} {m['unit']}")
    return 0 if ok and len(rows) == len(workloads.WORKLOADS) else 1


def setup_child(args):
    """Set-up as a user pays it: import the package and build the inputs,
    probed; print the speed and probe time for the parent to scale by."""
    import numpy  # before the probes start: they call numpy, which must be whole

    with calibrate.Probed(cpu_time) as timing:
        load_package()
        import workloads

        with tempfile.TemporaryDirectory(prefix=".io-", dir=BENCH_DIR) as tmp:
            workloads.make_inputs(args.workload, args.seed, Path(tmp))
    print(json.dumps({"speed": timing.speed, "probe_s": timing.probe_s}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "op-found"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    found_env = dict(os.environ)
    thread_env = {k: found_env.get(k) for k in envinfo.THREAD_VARS}
    if args.child != "op-found":
        os.environ.update(PINNED_ENV)
    if args.child == "setup":
        return setup_child(args)
    cmvmix = load_package()
    if args.workload == "all":
        return run_all(args, found_env)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    e2e_units, layer_units = (None, None) if args.child else declared_metrics()
    with tempfile.TemporaryDirectory(prefix=".io-", dir=BENCH_DIR) as tmp:
        work_dir = Path(tmp)
        if args.child == "op-found":
            inp = workloads.make_inputs(args.workload, args.seed, work_dir)
            timing, _, problems = timed_op(workloads, args.workload, inp)
            print(json.dumps({"wall_s": timing.ref_wall, "cpu_s": timing.ref_cpu,
                              "problems": problems,
                              "blas_threads": envinfo.blas_threads()}))
        else:
            print("env " + json.dumps(envinfo.environment(ROOT, thread_env, PINNED_ENV)))
            if args.trace:
                run_traced(args, cmvmix, workloads, work_dir, layer_units, found_env)
            else:
                run_untraced(args, workloads, work_dir, e2e_units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
