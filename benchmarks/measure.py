"""One workload per process: set-up, correctness gates, a closed timed loop,
a determinism replay, and a result line; or every workload in turn, each in
its own process, with a summary table."""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
import gates
import spans

SETUP_REPEATS = 5
MIN_STEPS = 10
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
END_TO_END = [("img_per_s", "img/s"), ("step_ms_p50", "ms"), ("step_ms_p90", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {"threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
            "numpy": np.__version__, "blas": blas_name, "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version()}


def setup(workload, data_root, seed, tracer=None):
    """Loader decode, split, init and the warm-up step.
    Returns (run, warm-up loss, seconds); a tracer records the first three."""
    started = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        run = workloads.Run(workload, data_root, seed)
    finally:
        if tracer is not None:
            tracer.active = False
    loss = run.step()
    return run, loss, time.perf_counter() - started


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload, seed: int, seconds: float, trace: bool, root: Path, out: Path) -> dict:
    data_root = out / f"data-{workload.name}-{seed}-{os.getpid()}"
    tracer = spans.Tracer() if trace else None
    try:
        workloads.write_dataset(workload, data_root, seed)
        if tracer is not None:
            tracer.install()
        setup_s = []
        for _ in range(1 if trace else SETUP_REPEATS):
            run, loss, elapsed = setup(workload, data_root, seed, tracer)
            setup_s.append(elapsed)
        losses = [loss]

        images, labels = run.first_batch()
        checks = gates.oracle_gates(run.spec, run.params, images, gates.load_oracles(root))
        checks.append(gates.fd_gate(run.spec, run.params, images, labels, seed))

        # Closed loop, one caller. A traced run alternates traced steps with
        # untraced reference steps, so the two see the same machine load.
        step_s, traced_s = [], []
        user_s = sys_s = minor_faults = 0
        images_before, raised, digest = run.seen, 0, None
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(step_s) < MIN_STEPS:
            step_id = len(losses) + 1
            traced = tracer is not None and step_id % 2 == 0
            clock = tracer.now if traced else time.perf_counter
            if traced:
                tracer.step, tracer.active = step_id, True
            else:
                usage = resource.getrusage(resource.RUSAGE_SELF)
            started = clock()
            try:
                loss = run.step()
            except Exception:
                traceback.print_exc()
                raised += 1
                break
            finally:
                elapsed = clock() - started
                if tracer is not None:
                    tracer.active = False
            if traced:
                traced_s.append(elapsed)
            else:
                step_s.append(elapsed)
                now = resource.getrusage(resource.RUSAGE_SELF)
                user_s += now.ru_utime - usage.ru_utime
                sys_s += now.ru_stime - usage.ru_stime
                minor_faults += now.ru_minflt - usage.ru_minflt
            losses.append(loss)
            if step_id == workloads.DIGEST_STEPS:
                digest = run.digest(loss)
        timed_images = run.seen - images_before
        non_finite = sum(not math.isfinite(v) for v in losses)

        replay, replay_loss, _ = setup(workload, data_root, seed)
        for _ in range(workloads.DIGEST_STEPS - 1):
            replay_loss = replay.step()
        checks.append(("determinism.replay", replay.digest(replay_loss) == digest,
                       f"digest after {workloads.DIGEST_STEPS} steps {digest}"))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(data_root, ignore_errors=True)

    # Each step and each gate is one attempt.
    failed = raised + non_finite + sum(not ok for _, ok, _ in checks)
    attempted = len(losses) + raised + len(checks)
    all_s = step_s + traced_s
    metrics = {
        "img_per_s": (timed_images / sum(all_s), "img/s", f"{len(all_s)} steps"),
        "step_ms_p50": (1e3 * statistics.median(step_s), "ms", f"{len(step_s)} steps"),
        "step_ms_p90": (1e3 * p90(step_s), "ms", f"{len(step_s)} steps"),
        "setup_s": (statistics.median(setup_s), "s", f"{len(setup_s)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "1 process"),
        "failed_frac": (failed / attempted, "fraction", f"{attempted} attempted"),
    }
    result = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "attempted": attempted, "failed": failed,
              "gates": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
              "determinism": {"steps": workloads.DIGEST_STEPS, "digest": digest},
              "metrics": {k: {"value": v, "unit": u, "samples": s}
                          for k, (v, u, s) in metrics.items()}}
    if tracer is not None:
        overhead = statistics.median(traced_s) / statistics.median(step_s) - 1
        result["layers"] = tracer.layer_metrics({
            "trace.overhead_frac": overhead,
            "process.minor_faults": minor_faults / len(step_s),
            "process.sys_frac": sys_s / (user_s + sys_s)})
        result["self_time_table"] = tracer.self_time_table(1e3 * statistics.median(traced_s))
        tracer.write(out / f"{workload.name}-seed{seed}.spans.json")
    return result


def report(result: dict) -> dict:
    """Print the human-readable result; return the contract's last line."""
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"seconds {result['seconds']} trace {result['trace']}")
    print(f"# machine {json.dumps(result['machine'])}")
    for name, m in result["metrics"].items():
        print(f"# {name:<12} {m['value']:>12.4f} {m['unit']:<8} ({m['samples']})")
    for g in result["gates"]:
        print(f"# gate {g['name']:<20} {'ok' if g['passed'] else 'FAILED'}  {g['detail']}")
    if result["trace"]:
        print("# self time per traced step")
        for line in result["self_time_table"].splitlines():
            print(f"#   {line}")
        wanted = {name: result["layers"][name] for name, _ in spans.PER_LAYER}
        units = dict(spans.PER_LAYER)
    else:
        wanted = {name: result["metrics"][name]["value"] for name, _ in END_TO_END}
        units = dict(END_TO_END)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in wanted.items()}}


def run_all(args, root: Path, out: Path) -> int:
    """Each workload untraced, then traced, each in its own process."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            status = status or proc.returncode
            path = out / f"{name}-seed{args.seed}-trace{trace}.json"
            results[name, trace] = json.loads(path.read_text()) if path.exists() else None
    print(f"\n{'workload':<20} {'metric':<12} {'value':>12} {'unit':<9} samples")
    for name in workloads.WORKLOADS:
        untraced, traced = results[name, 0], results[name, 1]
        if untraced is None or traced is None:
            print(f"{name:<20} no result")
            status = status or 1
            continue
        for metric, m in untraced["metrics"].items():
            print(f"{name:<20} {metric:<12} {m['value']:>12.4f} {m['unit']:<9} {m['samples']}")
        same = untraced["determinism"] == traced["determinism"]
        print(f"{name:<20} determinism across two processes: "
              f"{'identical' if same else 'DIFFERENT'} ({untraced['determinism']['digest']})")
        status = status or (0 if same else 1)
    return status


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args, root, out)
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), root, out)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    line = report(result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1
