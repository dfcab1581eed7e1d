#!/usr/bin/env python3
"""Closed-loop benchmark of price_display_auctions.

    python3 perfbench/run.py --workload nash-enum --seed 0 --seconds 15 --trace 0

One client on one thread sends each op only after the previous one has
returned.  ``--trace 0`` runs untraced ops in PROCESSES fresh processes
until their wall time sums to ``--seconds`` and reports the end-to-end
metrics, scaled to a reference host speed (see ``kernel``); ``--trace 1`` runs the workload's first
``trace_ops`` inputs untraced once and traced twice, and reports the
per-layer metrics.  Every output is checked, off the clock.  The lines
before the last give each metric with its unit, the raw wall times and
the environment; the last line is the JSON result.  Metric names and
units come from BENCHMARK.json.  See README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "price_display_auctions")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden")
WORKLOADS = ("nash-enum", "clear-indirect", "clear-direct", "cli-mix")
# Golden digests exist for this seed only; other seeds get invariant checks.
DEFAULT_SEED = 0
# An untraced run is made in this many fresh processes, one after another.
# Each is timed from spawn to the end of its set-up (setup_s is their
# median), then runs an equal share of the ops.  Pooling the ops of several
# processes averages out what differs between processes, such as where the
# inputs land in memory.
PROCESSES = 5
PROCESS_TIMEOUT_S = 55
# Problems printed per run; the rest are counted.
SHOWN_PROBLEMS = 5

# The host is shared, and its speed drifts by up to 2x over seconds to
# minutes, for the program and for any pure-Python code alike.  So every
# timing is taken between runs of ``kernel``, a fixed pure-Python loop that
# uses no program code, and is reported scaled to a host on which the
# kernel takes REFERENCE_S: a wall time t taken next to kernel time r is
# reported as t * REFERENCE_S / r.  REFERENCE_S is about the kernel's time
# on a quiet host of the VM the benchmark was built on (a 2-vCPU
# "Intel(R) Xeon(R) Processor", Python 3.11), so scaled times read as that
# host's wall times.
REFERENCE_S = 0.9e-3
KERNEL_LOOPS = 4000
# Kernel runs whose median is taken before and after each set-up.
CALIBRATION_RUNS = 11
COUNT_UNITS = ("count", "bytes")


def load_spec():
    """BENCHMARK.json: the metric names and units, and run_seconds."""
    try:
        with open(SPEC) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {SPEC}: {exc}")
    spec["units"] = {m["name"]: m["unit"]
                     for m in spec["end_to_end"] + spec["per_layer"]}
    return spec


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="summed op wall time of the timed phase "
                             "(--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"run every input of seed {DEFAULT_SEED} once and "
                             "write its golden digests")
    parser.add_argument("--process", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def kernel():
    """Fixed pure-Python work: float arithmetic, dict stores and lookups."""
    acc = 0.0
    table = {}
    for i in range(KERNEL_LOOPS):
        x = (i * 0.5 + 1.0) / (i % 7 + 1.0)
        table[i & 63] = x
        acc += table.get((i * 7) & 63, 0.0) * 0.25
    return acc


def kernel_seconds(runs=1):
    """Median wall time of ``runs`` kernel runs."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def require_package():
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no package at {PACKAGE}; run from a full "
                         "checkout of the repository")


def import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    require_package()
    sys.path.insert(0, SRC)
    import price_display_auctions
    if os.path.dirname(os.path.abspath(price_display_auctions.__file__)) != PACKAGE:
        raise SystemExit("error: price_display_auctions was imported from "
                         f"{price_display_auctions.__file__}, not {PACKAGE}")


def set_up(args, workdir, indices):
    """Import, build the op inputs numbered ``indices(workload)``, write
    their files, run one warm-up op.

    The pool is then moved out of the garbage collector's view, so that
    collections during the timed phase scan what the ops allocate, not
    the benchmark's inputs."""
    import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    pool = workload.build_pool(indices(workload))
    workload.run(workload.warmup_input())
    gc.collect()
    gc.freeze()
    return workload, pool


def run_processes(args):
    """Run the untraced ops in PROCESSES fresh processes, one at a time.
    Each reports its ops; its set-up time is scaled by the kernel's time
    just before it starts and, in the process, just after set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / PROCESSES)]
    reports = []
    for number in range(PROCESSES):
        before = kernel_seconds(CALIBRATION_RUNS)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--process", str(number)],
                                stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise SystemExit(f"error: workload process {number} failed "
                             f"(exit {proc.returncode})")
        report = json.loads(rest.strip().splitlines()[-1])
        report["setup_wall_s"] = elapsed
        report["setup_s"] = (elapsed * REFERENCE_S * 2
                             / (before + report["setup_kernel_s"]))
        reports.append(report)
    return reports


def workload_process(args):
    """One process of an untraced run: set up the inputs numbered
    ``args.process`` modulo PROCESSES, say "ready", then run ops on them
    for ``args.seconds`` of op wall time, and print the ops as JSON."""
    workdir = make_workdir(args)
    try:
        workload, pool = set_up(args, workdir, lambda w: range(
            args.process, w.pool_size, PROCESSES))
        if workload.pool_size % PROCESSES:
            raise SystemExit(f"error: pool_size {workload.pool_size} is not "
                             f"a multiple of {PROCESSES} processes")
        print("ready", flush=True)
        setup_kernel_s = kernel_seconds(CALIBRATION_RUNS)
        setup_rss_mb = rss_mb()
        golden = load_golden(workload, args.seed)
        walls, kernels, failed = timed_loop(workload, pool, args.seconds,
                                            golden, args.process, PROCESSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"walls": walls, "kernels": kernels, "failed": failed,
                      "setup_kernel_s": setup_kernel_s,
                      "setup_rss_mb": setup_rss_mb,
                      "peak_rss_mb": peak_rss_mb}), flush=True)


def run_op(workload, inp):
    """(result, None), or (None, error) when the op raised."""
    try:
        return workload.run(inp), None
    except Exception as exc:  # an op failure is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_ops(workload, inputs, tracer=None):
    """Run each input once, untimed."""
    out = []
    for k, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = k
        out.append(run_op(workload, inp))
    return out


def timed_loop(workload, pool, seconds, golden, first, step):
    """Closed loop until the ops' wall time sums to ``seconds``, over ops
    ``first``, ``first + step``, ...; op k takes input
    ``k % workload.pool_size``, so ``pool`` need only hold those.
    A kernel run brackets each op on both sides.  Each output is checked right after
    its op, off the clock, and then dropped, so memory does not grow with
    the op count.  Returns each op's wall time, the mean of its two kernel
    times, and the failed ops."""
    walls, kernels, failed = [], [], {}
    busy = 0.0
    while busy < seconds:
        k = first + step * len(walls)
        inp = pool[k % workload.pool_size]
        before = kernel_seconds()
        start = time.perf_counter()
        output = run_op(workload, inp)
        wall = time.perf_counter() - start
        after = kernel_seconds()
        walls.append(wall)
        kernels.append((before + after) / 2)
        busy += wall
        problems = op_problems(workload, golden, k, inp, output)
        if problems:
            failed[k] = problems
    return walls, kernels, failed


def load_golden(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    path = os.path.join(GOLDEN, f"{workload.name}.json")
    with open(path) as fh:
        data = json.load(fh)
    if data["seed"] != DEFAULT_SEED or len(data["ops"]) != workload.pool_size:
        raise SystemExit(f"error: {path} does not match the workload's pool")
    return data["ops"]


def op_problems(workload, golden, k, inp, output):
    """Problems with op ``k``'s output: invariants on every seed, the golden
    digest when there is one, and the reference re-check on every
    ``reference_every``-th op."""
    import workloads
    result, error = output
    if error:
        return [error]
    problems = workload.problems(inp, result)
    if not problems and golden is not None and not workloads.digests_match(
            workload.record(inp, result), golden[k % len(golden)]):
        problems.append("output differs from the golden digest")
    if (not problems and workload.reference_every
            and k % workload.reference_every == 0):
        problems += workload.reference_problems(inp, result)
    return problems


def check_outputs(workload, pool, outputs, seed):
    """Problems per failed op, keyed by op index."""
    golden = load_golden(workload, seed)
    failed = {}
    for k, output in enumerate(outputs):
        problems = op_problems(workload, golden, k, pool[k], output)
        if problems:
            failed[k] = problems
    return failed


def rss_mb():
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def tail_latency(latencies):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(args, ops):
    import_package()
    import workloads
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": ops, "pool_size": workloads.WORKLOADS[args.workload].pool_size,
        "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "commit": _git_commit(),
        "platform": platform.platform(),
    }


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git.  Running git instead would
    also read files outside the checkout (parent directories, config)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(args, units):
    reports = run_processes(args)
    walls = [w for r in reports for w in r["walls"]]
    kernels = [k for r in reports for k in r["kernels"]]
    failed = {int(k): v for r in reports for k, v in r["failed"].items()}
    samples = [(r["setup_wall_s"], r["setup_s"]) for r in reports]
    ops = len(walls)
    scaled = [w * REFERENCE_S / r for w, r in zip(walls, kernels)]
    tail, pct = tail_latency(scaled)
    wall_tail, _ = tail_latency(walls)
    metrics = {
        "throughput_ops_s": ops / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "setup_s": statistics.median(s for _, s in samples),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    speed = REFERENCE_S / statistics.median(kernels)
    peak = [r["peak_rss_mb"] for r in reports]
    after_setup = [r["setup_rss_mb"] for r in reports]

    def listed(values, fmt):
        return ", ".join(format(v, fmt) for v in values)

    lines = [
        f"workload {args.workload}, seed {args.seed}: {ops} ops in "
        f"{PROCESSES} processes, {sum(walls):.3f} s of op wall time, closed "
        f"loop, 1 client, 1 thread",
        f"  host speed {speed:.3f} of reference (median kernel run "
        f"{statistics.median(kernels) * 1e3:.3f} ms, reference "
        f"{REFERENCE_S * 1e3:.3f} ms); times are scaled to the reference, "
        f"raw wall times beside them",
        f"  throughput_ops_s {metrics['throughput_ops_s']:.4f} ops/s "
        f"(wall {ops / sum(walls):.4f})",
        f"  latency_p50_ms   {metrics['latency_p50_ms']:.3f} ms "
        f"(wall {statistics.median(walls) * 1e3:.3f})",
        f"  latency_tail_ms  {tail * 1e3:.3f} ms "
        f"(wall {wall_tail * 1e3:.3f}; p{pct:.1f}: {ops} samples, "
        f"{min(10, ops - 1)} beyond)",
        f"  error_rate       {len(failed) / ops:.4f} ratio "
        f"({len(failed)} of {ops} ops failed)",
        f"  setup_s          {metrics['setup_s']:.4f} s (median of "
        f"{listed((s for _, s in samples), '.3f')}; wall "
        f"{listed((w for w, _ in samples), '.3f')})",
        f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MiB (highest of "
        f"{listed(peak, '.1f')}; after set-up, before the first timed op: "
        f"{listed(after_setup, '.1f')})",
    ]
    details = {"op_wall_s": walls, "op_kernel_s": kernels,
               "setup_samples_s": samples, "latency_tail_ms": tail * 1e3,
               "tail_percentile": pct,
               "peak_rss_mb": peak, "setup_rss_mb": after_setup,
               "reference_s": REFERENCE_S}
    return metrics, ops, failed, [], lines, details


def per_layer(args, units):
    workdir = make_workdir(args)
    try:
        workload, pool = set_up(args, workdir,
                                lambda w: range(w.trace_ops))
        import tracing
        inputs = list(pool.values())
        start = time.perf_counter()
        run_ops(workload, inputs)
        untraced = time.perf_counter() - start
        tracer = tracing.Tracer()
        tracer.install()
        from price_display_auctions import quality
        # Only for the completeness check; ROADMAP item 1 removes it.
        evaluations = getattr(quality, "evaluation_count", None)
        passes = []
        for number in (1, 2):
            tracer.reset()
            before = evaluations() if evaluations else None
            tracer.active = True
            start = time.perf_counter()
            outputs = run_ops(workload, inputs, tracer)
            elapsed = time.perf_counter() - start
            tracer.active = False
            metrics = tracer.metrics()
            metrics["cli.stdout_bytes"] = sum(
                workload.stdout_bytes(result) for result, _ in outputs if result)
            delta = evaluations() - before if evaluations else None
            passes.append((metrics, elapsed, delta, outputs))
            if number == 1:
                os.makedirs(OUT, exist_ok=True)
                tracer.write(os.path.join(
                    OUT, f"spans-{args.workload}-seed{args.seed}.tsv"))
        failed = check_outputs(workload, pool, passes[0][3], args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for k, (_, error) in enumerate(passes[1][3]):
        if error:
            failed.setdefault(k, []).append(f"second traced pass: {error}")

    first, second = passes[0][0], passes[1][0]
    errors = []
    def is_count(name):
        return units.get(name) in COUNT_UNITS

    moved = [n for n in first if is_count(n) and first[n] != second[n]]
    if moved:
        errors.append(f"counts differ between two traced passes: {moved}")
    delta = passes[0][2]
    if delta is not None and delta != first["quality.q.calls"]:
        errors.append(f"tracer saw {first['quality.q.calls']} quality "
                      f"evaluations, evaluation_count() saw {delta}")
    metrics = {n: (first[n] if is_count(n) else (first[n] + second[n]) / 2)
               for n in first}
    traced = (passes[0][1] + passes[1][1]) / 2
    ops = len(inputs)
    metrics["trace.untraced_throughput_ops_s"] = ops / untraced
    metrics["trace.throughput_ops_s"] = ops / traced
    metrics["trace.overhead"] = traced / untraced
    completeness = ("skipped: evaluation_count() is gone" if delta is None
                    else f"quality.q.calls {first['quality.q.calls']} == "
                         f"evaluation_count() delta {delta}")
    lines = [f"workload {args.workload}, seed {args.seed}: first {ops} inputs, "
             f"untraced once ({untraced:.3f} s) and traced twice "
             f"({passes[0][1]:.3f} s, {passes[1][1]:.3f} s)",
             f"  completeness: {completeness}",
             f"  counts identical across both traced passes: {not moved}",
             f"  mechanisms.allocations_per_run = "
             f"{metrics['mechanisms.allocator_calls']} allocator calls / "
             f"{metrics['mechanisms.runs']} mechanism runs",
             f"  equilibrium.runs_per_profile = "
             f"{metrics['equilibrium.mechanism_runs']} mechanism runs / "
             f"{metrics['equilibrium.profiles']} profiles"]
    lines += [f"  {n} {_fmt(metrics[n])} {units.get(n, '?')}"
              for n in sorted(metrics)]
    details = {"untraced_s": untraced,
               "traced_s": [passes[0][1], passes[1][1]]}
    return metrics, ops, failed, errors, lines, details


def _fmt(value):
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def make_workdir(args):
    path = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(path)
    return path


def write_golden(args):
    if args.seed != DEFAULT_SEED:
        raise SystemExit(f"error: golden digests are for seed {DEFAULT_SEED}")
    workdir = make_workdir(args)
    try:
        workload, pool = set_up(args, workdir, lambda w: range(w.pool_size))
        records = []
        for k, (result, error) in enumerate(run_ops(workload, pool.values())):
            problems = [error] if error else workload.problems(pool[k], result)
            if problems:
                raise SystemExit(f"error: op {k}: {problems}")
            records.append(workload.record(pool[k], result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(GOLDEN, exist_ok=True)
    with open(os.path.join(GOLDEN, f"{args.workload}.json"), "w") as fh:
        fh.write(f'{{"workload": "{args.workload}", "seed": {args.seed}, '
                 '"ops": [\n')
        fh.write(",\n".join(json.dumps(r, separators=(",", ":"))
                            for r in records))
        fh.write("\n]}\n")


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    require_package()
    if args.process is not None:
        workload_process(args)
        return 0
    if args.write_golden:
        write_golden(args)
        return 0

    measure = per_layer if args.trace else end_to_end
    units = spec["units"]
    metrics, ops, failed, errors, lines, details = measure(args, units)
    listed = {m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]}
    if set(metrics) != listed:
        errors.append(f"metrics not in BENCHMARK.json: "
                      f"{sorted(set(metrics) - listed)}; listed there but not "
                      f"measured: {sorted(listed - set(metrics))}")
        metrics = {n: v for n, v in metrics.items() if n in listed}
    for k in sorted(failed)[:SHOWN_PROBLEMS]:
        lines.append(f"  FAILED op {k}: {'; '.join(failed[k])[:300]}")
    lines += [f"  ERROR {e}" for e in errors]
    env = environment(args, ops)
    correct = not failed and not errors
    result = {"correct": correct, "attempted": ops, "failed": len(failed),
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in sorted(metrics)}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, **result, "details": details,
                   "problems": {str(k): v for k, v in failed.items()},
                   "errors": errors}, fh, indent=1)
    print("\n".join(lines))
    print("env " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
