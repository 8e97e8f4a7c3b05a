#!/usr/bin/env python3
"""Two-clock benchmark: simulated latency and goodput plus simulator wall time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <p2p_pair|ring_scale|mix_loss> \
        --seed <n> --seconds <s> --trace <0|1>

The first call builds the library and the `perfbench` binary from source
into .bench_build/perfbench. Each measured run is one `perfbench` process
(one workload, single-threaded); runs repeat until --seconds have passed and
at least MIN_RUNS have finished. Wall-clock metrics are the median over the
runs. The simulated metrics are deterministic, so every run of one seed must
repeat them and the replay digests exactly; any difference, a failed payload
check or a rank that did not complete fails the benchmark.

--trace 0 prints the end-to-end metrics. --trace 1 adds one traced run and
prints the per-layer metrics; the traced run's spans land in
.bench_build/perfbench-out/<workload>-seed<n>.spans.json. Each run's stderr
(the library's log, at its default level) goes to
.bench_build/perfbench-out/<workload>.stderr, where its WARN/ERROR lines are
counted. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD / "perfbench"

# The seed later claims are tuned on, and one kept back to confirm them.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

WORKLOADS = ("p2p_pair", "ring_scale", "mix_loss")
MIN_RUNS = 3
TIME_LIMIT_S = 170  # a whole invocation, build excluded

SIM_METRICS = {"op_p50_us": "us", "op_p99_us": "us", "goodput_mbps": "MB/s"}
WALL_METRICS = {"setup_s": "s", "run_s": "s", "teardown_s": "s",
                "peak_rss_mb": "MB"}
END_TO_END = {**SIM_METRICS, **WALL_METRICS}

_COUNTS = [
    "sim.events.setup", "sim.events.run", "sim.events.teardown",
    "sim.fiber_parks", "sim.stacks_allocated", "mpi.p2p.calls",
    "mpi.coll.calls", "log.warn_lines", "coll.barrier.hier", "coll.barrier.nic",
    "coll.barrier.dissemination", "coll.allreduce.hier", "coll.allreduce.nic",
    "coll.allreduce.nic_fallback", "coll.allreduce.rsag",
    "coll.allreduce.recdbl", "pml.send.eager", "pml.send.rendezvous",
    "bml.send.pipelined", "bml.pipeline.push_tx", "bml.stripe.send_done",
    "bml.stripe.failovers", "ptl.frames.handled", "ptl.rdv.started",
    "ptl.reliability.retransmissions", "ptl.reliability.rtx_timeouts",
    "ptl.reliability.dup_frames", "ptl.reliability.acks_sent",
    "elan4.qdma.posted", "elan4.rdma.reads", "elan4.rdma.writes",
    "elan4.event.chain_fires", "elan4.mmu.maps", "elan4.nic.commands",
    "elan4.qdma.depth.hiwater", "elan4.nic.rx_drops",
    "elan4.nic.rx_drops.teardown", "net.packets", "net.drops",
    "workload.ops", "workload.verify_failures", "trace.spans",
]
PER_LAYER = {
    **{name: "count" for name in _COUNTS},
    "sim.timed_wakeup_share": "ratio",
    "sim.wall_ns_per_event": "ns",
    "sim.cpu_busy_us": "us",
    "mpi.init_sim_us": "us",
    "mpi.finalize_sim_us": "us",
    "mpi.p2p.p50_us": "us",
    "mpi.p2p.p99_us": "us",
    "mpi.coll.p50_us": "us",
    "mpi.coll.p99_us": "us",
    "pml.unexpected_share": "ratio",
    "ptl.rtx_ratio": "ratio",
    "elan4.rdma.tx_bytes": "bytes",
    "workload.bytes": "bytes",
    "workload.fail_ratio": "ratio",
    "span.sim.self_sim_us": "us",
    "span.rte.self_sim_us": "us",
    "span.mpi.self_sim_us": "us",
    "span.workload.self_sim_us": "us",
    "span.cpu.self_sim_us": "us",
    "trace.overhead_s": "s",
    "trace.sim_mismatch": "ratio",
}
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
WARN_RE = re.compile(r"\] (WARN |ERROR) ")


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the binary; output goes to a log file."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT}/src")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError(f"build failed; see {log_path}")


def count_warnings(path):
    with open(path, errors="replace") as f:
        return sum(1 for line in f if WARN_RE.search(line))


def run_once(workload, seed, timeout, spans=None):
    """One `perfbench` process; returns its JSON result plus the warning count."""
    OUT.mkdir(parents=True, exist_ok=True)
    err_path = OUT / f"{workload}.stderr"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(err_path, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  stdin=subprocess.DEVNULL, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} run exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} run exited {proc.returncode} without a "
                         f"result; see {err_path}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["warn_lines"] = count_warnings(err_path)
    return result


def wall_total(r):
    return r["wall"]["setup_s"] + r["wall"]["run_s"] + r["wall"]["teardown_s"]


def check(runs, traced):
    """Returns the list of correctness problems across one set of runs."""
    problems = []
    for i, r in enumerate(runs + ([traced] if traced else [])):
        if not r["correct"] or r["exit"] != 0:
            problems.append(f"run {i}: {r['errors'] or 'exit %d' % r['exit']}")
    first = runs[0]
    for i, r in enumerate(runs[1:], 1):
        if r["sim"] != first["sim"]:
            problems.append(f"run {i}: simulated metrics {r['sim']} differ "
                            f"from run 0's {first['sim']}")
        if r["digests"] != first["digests"]:
            problems.append(f"run {i}: replay digests {r['digests']} differ "
                            f"from run 0's {first['digests']}")
    return problems


def sim_mismatch(runs, traced):
    """Largest relative difference between the traced and untraced runs'
    simulated metrics. Spans take no simulated time, so this is 0 unless
    the simulation depends on heap contents, which differ when the traced
    run allocates (see README.md); it is reported, not failed."""
    return max(abs(traced["sim"][k] - v) / v for k, v in runs[0]["sim"].items())


def metrics_for(runs, traced):
    """The metric set to print: end-to-end, or per-layer with a traced run."""
    if traced is None:
        values = dict(runs[0]["sim"])
        for name in WALL_METRICS:
            values[name] = statistics.median(r["wall"][name] for r in runs)
        units = END_TO_END
    else:
        values = dict(traced["layer"])
        values["log.warn_lines"] = traced["warn_lines"]
        values["trace.overhead_s"] = (
            wall_total(traced) - statistics.median(wall_total(r) for r in runs))
        values["trace.sim_mismatch"] = sim_mismatch(runs, traced)
        units = PER_LAYER
    if set(values) != set(units):
        raise BenchError(f"metric names {sorted(set(values) ^ set(units))} "
                         "are not in the benchmark's tables")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def check_names(metrics, trace):
    """Every printed name is well formed and listed in BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    for name, m in metrics.items():
        if not NAME_RE.fullmatch(name) or listed.get(name) != m["unit"]:
            raise BenchError(f"metric {name} ({m['unit']}) is not listed in "
                             "BENCHMARK.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
        start = time.monotonic()
        left = lambda: TIME_LIMIT_S - (time.monotonic() - start)
        runs = []
        # Start another run only if it should end within --seconds.
        while (len(runs) < MIN_RUNS or (time.monotonic() - start) *
               (len(runs) + 1) / len(runs) <= args.seconds):
            r = run_once(args.workload, args.seed, left())
            runs.append(r)
            print(f"# run {len(runs)}: setup {r['wall']['setup_s']:.4f} s, "
                  f"run {r['wall']['run_s']:.4f} s, teardown "
                  f"{r['wall']['teardown_s']:.4f} s, {r['warn_lines']} warnings, "
                  f"digests {' '.join(r['digests'])}", flush=True)
            if not r["correct"]:
                break
        traced = None
        if args.trace:
            spans = OUT / f"{args.workload}-seed{args.seed}.spans.json"
            traced = run_once(args.workload, args.seed, left(), spans)
            print(f"# traced run: spans in {spans}", flush=True)
        problems = check(runs, traced)
        metrics = metrics_for(runs, traced) if not problems else {}
        check_names(metrics, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    every = runs + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    for p in problems:
        print(f"# FAIL {p}", flush=True)
    print(f"# {args.workload} seed {args.seed}: {len(runs)} runs, "
          f"{attempted} ops attempted, {failed} failed "
          f"(fail_ratio {failed / max(attempted, 1):.6g})")
    for name, m in metrics.items():
        print(f"# {name:32s} {m['value']:>18.6f} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
