#!/usr/bin/env python3
"""DCC benchmark: builds perfbench's driver, runs a workload, checks every
pass and prints the metrics.

    python3 perfbench/run.py --workload wc_flood --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 0

Run from the repository root. The driver (dcc_perfbench) is built from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. Human-readable lines go first;
the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SCENARIO = ("wc_flood", "ff_amplification", "fleet_failover")
PROBE = ("rl_probe",)
WORKLOADS = SCENARIO + PROBE
DCC = ("wc_flood", "ff_amplification")  # Workloads with a DCC shim.

SETUP_PROBES_PER_ROUND = 2  # Fresh processes timed for setup_s before each round's passes.
RUN_BUDGET_S = 170  # Per workload after the build, so a run ends within 180 s.

# The workloads each metric applies to, in print order. BENCHMARK.json
# declares the unit and direction of the metrics it gates: those that apply
# to every workload it lists. UNGATED_UNITS has the units of the others,
# which are printed on their workloads only.
END_TO_END = {
    # Host time unless marked (sim).
    "setup_s": WORKLOADS,
    "wall_s": WORKLOADS,
    "cpu_s": WORKLOADS,
    "queries_per_cpu_s": SCENARIO,
    "measurements_per_cpu_s": PROBE,
    "peak_rss_mb": WORKLOADS,
    "benign_success": SCENARIO,  # sim
    "benign_success_worst": SCENARIO,  # sim
    "benign_p99_ms": SCENARIO,  # sim
    "probe_accuracy": PROBE,  # sim
}
PER_LAYER = {
    "scenario.spec_parse_us": SCENARIO,
    "scenario.spec_validate_us": SCENARIO,
    "scenario.spec_write_us": SCENARIO,
    "scenario.build_ms": SCENARIO,
    "scenario.collect_ms": SCENARIO,
    "zone.target_build_ms": WORKLOADS,
    "zone.attacker_build_ms": ("ff_amplification", "rl_probe"),
    "sim.events": WORKLOADS,
    "sim.events_per_query": SCENARIO,
    "sim.run_self_ms": WORKLOADS,
    "sim.queue_depth_max": WORKLOADS,
    "sim.schedule_run_ns": WORKLOADS,
    "dns.encodes_per_hop": WORKLOADS,
    "dns.decodes_per_hop": WORKLOADS,
    "dns.encode_ns": WORKLOADS,
    "dns.decode_ns": WORKLOADS,
    "server.resolver_handle_ms": WORKLOADS,
    "server.subqueries_per_query": SCENARIO,
    "server.timer_events_per_upstream_query": SCENARIO,
    "server.timeout_useful_ratio": SCENARIO,
    "server.cache_hit_ratio": SCENARIO,
    "server.auth_handle_ms": WORKLOADS,
    "server.frontend_ms": ("fleet_failover",),
    "server.frontend_resteers": SCENARIO,
    "server.frontend_probes": SCENARIO,
    "dcc.shim_ms": DCC,
    "dcc.mopi_enqueue_ns": SCENARIO,
    "dcc.mopi_dequeue_ns": SCENARIO,
    "dcc.enqueue_success_ratio": DCC,
    "dcc.servfails_per_query": SCENARIO,
    "dcc.peak_memory_bytes": SCENARIO,
    "common.pool_hit_rate": WORKLOADS,
    "common.flat_map_op_ns": WORKLOADS,
    "common.token_bucket_ns": WORKLOADS,
    "fault.activations": SCENARIO,
    "measure.probe_resolver_s": PROBE,
    "telemetry.trace_overhead": WORKLOADS,
    "telemetry.attributed_share": WORKLOADS,
}
UNGATED_UNITS = {
    "measurements_per_cpu_s": "1/s",
    "probe_accuracy": "ratio",
    "zone.attacker_build_ms": "ms",
    "server.frontend_ms": "ms",
    "dcc.shim_ms": "ms",
    "dcc.enqueue_success_ratio": "ratio",
    "measure.probe_resolver_s": "s",
}
METRIC_ORDER = {name: i for i, name in enumerate(list(END_TO_END) + list(PER_LAYER))}


class BenchError(Exception):
    pass


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def gated_metrics(benchmark, end_to_end):
    """Names of the metrics BENCHMARK.json declares, in declared order."""
    key = "end_to_end" if end_to_end else "per_layer"
    return [m["name"] for m in benchmark[key]]


def metric_units(benchmark):
    """Unit of every metric: BENCHMARK.json's, then UNGATED_UNITS."""
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in benchmark[key]}
    units.update(UNGATED_UNITS)
    return units


# --- build and processes -------------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no simulator sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "dcc_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return os.path.join(out, "dcc_perfbench")


def driver_records(binary, args, deadline=None):
    """Runs the driver to completion (killing it at `deadline`, a
    time.monotonic() value) and returns its JSON-line records."""
    timeout = None if deadline is None else max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"dcc_perfbench {' '.join(args)} exited {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


# --- output check -------------------------------------------------------------------


def digest(outcome):
    """Outcome digest: spec hash, seed, events, per-client counts and
    latency, probe results. Equal digests mean identical simulated
    behaviour."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_pass(workload, seed, record):
    """Problems with one pass's output; empty when it is correct."""
    errors = []
    if not record.get("ok"):
        errors.append("run failed: " + record.get("error", ""))
    outcome = record["outcome"]
    if outcome.get("seed") != seed:
        errors.append(f"outcome seed {outcome.get('seed')} != {seed}")
    if not outcome.get("events", 0) > 0:
        errors.append("no events executed")
    if workload in PROBE:
        probes = outcome.get("probes", [])
        if len(probes) == 0 or len(probes) % 4 != 0:
            errors.append(f"{len(probes)} probe measurements, want 4 per resolver")
        for p in probes:
            if not (math.isfinite(p["qps"]) and p["qps"] >= 0):
                errors.append(f"{p['resolver']} {p['pattern']}: bad estimate {p['qps']}")
        return errors
    clients = outcome.get("clients", [])
    if not any(not c["attacker"] and c["sent"] > 0 for c in clients):
        errors.append("no benign client sent a query")
    for c in clients:
        # Query conservation: every client query ends exactly once.
        if c["sent"] != c["succeeded"] + c["failed"]:
            errors.append(f"client {c['label']}: sent {c['sent']} != succeeded "
                          f"{c['succeeded']} + failed {c['failed']}")
        if not c["attacker"] and c["succeeded"] > 0 and "p99_ms" not in c:
            errors.append(f"client {c['label']}: {c['succeeded']} answered queries "
                          "but no stub_latency_us samples")
    return errors


def check_run(workload, seed, records):
    """Checks every pass, and that all passes of this seed agree."""
    passes = [r for r in records if r["kind"] == "pass"]
    errors = []
    if not passes:
        errors.append("no passes ran")
    for i, record in enumerate(passes):
        errors += [f"pass {i}: {e}" for e in check_pass(workload, seed, record)]
    digests = {digest(r["outcome"]) for r in passes}
    if len(digests) > 1:
        errors.append("passes with one seed disagree (digests %s); traced and "
                      "untraced passes must simulate identically" % sorted(digests))
    return errors


# --- metrics ---------------------------------------------------------------------


def benign_ops(record):
    """(sent, answered) benign operations of one pass."""
    outcome = record["outcome"]
    if "probes" in outcome:
        probes = outcome["probes"]
        return len(probes), sum(p["bucket"] == p["truth"] for p in probes)
    benign = [c for c in outcome["clients"] if not c["attacker"]]
    return sum(c["sent"] for c in benign), sum(c["succeeded"] for c in benign)


def simulated_metrics(workload, record):
    """Deterministic, virtual-time metrics of one pass."""
    outcome = record["outcome"]
    if workload in PROBE:
        sent, right = benign_ops(record)
        return {"probe_accuracy": right / sent}
    benign = [c for c in outcome["clients"] if not c["attacker"] and c["sent"] > 0]
    sent, answered = benign_ops(record)
    metrics = {
        "benign_success": answered / sent,
        "benign_success_worst": min(c["succeeded"] / c["sent"] for c in benign),
    }
    p99s = [c["p99_ms"] for c in benign if "p99_ms" in c]
    if p99s:
        metrics["benign_p99_ms"] = max(p99s)
    return metrics


def ops_per_cpu_s(workload, record):
    """(metric name, value): operations that ended per CPU-second."""
    outcome = record["outcome"]
    if workload in PROBE:
        return "measurements_per_cpu_s", len(outcome["probes"]) / record["cpu_s"]
    ended = sum(c["succeeded"] + c["failed"] for c in outcome["clients"])
    return "queries_per_cpu_s", ended / record["cpu_s"]


def host_samples(workload, records, setup_samples):
    """Every host-time sample of a run, by end-to-end metric name. The peak
    RSS samples come from each process's first pass, the only one that
    counts what the process keeps between passes."""
    passes = [r for r in records if r["kind"] == "pass" and not r["traced"]]
    samples = {"setup_s": setup_samples,
               "wall_s": [r["wall_s"] for r in passes],
               "cpu_s": [r["cpu_s"] for r in passes],
               "peak_rss_mb": [r["rss_growth_mb"] for r in passes if r["index"] == 0]}
    for r in passes:
        name, value = ops_per_cpu_s(workload, r)
        samples.setdefault(name, []).append(value)
    return {name: values for name, values in samples.items() if values}


def end_to_end_metrics(workload, records, samples):
    passes = [r for r in records if r["kind"] == "pass"]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics.update(simulated_metrics(workload, passes[0]))
    return metrics


def per_layer_metrics(records):
    """Medians over the traced passes that ran first in their process (so
    warm pools and caches do not flatter them) and over the processes'
    microbenchmarks."""
    passes = [r for r in records if r["kind"] == "pass" and r["index"] == 0]
    traced = [r for r in passes if r["traced"]]
    plain = [r for r in passes if not r["traced"]]
    rows = [r["layers"] for r in traced]
    rows += [r["metrics"] for r in records if r["kind"] == "microbench"]
    names = {name for row in rows for name in row}
    metrics = {name: statistics.median(row[name] for row in rows if name in row)
               for name in names}
    metrics["telemetry.trace_overhead"] = (
        statistics.median(r["cpu_s"] for r in traced) /
        statistics.median(r["cpu_s"] for r in plain))
    return metrics


def missing_metrics(workload, metrics, end_to_end):
    """Metrics that apply to this workload but were not produced."""
    table = END_TO_END if end_to_end else PER_LAYER
    return [name for name, applies in table.items()
            if workload in applies and name not in metrics]


# --- one workload ------------------------------------------------------------------


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (summary dict, printable lines).

    A run is rounds of fresh driver processes, each running two passes,
    until `seconds` have gone by. Untraced, each round first times
    SETUP_PROBES_PER_ROUND set-up probes, so they sample the whole run
    rather than one phase of the machine's noise. Traced, rounds alternate
    which pass is traced, so that both the traced and the untraced passes
    that run first in their process (the ones trace_overhead compares) start
    cold. At least two rounds run when traced, one otherwise."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    spec_dir = os.path.join(build_dir(), "inputs")
    os.makedirs(spec_dir, exist_ok=True)
    spec_path = os.path.join(spec_dir, f"{workload}-seed{seed}.json")
    inputs = driver_records(binary, ["--mode", "inputs", "--spec-out", spec_path] + base,
                            deadline)[0]
    trace_path = ""
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
    records, setup_samples = [], []
    start = time.monotonic()
    rounds = 0
    while rounds < (2 if trace else 1) or time.monotonic() - start < seconds:
        args = ["--mode", "passes"] + base
        if trace:
            args += ["--traced", str(rounds % 2), "--trace-out", trace_path]
        else:
            for _ in range(SETUP_PROBES_PER_ROUND):
                setup = driver_records(
                    binary, ["--mode", "setup", "--spec", spec_path] + base, deadline)
                setup_samples.append(setup[0]["setup_s"])
        records += driver_records(binary, args, deadline)
        rounds += 1

    errors = check_run(workload, seed, records)
    passes = [r for r in records if r["kind"] == "pass"]
    samples = {} if trace else host_samples(workload, records, setup_samples)
    metrics = {}
    if passes and not errors:
        metrics = (per_layer_metrics(records) if trace
                   else end_to_end_metrics(workload, records, samples))
        missing = missing_metrics(workload, metrics, end_to_end=not trace)
        if missing:
            errors.append("metrics missing: " + ", ".join(missing))
    ops = [benign_ops(r) for r in passes]
    sent = sum(s for s, _ in ops)
    answered = sum(a for _, a in ops)
    # An operation fails when its pass fails the output check, and every
    # operation fails when the run as a whole does. Benign queries the
    # simulation leaves unanswered are the paper's collateral damage,
    # reported as benign_success rather than as failures.
    failed = sum(s for (s, _), r in zip(ops, passes) if check_pass(workload, seed, r))
    if errors and not failed:
        failed = sent
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  processes {rounds}"
             f"  passes {len(passes)}  inputs {inputs['inputs_hash']}"
             f"  digest {digest(passes[0]['outcome']) if passes else '-'}"
             f"  check {'ok' if not errors else 'FAILED'}"]
    lines += [f"  error: {e}" for e in errors]
    units = metric_units(load_benchmark_json())
    for name, value in sorted(metrics.items(), key=lambda kv: METRIC_ORDER[kv[0]]):
        line = f"  {name:40s} {value:>16.6g} {units[name]}"
        values = samples.get(name, [])
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            line += f"   median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}"
        lines.append(line)
    lines.append(f"  operations: {sent} attempted, {answered} answered "
                 f"({answered / sent if sent else 0:.4f}), {failed} failed the output check")
    if trace_path:
        lines.append(f"  trace: {os.path.relpath(trace_path, ROOT)}")
    return {"correct": not errors, "attempted": sent, "failed": failed,
            "metrics": metrics}, lines


def result_json(summary, names, units):
    metrics = {name: {"value": summary["metrics"][name], "unit": units[name]}
               for name in names if name in summary["metrics"]}
    return {"correct": summary["correct"] and len(metrics) == len(names),
            "attempted": max(summary["attempted"], 1), "failed": summary["failed"],
            "metrics": metrics}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchmark = load_benchmark_json()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        if any(w not in WORKLOADS for w in workloads):
            raise BenchError(f"unknown workload {args.workload}; known: {', '.join(WORKLOADS)}")
        if args.seed < 0:
            raise BenchError("--seed must be non-negative")
        seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
        binary = build()
        names = gated_metrics(benchmark, end_to_end=not args.trace)
        units = metric_units(benchmark)
        results = []
        for workload in workloads:
            summary, lines = run_workload(binary, workload, args.seed, seconds,
                                          bool(args.trace))
            print("\n".join(lines), flush=True)
            results.append((workload, summary))
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        workload, summary = results[0]
        if workload not in [w["name"] for w in benchmark["workloads"]]:
            # Not a gated workload: its JSON carries the metrics it has.
            table = PER_LAYER if args.trace else END_TO_END
            names = [name for name, applies in table.items() if workload in applies]
        print(json.dumps(result_json(summary, names, units)))
        return 0
    combined = {"correct": all(s["correct"] for _, s in results),
                "attempted": sum(s["attempted"] for _, s in results),
                "failed": sum(s["failed"] for _, s in results), "metrics": {}}
    for workload, summary in results:
        for name, value in summary["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = {
                "value": value, "unit": units[name]}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
