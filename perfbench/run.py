#!/usr/bin/env python3
"""Repository benchmark for the MRD cache simulator.

Builds the simulator and the benchmark's measuring program from source
(CMake, into .bench_build/perfbench), runs one workload, checks its outputs
and prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload repro_sweep --seed 0 --seconds 15 \
        --trace 0

--trace 0 reports the end-to-end metrics (host time measured untraced, plus
the simulated-time metrics); --trace 1 makes a separate traced run and
reports the per-layer metrics, writing a Chrome trace-event file next to the
build. Run it from the repository root. rationale.json explains the
workloads, the metrics and which layer metric should move which end-to-end
metric on which workload.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "perfbench")
FIG4_CSV = os.path.join(ROOT, "bench_out", "fig4_overall_performance.csv")

WORKLOADS = ("repro_sweep", "graph_runs", "scale_tier")
# Widest executor the benchmark uses, whatever the host offers.
MAX_THREADS = 4
# repro_sweep: fewest cold passes per measurement, however fast they are.
MIN_PASSES = 5
# graph_runs / scale_tier: set-up is repeated until this many processes (the
# measuring ones plus set-up-only ones) set up without host steal, and their
# median is reported.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# A timed sample (repro_sweep pass, single-run round) during which the
# hypervisor stole more than this share of the host's CPU time measured the
# host's neighbours, not the simulator: it is left out of the timing
# statistics (it still counts for the output checks). Measurement is
# extended, within EXTEND_BUDGET_S, until enough clean samples exist; if the
# host never quietens, every sample is used and the result says so.
CLEAN_STEAL = 0.05
EXTEND_BUDGET_S = 60

def threads():
    return max(1, min(MAX_THREADS, os.cpu_count() or 1))


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so stdout carries only the report."""
    os.makedirs(OUT, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "-j", str(threads())],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def child_env():
    env = dict(os.environ)
    env["MRD_EXECUTOR_THREADS"] = str(threads())
    # Kill switches that would change the paths being measured.
    env.pop("MRD_NO_PERSISTENT_POOL", None)
    env.pop("MRD_NO_CONTEXT_POOL", None)
    return env


def cpu_ticks():
    """(stolen, total) host CPU ticks so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def spawn(workload, seed, role, seconds=0.0, check=False, ledger=False):
    """Runs one measuring process; returns its JSON result with `setup_s`, the
    time from just before the process started to its first timed point, and
    `setup_steal`, the share of host CPU stolen meanwhile."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--role", role, "--seconds", repr(seconds), "--out", OUT,
           "--fig4", FIG4_CSV]
    if check:
        cmd.append("--check")
    if ledger:
        cmd.append("--ledger")
    steal, ticks = cpu_ticks()
    started = time.monotonic_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd),
                                                  proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["first_timed_ns"] - started) / 1e9
    result["setup_steal"] = ((result["first_timed_steal"] - steal)
                             / max(1, result["first_timed_ticks"] - ticks))
    return result


def setup_time(setups):
    """Median set-up time over the processes not slowed by host steal."""
    kept = clean(setups, [s["setup_steal"] for s in setups])
    return statistics.median(s["setup_s"] for s in kept), len(kept)


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(samples):
    """The 90th percentile when at least 100 samples back it; otherwise the
    highest percentile that keeps ten samples beyond it, never below the
    median."""
    return max(0.5, min(0.9, 1.0 - 10.0 / samples))


def run_time_metrics(per_scenario):
    """p50: geometric mean of the scenarios' median run times. p90: that
    times the tail quantile of every run divided by its scenario's median, so
    all runs pool into one sample whatever their scenario."""
    medians = {k: statistics.median(v) for k, v in per_scenario.items()}
    log_mean = sum(math.log(m) for m in medians.values()) / len(medians)
    p50 = math.exp(log_mean)
    normalized = [s / medians[k] for k, v in per_scenario.items() for s in v]
    level = tail_level(len(normalized))
    return p50, p50 * quantile(normalized, level), len(normalized), level


def clean(samples, steal):
    """The samples whose steal share is at most CLEAN_STEAL, or all of them
    when fewer than three (or under a quarter) are clean."""
    kept = [x for x, st in zip(samples, steal) if st <= CLEAN_STEAL]
    return kept if len(kept) >= max(3, len(samples) / 4) else list(samples)


def measure_repro(seed, seconds):
    start = time.monotonic()
    check = spawn("repro_sweep", seed, "measure", check=True)
    passes = [check]

    def clean_ms():
        return sum(p["pass_ms"] for p in passes
                   if p["pass_steal"] <= CLEAN_STEAL)

    while (sum(p["pass_ms"] for p in passes) < seconds * 1000.0
           or len(passes) < MIN_PASSES
           or (clean_ms() < seconds * 1000.0
               and time.monotonic() - start < EXTEND_BUDGET_S)):
        passes.append(spawn("repro_sweep", seed, "measure"))
    c = check["check"]
    weights = check["submission_points"]
    bad = set(c["bad_submissions"])
    attempted = failed = 0
    for p in passes:
        attempted += p["points"]
        for i, digest in enumerate(p["digests"]):
            if i in bad or digest != check["digests"][i]:
                failed += weights[i]
    timed = clean(passes, [p["pass_steal"] for p in passes])
    walls = [p["pass_ms"] for p in timed]
    p50, p90, n, level = run_time_metrics({"pass": walls})
    setup_s, clean_setups = setup_time(passes)
    metrics = {
        "setup_s": setup_s,
        "points_per_s": statistics.median(
            p["points"] / (p["pass_ms"] / 1000.0) for p in timed),
        "run_ms_p50": p50,
        "run_ms_p90": p90,
        "sim_mevents_per_s": statistics.median(
            c["events_per_pass"] / (p["pass_ms"] / 1000.0) / 1e6
            for p in timed),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    metrics.update(c["sim"])
    samples = {"passes": len(passes), "clean_passes": len(timed),
               "run_samples": n, "tail_level": level, "setups": len(passes),
               "clean_setups": clean_setups,
               "steal_median": statistics.median(
                   p["pass_steal"] for p in passes)}
    return metrics, check, c, attempted, failed, samples


def measure_single(workload, seed, seconds):
    start = time.monotonic()
    main = spawn(workload, seed, "measure", seconds=seconds, check=True)
    attempts = [main]
    # A contended first attempt is followed by fresh processes (each a set-up
    # sample too) until half the rounds so far are clean or time runs out.
    while (sum(st <= CLEAN_STEAL for a in attempts for st in a["round_steal"])
           < sum(len(a["round_steal"]) for a in attempts) / 2
           and time.monotonic() - start < EXTEND_BUDGET_S - seconds):
        attempts.append(spawn(workload, seed, "measure", seconds=seconds))
    setups = list(attempts)
    while (sum(s["setup_steal"] <= CLEAN_STEAL for s in setups) < SETUP_REPEATS
           and len(setups) < 2 * SETUP_REPEATS
           and (len(setups) < SETUP_REPEATS
                or time.monotonic() - start < EXTEND_BUDGET_S)):
        setups.append(spawn(workload, seed, "setup"))
    c = main["check"]
    # Rounds run every scenario once, so a scenario's k-th sample belongs to
    # round k; a round is kept or left out as a whole.
    rounds = [(a, r) for a in attempts for r in range(len(a["round_ms"]))]
    kept = clean(rounds, [a["round_steal"][r] for a, r in rounds])
    per_scenario = {name: [a["samples"][name][r] for a, r in kept]
                    for name in main["samples"]}
    p50, p90, n, level = run_time_metrics(per_scenario)
    # Throughput of the median round (every scenario once): robust to the
    # odd stalled round the way a mean over the whole run is not.
    round_s = statistics.median(a["round_ms"][r] for a, r in kept) / 1000.0
    attempted = sum(a["runs"] for a in attempts)
    failed = sum(a["failed_runs"] for a in attempts)
    if c["bad_scenarios"]:
        failed = attempted
    setup_s, clean_setups = setup_time(setups)
    metrics = {
        "setup_s": setup_s,
        "points_per_s": len(main["samples"]) / round_s,
        "run_ms_p50": p50,
        "run_ms_p90": p90,
        "sim_mevents_per_s": main["events_per_round"] / round_s / 1e6,
        "peak_rss_mb": statistics.median(a["rss_mb"] for a in attempts),
    }
    metrics.update(c["sim"])
    samples = {"runs": attempted, "rounds": len(rounds),
               "clean_rounds": len(kept), "run_samples": n,
               "tail_level": level, "setups": len(setups),
               "clean_setups": clean_setups,
               "steal_median": statistics.median(
                   a["round_steal"][r] for a, r in rounds)}
    return metrics, main, c, attempted, failed, samples


def check_trace_file(path):
    """The span file must load as Chrome trace-event JSON."""
    with open(path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    return bool(events) and all(
        e["ph"] == "X" and "ts" in e and "dur" in e for e in events)


def layer_metrics(layers):
    """Flattens a traced process's layer report into per-layer metrics."""
    out = {k: v for k, v in layers.items() if k != "ledger"}
    out.update(layers["ledger"])
    return out


def trace_repro(seed, seconds):
    """Alternates cold untraced and traced passes; the first traced process
    also runs the serial ledger and the output checks."""
    untraced, traced = [], []
    start = time.monotonic()
    while (time.monotonic() - start < seconds
           or len(untraced) < 2 or len(traced) < 2):
        untraced.append(spawn("repro_sweep", seed, "measure"))
        traced.append(spawn("repro_sweep", seed, "trace",
                            check=not traced, ledger=not traced))
    first = traced[0]
    layers = layer_metrics(first["layers"])
    layers["trace.overhead_share"] = (
        statistics.median(t["pass_ms"] for t in traced)
        / statistics.median(u["pass_ms"] for u in untraced) - 1.0)
    c = first["check"]
    attempted = sum(t["points"] for t in traced + untraced)
    failed = 0
    for t in traced + untraced:
        for i, digest in enumerate(t["digests"]):
            if i in c["bad_submissions"] or digest != first["digests"][i]:
                failed += first["submission_points"][i]
    return layers, first, c, attempted, failed


def trace_single(workload, seed, seconds):
    t = spawn(workload, seed, "trace", seconds=seconds, check=True)
    c = t["check"]
    failed = t["runs"] if c["bad_scenarios"] else t["failed_runs"]
    return layer_metrics(t["layers"]), t, c, t["runs"], failed


def declared_metrics(section):
    """(name, unit) of every metric BENCHMARK.json declares in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.trace == 0:
        if args.workload == "repro_sweep":
            run = measure_repro(args.seed, args.seconds)
        else:
            run = measure_single(args.workload, args.seed, args.seconds)
        values, child, checks, attempted, failed, samples = run
        values["ok_share"] = 1.0 - failed / attempted
        section = "end_to_end"
        print("samples: " + json.dumps(samples))
    else:
        if args.workload == "repro_sweep":
            run = trace_repro(args.seed, args.seconds)
        else:
            run = trace_single(args.workload, args.seed, args.seconds)
        values, traced, checks, attempted, failed = run
        child = traced
        if not (traced["trace_written"]
                and check_trace_file(traced["trace_file"])):
            failed = attempted
        # The serial ledger closes by construction (phases + unattributed ==
        # wall); a negative gap would mean phases outran the run wall.
        if values["runner.unattributed_ms"] < 0:
            failed = attempted
        section = "per_layer"
        print("trace: %s (%d spans)" % (traced["trace_file"],
                                        traced["spans"]))
        print("ledger: phases %.3f ms + unattributed %.3f ms = wall %.3f ms"
              % (values["runner.wall_ms"] - values["runner.unattributed_ms"],
                 values["runner.unattributed_ms"], values["runner.wall_ms"]))
    print("machine: " + json.dumps(child["machine"]))
    print("checks: " + json.dumps(checks))
    print("failed_share: %d/%d" % (failed, attempted))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_metrics(section)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        sys.exit(1)
