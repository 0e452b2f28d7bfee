#!/usr/bin/env python3
"""M3 training benchmark: dense and sparse logistic regression in and out
of core, and k-means, timed from outside the library.

    python3 perfbench/run.py --workload lr-dense-ooc --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The first run builds the library from source
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and
caches generated datasets next to it; later runs reuse both. Progress goes
to stderr. The last line of stdout is one JSON object:

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones (see BENCHMARK.json). The line before it is a full report:
the environment, every per-layer metric with the end-to-end metric it
should move, and each absent metric with the reason it is absent.

Every workload is the paper's fixed work (Fang & Chau, SIGMOD 2016,
Fig. 1): 10 L-BFGS iterations with no early stop, or k-means with k = 5
and 10 iterations, with default M3Options and the library's global thread
pool. The dense file is generated from the seed; the sparse file is one
fixed generated problem whose rows the seed permutes (m3perf.cc says why).

  lr-dense-ooc       binary LR on 784-double InfiMNIST-style rows with a
                     RAM budget of 25% of the feature bytes, starting from
                     an evicted file: prefetch and eviction on every pass.
  lr-dense-warm      the same file and trainer, no budget, every page
                     resident: kernels and the optimizer do the work.
  lr-sparse-ooc      sparse LR on a 2^20-column CSR file (~32 nonzeros per
                     row) with a 25% budget of the payload, starting from an
                     evicted file: three byte spans per chunk, engine-side
                     eviction, O(nnz) validation at Open, weight gathers.
                     Its 8 MiB per-chunk partials come from a heap glibc is
                     told to keep, the state a long-lived process can reach
                     (m3perf.cc says why), so they cost zeroing, no faults.
  kmeans-dense-warm  k-means on the dense file, resident: squared distances,
                     k-means++ seeding and k x d partials per chunk.

Each run times setup (Open from the workload's cache state) several times,
trains once to warm up, then trains repeatedly until --seconds have passed,
and reports medians. "Evicted" means evicted but for the header page,
which every Open reads (m3perf.cc says why).
Every operation is checked: a non-OK Status, a cache state other than the
workload's (checked with mincore before each timed region), or a trained
objective that an independent recomputation does not reproduce marks it
failed.

Tests: python3 perfbench/test_run.py
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# The workloads, their inputs and repetitions are defined in m3perf.cc,
# which names each run's model and cache state in its "workload" record.
# A run measures --seconds of training plus set-up and probes; a harness
# still running this long past --seconds is killed and the run fails.
HARNESS_SLACK_S = 120

# Cache-state preconditions on the mincore-resident fraction of the file.
MAX_RESIDENT_EVICTED = 0.01
MIN_RESIDENT_WARM = 0.99

# Objective checks. Logistic regression recomputes the loss at the
# returned weights through the same arithmetic without the pipeline, so
# only reduction-order noise may differ. k-means reports the inertia of the
# centers its last pass assigned to, while the recomputation uses the
# returned centers one Lloyd update later: never higher, and lower by at
# most that update's improvement.
LR_REL_TOL = 1e-9
KMEANS_REL_TOL = 1e-2
LN2 = math.log(2.0)

# Per-layer metric -> the end-to-end metric it should move, and where. The
# report carries every one; BENCHMARK.json lists those that are never
# absent, with their units.
PER_LAYER = {
    "io.major_faults": "pass_s on lr-dense-ooc",
    "io.minor_faults": "pass_s on lr-dense-ooc, lr-sparse-ooc (refaults)",
    "io.cpu_util": "pass_s on all",
    "io.disk_read_gbps": "roofline of pass_s on lr-dense-ooc",
    "exec.drive_s": "pass_s on all",
    "exec.compute_s": "pass_s on lr-dense-warm, kmeans-dense-warm",
    "exec.retire_s": "pass_s on kmeans-dense-warm, lr-sparse-ooc",
    "exec.evict_s": "pass_s on lr-dense-ooc, lr-sparse-ooc",
    "exec.compute_chunk_p50_s": "pass_s on all",
    "exec.prefetch_hits": "pass_s on lr-dense-ooc, lr-sparse-ooc",
    "exec.stalls": "pass_s on lr-dense-ooc, lr-sparse-ooc",
    "exec.stall_chunk_p95_s": "pass_s on lr-dense-ooc, lr-sparse-ooc",
    "exec.scan_s": "floor of pass_s on all",
    "core.open_s": "setup_s on lr-sparse-ooc",
    "core.resident_peak_mb": "peak_rss_mb on out-of-core",
    "core.bytes_evicted": "peak_rss_mb on out-of-core",
    "la.dot_gbps": "pass_s on lr-dense-warm",
    "la.axpy_gbps": "pass_s on lr-dense-warm",
    "la.sqdist_gbps": "pass_s on kmeans-dense-warm",
    "la.sparse_dot_gbps": "pass_s on lr-sparse-ooc",
    "la.sparse_axpy_gbps": "pass_s on lr-sparse-ooc",
    "ml.passes": "train_s on all",
    "ml.grad_pass_s": "pass_s on all",
    "ml.optimizer_s": "train_s on all",
    "ml.kmeans_seed_s": "train_s on kmeans-dense-warm",
}

# Why a per-layer metric can be absent (the report carries the reason).
ABSENT_REASONS = {
    "exec.stall_chunk_p95_s": "no chunk lost the prefetch race",
}


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Judging: which operations failed, and why.
# ---------------------------------------------------------------------------


def operation_failure(record, workload):
    """The reason `record` (a setup or train operation) failed, or None.
    `workload` is the harness's "workload" record."""
    model, out_of_core = workload["model"], workload["out_of_core"]
    if not record.get("ok"):
        return "status: %s" % record.get("status", "missing")
    resident = record.get("resident_before")
    if resident is None:
        return "cache state unmeasured"
    if out_of_core and resident > MAX_RESIDENT_EVICTED:
        return "cache precondition: %.4f resident, want evicted" % resident
    if not out_of_core and resident < MIN_RESIDENT_WARM:
        return "cache precondition: %.4f resident, want warm" % resident
    if record["record"] == "setup":
        return None if record.get("setup_s") is not None else "setup untimed"
    objective = record.get("objective")
    recheck = record.get("recheck")
    if objective is None or recheck is None:
        return "objective missing"
    if model == "lr":
        if abs(objective - recheck) > LR_REL_TOL * max(abs(objective), 1.0):
            return "objective mismatch: %r trained, %r recomputed" % (
                objective, recheck)
        if not objective < LN2:
            return "loss %r not below the untrained ln 2" % objective
    else:
        if not (objective * (1 - KMEANS_REL_TOL) <= recheck
                <= objective * (1 + 1e-12)):
            return "inertia mismatch: %r trained, %r recomputed" % (
                objective, recheck)
    if not record.get("pass_s") or record.get("train_s") is None:
        return "passes untimed"
    return None


def judge(records, exit_code=0):
    """Returns (attempted, failed, failure reasons, ok setups, ok trains).
    A warm-up training run is judged like any other but not returned."""
    workload = next((r for r in records if r.get("record") == "workload"),
                    None)
    attempted = 0
    failures = []
    setups, trains = [], []
    for record in records:
        kind = record.get("record")
        if kind == "dataset" and not record.get("ok"):
            attempted += 1
            failures.append("dataset: %s" % record.get("status"))
        if kind not in ("setup", "train"):
            continue
        attempted += 1
        reason = (operation_failure(record, workload) if workload
                  else "the harness named no workload")
        if reason:
            failures.append("%s: %s" % (kind, reason))
        elif kind == "setup":
            setups.append(record)
        elif not record.get("warmup"):
            trains.append(record)
    if exit_code != 0:
        attempted += 1
        failures.append("harness exited with code %d" % exit_code)
    if not trains:
        attempted = max(attempted, 1)
        if not failures:
            failures.append("no training run completed")
    return attempted, len(failures), failures, setups, trains


# ---------------------------------------------------------------------------
# Aggregation: medians over the operations that passed.
# ---------------------------------------------------------------------------


def end_to_end_metrics(setups, trains):
    return {
        "setup_s": median(r["setup_s"] for r in setups),
        "train_s": median(r["train_s"] for r in trains),
        "pass_s": median(p for r in trains for p in r["pass_s"]),
        "final_objective": median(r["objective"] for r in trains),
        "peak_rss_mb": median(r.get("peak_rss_mb") for r in trains),
    }


def per_layer_report(setups, trains, probes, units):
    """Every per-layer metric: {"value", "unit"?, "moves", "absent"?}."""
    values = {}
    for name in PER_LAYER:
        values[name] = median(r.get(name) for r in trains)
    values["core.open_s"] = median(r["setup_s"] for r in setups)
    absent = {}
    for probe in probes:
        values[probe["name"]] = probe.get("value")
        if probe.get("absent"):
            absent[probe["name"]] = probe["absent"]
    report = {}
    for name, moves in PER_LAYER.items():
        entry = {"value": values.get(name), "moves": moves}
        if name in units:
            entry["unit"] = units[name]
        if entry["value"] is None:
            entry["absent"] = absent.get(
                name, ABSENT_REASONS.get(name, "not measured in this run"))
        report[name] = entry
    return report


def result_line(records, trace, exit_code, benchmark):
    """The final JSON object and the report printed before it."""
    attempted, failed, failures, setups, trains = judge(records, exit_code)
    probes = [r for r in records if r.get("record") == "probe"]
    env = {r["record"]: {k: v for k, v in r.items() if k != "record"}
           for r in records
           if r.get("record") in ("workload", "env", "dataset",
                                  "dataset_options", "host")}
    per_layer_units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    layers = per_layer_report(setups, trains, probes, per_layer_units)
    if trace:
        wanted = per_layer_units
        values = {name: layers.get(name, {}).get("value") for name in wanted}
    else:
        wanted = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
        values = end_to_end_metrics(setups, trains)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items()
               if values.get(name) is not None}
    result = {"correct": failed == 0 and len(metrics) == len(wanted),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {"env": env, "failures": failures,
              "train_reps": len(trains), "setup_reps": len(setups)}
    if trace:
        report["per_layer"] = layers
    return result, report


# ---------------------------------------------------------------------------
# Build and run.
# ---------------------------------------------------------------------------


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the harness; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "m3perf", "-j4"])
    for step in steps:
        code = subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            print("build step failed (%d): %s" % (code, " ".join(step)),
                  file=sys.stderr)
            return None
    return os.path.join(out, "m3perf")


def commit():
    """HEAD of the checkout, when it is a git repository of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv):
    benchmark = load_benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 1
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--data_dir", os.path.join(os.path.dirname(build_dir()),
                                   "perfbench-data"),
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, cwd=ROOT,
                              timeout=HARNESS_SLACK_S + 1.5 * args.seconds)
        output, exit_code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as timeout:
        # run() has killed and reaped the harness; what it printed counts.
        output = timeout.stdout or ""
        if isinstance(output, bytes):
            output = output.decode(errors="replace")
        exit_code = -9
    if exit_code == 2:
        return 1  # the harness rejected its arguments
    records = []
    for line in output.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            print("unparsed harness output: %s" % line, file=sys.stderr)
    result, report = result_line(records, args.trace, exit_code, benchmark)
    report["env"]["commit"] = commit() or "absent: not a git checkout"
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
