#!/usr/bin/env python3
"""Served-request benchmark for pecomp: build, run one workload, report.

Run from the root of a source checkout:

    python3 servebench/run.py --workload hit_serve --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --self-check

The first call builds the pecomp libraries from ../src and the harness in
servebench/harness into .bench_build/servebench (CMake; later calls only
re-check the build). The harness binary runs a NetServer per program over
one RtcgService plus a closed-loop PEC1 load generator in one process, and
prints one JSON document; this script adds the run context, writes the
document to .bench_build/results/, prints it, and prints as its last line
the summary object {"correct", "attempted", "failed", "metrics"} whose
metrics are BENCHMARK.json's end_to_end list (--trace 0) or its per_layer
list (--trace 1).

--self-check runs every workload briefly, measured and traced, and checks
that every metric is emitted with its unit, that no request failed, that
trace.unattributed_ms stays within the documented share of the traced
latency, and that each workload's claimed layer group has the largest
summed self time. See servebench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((BENCH_DIR / "config.json").read_text())


def fail(msg, code=1):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    # The build lives inside the checkout, under the directory the caller
    # names for build output (CARGO_TARGET_DIR by convention).
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    base = base.resolve()
    if ROOT.resolve() not in base.parents:
        base = ROOT / ".bench_build"
    return base


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("pecomp sources not found next to servebench/ (expected src/)")
    out = build_dir() / "servebench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "servebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "servebench"


def git_commit():
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown"


def calibration_s():
    """Seconds a fixed pure-Python loop takes: a probe of the host's speed.
    On a shared virtual machine the load average stays flat while the
    host's own contention moves CPU speed by tens of percent; comparing
    this figure across runs shows that drift."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return time.perf_counter() - t0


def run_harness(binary, workload, seed, seconds, trace, overrides=None):
    """Runs the harness once; returns its JSON document with run context.
    overrides replaces sizing entries of config.json (the self-check's
    shorter runs)."""
    wl = {**CONFIG["workloads"][workload], **(overrides or {})}
    scratch = build_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--scratch", str(scratch),
            "--workers", str(wl["workers"]),
            "--client-threads", str(wl["client_threads"]),
            "--conns-per-thread", str(wl["conns_per_thread"]),
            "--cache-bytes", str(wl["cache_bytes"]),
            "--setup-reps", str(wl["setup_reps"]),
            "--trace-requests", str(wl["trace_requests"]),
            "--stream-len", str(wl["stream_len"]),
            "--rss-at-requests", str(wl["rss_at_requests"])]
    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    calibration = [calibration_s()]
    r = subprocess.run(args, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    calibration.append(calibration_s())
    load_after = os.getloadavg()
    if r.returncode != 0:
        fail(f"harness exited with {r.returncode} on {workload}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    doc = json.loads(lines[-1])
    threshold = CONFIG["load_threshold_per_cpu"] * nproc
    sizing = doc["sizing"]
    doc["context"] = {
        "nproc": nproc,
        "load_avg_before": list(load_before),
        "load_avg_after": list(load_after),
        "load_threshold": threshold,
        "loaded_host": load_before[0] > threshold,
        "calibration_s": calibration,
        "sizing_within_nproc": all(
            sizing[k] <= nproc
            for k in ("workers", "client_threads", "connections")),
        "git_commit": git_commit(),
        "held_out_seed": CONFIG["held_out_seed"],
        "why": wl["why"],
        "stresses": wl["stresses"],
    }
    if trace:
        spans = doc["details"]["span_self_ms"]
        groups = {g: sum(spans.get(s, 0.0) for s in members)
                  for g, members in CONFIG["groups"].items()}
        doc["details"]["group_self_ms"] = groups
        doc["details"]["dominant_group"] = max(groups, key=groups.get)
    if doc["context"]["loaded_host"]:
        print(f"servebench: warning: 1-minute load average "
              f"{load_before[0]:.2f} is above the threshold {threshold:.2f};"
              f" this run is flagged", file=sys.stderr)
    return doc


def save(doc):
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}.json"
    (results / name).write_text(json.dumps(doc, indent=1) + "\n")


def summary(doc, specs):
    """The contract line: the named metrics, with their units, or None
    when the harness did not emit one of them."""
    metrics = {}
    for spec in specs:
        m = doc["metrics"].get(spec["name"])
        if m is None:
            return None
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return {"correct": bool(doc["correct"]),
            "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]),
            "metrics": metrics}


def bench_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text())


def self_check(binary, spec):
    sc = CONFIG["self_check"]
    problems = []
    end_to_end = spec["end_to_end"] + [
        {"name": "error_rate", "unit": "ratio"}]
    for workload in CONFIG["workloads"]:
        for trace, specs in ((False, end_to_end), (True, spec["per_layer"])):
            t0 = time.monotonic()
            doc = run_harness(binary, workload, sc["seed"], sc["seconds"],
                              trace, sc["sizing"])
            tag = f"{workload} trace={int(trace)}"
            for s in specs:
                m = doc["metrics"].get(s["name"])
                if m is None:
                    problems.append(f"{tag}: metric {s['name']} missing")
                elif m["unit"] != s["unit"]:
                    problems.append(f"{tag}: {s['name']} has unit "
                                    f"{m['unit']}, expected {s['unit']}")
            if doc["failed"] or not doc["correct"]:
                problems.append(f"{tag}: {doc['failed']} failed requests "
                                f"({doc['first_failure']})")
            if not trace:
                d = doc["details"]
                if doc["metrics"]["error_rate"]["value"] != 0:
                    problems.append(f"{tag}: error_rate is not 0")
                if d["exhausted_streams"]:
                    problems.append(f"{tag}: streams ran out before the "
                                    f"window ended; raise stream_len")
                if not d["rss_at_requests_reached"]:
                    problems.append(f"{tag}: fewer than rss_at_requests "
                                    f"requests completed")
            if trace:
                d = doc["details"]
                share = (doc["metrics"]["trace.unattributed_ms"]["value"] /
                         max(d["traced_p50_ms"], 1e-9))
                if share > CONFIG["unattributed_max_share"]:
                    problems.append(f"{tag}: unattributed share {share:.3f}"
                                    f" above {CONFIG['unattributed_max_share']}")
                claim = CONFIG["workloads"][workload]["stresses"]
                if d["dominant_group"] != claim:
                    problems.append(f"{tag}: dominant group "
                                    f"{d['dominant_group']}, claimed {claim}")
            print(f"servebench: self-check {tag}: "
                  f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
    for p in problems:
        print(f"servebench: self-check: {p}", file=sys.stderr)
    print(json.dumps({"self_check": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(CONFIG["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    if not a.self_check and not a.workload:
        ap.error("--workload is required")
    spec = bench_spec()
    binary = build()
    if a.self_check:
        return self_check(binary, spec)
    doc = run_harness(binary, a.workload, a.seed, a.seconds, a.trace)
    save(doc)
    line = summary(doc, spec["per_layer"] if a.trace else spec["end_to_end"])
    if line is None:
        fail("harness did not emit every metric BENCHMARK.json names")
    print(json.dumps(doc))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
