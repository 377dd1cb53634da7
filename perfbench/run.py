#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, checks its
outputs and prints its metrics.

    python3 perfbench/run.py --workload urban_step --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke     # every workload, tiny inputs, schema check

Run from the root of a checkout. The driver is built from the checkout's
sources into .bench_build/perfbench; run-time files go under
.bench_build/work and are removed afterwards. The last line of standard
output is the result object {correct, attempted, failed, metrics}; the line
before it is the full record: machine and build stamp, every metric by
name with its unit and sample count, and each output check.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DRIVER_TIMEOUT_S = 170

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# The issue's names for the end-to-end metrics, per workload; printed in
# the record next to the workload-neutral names the result line carries.
ALIASES = {
    "urban_step": {"step_ms": "latency_p50_ms"},
    "warm_queries": {"query_p50_ms": "latency_p50_ms",
                     "query_p90_ms": "latency_p90_ms"},
    "cold_queries": {"query_p50_ms": "latency_p50_ms",
                     "queries_per_s": "throughput_per_s"},
}


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def units(spec):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the driver up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", str(len(os.sched_getaffinity(0)))],
        check=True, stdout=sys.stderr)


# ------------------------------------------------------------- stamping --

def _read(path, default=""):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def _cmake_cache():
    out = {}
    for line in _read(os.path.join(BUILD_DIR, "CMakeCache.txt")).splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, val = line.split("=", 1)
            out[key.split(":", 1)[0]] = val
    return out


def _cxx_flags():
    """The driver's compile flags as the build system passes them; the
    src/ libraries are compiled in the same build with the same flags."""
    path = os.path.join(BUILD_DIR, "CMakeFiles", "perfbench_driver.dir",
                        "flags.make")
    for line in _read(path).splitlines():
        if line.startswith("CXX_FLAGS = "):
            return line.split("=", 1)[1].strip()
    return "unknown"


def _compiler_version(compiler):
    try:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True, timeout=10)
        return "%s: %s" % (compiler, r.stdout.splitlines()[0])
    except (OSError, subprocess.SubprocessError, IndexError):
        return compiler


def _git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _source_digest():
    """sha256 over the sources the driver is built from, so records from
    checkouts without git metadata still name their code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc():
    """Size of the highest-level cache of CPU 0, as the kernel reports it."""
    best = (0, "unknown")
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, idx, "level"), "0").strip()
        size = _read(os.path.join(base, idx, "size"), "").strip()
        if level.isdigit() and int(level) >= best[0] and size:
            best = (int(level), "L%s %s" % (level, size))
    return best[1]


def _filesystem(path):
    """(fstype, mount point) of the filesystem holding `path`."""
    path = os.path.realpath(path)
    best = ("unknown", "")
    for line in _read("/proc/mounts").splitlines():
        parts = line.split()
        if len(parts) < 3:
            continue
        mnt = parts[1]
        if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and \
                len(mnt) >= len(best[1]):
            best = (parts[2], mnt)
    return best


def stamp(workdir, raw):
    cache = _cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    fstype, mnt = _filesystem(workdir)
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "build_type": build_type,
        "cxx_compiler": _compiler_version(cache.get("CMAKE_CXX_COMPILER", "c++")),
        "cxx_flags": _cxx_flags(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _llc(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "threads": raw.get("threads", {}),
        "workdir_filesystem": fstype,
        "workdir_mount": mnt,
    }


# ------------------------------------------------------------- one run --

def _cpu_jiffies():
    """(steal, total) jiffies of all CPUs since boot."""
    fields = [int(x) for x in _read("/proc/stat", "cpu 0").split("\n")[0].split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_driver(workload, seed, seconds, trace, tiny):
    workdir = os.path.join(BUILD_ROOT, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    raw_path = os.path.join(workdir, "raw.json")
    steal0, total0 = _cpu_jiffies()
    try:
        subprocess.run(
            [DRIVER, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0",
             "--tiny", "1" if tiny else "0",
             "--workdir", workdir, "--out", raw_path],
            check=True, timeout=DRIVER_TIMEOUT_S, stdout=sys.stderr)
        with open(raw_path) as f:
            raw = json.load(f)
        steal1, total1 = _cpu_jiffies()
        st = stamp(workdir, raw)
        # CPU time the hypervisor gave to other guests while this run was
        # runnable: a high share marks a record taken on a contended host.
        st["cpu_steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
        return raw, st
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def evaluate(raw, workload, trace, unit_of):
    """(result line, record) for one driver record; `unit_of` maps metric
    names to units."""
    checks = list(raw["checks"])
    refused = int(raw.get("refused", 0))
    errors = int(raw["failed"]) - refused
    attempted, failed, error_rate = metrics.accounting(
        int(raw["attempted"]), refused, errors)
    record = {"workload": workload, "trace": int(trace),
              "error_rate": error_rate, "refused": refused,
              "config": raw.get("config", {})}

    if workload == "warm_queries":
        q = raw["queries"]
        late = metrics.lateness_ms([x["due_ms"] for x in q],
                                   [x["sent_ms"] for x in q])
        behind = metrics.generator_fell_behind(late)
        checks.append({"name": "load.generator_on_time", "ok": not behind,
                       "detail": "max lateness %.3f ms (limit %.0f ms)"
                       % (max(late, default=0.0), metrics.MAX_LATE_MS)})
        record["rate_per_s"] = raw["rate_per_s"]

    if trace:
        values = metrics.per_layer(raw, workload)
        if workload == "urban_step":
            record["triad"] = raw["triad"]
            record["lbm.bytes_per_step_source"] = \
                "computed from array sizes (io::split_step_traffic_bytes), not measured"
    else:
        values, n = metrics.end_to_end(raw, workload)
        record["samples"] = n
        record["samples_beyond_p90"] = metrics.samples_beyond(n, 0.9)
        record["p90_tail_rule_met"] = metrics.tail_rule_met(n, 0.9)
        record["setup_samples"] = len(raw["setup_s"])
        for alias, name in ALIASES[workload].items():
            record[alias] = values[name]

    correct = all(c["ok"] for c in checks) and raw["correct"]
    result_metrics = {k: {"value": v, "unit": unit_of[k]}
                      for k, v in values.items()}
    record["checks"] = checks
    record["metrics"] = result_metrics
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    return result, record


def run_once(spec, workload, seed, seconds, trace, tiny=False):
    raw, st = run_driver(workload, seed, seconds, trace, tiny)
    result, record = evaluate(raw, workload, trace, units(spec))
    record["stamp"] = st
    record["seed"] = seed
    record["seconds"] = seconds
    return result, record


# ----------------------------------------------------------- smoke mode --

def validate(result, spec, trace):
    """Schema of the result line against BENCHMARK.json; returns problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(result.get(k), int):
            problems.append("%s is not an integer" % k)
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        problems.append("metric names differ: %s"
                        % sorted(set(got) ^ {m["name"] for m in wanted}))
    for m in wanted:
        v = got.get(m["name"], {})
        if v.get("unit") != m["unit"]:
            problems.append("%s unit %r" % (m["name"], v.get("unit")))
        if not isinstance(v.get("value"), (int, float)) or \
                isinstance(v.get("value"), bool):
            problems.append("%s value %r" % (m["name"], v.get("value")))
    return problems


def smoke(spec):
    bad = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            result, _ = run_once(spec, w["name"], 1, 1, trace, tiny=True)
            problems = validate(result, spec, trace)
            if not result["correct"]:
                problems.append("output checks failed")
            log("smoke %-13s trace=%d: %s" % (
                w["name"], trace, "; ".join(problems) or "ok"))
            bad += bool(problems)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(ALIASES))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload on tiny inputs and check the "
                        "output schema")
    a = p.parse_args()
    if not a.smoke and not a.workload:
        p.error("--workload is required")
    try:
        spec = load_spec()
        build()
        if a.smoke:
            return smoke(spec)
        result, record = run_once(spec, a.workload, a.seed, a.seconds,
                                  bool(a.trace))
    except (subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
