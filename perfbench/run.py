#!/usr/bin/env python3
"""Runs one workload of the smltc benchmark and prints its result.

    python3 perfbench/run.py --workload corpus_compile --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test

Run it from the repository root. The first run builds the compiler library
and the benchmark binary from source into .bench_build/ (or
$CARGO_TARGET_DIR) and fills the native module cache with the one-time `cc`
build; later runs reuse both. The workloads, metrics and their meaning are
in perfbench/catalog.json; units, directions and bounds in BENCHMARK.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric with --trace 0,
every per-layer metric with --trace 1. Exact metrics are compared with the
first run of the same sources in this build directory, across seeds; any
difference is a failure. Exits non-zero when a check fails or the
benchmark cannot run.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3  # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170  # a run may take this long once the build is done


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def source_hash():
    """Hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no compiler sources under %s/src; run from a full checkout"
            % ROOT)
    bdir = os.path.join(build_dir, "perfbench")
    log = os.path.join(build_dir, "build.log")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", bdir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 300) != 0:
            die("cmake configure failed; see " + log)
    if run_logged(["cmake", "--build", bdir, "-j", jobs], log, 800) != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        die("build failed; see " + log)
    return bdir


def prepare_native(binary, work, stamp_value):
    """The one-time cold cc build of the native module cache."""
    stamp = os.path.join(work, "native_ready")
    if os.path.isfile(stamp) and open(stamp).read() == stamp_value:
        return
    log = os.path.join(work, "native_prepare.log")
    if run_logged([binary, "--work", work, "--prepare-native"], log, 600):
        # corpus_run then fails with its own message; the other workloads
        # do not need the native backend.
        print("perfbench: native preparation failed; see " + log,
              file=sys.stderr)
        return
    with open(stamp, "w") as f:
        f.write(stamp_value)


def run_binary(binary, args, timeout):
    if timeout <= 0:
        die("out of time before the workload could run")
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % timeout)
    lines = p.stdout.strip().splitlines()
    if not lines:
        die("the benchmark binary printed nothing (exit %d)" % p.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("the benchmark binary printed no result line")


def check_exact(work, key, exact, errors):
    """Exact metrics must repeat across runs and seeds of the same build."""
    path = os.path.join(work, "exact", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    seen = load_json(path) if os.path.isfile(path) else {}
    for name, value in exact.items():
        if name in seen and seen[name] != value:
            errors.append("exact metric %s changed between runs: %r, first "
                          "run %r" % (name, value, seen[name]))
        seen.setdefault(name, value)
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)


def run_tests(bdir):
    r = subprocess.run(["ctest", "--test-dir", bdir, "--output-on-failure"])
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    catalog = load_json(os.path.join(HERE, "catalog.json"))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    # The compilers and cc write their temporary files here, not to /tmp.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    bdir = build(build_dir)
    if a.test:
        sys.exit(run_tests(bdir))
    if a.workload not in catalog["workloads"]:
        die("--workload must be one of " + ", ".join(catalog["workloads"]))
    seed = a.seed if a.seed is not None else \
        catalog["workloads"][a.workload]["default_seed"]
    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]

    binary = os.path.join(bdir, "perfbench")
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    src = source_hash()
    prepare_native(binary, work, src)

    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--work", work, "--workload", a.workload, "--seed", str(seed)]
    setups = []
    if not a.trace:
        for _ in range(SETUPS - 1):
            r = run_binary(binary, common + ["--setup-only"],
                           deadline - time.monotonic())
            if r["ran"]:
                setups.append(r["setup_s"])
    r = run_binary(binary, common + ["--seconds", repr(seconds),
                                     "--trace", str(a.trace)],
                   deadline - time.monotonic())
    errors = list(r["errors"])
    if not r["ran"]:
        for e in errors:
            print("perfbench: " + e, file=sys.stderr)
        die("workload %s could not run" % a.workload)
    setups.append(r["setup_s"])

    values = dict(r["metrics"])
    values.update(r["exact"])
    values["setup_s"] = statistics.median(setups)
    kinds = dict(catalog["end_to_end"], **catalog["per_layer"])
    exact = {n: values[n] for n, k in kinds.items()
             if k["exact"] and n in values}
    check_exact(work, "%s-%s" % (src, a.workload), exact, errors)

    section = "per_layer" if a.trace else "end_to_end"
    metrics = {}
    for m in bench[section]:
        name = m["name"]
        v = values.get(name)
        measured_here = a.workload in catalog.get(section, {}).get(
            name, {}).get("workloads", [a.workload])
        if v is None and measured_here:
            errors.append("metric %s was not measured" % name)
            v = 0
        metrics[name] = {"value": 0 if v is None else v, "unit": m["unit"]}

    failed = r["failed"] + (len(errors) - len(r["errors"]))
    attempted = max(1, r["attempted"])
    correct = failed == 0 and not errors
    print("perfbench %s seed=%d seconds=%g trace=%d: attempted %d, failed "
          "%d, error_rate %.6f" % (a.workload, seed, seconds, a.trace,
                                   attempted, failed, failed / attempted))
    for e in errors:
        print("  error: " + e)
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  timings at the reference machine speed; this run's speed %.3f"
          % values["bench.machine_speed"])
    if not a.trace:
        print("  set-ups: " + " ".join("%.4f" % s for s in setups))
    else:
        print("  tracing overhead: %+.2f%% (traced over untraced time)"
              % (100 * values.get("bench.trace_overhead", 0)))
        print("  spans: " + os.path.join(work, "trace-%s.jsonl"
                                         % a.workload))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
