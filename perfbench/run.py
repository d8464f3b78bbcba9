#!/usr/bin/env python3
"""Repository benchmark: builds the library and the benchmark binary from
source, runs one workload for one seed, gates correctness and prints the
metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload campaign_med --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Everything the benchmark writes lives
under the build directory (CARGO_TARGET_DIR when it names a directory
inside the checkout, else .bench_build). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; everything else goes before it or to standard error. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log(f"perfbench: {message}")
    sys.exit(code)


def state_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / target).resolve()
    if ROOT not in path.parents and path != ROOT:
        path = ROOT / ".bench_build"
    return path / "perfbench"


def run_checked(cmd, timeout, **kwargs):
    """Run a child in its own process group; kill the group on timeout
    and always wait for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
    return proc.returncode


def build(state):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    build_dir = state / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring an existing build directory is cheap and picks up a
    # changed CMakeLists.txt before the build looks for its targets.
    code = run_checked(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        fail("cmake configure failed")
    code = run_checked(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target",
         "perfbench"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        fail("build failed")
    return build_dir


def binary_env():
    # The library's ERMS_* escape hatches change what runs; the
    # benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("ERMS_")}


def cmake_cache(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_digest():
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def provenance(build_dir, args, workers):
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = ""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "compiler": f"{compiler} ({version})",
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workers": workers,
        "python": platform.python_version(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def digest_gate(state, raw, errors):
    """Equal work across invocations: a seed's digests must never
    change, traced or not."""
    path = state / "digests" / f"{raw['workload']}-{raw['seed']}.json"
    current = {"setup": raw["setup_digest"], "pipeline": raw["digest"]}
    if path.is_file():
        known = json.loads(path.read_text())
        if known != current:
            errors.append(f"output digest {current} differs from an earlier "
                          f"run of this seed {known}")
            return False
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current) + "\n")
    return True


def history(state, raw, metrics):
    """Append this run and return median/quartiles of every metric over
    all recorded runs of the workload in this trace mode."""
    path = state / "history" / f"{raw['workload']}-trace{raw['trace']}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as f:
        f.write(json.dumps({"seed": raw["seed"], "metrics": {
            k: v["value"] for k, v in metrics.items()}}) + "\n")
    runs = [json.loads(line) for line in path.read_text().splitlines()]
    return {name: quartiles([r["metrics"][name] for r in runs
                             if name in r["metrics"]])
            for name in metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    state = state_dir()
    state.mkdir(parents=True, exist_ok=True)
    build_dir = build(state)
    binary = build_dir / "perfbench"

    if args.selftest:
        sys.exit(run_checked([str(binary), "--selftest"], RUN_TIMEOUT_S,
                             env=binary_env()))

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    raw_path = state / "results" / f"{tag}.raw.json"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    raw_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(raw_path)]
    if args.trace:
        spans = state / "spans" / f"{tag}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    run_checked(cmd, RUN_TIMEOUT_S, stdout=sys.stderr, env=binary_env())
    if not raw_path.is_file():
        fail("the benchmark binary wrote no result")
    raw = json.loads(raw_path.read_text())

    errors = list(raw["errors"])
    failed = raw["failed"]
    if not digest_gate(state, raw, errors):
        failed += 1
    metrics = {}
    for m in listed:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} missing or not in {m['unit']}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    report = {
        "provenance": provenance(build_dir, args, raw["workers"]),
        "errors": errors,
        "metrics": metrics,
        "within_run": {k: quartiles(v)
                       for k, v in raw["distributions"].items()},
        "across_runs": history(state, raw, metrics),
        "all_metrics": raw["metrics"],
        "outcome": raw["outcome"],
        "raw": raw_path.name,
    }
    report_path = state / "results" / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    better = {m["name"]: m.get("better", "") for m in listed}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"({report['provenance']['cpu_model']}, "
          f"{report['provenance']['nproc']} cpus, workers={raw['workers']})")
    for name, m in metrics.items():
        print(f"#   {name:32s} {m['value']:>16.6g} {m['unit']:<14s} "
              f"{better[name]}")
    for e in errors:
        print(f"# ERROR {e}")
    print(f"# report: {report_path.relative_to(ROOT)}")
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
