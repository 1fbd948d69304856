#!/usr/bin/env python3
"""wdmlat benchmark: one workload run, or the self-check.

Run from the root of a wdmlat checkout:

    python3 wdmbench/run.py --workload paper_cells --seed 1 --seconds 30 --trace 0
    python3 wdmbench/run.py --self-check

A run builds the benchmark package (wdmbench/CMakeLists.txt: the library
sources, the wdmlat_run CLI and wdmbench_driver) into $CARGO_TARGET_DIR
(default .bench_build), runs the driver, checks its output, and prints one
JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer ones. Every result, with its provenance block, is also kept under
.bench_out/results/ for wdmbench/compare.py; traced runs keep their spans
under .bench_out/spans/.

--self-check runs every workload twice on the tuning seed and twice on the
held-out seed, requires each to pass the output gate and each seed's two
digests to agree, and runs the comparator's self-test.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper_cells", "smp_storm", "fleet_screen")
TUNING_SEED = 1
HELD_OUT_SEED = 4242
BUILD_TYPE = "RelWithDebInfo"
# Past the measured --seconds: set-up, the last round, the gate and spans.
RUN_GRACE_S = 120

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT = REPO / ".bench_out"


def log(message):
    print(f"wdmbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "wdmbench"


def build():
    """Configure once, then build incrementally. Returns the build dir."""
    for needed in ("src/CMakeLists.txt", "cli/wdmlat_run.cc"):
        if not (REPO / needed).is_file():
            raise RuntimeError(f"no wdmlat sources here: {REPO / needed} is missing")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(out / "build.log", "ab") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log, stderr=subprocess.STDOUT).returncode:
                tail = (out / "build.log").read_text(errors="replace")[-4000:]
                raise RuntimeError(f"build step failed: {' '.join(step)}\n{tail}")
    return out


def source_fingerprint():
    """sha256 over the program and benchmark sources (the checkout may not
    be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "cli", "wdmbench"):
        for path in sorted((REPO / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, when the checkout itself is a git repository."""
    try:
        top = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != REPO:
        return None
    return lines[1]


def provenance(out, workload, seed, seconds, trace):
    cache = {}
    cache_path = out / "CMakeCache.txt"
    if cache_path.is_file():
        for line in cache_path.read_text(errors="replace").splitlines():
            match = re.match(r"^([A-Z_]+):[A-Z]+=(.*)$", line)
            if match:
                cache[match.group(1)] = match.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown"
    # The library's flags as compiled, from the compile database.
    flags = ""
    commands = out / "compile_commands.json"
    if commands.is_file():
        for entry in json.loads(commands.read_text()):
            if entry["file"].endswith("src/lab/lab.cc"):
                words = entry["command"].split()[1:]
                flags = " ".join(w for i, w in enumerate(words)
                                 if w.startswith("-") and not w.startswith(("-I", "-o", "-c"))
                                 and words[i - 1] != "-o")
    return {
        "git_commit": git_commit() or "unknown (not a git checkout)",
        "source_fingerprint": source_fingerprint(),
        "compiler": f"{compiler} ({version})",
        "flags": flags,
        "build_type": build_type,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def provenance_warnings(prov):
    warnings = []
    if not re.search(r"-O[23s]\b", prov["flags"]):
        warnings.append(f"build is not optimised (build type {prov['build_type']!r}, "
                        f"flags {prov['flags']!r}); timings do not describe a release build")
    for key in ("loadavg_before", "loadavg_after"):
        if prov.get(key) and prov[key][0] > prov["nproc"]:
            warnings.append(f"1-minute load average {prov[key][0]:.2f} exceeds nproc "
                            f"{prov['nproc']} ({key}); timings are noisy")
    return warnings


def run_driver(out, workload, seed, seconds, trace):
    """Runs wdmbench_driver; returns (human-readable lines, result dict)."""
    work = OUT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(out / "wdmbench_driver"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", str(work), "--wdmlat-run", str(out / "wdmlat_run")]
    if trace:
        spans = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out", str(spans)]
    # Own session, so a timeout can stop the driver and the fleet workers
    # it spawned together.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload}: driver did not finish within "
                           f"{seconds + RUN_GRACE_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: driver exited with {process.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError as error:
        raise RuntimeError(f"{workload}: unreadable driver result: {error}") from error


def check_digest(workload, seed, fingerprint, digest):
    """Two runs of one seed on the same sources must print the same digest."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{workload}:{seed}:{fingerprint}"
    if key in known and known[key] != digest:
        return (f"digest {digest} differs from {known[key]} printed by an earlier run "
                f"of seed {seed} on the same sources")
    known[key] = digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return None


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns the stored result dict."""
    out = build()
    prov = provenance(out, workload, seed, seconds, trace)
    prov["loadavg_before"] = list(os.getloadavg())
    human, result = run_driver(out, workload, seed, seconds, trace)
    prov["loadavg_after"] = list(os.getloadavg())
    prov["sizes"] = result["sizes"]
    for line in human:
        print(line)
    correct = bool(result["correct"])
    problem = check_digest(workload, seed, prov["source_fingerprint"], result["digest"])
    if problem:
        log(problem)
        correct = False
    for warning in provenance_warnings(prov):
        log("warning: " + warning)
    for finding in result["findings"]:
        log("open finding (not gated): " + finding)
    print("provenance " + json.dumps(prov, sort_keys=True))
    stored = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "failed_frac": result["failed_frac"], "digest": result["digest"],
        "findings": result["findings"],
        "e2e": result["e2e"], "per_layer": result["per_layer"], "provenance": prov,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return stored


def self_check(seconds):
    failures = []
    for workload in WORKLOADS:
        for seed in (TUNING_SEED, HELD_OUT_SEED):
            digests = []
            for _ in range(2):
                result = run_once(workload, seed, seconds, False)
                digests.append(result["digest"])
                if not result["correct"]:
                    failures.append(f"{workload} seed {seed}: output gate failed")
            status = "ok" if digests[0] == digests[1] else "MISMATCH"
            print(f"self-check {workload} seed {seed}: digests {digests[0]} {digests[1]} "
                  f"{status}")
            if digests[0] != digests[1]:
                failures.append(f"{workload} seed {seed}: two runs printed different digests")
    test = subprocess.run([sys.executable, str(BENCH_DIR / "compare.py"), "--self-test"])
    if test.returncode != 0:
        failures.append("compare.py --self-test failed")
    for failure in failures:
        log("self-check: " + failure)
    print("self-check " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="gate + determinism on the tuning and held-out seeds")
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2 ** 53:
        parser.error("--seed must be in [0, 2^53)")
    try:
        if args.self_check:
            return self_check(min(args.seconds, 3))
        if args.workload is None:
            parser.error("--workload is required")
        stored = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as error:
        log(str(error))
        return 1
    metrics = stored["per_layer"] if args.trace else stored["e2e"]
    print(json.dumps({"correct": stored["correct"], "attempted": stored["attempted"],
                      "failed": stored["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
