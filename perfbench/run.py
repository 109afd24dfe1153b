#!/usr/bin/env python3
"""One run of the SDDD benchmark.

    python3 perfbench/run.py --workload table1|serve|diagnose --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (the repository's
libraries plus the sddd_perfbench driver) in Release into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints its record line (host facts: nproc, load average at
start and end, CPU seconds, peak RSS, build type, git SHA, source digest,
seed) and then, as the last line, the result object.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics of a separate traced pass; span dumps of traced runs go to
$CARGO_TARGET_DIR/perfbench-spans.  Exits 1 when an output check fails or
the sources are missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "serve", "diagnose")
# A workload run takes well under this; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest():
    """sha256 over the library and benchmark sources: names the code a run
    measured, in a git checkout or not, committed or not."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures once, then lets the build tool skip what is current."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "sddd_perfbench", "-j", str(nproc())],
                   stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "sddd_perfbench")


def check_fingerprint(state_path, key, fingerprint, remember):
    """A table1 run must reproduce the trial records of every earlier run
    of the same code and shape in this build tree.  `key` names both, so
    code that changes the records on purpose starts a fresh entry; only a
    run that passed its other checks (`remember`) sets the entry."""
    state = {}
    if os.path.exists(state_path):
        with open(state_path) as f:
            state = json.load(f)
    seen = state.get(key)
    if seen is None or seen == fingerprint:
        if seen is None and remember:
            state[key] = fingerprint
            with open(state_path, "w") as f:
                json.dump(state, f, indent=1, sort_keys=True)
        return True
    print(f"perfbench: CHECK FAILED: table1 trial records {fingerprint} "
          f"differ from an earlier run's {seen} ({key})", file=sys.stderr)
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at the repository root")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SDDD sources under src/; run from a repository checkout")
    with open(spec_path) as f:
        spec = json.load(f)
    expected = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    work_dir = os.path.join(build_root, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    sha = git_sha()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(nproc()),
           # A relative path keeps the server's unix socket path short.
           "--work-dir", os.path.relpath(work_dir, ROOT),
           "--git-sha", sha]
    if args.trace:
        spans_dir = os.path.join(build_root, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
    except (IndexError, ValueError, KeyError):
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited {proc.returncode} without a result")

    for line in lines[:-2]:
        print(line)
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json "
             f"{sorted(want)}")
    record["source_digest"] = source_digest()
    if args.workload == "table1" and not check_fingerprint(
            os.path.join(build_root, "perfbench-table1-fingerprints.json"),
            f"{record['source_digest']}:chips={record['chips']}",
            record["fingerprint"],
            remember=result["correct"] and proc.returncode == 0):
        result["correct"] = False
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
