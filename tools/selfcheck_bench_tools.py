#!/usr/bin/env python3
"""Self-check for tools/bench_history.py: proves the perf gate fires.

    selfcheck_bench_tools.py [OUT_DIR]

Builds synthetic histories in OUT_DIR (default: a temp dir) from
synthetic perfbench/run.py output, appended with the function `record`
uses, and asserts, against the real `check` command:

  * a healthy rerun passes, and the same history fails under
    --inject-slowdown 2.0;
  * halving chips_per_s (higher is better) fails, and so does doubling
    tail_ms (lower is better);
  * a candidate with a different nproc is not judged against the baseline;
  * the append refuses a loaded_host run, a correct: false run and a
    non-zero exit, and writes nothing for any of them;
  * check fails on a torn line.

It never runs perfbench.  Exit 0 when every scenario behaves; 1 with a
message otherwise.  Run by ctest (bench_history_tools) and by ci.sh.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)
import bench_history  # noqa: E402

METRICS = bench_history.end_to_end(bench_history.load_spec())
HEALTHY = {"chips_per_s": 160.0, "p50_ms": 6.2, "tail_ms": 7.8,
           "setup_s": 0.75, "peak_rss_mb": 35.0}


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_output(scale=1.0, nproc=4, loaded=False, correct=True, **metrics):
    """What run.py prints for one diagnose run: a log line, the record
    line, then the result line."""
    values = {name: v * scale for name, v in HEALTHY.items()}
    values.update(metrics)
    record = {"workload": "diagnose", "seed": 7, "seconds": 20, "trace": 0,
              "nproc": nproc, "loaded_host": loaded, "build_type": "Release",
              "git_sha": "0" * 40, "source_digest": "0" * 16}
    result = {"correct": correct, "attempted": 6000, "failed": 0,
              "metrics": {name: {"value": v, "unit": "x"}
                          for name, v in values.items()}}
    return ("perfbench: diagnose pass done\n" + json.dumps({"record": record})
            + "\n" + json.dumps(result) + "\n")


def append(hist, stdout, returncode=0):
    why = bench_history.append_run(hist, returncode, stdout, METRICS)
    if why is not None:
        fail(f"append refused a healthy run: {why}")


def expect_check(hist, want_code, what, *argv):
    result = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "bench_history.py"), "check",
         "--history", hist, "--last", "1", *argv],
        capture_output=True, text=True)
    if result.returncode != want_code:
        fail(f"{what}: expected exit {want_code}, got {result.returncode}\n"
             f"stdout: {result.stdout}\nstderr: {result.stderr}")
    print(f"ok: {what} (exit {result.returncode})")


def with_candidate(out_dir, base, name, stdout):
    """A copy of history `base` with one more line appended."""
    hist = os.path.join(out_dir, name)
    shutil.copyfile(base, hist)
    append(hist, stdout)
    return hist


def main(argv):
    out_dir = argv[1] if len(argv) > 1 else tempfile.mkdtemp()
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, "selfcheck_history.jsonl")
    if os.path.exists(base):
        os.remove(base)
    # Four earlier runs of the same (workload, nproc, build_type).
    for scale in (1.0, 1.04, 0.98, 1.02):
        append(base, run_output(scale))

    healthy = with_candidate(out_dir, base, "selfcheck_healthy.jsonl",
                             run_output(1.01))
    expect_check(healthy, 0, "healthy rerun passes")
    expect_check(healthy, 1, "2x injected slowdown fails",
                 "--inject-slowdown", "2.0")

    slow = with_candidate(out_dir, base, "selfcheck_chips.jsonl",
                          run_output(chips_per_s=HEALTHY["chips_per_s"] / 2))
    expect_check(slow, 1, "halved chips_per_s (higher is better) fails")

    tail = with_candidate(out_dir, base, "selfcheck_tail.jsonl",
                          run_output(tail_ms=HEALTHY["tail_ms"] * 2))
    expect_check(tail, 1, "doubled tail_ms (lower is better) fails")

    other = with_candidate(out_dir, base, "selfcheck_nproc.jsonl",
                           run_output(nproc=8,
                                      chips_per_s=HEALTHY["chips_per_s"] / 2))
    expect_check(other, 0, "different nproc is not judged against the "
                           "nproc 4 baseline")

    with open(base, "rb") as f:
        before = f.read()
    for what, stdout, code in (
            ("loaded_host run", run_output(loaded=True), 0),
            ("correct: false run", run_output(correct=False), 0),
            ("non-zero exit", run_output(), 1),
            ("run without a result line", "perfbench: build failed\n", 0)):
        why = bench_history.append_run(base, code, stdout, METRICS)
        with open(base, "rb") as f:
            after = f.read()
        if why is None or after != before:
            fail(f"append accepted a {what}")
        print(f"ok: append refuses a {what} ({why}), history unchanged")

    torn = with_candidate(out_dir, base, "selfcheck_torn.jsonl",
                          run_output(1.01))
    with open(torn, "a") as f:
        f.write('{"record": {"workload": "diag')
    expect_check(torn, 1, "torn line fails check")

    print("bench tooling self-check: all scenarios behaved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
