#!/usr/bin/env python3
"""The perf history: benchmark runs recorded in BENCH_history.jsonl, and
the sentry that gates CI on it.

    bench_history.py record [--history BENCH_history.jsonl]
    bench_history.py check  [--history BENCH_history.jsonl] [--last K]
                            [--threshold 1.5] [--window 5]
                            [--min-baseline 2] [--inject-slowdown F]

Run from anywhere; BENCHMARK.json and perfbench/run.py are found next to
this directory, and a relative --history is relative to the current
directory.

record runs `python3 perfbench/run.py --workload W --seed 7 --seconds S`
once per workload of BENCHMARK.json, S being its run_seconds.  Each run
becomes one history line, {"record": <run.py's record>, "result": <run.py's
result line>}.  A run that exits non-zero, reports "correct": false, ran
on a loaded host ("loaded_host": true) or printed no record and result is
refused: nothing is appended for it, and record exits 1.

check judges the last K lines (the candidates).  Each candidate is
compared with the median of up to --window earlier lines with the same
(workload, nproc, build_type), on every end-to-end metric of
BENCHMARK.json, in that metric's "better" direction.  It fails when a
metric is more than --threshold times worse than that median.  A
candidate with fewer than --min-baseline such earlier lines is skipped:
a new host or workload cannot regress against nothing.  The threshold
stays far wider than BENCHMARK.json's bounds, which are meant for medians
of paired runs; these are single runs taken at different times.

--inject-slowdown F makes every candidate metric F times worse (times F
where lower is better, divided by F where higher is better) before it is
judged.  It exists so the self-check can prove the gate fires.

Exit codes: 0 pass; 1 a regression, a line that does not parse, or (record)
a refused run; 2 usage or I/O error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end(spec):
    """{metric name: "higher" | "lower"} from BENCHMARK.json."""
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def parse_line(line, metrics):
    """The history line as a dict, or None when it is not one: a JSON
    object whose record names the workload, nproc and build type, and whose
    result has a number for every end-to-end metric."""
    try:
        entry = json.loads(line)
    except ValueError:
        return None
    if not isinstance(entry, dict):
        return None
    record, result = entry.get("record"), entry.get("result")
    if not isinstance(record, dict) or not isinstance(result, dict):
        return None
    if not all(k in record for k in ("workload", "nproc", "build_type")):
        return None
    values = result.get("metrics")
    if not isinstance(values, dict):
        return None
    for name in metrics:
        m = values.get(name)
        if not isinstance(m, dict) or not isinstance(m.get("value"),
                                                     (int, float)):
            return None
    return entry


def append_run(history, returncode, stdout, metrics):
    """Appends one run.py run to `history` unless it is refused.  Returns
    None when the line was appended, else why the run was refused."""
    if returncode != 0:
        return f"run.py exited {returncode}"
    lines = stdout.splitlines()
    try:
        entry = {"record": json.loads(lines[-2])["record"],
                 "result": json.loads(lines[-1])}
    except (IndexError, ValueError, KeyError, TypeError):
        return "no record and result line"
    line = json.dumps(entry, separators=(",", ":"))
    if parse_line(line, metrics) is None:
        return "the record or result line lacks a field check needs"
    if entry["result"].get("correct") is not True:
        return "an output check failed (correct: false)"
    if entry["record"].get("loaded_host") is not False:
        return "the host was loaded (loaded_host: true)"
    # A torn tail without its newline must not swallow this line.
    torn = False
    if os.path.exists(history) and os.path.getsize(history) > 0:
        with open(history, "rb") as f:
            f.seek(-1, os.SEEK_END)
            torn = f.read(1) != b"\n"
    with open(history, "a") as f:
        f.write(("\n" if torn else "") + line + "\n")
    return None


def record(args):
    spec = load_spec()
    metrics = end_to_end(spec)
    refused = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, "perfbench/run.py", "--workload", name,
               "--seed", str(SEED), "--seconds", str(spec["run_seconds"])]
        print(f"bench_history: {' '.join(cmd[1:])}", file=sys.stderr)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        why = append_run(args.history, proc.returncode, proc.stdout, metrics)
        if why is None:
            print(f"recorded {name} in {args.history}")
        else:
            refused += 1
            print(f"REFUSED {name}: {why}; nothing appended",
                  file=sys.stderr)
    return 1 if refused else 0


def shape(entry):
    r = entry["record"]
    return (r["workload"], r["nproc"], r["build_type"])


def worse_by(cand, base, better):
    """How many times worse `cand` is than `base` (below 1: better)."""
    num, den = (cand, base) if better == "lower" else (base, cand)
    if den > 0:
        return num / den
    return 1.0 if num <= 0 else float("inf")


def check(args):
    metrics = end_to_end(load_spec())
    try:
        with open(args.history) as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {args.history}: {e}", file=sys.stderr)
        return 2
    entries = []
    unparsed = 0
    for lineno, line in enumerate(lines, 1):
        entry = parse_line(line, metrics)
        if entry is None:
            unparsed += 1
            print(f"FAIL  {args.history}:{lineno}: not a history line",
                  file=sys.stderr)
        else:
            entries.append(entry)

    candidates = entries[-args.last:]
    prior = entries[:-args.last]
    failures = judged = 0
    for cand in candidates:
        key = shape(cand)
        pool = [e for e in prior if shape(e) == key][-args.window:]
        label = (f"{key[0]} @nproc {key[1]} {key[2]} "
                 f"(sha {cand['record'].get('git_sha', '?')[:12]})")
        if len(pool) < args.min_baseline:
            print(f"SKIP  {label}: only {len(pool)} comparable earlier "
                  f"line(s), need {args.min_baseline}")
            continue
        judged += 1
        cand_failed = False
        for name, better in metrics.items():
            value = cand["result"]["metrics"][name]["value"]
            value = (value * args.inject_slowdown if better == "lower"
                     else value / args.inject_slowdown)
            base = statistics.median(
                e["result"]["metrics"][name]["value"] for e in pool)
            ratio = worse_by(value, base, better)
            verdict = "FAIL" if ratio > args.threshold else "ok"
            cand_failed |= ratio > args.threshold
            print(f"{verdict:4}  {label} {name}: {value:.4g} vs median "
                  f"{base:.4g} of {len(pool)} ({better} is better; "
                  f"x{ratio:.2f} worse, limit x{args.threshold:.2f})")
        failures += cand_failed
    if args.inject_slowdown != 1.0:
        print(f"note: candidate metrics were made x{args.inject_slowdown} "
              f"worse (--inject-slowdown)")
    if unparsed:
        print(f"perf sentry: {unparsed} line(s) of {args.history} do not "
              f"parse", file=sys.stderr)
    if failures:
        print(f"perf sentry: {failures} of {judged} judged candidate(s) "
              f"regressed beyond x{args.threshold}", file=sys.stderr)
    if unparsed or failures:
        return 1
    print(f"perf sentry: {judged} candidate(s) within x{args.threshold} of "
          f"baseline ({len(candidates) - judged} skipped)")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description="record benchmark runs in the perf history, or gate on "
                    "it")
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every workload and append it")
    rec.add_argument("--history", default="BENCH_history.jsonl")
    chk = sub.add_parser("check", help="judge the last K lines")
    chk.add_argument("--history", default="BENCH_history.jsonl")
    chk.add_argument("--last", type=int, default=3, metavar="K",
                     help="treat the last K lines as candidates (default 3)")
    chk.add_argument("--threshold", type=float, default=1.5,
                     help="fail when a metric is more than this many times "
                          "worse than the baseline median (default 1.5)")
    chk.add_argument("--window", type=int, default=5,
                     help="baseline = median of up to this many earlier "
                          "lines of the same shape (default 5)")
    chk.add_argument("--min-baseline", type=int, default=2,
                     help="need at least this many earlier lines of the "
                          "same shape to judge at all (default 2)")
    chk.add_argument("--inject-slowdown", type=float, default=1.0,
                     metavar="F",
                     help="make candidate metrics F times worse (self-check "
                          "only)")
    args = ap.parse_args(argv[1:])
    if args.command == "record":
        return record(args)
    if (args.last < 1 or args.threshold <= 1.0 or args.window < 1
            or args.inject_slowdown <= 0):
        ap.print_usage(sys.stderr)
        return 2
    return check(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
