#!/usr/bin/env bash
# The full pre-merge gate, runnable locally or from any CI runner:
#
#   1. tier-1 verify: Release configure + -Werror build + complete ctest;
#   2. sanitizer pass: smoke-labeled ctest entries under ASan+UBSan;
#   3. lint gate: sddd_lint over the embedded ISCAS catalog circuits plus
#      a dictionary audit -- any error-severity finding fails the gate;
#   4. observability smoke: diagnose an s1196-class stand-in with
#      --trace-out/--metrics-out and validate that both JSON files parse
#      and the trace actually contains dictionary-build spans; then run
#      sddd_cli explain on the same circuit and assert the top-1 per-pattern
#      phi contributions sum consistently with the reported Sim-II score,
#      every score sits inside its 95% CI, and the run_id cross-links the
#      explain report, result JSON, and manifest;
#   5. golden-bytes gate: the step-4 result JSON must equal
#      tests/data/golden/s1196_result.json byte for byte, the explain JSON
#      must hash to tests/data/golden/s1196_explain.sha256, and the
#      diagnose's metrics must show the diag.kernel.* / dict.sig_cache.*
#      counters (some, not all, built columns equal to the shared
#      baseline) and the ATPG refutation and conflict cache
#      (atpg.podem.refuted, atpg.podem.pruned, atpg.conflict.cores)
#      actually firing; then sddd_cli atpg on the same circuit at four
#      sites must print tests/data/golden/s1196_atpg.txt byte for byte,
#      with PODEM calls refuted and solved in those runs;
#   6. diagnosability gate: sddd_lint --diagnosability --json on the same
#      circuit must emit a well-formed machine-readable report (ambiguity
#      groups, per-suspect coverage, coverage ratio in [0,1]), and the
#      step-4 diagnose must show suspect collapse firing (fewer phi
#      evaluations than scored (suspect, pattern) pairs);
#   7. crash/resume smoke: SIGKILL a journaled diagnose mid-trials, resume
#      it, and require the resumed result JSON to be byte-identical to an
#      uninterrupted run's (at both 1 and 2 threads);
#   8. fault-injection smoke: SDDD_FAULTS poisons two trials; the run must
#      still exit 0 with exactly those trials quarantined in the metrics;
#   9. postmortem + ledger/report smoke: a quarantined trial must leave a
#      flight-recorder postmortem bundle whose run_id cross-links the run's
#      manifest; two identical ledgered runs must report "rank stability:
#      identical" through sddd_cli report (text and JSON);
#  10. store/serve crash-replay smoke: build a dictionary store twice
#      (byte-identical), check the section table `dict info` prints,
#      query it with the committed request
#      tests/data/golden/s1196_query.req.json under both match modes and
#      require the committed responses s1196_query_{e,s}.json byte for
#      byte (run_id aside: it folds in the store format version), then
#      SIGKILL `sddd_cli serve` mid-batch, restart it on the same store,
#      replay the batch, and require the socket responses byte-identical
#      to the in-process dict-query render;
#  11. store corruption smoke: SDDD_FAULTS=store.crc@... poisons one of two
#      stores at open; the server must quarantine it, report degraded
#      health, keep answering from the healthy store, and drain with
#      exit 0 on SIGTERM;
#  12. live observability smoke: serve with metrics + postmortem wired,
#      fire a concurrent dict-query batch, then assert the stats surface
#      end to end -- JSON stats carry non-zero per-phase latency
#      histograms and a trace-id-bearing slow-request ring, the
#      Prometheus rendering parses line by line with cumulative buckets,
#      SIGUSR1 dumps live stats without dropping the server, a
#      serve.store fault quarantines with a postmortem whose event key
#      matches the client's trace id, and a SIGTERM drain leaves a
#      complete metrics snapshot on disk;
#  13. perf sentry gate: the self-check of tools/bench_history.py proves
#      the regression gate fires on an injected 2x slowdown (and passes an
#      unmodified rerun) on synthetic perfbench records; then every line
#      of BENCH_history.jsonl must parse and its last three perfbench
#      records must sit within 1.5x of their rolling baseline;
#  14. clang-tidy profile (skipped automatically when not installed).
#
#   tools/ci.sh [-jN]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${1:--j$(nproc)}"

echo "== [1/14] tier-1 build + tests =="
cmake -B build -S . -DSDDD_WARNINGS_AS_ERRORS=ON
cmake --build build "$JOBS"
ctest --test-dir build --output-on-failure "$JOBS"

echo "== [2/14] smoke tests under ASan+UBSan =="
cmake -B build-san -S . -DSDDD_ASAN=ON -DSDDD_UBSAN=ON
cmake --build build-san "$JOBS"
ctest --test-dir build-san --output-on-failure -L smoke "$JOBS"

echo "== [3/14] sddd_lint on the ISCAS catalog =="
./build/tools/sddd_lint --dict --catalog c17 s27

echo "== [4/14] observability smoke (trace + metrics round-trip) =="
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
./build/tools/sddd_cli synth "$OBS_DIR/s1196.bench" \
  --profile s1196 --scale 0.15 --seed 7
./build/tools/sddd_cli diagnose "$OBS_DIR/s1196.bench" \
  --chips 2 --samples 60 --threads 2 \
  --json "$OBS_DIR/result.json" --manifest-out "$OBS_DIR/manifest.json" \
  --trace-out "$OBS_DIR/trace.json" --metrics-out "$OBS_DIR/metrics.json"
python3 - "$OBS_DIR/trace.json" "$OBS_DIR/metrics.json" <<'EOF'
import json, sys
trace_path, metrics_path = sys.argv[1], sys.argv[2]
with open(trace_path) as f:
    trace = json.load(f)
events = trace["traceEvents"]
names = {e.get("name", "") for e in events}
assert any(n.startswith("dict.") for n in names), \
    f"no dict.* spans in trace (got {sorted(names)})"
with open(metrics_path) as f:
    metrics = json.load(f)
counters = metrics["counters"]
for key in ("mc.samples", "dict.columns_built", "diag.phi_evals"):
    assert counters.get(key, 0) > 0, f"counter {key} missing or zero"
print(f"obs smoke ok: {len(events)} trace events, "
      f"{len(counters)} counters")
EOF

# Explain the same experiment (same chips/samples/seed, so the manifest
# fingerprint matches the diagnose run above) and check the report's
# internal consistency end to end.
./build/tools/sddd_cli explain "$OBS_DIR/s1196.bench" \
  --chips 2 --samples 60 --threads 2 --out "$OBS_DIR/explain.json"
python3 - "$OBS_DIR/explain.json" "$OBS_DIR/result.json" \
  "$OBS_DIR/manifest.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    explain = json.load(f)
cands = explain["candidates"]
assert cands, "explain report has no candidates"
top = cands[0]
# Sim-II is Sum(phi)/|TP|: the per-pattern phi contributions of the top
# candidate must reproduce its reported score to round-off.
sim2 = next(m for m in top["methods"] if m["method"] == "Alg_sim-II")
mean_phi = top["phi_sum"] / explain["n_patterns"]
assert abs(mean_phi - sim2["score"]) < 1e-9, \
    f"phi sum/|TP| {mean_phi} != reported Sim-II score {sim2['score']}"
pattern_sum = sum(p["phi"] for p in top["patterns"])
assert abs(pattern_sum - top["phi_sum"]) < 1e-9, \
    f"per-pattern phi sum {pattern_sum} != phi_sum {top['phi_sum']}"
# Every reported score must sit inside its own 95% confidence interval.
for cand in cands:
    for m in cand["methods"]:
        lo, hi = m["ci"]
        assert lo - 1e-12 <= m["score"] <= hi + 1e-12, \
            f"score {m['score']} outside CI [{lo}, {hi}] for {m['method']}"
assert set(explain["rank_separable_at_95"]) == \
    {"Alg_sim-I", "Alg_sim-II", "Alg_sim-III", "Alg_rev"}
# The run fingerprint must cross-link all three artifacts.
with open(sys.argv[2]) as f:
    result = json.load(f)
with open(sys.argv[3]) as f:
    manifest = json.load(f)
assert explain["run_id"] == result["run_id"] == manifest["run_id"], \
    (explain["run_id"], result["run_id"], manifest["run_id"])
print(f"explain smoke ok: {len(cands)} candidates, run_id "
      f"{explain['run_id']} consistent across explain/result/manifest")
EOF

echo "== [5/14] golden bytes (result + explain JSON, kernel counters) =="
# The step-4 outputs must be the committed bytes: the scoring loop, its
# column sources and suspect collapse change how a run executes, never
# what it writes.  A deliberate result change regenerates both golden
# files in the same commit.
cmp "$OBS_DIR/result.json" tests/data/golden/s1196_result.json
python3 - "$OBS_DIR/explain.json" tests/data/golden/s1196_explain.sha256 \
  "$OBS_DIR/metrics.json" <<'EOF'
import hashlib, json, sys
with open(sys.argv[1], "rb") as f:
    got = hashlib.sha256(f.read()).hexdigest()
with open(sys.argv[2]) as f:
    want = f.read().strip()
assert got == want, f"explain JSON sha256 {got} != golden {want}"
# The diagnose must actually have scored through the kernel and the cache,
# its ATPG must have refuted PODEM calls and pruned others with the cores
# those refutations learned, and its stage counters must describe a run
# that did work.
with open(sys.argv[3]) as f:
    counters = json.load(f)["counters"]
for key in ("diag.kernel.patterns", "diag.kernel.suspects",
            "dict.sig_cache.misses", "dict.sig_cache.bytes",
            "atpg.podem.refuted", "atpg.podem.pruned",
            "atpg.conflict.cores"):
    assert counters.get(key, 0) > 0, f"counter {key} missing or zero"
# The ATPG stage counters: fills were tried and some activated their
# path, the site search kept survivors, the draw loop ran, and the
# diagnosis still built transition graphs.
c = lambda key: counters.get(key, 0)
assert c("atpg.fill.tried") >= c("atpg.fill.activated") > 0, \
    (c("atpg.fill.tried"), c("atpg.fill.activated"))
assert c("atpg.site.survivors") > 0, "no site-search survivors"
assert c("defect.draws") >= 2, c("defect.draws")
assert c("paths.tg.builds") > 0, "no transition graphs built"
# The signature cache classifies each built column once: some sensitized
# columns equal the shared baseline (not stored), and some differ.
assert 0 < c("dict.sig_cache.shared") < c("dict.sig_cache.misses"), \
    (c("dict.sig_cache.shared"), c("dict.sig_cache.misses"))
print(f"golden bytes ok: result + explain identical, "
      f"{counters['diag.kernel.suspects']} kernel phi columns, "
      f"{counters['dict.sig_cache.misses']} cache builds "
      f"({c('dict.sig_cache.shared')} equal to the baseline), "
      f"{counters['atpg.podem.refuted']} PODEM calls refuted, "
      f"{counters['atpg.podem.pruned']} pruned by "
      f"{counters['atpg.conflict.cores']} learned cores, "
      f"{c('atpg.fill.activated')}/{c('atpg.fill.tried')} fills activating, "
      f"{c('defect.draws')} draws, {c('paths.tg.builds')} graphs")
EOF

# The standalone pattern generator (sddd_cli atpg: the five-argument
# generate_diagnostic_patterns, whose solver owns its conflict cache) at
# the default site and three sites with testable paths must print the
# committed patterns, and its solvers must have refuted some calls and
# solved others.
: > "$OBS_DIR/atpg.txt"
for SITE in "" 12 120 140; do
  ./build/tools/sddd_cli atpg "$OBS_DIR/s1196.bench" --seed 3 \
    ${SITE:+--site "$SITE"} --metrics-out "$OBS_DIR/atpg_metrics$SITE.json" \
    >> "$OBS_DIR/atpg.txt"
done
cmp "$OBS_DIR/atpg.txt" tests/data/golden/s1196_atpg.txt
python3 - "$OBS_DIR"/atpg_metrics*.json <<'EOF'
import json, sys
total = {"atpg.podem.refuted": 0, "atpg.podem.sat": 0}
for path in sys.argv[1:]:
    with open(path) as f:
        counters = json.load(f)["counters"]
    for key in total:
        total[key] += counters.get(key, 0)
for key, value in total.items():
    assert value > 0, f"counter {key} zero over the atpg runs"
print(f"atpg golden ok: {len(sys.argv) - 1} sites byte-identical, "
      f"{total['atpg.podem.refuted']} PODEM calls refuted, "
      f"{total['atpg.podem.sat']} solved")
EOF

echo "== [6/14] diagnosability gate (static analysis + suspect collapse) =="
# The machine-readable diagnosability report on the same circuit: the DIAG
# pass must produce a well-formed report whose shape downstream tooling
# can rely on (DESIGN.md section 13 schema).
./build/tools/sddd_lint --diagnosability --json "$OBS_DIR/s1196.bench" \
  > "$OBS_DIR/diag_lint.json"
python3 - "$OBS_DIR/diag_lint.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lint = json.load(f)
diag = lint["circuits"][0]["diagnosability"]
assert diag["n_arcs"] > 0 and diag["n_patterns"] > 0, diag
assert 0.0 <= diag["coverage_ratio"] <= 1.0, diag["coverage_ratio"]
assert len(diag["arc_coverage"]) == diag["n_arcs"], \
    (len(diag["arc_coverage"]), diag["n_arcs"])
groups = diag["ambiguity_groups"]
assert groups, "expected at least one ambiguity group on this circuit"
for g in groups:
    assert len(g["arcs"]) >= 2, g
    assert all(0 <= a < diag["n_arcs"] for a in g["arcs"]), g
for pair in diag["dominance"]:
    assert pair["dominated"] != pair["dominator"], pair
print(f"diagnosability gate ok: {len(groups)} ambiguity groups, "
      f"coverage {diag['coverage_ratio']:.3f}, "
      f"{len(diag['dead_arcs'])} dead arcs")
EOF

# Suspect collapse: every pattern's unsensitized suspects share one phi
# evaluation.  diag.kernel.suspects counts the suspect-owned columns
# scored, and each scored pattern adds at most one shared evaluation, so
# the step-4 diagnose must sit strictly between the two bounds.
python3 - "$OBS_DIR/metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    c = json.load(f)["counters"]
owned, patterns = c["diag.kernel.suspects"], c["diag.kernel.patterns"]
assert owned < c["diag.phi_evals"] <= owned + patterns, \
    (c["diag.phi_evals"], owned, patterns)
print(f"collapse ok: {c['diag.phi_evals']} phi evals for {owned} owned "
      f"columns over {patterns} patterns")
EOF

echo "== [7/14] crash/resume smoke (SIGKILL mid-trials, byte-identical) =="
# Reference: the same experiment, uninterrupted, at two thread counts.
# The deterministic result JSON must not depend on threads or on how many
# times the run was killed and resumed.
DIAG_ARGS=("$OBS_DIR/s1196.bench" --chips 6 --samples 80)
./build/tools/sddd_cli diagnose "${DIAG_ARGS[@]}" --threads 1 \
  --json "$OBS_DIR/ref_t1.json"
./build/tools/sddd_cli diagnose "${DIAG_ARGS[@]}" --threads 2 \
  --json "$OBS_DIR/ref_t2.json"
cmp "$OBS_DIR/ref_t1.json" "$OBS_DIR/ref_t2.json"

# Kill a journaled run mid-trials.  The kill is best-effort: on a fast
# machine the run may finish first, in which case the resume degenerates to
# a pure journal replay -- still a valid byte-identity check.
./build/tools/sddd_cli diagnose "${DIAG_ARGS[@]}" --threads 2 \
  --checkpoint "$OBS_DIR/run.ckpt" &
VICTIM=$!
sleep 0.4
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true

./build/tools/sddd_cli diagnose "${DIAG_ARGS[@]}" --threads 2 \
  --checkpoint "$OBS_DIR/run.ckpt" --resume --json "$OBS_DIR/resumed.json"
cmp "$OBS_DIR/ref_t1.json" "$OBS_DIR/resumed.json"
echo "crash/resume smoke ok: resumed JSON byte-identical to reference"

echo "== [8/14] fault-injection smoke (quarantine, exit 0) =="
SDDD_FAULTS="exp.trial@1,3" ./build/tools/sddd_cli diagnose \
  "${DIAG_ARGS[@]}" --threads 2 --metrics-out "$OBS_DIR/fault_metrics.json"
python3 - "$OBS_DIR/fault_metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
assert counters.get("fault.injected") == 2, \
    f"expected 2 injected faults, got {counters.get('fault.injected')}"
assert counters.get("trial.quarantined") == 2, \
    f"expected 2 quarantined trials, got {counters.get('trial.quarantined')}"
print("fault smoke ok: 2 faults injected, 2 trials quarantined, exit 0")
EOF

echo "== [9/14] flight-recorder postmortem + run ledger/report smoke =="
# A quarantined trial must leave a postmortem bundle behind, and the bundle
# must cross-link the SAME run_id the manifest carries (the experiment
# fingerprint), so the crash dump and the run's provenance can be joined.
SDDD_FAULTS="exp.trial@1" ./build/tools/sddd_cli diagnose \
  "${DIAG_ARGS[@]}" --threads 2 \
  --postmortem-out "$OBS_DIR/postmortem.json" \
  --manifest-out "$OBS_DIR/pm_manifest.json"
python3 - "$OBS_DIR/postmortem.json" "$OBS_DIR/pm_manifest.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    pm = json.load(f)
with open(sys.argv[2]) as f:
    manifest = json.load(f)
assert pm["reason"] == "trial_quarantined", pm["reason"]
assert pm["run_id"] == manifest["run_id"], \
    (pm["run_id"], manifest["run_id"])
kinds = {e["kind"] for e in pm["events"]}
assert "trial.error" in kinds, f"no trial.error event (got {sorted(kinds)})"
assert "trial.begin" in kinds, f"no trial.begin event (got {sorted(kinds)})"
assert pm["events_recorded"] > 0
assert "counters" in pm["metrics"], "postmortem missing metrics snapshot"
print(f"postmortem smoke ok: {len(pm['events'])} events, run_id "
      f"{pm['run_id']} cross-links the manifest")
EOF

# Two identical runs appended to one ledger: the diff must verify the
# result hashes match ("rank stability: identical") in both renderings.
./build/tools/sddd_cli diagnose "${DIAG_ARGS[@]}" --threads 2 \
  --ledger "$OBS_DIR/ledger.jsonl" --json "$OBS_DIR/led_a.json"
./build/tools/sddd_cli diagnose "${DIAG_ARGS[@]}" --threads 2 \
  --ledger "$OBS_DIR/ledger.jsonl" --json "$OBS_DIR/led_b.json"
./build/tools/sddd_cli report --ledger "$OBS_DIR/ledger.jsonl" --last 2 \
  | grep -q "rank stability: identical"
./build/tools/sddd_cli report --ledger "$OBS_DIR/ledger.jsonl" --last 2 \
  --json "$OBS_DIR/report_diff.json" > /dev/null
python3 - "$OBS_DIR/report_diff.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    diff = json.load(f)
assert diff["rank_stability"] == "identical", diff["rank_stability"]
assert diff["run_a"] == diff["run_b"], (diff["run_a"], diff["run_b"])
assert diff["phases"] and diff["counters"], "empty diff tables"
print(f"ledger/report smoke ok: runs {diff['run_a']} vs {diff['run_b']}, "
      f"{len(diff['counters'])} counters compared")
EOF

echo "== [10/14] store/serve crash-replay smoke (SIGKILL, byte-identical) =="
CLI=./build/tools/sddd_cli
# Build the store twice: a store build is a pure function of (netlist,
# config), so the two files must be byte-identical.
"$CLI" dict build "$OBS_DIR/s1196.bench" "$OBS_DIR/s1196.dict" --samples 60
"$CLI" dict build "$OBS_DIR/s1196.bench" "$OBS_DIR/s1196b.dict" --samples 60
cmp "$OBS_DIR/s1196.dict" "$OBS_DIR/s1196b.dict"
"$CLI" dict verify "$OBS_DIR/s1196.dict"

# dict info must list exactly the format-v2 sections, each crc spelled as
# 16 lowercase hex digits, under a byte total equal to the file's size.
"$CLI" dict info "$OBS_DIR/s1196.dict" > "$OBS_DIR/dict_info.txt"
python3 - "$OBS_DIR/dict_info.txt" "$OBS_DIR/s1196.dict" <<'EOF'
import os, re, sys
with open(sys.argv[1]) as f:
    lines = f.read().splitlines()
totals = [int(m.group(1)) for l in lines
          if (m := re.fullmatch(r"  (\d+) bytes, sections:", l))]
assert totals == [os.path.getsize(sys.argv[2])], \
    (totals, os.path.getsize(sys.argv[2]))
sections = [m.groups() for l in lines
            if (m := re.fullmatch(r"    (\S+) +offset +\d+ +\d+ bytes  crc (\S+)",
                                  l))]
names = [name for name, _ in sections]
assert names == ["patterns", "cones", "m", "e"], names
for name, crc in sections:
    assert re.fullmatch(r"[0-9a-f]{16}", crc), (name, crc)
print(f"dict info ok: sections {' '.join(names)}, {totals[0]} bytes")
EOF

# Cross-version golden gate: the served bytes must not move when the store
# format or the scoring loop does.  The committed request, queried from
# the fresh store, must answer with the committed responses; only run_id,
# the store fingerprint (it folds in the format version), may differ.
without_run_id() { # in_file out_file
  sed -E 's/"run_id":"[0-9a-f]{16}"/"run_id":""/' "$1" > "$2"
}
for MATCH in e s; do
  "$CLI" dict query "$OBS_DIR/s1196.dict" \
    --request tests/data/golden/s1196_query.req.json --match "$MATCH" \
    --out "$OBS_DIR/golden_query_$MATCH.json"
  without_run_id "$OBS_DIR/golden_query_$MATCH.json" "$OBS_DIR/got_$MATCH.json"
  without_run_id "tests/data/golden/s1196_query_$MATCH.json" \
    "$OBS_DIR/want_$MATCH.json"
  cmp "$OBS_DIR/got_$MATCH.json" "$OBS_DIR/want_$MATCH.json"
done
echo "golden query ok: match e and s byte-identical to the committed responses"

# Draw a batch of failing chips and render the in-process reference
# response -- the bytes every socket replay below must reproduce exactly.
"$CLI" dict chips "$OBS_DIR/s1196.bench" "$OBS_DIR/s1196.dict" \
  --chips 4 --out "$OBS_DIR/serve_req.json"
"$CLI" dict query "$OBS_DIR/s1196.dict" --request "$OBS_DIR/serve_req.json" \
  --out "$OBS_DIR/serve_ref.json"

wait_ready() { # log_file
  for _ in $(seq 1 100); do
    grep -q "serve: ready" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "error: server never became ready ($1)" >&2
  cat "$1" >&2
  return 1
}

# First server: answer the batch once, then SIGKILL it mid-request (the
# --hold-s stall guarantees a request is in flight when the kill lands).
"$CLI" serve "$OBS_DIR/s1196.dict" --socket "$OBS_DIR/serve.sock" \
  --hold-s 0.5 > "$OBS_DIR/serve1.log" 2>&1 &
SERVE_PID=$!
wait_ready "$OBS_DIR/serve1.log"
"$CLI" dict query - --request "$OBS_DIR/serve_req.json" \
  --socket "$OBS_DIR/serve.sock" --out "$OBS_DIR/serve_resp1.json"
cmp "$OBS_DIR/serve_ref.json" "$OBS_DIR/serve_resp1.json"
"$CLI" dict query - --request "$OBS_DIR/serve_req.json" \
  --socket "$OBS_DIR/serve.sock" --out "$OBS_DIR/serve_orphan.json" \
  > /dev/null 2>&1 &
KILLED_CLIENT=$!
sleep 0.2
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
wait "$KILLED_CLIENT" 2>/dev/null || true

# Restart on the same store file and replay the same batch: the mmap'd
# store survived the SIGKILL untouched and diagnosis is idempotent, so the
# replayed response must be byte-identical to the in-process reference.
SDDD_LEDGER="$OBS_DIR/serve_ledger.jsonl" \
  "$CLI" serve "$OBS_DIR/s1196.dict" --socket "$OBS_DIR/serve.sock" \
  > "$OBS_DIR/serve2.log" 2>&1 &
SERVE_PID=$!
wait_ready "$OBS_DIR/serve2.log"
"$CLI" dict query - --request "$OBS_DIR/serve_req.json" \
  --socket "$OBS_DIR/serve.sock" --out "$OBS_DIR/serve_resp2.json"
cmp "$OBS_DIR/serve_ref.json" "$OBS_DIR/serve_resp2.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q '"tool":"serve"' "$OBS_DIR/serve_ledger.jsonl"
echo "serve crash-replay ok: responses byte-identical across SIGKILL+restart"

echo "== [11/14] store corruption smoke (quarantine + degraded health) =="
# A second store from a different circuit, then poison the FIRST store's
# header checksum verify at open (store.crc ordinal 0).  The server must
# come up degraded, keep serving the healthy store, and drain with exit 0.
./build/tools/sddd_cli synth "$OBS_DIR/alt.bench" \
  --inputs 10 --outputs 6 --gates 60 --depth 8 --seed 3
"$CLI" dict build "$OBS_DIR/alt.bench" "$OBS_DIR/alt.dict" --samples 60
"$CLI" dict chips "$OBS_DIR/alt.bench" "$OBS_DIR/alt.dict" \
  --chips 2 --out "$OBS_DIR/alt_req.json"
"$CLI" dict query "$OBS_DIR/alt.dict" --request "$OBS_DIR/alt_req.json" \
  --out "$OBS_DIR/alt_ref.json"
printf '{"op":"health"}' > "$OBS_DIR/health_req.json"

SDDD_FAULTS="store.crc@0" \
  "$CLI" serve "$OBS_DIR/s1196.dict" "$OBS_DIR/alt.dict" \
  --socket "$OBS_DIR/serve.sock" > "$OBS_DIR/serve3.log" 2>&1 &
SERVE_PID=$!
wait_ready "$OBS_DIR/serve3.log"
grep -q "quarantined=1" "$OBS_DIR/serve3.log"
"$CLI" dict query - --request "$OBS_DIR/health_req.json" \
  --socket "$OBS_DIR/serve.sock" --out "$OBS_DIR/health.json"
python3 - "$OBS_DIR/health.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    health = json.load(f)
assert health["ok"] and health["degraded"], health
states = {s["path"].rsplit("/", 1)[-1]: s["state"] for s in health["stores"]}
assert states["s1196.dict"] == "quarantined", states
assert states["alt.dict"] == "serving", states
print(f"health ok: degraded=true, {states}")
PYEOF
"$CLI" dict query - --request "$OBS_DIR/alt_req.json" \
  --socket "$OBS_DIR/serve.sock" --out "$OBS_DIR/alt_resp.json"
cmp "$OBS_DIR/alt_ref.json" "$OBS_DIR/alt_resp.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
echo "corruption smoke ok: quarantined store isolated, healthy store served, exit 0"

echo "== [12/14] live observability smoke (stats, tracing, drain flush) =="
# A server with the full observability surface wired: concurrent clients,
# then the stats op in both renderings, a SIGUSR1 live dump, and a
# SIGTERM drain that must leave a complete metrics snapshot behind.
SDDD_METRICS="$OBS_DIR/serve_metrics.json" \
  "$CLI" serve "$OBS_DIR/s1196.dict" --socket "$OBS_DIR/serve.sock" \
  > "$OBS_DIR/serve4.log" 2>&1 &
SERVE_PID=$!
wait_ready "$OBS_DIR/serve4.log"
CLIENT_PIDS=()
for i in 1 2 3; do
  "$CLI" dict query - --request "$OBS_DIR/serve_req.json" \
    --socket "$OBS_DIR/serve.sock" --out "$OBS_DIR/obs_resp_$i.json" \
    > /dev/null 2>&1 &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do wait "$pid"; done
for i in 1 2 3; do
  cmp "$OBS_DIR/serve_ref.json" "$OBS_DIR/obs_resp_$i.json"
done

./build/tools/sddd_cli stats --socket "$OBS_DIR/serve.sock" --json \
  > "$OBS_DIR/stats.json"
./build/tools/sddd_cli stats --socket "$OBS_DIR/serve.sock" --prom \
  > "$OBS_DIR/stats.prom"
python3 - "$OBS_DIR/stats.json" "$OBS_DIR/stats.prom" <<'EOF'
import json, re, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
assert stats["ok"] and stats["op"] == "stats", stats
assert stats["uptime_s"] > 0 and not stats["draining"], stats
win = stats["window"]
hists = win["histograms"]
# Every request phase was measured: the rolling histograms are non-empty
# and internally consistent (bucket counts sum to the total).
for phase in ("parse_us", "queue_us", "score_us", "render_us", "write_us"):
    h = hists[f"serve.phase.{phase}"]
    assert h["total"] >= 3, f"serve.phase.{phase} total {h['total']}"
    assert sum(h["counts"]) == h["total"], f"serve.phase.{phase} counts"
    assert len(h["counts"]) == len(h["bounds"]) + 1
req = hists["serve.request_us"]
assert req["total"] >= 3 and req["p50"] > 0 and req["p99"] >= req["p50"]
assert win["counters"]["serve.served"] >= 3
assert win["counters"]["serve.requests"] >= 3
assert stats["counters"]["serve.served"] >= 3, "cumulative family missing"
# The slow ring carries the slowest requests, slowest first, each with a
# well-formed trace id and the full phase breakdown.
slow = stats["slow"]
assert slow, "slow-request ring is empty"
totals = [s["total_us"] for s in slow]
assert totals == sorted(totals, reverse=True), totals
for s in slow:
    assert re.fullmatch(r"[A-Za-z0-9._-]{1,64}", s["trace_id"]), s
    assert set(s["phases"]) == {"parse_us", "queue_us", "score_us",
                                "render_us", "write_us"}, s["phases"]
# Prometheus rendering: every line is a comment or `name[{labels}] value`
# with a parseable value; the phase histograms expose CUMULATIVE buckets
# whose +Inf count equals _count.
name_re = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*(\{[^{}]*\})?")
buckets, bucket_count = [], None
with open(sys.argv[2]) as f:
    prom = f.read().splitlines()
assert prom, "empty Prometheus exposition"
for line in prom:
    if not line or line.startswith("#"):
        continue
    name, _, value = line.rpartition(" ")
    assert name_re.fullmatch(name), f"bad series name: {line!r}"
    float(value)  # must parse (raises on garbage)
    if name.startswith('sddd_win_serve_phase_parse_us_bucket{'):
        buckets.append(float(value))
    if name == "sddd_win_serve_phase_parse_us_count":
        bucket_count = float(value)
assert buckets == sorted(buckets), f"buckets not cumulative: {buckets}"
assert bucket_count is not None and buckets[-1] == bucket_count
assert any(l.startswith("sddd_win_serve_served") for l in prom), prom
assert any(l.startswith("# TYPE sddd_") for l in prom)
print(f"stats ok: {req['total']} requests windowed, p50 {req['p50']:.0f}us, "
      f"{len(slow)} slow entries, {len(prom)} Prometheus lines")
EOF

# SIGUSR1: the server prints a live stats snapshot and keeps serving.
kill -USR1 "$SERVE_PID"
for _ in $(seq 1 50); do
  grep -q '"op":"stats"' "$OBS_DIR/serve4.log" && break
  sleep 0.1
done
grep -q '"op":"stats"' "$OBS_DIR/serve4.log"
"$CLI" dict query - --request "$OBS_DIR/serve_req.json" \
  --socket "$OBS_DIR/serve.sock" --out "$OBS_DIR/obs_resp_after.json"
cmp "$OBS_DIR/serve_ref.json" "$OBS_DIR/obs_resp_after.json"

# SIGTERM drain: the metrics snapshot must be flushed by the drain path
# itself (complete JSON on disk the moment the process exits).
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
python3 - "$OBS_DIR/serve_metrics.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    metrics = json.load(f)
counters = metrics["counters"]
assert counters.get("serve.requests", 0) >= 4, counters.get("serve.requests")
assert counters.get("serve.served", 0) >= 4, counters.get("serve.served")
assert "serve.request_us" in metrics["histograms"], "no latency histogram"
print(f"drain flush ok: {counters['serve.requests']} requests in the "
      f"flushed snapshot")
EOF

# serve.store fault: the first diagnose quarantines mid-flight; the
# postmortem bundle must carry the offending request's trace id (the
# serve.request event key is the parsed canonical id).
SDDD_FAULTS="serve.store@0" SDDD_POSTMORTEM="$OBS_DIR/quar_pm.json" \
  "$CLI" serve "$OBS_DIR/s1196.dict" --socket "$OBS_DIR/serve.sock" \
  > "$OBS_DIR/serve5.log" 2>&1 &
SERVE_PID=$!
wait_ready "$OBS_DIR/serve5.log"
python3 - "$OBS_DIR/serve.sock" "$OBS_DIR/serve_req.json" <<'EOF'
import json, socket, struct, sys
with open(sys.argv[2]) as f:
    req = json.load(f)
req["trace_id"] = "deadbeefcafe0001"
payload = json.dumps(req, separators=(",", ":")).encode()
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(struct.pack(">I", len(payload)) + payload)
def read_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        assert chunk, "server closed mid-frame"
        buf += chunk
    return buf
(length,) = struct.unpack(">I", read_exact(4))
resp = json.loads(read_exact(length))
assert resp["trace_id"] == "deadbeefcafe0001", resp.get("trace_id")
assert resp["payload"]["error"] == "store_quarantined", resp["payload"]
print("quarantine response ok: trace id echoed through the envelope")
EOF
# Read the bundle BEFORE draining: the drain path writes its own
# postmortem over the same file.
python3 - "$OBS_DIR/quar_pm.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    pm = json.load(f)
assert pm["reason"] == "serve.quarantine", pm["reason"]
events = [e for e in pm["events"]
          if e["kind"] == "serve.request" and e.get("detail") == "quarantine"]
assert events, f"no quarantine serve.request event in {pm['reason']}"
want = int("deadbeefcafe0001", 16)
assert any(e["key"] == want for e in events), \
    [hex(e["key"]) for e in events]
print(f"quarantine postmortem ok: event key {hex(want)} matches the "
      f"client trace id")
EOF
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || true
echo "live observability smoke ok"

echo "== [13/14] perf sentry gate (must fire on injected slowdown) =="
# Deterministic proof on a synthetic history: the sentry passes a healthy
# run and FAILS the same run under --inject-slowdown 2.0.
python3 tools/selfcheck_bench_tools.py "$OBS_DIR"
# Then the real history: every line must parse, and the fresh records must
# sit within the rolling baseline (new hosts and workloads are skipped).
python3 tools/bench_history.py check --history BENCH_history.jsonl --last 3

echo "== [14/14] clang-tidy profile =="
tools/run_static_checks.sh

echo "ci.sh: all gates passed"
