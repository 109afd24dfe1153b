// workloads.h - The three benchmark workloads.
//
// Each fills `out` with its end-to-end metrics (always measured untraced)
// and, when opts.trace is set, with the per-layer metrics of a second,
// traced pass over the same inputs.  Correctness failures go through
// Result::fail_check.
#pragma once

#include "bench_util.h"

namespace perfbench {

/// eval::run_diagnosis_experiment at Table-I defaults: injection, ATPG,
/// detectability gate, observation and kernel scoring per trial.
void run_table1(const Options& opts, SpanRecorder& spans, Result& out);

/// A DiagnosisServer over a freshly built dictionary store, driven by an
/// open-loop and a closed-loop load generator on a unix socket.
void run_serve(const Options& opts, SpanRecorder& spans, Result& out);

/// In-memory Diagnoser (kernel + cold SignatureCache) over many chips that
/// share one pattern set.
void run_diagnose(const Options& opts, SpanRecorder& spans, Result& out);

}  // namespace perfbench
