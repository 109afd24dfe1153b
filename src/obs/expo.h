// expo.h - The stats exposition surface: everything a live server knows
// about itself, rendered for humans and scrapers.
//
// A StatsSnapshot bundles the cumulative counters (metrics.h), the
// rolling-window merge (window.h), and a top-N slow-request ring into one
// value that renders two ways:
//
//   stats_to_json(s)        the `stats` wire op's payload - deterministic
//                           key order, %.17g doubles, one line.
//   stats_to_prometheus(s)  Prometheus text exposition (# TYPE lines,
//                           _bucket{le="..."} / _sum / _count per
//                           histogram), names sanitized to the
//                           [a-zA-Z0-9_] charset with an `sddd_` prefix.
//                           Deterministic ordering so scrapes diff.
//
// The SlowRequestRing keeps the N slowest requests seen (by total
// latency), each carrying its trace_id, circuit, batch size and per-phase
// breakdown - the "which request hurt" half of the dashboard.  Eviction
// is deterministic: ties on total latency keep the EARLIER insertion.
//
// Trace-id helpers live here too: ids are canonically 16 lowercase hex
// characters (obs::hex64 of a 64-bit value); trace_key() inverts that for
// the flight recorder's integer event keys, hashing non-canonical ids so
// any client-supplied tag still lands a stable key.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/window.h"

namespace sddd::obs {

// ---------------------------------------------------------------------------
// Trace ids

/// True when `id` is non-empty, at most 64 chars, and drawn from
/// [A-Za-z0-9._-] - safe to embed unescaped in a response envelope.
bool valid_trace_id(std::string_view id);

/// The 64-bit key a trace id contributes to flight-recorder events: the
/// parsed value for canonical (<= 16 hex chars) ids, an FNV-1a-64 hash
/// otherwise.  hex64(trace_key(hex64(v))) == hex64(v).
std::uint64_t trace_key(std::string_view id);

// ---------------------------------------------------------------------------
// Slow-request ring

struct SlowRequest {
  std::string trace_id;
  std::string circuit;  ///< which store served it ("" for non-diagnose)
  std::uint64_t batch = 0;  ///< chips in the request
  std::uint64_t total_us = 0;
  /// Phase breakdown, keyed by phase name ("parse_us", "queue_us", ...).
  std::map<std::string, std::uint64_t> phases_us;
};

/// Bounded, mutex-guarded top-N by total_us.  insert() is O(capacity) -
/// fine at capacity ~32 against requests that each cost milliseconds.
class SlowRequestRing {
 public:
  explicit SlowRequestRing(std::size_t capacity = 32)
      : capacity_(capacity) {}

  SlowRequestRing(const SlowRequestRing&) = delete;
  SlowRequestRing& operator=(const SlowRequestRing&) = delete;

  void insert(SlowRequest request);

  /// Snapshot sorted slowest-first; ties keep insertion order.
  std::vector<SlowRequest> top() const;

  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::uint64_t seq = 0;
    SlowRequest request;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Stats snapshot + renderers

struct StatsSnapshot {
  std::string service = "sddd.serve";
  std::string git_sha;
  double uptime_s = 0.0;
  bool draining = false;
  std::uint64_t inflight = 0;
  /// Cumulative since process start (the serve.* counter family).
  std::map<std::string, std::uint64_t> counters;
  /// The last-60-seconds merge.
  WindowSnapshot window;
  /// Slowest requests, slowest first.
  std::vector<SlowRequest> slow;
};

/// The `stats` op's JSON payload: {"ok":true,"op":"stats",...}.
std::string stats_to_json(const StatsSnapshot& s);

/// Prometheus text exposition of the same snapshot.
std::string stats_to_prometheus(const StatsSnapshot& s);

}  // namespace sddd::obs
