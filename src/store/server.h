// server.h - The resilient batch diagnosis server (`sddd_cli serve`).
//
// A long-running process that mmaps one or more dictionary stores ONCE at
// startup and answers batched diagnosis requests over length-prefixed
// JSON frames (wire.h) on a unix and/or TCP socket.  The design goal is
// the robustness ladder DESIGN.md section 15 spells out: the server never
// crashes and never wrong-answers - every failure mode downgrades to a
// TYPED error response or a smaller healthy surface:
//
//   corrupt store at open  -> that dictionary is QUARANTINED (state +
//                             reason in the health response); the rest
//                             keep serving.
//   request deadline hit   -> {"ok":false,"error":"deadline"} for that
//                             request; the connection lives on.
//   too many in flight     -> {"ok":false,"error":"overloaded"} shed
//                             immediately (bounded backpressure, never an
//                             unbounded queue).
//   malformed frame / JSON -> {"ok":false,"error":"parse"|"bad_request"}.
//   SIGTERM / SIGINT       -> drain: in-flight requests finish, sockets
//                             close, a ledger record + flight-recorder
//                             postmortem land, exit 0.
//
// Protocol ops: "diagnose" (chips -> diagnose_batch_json bytes, identical
// to `sddd_cli dict query`), "health", "stats", "shutdown".  See DESIGN.md
// sections 15 and 16 for the full request/response grammar.
//
// Live observability (DESIGN.md section 16): every response is wrapped in
// a trace envelope ({"trace_id":...,"payload":<bytes>}, wire.h) - the
// payload stays byte-identical to the offline path; requests may carry
// their own "trace_id", absent ones get a server-minted id.  Per-request
// phase latencies (parse / queue / score / render / write) land in a
// rolling 60-second window (obs/window.h) plus a slow-request ring, both
// exposed by the budget-free "stats" op (obs/expo.h) and dumped by
// SIGUSR1 without draining.
//
// Fault seams (obs/faults.h): `serve.accept` (k = accept ordinal) drops
// a just-accepted connection; `serve.write` (k = response ordinal) kills
// the connection instead of writing the response; `serve.deadline`
// (k = request ordinal) forces that request's deadline already expired;
// `serve.store` (k = request ordinal) throws a StoreError mid-diagnose,
// exercising the quarantine-on-serve path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/expo.h"
#include "obs/json.h"
#include "obs/window.h"
#include "store/query.h"
#include "store/store.h"

namespace sddd::store {

struct ServerConfig {
  std::vector<std::string> store_paths;
  std::string unix_socket;  ///< empty = no unix listener
  int tcp_port = -1;        ///< -1 = no TCP listener; 0 = ephemeral port
  /// Diagnose requests processed concurrently before new ones are shed
  /// with "overloaded".  0 sheds everything (deterministic test mode).
  std::size_t max_inflight = 4;
  std::uint64_t default_deadline_ms = 0;  ///< 0 = no deadline unless asked
  std::size_t max_frame_bytes = 8u << 20;
  std::size_t default_top_k = 10;  ///< ranked suspects per method
  std::string git_sha;             ///< stamped into the session ledger row
  /// Test-only: hold every diagnose request this long before scoring so
  /// tests can force deterministic overlap (backpressure, deadlines).
  double test_hold_seconds = 0.0;
  /// Seconds clock for the rolling metrics window; null = wall time.
  /// Tests inject a fake so bucket rotation never sleeps.
  std::function<std::uint64_t()> window_clock;
  /// Slowest requests the `stats` op remembers.
  std::size_t slow_ring_capacity = 32;
};

/// One dictionary as the server sees it.
struct StoreState {
  std::string path;
  std::string run_id;   ///< "" when the header never parsed
  std::string circuit;  ///< "" when the header never parsed
  bool quarantined = false;
  std::string error;  ///< why (StoreError text), "" when serving
};

class DiagnosisServer {
 public:
  explicit DiagnosisServer(ServerConfig config);
  ~DiagnosisServer();

  DiagnosisServer(const DiagnosisServer&) = delete;
  DiagnosisServer& operator=(const DiagnosisServer&) = delete;

  /// Opens every store (quarantining failures), binds the sockets and
  /// spawns the accept loops.  Throws sddd::IoError when no listener
  /// could be bound.
  void start();

  /// Begins the drain: listeners stop accepting, idle connections close,
  /// in-flight requests run to completion.  Idempotent; callable from any
  /// thread (including a request handler serving the "shutdown" op).
  void request_drain();

  /// Blocks until a drain is requested, then joins every thread, appends
  /// the session ledger record (when SDDD_LEDGER is set) and dumps the
  /// flight-recorder postmortem.  Call exactly once, after start().
  void wait();

  /// The TCP port actually bound (ephemeral resolution); -1 without TCP.
  int tcp_port() const { return tcp_port_; }

  std::vector<StoreState> store_states() const;
  bool drain_requested() const { return drain_.load(); }

  /// The `stats` op's payload (also what SIGUSR1 prints): cumulative
  /// serve.* counters, the rolling-window merge, and the slow-request
  /// ring.  `format` "prom" wraps the Prometheus text exposition instead.
  std::string stats_json(const std::string& format = "") const;

 private:
  struct LoadedStore {
    StoreState state;
    std::unique_ptr<DictionaryStore> store;    ///< null when quarantined
    std::unique_ptr<StoreQueryEngine> engine;  ///< null when quarantined
  };

  /// Per-request observability context, threaded from the connection loop
  /// through dispatch so phases and identity survive the error ladder.
  struct RequestTrace {
    std::string trace_id;  ///< client-supplied or server-minted
    std::string op;
    std::string outcome;  ///< "ok", "shed", "deadline", "quarantine", ...
    std::string circuit;  ///< which store served a diagnose
    std::uint64_t batch = 0;  ///< chips in a diagnose request
    std::uint64_t parse_us = 0;
    std::uint64_t queue_us = 0;
    std::uint64_t score_us = 0;
    std::uint64_t render_us = 0;
    std::uint64_t write_us = 0;
  };

  void accept_loop(int listen_fd);
  void handle_connection(int fd);
  /// Routes + executes one request, returns the response payload (the
  /// caller wraps it in the trace envelope).
  std::string handle_request(const std::string& frame, RequestTrace* rt);
  std::string handle_diagnose(const obs::JsonValue& req, RequestTrace* rt);
  std::string health_json() const;
  LoadedStore* route_store(const std::string& selector, std::string* error);
  /// Lands one finished diagnose in the window histograms, the cumulative
  /// latency histogram, and the slow-request ring.
  void observe_request(const RequestTrace& rt, std::uint64_t total_us);

  ServerConfig config_;
  obs::WindowRegistry windows_;
  obs::SlowRequestRing slow_ring_;
  std::vector<LoadedStore> stores_;
  mutable std::mutex stores_mu_;  ///< guards quarantine transitions

  std::vector<int> listen_fds_;
  int tcp_port_ = -1;
  std::atomic<bool> drain_{false};
  std::atomic<std::size_t> inflight_{0};
  std::uint64_t start_ns_ = 0;

  std::mutex threads_mu_;
  std::vector<std::thread> accept_threads_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;  ///< open connections (guarded by threads_mu_)

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

/// The `sddd_cli serve` body: installs SIGTERM/SIGINT drain handlers and
/// a SIGUSR1 stats handler (prints the stats payload and dumps a
/// flight-recorder postmortem WITHOUT draining), starts the server,
/// prints one machine-readable ready line to stdout ("serve: ready
/// unix=... tcp_port=... stores=N quarantined=M"), and blocks until
/// drained.  Returns the process exit code (0 on a clean drain,
/// including under quarantined stores - degradation is not failure).
int serve_main(const ServerConfig& config);

}  // namespace sddd::store
