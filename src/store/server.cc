#include "store/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/codec.h"
#include "obs/error.h"
#include "obs/expo.h"
#include "obs/faults.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "runtime/cancel.h"
#include "runtime/parallel_for.h"
#include "store/wire.h"

namespace sddd::store {

namespace {

// Seam ordinals (see server.h header comment): process-wide so a fault
// selector like serve.write@%3 targets a deterministic response sequence
// regardless of which connection carries it.
std::atomic<std::uint64_t> g_accept_ordinal{0};
std::atomic<std::uint64_t> g_request_ordinal{0};
std::atomic<std::uint64_t> g_response_ordinal{0};

// Server-minted trace ids: deterministic hex16 of a process-wide request
// counter, so a replayed request sequence mints the same identities.
std::atomic<std::uint64_t> g_trace_ordinal{0};

std::string mint_trace_id() {
  return obs::hex16(g_trace_ordinal.fetch_add(1) + 1);
}

// Phase/request latency bucket bounds, microseconds: 100us .. 5s.
constexpr double kLatencyBoundsUs[] = {
    100.0,    250.0,    500.0,    1000.0,    2500.0,    5000.0,
    10000.0,  25000.0,  50000.0,  100000.0,  250000.0,  500000.0,
    1000000.0, 2500000.0, 5000000.0};

std::uint64_t elapsed_us(std::uint64_t since_ns) {
  return (obs::now_ns() - since_ns) / 1000;
}

obs::Counter& serve_connections_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("serve.connections");
  return c;
}
obs::Counter& serve_requests_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("serve.requests");
  return c;
}
obs::Counter& serve_served_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("serve.served");
  return c;
}
obs::Counter& serve_shed_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("serve.shed");
  return c;
}
obs::Counter& serve_deadline_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("serve.deadline_hits");
  return c;
}
obs::Counter& serve_quarantined_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("serve.quarantined");
  return c;
}
obs::Histogram& serve_request_us_histogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().register_histogram("serve.request_us",
                                                          kLatencyBoundsUs);
  return h;
}

std::string error_json(const std::string& code, const std::string& message) {
  std::string out = "{\"ok\":false,\"error\":";
  out.append(obs::json_string(code));
  out.append(",\"message\":");
  out.append(obs::json_string(message));
  out.push_back('}');
  return out;
}

/// Decrements on scope exit (the in-flight guard's release half).
struct InflightRelease {
  std::atomic<std::size_t>* n;
  ~InflightRelease() { n->fetch_sub(1); }
};

}  // namespace

DiagnosisServer::DiagnosisServer(ServerConfig config)
    : config_(std::move(config)),
      windows_(config_.window_clock),
      slow_ring_(config_.slow_ring_capacity) {}

DiagnosisServer::~DiagnosisServer() {
  // A server destroyed without wait() (start() threw) has no threads.
  for (const int fd : listen_fds_) ::close(fd);
}

void DiagnosisServer::start() {
  start_ns_ = obs::now_ns();
  for (const std::string& path : config_.store_paths) {
    LoadedStore loaded;
    loaded.state.path = path;
    try {
      loaded.store = std::make_unique<DictionaryStore>(path);
      loaded.engine = std::make_unique<StoreQueryEngine>(*loaded.store);
      loaded.state.run_id = loaded.store->run_id();
      loaded.state.circuit = loaded.store->circuit();
    } catch (const Error& e) {
      // Quarantine, don't die: the health response carries the reason and
      // every other dictionary keeps serving.
      loaded.state.quarantined = true;
      loaded.state.error = e.what();
      serve_quarantined_counter().add(1);
      SDDD_LOG_WARN("serve: quarantined %s: %s", path.c_str(), e.what());
    }
    stores_.push_back(std::move(loaded));
  }

  if (!config_.unix_socket.empty()) {
    const int fd = listen_unix(config_.unix_socket);
    if (fd < 0) {
      throw IoError("serve: cannot listen on unix socket " +
                    config_.unix_socket + ": " + std::strerror(errno));
    }
    listen_fds_.push_back(fd);
  }
  if (config_.tcp_port >= 0) {
    const int fd = listen_tcp(config_.tcp_port);
    if (fd < 0) {
      throw IoError("serve: cannot listen on tcp port " +
                    std::to_string(config_.tcp_port) + ": " +
                    std::strerror(errno));
    }
    tcp_port_ = listening_port(fd);
    listen_fds_.push_back(fd);
  }
  if (listen_fds_.empty()) {
    throw IoError("serve: no listener configured (need --socket or --port)");
  }
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
}

void DiagnosisServer::accept_loop(int listen_fd) {
  while (!drain_.load()) {
    pollfd p{listen_fd, POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    if (r <= 0) continue;  // timeout or EINTR: re-check the drain flag
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    const std::uint64_t k = g_accept_ordinal.fetch_add(1);
    if (obs::fault_at("serve.accept", k)) {
      // Injected accept failure: the client sees a dropped connection and
      // must retry; the server just keeps accepting.
      ::close(fd);
      continue;
    }
    serve_connections_counter().add(1);
    std::lock_guard<std::mutex> lock(threads_mu_);
    if (drain_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
  ::close(listen_fd);
}

void DiagnosisServer::handle_connection(int fd) {
  std::string frame;
  while (true) {
    // Idle connections notice the drain between frames; a request already
    // being processed below always runs to completion first.
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    if (drain_.load() && r <= 0) break;
    if (r <= 0) continue;
    const FrameStatus status =
        read_frame(fd, config_.max_frame_bytes, &frame);
    if (status == FrameStatus::kEof || status == FrameStatus::kError) break;
    RequestTrace rt;
    const std::uint64_t t_begin = obs::now_ns();
    std::string payload;
    if (status == FrameStatus::kTooBig) {
      rt.outcome = "bad_request";
      payload = error_json("bad_request",
                           "frame exceeds " +
                               std::to_string(config_.max_frame_bytes) +
                               " bytes");
    } else {
      payload = handle_request(frame, &rt);
    }
    // Unparseable or id-less requests still get an identity: mint one.
    if (rt.trace_id.empty()) rt.trace_id = mint_trace_id();
    const std::uint64_t t_render = obs::now_ns();
    const std::string response =
        wrap_response_envelope(rt.trace_id, payload);
    rt.render_us = elapsed_us(t_render);
    const std::uint64_t k = g_response_ordinal.fetch_add(1);
    if (obs::fault_at("serve.write", k)) {
      // Injected write failure: drop the connection without responding;
      // the client's retry path replays against a fresh connection.
      break;
    }
    const std::uint64_t t_write = obs::now_ns();
    const bool wrote = write_frame(fd, response);
    rt.write_us = elapsed_us(t_write);
    if (rt.op == "diagnose") observe_request(rt, elapsed_us(t_begin));
    if (!wrote) break;
    if (status == FrameStatus::kTooBig) break;  // framing is unrecoverable
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  std::lock_guard<std::mutex> lock(threads_mu_);
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
}

std::string DiagnosisServer::handle_request(const std::string& frame,
                                            RequestTrace* rt) {
  serve_requests_counter().add(1);
  windows_.counter("serve.requests").add(1);
  JsonValue req;
  const std::uint64_t t_parse = obs::now_ns();
  try {
    req = parse_json(frame);
  } catch (const Error& e) {
    rt->parse_us = elapsed_us(t_parse);
    rt->outcome = "parse";
    return error_json("parse", e.what());
  }
  rt->parse_us = elapsed_us(t_parse);
  if (!req.is_object()) {
    rt->outcome = "bad_request";
    return error_json("bad_request", "request must be a JSON object");
  }
  // Echo a well-formed client trace id; anything else (absent, too long,
  // characters the envelope cannot embed raw) gets a minted one.  Unknown
  // request fields are simply ignored - forward compatibility.
  const std::string client_id = req.get_string("trace_id");
  if (obs::valid_trace_id(client_id)) rt->trace_id = client_id;
  const std::string op = req.get_string("op");
  rt->op = op;
  // health and stats bypass the in-flight budget: an overloaded or
  // draining server must stay observable.
  if (op == "health") return health_json();
  if (op == "stats") return stats_json(req.get_string("format"));
  if (op == "shutdown") {
    request_drain();
    return "{\"ok\":true,\"op\":\"shutdown\"}";
  }
  if (op == "diagnose") {
    if (drain_.load()) {
      rt->outcome = "shutting_down";
      return error_json("shutting_down", "server is draining");
    }
    return handle_diagnose(req, rt);
  }
  rt->outcome = "bad_request";
  return error_json("bad_request", "unknown op '" + op + "'");
}

DiagnosisServer::LoadedStore* DiagnosisServer::route_store(
    const std::string& selector, std::string* error) {
  std::lock_guard<std::mutex> lock(stores_mu_);
  if (selector.empty()) {
    LoadedStore* only = nullptr;
    for (auto& s : stores_) {
      if (s.state.quarantined) continue;
      if (only != nullptr) {
        *error = error_json("bad_request",
                            "several stores are serving; pass \"store\"");
        return nullptr;
      }
      only = &s;
    }
    if (only == nullptr) {
      *error = error_json("store_quarantined", "no healthy store is serving");
    }
    return only;
  }
  LoadedStore* match = nullptr;
  for (auto& s : stores_) {
    const bool hit =
        s.state.circuit == selector || s.state.path == selector ||
        (selector.size() >= 4 && s.state.run_id.rfind(selector, 0) == 0);
    if (hit) {
      match = &s;
      break;
    }
  }
  if (match == nullptr) {
    *error = error_json("unknown_store", "no store matches '" + selector +
                                             "'");
    return nullptr;
  }
  if (match->state.quarantined) {
    *error = error_json("store_quarantined",
                        match->state.path + ": " + match->state.error);
    return nullptr;
  }
  return match;
}

std::string DiagnosisServer::handle_diagnose(const JsonValue& req,
                                             RequestTrace* rt) {
  const std::uint64_t trace_key = obs::trace_key(rt->trace_id);
  // Bounded backpressure: admission is a single fetch_add against the
  // budget - there is no queue to grow without bound, an overloaded
  // server answers instantly with a typed shed.
  if (inflight_.fetch_add(1) >= config_.max_inflight) {
    inflight_.fetch_sub(1);
    serve_shed_counter().add(1);
    windows_.counter("serve.shed").add(1);
    rt->outcome = "shed";
    obs::Recorder::instance().record(obs::EventKind::kServeRequest, "shed",
                                     trace_key);
    return error_json("overloaded",
                      "in-flight budget (" +
                          std::to_string(config_.max_inflight) +
                          ") exhausted; retry with backoff");
  }
  const InflightRelease release{&inflight_};

  std::string route_error;
  LoadedStore* loaded = route_store(req.get_string("store"), &route_error);
  if (loaded == nullptr) {
    rt->outcome = "unrouted";
    return route_error;
  }
  rt->circuit = loaded->state.circuit;
  windows_.counter("store." + loaded->state.circuit).add(1);

  const std::string match = req.get_string("match", "e");
  if (match != "e" && match != "s") {
    rt->outcome = "bad_request";
    return error_json("bad_request", "match must be \"e\" or \"s\"");
  }
  const auto top_k = static_cast<std::size_t>(std::max(
      0.0, req.get_number("top", static_cast<double>(config_.default_top_k))));
  const double deadline_ms = req.get_number(
      "deadline_ms", static_cast<double>(config_.default_deadline_ms));

  const std::uint64_t request_k = g_request_ordinal.fetch_add(1);
  runtime::CancelToken token;
  if (obs::fault_at("serve.deadline", request_k)) {
    token.set_deadline_ns(1);  // already expired: the deadline path, forced
  } else if (deadline_ms > 0.0) {
    token.set_deadline_after_seconds(deadline_ms / 1000.0);
  }

  try {
    const runtime::ScopedCancelToken ambient(&token);
    // "queue" is admission-to-scoring: the deliberate test hold plus any
    // deadline bookkeeping before real work starts.
    const std::uint64_t t_queue = obs::now_ns();
    if (config_.test_hold_seconds > 0.0) {
      const std::uint64_t until =
          obs::now_ns() +
          static_cast<std::uint64_t>(config_.test_hold_seconds * 1e9);
      while (obs::now_ns() < until) {
        token.poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    token.poll();
    rt->queue_us = elapsed_us(t_queue);

    const JsonValue* chips_json = req.get("chips");
    if (chips_json == nullptr || !chips_json->is_array()) {
      rt->outcome = "bad_request";
      return error_json("bad_request", "missing \"chips\" array");
    }
    const std::uint64_t t_chips = obs::now_ns();
    const DictionaryStore& st = *loaded->store;
    std::vector<ChipQuery> chips;
    chips.reserve(chips_json->array.size());
    for (std::size_t c = 0; c < chips_json->array.size(); ++c) {
      const JsonValue& chip = chips_json->array[c];
      ChipQuery q;
      q.id = chip.get_string("id", std::to_string(c));
      const JsonValue* rows_json = chip.get("b");
      if (rows_json == nullptr || !rows_json->is_array()) {
        rt->outcome = "bad_request";
        return error_json("bad_request",
                          "chip " + q.id + ": missing \"b\" rows");
      }
      std::vector<std::string> rows;
      rows.reserve(rows_json->array.size());
      for (const JsonValue& row : rows_json->array) {
        if (!row.is_string()) {
          rt->outcome = "bad_request";
          return error_json("bad_request",
                            "chip " + q.id + ": \"b\" rows must be strings");
        }
        rows.push_back(row.string);
      }
      q.B = behavior_from_rows(rows, st.n_outputs(), st.n_patterns());
      chips.push_back(std::move(q));
    }
    rt->parse_us += elapsed_us(t_chips);
    rt->batch = chips.size();

    if (obs::fault_at("serve.store", request_k)) {
      throw StoreError("serve",
                       "injected serve.store fault at request " +
                           std::to_string(request_k));
    }

    const std::uint64_t t_score = obs::now_ns();
    const std::string response =
        diagnose_batch_json(*loaded->engine, chips, match == "e", top_k);
    rt->score_us = elapsed_us(t_score);
    serve_served_counter().add(1);
    windows_.counter("serve.served").add(1);
    rt->outcome = "ok";
    obs::Recorder::instance().record(obs::EventKind::kServeRequest, "ok",
                                     trace_key, rt->batch, request_k);
    return response;
  } catch (const DeadlineError& e) {
    serve_deadline_counter().add(1);
    windows_.counter("serve.deadline").add(1);
    rt->outcome = "deadline";
    obs::Recorder::instance().record(obs::EventKind::kServeRequest,
                                     "deadline", trace_key, rt->batch,
                                     request_k);
    return error_json("deadline", e.what());
  } catch (const CancelledError& e) {
    rt->outcome = "shutting_down";
    return error_json("shutting_down", e.what());
  } catch (const ParseError& e) {
    rt->outcome = "bad_request";
    return error_json("bad_request", e.what());
  } catch (const StoreError& e) {
    // A store that turns bad mid-flight (should be impossible after the
    // open-time sweep, but classified anyway): quarantine it.  The
    // mapping stays alive - another thread may be mid-read - only the
    // routing state flips.
    {
      std::lock_guard<std::mutex> lock(stores_mu_);
      if (!loaded->state.quarantined) {
        loaded->state.quarantined = true;
        loaded->state.error = e.what();
        serve_quarantined_counter().add(1);
      }
    }
    windows_.counter("serve.quarantine").add(1);
    rt->outcome = "quarantine";
    // The postmortem bundle carries the offending request's identity:
    // key = trace key, so an operator can match it to the client's
    // echoed trace_id.
    obs::Recorder::instance().record(obs::EventKind::kServeRequest,
                                     "quarantine", trace_key, rt->batch,
                                     request_k);
    obs::dump_postmortem("serve.quarantine");
    return error_json("store_quarantined", e.what());
  } catch (const Error& e) {
    rt->outcome = "internal";
    return error_json("internal", e.what());
  } catch (const std::exception& e) {
    rt->outcome = "internal";
    return error_json("internal", e.what());
  }
}

void DiagnosisServer::observe_request(const RequestTrace& rt,
                                      std::uint64_t total_us) {
  windows_.histogram("serve.phase.parse_us", kLatencyBoundsUs)
      .record(rt.parse_us);
  windows_.histogram("serve.phase.queue_us", kLatencyBoundsUs)
      .record(rt.queue_us);
  windows_.histogram("serve.phase.score_us", kLatencyBoundsUs)
      .record(rt.score_us);
  windows_.histogram("serve.phase.render_us", kLatencyBoundsUs)
      .record(rt.render_us);
  windows_.histogram("serve.phase.write_us", kLatencyBoundsUs)
      .record(rt.write_us);
  windows_.histogram("serve.request_us", kLatencyBoundsUs).record(total_us);
  serve_request_us_histogram().record(static_cast<double>(total_us));

  obs::SlowRequest slow;
  slow.trace_id = rt.trace_id;
  slow.circuit = rt.circuit;
  slow.batch = rt.batch;
  slow.total_us = total_us;
  slow.phases_us = {{"parse_us", rt.parse_us}, {"queue_us", rt.queue_us},
                    {"score_us", rt.score_us}, {"render_us", rt.render_us},
                    {"write_us", rt.write_us}};
  slow_ring_.insert(std::move(slow));
}

std::string DiagnosisServer::stats_json(const std::string& format) const {
  obs::StatsSnapshot snap;
  snap.git_sha = config_.git_sha;
  snap.uptime_s = static_cast<double>(obs::now_ns() - start_ns_) * 1e-9;
  snap.draining = drain_.load();
  snap.inflight = inflight_.load();
  const obs::MetricsSnapshot cumulative =
      obs::MetricsRegistry::instance().snapshot();
  for (const auto& [name, v] : cumulative.counters) {
    if (name.rfind("serve.", 0) == 0) snap.counters.emplace(name, v);
  }
  snap.window = windows_.snapshot();
  snap.slow = slow_ring_.top();
  if (format == "prom") {
    std::string out =
        "{\"ok\":true,\"op\":\"stats\",\"format\":\"prom\",\"text\":";
    out.append(obs::json_string(obs::stats_to_prometheus(snap)));
    out.push_back('}');
    return out;
  }
  return obs::stats_to_json(snap);
}

std::string DiagnosisServer::health_json() const {
  std::lock_guard<std::mutex> lock(stores_mu_);
  bool degraded = false;
  std::string out = "{\"ok\":true,\"op\":\"health\",\"stores\":[";
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    const StoreState& s = stores_[i].state;
    if (s.quarantined) degraded = true;
    if (i > 0) out.push_back(',');
    out.append("{\"path\":").append(obs::json_string(s.path));
    out.append(",\"run_id\":").append(obs::json_string(s.run_id));
    out.append(",\"circuit\":").append(obs::json_string(s.circuit));
    out.append(",\"state\":")
        .append(s.quarantined ? "\"quarantined\"" : "\"serving\"");
    out.append(",\"error\":").append(obs::json_string(s.error));
    out.push_back('}');
  }
  out.append("],\"degraded\":").append(degraded ? "true" : "false");
  out.append(",\"draining\":").append(drain_.load() ? "true" : "false");
  out.append(",\"inflight\":").append(std::to_string(inflight_.load()));
  out.append(",\"counters\":{");
  out.append("\"serve.connections\":")
      .append(std::to_string(serve_connections_counter().value()));
  out.append(",\"serve.requests\":")
      .append(std::to_string(serve_requests_counter().value()));
  out.append(",\"serve.served\":")
      .append(std::to_string(serve_served_counter().value()));
  out.append(",\"serve.shed\":")
      .append(std::to_string(serve_shed_counter().value()));
  out.append(",\"serve.deadline_hits\":")
      .append(std::to_string(serve_deadline_counter().value()));
  out.append(",\"serve.quarantined\":")
      .append(std::to_string(serve_quarantined_counter().value()));
  out.append("}}");
  return out;
}

std::vector<StoreState> DiagnosisServer::store_states() const {
  std::lock_guard<std::mutex> lock(stores_mu_);
  std::vector<StoreState> out;
  out.reserve(stores_.size());
  for (const auto& s : stores_) out.push_back(s.state);
  return out;
}

void DiagnosisServer::request_drain() {
  bool expected = false;
  if (!drain_.compare_exchange_strong(expected, true)) return;
  {
    // Kick connections blocked mid-read; their loops then observe drain_.
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  drain_cv_.notify_all();
}

void DiagnosisServer::wait() {
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] { return drain_.load(); });
  }
  for (std::thread& t : accept_threads_) t.join();
  // Accept loops are gone, so conn_threads_ is stable now.
  for (std::thread& t : conn_threads_) t.join();
  listen_fds_.clear();
  if (!config_.unix_socket.empty()) ::unlink(config_.unix_socket.c_str());

  const double wall_seconds =
      static_cast<double>(obs::now_ns() - start_ns_) * 1e-9;
  if (!obs::ledger_out_path().empty()) {
    obs::LedgerRecord rec;
    rec.run_id = obs::new_invocation_run_id("serve", config_.git_sha);
    rec.tool = "serve";
    std::string circuits;
    for (const auto& s : stores_) {
      if (s.state.circuit.empty()) continue;
      if (!circuits.empty()) circuits.push_back(',');
      circuits.append(s.state.circuit);
    }
    rec.circuit = circuits;
    rec.git_sha = config_.git_sha;
    rec.threads = runtime::thread_count();
    rec.n_chips = serve_served_counter().value();
    rec.wall_seconds = wall_seconds;
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    rec.counters = snap.counters;
    // Session-level request latency, so run-diff reports see serving
    // regressions without re-deriving them from raw histograms.
    const auto hist = snap.histograms.find("serve.request_us");
    if (hist != snap.histograms.end() && hist->second.total() > 0) {
      rec.phases["latency_p50_ms"] = hist->second.quantile(0.50) / 1000.0;
      rec.phases["latency_p95_ms"] = hist->second.quantile(0.95) / 1000.0;
      rec.phases["latency_p99_ms"] = hist->second.quantile(0.99) / 1000.0;
    }
    rec.peak_rss_kb = obs::read_peak_rss_kb();
    obs::append_ledger_record(obs::ledger_out_path(), rec);
  }
  obs::dump_postmortem("serve.drain");
  // Flush metrics/trace through the SAME writer as the atexit handler, so
  // a drained server leaves a complete capture even if the process is
  // about to be torn down by a signal-initiated exit path.  The write-once
  // guard makes the later atexit call a no-op.
  obs::flush_observability_outputs();
  SDDD_LOG_INFO("serve: drained after %.1fs (%llu served, %llu shed)",
                wall_seconds,
                static_cast<unsigned long long>(serve_served_counter().value()),
                static_cast<unsigned long long>(serve_shed_counter().value()));
}

// ---------------------------------------------------------------------------
// serve_main

namespace {

int g_signal_pipe_wr = -1;

// Self-pipe bytes: 1 = drain (SIGTERM/SIGINT), 2 = stats dump (SIGUSR1).
void drain_signal_handler(int) {
  if (g_signal_pipe_wr >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t r = ::write(g_signal_pipe_wr, &byte, 1);
  }
}

void stats_signal_handler(int) {
  if (g_signal_pipe_wr >= 0) {
    const char byte = 2;
    [[maybe_unused]] const ssize_t r = ::write(g_signal_pipe_wr, &byte, 1);
  }
}

}  // namespace

int serve_main(const ServerConfig& config) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    SDDD_LOG_ERROR("serve: pipe failed: %s", std::strerror(errno));
    return 1;
  }
  g_signal_pipe_wr = pipe_fds[1];
  struct sigaction sa{};
  sa.sa_handler = drain_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction sa_stats{};
  sa_stats.sa_handler = stats_signal_handler;
  ::sigaction(SIGUSR1, &sa_stats, nullptr);

  DiagnosisServer server(config);
  try {
    server.start();
  } catch (const Error& e) {
    SDDD_LOG_ERROR("%s", e.what());
    return 1;
  }
  std::size_t quarantined = 0;
  for (const StoreState& s : server.store_states()) {
    if (s.quarantined) ++quarantined;
  }
  std::printf("serve: ready unix=%s tcp_port=%d stores=%zu quarantined=%zu\n",
              config.unix_socket.empty() ? "-" : config.unix_socket.c_str(),
              server.tcp_port(), server.store_states().size(), quarantined);
  std::fflush(stdout);

  // Watch the self-pipe until someone requests a drain - SIGTERM/SIGINT,
  // or a "shutdown" op served by a worker thread.  SIGUSR1 (byte 2) is a
  // live stats dump: print the stats payload and land a postmortem, then
  // keep serving.
  std::thread signal_watcher([&server, read_fd = pipe_fds[0]] {
    while (!server.drain_requested()) {
      pollfd p{read_fd, POLLIN, 0};
      const int r = ::poll(&p, 1, 200);
      if (r <= 0) continue;
      char byte = 0;
      if (::read(read_fd, &byte, 1) != 1) continue;
      if (byte == 2) {
        std::printf("%s\n", server.stats_json().c_str());
        std::fflush(stdout);
        obs::dump_postmortem("serve.sigusr1");
        continue;
      }
      server.request_drain();
      break;
    }
  });
  server.wait();
  signal_watcher.join();
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
  g_signal_pipe_wr = -1;
  return 0;
}

}  // namespace sddd::store
