// Tests for the live-service observability layer: rolling-window metrics
// (fake-clock bucket rotation, thread-count-independent merges), the
// slow-request ring's deterministic eviction, trace-id canonicalization,
// the `stats` wire op under shed, drain-time metrics flushing, and the
// one-trace-id-per-exchange retry contract - the window/ring pieces as
// units, the rest in-process over a real unix socket.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "netlist/synth.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "obs/expo.h"
#include "obs/obs.h"
#include "obs/window.h"
#include "store/client.h"
#include "store/query.h"
#include "store/server.h"
#include "store/store.h"
#include "store/wire.h"

namespace sddd {
namespace {

// ---------------------------------------------------------------------------
// Rolling window

TEST(WindowObs, FakeClockDrivesBucketRotation) {
  std::uint64_t now = 1000;
  obs::WindowRegistry reg([&now] { return now; });
  obs::RollingCounter& c = reg.counter("req");

  c.add(3);
  EXPECT_EQ(c.total_in_window(), 3u);

  now = 1059;  // 59s later: the t=1000 bucket is still inside the horizon
  c.add(2);
  EXPECT_EQ(c.total_in_window(), 5u);

  now = 1060;  // 60s later: the t=1000 bucket ages out, t=1059 survives
  EXPECT_EQ(c.total_in_window(), 2u);

  now = 1119;  // everything aged out
  EXPECT_EQ(c.total_in_window(), 0u);

  // Ring-slot reuse: a second landing on the same slot one revolution
  // later must reset the stale cell, not add to it.
  now = 2000;
  c.add(7);
  now = 2000 + obs::kWindowSlots;
  c.add(1);
  EXPECT_EQ(c.total_in_window(), 1u);
}

TEST(WindowObs, HistogramWindowsSumsAndQuantiles) {
  std::uint64_t now = 50;
  obs::WindowRegistry reg([&now] { return now; });
  const double bounds[] = {100.0, 1000.0, 10000.0};
  obs::RollingHistogram& h =
      reg.histogram("lat_us", std::span<const double>(bounds));

  for (int i = 0; i < 100; ++i) h.record(80);
  h.record(5000);

  obs::WindowSnapshot snap = reg.snapshot();
  const obs::WindowHistogramData& hd = snap.histograms.at("lat_us");
  EXPECT_EQ(hd.total(), 101u);
  EXPECT_EQ(hd.sum, 100u * 80u + 5000u);
  EXPECT_LE(hd.quantile(0.5), 100.0);
  EXPECT_GT(hd.quantile(0.999), 1000.0);

  now = 50 + obs::kWindowHorizonSeconds;  // the whole minute ages out
  snap = reg.snapshot();
  EXPECT_EQ(snap.histograms.at("lat_us").total(), 0u);
}

/// Records a fixed multiset of (second, value) events split across
/// `nthreads` writers and returns the snapshot JSON.  The clock only
/// advances between rounds, so the event multiset is identical at any
/// thread count - only the shard assignment varies.
std::string window_json_with_threads(std::size_t nthreads) {
  std::uint64_t now = 7000;
  obs::WindowRegistry reg([&now] { return now; });
  const double bounds[] = {100.0, 500.0, 2500.0, 10000.0};
  reg.counter("req");
  reg.histogram("lat_us", std::span<const double>(bounds));
  for (std::uint64_t s = 0; s < 5; ++s) {
    now = 7000 + s;
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < nthreads; ++t) {
      workers.emplace_back([&reg, &bounds, s, t, nthreads] {
        for (std::size_t i = t; i < 400; i += nthreads) {
          reg.counter("req").add(1);
          reg.histogram("lat_us", std::span<const double>(bounds))
              .record((i * 37 + s * 11) % 9000);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  return reg.snapshot().to_json();
}

TEST(WindowObs, MergeIsByteIdenticalAcrossThreadCounts) {
  EXPECT_EQ(window_json_with_threads(1), window_json_with_threads(4));
}

// ---------------------------------------------------------------------------
// Slow-request ring + trace ids

obs::SlowRequest slow(const std::string& id, std::uint64_t us) {
  obs::SlowRequest r;
  r.trace_id = id;
  r.total_us = us;
  return r;
}

TEST(SlowRingObs, EvictionIsDeterministicTiesKeepTheEarlierEntry) {
  obs::SlowRequestRing ring(3);
  ring.insert(slow("a", 100));
  ring.insert(slow("b", 300));
  ring.insert(slow("c", 200));

  // Full ring: a newcomer that only TIES the current minimum is rejected.
  ring.insert(slow("d", 100));
  std::vector<obs::SlowRequest> top = ring.top();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].trace_id, "b");
  EXPECT_EQ(top[1].trace_id, "c");
  EXPECT_EQ(top[2].trace_id, "a");

  // A strictly slower newcomer evicts the minimum.
  ring.insert(slow("e", 150));
  top = ring.top();
  EXPECT_EQ(top[2].trace_id, "e");

  // Ties among survivors sort by insertion order (earlier seq first).
  ring.insert(slow("f", 300));  // evicts e
  top = ring.top();
  EXPECT_EQ(top[0].trace_id, "b");
  EXPECT_EQ(top[1].trace_id, "f");
  EXPECT_EQ(top[2].trace_id, "c");
}

TEST(TraceIdObs, CanonicalRoundTripAndValidation) {
  EXPECT_EQ(obs::hex64(0x1f), "000000000000001f");
  EXPECT_EQ(obs::trace_key("000000000000001f"), 0x1fu);
  const std::string canonical = obs::hex64(0xdeadbeefcafef00dULL);
  EXPECT_EQ(obs::hex64(obs::trace_key(canonical)), canonical);

  EXPECT_TRUE(obs::valid_trace_id("load-gen.7"));
  EXPECT_TRUE(obs::valid_trace_id(canonical));
  EXPECT_FALSE(obs::valid_trace_id(""));
  EXPECT_FALSE(obs::valid_trace_id("has space"));
  EXPECT_FALSE(obs::valid_trace_id(std::string(65, 'a')));

  // Non-canonical ids hash to a stable (per-id) flight-recorder key.
  EXPECT_EQ(obs::trace_key("load-gen.7"), obs::trace_key("load-gen.7"));
  EXPECT_NE(obs::trace_key("load-gen.7"), obs::trace_key("load-gen.8"));
}

// ---------------------------------------------------------------------------
// Server-level: stats op, drain flush, retry identity

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) / name;
}

netlist::Netlist obs_netlist(const std::string& name, std::uint64_t seed) {
  netlist::SynthSpec spec;
  spec.name = name;
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 50;
  spec.depth = 7;
  spec.seed = seed;
  return netlist::synthesize(spec);
}

std::string build_obs_store_and_request(const std::string& name,
                                        std::uint64_t seed,
                                        std::string* request) {
  const auto nl = obs_netlist(name, seed);
  const auto path = temp_path(name + ".dict");
  store::StoreBuildConfig config;
  config.mc_samples = 40;
  config.pattern_sites = 3;
  config.max_patterns = 8;
  config.seed = 31;
  store::build_dictionary_store(nl, config, path.string());
  const store::DictionaryStore st(path.string());
  const auto sampled = store::sample_failing_chips(nl, st, 2);
  EXPECT_FALSE(sampled.empty());
  std::vector<store::ChipQuery> chips;
  for (std::size_t t = 0; t < sampled.size(); ++t) {
    chips.push_back(
        store::ChipQuery{"chip" + std::to_string(t), sampled[t].B});
  }
  *request = store::make_diagnose_request(st.run_id(), "e", 5,
                                          /*deadline_ms=*/0, chips);
  return path.string();
}

TEST(ServeObs, StatsAnswersUnderShedAndCountsIt) {
  std::string request;
  const std::string path =
      build_obs_store_and_request("obsshed", 71, &request);

  store::ServerConfig cfg;
  cfg.store_paths = {path};
  cfg.unix_socket = temp_path("obsshed.sock").string();
  cfg.max_inflight = 0;  // deterministic: every diagnose sheds
  store::DiagnosisServer server(cfg);
  server.start();

  auto client = store::ServeClient::connect(cfg.unix_socket, -1);
  const std::string stamped =
      store::payload_with_trace_id(request, "feedfacecafe0001");
  std::string id, payload;
  ASSERT_TRUE(store::split_response_envelope(client.request(stamped), &id,
                                             &payload));
  EXPECT_EQ(id, "feedfacecafe0001");
  EXPECT_NE(payload.find("\"error\":\"overloaded\""), std::string::npos)
      << payload;

  // stats bypasses the in-flight budget (like health), echoes the trace
  // id, and reports the shed in the rolling window.
  std::string sid, stats_payload;
  ASSERT_TRUE(store::split_response_envelope(
      client.request("{\"op\":\"stats\",\"trace_id\":\"deadbeef00000001\"}"),
      &sid, &stats_payload));
  EXPECT_EQ(sid, "deadbeef00000001");

  const store::JsonValue stats = store::parse_json(stats_payload);
  EXPECT_EQ(stats.get_string("op"), "stats");
  const store::JsonValue* window = stats.get("window");
  ASSERT_NE(window, nullptr);
  const store::JsonValue* wcounters = window->get("counters");
  ASSERT_NE(wcounters, nullptr);
  EXPECT_GE(wcounters->get_number("serve.shed"), 1.0);
  EXPECT_GE(wcounters->get_number("serve.requests"), 1.0);
  // The shed diagnose is in the slow ring, under ITS trace id.
  EXPECT_NE(stats_payload.find("\"trace_id\":\"feedfacecafe0001\""),
            std::string::npos)
      << stats_payload;

  // The Prometheus rendering of the same snapshot parses back out of the
  // stats payload and carries the window counters.
  std::string pid, prom_payload;
  ASSERT_TRUE(store::split_response_envelope(
      client.request("{\"op\":\"stats\",\"format\":\"prom\"}"), &pid,
      &prom_payload));
  const store::JsonValue prom = store::parse_json(prom_payload);
  const std::string text = prom.get_string("text");
  EXPECT_NE(text.find("sddd_win_serve_shed"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE"), std::string::npos) << text;

  server.request_drain();
  server.wait();
}

TEST(ServeObs, DrainFlushesMetricsThroughTheExitWriter) {
  const auto metrics_path = temp_path("obsflush_metrics.json");
  std::filesystem::remove(metrics_path);
  obs::set_metrics_out_path(metrics_path.string());

  std::string request;
  const std::string path =
      build_obs_store_and_request("obsflush", 73, &request);

  store::ServerConfig cfg;
  cfg.store_paths = {path};
  cfg.unix_socket = temp_path("obsflush.sock").string();
  store::DiagnosisServer server(cfg);
  server.start();

  auto client = store::ServeClient::connect(cfg.unix_socket, -1);
  const std::string response = client.request(request);
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;

  server.request_drain();
  server.wait();

  // wait() flushed through the same writer the atexit hook uses, so the
  // snapshot is already complete on disk - not deferred to process exit.
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << metrics_path;
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("serve.request_us"), std::string::npos);
  EXPECT_FALSE(body.empty());
  EXPECT_EQ(body.back(), '\n');

  obs::set_metrics_out_path("");  // don't leak the path into other tests
}

TEST(ServeObs, RetryReplaysOneTraceIdAcrossAttempts) {
  std::string request;
  const std::string path =
      build_obs_store_and_request("obsretry", 79, &request);

  store::ServerConfig cfg;
  cfg.store_paths = {path};
  cfg.unix_socket = temp_path("obsretry.sock").string();
  cfg.max_inflight = 0;  // every attempt sheds; the budget exhausts
  store::DiagnosisServer server(cfg);
  server.start();

  auto client = store::ServeClient::connect(cfg.unix_socket, -1);
  store::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_s = 0.001;
  policy.max_backoff_s = 0.002;
  store::RetryStats stats;
  EXPECT_THROW(store::request_with_retry(client, cfg.unix_socket, -1, request,
                                         policy, &stats),
               IoError);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.sheds, 3u);
  ASSERT_EQ(stats.trace_id.size(), 16u) << stats.trace_id;

  // Every attempt carried the SAME client-minted id: the window saw three
  // sheds, and the slow ring shows the one identity.
  std::string sid, stats_payload;
  ASSERT_TRUE(store::split_response_envelope(
      client.request("{\"op\":\"stats\"}"), &sid, &stats_payload));
  const store::JsonValue parsed = store::parse_json(stats_payload);
  const store::JsonValue* window = parsed.get("window");
  ASSERT_NE(window, nullptr);
  const store::JsonValue* wcounters = window->get("counters");
  ASSERT_NE(wcounters, nullptr);
  EXPECT_EQ(wcounters->get_number("serve.shed"), 3.0);
  const std::string needle = "\"trace_id\":\"" + stats.trace_id + "\"";
  std::size_t occurrences = 0;
  for (std::size_t pos = stats_payload.find(needle);
       pos != std::string::npos; pos = stats_payload.find(needle, pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 3u) << stats_payload;

  server.request_drain();
  server.wait();
}

}  // namespace
}  // namespace sddd
