// Tests for the batch diagnosis server's resilience ladder: deadline
// expiry becomes a typed response (never a hang), bounded backpressure
// sheds with "overloaded" (never an unbounded queue), and a corrupt store
// is quarantined while the healthy ones keep answering - all in-process
// over a real unix socket.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "netlist/synth.h"
#include "obs/codec.h"
#include "obs/faults.h"
#include "store/client.h"
#include "store/query.h"
#include "store/server.h"
#include "store/store.h"
#include "store/wire.h"

namespace sddd {
namespace {

struct FaultSpecGuard {
  ~FaultSpecGuard() { obs::set_fault_spec(""); }
};

/// Per-process scratch path: this file is built into both the main test
/// binary and the store/serve smoke binary, which ctest may run at once.
std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::path(::testing::TempDir()) /
         (std::to_string(::getpid()) + "_" + name);
}

netlist::Netlist serve_netlist(const std::string& name, std::uint64_t seed) {
  netlist::SynthSpec spec;
  spec.name = name;
  spec.n_inputs = 10;
  spec.n_outputs = 6;
  spec.n_gates = 50;
  spec.depth = 7;
  spec.seed = seed;
  return netlist::synthesize(spec);
}

store::StoreBuildConfig small_config() {
  store::StoreBuildConfig config;
  config.mc_samples = 40;
  config.pattern_sites = 3;
  config.max_patterns = 8;
  config.seed = 31;
  return config;
}

/// Builds a store for `name`, returns its path; chips/request land in
/// `request` (and the expected offline response in `expected` when asked).
std::string build_store_and_request(const std::string& name,
                                    std::uint64_t seed, std::string* request,
                                    std::string* expected = nullptr) {
  const auto nl = serve_netlist(name, seed);
  const auto path = temp_path(name + ".dict");
  store::build_dictionary_store(nl, small_config(), path.string());
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
  if (expected != nullptr) {
    const store::StoreQueryEngine engine(st);
    *expected = store::diagnose_batch_json(engine, chips, true, 5);
  }
  return path.string();
}

TEST(Serve, DeadlineExpiryIsATypedResponse) {
  std::string request;
  const std::string path =
      build_store_and_request("servedl", 61, &request);

  store::ServerConfig cfg;
  cfg.store_paths = {path};
  cfg.unix_socket = temp_path("servedl.sock").string();
  cfg.test_hold_seconds = 0.3;  // every request stalls past the deadline
  store::DiagnosisServer server(cfg);
  server.start();

  auto client = store::ServeClient::connect(cfg.unix_socket, -1);
  // Rewrite the request with a deadline far shorter than the hold.
  std::string with_deadline = request;
  const auto pos = with_deadline.find(",\"chips\":");
  ASSERT_NE(pos, std::string::npos);
  with_deadline.insert(pos, ",\"deadline_ms\":20");
  const std::string response = client.request(with_deadline);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"error\":\"deadline\""), std::string::npos)
      << response;

  // The connection survives the timeout; a health probe still answers.
  const std::string health = client.request("{\"op\":\"health\"}");
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos) << health;

  server.request_drain();
  server.wait();
}

TEST(Serve, InjectedDeadlineSeamFiresWithoutWallClock) {
  std::string request;
  const std::string path =
      build_store_and_request("serveseam", 43, &request);

  store::ServerConfig cfg;
  cfg.store_paths = {path};
  cfg.unix_socket = temp_path("serveseam.sock").string();
  store::DiagnosisServer server(cfg);
  server.start();

  FaultSpecGuard guard;
  obs::set_fault_spec("serve.deadline@*");
  auto client = store::ServeClient::connect(cfg.unix_socket, -1);
  const std::string response = client.request(request);
  EXPECT_NE(response.find("\"error\":\"deadline\""), std::string::npos)
      << response;
  obs::set_fault_spec("");

  const std::string ok = client.request(request);
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;

  server.request_drain();
  server.wait();
}

TEST(Serve, BackpressureShedsWithTypedOverload) {
  std::string request;
  const std::string path =
      build_store_and_request("serveshed", 47, &request);

  store::ServerConfig cfg;
  cfg.store_paths = {path};
  cfg.unix_socket = temp_path("serveshed.sock").string();
  cfg.max_inflight = 0;  // deterministic: every diagnose sheds
  store::DiagnosisServer server(cfg);
  server.start();

  auto client = store::ServeClient::connect(cfg.unix_socket, -1);
  const std::string response = client.request(request);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"error\":\"overloaded\""), std::string::npos)
      << response;

  // Health is not a diagnose, so it bypasses the in-flight budget.
  const std::string health = client.request("{\"op\":\"health\"}");
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos) << health;

  server.request_drain();
  server.wait();
}

TEST(Serve, WireBackwardCompatAndTraceEcho) {
  std::string request, expected;
  const std::string path =
      build_store_and_request("servecompat", 67, &request, &expected);

  store::ServerConfig cfg;
  cfg.store_paths = {path};
  cfg.unix_socket = temp_path("servecompat.sock").string();
  store::DiagnosisServer server(cfg);
  server.start();

  auto client = store::ServeClient::connect(cfg.unix_socket, -1);

  // Pre-tracing request (no trace_id member): the server mints a
  // canonical 16-hex id and the scored payload is byte-identical to the
  // offline diagnose bytes.
  std::string id1, payload1;
  ASSERT_TRUE(
      store::split_response_envelope(client.request(request), &id1, &payload1));
  EXPECT_EQ(payload1, expected);
  ASSERT_EQ(id1.size(), 16u) << id1;
  for (char c : id1) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c))) << id1;
  }

  // A client-supplied trace id is echoed verbatim, an unknown request
  // field is ignored, and the payload bytes do not change.
  std::string stamped = store::payload_with_trace_id(request, "load-gen.7");
  const auto pos = stamped.find(",\"chips\":");
  ASSERT_NE(pos, std::string::npos);
  stamped.insert(pos, ",\"x_experiment\":\"ignored\"");
  std::string id2, payload2;
  ASSERT_TRUE(
      store::split_response_envelope(client.request(stamped), &id2, &payload2));
  EXPECT_EQ(id2, "load-gen.7");
  EXPECT_EQ(payload2, expected);

  server.request_drain();
  server.wait();
}

TEST(Serve, CorruptStoreIsQuarantinedHealthyOnesServe) {
  std::string good_request, expected;
  const std::string good_path = build_store_and_request(
      "servegood", 53, &good_request, &expected);
  std::string bad_request;
  const std::string bad_path =
      build_store_and_request("servebad", 59, &bad_request);

  // Flip one payload byte of the second store: open() quarantines it.
  {
    std::ifstream in(bad_path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 2] ^= 0x01;
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  store::ServerConfig cfg;
  cfg.store_paths = {good_path, bad_path};
  cfg.unix_socket = temp_path("servequar.sock").string();
  store::DiagnosisServer server(cfg);
  server.start();

  auto client = store::ServeClient::connect(cfg.unix_socket, -1);
  // Health reports the degradation: one store serving, one quarantined.
  const std::string health = client.request("{\"op\":\"health\"}");
  EXPECT_NE(health.find("\"degraded\":true"), std::string::npos) << health;
  EXPECT_NE(health.find("\"quarantined\""), std::string::npos) << health;

  // The healthy store answers exactly the offline dict-query bytes: the
  // envelope carries a server-minted trace id, the payload is verbatim.
  const std::string response = client.request(good_request);
  std::string trace_id, payload;
  ASSERT_TRUE(store::split_response_envelope(response, &trace_id, &payload))
      << response;
  EXPECT_FALSE(trace_id.empty());
  EXPECT_EQ(payload, expected);

  // Targeting the quarantined store (by path: its header never parsed,
  // so it has no circuit name) is a typed error, not a crash.
  const std::string denied = client.request(
      "{\"op\":\"diagnose\",\"store\":" + obs::json_string(bad_path) +
      ",\"chips\":[]}");
  EXPECT_NE(denied.find("\"error\":\"store_quarantined\""), std::string::npos)
      << denied;

  server.request_drain();
  server.wait();
}

}  // namespace
}  // namespace sddd
