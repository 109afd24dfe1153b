#include "store/client.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/codec.h"
#include "obs/error.h"
#include "obs/expo.h"
#include "obs/metrics.h"
#include "store/wire.h"

namespace sddd::store {

ServeClient ServeClient::connect(const std::string& socket_path, int port) {
  int fd = -1;
  if (!socket_path.empty()) {
    fd = connect_unix(socket_path);
    if (fd < 0) {
      throw IoError("client: cannot connect to " + socket_path + ": " +
                    std::strerror(errno));
    }
  } else if (port >= 0) {
    fd = connect_tcp("127.0.0.1", port);
    if (fd < 0) {
      throw IoError("client: cannot connect to port " + std::to_string(port) +
                    ": " + std::strerror(errno));
    }
  } else {
    throw IoError("client: no endpoint (need a socket path or port)");
  }
  return ServeClient(fd);
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ServeClient::request(const std::string& payload) {
  if (fd_ < 0) throw IoError("client: not connected");
  if (!write_frame(fd_, payload)) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("client: send failed: " + std::string(std::strerror(errno)));
  }
  std::string response;
  const FrameStatus status =
      read_frame(fd_, /*max_bytes=*/256u << 20, &response);
  if (status != FrameStatus::kOk) {
    ::close(fd_);
    fd_ = -1;
    throw IoError("client: connection lost waiting for the response");
  }
  return response;
}

std::string mint_client_trace_id() {
  static std::atomic<std::uint64_t> counter{0};
  // FNV-1a over (pid, now, counter): unique enough across concurrent load
  // generators, and never needs coordination.
  std::uint64_t h = obs::kPersistedFnvSeed;
  h = obs::fnv1a64_word(h, static_cast<std::uint64_t>(::getpid()));
  h = obs::fnv1a64_word(h, obs::now_ns());
  h = obs::fnv1a64_word(h, counter.fetch_add(1));
  return obs::hex64(h);
}

std::string payload_with_trace_id(const std::string& payload,
                                  const std::string& trace_id) {
  if (payload.empty() || payload.front() != '{') return payload;
  if (payload.find("\"trace_id\"") != std::string::npos) return payload;
  std::string member = "\"trace_id\":\"" + trace_id + "\"";
  // "{}" needs no comma; "{...}" does.
  if (payload.size() > 2) member.push_back(',');
  std::string out = payload;
  out.insert(1, member);
  return out;
}

std::string request_with_retry(ServeClient& client,
                               const std::string& socket_path, int port,
                               const std::string& payload,
                               const RetryPolicy& policy, RetryStats* stats) {
  // One identity for the whole exchange: stamp the payload ONCE, before
  // the loop, so reconnect replays carry the same trace id and the server
  // sees a retried request as the same request.
  std::string trace_id;
  const std::size_t id_pos = payload.find("\"trace_id\":\"");
  if (id_pos != std::string::npos) {
    const std::size_t begin = id_pos + 12;
    const std::size_t end = payload.find('"', begin);
    if (end != std::string::npos) {
      trace_id = payload.substr(begin, end - begin);
    }
  }
  std::string stamped = payload;
  if (trace_id.empty()) {
    trace_id = mint_client_trace_id();
    stamped = payload_with_trace_id(payload, trace_id);
  }
  if (stats != nullptr) stats->trace_id = trace_id;

  double backoff_s = policy.initial_backoff_s;
  std::string last_error;
  for (std::size_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
      backoff_s = std::min(backoff_s * 2.0, policy.max_backoff_s);
    }
    try {
      if (!client.connected()) {
        client = ServeClient::connect(socket_path, port);
        if (stats != nullptr) ++stats->reconnects;
      }
      if (stats != nullptr) ++stats->attempts;
      std::string response = client.request(stamped);
      // A typed shed is the server asking for backoff; everything else
      // (success or a non-retryable error) is the caller's to interpret.
      if (response.find("\"error\":\"overloaded\"") != std::string::npos) {
        if (stats != nullptr) ++stats->sheds;
        last_error = "overloaded";
        continue;
      }
      return response;
    } catch (const IoError& e) {
      last_error = e.what();
    }
  }
  throw IoError("client: " + std::to_string(policy.max_attempts) +
                " attempts exhausted (last: " + last_error + ")");
}

std::string make_diagnose_request(const std::string& store_selector,
                                  const std::string& match, std::size_t top_k,
                                  std::uint64_t deadline_ms,
                                  std::span<const ChipQuery> chips,
                                  const std::string& trace_id) {
  std::string out = "{\"op\":\"diagnose\"";
  if (!trace_id.empty()) {
    out.append(",\"trace_id\":").append(obs::json_string(trace_id));
  }
  if (!store_selector.empty()) {
    out.append(",\"store\":").append(obs::json_string(store_selector));
  }
  out.append(",\"match\":").append(obs::json_string(match));
  out.append(",\"top\":").append(std::to_string(top_k));
  if (deadline_ms > 0) {
    out.append(",\"deadline_ms\":").append(std::to_string(deadline_ms));
  }
  out.append(",\"chips\":[");
  for (std::size_t c = 0; c < chips.size(); ++c) {
    if (c > 0) out.push_back(',');
    out.append("{\"id\":").append(obs::json_string(chips[c].id));
    out.append(",\"b\":[");
    const diagnosis::BehaviorMatrix& B = chips[c].B;
    for (std::size_t i = 0; i < B.output_count(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('"');
      for (std::size_t j = 0; j < B.pattern_count(); ++j) {
        out.push_back(B.at(i, j) ? '1' : '0');
      }
      out.push_back('"');
    }
    out.append("]}");
  }
  out.append("]}");
  return out;
}

}  // namespace sddd::store
