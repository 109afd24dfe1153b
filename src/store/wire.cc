#include "store/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sddd::store {

namespace {

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r == 0) return false;
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace envelope

namespace {
constexpr std::string_view kEnvelopePrefix = "{\"trace_id\":\"";
constexpr std::string_view kEnvelopePayload = "\",\"payload\":";
}  // namespace

std::string wrap_response_envelope(std::string_view trace_id,
                                   std::string_view payload) {
  std::string out;
  out.reserve(kEnvelopePrefix.size() + trace_id.size() +
              kEnvelopePayload.size() + payload.size() + 1);
  out.append(kEnvelopePrefix);
  out.append(trace_id);  // restricted charset: no escaping needed
  out.append(kEnvelopePayload);
  out.append(payload);
  out.push_back('}');
  return out;
}

bool split_response_envelope(const std::string& response,
                             std::string* trace_id, std::string* payload) {
  if (response.rfind(kEnvelopePrefix, 0) != 0) return false;
  const std::size_t id_begin = kEnvelopePrefix.size();
  const std::size_t id_end = response.find('"', id_begin);
  if (id_end == std::string::npos) return false;
  if (response.compare(id_end, kEnvelopePayload.size(), kEnvelopePayload) !=
      0) {
    return false;
  }
  const std::size_t body_begin = id_end + kEnvelopePayload.size();
  if (response.size() <= body_begin || response.back() != '}') return false;
  if (trace_id != nullptr) {
    *trace_id = response.substr(id_begin, id_end - id_begin);
  }
  if (payload != nullptr) {
    *payload = response.substr(body_begin,
                               response.size() - body_begin - 1);
  }
  return true;
}

std::string response_payload(const std::string& response) {
  std::string payload;
  if (split_response_envelope(response, nullptr, &payload)) return payload;
  return response;
}

// ---------------------------------------------------------------------------
// Frames

FrameStatus read_frame(int fd, std::size_t max_bytes, std::string* out) {
  unsigned char prefix[4];
  // Distinguish "closed between frames" (clean EOF) from "died mid-frame".
  {
    const ssize_t first = ::read(fd, prefix, 1);
    if (first == 0) return FrameStatus::kEof;
    if (first < 0) {
      if (errno == EINTR) return read_frame(fd, max_bytes, out);
      return FrameStatus::kError;
    }
  }
  if (!read_exact(fd, prefix + 1, 3)) return FrameStatus::kError;
  const std::uint32_t n = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                          (static_cast<std::uint32_t>(prefix[1]) << 16) |
                          (static_cast<std::uint32_t>(prefix[2]) << 8) |
                          static_cast<std::uint32_t>(prefix[3]);
  if (n > max_bytes) return FrameStatus::kTooBig;
  out->resize(n);
  if (n > 0 && !read_exact(fd, out->data(), n)) return FrameStatus::kError;
  return FrameStatus::kOk;
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFu) return false;
  const auto n = static_cast<std::uint32_t>(payload.size());
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(n >> 24), static_cast<unsigned char>(n >> 16),
      static_cast<unsigned char>(n >> 8), static_cast<unsigned char>(n)};
  return write_exact(fd, prefix, 4) &&
         write_exact(fd, payload.data(), payload.size());
}

// ---------------------------------------------------------------------------
// Sockets

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() + 1 > sizeof addr.sun_path) {
    errno = ENAMETOOLONG;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return -1;
  }
  return fd;
}

int listen_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return -1;
  }
  return fd;
}

int listening_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  return ntohs(addr.sin_port);
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() + 1 > sizeof addr.sun_path) {
    errno = ENAMETOOLONG;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    errno = EINVAL;
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    return -1;
  }
  return fd;
}

}  // namespace sddd::store
