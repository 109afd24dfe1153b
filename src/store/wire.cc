#include "store/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/error.h"

namespace sddd::store {

// ---------------------------------------------------------------------------
// JSON

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_string()) ? v->string : fallback;
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("json", 0,
                     why + " at offset " + std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < text_.size() &&
           (text_[i_] == ' ' || text_[i_] == '\t' || text_[i_] == '\n' ||
            text_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    if (i_ >= text_.size()) fail("unexpected end of input");
    return text_[i_];
  }
  void expect(char c) {
    if (i_ >= text_.size() || text_[i_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++i_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        JsonValue v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return JsonValue{};
      default:
        return number();
    }
  }

  void literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.substr(i_, n) != word) fail(std::string("expected ") + word);
    i_ += n;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
      v.boolean = false;
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = i_;
    while (i_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[i_])) != 0 ||
            text_[i_] == '-' || text_[i_] == '+' || text_[i_] == '.' ||
            text_[i_] == 'e' || text_[i_] == 'E')) {
      ++i_;
    }
    if (i_ == start) fail("expected a value");
    const std::string token(text_.substr(start, i_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= text_.size()) fail("unterminated string");
      const char c = text_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= text_.size()) fail("unterminated escape");
      const char e = text_[i_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (i_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("malformed \\u escape");
            }
          }
          // The renderer only emits \u00XX for control bytes; decode the
          // BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  std::string_view text_;
  std::size_t i_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around the cursor
};

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

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

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
