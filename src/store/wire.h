// wire.h - The serve transport: length-prefixed JSON frames over a unix
// or TCP stream socket.
//
// Framing: every message is `u32 length (big-endian) | length bytes of
// UTF-8 JSON`.  The prefix makes request boundaries explicit (no
// sniffing for balanced braces on a hostile stream) and lets the server
// reject oversized frames BEFORE buffering them - the max_frame_bytes
// backstop in ServerConfig.
//
// The frames are decoded by the repository's one JSON reader, which lives
// in obs/json.h; the names below keep it reachable as store::JsonValue and
// store::parse_json for the serve path's callers.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "obs/json.h"

namespace sddd::store {

using obs::JsonValue;
using obs::kMaxJsonDepth;
using obs::parse_json;

// ---------------------------------------------------------------------------
// Trace envelope
//
// Every server response is wrapped as
//
//   {"trace_id":"<id>","payload":<payload>}
//
// with the payload bytes embedded VERBATIM (raw JSON nesting, not a
// quoted string).  That keeps the scored diagnose payload byte-identical
// to the offline `dict query` path - the determinism contract - while
// giving every response a request identity.  Trace ids are restricted to
// [A-Za-z0-9._-] (valid_trace_id in obs/expo.h), so the envelope prefix
// is unambiguous and splitting is exact textual surgery, no re-parse.

/// Renders the envelope around `payload`.
std::string wrap_response_envelope(std::string_view trace_id,
                                   std::string_view payload);

/// Splits an envelope; false when `response` is not one (old server).
/// On success `*trace_id` and `*payload` receive the parts.
bool split_response_envelope(const std::string& response,
                             std::string* trace_id, std::string* payload);

/// The payload inside an envelope, or `response` itself when it is not
/// enveloped - what byte-compare consumers feed to cmp.
std::string response_payload(const std::string& response);

// ---------------------------------------------------------------------------
// Frames

enum class FrameStatus {
  kOk,
  kEof,      ///< clean close before any prefix byte
  kTooBig,   ///< prefix exceeds the caller's limit (connection is dead)
  kError,    ///< short read / IO error mid-frame
};

/// Reads one frame into `out` (replaced).  Never throws.
FrameStatus read_frame(int fd, std::size_t max_bytes, std::string* out);

/// Writes one frame; false on any short write / error.  Never throws.
bool write_frame(int fd, std::string_view payload);

// ---------------------------------------------------------------------------
// Sockets (all return -1 and set errno on failure; never throw)

/// Bound + listening unix stream socket at `path` (unlinked first).
int listen_unix(const std::string& path);
/// Bound + listening TCP socket on 127.0.0.1:`port` (0 = ephemeral).
int listen_tcp(int port);
/// The local port a TCP listener actually bound (for port 0).
int listening_port(int fd);
int connect_unix(const std::string& path);
int connect_tcp(const std::string& host, int port);

}  // namespace sddd::store
