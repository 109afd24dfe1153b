#include "obs/codec.h"

#include <cstdio>

namespace sddd::obs {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) h = fnv1a_step(h, static_cast<std::uint8_t>(c));
  return h;
}

std::uint64_t fnv1a64_word(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h = fnv1a_step(h, static_cast<std::uint8_t>(word & 0xff));
    word >>= 8;
  }
  return h;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\t':
        out.append("\\t");
        break;
      case '\r':
        out.append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string json_string(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace sddd::obs
