// codec.h - The byte-level encodings every persisted or rendered artifact
// shares: FNV-1a-64 (journal, ledger and store checksums, run ids, file
// digests, cache keys), JSON string literals and %.17g doubles.
//
// Each caller keeps its own framing (line layout, key order, which bytes
// it hashes); only the primitives live here, so equal inputs encode to
// equal bytes everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sddd::obs {

/// Seed of every persisted checksum and id: journal and ledger line crcs,
/// store header and section crcs, run ids, manifest file digests and
/// hashed trace keys.  It is not the standard FNV-1a offset basis but that
/// basis's decimal digits without the last one; changing it would
/// invalidate every journal, ledger and store on disk.
inline constexpr std::uint64_t kPersistedFnvSeed = 1469598103934665603ULL;
/// The standard FNV-1a-64 offset basis, seed of the in-memory keys
/// (pattern fingerprints, analysis row and matrix hashes).
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// One FNV-1a-64 step: folds `byte` into the running hash `h`.
constexpr std::uint64_t fnv1a_step(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * kFnv1aPrime;
}

/// FNV-1a-64 of `bytes`, continuing from `h`: a seed starts a fresh hash,
/// an earlier result continues a streamed one.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t h = kPersistedFnvSeed);

/// Folds the 8 bytes of `word` into `h`, least significant byte first.
std::uint64_t fnv1a64_word(std::uint64_t h, std::uint64_t word);

/// Appends `s` as a JSON string literal, quotes included.  '"' and '\'
/// are backslash-escaped, \n \t \r use their short escapes, every other
/// control character is \u00XX, and all other bytes pass through.
void append_json_string(std::string& out, std::string_view s);

/// append_json_string into a fresh string.
std::string json_string(std::string_view s);

/// `v` as %.17g: enough digits for an exact double round trip, so equal
/// doubles always print equal bytes.
std::string json_double(double v);

}  // namespace sddd::obs
