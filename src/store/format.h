// format.h - On-disk layout of the persistent dictionary store (v2).
//
// A store file freezes one probabilistic fault dictionary - the M_crt
// columns and every E_crt column that differs from them, for a fixed
// (circuit, clk, pattern set) - so the hot score-chip path never rebuilds
// what the slow build-dictionary path already computed (ROADMAP's
// build/query split; the paper's storage feasibility question made
// concrete).  The file is designed to be memory-mapped read-only and fed
// straight into the packed score kernel: every probability column is a
// run of raw IEEE-754 doubles at an 8-byte-aligned offset, in exactly the
// layout phi_block() wants to walk.
//
//   offset 0
//   +--------------------------------------------------------------+
//   | magic "SDDDICT1" (8 bytes)                                   |
//   | u32 format_version (= 2)    u32 n_sections (= 4)             |
//   | u64 fingerprint   <- experiment fingerprint / run_id         |
//   | u64 build_seed    u64 mc_samples                             |
//   | u64 clk_bits      <- bit-cast double                         |
//   | u32 n_inputs  u32 n_outputs  u32 n_patterns  u32 n_arcs      |
//   | u32 max_suspects                                             |
//   | u64 global_weight_bits  u64 size_unit_bits                   |
//   | u64 mean_lo_bits  u64 mean_hi_bits  u64 three_sigma_bits     |
//   | u32 circuit_len   char circuit[circuit_len]                  |
//   | u64 total_bytes   <- whole-file size (truncation check)      |
//   +--------------------------------------------------------------+
//   | section table: n_sections x                                  |
//   |   { char name[8] (NUL-padded), u64 offset, u64 bytes,        |
//   |     u64 crc (FNV-1a-64 of the section's bytes) }             |
//   +--------------------------------------------------------------+
//   | u64 header_crc    <- FNV-1a-64 of every byte before it       |
//   +--------------------------------------------------------------+
//   | sections, each padded to a 64-byte-aligned offset, in order: |
//   |   "patterns"  per pattern j: v1 then v2, each                |
//   |               ceil(n_inputs/64) u64 words (bit i = input i)  |
//   |   "cones"     per (pattern j, output row i):                 |
//   |               ceil(n_arcs/64) u64 words - the backward cone  |
//   |               over active arcs (suspect universe of that     |
//   |               failing cell, Algorithm E.1 step 1)            |
//   |   "m"         f64[n_patterns][n_outputs]    M_crt columns    |
//   |   "e"         per pattern j:                                 |
//   |                 u64 n                                        |
//   |                 u64 arc[n]          strictly ascending ids   |
//   |                 f64 col[n][n_outputs]  E_crt of those arcs   |
//   +--------------------------------------------------------------+
//
// The "e" section holds only the (pattern, arc) columns that differ
// bitwise from the pattern's M column.  Every other arc's E column IS the
// M column: an arc the pattern does not sensitize leaves the circuit
// unchanged, and at mc_samples Monte-Carlo samples any change below
// 1/mc_samples reads as no change.  S = max(E - M, 0) is not stored: the
// loader derives it once per stored column, with the dictionary's own
// expression, and every other arc's S column is zero.  Every field of the
// section is 8 bytes wide, so the columns stay aligned for in-place reads.
//
// Integrity: the header (including the section table) is covered by
// header_crc; every section is covered by its table entry's crc; the
// loader additionally requires the real file size to equal total_bytes,
// every extent to lie inside the file and the "e" index to be well formed
// (arc ids below n_arcs and ascending, counts inside the section, no
// trailing bytes).  Any mismatch - truncated tail, flipped bit, wrong
// magic/version, malformed index - is classified as sddd::StoreError
// naming the offending section ("header", "patterns", ..., or "file" for
// size/open problems), so the serve layer can quarantine precisely and
// tests can assert blame.
//
// Endianness: header scalars are serialized explicitly little-endian;
// section payloads are raw native arrays (mmapped in place), so the file
// is portable across little-endian hosts only - the repo's only targets.
//
// DESIGN.md section 15 carries the full format table.
#pragma once

#include <cstdint>

namespace sddd::store {

inline constexpr char kStoreMagic[9] = "SDDDICT1";  // 8 bytes on disk
inline constexpr std::uint32_t kStoreFormatVersion = 2;
inline constexpr std::uint32_t kStoreSectionCount = 4;
inline constexpr std::uint64_t kStoreSectionAlign = 64;
inline constexpr std::uint64_t kStoreSectionNameLen = 8;

/// Section names in file order.
inline constexpr const char* kStoreSectionNames[kStoreSectionCount] = {
    "patterns", "cones", "m", "e"};

}  // namespace sddd::store
