#include "store/store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <set>
#include <utility>

#include "atpg/diag_patterns.h"
#include "diagnosis/dictionary.h"
#include "diagnosis/signature_matrix.h"
#include "eval/checkpoint.h"
#include "eval/setup.h"
#include "obs/atomic_file.h"
#include "obs/error.h"
#include "obs/faults.h"
#include "obs/codec.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "paths/transition_graph.h"
#include "runtime/cancel.h"
#include "runtime/parallel_for.h"
#include "stats/rng.h"

namespace sddd::store {

using netlist::ArcId;
using stats::Rng;

namespace {

// Ordinals behind the store.* fault seams: opens and section verifies
// happen serially (server startup, CLI, tests), so a process-wide counter
// is schedule-independent.
std::atomic<std::uint64_t> g_open_ordinal{0};
std::atomic<std::uint64_t> g_crc_ordinal{0};

obs::Counter& store_opens_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("store.opens");
  return c;
}

obs::Counter& store_open_failures_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("store.open_failures");
  return c;
}

// --- Explicit little-endian scalar serialization -------------------------

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_f64(std::string* out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader over the mapped header bytes.
struct Reader {
  const unsigned char* p;
  std::uint64_t n;
  std::uint64_t i = 0;
  const std::string& path;

  void need(std::uint64_t bytes) const {
    if (i + bytes > n) {
      throw StoreError("header", path + ": truncated header (need " +
                                      std::to_string(bytes) + " bytes at " +
                                      std::to_string(i) + ", file has " +
                                      std::to_string(n) + ")");
    }
  }
  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) {
      v |= static_cast<std::uint32_t>(p[i + static_cast<std::uint64_t>(b)])
           << (8 * b);
    }
    i += 4;
    return v;
  }
  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(p[i + static_cast<std::uint64_t>(b)])
           << (8 * b);
    }
    i += 8;
    return v;
  }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
};

std::uint64_t fnv1a(const unsigned char* p, std::uint64_t n) {
  return obs::fnv1a64(std::string_view(reinterpret_cast<const char*>(p), n));
}

std::uint64_t padded_to(std::uint64_t offset, std::uint64_t align) {
  return (offset + align - 1) / align * align;
}

/// [offset, offset + bytes) lies inside a file of `size` bytes.  Written
/// without the sum, which a crafted header can wrap past 2^64.
bool extent_fits(std::uint64_t offset, std::uint64_t bytes,
                 std::uint64_t size) {
  return offset <= size && bytes <= size - offset;
}

/// The product of `factors` - header dimensions - or a StoreError naming
/// `section` when it does not fit in 64 bits.
std::uint64_t checked_product(std::initializer_list<std::uint64_t> factors,
                              const std::string& section,
                              const std::string& path) {
  std::uint64_t product = 1;
  for (const std::uint64_t f : factors) {
    if (__builtin_mul_overflow(product, f, &product)) {
      throw StoreError(section, path + ": section '" + section +
                                    "' size overflows 64 bits");
    }
  }
  return product;
}

/// The ExperimentConfig a store's world is built at: the knobs the store
/// shares with the experiment harness, at 0 chips.  The build's
/// eval::ExperimentSetup and the fingerprint both read it.
eval::ExperimentConfig world_config(const StoreBuildConfig& config) {
  eval::ExperimentConfig world;
  world.mc_samples = config.mc_samples;
  world.n_chips = 0;
  world.calibration_sites = config.calibration_sites;
  world.clk_site_quantile = config.clk_site_quantile;
  world.global_weight = config.global_weight;
  world.defect_mean_lo = config.defect_mean_lo;
  world.defect_mean_hi = config.defect_mean_hi;
  world.defect_three_sigma = config.defect_three_sigma;
  world.max_suspects = config.max_suspects;
  world.library = config.library;
  world.seed = config.seed;
  return world;
}

/// The store's pattern set: the deduped union of the diagnostic pattern
/// sets of pattern_sites randomly drawn fault sites, capped at
/// max_patterns.  A dedicated stream keeps the set independent of the
/// calibration.
std::vector<logicsim::PatternPair> sweep_patterns(
    const eval::ExperimentSetup& world, const StoreBuildConfig& config) {
  std::vector<logicsim::PatternPair> patterns;
  Rng pat_rng(config.seed, 0x9a77ULL);
  std::set<std::pair<logicsim::Pattern, logicsim::Pattern>> seen;
  for (std::size_t s = 0;
       s < config.pattern_sites && patterns.size() < config.max_patterns;
       ++s) {
    const auto site = static_cast<ArcId>(
        pat_rng.below(static_cast<std::uint32_t>(world.nl.arc_count())));
    for (auto& p : atpg::generate_diagnostic_patterns(
             world.model, world.lev, site, world.config.pattern_config,
             pat_rng, &world.conflicts)) {
      if (!seen.emplace(p.v1, p.v2).second) continue;
      patterns.push_back(std::move(p));
      if (patterns.size() >= config.max_patterns) break;
    }
  }
  if (patterns.empty()) {
    throw ModelError("dict build: pattern-site sweep produced no patterns");
  }
  return patterns;
}

std::uint64_t store_fingerprint(
    const eval::ExperimentSetup& world, const StoreBuildConfig& config,
    const std::vector<logicsim::PatternPair>& patterns) {
  // The checkpoint journal's experiment fingerprint over the knobs the
  // store shares with the experiment harness...
  const std::uint64_t base =
      eval::experiment_fingerprint(world.nl.name(), world.config);

  // ...then fold in what makes this a *store*: format version, the
  // calibrated clk and the exact pattern set the matrices are indexed by.
  std::string tail = "sddd-store-v1|";
  put_u64(&tail, base);
  put_u32(&tail, kStoreFormatVersion);
  put_u64(&tail, std::bit_cast<std::uint64_t>(world.clk));
  put_u64(&tail, config.pattern_sites);
  put_u64(&tail, config.max_patterns);
  put_u64(&tail, patterns.size());
  for (const auto& p : patterns) {
    for (const bool b : p.v1) tail.push_back(b ? '\1' : '\0');
    for (const bool b : p.v2) tail.push_back(b ? '\1' : '\0');
  }
  return obs::fnv1a64(tail);
}

void pack_pattern_bits(const logicsim::Pattern& v, std::size_t words,
                       std::string* out) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 64; ++b) {
      const std::size_t i = w * 64 + b;
      if (i < v.size() && v[i]) bits |= 1ULL << b;
    }
    put_u64(out, bits);
  }
}

}  // namespace

std::string serialize_dictionary_store(const netlist::Netlist& nl,
                                       const StoreBuildConfig& config,
                                       StoreBuildInfo* info) {
  const eval::ExperimentSetup world(
      nl, world_config(config),
      config.clk_override > 0.0 ? std::optional(config.clk_override)
                                : std::nullopt);
  const std::vector<logicsim::PatternPair> patterns =
      sweep_patterns(world, config);
  const std::size_t n_inputs = nl.inputs().size();
  const std::size_t n_outputs = nl.outputs().size();
  const std::size_t n_patterns = patterns.size();
  const std::size_t n_arcs = nl.arc_count();
  const std::size_t n_samples = config.mc_samples;
  const std::size_t input_words = (n_inputs + 63) / 64;
  const std::size_t arc_words = (n_arcs + 63) / 64;

  // Per-arc defect-size tables for the E column builds (sizes[a][k] ==
  // size_model.sample(a, k), the diagnoser's own precompute).
  std::vector<std::vector<double>> size_tables(n_arcs);
  runtime::parallel_for(n_arcs, [&](std::size_t a) {
    auto& table = size_tables[a];
    table.resize(n_samples);
    for (std::size_t k = 0; k < n_samples; ++k) {
      table[k] = world.size_model.sample(static_cast<ArcId>(a), k);
    }
  });

  // Section payloads in file order.
  std::string payloads[kStoreSectionCount];
  std::string& pattern_bytes = payloads[0];
  std::string& cone_bytes = payloads[1];
  std::string& m_bytes = payloads[2];
  std::string& e_bytes = payloads[3];
  cone_bytes.reserve(n_patterns * n_outputs * arc_words * 8);
  m_bytes.reserve(n_patterns * n_outputs * 8);
  for (const auto& pat : patterns) {
    pack_pattern_bits(pat.v1, input_words, &pattern_bytes);
    pack_pattern_bits(pat.v2, input_words, &pattern_bytes);
  }

  // One pass per pattern: the slice materializes the baseline arrivals
  // once and its transition graph yields the per-output cone bitsets.  An
  // arc the pattern does not sensitize has E == M by construction, so
  // only the active arcs' E columns are evaluated, in parallel (each
  // writes only its own rows - deterministic at any thread count), and
  // only those that differ from M bitwise are stored.
  std::vector<std::uint64_t> cone_row(arc_words);
  std::vector<ArcId> active;
  std::vector<double> e_cols;
  std::vector<char> differs;
  for (std::size_t j = 0; j < n_patterns; ++j) {
    runtime::poll_cancellation();
    const diagnosis::PatternSlice slice(world.dict_sim, world.logic_sim,
                                        world.lev, patterns[j], world.clk);
    const std::vector<double>& m = slice.m_column();
    for (const double v : m) put_f64(&m_bytes, v);
    const paths::TransitionGraph& tg = slice.transition_graph();
    for (std::size_t i = 0; i < n_outputs; ++i) {
      tg.cone_row(nl.outputs()[i], cone_row);
      for (const std::uint64_t w : cone_row) put_u64(&cone_bytes, w);
    }

    active.clear();
    for (ArcId a = 0; a < n_arcs; ++a) {
      if (tg.is_active(a)) active.push_back(a);
    }
    e_cols.resize(active.size() * n_outputs);
    differs.assign(active.size(), 0);
    runtime::parallel_for_chunked(
        active.size(), 16, [&](std::size_t lo, std::size_t hi) {
          std::vector<double> col;
          for (std::size_t k = lo; k < hi; ++k) {
            slice.e_column_into(active[k], size_tables[active[k]], col);
            differs[k] = !diagnosis::same_column_bits(col.data(), m.data(),
                                                      n_outputs);
            std::copy(col.begin(), col.end(),
                      e_cols.begin() +
                          static_cast<std::ptrdiff_t>(k * n_outputs));
          }
        });
    put_u64(&e_bytes, static_cast<std::uint64_t>(
                          std::count(differs.begin(), differs.end(), 1)));
    for (std::size_t k = 0; k < active.size(); ++k) {
      if (differs[k]) put_u64(&e_bytes, active[k]);
    }
    for (std::size_t k = 0; k < active.size(); ++k) {
      if (!differs[k]) continue;
      for (std::size_t i = 0; i < n_outputs; ++i) {
        put_f64(&e_bytes, e_cols[k * n_outputs + i]);
      }
    }
  }

  const std::uint64_t fingerprint = store_fingerprint(world, config, patterns);

  // Layout: header size is fixed given the circuit name, so offsets are
  // computable before anything is written.
  const std::uint64_t header_bytes =
      8 + 4 + 4 + 8 + 8 + 8 + 8 +      // magic..clk_bits
      4 * 5 +                          // n_inputs..max_suspects
      8 * 5 +                          // model param bit fields
      4 + nl.name().size() +           // circuit
      8 +                              // total_bytes
      kStoreSectionCount * (kStoreSectionNameLen + 8 + 8 + 8) +
      8;                               // header_crc
  std::uint64_t offsets[kStoreSectionCount];
  std::uint64_t cursor = header_bytes;
  for (std::size_t s = 0; s < kStoreSectionCount; ++s) {
    cursor = padded_to(cursor, kStoreSectionAlign);
    offsets[s] = cursor;
    cursor += payloads[s].size();
  }
  const std::uint64_t total_bytes = cursor;

  std::string out;
  out.reserve(total_bytes);
  out.append(kStoreMagic, 8);
  put_u32(&out, kStoreFormatVersion);
  put_u32(&out, kStoreSectionCount);
  put_u64(&out, fingerprint);
  put_u64(&out, config.seed);
  put_u64(&out, n_samples);
  put_f64(&out, world.clk);
  put_u32(&out, static_cast<std::uint32_t>(n_inputs));
  put_u32(&out, static_cast<std::uint32_t>(n_outputs));
  put_u32(&out, static_cast<std::uint32_t>(n_patterns));
  put_u32(&out, static_cast<std::uint32_t>(n_arcs));
  put_u32(&out, static_cast<std::uint32_t>(config.max_suspects));
  put_f64(&out, config.global_weight);
  put_f64(&out, world.size_model.unit());
  put_f64(&out, config.defect_mean_lo);
  put_f64(&out, config.defect_mean_hi);
  put_f64(&out, config.defect_three_sigma);
  put_u32(&out, static_cast<std::uint32_t>(nl.name().size()));
  out.append(nl.name());
  put_u64(&out, total_bytes);
  for (std::size_t s = 0; s < kStoreSectionCount; ++s) {
    std::string name(kStoreSectionNames[s]);
    name.resize(kStoreSectionNameLen, '\0');
    out.append(name);
    put_u64(&out, offsets[s]);
    put_u64(&out, payloads[s].size());
    put_u64(&out, obs::fnv1a64(payloads[s]));
  }
  put_u64(&out, obs::fnv1a64(out));
  for (std::size_t s = 0; s < kStoreSectionCount; ++s) {
    out.resize(offsets[s], '\0');  // alignment padding
    out.append(payloads[s]);
  }

  if (info != nullptr) {
    info->fingerprint = fingerprint;
    info->run_id = obs::hex64(fingerprint);
    info->clk = world.clk;
    info->n_patterns = n_patterns;
    info->n_outputs = n_outputs;
    info->n_arcs = n_arcs;
    info->bytes = total_bytes;
  }
  return out;
}

StoreBuildInfo build_dictionary_store(const netlist::Netlist& nl,
                                      const StoreBuildConfig& config,
                                      const std::string& out_path) {
  StoreBuildInfo info;
  const std::string bytes = serialize_dictionary_store(nl, config, &info);
  obs::atomic_write_file_or_throw(out_path, bytes);
  SDDD_LOG_INFO("store: wrote %s (%llu bytes, run %s, %zu patterns)",
                out_path.c_str(), static_cast<unsigned long long>(info.bytes),
                info.run_id.c_str(), info.n_patterns);
  return info;
}

// ---------------------------------------------------------------------------
// DictionaryStore

DictionaryStore::DictionaryStore(const std::string& path,
                                 std::uint64_t expect_fingerprint)
    : path_(path) {
  const std::uint64_t open_k = g_open_ordinal.fetch_add(1);
  try {
    if (obs::fault_at("store.open", open_k)) {
      throw StoreError("file", path + ": injected store.open fault (k=" +
                                   std::to_string(open_k) + ")");
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw StoreError("file",
                       path + ": open failed: " + std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      const int e = errno;
      ::close(fd);
      throw StoreError("file", path + ": fstat failed: " + std::strerror(e));
    }
    map_bytes_ = static_cast<std::uint64_t>(st.st_size);
    if (map_bytes_ == 0) {
      ::close(fd);
      throw StoreError("file", path + ": empty file");
    }
    void* m = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED) {
      throw StoreError("file", path + ": mmap failed: " + std::strerror(errno));
    }
    map_ = static_cast<const unsigned char*>(m);

    try {
      parse_and_verify(expect_fingerprint);
    } catch (...) {
      ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
      map_ = nullptr;
      throw;
    }
  } catch (...) {
    store_open_failures_counter().add(1);
    throw;
  }
  store_opens_counter().add(1);
}

void DictionaryStore::parse_and_verify(std::uint64_t expect_fingerprint) {
  Reader r{map_, map_bytes_, 0, path_};
  r.need(8);
  if (std::memcmp(map_, kStoreMagic, 8) != 0) {
    throw StoreError("header", path_ + ": bad magic (not a dictionary store)");
  }
  r.i = 8;
  const std::uint32_t version = r.get_u32();
  if (version != kStoreFormatVersion) {
    throw StoreError("header",
                     path_ + ": unsupported format version " +
                         std::to_string(version) + " (this build reads v" +
                         std::to_string(kStoreFormatVersion) + ")");
  }
  const std::uint32_t n_sections = r.get_u32();
  if (n_sections != kStoreSectionCount) {
    throw StoreError("header", path_ + ": expected " +
                                   std::to_string(kStoreSectionCount) +
                                   " sections, header says " +
                                   std::to_string(n_sections));
  }
  fingerprint_ = r.get_u64();
  build_seed_ = r.get_u64();
  mc_samples_ = r.get_u64();
  clk_ = r.get_f64();
  n_inputs_ = r.get_u32();
  n_outputs_ = r.get_u32();
  n_patterns_ = r.get_u32();
  n_arcs_ = r.get_u32();
  max_suspects_ = r.get_u32();
  global_weight_ = r.get_f64();
  (void)r.get_u64();  // size_unit_bits: the build's input, unused to serve
  mean_lo_ = r.get_f64();
  mean_hi_ = r.get_f64();
  three_sigma_ = r.get_f64();
  const std::uint32_t circuit_len = r.get_u32();
  if (circuit_len > 4096) {
    throw StoreError("header", path_ + ": implausible circuit name length " +
                                   std::to_string(circuit_len));
  }
  r.need(circuit_len);
  circuit_.assign(reinterpret_cast<const char*>(map_ + r.i), circuit_len);
  r.i += circuit_len;
  file_bytes_ = r.get_u64();

  sections_.clear();
  for (std::uint32_t s = 0; s < n_sections; ++s) {
    r.need(kStoreSectionNameLen);
    std::string name(reinterpret_cast<const char*>(map_ + r.i),
                     kStoreSectionNameLen);
    name.resize(name.find_first_of('\0') == std::string::npos
                    ? name.size()
                    : name.find_first_of('\0'));
    r.i += kStoreSectionNameLen;
    StoreSectionInfo sec;
    sec.name = std::move(name);
    sec.offset = r.get_u64();
    sec.bytes = r.get_u64();
    sec.crc = r.get_u64();
    sections_.push_back(std::move(sec));
  }
  const std::uint64_t crc_at = r.i;
  const std::uint64_t stored_header_crc = r.get_u64();
  {
    const std::uint64_t k = g_crc_ordinal.fetch_add(1);
    std::uint64_t crc = fnv1a(map_, crc_at);
    if (obs::fault_at("store.crc", k)) crc ^= 1;  // forged mismatch
    if (crc != stored_header_crc) {
      throw StoreError("header",
                       path_ + ": header checksum mismatch (stored " +
                           obs::hex64(stored_header_crc) +
                           ", computed " + obs::hex64(crc) + ")");
    }
  }

  if (file_bytes_ != map_bytes_) {
    // Name the first section the truncation eats into; a file *longer*
    // than the header claims is a framing error on the file itself.
    for (const StoreSectionInfo& sec : sections_) {
      if (!extent_fits(sec.offset, sec.bytes, map_bytes_)) {
        throw StoreError(
            sec.name, path_ + ": truncated: section '" + sec.name + "' [" +
                          std::to_string(sec.offset) + ", +" +
                          std::to_string(sec.bytes) +
                          ") runs past the file's " +
                          std::to_string(map_bytes_) +
                          " bytes (header expects " +
                          std::to_string(file_bytes_) + ")");
      }
    }
    throw StoreError("file", path_ + ": file is " +
                                 std::to_string(map_bytes_) +
                                 " bytes, header expects " +
                                 std::to_string(file_bytes_));
  }

  for (std::size_t s = 0; s < sections_.size(); ++s) {
    const StoreSectionInfo& sec = sections_[s];
    if (sec.name != kStoreSectionNames[s]) {
      throw StoreError("header", path_ + ": section " + std::to_string(s) +
                                     " is '" + sec.name + "', expected '" +
                                     kStoreSectionNames[s] + "'");
    }
    if (sec.offset % kStoreSectionAlign != 0 ||
        !extent_fits(sec.offset, sec.bytes, map_bytes_)) {
      throw StoreError(sec.name, path_ + ": section '" + sec.name +
                                     "' has an invalid extent [" +
                                     std::to_string(sec.offset) + ", +" +
                                     std::to_string(sec.bytes) + ")");
    }
    const std::uint64_t k = g_crc_ordinal.fetch_add(1);
    std::uint64_t crc = fnv1a(map_ + sec.offset, sec.bytes);
    if (obs::fault_at("store.crc", k)) crc ^= 1;  // forged mismatch
    if (crc != sec.crc) {
      throw StoreError(sec.name,
                       path_ + ": checksum mismatch in section '" + sec.name +
                           "' (stored " + obs::hex64(sec.crc) +
                           ", computed " + obs::hex64(crc) + ")");
    }
  }

  // Geometry: every fixed-layout section must be exactly the size the
  // header's dimensions imply, or pointer arithmetic below would read junk.
  input_words_ = (n_inputs_ + 63) / 64;
  arc_words_ = (n_arcs_ + 63) / 64;
  const std::uint64_t expect[] = {
      checked_product({n_patterns_, 2, input_words_, 8}, "patterns", path_),
      checked_product({n_patterns_, n_outputs_, arc_words_, 8}, "cones",
                      path_),
      checked_product({n_patterns_, n_outputs_, 8}, "m", path_),
  };
  for (std::size_t s = 0; s < std::size(expect); ++s) {
    if (sections_[s].bytes != expect[s]) {
      throw StoreError(sections_[s].name,
                       path_ + ": section '" + sections_[s].name + "' is " +
                           std::to_string(sections_[s].bytes) +
                           " bytes, dimensions imply " +
                           std::to_string(expect[s]));
    }
  }
  patterns_ =
      reinterpret_cast<const std::uint64_t*>(map_ + sections_[0].offset);
  cones_ = reinterpret_cast<const std::uint64_t*>(map_ + sections_[1].offset);
  m_ = reinterpret_cast<const double*>(map_ + sections_[2].offset);
  index_e_section();

  if (expect_fingerprint != 0 && fingerprint_ != expect_fingerprint) {
    throw StoreError("header",
                     path_ + ": fingerprint mismatch: store is " +
                         obs::hex64(fingerprint_) + ", expected " +
                         obs::hex64(expect_fingerprint));
  }
}

void DictionaryStore::index_e_section() {
  const StoreSectionInfo& sec = sections_[3];
  const auto fail = [&](const std::string& what) {
    throw StoreError(sec.name, path_ + ": malformed '" + sec.name +
                                   "' index: " + what);
  };
  if (sec.bytes % 8 != 0) fail("not a whole number of 8-byte words");
  const auto* words = reinterpret_cast<const std::uint64_t*>(map_ + sec.offset);
  const std::uint64_t n_words = sec.bytes / 8;
  // Every pattern starts with its column count, so this also bounds the
  // per-pattern index below by the file size.
  if (n_patterns_ > n_words) {
    fail(std::to_string(n_patterns_) + " patterns but only " +
         std::to_string(n_words) + " words");
  }
  std::uint64_t at = 0;
  std::size_t n_stored = 0;
  stored_.assign(n_patterns_, StoredColumns{});
  for (std::size_t j = 0; j < n_patterns_; ++j) {
    const auto pattern = [j] { return "pattern " + std::to_string(j); };
    if (at == n_words) fail(pattern() + " has no column count");
    const std::uint64_t n = words[at++];
    // n arc ids and n columns of n_outputs doubles must fit in what is left.
    std::uint64_t need = 0;
    if (__builtin_mul_overflow(n, std::uint64_t{n_outputs_} + 1, &need) ||
        need > n_words - at) {
      fail(pattern() + " claims " + std::to_string(n) +
           " columns, which overrun the section");
    }
    const std::uint64_t* arcs = words + at;
    for (std::uint64_t k = 0; k < n; ++k) {
      if (arcs[k] >= n_arcs_) {
        fail(pattern() + " stores arc " + std::to_string(arcs[k]) +
             ", the circuit has " + std::to_string(n_arcs_));
      }
      if (k > 0 && arcs[k] <= arcs[k - 1]) {
        fail(pattern() + " arc ids are not strictly ascending at " +
             std::to_string(arcs[k]));
      }
    }
    at += n;
    stored_[j] = StoredColumns{arcs, static_cast<std::size_t>(n),
                               reinterpret_cast<const double*>(words + at),
                               nullptr};
    at += n * n_outputs_;
    n_stored += static_cast<std::size_t>(n);
  }
  if (at != n_words) {
    fail(std::to_string((n_words - at) * 8) + " trailing bytes");
  }

  // S = max(E - M, 0) of every stored column, with the dictionary's own
  // expression (PatternSlice::signature_column_into), so the bytes are
  // the ones a fresh dictionary computes.  Every other pair's S is zero.
  s_data_.resize(n_stored * n_outputs_);
  double* s = s_data_.data();
  for (std::size_t j = 0; j < n_patterns_; ++j) {
    StoredColumns& sc = stored_[j];
    sc.s = s;
    const double* m = m_column(j);
    for (std::size_t k = 0; k < sc.n; ++k) {
      const double* e = sc.e + k * n_outputs_;
      for (std::size_t i = 0; i < n_outputs_; ++i) {
        *s++ = std::max(e[i] - m[i], 0.0);
      }
    }
  }
  zero_column_.assign(n_outputs_, 0.0);
}

DictionaryStore::~DictionaryStore() {
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
  }
}

std::string DictionaryStore::run_id() const {
  return obs::hex64(fingerprint_);
}

const double* DictionaryStore::m_column(std::size_t j) const {
  return m_ + j * n_outputs_;
}

const double* DictionaryStore::shared_column(std::size_t j,
                                             bool match_e) const {
  return match_e ? m_column(j) : zero_column_.data();
}

const double* DictionaryStore::column(std::size_t j, ArcId arc,
                                      bool match_e) const {
  const StoredColumns& sc = stored_[j];
  const std::uint64_t* end = sc.arcs + sc.n;
  const std::uint64_t* it = std::lower_bound(sc.arcs, end, arc);
  if (it == end || *it != arc) return shared_column(j, match_e);
  const auto k = static_cast<std::size_t>(it - sc.arcs);
  return (match_e ? sc.e : sc.s) + k * n_outputs_;
}

const std::uint64_t* DictionaryStore::cone_row(std::size_t j,
                                               std::size_t output) const {
  return cones_ + (j * n_outputs_ + output) * arc_words_;
}

logicsim::PatternPair DictionaryStore::pattern(std::size_t j) const {
  logicsim::PatternPair out;
  const std::uint64_t* base = patterns_ + j * 2 * input_words_;
  out.v1.resize(n_inputs_);
  out.v2.resize(n_inputs_);
  for (std::size_t i = 0; i < n_inputs_; ++i) {
    out.v1[i] = ((base[i >> 6] >> (i & 63)) & 1U) != 0;
    out.v2[i] = ((base[input_words_ + (i >> 6)] >> (i & 63)) & 1U) != 0;
  }
  return out;
}

std::vector<logicsim::PatternPair> DictionaryStore::patterns() const {
  std::vector<logicsim::PatternPair> out;
  out.reserve(n_patterns_);
  for (std::size_t j = 0; j < n_patterns_; ++j) out.push_back(pattern(j));
  return out;
}

StoreVerifyReport verify_store_file(const std::string& path) {
  StoreVerifyReport report;
  try {
    const DictionaryStore store(path);
    report.ok = true;
  } catch (const StoreError& e) {
    report.bad_section = e.section();
    report.message = e.what();
  } catch (const Error& e) {
    report.bad_section = "file";
    report.message = e.what();
  }
  return report;
}

// ---------------------------------------------------------------------------
// Replay-corpus chips

std::vector<SampledChip> sample_failing_chips(const netlist::Netlist& nl,
                                              const DictionaryStore& store,
                                              std::size_t n_chips,
                                              std::size_t max_retries) {
  if (nl.name() != store.circuit() || nl.inputs().size() != store.n_inputs() ||
      nl.outputs().size() != store.n_outputs() ||
      nl.arc_count() != store.n_arcs()) {
    throw StoreError("header", store.path() + ": store was built for circuit '" +
                                   store.circuit() + "', not '" + nl.name() +
                                   "'");
  }
  // The header records the build's world knobs (the cell library is
  // assumed default, like `dict build`'s) and its clk, so the sampler
  // stands in the world the store was built in, at the store's clk.
  StoreBuildConfig built;
  built.mc_samples = store.mc_samples();
  built.global_weight = store.global_weight();
  built.defect_mean_lo = store.defect_mean_lo();
  built.defect_mean_hi = store.defect_mean_hi();
  built.defect_three_sigma = store.defect_three_sigma();
  built.seed = store.build_seed();
  const eval::ExperimentSetup world(nl, world_config(built), store.clk());
  const std::vector<logicsim::PatternPair> patterns = store.patterns();

  std::vector<SampledChip> out;
  out.reserve(n_chips);
  for (std::size_t t = 0; t < n_chips; ++t) {
    Rng rng = world.trial_rng(t);
    SampledChip sample;
    bool failed = false;
    for (std::size_t attempt = 0; attempt < max_retries && !failed;
         ++attempt) {
      sample.chip = world.injector.draw(world.instance_samples, rng);
      sample.B = diagnosis::observe_behavior(
          world.inst_sim, world.logic_sim, world.lev, patterns,
          sample.chip.sample_index,
          std::make_pair(sample.chip.defect_arc, sample.chip.defect_size),
          world.clk);
      failed = sample.B.any_failure();
    }
    if (!failed) {
      SDDD_LOG_WARN("store: chip %zu never failed within %zu draws; skipped",
                    t, max_retries);
      continue;
    }
    out.push_back(std::move(sample));
  }
  return out;
}

}  // namespace sddd::store
