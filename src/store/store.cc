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
#include <set>
#include <utility>

#include "atpg/diag_patterns.h"
#include "diagnosis/dictionary.h"
#include "eval/checkpoint.h"
#include "eval/experiment.h"
#include "introspect/manifest.h"
#include "netlist/levelize.h"
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
#include "stats/rv.h"
#include "stats/sample_vector.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

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

/// The model/simulator stack a store build runs on.  Construction mirrors
/// eval::ExperimentSetup's derivations exactly where they overlap (seed
/// xors, calibration stream, size model), so a store built at the
/// experiment's defaults predicts the same probabilities the experiment's
/// dictionary would.
struct BuildStack {
  netlist::Levelization lev;
  timing::StatisticalCellLibrary lib;
  timing::ArcDelayModel model;
  logicsim::BitSimulator logic_sim;
  timing::DelayField dict_field;
  timing::DynamicTimingSimulator dict_sim;
  defect::DefectSizeModel size_model;
  double clk = 0.0;
  std::vector<logicsim::PatternPair> patterns;

  BuildStack(const netlist::Netlist& nl, const StoreBuildConfig& config)
      : lev(nl),
        lib(config.library),
        model(nl, lib),
        logic_sim(nl, lev),
        dict_field(model, config.mc_samples, config.global_weight,
                   config.seed ^ 0xd1c7ULL),
        dict_sim(dict_field, lev),
        size_model(model.mean_cell_delay(), config.defect_mean_lo,
                   config.defect_mean_hi, config.defect_three_sigma,
                   config.seed ^ 0x5e1fULL) {
    const atpg::DiagnosticPatternConfig pattern_config;
    if (config.clk_override > 0.0) {
      clk = config.clk_override;
    } else {
      // clk calibration: the experiment's per-site achievable-delay sweep.
      Rng cal_rng(config.seed, 0xca1bULL);
      std::vector<double> site_delays;
      for (std::size_t s = 0; s < config.calibration_sites; ++s) {
        const auto site = static_cast<ArcId>(
            cal_rng.below(static_cast<std::uint32_t>(nl.arc_count())));
        const auto cal_patterns = atpg::generate_diagnostic_patterns(
            model, lev, site, pattern_config, cal_rng);
        const double d =
            atpg::site_best_nominal_delay(model, lev, cal_patterns, site);
        if (d > 0.0) site_delays.push_back(d);
      }
      if (site_delays.empty()) {
        throw ModelError("dict build: no calibration site was testable");
      }
      clk = stats::SampleVector(std::move(site_delays))
                .quantile(config.clk_site_quantile);
    }

    // Pattern set: deduped union of diagnostic pattern sets for
    // pattern_sites randomly drawn fault sites, capped at max_patterns.
    // A dedicated stream keeps the set independent of the calibration.
    Rng pat_rng(config.seed, 0x9a77ULL);
    std::set<std::string> seen;
    for (std::size_t s = 0;
         s < config.pattern_sites && patterns.size() < config.max_patterns;
         ++s) {
      const auto site = static_cast<ArcId>(
          pat_rng.below(static_cast<std::uint32_t>(nl.arc_count())));
      for (auto& p : atpg::generate_diagnostic_patterns(model, lev, site,
                                                        pattern_config,
                                                        pat_rng)) {
        std::string key;
        key.reserve(p.v1.size() * 2);
        for (const bool b : p.v1) key.push_back(b ? '1' : '0');
        for (const bool b : p.v2) key.push_back(b ? '1' : '0');
        if (!seen.insert(std::move(key)).second) continue;
        patterns.push_back(std::move(p));
        if (patterns.size() >= config.max_patterns) break;
      }
    }
    if (patterns.empty()) {
      throw ModelError("dict build: pattern-site sweep produced no patterns");
    }
  }
};

std::uint64_t store_fingerprint(const netlist::Netlist& nl,
                                const StoreBuildConfig& config,
                                const BuildStack& stack) {
  // The checkpoint journal's experiment fingerprint over the knobs the
  // store shares with the experiment harness...
  eval::ExperimentConfig mirror;
  mirror.mc_samples = config.mc_samples;
  mirror.n_chips = 0;
  mirror.calibration_sites = config.calibration_sites;
  mirror.clk_site_quantile = config.clk_site_quantile;
  mirror.global_weight = config.global_weight;
  mirror.defect_mean_lo = config.defect_mean_lo;
  mirror.defect_mean_hi = config.defect_mean_hi;
  mirror.defect_three_sigma = config.defect_three_sigma;
  mirror.max_suspects = config.max_suspects;
  mirror.library = config.library;
  mirror.seed = config.seed;
  const std::uint64_t base = eval::experiment_fingerprint(nl.name(), mirror);

  // ...then fold in what makes this a *store*: format version, the
  // calibrated clk and the exact pattern set the matrices are indexed by.
  std::string tail = "sddd-store-v1|";
  put_u64(&tail, base);
  put_u32(&tail, kStoreFormatVersion);
  put_u64(&tail, std::bit_cast<std::uint64_t>(stack.clk));
  put_u64(&tail, config.pattern_sites);
  put_u64(&tail, config.max_patterns);
  put_u64(&tail, stack.patterns.size());
  for (const auto& p : stack.patterns) {
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
  const BuildStack stack(nl, config);
  const std::size_t n_inputs = nl.inputs().size();
  const std::size_t n_outputs = nl.outputs().size();
  const std::size_t n_patterns = stack.patterns.size();
  const std::size_t n_arcs = nl.arc_count();
  const std::size_t n_samples = config.mc_samples;
  const std::size_t input_words = (n_inputs + 63) / 64;
  const std::size_t arc_words = (n_arcs + 63) / 64;

  // Per-arc defect-size tables, shared by the "sizes" section and every
  // e/s column build (sizes[a][k] == size_model.sample(a, k), the
  // diagnoser's own precompute).
  std::vector<std::vector<double>> size_tables(n_arcs);
  runtime::parallel_for(n_arcs, [&](std::size_t a) {
    auto& table = size_tables[a];
    table.resize(n_samples);
    for (std::size_t k = 0; k < n_samples; ++k) {
      table[k] = stack.size_model.sample(static_cast<ArcId>(a), k);
    }
  });

  // One pass per pattern: the slice materializes the baseline arrivals
  // once; every arc's E and S columns evaluate against it in parallel
  // (each (pattern, arc) writes only its own rows - deterministic at any
  // thread count), and the pattern's per-output cone bitsets come from
  // the same transition graph.
  std::vector<double> m_data(n_patterns * n_outputs);
  std::vector<double> e_data(n_patterns * n_arcs * n_outputs);
  std::vector<double> s_data(n_patterns * n_arcs * n_outputs);
  std::vector<std::uint64_t> cone_data(n_patterns * n_outputs * arc_words, 0);
  for (std::size_t j = 0; j < n_patterns; ++j) {
    runtime::poll_cancellation();
    const diagnosis::PatternSlice slice(stack.dict_sim, stack.logic_sim,
                                        stack.lev, stack.patterns[j],
                                        stack.clk);
    std::copy(slice.m_column().begin(), slice.m_column().end(),
              m_data.begin() + static_cast<std::ptrdiff_t>(j * n_outputs));
    const paths::TransitionGraph& tg = slice.transition_graph();
    for (std::size_t i = 0; i < n_outputs; ++i) {
      const auto cone = tg.cone_to_output(nl.outputs()[i]);
      std::uint64_t* row =
          cone_data.data() + (j * n_outputs + i) * arc_words;
      for (std::size_t a = 0; a < n_arcs; ++a) {
        if (cone[a]) row[a >> 6] |= 1ULL << (a & 63);
      }
    }
    runtime::parallel_for_chunked(
        n_arcs, 16, [&](std::size_t lo, std::size_t hi) {
          std::vector<double> col;
          for (std::size_t a = lo; a < hi; ++a) {
            const std::size_t base = (j * n_arcs + a) * n_outputs;
            slice.e_column_into(static_cast<ArcId>(a), size_tables[a], col);
            std::copy(col.begin(), col.end(),
                      e_data.begin() + static_cast<std::ptrdiff_t>(base));
            slice.signature_column_into(static_cast<ArcId>(a), size_tables[a],
                                        col);
            std::copy(col.begin(), col.end(),
                      s_data.begin() + static_cast<std::ptrdiff_t>(base));
          }
        });
  }

  // Section payloads in file order.
  std::string payloads[kStoreSectionCount];
  {
    std::string& p = payloads[0];  // patterns
    p.reserve(n_patterns * 2 * input_words * 8);
    for (const auto& pat : stack.patterns) {
      pack_pattern_bits(pat.v1, input_words, &p);
      pack_pattern_bits(pat.v2, input_words, &p);
    }
  }
  {
    std::string& p = payloads[1];  // cones
    p.reserve(cone_data.size() * 8);
    for (const std::uint64_t w : cone_data) put_u64(&p, w);
  }
  const auto put_doubles = [](std::string& p, const std::vector<double>& d) {
    p.reserve(d.size() * 8);
    for (const double v : d) put_f64(&p, v);
  };
  put_doubles(payloads[2], m_data);
  put_doubles(payloads[3], e_data);
  put_doubles(payloads[4], s_data);
  {
    std::string& p = payloads[5];  // sizes
    p.reserve(n_arcs * n_samples * 8);
    for (const auto& table : size_tables) {
      for (const double v : table) put_f64(&p, v);
    }
  }

  const std::uint64_t fingerprint = store_fingerprint(nl, config, stack);

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
  put_f64(&out, stack.clk);
  put_u32(&out, static_cast<std::uint32_t>(n_inputs));
  put_u32(&out, static_cast<std::uint32_t>(n_outputs));
  put_u32(&out, static_cast<std::uint32_t>(n_patterns));
  put_u32(&out, static_cast<std::uint32_t>(n_arcs));
  put_u32(&out, static_cast<std::uint32_t>(config.max_suspects));
  put_f64(&out, config.global_weight);
  put_f64(&out, stack.size_model.unit());
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
    info->run_id = introspect::to_hex64(fingerprint);
    info->clk = stack.clk;
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
  size_unit_ = r.get_f64();
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
                           introspect::to_hex64(stored_header_crc) +
                           ", computed " + introspect::to_hex64(crc) + ")");
    }
  }

  if (file_bytes_ != map_bytes_) {
    // Name the first section the truncation eats into; a file *longer*
    // than the header claims is a framing error on the file itself.
    for (const StoreSectionInfo& sec : sections_) {
      if (sec.offset + sec.bytes > map_bytes_) {
        throw StoreError(
            sec.name, path_ + ": truncated: section '" + sec.name +
                          "' extends to byte " +
                          std::to_string(sec.offset + sec.bytes) +
                          " but the file has only " +
                          std::to_string(map_bytes_) +
                          " (header expects " + std::to_string(file_bytes_) +
                          ")");
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
        sec.offset + sec.bytes > map_bytes_) {
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
                           "' (stored " + introspect::to_hex64(sec.crc) +
                           ", computed " + introspect::to_hex64(crc) + ")");
    }
  }

  // Geometry: every section must be exactly the size the header's
  // dimensions imply, or pointer arithmetic below would read junk.
  input_words_ = (n_inputs_ + 63) / 64;
  arc_words_ = (n_arcs_ + 63) / 64;
  const std::uint64_t expect[kStoreSectionCount] = {
      static_cast<std::uint64_t>(n_patterns_) * 2 * input_words_ * 8,
      static_cast<std::uint64_t>(n_patterns_) * n_outputs_ * arc_words_ * 8,
      static_cast<std::uint64_t>(n_patterns_) * n_outputs_ * 8,
      static_cast<std::uint64_t>(n_patterns_) * n_arcs_ * n_outputs_ * 8,
      static_cast<std::uint64_t>(n_patterns_) * n_arcs_ * n_outputs_ * 8,
      static_cast<std::uint64_t>(n_arcs_) * mc_samples_ * 8,
  };
  for (std::size_t s = 0; s < kStoreSectionCount; ++s) {
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
  e_ = reinterpret_cast<const double*>(map_ + sections_[3].offset);
  s_ = reinterpret_cast<const double*>(map_ + sections_[4].offset);
  sizes_ = reinterpret_cast<const double*>(map_ + sections_[5].offset);

  if (expect_fingerprint != 0 && fingerprint_ != expect_fingerprint) {
    throw StoreError("header",
                     path_ + ": fingerprint mismatch: store is " +
                         introspect::to_hex64(fingerprint_) + ", expected " +
                         introspect::to_hex64(expect_fingerprint));
  }
}

DictionaryStore::~DictionaryStore() {
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
  }
}

std::string DictionaryStore::run_id() const {
  return introspect::to_hex64(fingerprint_);
}

const double* DictionaryStore::m_column(std::size_t j) const {
  return m_ + j * n_outputs_;
}

const double* DictionaryStore::e_column(std::size_t j, ArcId arc) const {
  return e_ + (j * n_arcs_ + static_cast<std::size_t>(arc)) * n_outputs_;
}

const double* DictionaryStore::s_column(std::size_t j, ArcId arc) const {
  return s_ + (j * n_arcs_ + static_cast<std::size_t>(arc)) * n_outputs_;
}

const double* DictionaryStore::size_table(ArcId arc) const {
  return sizes_ + static_cast<std::size_t>(arc) * mc_samples_;
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
  const netlist::Levelization lev(nl);
  // The sampler assumes the default cell library, like `dict build`; the
  // store header does not carry library knobs.
  const timing::StatisticalCellLibrary lib{timing::CellLibraryConfig{}};
  const timing::ArcDelayModel model(nl, lib);
  const logicsim::BitSimulator logic_sim(nl, lev);
  const timing::DelayField inst_field(model, store.mc_samples(),
                                      store.global_weight(),
                                      store.build_seed() ^ 0xc41bULL);
  const timing::DynamicTimingSimulator inst_sim(inst_field, lev);
  const defect::DefectSizeModel size_model(
      model.mean_cell_delay(), store.defect_mean_lo(), store.defect_mean_hi(),
      store.defect_three_sigma(), store.build_seed() ^ 0x5e1fULL);
  const stats::RandomVariable size_rv = stats::RandomVariable::Normal(
      size_model.marginal_mean(), size_model.marginal_mean() / 6.0);
  const defect::SegmentDefectModel location_model =
      defect::SegmentDefectModel::uniform_single(nl, size_rv);
  const defect::DefectInjector injector(location_model, size_model);
  const std::vector<logicsim::PatternPair> patterns = store.patterns();

  std::vector<SampledChip> out;
  out.reserve(n_chips);
  for (std::size_t t = 0; t < n_chips; ++t) {
    Rng rng = Rng(store.build_seed(), 0xe4a1ULL).split(t + 1);
    SampledChip sample;
    bool failed = false;
    for (std::size_t attempt = 0; attempt < max_retries && !failed;
         ++attempt) {
      sample.chip = injector.draw(store.mc_samples(), rng);
      sample.B = diagnosis::observe_behavior(
          inst_sim, logic_sim, lev, patterns, sample.chip.sample_index,
          std::make_pair(sample.chip.defect_arc, sample.chip.defect_size),
          store.clk());
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
