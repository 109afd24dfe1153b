#include "diagnosis/signature_matrix.h"

#include <cstring>
#include <new>
#include <optional>

#include "obs/codec.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace sddd::diagnosis {

namespace {

obs::Counter& sig_cache_hits_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.sig_cache.hits");
  return c;
}

obs::Counter& sig_cache_misses_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().register_counter(
      "dict.sig_cache.misses");
  return c;
}

obs::Counter& sig_cache_bytes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.sig_cache.bytes");
  return c;
}

// FNV-1a over the launch/capture bits plus their lengths.  Equality of the
// stored pattern is always verified afterwards, so a collision only costs
// one extra Entry in the bucket, never a wrong column.
std::uint64_t pattern_fingerprint(const logicsim::PatternPair& p) {
  std::uint64_t h = obs::kFnv1aOffset;
  const auto mix_bits = [&h](const logicsim::Pattern& bits) {
    h = obs::fnv1a_step(h, static_cast<std::uint8_t>(bits.size()));
    h = obs::fnv1a_step(h, static_cast<std::uint8_t>(bits.size() >> 8));
    std::uint8_t byte = 0;
    std::size_t fill = 0;
    for (const bool bit : bits) {
      byte = static_cast<std::uint8_t>((byte << 1) | (bit ? 1 : 0));
      if (++fill == 8) {
        h = obs::fnv1a_step(h, byte);
        byte = 0;
        fill = 0;
      }
    }
    if (fill != 0) h = obs::fnv1a_step(h, byte);
  };
  mix_bits(p.v1);
  mix_bits(p.v2);
  return h;
}

bool same_pattern(const logicsim::PatternPair& a,
                  const logicsim::PatternPair& b) {
  return a.v1 == b.v1 && a.v2 == b.v2;
}

}  // namespace

void SignatureCache::AlignedFree::operator()(double* p) const noexcept {
  ::operator delete[](p, std::align_val_t{64});
}

SignatureCache::SignatureCache(const timing::DynamicTimingSimulator& sim,
                               const logicsim::BitSimulator& logic_sim,
                               const netlist::Levelization& lev,
                               const defect::DefectSizeModel& size_model,
                               double clk, bool match_on_total_probability)
    : sim_(&sim),
      logic_sim_(&logic_sim),
      lev_(&lev),
      size_model_(&size_model),
      clk_(clk),
      match_e_(match_on_total_probability) {}

std::span<const double> SignatureCache::sizes_for(
    netlist::ArcId suspect) const {
  const std::lock_guard<std::mutex> lock(sizes_mu_);
  auto it = sizes_.find(suspect);
  if (it == sizes_.end()) {
    const std::size_t n = sim_->field().sample_count();
    std::vector<double> table(n);
    for (std::size_t k = 0; k < n; ++k) {
      table[k] = size_model_->sample(suspect, k);
    }
    it = sizes_.emplace(suspect, std::move(table)).first;
  }
  // The vector's heap buffer survives any later map rehash, so the span
  // stays valid without holding the lock.
  return {it->second.data(), it->second.size()};
}

SignatureCache::Entry& SignatureCache::entry_for(
    const logicsim::PatternPair& pattern) const {
  const std::uint64_t fp = pattern_fingerprint(pattern);
  const std::lock_guard<std::mutex> lock(map_mu_);
  auto& bucket = entries_[fp];
  for (const auto& e : bucket) {
    if (same_pattern(e->pattern, pattern)) return *e;
  }
  bucket.push_back(std::make_unique<Entry>());
  bucket.back()->pattern = pattern;
  return *bucket.back();
}

void SignatureCache::fill_collapse(Entry& entry,
                                   const PatternSlice& slice) const {
  // The slice's ternary transition graph yields the active-arc flags, its
  // baseline error vector the column every inactive suspect's E column
  // equals (dynamic_sim falls back to error_vector_into when the arc is
  // off every active path).  Under S matching that shared column is
  // exactly zero: S = max(M - M, 0).
  auto cs = std::make_unique<CollapseSlice>();
  const auto& nl = logic_sim_->netlist();
  cs->active.resize(nl.arc_count());
  for (netlist::ArcId a = 0; a < nl.arc_count(); ++a) {
    cs->active[a] = slice.transition_graph().is_active(a) ? 1 : 0;
  }
  if (match_e_) {
    cs->baseline = slice.m_column();
  } else {
    cs->baseline.assign(slice.m_column().size(), 0.0);
  }
  n_outputs_.store(cs->baseline.size(), std::memory_order_release);
  entry.collapse = std::move(cs);
}

const SignatureCache::CollapseSlice& SignatureCache::collapse_slice(
    const logicsim::PatternPair& pattern) const {
  Entry& entry = entry_for(pattern);
  const std::lock_guard<std::mutex> lock(entry.mu);
  if (entry.collapse == nullptr) {
    fill_collapse(entry,
                  PatternSlice(*sim_, *logic_sim_, *lev_, pattern, clk_));
  }
  return *entry.collapse;
}

const double* SignatureCache::columns(
    const logicsim::PatternPair& pattern,
    std::span<const netlist::ArcId> suspects,
    std::vector<const double*>& out) const {
  Entry& entry = entry_for(pattern);
  out.resize(suspects.size());
  const std::lock_guard<std::mutex> lock(entry.mu);

  // At most one PatternSlice (baseline arrival matrix) per call, alive only
  // for this scope: it yields the pattern's collapse slice on first use
  // and every missing column.  The cache keeps just the |O|-double columns.
  std::optional<PatternSlice> slice;
  const auto pattern_slice = [&]() -> const PatternSlice& {
    if (!slice) slice.emplace(*sim_, *logic_sim_, *lev_, pattern, clk_);
    return *slice;
  };
  if (entry.collapse == nullptr) fill_collapse(entry, pattern_slice());
  const CollapseSlice& cs = *entry.collapse;
  const double* shared = cs.baseline.data();

  // First pass: unsensitized suspects take the shared baseline column
  // (no lookup, no build), cached ones their column; collect the rest.
  std::vector<std::size_t> missing;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    if (cs.active[suspects[i]] == 0) {
      out[i] = shared;
      continue;
    }
    const auto it = entry.index.find(suspects[i]);
    if (it != entry.index.end()) {
      out[i] = entry.cols[it->second].get();
      ++hits;
    } else {
      out[i] = nullptr;
      missing.push_back(i);
    }
  }
  if (hits != 0) {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    sig_cache_hits_counter().add(hits);
  }
  if (missing.empty()) return shared;

  // Build the missing columns through the validated dictionary path.
  std::vector<double> scratch;
  std::uint64_t built = 0;
  std::uint64_t built_bytes = 0;
  for (const std::size_t i : missing) {
    const netlist::ArcId suspect = suspects[i];
    // A suspect may repeat within one call; the second occurrence is now
    // a hit on the column the first one just built.
    const auto it = entry.index.find(suspect);
    if (it != entry.index.end()) {
      out[i] = entry.cols[it->second].get();
      hits_.fetch_add(1, std::memory_order_relaxed);
      sig_cache_hits_counter().add(1);
      continue;
    }
    const std::span<const double> sizes = sizes_for(suspect);
    if (match_e_) {
      pattern_slice().e_column_into(suspect, sizes, scratch);
    } else {
      pattern_slice().signature_column_into(suspect, sizes, scratch);
    }
    const std::size_t n = scratch.size();
    Column col(static_cast<double*>(
        ::operator new[](n * sizeof(double), std::align_val_t{64})));
    if (n != 0) std::memcpy(col.get(), scratch.data(), n * sizeof(double));
    entry.index.emplace(suspect, entry.cols.size());
    entry.cols.push_back(std::move(col));
    out[i] = entry.cols.back().get();
    ++built;
    built_bytes += n * sizeof(double);
  }
  misses_.fetch_add(built, std::memory_order_relaxed);
  sig_cache_misses_counter().add(built);
  bytes_.fetch_add(built_bytes, std::memory_order_relaxed);
  sig_cache_bytes_counter().add(built_bytes);
  if (built != 0) {
    // One breadcrumb per miss *batch*, not per column: which caller built
    // a shared column is schedule-dependent, so these events are excluded
    // from the deterministic-merge contract (DESIGN.md section 14).
    obs::Recorder::instance().record(obs::EventKind::kCacheMiss, "sig", built,
                                     built_bytes);
  }
  return shared;
}

SignatureCache::Stats SignatureCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sddd::diagnosis
