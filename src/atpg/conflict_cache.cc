#include "atpg/conflict_cache.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "obs/metrics.h"

namespace sddd::atpg {

namespace {

// Cores learned, the bytes the cache occupies (cores, and the abort memo's
// key payload) and the memo's share of them, summed over every cache in the
// process.  They depend on the thread schedule (which call proves a core
// first), so they stay out of every byte-identity check.
obs::Counter& cores_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("atpg.conflict.cores");
  return c;
}

obs::Counter& bytes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("atpg.conflict.bytes");
  return c;
}

obs::Counter& memo_bytes_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().register_counter(
      "atpg.conflict.memo_bytes");
  return c;
}

}  // namespace

ConflictCache::ConflictCache(const netlist::Netlist& nl)
    : heads_(2 * nl.gate_count(), kNone),
      bytes_(heads_.size() * sizeof(std::uint32_t)) {
  bytes_counter().add(bytes_);
}

bool ConflictCache::covers_locked(std::span<const Literal> query) const {
  for (std::size_t i = 0; i < query.size(); ++i) {
    if (query[i] >= heads_.size()) break;
    // Every core watched by query[i] has its other literals below it.
    for (std::uint32_t c = heads_[query[i]]; c != kNone; c = cores_[c].next) {
      const Core& core = cores_[c];
      const auto first = literals_.begin() + core.begin;
      if (std::includes(query.begin(), query.begin() + i, first,
                        first + core.size - 1)) {
        return true;
      }
    }
  }
  return false;
}

bool ConflictCache::covers(std::span<const Literal> query) const {
  const std::shared_lock lock(mu_);
  return covers_locked(query);
}

bool ConflictCache::add(std::span<const Literal> core) {
  if (core.empty() || core.back() >= heads_.size()) {
    throw std::invalid_argument("ConflictCache: core outside the netlist");
  }
  const std::size_t added = core.size() * sizeof(Literal) + sizeof(Core);
  const std::unique_lock lock(mu_);
  if (bytes_ + added > kMaxBytes || covers_locked(core)) return false;
  const Literal watch = core.back();
  cores_.push_back(Core{static_cast<std::uint32_t>(literals_.size()),
                        static_cast<std::uint32_t>(core.size()),
                        heads_[watch]});
  heads_[watch] = static_cast<std::uint32_t>(cores_.size() - 1);
  literals_.insert(literals_.end(), core.begin(), core.end());
  bytes_ += added;
  cores_counter().add(1);
  bytes_counter().add(added);
  return true;
}

bool ConflictCache::refused(const std::vector<std::uint32_t>& query) const {
  const std::shared_lock lock(mu_);
  return refused_.contains(query);
}

void ConflictCache::record_refused(const std::vector<std::uint32_t>& query) {
  const std::size_t added = query.size() * sizeof(std::uint32_t);
  const std::unique_lock lock(mu_);
  if (memo_bytes_ + added > kMaxMemoBytes || !refused_.insert(query).second) {
    return;
  }
  memo_bytes_ += added;
  bytes_counter().add(added);
  memo_bytes_counter().add(added);
}

ConflictCache::Stats ConflictCache::stats() const {
  const std::shared_lock lock(mu_);
  return Stats{cores_.size(), refused_.size(), bytes_ + memo_bytes_};
}

std::vector<std::vector<Objective>> ConflictCache::cores() const {
  const std::shared_lock lock(mu_);
  std::vector<std::vector<Objective>> out;
  out.reserve(cores_.size());
  for (const Core& core : cores_) {
    auto& objectives = out.emplace_back();
    for (std::uint32_t k = 0; k < core.size; ++k) {
      const Literal lit = literals_[core.begin + k];
      objectives.push_back(
          Objective{static_cast<netlist::GateId>(lit >> 1U), (lit & 1U) != 0});
    }
  }
  return out;
}

}  // namespace sddd::atpg
