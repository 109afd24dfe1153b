#include "atpg/conflict_cache.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/codec.h"
#include "obs/metrics.h"

namespace sddd::atpg {

namespace {

// Cores learned, the bytes the cache occupies (cores and the abort memo)
// and the memo's share of them, summed over every cache in the process.  They
// depend on the thread schedule (which call proves a core first), so they
// stay out of every byte-identity check.
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

KeyMemo::KeyMemo(bool narrow, std::size_t max_bytes)
    : word_bytes_(narrow ? sizeof(std::uint16_t) : sizeof(std::uint32_t)),
      chunk_words_(kChunkBytes / word_bytes_),
      max_bytes_(max_bytes) {}

std::uint32_t KeyMemo::hash(std::span<const std::uint32_t> key) {
  // FNV-1a over whole values, then a 64-bit finalizer (MurmurHash3's
  // fmix64) so the low bits that pick the slot depend on every value.
  std::uint64_t h = obs::kFnv1aOffset ^ key.size();
  for (const std::uint32_t v : key) h = (h ^ v) * obs::kFnv1aPrime;
  h ^= h >> 33U;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33U;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33U;
  return static_cast<std::uint32_t>(h);
}

std::size_t KeyMemo::bytes() const {
  return chunks_.size() * kChunkBytes + slots_.size() * sizeof(Slot);
}

bool KeyMemo::fits(std::span<const std::uint32_t> key) const {
  if (key.size() + 1 > chunk_words_) return false;
  if (word_bytes_ == sizeof(std::uint32_t)) return true;
  return std::all_of(key.begin(), key.end(),
                     [](std::uint32_t v) { return v <= 0xFFFFU; });
}

std::uint32_t KeyMemo::word(std::uint32_t ref, std::size_t i) const {
  const std::size_t at = ref % chunk_words_ + i;
  const std::byte* p = chunks_[ref / chunk_words_].get() + at * word_bytes_;
  if (word_bytes_ == sizeof(std::uint16_t)) {
    std::uint16_t w = 0;
    std::memcpy(&w, p, sizeof w);
    return w;
  }
  std::uint32_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

void KeyMemo::put(std::uint32_t ref, std::size_t i, std::uint32_t value) {
  const std::size_t at = ref % chunk_words_ + i;
  std::byte* p = chunks_[ref / chunk_words_].get() + at * word_bytes_;
  if (word_bytes_ == sizeof(std::uint16_t)) {
    const auto w = static_cast<std::uint16_t>(value);
    std::memcpy(p, &w, sizeof w);
  } else {
    std::memcpy(p, &value, sizeof value);
  }
}

std::size_t KeyMemo::find(std::span<const std::uint32_t> key,
                          std::uint32_t h) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.ref == kEmpty) return i;
    if (slot.hash != h || word(slot.ref, 0) != key.size()) continue;
    std::size_t k = 0;
    while (k < key.size() && word(slot.ref, k + 1) == key[k]) ++k;
    if (k == key.size()) return i;
  }
}

bool KeyMemo::contains(std::span<const std::uint32_t> key) const {
  // A key that does not fit a word differs from every stored one.
  return size_ != 0 && slots_[find(key, hash(key))].ref != kEmpty;
}

void KeyMemo::rehash(std::size_t slots) {
  std::vector<Slot> old(slots, Slot{});
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.ref == kEmpty) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].ref != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

bool KeyMemo::insert(std::span<const std::uint32_t> key) {
  if (!fits(key)) return false;
  // The index doubles past a load of 3/4; the arena takes a new chunk when
  // the entry does not fit the last one (entries never span chunks).
  std::size_t slots = std::max(slots_.size(), kFirstSlots);
  if (4 * (size_ + 1) > 3 * slots) slots *= 2;
  const bool new_chunk = chunks_.empty() || used_ + key.size() + 1 > chunk_words_;
  const std::size_t after = (chunks_.size() + (new_chunk ? 1U : 0U)) *
                                kChunkBytes +
                            slots * sizeof(Slot);
  const std::uint32_t h = hash(key);
  if (size_ != 0 && slots_[find(key, h)].ref != kEmpty) return false;
  if (after > max_bytes_ ||
      (chunks_.size() + 1) * chunk_words_ > std::size_t{kEmpty}) {
    return false;
  }
  if (slots != slots_.size()) rehash(slots);
  if (new_chunk) {
    // Uninitialized: a chunk's pages become resident as entries fill them.
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(kChunkBytes));
    used_ = 0;
  }
  const auto ref =
      static_cast<std::uint32_t>((chunks_.size() - 1) * chunk_words_ + used_);
  put(ref, 0, static_cast<std::uint32_t>(key.size()));
  for (std::size_t k = 0; k < key.size(); ++k) put(ref, k + 1, key[k]);
  used_ += key.size() + 1;
  slots_[find(key, h)] = Slot{h, ref};
  ++size_;
  return true;
}

ConflictCache::ConflictCache(const netlist::Netlist& nl)
    : heads_(2 * nl.gate_count(), kNone),
      bytes_(heads_.size() * sizeof(std::uint32_t)),
      refused_(heads_.size() <= 0x10000U, kMaxMemoBytes) {
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

bool ConflictCache::refused(std::span<const std::uint32_t> query) const {
  const std::shared_lock lock(memo_mu_);
  return refused_.contains(query);
}

void ConflictCache::record_refused(std::span<const std::uint32_t> query) {
  const std::unique_lock lock(memo_mu_);
  const std::size_t before = refused_.bytes();
  if (!refused_.insert(query)) return;
  bytes_counter().add(refused_.bytes() - before);
  memo_bytes_counter().add(refused_.bytes() - before);
}

ConflictCache::Stats ConflictCache::stats() const {
  Stats s;
  {
    const std::shared_lock lock(mu_);
    s.cores = cores_.size();
    s.bytes = bytes_;
  }
  const std::shared_lock lock(memo_mu_);
  s.refused = refused_.size();
  s.bytes += refused_.bytes();
  return s;
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
