#include "rdf/dictionary.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>

#include "rdf/ntriples.hpp"
#include "util/thread_pool.hpp"

namespace turbo::rdf {

namespace {

/// Marks a mapping entry that points into a shard's pending-new list instead
/// of holding a final id (resolved once the global ranking is known).
constexpr TermId kPendingBit = 0x80000000u;

}  // namespace

std::vector<uint32_t> FrequencySplitOrder(std::span<const RankInput> items,
                                          size_t* hot_band) {
  const size_t n = items.size();
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  *hot_band = 0;
  if (n == 0) return order;

  // The band threshold is relative to the mean occurrence count, so the
  // split adapts to dataset scale without a tuning knob: a term is hot if it
  // plays a label role (predicate / type object) or occurs well above
  // average.
  uint64_t total = 0;
  for (const RankInput& it : items) total += it.count;
  const uint64_t threshold = std::max<uint64_t>(16, 8 * (total / n));

  auto cls = [](const RankInput& it) -> int {
    if (it.flags & kRolePredicate) return 0;
    if (it.flags & kRoleTypeObject) return 1;
    return 2;
  };
  auto mid = std::partition(order.begin(), order.end(), [&](uint32_t i) {
    return items[i].flags != 0 || items[i].count >= threshold;
  });
  // Hot head: label roles first, then by descending frequency; `first` (the
  // caller's first-occurrence key, unique per item) breaks every tie, making
  // the whole permutation a pure function of the inputs.
  std::sort(order.begin(), mid, [&](uint32_t a, uint32_t b) {
    const RankInput& x = items[a];
    const RankInput& y = items[b];
    const int cx = cls(x), cy = cls(y);
    if (cx != cy) return cx < cy;
    if (x.count != y.count) return x.count > y.count;
    return x.first < y.first;
  });
  const size_t band = std::min<size_t>(static_cast<size_t>(mid - order.begin()),
                                       Dictionary::kMaxHotBand);
  // Cold tail (plus any band-cap overflow): first-occurrence order. Real
  // dumps emit runs of statements about one subject; keeping that arrival
  // locality is what keeps neighboring ids close for the delta encodings.
  std::sort(order.begin() + band, order.end(),
            [&](uint32_t a, uint32_t b) { return items[a].first < items[b].first; });
  *hot_band = band;
  return order;
}

Dictionary::CachedNum Dictionary::NumericOf(const Term& term) {
  CachedNum num;
  if (auto v = term.NumericValue()) {
    num.value = *v;
    num.valid = true;
  }
  return num;
}

TermId Dictionary::FindHot(size_t hash, std::string_view key) const {
  if (hot_slots_.empty()) return ShardTable::kNotFound;
  hot_probes_.fetch_add(1, std::memory_order_relaxed);
  const size_t mask = hot_slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const HotSlot& s = hot_slots_[i];
    if (s.id == ShardTable::kNotFound) return ShardTable::kNotFound;
    if (s.hash == hash && hot_keys_[s.id] == key) {
      hot_hits_.fetch_add(1, std::memory_order_relaxed);
      return s.id;
    }
  }
}

void Dictionary::RebuildHotCache() {
  hot_slots_.clear();
  hot_keys_.clear();
  if (hot_band_ == 0) return;
  hot_keys_.resize(hot_band_);
  size_t cap = 64;
  while (cap * 7 < hot_band_ * 10) cap *= 2;
  hot_slots_.assign(cap, HotSlot{});
  const size_t mask = cap - 1;
  for (TermId id = 0; id < hot_band_; ++id) {
    hot_keys_[id] = terms_[id].ToNTriples();
    const size_t h = TermKeyHash{}(hot_keys_[id]);
    size_t i = h & mask;
    while (hot_slots_[i].id != ShardTable::kNotFound) i = (i + 1) & mask;
    hot_slots_[i] = {h, id};
  }
}

void Dictionary::SetHotBand(size_t band) {
  hot_band_ = std::min(band, terms_.size());
  RebuildHotCache();
}

void Dictionary::Permute(std::span<const uint32_t> order, size_t hot_band) {
  const size_t n = order.size();
  std::vector<Term> terms(n);
  std::vector<CachedNum> numeric(n);
  for (size_t r = 0; r < n; ++r) {
    terms[r] = std::move(terms_[order[r]]);
    numeric[r] = numeric_[order[r]];
  }
  terms_ = std::move(terms);
  numeric_ = std::move(numeric);
  for (ShardTable& s : shards_) s = ShardTable();
  for (ShardTable& s : shards_) s.Reserve(n / kNumShards + 1);
  for (size_t id = 0; id < n; ++id) {
    const std::string key = terms_[id].ToNTriples();
    const size_t hash = TermKeyHash{}(key);
    shards_[ShardOf(hash)].Insert(hash, key, static_cast<TermId>(id));
  }
  hot_band_ = std::min(hot_band, n);
  RebuildHotCache();
}

void Dictionary::CopyFrom(const Dictionary& o) {
  for (uint32_t s = 0; s < kNumShards; ++s) shards_[s] = o.shards_[s];
  terms_ = o.terms_;
  numeric_ = o.numeric_;
  hot_band_ = o.hot_band_;
  hot_slots_ = o.hot_slots_;
  hot_keys_ = o.hot_keys_;
  hot_hits_.store(o.hot_hits_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  hot_probes_.store(o.hot_probes_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

void Dictionary::MoveFrom(Dictionary&& o) {
  for (uint32_t s = 0; s < kNumShards; ++s) shards_[s] = std::move(o.shards_[s]);
  terms_ = std::move(o.terms_);
  numeric_ = std::move(o.numeric_);
  hot_band_ = o.hot_band_;
  hot_slots_ = std::move(o.hot_slots_);
  hot_keys_ = std::move(o.hot_keys_);
  hot_hits_.store(o.hot_hits_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  hot_probes_.store(o.hot_probes_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

Dictionary::LayoutStats Dictionary::layout_stats() const {
  LayoutStats st;
  st.terms = terms_.size();
  st.hot_band = hot_band_;
  st.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  st.hot_probes = hot_probes_.load(std::memory_order_relaxed);
  st.shard_entries_min = shards_[0].size();
  double load_sum = 0;
  for (uint32_t s = 0; s < kNumShards; ++s) {
    const ShardTable& shard = shards_[s];
    st.shard_entries_min = std::min(st.shard_entries_min, shard.size());
    st.shard_entries_max = std::max(st.shard_entries_max, shard.size());
    const double load =
        shard.capacity() ? static_cast<double>(shard.size()) / shard.capacity() : 0.0;
    st.shard_load_min = s == 0 ? load : std::min(st.shard_load_min, load);
    st.shard_load_max = std::max(st.shard_load_max, load);
    load_sum += load;
    st.index_bytes += shard.bytes();
  }
  st.shard_load_avg = load_sum / kNumShards;
  st.index_bytes += hot_slots_.capacity() * sizeof(HotSlot);
  for (const std::string& k : hot_keys_) st.index_bytes += k.capacity();
  return st;
}

TermId Dictionary::Append(const Term& term, std::string_view key, size_t hash,
                          uint32_t s) {
  TermId id = static_cast<TermId>(terms_.size());
  shards_[s].Insert(hash, key, id);
  terms_.push_back(term);
  numeric_.push_back(NumericOf(term));
  return id;
}

TermId Dictionary::GetOrAdd(const Term& term) {
  const std::string key = term.ToNTriples();
  const size_t hash = TermKeyHash{}(key);
  if (TermId id = FindHot(hash, key); id != ShardTable::kNotFound) return id;
  const uint32_t s = ShardOf(hash);
  if (TermId id = shards_[s].Find(hash, key); id != ShardTable::kNotFound)
    return id;
  return Append(term, key, hash, s);
}

std::optional<TermId> Dictionary::Find(const Term& term) const {
  const std::string key = term.ToNTriples();
  const size_t hash = TermKeyHash{}(key);
  if (TermId id = FindHot(hash, key); id != ShardTable::kNotFound) return id;
  TermId id = shards_[ShardOf(hash)].Find(hash, key);
  if (id == ShardTable::kNotFound) return std::nullopt;
  return id;
}

void Dictionary::Reserve(size_t num_terms) {
  terms_.reserve(num_terms);
  numeric_.reserve(num_terms);
  for (ShardTable& shard : shards_) shard.Reserve(num_terms / kNumShards + 1);
}

void Dictionary::AddBatch(const std::vector<Term>& terms, std::vector<TermId>* ids) {
  ids->reserve(ids->size() + terms.size());
  for (const Term& t : terms) ids->push_back(GetOrAdd(t));
}

util::Status Dictionary::AddUnique(std::vector<Term>&& terms, util::ThreadPool* pool) {
  const size_t old = terms_.size();
  const size_t n = terms.size();

  // Hash + key + table fill, parallel over index ranges.
  std::vector<std::string> keys(n);
  std::vector<size_t> hashes(n);
  terms_.resize(old + n);
  numeric_.resize(old + n);
  Reserve(old + n);
  auto prepare = [&](uint64_t begin, uint64_t end, uint32_t) {
    for (uint64_t i = begin; i < end; ++i) {
      keys[i] = terms[i].ToNTriples();
      hashes[i] = TermKeyHash{}(keys[i]);
      numeric_[old + i] = NumericOf(terms[i]);
      terms_[old + i] = std::move(terms[i]);
    }
  };

  // Shard-parallel index insertion with positional ids; a hit on Find
  // = duplicate (within the batch or against an existing entry).
  std::atomic<bool> duplicate{false};
  auto insert_one = [&](uint32_t s, size_t i) {
    if (shards_[s].Find(hashes[i], keys[i]) != ShardTable::kNotFound) {
      duplicate.store(true, std::memory_order_relaxed);
      return;
    }
    shards_[s].Insert(hashes[i], keys[i], static_cast<TermId>(old + i));
  };
  auto index_shard = [&](uint64_t begin, uint64_t end, uint32_t) {
    for (uint64_t s = begin; s < end; ++s)
      for (size_t i = 0; i < n; ++i)
        if (ShardOf(hashes[i]) == s) insert_one(static_cast<uint32_t>(s), i);
  };

  if (pool) {
    pool->ParallelFor(n, 4096, prepare);
    pool->ParallelFor(kNumShards, 1, index_shard);
  } else {
    prepare(0, n, 0);
    // Serial: one pass straight into the owning shards (the per-shard
    // skip-scan shape only pays off when shards run concurrently).
    for (size_t i = 0; i < n; ++i) insert_one(ShardOf(hashes[i]), i);
  }
  if (duplicate.load()) return util::Status::Error("duplicate term");
  return util::Status::Ok();
}

void Dictionary::MergeBatches(std::vector<TermBatch>* batches,
                              std::vector<std::vector<TermId>>* mappings,
                              util::ThreadPool* pool) {
  const size_t nb = batches->size();
  mappings->assign(nb, {});
  for (size_t b = 0; b < nb; ++b) (*mappings)[b].resize((*batches)[b].size());

  // ---- Phase 0 (batch-parallel): bucket each batch's entry indices by
  // shard, so phase 1 walks exactly its own entries instead of skip-
  // scanning every batch per shard.
  std::vector<std::array<std::vector<uint32_t>, kNumShards>> by_shard(nb);
  size_t total_entries = 0;
  for (const TermBatch& b : *batches) total_entries += b.size();
  auto bucket_batch = [&](uint64_t begin, uint64_t end, uint32_t) {
    for (uint64_t b = begin; b < end; ++b) {
      TermBatch& batch = (*batches)[b];
      auto& buckets = by_shard[b];
      for (auto& v : buckets) v.reserve(batch.size() / kNumShards + 8);
      for (size_t i = 0; i < batch.size(); ++i)
        buckets[ShardOf(batch.hashes[i])].push_back(static_cast<uint32_t>(i));
    }
  };

  // ---- Phase 1 (shard-parallel): resolve every batch entry against the
  // hot-term cache, the global shard, or the shard's pending-new list.
  // Disjoint hash ranges, so shards never touch the same mapping entry or
  // map; iterating batches in order keeps the pending list deterministic.
  // Occurrence counts and role flags aggregate per pending entry as we go —
  // they feed the global ranking in phase 2.
  struct PendingRef {
    uint32_t batch;
    uint32_t idx;
  };
  std::vector<std::vector<PendingRef>> pending(kNumShards);
  std::vector<std::vector<uint64_t>> pcount(kNumShards);
  std::vector<std::vector<uint8_t>> pflags(kNumShards);
  auto resolve_shard = [&](uint64_t begin, uint64_t end, uint32_t) {
    for (uint64_t s = begin; s < end; ++s) {
      FlatIdMap local(total_entries / kNumShards);
      std::vector<PendingRef>& mine = pending[s];
      std::vector<uint64_t>& cnt = pcount[s];
      std::vector<uint8_t>& flg = pflags[s];
      const bool have_global = !shards_[s].empty();  // initial bulk load: skip finds
      for (size_t b = 0; b < nb; ++b) {
        TermBatch& batch = (*batches)[b];
        std::vector<TermId>& map_b = (*mappings)[b];
        const bool has_counts = !batch.counts.empty();
        const bool has_flags = !batch.flags.empty();
        for (uint32_t i : by_shard[b][s]) {
          std::string_view key = batch.keys[i];
          size_t hash = batch.hashes[i];
          if (have_global) {
            if (TermId id = FindHot(hash, key); id != ShardTable::kNotFound) {
              map_b[i] = id;
              continue;
            }
            if (TermId id = shards_[s].Find(hash, key); id != ShardTable::kNotFound) {
              map_b[i] = id;
              continue;
            }
          }
          uint32_t pending_idx = local.Find(hash, key);
          if (pending_idx == FlatIdMap::kNotFound) {
            pending_idx = static_cast<uint32_t>(mine.size());
            mine.push_back({static_cast<uint32_t>(b), i});
            cnt.push_back(0);
            flg.push_back(0);
            local.Insert(hash, key, pending_idx);
          }
          cnt[pending_idx] += has_counts ? batch.counts[i] : 1;
          flg[pending_idx] |= has_flags ? batch.flags[i] : 0;
          map_b[i] = kPendingBit | pending_idx;
        }
      }
    }
  };

  // ---- Phase 2 (serial): one global frequency-split ranking over all
  // pending terms — the step that makes ids deterministic under any
  // parallelism *and* puts the hot head of the distribution in the low-id
  // band. ---- Phase 3 (shard-parallel): install pending terms at their
  // final ids (disjoint terms_ indices per shard; shard tables pre-sized to
  // their exact distinct counts). ---- Phase 4 (batch-parallel): patch
  // pending mapping entries to final ids.
  size_t shard_off[kNumShards];
  std::vector<TermId> final_of;
  auto install_shard = [&](uint64_t begin, uint64_t end, uint32_t) {
    for (uint64_t s = begin; s < end; ++s) {
      shards_[s].Reserve(shards_[s].size() + pending[s].size());
      for (size_t k = 0; k < pending[s].size(); ++k) {
        const PendingRef& ref = pending[s][k];
        TermBatch& batch = (*batches)[ref.batch];
        std::string_view key = batch.keys[ref.idx];
        TermId id = final_of[shard_off[s] + k];
        // Key-only batches materialize the Term here — once per *globally*
        // distinct term, instead of once per chunk-distinct occurrence.
        terms_[id] = batch.terms.empty() ? TermFromNTriplesKey(key)
                                         : std::move(batch.terms[ref.idx]);
        numeric_[id] = NumericOf(terms_[id]);
        shards_[s].Insert(batch.hashes[ref.idx], key, id);
      }
    }
  };
  auto patch_batch = [&](uint64_t begin, uint64_t end, uint32_t) {
    for (uint64_t b = begin; b < end; ++b) {
      TermBatch& batch = (*batches)[b];
      std::vector<TermId>& map_b = (*mappings)[b];
      for (size_t i = 0; i < batch.size(); ++i) {
        if (!(map_b[i] & kPendingBit)) continue;
        uint32_t s = ShardOf(batch.hashes[i]);
        map_b[i] = final_of[shard_off[s] + (map_b[i] & ~kPendingBit)];
      }
    }
  };

  if (pool) {
    pool->ParallelFor(nb, 1, bucket_batch);
    pool->ParallelFor(kNumShards, 1, resolve_shard);
  } else {
    bucket_batch(0, nb, 0);
    resolve_shard(0, kNumShards, 0);
  }

  const size_t old_size = terms_.size();
  size_t new_total = 0;
  for (uint32_t s = 0; s < kNumShards; ++s) {
    shard_off[s] = new_total;
    new_total += pending[s].size();
  }
  std::vector<RankInput> items(new_total);
  for (uint32_t s = 0; s < kNumShards; ++s)
    for (size_t k = 0; k < pending[s].size(); ++k) {
      const PendingRef& ref = pending[s][k];
      items[shard_off[s] + k] = {
          pcount[s][k],
          (static_cast<uint64_t>(ref.batch) << 32) | ref.idx,
          pflags[s][k]};
    }
  size_t band = 0;
  const std::vector<uint32_t> order = FrequencySplitOrder(items, &band);
  final_of.resize(new_total);
  for (size_t r = 0; r < new_total; ++r)
    final_of[order[r]] = static_cast<TermId>(old_size + r);
  terms_.resize(old_size + new_total);
  numeric_.resize(old_size + new_total);

  if (pool) {
    pool->ParallelFor(kNumShards, 1, install_shard);
    pool->ParallelFor(nb, 1, patch_batch);
  } else {
    install_shard(0, kNumShards, 0);
    patch_batch(0, nb, 0);
  }

  // The initial bulk load establishes the hot band + cache; incremental
  // merges rank their new tail above but leave the published band alone
  // (existing ids never move here).
  if (old_size == 0) {
    hot_band_ = band;
    RebuildHotCache();
  }
}

}  // namespace turbo::rdf
