// Dictionary encoding of RDF terms: bidirectional term <-> dense TermId map.
// All downstream structures (triple stores, graphs, engines) operate on ids;
// strings appear only at parse time and result-serialization time, mirroring
// how RDF-3X / TripleBit keep dictionaries out of the query hot path (the
// paper excludes dictionary look-up time from all measurements; so do we).
//
// Id layout is *frequency-split* (RDF-3X style): bulk loads rank globally-new
// terms so that the hot head of the term distribution — predicates and type
// objects first, then any term whose occurrence count clears a threshold —
// lands in a dense low-id band [0, hot_band_size()), while the cold tail
// keeps first-occurrence order (real dumps emit runs of statements about one
// subject, and that arrival locality is what keeps delta-gap encodings
// small). Small ids for hot terms shrink every downstream varint — the
// compressed adjacency in particular — and the band doubles as the domain of
// a read-mostly hot-term cache probed before any shard lookup.
//
// The index side is hash-sharded (kNumShards independent open-addressing
// tables keyed by the canonical N-Triples serialization, key bytes stored
// once in a per-shard arena — no per-entry node or string allocations).
// Incremental use (GetOrAdd / Find) is unchanged. Bulk paths: the parallel
// load pipeline uses MergeBatches, merging per-chunk mini-dictionaries
// shard-parallel — each shard owns a disjoint hash range, so shard merges
// never contend; new ids come from one global frequency-split ranking over
// the pending terms, making id assignment deterministic (it depends on batch
// order and content, never on thread count or scheduling). Snapshot reloads
// use AddUnique (positional bulk install); AddBatch is the simple
// interning-loop convenience.
#pragma once

#include <atomic>
#include <forward_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.hpp"
#include "util/common.hpp"
#include "util/status.hpp"

namespace turbo::util {
class ThreadPool;
}

namespace turbo::rdf {

/// A key view paired with its precomputed hash: the load pipeline hashes
/// every key exactly once (at mini-dictionary intern time) and reuses the
/// value through shard selection and the global-map merge lookups.
struct HashedKey {
  std::string_view key;
  size_t hash;
};

/// Fast 64-bit byte hash (rotate-multiply over 8-byte blocks). Keys are
/// long IRIs hashed millions of times during bulk loads, so throughput per
/// byte matters more here than cryptographic mixing; collisions only cost a
/// memcmp.
inline size_t HashTermKey(std::string_view s) {
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = 0x2545f4914f6cdd1dull ^ (n * 0x9e3779b97f4a7c15ull);
  auto mix = [&h](uint64_t k) {
    h ^= k * 0x9ddfea08eb382d69ull;
    h = (h << 27 | h >> 37) * 0x9e3779b97f4a7c15ull;
  };
  while (n >= 8) {
    uint64_t k;
    __builtin_memcpy(&k, p, 8);
    mix(k);
    p += 8;
    n -= 8;
  }
  if (n) {
    uint64_t k = 0;
    __builtin_memcpy(&k, p, n);
    mix(k);
  }
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ull;
  h ^= h >> 32;
  return static_cast<size_t>(h);
}

/// Hash usable for std::string / std::string_view / HashedKey keys, shared
/// by the global dictionary shards and the per-chunk mini-dictionaries so
/// shard assignment agrees everywhere. HashedKey short-circuits to the
/// stored value.
struct TermKeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const { return HashTermKey(s); }
  size_t operator()(const std::string& s) const { return HashTermKey(s); }
  size_t operator()(const HashedKey& k) const { return k.hash; }
};

/// Term-role bits carried by bulk batches: whether a term ever occurred in
/// predicate position or as the object of rdf:type. Flagged terms rank ahead
/// of everything else in the frequency-split ordering — they are the labels
/// the graph layer folds into every adjacency directory entry.
enum TermRoleFlag : uint8_t {
  kRolePredicate = 1,
  kRoleTypeObject = 2,
};

/// One parse chunk's private dictionary content, in first-occurrence order:
/// entry i has canonical key keys[i] (N-Triples form, the dictionary key)
/// with precomputed hash hashes[i].
///
/// Two fill modes, chosen per batch:
///  * key-only (AddKeyView): keys view caller-stable storage (the parse
///    buffer, or `owned` via AddOwnedKey). Term objects are derived from
///    the canonical key *at merge-install time*, so only merge winners —
///    one per distinct term globally — ever materialize a Term. This is the
///    N-Triples fast path.
///  * term-carrying (AddOwned): the Term is already materialized (Turtle
///    statements, snapshot reloads) and is moved into the dictionary.
/// MergeBatches consumes the batch either way.
///
/// `counts` / `flags` (optional, filled after the chunk's triples exist)
/// carry per-entry occurrence counts and TermRoleFlag bits; MergeBatches
/// aggregates them across batches to drive the frequency-split ranking.
/// When absent, every entry counts once with no role flags.
///
/// Move-only on purpose: `keys` may view into `owned`, whose nodes are
/// stable under a (noexcept) move but would dangle after a copy — and a
/// throwing move would make std::vector reallocation silently copy, so
/// `owned` is a forward_list (noexcept move, stable nodes), not a deque.
struct TermBatch {
  std::vector<std::string_view> keys;
  std::vector<size_t> hashes;
  std::vector<Term> terms;  ///< empty in key-only mode, else parallel
  std::vector<uint32_t> counts;  ///< occurrences in the chunk (may be empty)
  std::vector<uint8_t> flags;    ///< TermRoleFlag bits (may be empty)
  std::forward_list<std::string> owned;  ///< backing store for non-external keys

  TermBatch() = default;
  TermBatch(TermBatch&&) noexcept = default;
  TermBatch& operator=(TermBatch&&) noexcept = default;
  TermBatch(const TermBatch&) = delete;
  TermBatch& operator=(const TermBatch&) = delete;

  size_t size() const { return keys.size(); }

  void AddKeyView(std::string_view key, size_t hash) {
    keys.push_back(key);
    hashes.push_back(hash);
  }
  /// Key-only entry whose key has no stable external storage; returns the
  /// stable view.
  std::string_view AddOwnedKey(std::string key, size_t hash) {
    owned.push_front(std::move(key));
    keys.push_back(owned.front());
    hashes.push_back(hash);
    return owned.front();
  }
  void AddOwned(Term term, std::string key, size_t hash) {
    terms.push_back(std::move(term));
    AddOwnedKey(std::move(key), hash);
  }
};

/// Open-addressing (hash, key view, id) table — the per-occurrence hot path
/// of bulk interning. Flat storage, power-of-two capacity, linear probing:
/// no node allocations, typically one cache line per hit. Key views must
/// stay valid for the table's lifetime (they point into the parse buffer or
/// a TermBatch's owned storage).
class FlatIdMap {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  /// `expected` sizes the table for that many inserts up front (it still
  /// grows on demand past it).
  explicit FlatIdMap(size_t expected = 512) {
    size_t cap = 1024;
    while (cap * 7 < expected * 10) cap *= 2;
    slots_.resize(cap);
  }

  uint32_t Find(size_t hash, std::string_view key) const {
    for (size_t i = hash & mask();; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.data == nullptr) return kNotFound;
      if (s.hash == hash && std::string_view(s.data, s.len) == key) return s.id;
    }
  }

  /// `key` must be absent (Find first) and outlive the table.
  void Insert(size_t hash, std::string_view key, uint32_t id) {
    if ((count_ + 1) * 10 >= slots_.size() * 7) Grow();
    InsertNoGrow(hash, key, id);
    ++count_;
  }

 private:
  struct Slot {
    size_t hash = 0;
    const char* data = nullptr;
    uint32_t len = 0;
    uint32_t id = 0;
  };
  size_t mask() const { return slots_.size() - 1; }

  void InsertNoGrow(size_t hash, std::string_view key, uint32_t id) {
    size_t i = hash & mask();
    while (slots_[i].data != nullptr) i = (i + 1) & mask();
    slots_[i] = {hash, key.data(), static_cast<uint32_t>(key.size()), id};
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    for (const Slot& s : old)
      if (s.data != nullptr) InsertNoGrow(s.hash, {s.data, s.len}, s.id);
  }

  std::vector<Slot> slots_;
  size_t count_ = 0;
};

/// One shard of the global term index: open-addressing (hash, id) slots with
/// the key bytes stored once in an append-only arena. Compared to the
/// node-based map it replaces, an insert is a slot write plus an arena
/// append (no node allocation, no separate std::string), and the whole
/// index is two flat allocations per shard — the difference is most visible
/// in the bulk-merge install phase, which used to allocate twice per
/// globally-new term.
class ShardTable {
 public:
  static constexpr TermId kNotFound = 0xffffffffu;

  TermId Find(size_t hash, std::string_view key) const {
    if (slots_.empty()) return kNotFound;
    for (size_t i = hash & mask();; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.id == kNotFound) return kNotFound;
      if (s.hash == hash &&
          std::string_view(arena_.data() + s.key_off, s.key_len) == key)
        return s.id;
    }
  }

  /// `key` must be absent (Find first); the bytes are copied into the arena.
  void Insert(size_t hash, std::string_view key, TermId id) {
    if (slots_.empty() || (size_ + 1) * 10 >= slots_.size() * 7)
      Rehash(std::max<size_t>(size_ + 1, slots_.size()));
    Slot s;
    s.hash = hash;
    s.key_off = arena_.size();
    s.key_len = static_cast<uint32_t>(key.size());
    s.id = id;
    arena_.append(key);
    Place(s);
    ++size_;
  }

  /// Pre-sizes the slot array for `n` total entries (exact counts are known
  /// at merge-install time; sizing once avoids mid-install rehashes).
  void Reserve(size_t n) {
    if (n * 10 >= slots_.size() * 7) Rehash(n);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }
  size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) + arena_.capacity();
  }

 private:
  struct Slot {
    size_t hash = 0;
    uint64_t key_off = 0;
    uint32_t key_len = 0;
    TermId id = kNotFound;
  };
  size_t mask() const { return slots_.size() - 1; }

  void Place(const Slot& s) {
    size_t i = s.hash & mask();
    while (slots_[i].id != kNotFound) i = (i + 1) & mask();
    slots_[i] = s;
  }

  void Rehash(size_t n) {
    std::vector<Slot> old = std::move(slots_);
    size_t cap = 64;
    while (cap * 7 < n * 10) cap *= 2;
    slots_.assign(cap, Slot{});
    for (const Slot& s : old)
      if (s.id != kNotFound) Place(s);
  }

  std::vector<Slot> slots_;
  std::string arena_;
  size_t size_ = 0;
};

/// Input row for the frequency-split ranking: aggregated occurrence count,
/// TermRoleFlag bits, and a caller-chosen first-occurrence key used both as
/// the deterministic tie-break and as the cold-tail order.
struct RankInput {
  uint64_t count = 0;
  uint64_t first = 0;
  uint8_t flags = 0;
};

/// Computes the frequency-split permutation over `items`: returns `order`
/// with order[rank] = item index, and stores the hot-band length in
/// *hot_band. The band holds every role-flagged term plus any term whose
/// count clears max(16, 8 * mean), capped at kMaxHotBand, sorted by
/// (predicate < type-object < other, count desc, first asc); the tail
/// keeps `first` order. Pure function of the inputs — scheduling never
/// enters, which is what keeps bulk-load ids deterministic at any thread
/// count.
std::vector<uint32_t> FrequencySplitOrder(std::span<const RankInput> items,
                                          size_t* hot_band);

/// Bidirectional term dictionary with a numeric-value side cache used by
/// FILTER evaluation.
class Dictionary {
 public:
  static constexpr uint32_t kNumShards = 16;
  /// Hot band cap: bounds the hot-term cache so it stays cache-resident.
  static constexpr size_t kMaxHotBand = 1u << 16;

  Dictionary() = default;
  // Copyable (LiveStore compaction clones the base dictionary); the hot-
  // cache counters are atomics for concurrent readers, so spell the copies
  // out.
  Dictionary(const Dictionary& o) { CopyFrom(o); }
  Dictionary& operator=(const Dictionary& o) {
    if (this != &o) CopyFrom(o);
    return *this;
  }
  Dictionary(Dictionary&& o) noexcept { MoveFrom(std::move(o)); }
  Dictionary& operator=(Dictionary&& o) noexcept {
    if (this != &o) MoveFrom(std::move(o));
    return *this;
  }

  /// Interns a term, returning its id (existing or new).
  TermId GetOrAdd(const Term& term);
  /// Convenience: interns an IRI.
  TermId GetOrAddIri(const std::string& iri) { return GetOrAdd(Term::Iri(iri)); }

  /// Looks up an existing term; nullopt if not interned.
  std::optional<TermId> Find(const Term& term) const;
  std::optional<TermId> FindIri(const std::string& iri) const { return Find(Term::Iri(iri)); }

  /// Pre-sizes the term table and index shards for `num_terms` total terms.
  /// Callers should pass a *distinct*-term count (or a tight estimate), not
  /// a sum of per-batch sizes: bulk merges size their shards exactly from
  /// the resolved distinct counts, so over-reserving here only wastes
  /// allocation work.
  void Reserve(size_t num_terms);

  /// Bulk-interns `terms` in order, appending each term's id (existing or
  /// new) to `ids`. Equivalent to GetOrAdd per element, minus per-call
  /// overhead.
  void AddBatch(const std::vector<Term>& terms, std::vector<TermId>* ids);

  /// Positional bulk install: terms[i] gets id size() + i, unconditionally —
  /// the snapshot rebuild path, where triple sections reference terms by
  /// position (and the saved id order already carries the frequency split).
  /// Hashing, table fill, and shard insertion parallelize on `pool` (may be
  /// null). Errors if any term duplicates another or an existing entry; the
  /// dictionary is unusable after an error (callers discard it — a corrupt
  /// snapshot aborts the whole load).
  util::Status AddUnique(std::vector<Term>&& terms, util::ThreadPool* pool = nullptr);

  /// Hash-sharded merge of per-chunk mini-dictionaries: after the call,
  /// (*mappings)[b][i] is the global id of batches[b].terms[i]. Globally-new
  /// terms get ids in frequency-split order (see FrequencySplitOrder, fed by
  /// the batches' counts/flags) regardless of `pool` parallelism; batches
  /// are consumed. `pool` may be null (sequential merge, same ids). When the
  /// dictionary was empty on entry the ranking also establishes the hot
  /// band + hot-term cache; later merges rank their new tail but leave the
  /// established band untouched.
  void MergeBatches(std::vector<TermBatch>* batches,
                    std::vector<std::vector<TermId>>* mappings,
                    util::ThreadPool* pool = nullptr);

  /// Term for an id. Requires id < size().
  const Term& term(TermId id) const { return terms_[id]; }

  /// Cached numeric value of a literal term (nullopt for non-numeric).
  std::optional<double> NumericValue(TermId id) const {
    const CachedNum& c = numeric_[id];
    if (!c.valid) return std::nullopt;
    return c.value;
  }

  size_t size() const { return terms_.size(); }

  // ---- Frequency-split layout. ----
  /// Terms [0, hot_band_size()) form the dense hot band (0 when the
  /// dictionary was built without ranking, e.g. purely incrementally).
  size_t hot_band_size() const { return hot_band_; }
  /// Declares [0, band) the hot band (snapshot reload path; the saved id
  /// order already encodes the ranking) and rebuilds the hot-term cache.
  void SetHotBand(size_t band);
  /// Re-ranks the whole dictionary in place: `order[rank] = old id`. Every
  /// id in `order` moves to its rank and every id missing from it is
  /// dropped; the caller owns rewriting stored triples through the inverse
  /// mapping. Used by Permute-style dataset reranks and LiveStore
  /// compaction.
  void Permute(std::span<const uint32_t> order, size_t hot_band);

  /// Layout introspection for /stats, the shell banner, and tests.
  struct LayoutStats {
    size_t terms = 0;
    size_t hot_band = 0;
    uint64_t hot_hits = 0;    ///< Find/GetOrAdd/merge probes served by the cache
    uint64_t hot_probes = 0;  ///< total probes that consulted the cache
    size_t shard_entries_min = 0;
    size_t shard_entries_max = 0;
    double shard_load_min = 0;  ///< entries / slots per shard
    double shard_load_max = 0;
    double shard_load_avg = 0;
    size_t index_bytes = 0;  ///< shard slots + key arenas + hot cache
  };
  LayoutStats layout_stats() const;

  /// Shard owning a key with hash `h` — shared with the load pipeline.
  static uint32_t ShardOf(size_t h) {
    // Mix the high bits in: linear-probe placement uses the low bits, so
    // shard selection prefers an independent slice.
    return static_cast<uint32_t>((h >> 48) ^ (h >> 24) ^ h) & (kNumShards - 1);
  }

 private:
  struct CachedNum {
    double value = 0;
    bool valid = false;
  };
  struct HotSlot {
    size_t hash = 0;
    TermId id = 0xffffffffu;
  };

  /// Appends `term` to the table (id = old size) and indexes it under `key`
  /// in shard `s`. The caller has already checked absence.
  TermId Append(const Term& term, std::string_view key, size_t hash, uint32_t s);
  static CachedNum NumericOf(const Term& term);
  /// Probes the hot-term cache; kNotFound on miss. Counts probes/hits.
  TermId FindHot(size_t hash, std::string_view key) const;
  /// Rebuilds the hot cache over ids [0, hot_band_).
  void RebuildHotCache();
  void CopyFrom(const Dictionary& o);
  void MoveFrom(Dictionary&& o);

  ShardTable shards_[kNumShards];
  std::vector<Term> terms_;
  std::vector<CachedNum> numeric_;

  size_t hot_band_ = 0;
  // Read-mostly hot-term cache: an immutable-between-merges snapshot array
  // probed lock-free before any shard. hot_keys_ is indexed by id (< band).
  std::vector<HotSlot> hot_slots_;
  std::vector<std::string> hot_keys_;
  mutable std::atomic<uint64_t> hot_hits_{0};
  mutable std::atomic<uint64_t> hot_probes_{0};
};

}  // namespace turbo::rdf
