// Pooled per-worker storage for candidate regions (ROADMAP: "the obvious
// first hot-path win"). Algorithm 1 re-runs ExploreCandidateRegion once per
// starting data vertex; the seed implementation stored each region in fresh
// unordered_map<VertexId, vector<VertexId>> nodes, so every region paid one
// heap round-trip per candidate list plus one per hash node. A RegionArena
// keeps all of that memory alive across starting vertices AND across queries:
//
//   * CandidateMap — open-addressing map VertexId -> (begin, end) slice with
//     generation-stamped slots, so clearing a region is one counter bump;
//   * per-depth flat pools — candidate lists are appended to the tail of
//     their tree depth's pool (the DFS of ExploreCandidateRegion only ever
//     has one list under construction per depth, so tail-append is safe);
//   * MemoMap — the per-region (node, vertex) exploration memo, same
//     generation-clearing scheme;
//   * the Worker scratch buffers (explore/search scratch, visited marks,
//     solution assembly) so they too survive across queries.
//
// Workers never share an arena: MatchImpl checks one arena out of the
// owning Matcher's ArenaPool per worker thread and returns it after the
// join, which keeps parallel workers allocation-isolated.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace turbo::engine {

/// Open-addressing VertexId -> candidate-list-slice map with O(1) clearing:
/// each slot carries the generation that wrote it, and Reset() just bumps
/// the live generation. Slot storage is only ever grown, never freed.
class CandidateMap {
 public:
  struct Entry {
    VertexId key = 0;
    uint32_t gen = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  void Reset() {
    size_ = 0;
    if (++gen_ == 0) {
      // Generation counter wrapped: physically clear so stale slots from
      // generation 0 cannot resurrect.
      std::fill(slots_.begin(), slots_.end(), Entry{});
      gen_ = 1;
    }
  }

  const Entry* Find(VertexId key) const {
    if (slots_.empty()) return nullptr;
    uint32_t i = Hash(key) & mask_;
    while (true) {
      const Entry& e = slots_[i];
      if (e.gen != gen_) return nullptr;
      if (e.key == key) return &e;
      i = (i + 1) & mask_;
    }
  }

  /// Inserts `key` (which must not be present) and returns its entry. The
  /// returned pointer is invalidated by the next Insert.
  Entry* Insert(VertexId key) {
    if (slots_.empty() || (size_ + 1) * 4 > (mask_ + 1) * 3) Grow();
    uint32_t i = Hash(key) & mask_;
    while (slots_[i].gen == gen_) i = (i + 1) & mask_;
    Entry& e = slots_[i];
    e.key = key;
    e.gen = gen_;
    e.begin = e.end = 0;
    ++size_;
    return &e;
  }

  uint32_t size() const { return size_; }
  size_t capacity_bytes() const { return slots_.capacity() * sizeof(Entry); }

 private:
  static uint32_t Hash(VertexId k) { return k * 2654435761u; }

  void Grow() {
    std::vector<Entry> old = std::move(slots_);
    uint32_t cap = old.empty() ? 16 : static_cast<uint32_t>(old.size()) * 2;
    slots_.assign(cap, Entry{});
    mask_ = cap - 1;
    for (const Entry& e : old) {
      if (e.gen != gen_) continue;
      uint32_t i = Hash(e.key) & mask_;
      while (slots_[i].gen == gen_) i = (i + 1) & mask_;
      slots_[i] = e;
    }
  }

  std::vector<Entry> slots_;
  uint32_t gen_ = 1;
  uint32_t size_ = 0;
  uint32_t mask_ = 0;
};

/// Generation-cleared memo for ExploreCandidateRegion's (tree node, data
/// vertex) -> explored-ok results.
class MemoMap {
 public:
  void Reset() {
    size_ = 0;
    if (++gen_ == 0) {
      std::fill(slots_.begin(), slots_.end(), Entry{});
      gen_ = 1;
    }
  }

  /// -1 = absent, otherwise the memoized bool (0/1).
  int Find(uint64_t key) const {
    if (slots_.empty()) return -1;
    size_t i = Hash(key) & mask_;
    while (true) {
      const Entry& e = slots_[i];
      if (e.gen != gen_) return -1;
      if (e.key == key) return e.value;
      i = (i + 1) & mask_;
    }
  }

  /// Records `key` (must not be present).
  void Put(uint64_t key, bool value) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) Grow();
    size_t i = Hash(key) & mask_;
    while (slots_[i].gen == gen_) i = (i + 1) & mask_;
    slots_[i] = {key, gen_, static_cast<uint8_t>(value)};
    ++size_;
  }

  size_t size() const { return size_; }
  size_t capacity_bytes() const { return slots_.capacity() * sizeof(Entry); }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t gen = 0;
    uint8_t value = 0;
  };

  static uint64_t Hash(uint64_t k) {
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return k ^ (k >> 27);
  }

  void Grow() {
    std::vector<Entry> old = std::move(slots_);
    size_t cap = old.empty() ? 32 : old.size() * 2;
    slots_.assign(cap, Entry{});
    mask_ = cap - 1;
    for (const Entry& e : old) {
      if (e.gen != gen_) continue;
      size_t i = Hash(e.key) & mask_;
      while (slots_[i].gen == gen_) i = (i + 1) & mask_;
      slots_[i] = e;
    }
  }

  std::vector<Entry> slots_;
  uint32_t gen_ = 1;
  size_t size_ = 0;
  size_t mask_ = 0;
};

/// Reusable per-depth scratch for SubgraphSearch (+INT buffers). Blank-edge
/// union buffers are NOT kept here: they check out of the arena-wide LIFO
/// pool (RegionArena::PushUnionBuf), so their count is bounded by the
/// deepest concurrent need instead of growing per (depth, back-edge)
/// position under variable-predicate workloads.
struct SearchScratch {
  std::vector<std::span<const VertexId>> spans;
  std::vector<std::span<const VertexId>> lists;
  std::vector<VertexId> int_result;
};

class RegionArena {
 public:
  /// Sizes the containers for a query tree of `num_nodes` nodes. Containers
  /// are grown but never shrunk, so a warm arena carries its capacity into
  /// the next query.
  void PrepareQuery(uint32_t num_nodes) {
    num_nodes_ = num_nodes;
    if (maps_.size() < num_nodes) maps_.resize(num_nodes);
    if (pools_.size() < num_nodes) pools_.resize(num_nodes);
    if (open_begin_.size() < num_nodes) open_begin_.resize(num_nodes);
    if (explore_scratch.size() < num_nodes + 1) explore_scratch.resize(num_nodes + 1);
    if (search_scratch.size() < num_nodes + 1) search_scratch.resize(num_nodes + 1);
    ResetRegion();
  }

  /// Clears the candidate region between starting vertices: O(nodes)
  /// counter bumps, no memory freed.
  void ResetRegion() {
    for (uint32_t i = 0; i < num_nodes_; ++i) {
      maps_[i].Reset();
      pools_[i].clear();
    }
    memo_.Reset();
  }

  /// Opens the candidate list CR(node, ·) at the tail of its depth's pool.
  /// At most one list per node is ever open (the exploration DFS descends
  /// strictly by depth).
  void BeginList(uint32_t node, uint32_t depth) {
    open_begin_[node] = static_cast<uint32_t>(pools_[depth].size());
  }

  void Append(uint32_t depth, VertexId w) { pools_[depth].push_back(w); }

  /// Closes the list opened by BeginList as CR(node, parent) and returns its
  /// length.
  uint32_t EndList(uint32_t node, uint32_t depth, VertexId parent) {
    uint32_t end = static_cast<uint32_t>(pools_[depth].size());
    CandidateMap::Entry* e = maps_[node].Insert(parent);
    e->begin = open_begin_[node];
    e->end = end;
    return end - e->begin;
  }

  /// CR(node, parent), or an empty span when absent / empty.
  std::span<const VertexId> Lookup(uint32_t node, uint32_t depth, VertexId parent) const {
    const CandidateMap::Entry* e = maps_[node].Find(parent);
    if (!e) return {};
    return std::span<const VertexId>(pools_[depth]).subspan(e->begin, e->end - e->begin);
  }

  int MemoFind(uint64_t key) const { return memo_.Find(key); }
  void MemoPut(uint64_t key, bool ok) { memo_.Put(key, ok); }

  /// Guarantees `mapped` (the isomorphism F-flags) covers `n` vertices and
  /// is all-zero. SubgraphSearch maintains the all-zero invariant on every
  /// exit path, so a warm arena only needs to zero newly grown tail.
  void EnsureMapped(size_t n) {
    if (mapped.size() < n) mapped.resize(n, 0);
  }

  /// Checks a blank-edge union buffer out of the LIFO pool. SubgraphSearch's
  /// recursion acquires strictly above its caller's buffers and restores its
  /// base on exit (see UnionBufScope in engine.cpp), so buffers — and their
  /// grown capacity — are shared across depths and back-edge positions
  /// instead of being owned per position. Deque-backed: growing the pool
  /// never moves live buffers, so spans into them stay valid.
  std::vector<VertexId>& PushUnionBuf() {
    if (union_top_ == union_bufs_.size()) union_bufs_.emplace_back();
    std::vector<VertexId>& buf = union_bufs_[union_top_++];
    buf.clear();
    return buf;
  }
  size_t union_buf_top() const { return union_top_; }
  void RestoreUnionBufs(size_t base) { union_top_ = base; }

  /// Approximate resident capacity, for the bench harness / stats.
  size_t ApproxBytes() const {
    size_t b = 0;
    for (const CandidateMap& m : maps_) b += m.capacity_bytes();
    for (const auto& p : pools_) b += p.capacity() * sizeof(VertexId);
    b += memo_.capacity_bytes();
    b += mapped.capacity();
    b += (m_node.capacity() + sol_buf.capacity()) * sizeof(VertexId);
    b += node_depth.capacity() * sizeof(uint32_t);
    b += cr_total.capacity() * sizeof(uint64_t);
    for (const auto& s : explore_scratch) b += s.capacity() * sizeof(VertexId);
    for (const SearchScratch& s : search_scratch)
      b += s.int_result.capacity() * sizeof(VertexId);
    for (const auto& u : union_bufs_) b += u.capacity() * sizeof(VertexId);
    return b;
  }

  /// True once a previous Match released this arena back to its pool.
  bool warm = false;

  // Worker scratch, owned here so it survives across queries.
  std::vector<std::vector<VertexId>> explore_scratch;  ///< per depth
  std::vector<SearchScratch> search_scratch;           ///< per position
  std::vector<EdgeLabelId> el_scratch;
  std::vector<VertexId> sol_buf;
  std::vector<uint8_t> mapped;  ///< ISO F-flags; all-zero outside Search
  std::vector<VertexId> m_node;
  std::vector<uint32_t> node_depth;
  std::vector<uint64_t> cr_total;

 private:
  uint32_t num_nodes_ = 0;
  std::vector<CandidateMap> maps_;            ///< per tree node
  std::vector<std::vector<VertexId>> pools_;  ///< per tree depth
  std::vector<uint32_t> open_begin_;          ///< per node open-list start
  MemoMap memo_;
  // Blank-edge union buffer pool (LIFO; see PushUnionBuf).
  std::deque<std::vector<VertexId>> union_bufs_;
  size_t union_top_ = 0;
};

/// Thread-safe checkout pool of RegionArenas. Owned by a Matcher (or shared
/// across Matchers via the constructor injection point) so arena capacity is
/// reused across queries; each checked-out arena is exclusively held by one
/// worker until released.
class ArenaPool {
 public:
  std::unique_ptr<RegionArena> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<RegionArena>();
    std::unique_ptr<RegionArena> a = std::move(free_.back());
    free_.pop_back();
    return a;
  }

  void Release(std::unique_ptr<RegionArena> a) {
    a->warm = true;
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(a));
  }

  size_t idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RegionArena>> free_;
};

}  // namespace turbo::engine
