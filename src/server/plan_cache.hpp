// LRU cache of prepared plans, keyed by normalized query text. PreparedQuery
// is immutable after Prepare and cheap to copy (shared state), so the cache
// hands out copies under a short lock; Prepare on miss runs outside the lock
// — two threads racing the same cold query both plan it and the second
// insert wins, which is benign (identical plans) and keeps the lock off the
// parse/plan path.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sparql/query_engine.hpp"

namespace turbo::server {

/// Collapses whitespace runs to single spaces and trims, so reformatted
/// copies of one query (the common client behaviour) share a cache entry.
/// Deliberately not a semantic normalization — it never changes parse
/// results, only the cache key.
inline std::string NormalizeQueryText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  for (char c : text) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  return out;
}

class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  struct Lookup {
    util::Result<sparql::PreparedQuery> plan;
    bool hit = false;
  };

  /// Returns the cached plan for `text` or prepares (and caches) it.
  /// Prepare failures are returned but never cached — a malformed query must
  /// not pin an error entry, and retrying after a fix must re-plan.
  ///
  /// The key is the query text alone: a plan holds no term ids (Open
  /// resolves constants against whatever it executes over), so one entry
  /// serves every engine and every epoch of a live store — including the
  /// epochs after a compaction re-ranks ids.
  Lookup Get(const sparql::QueryEngine& engine, const std::string& text) {
    std::string key = NormalizeQueryText(text);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = index_.find(key);
      if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        return {it->second->plan, true};
      }
      ++misses_;
    }
    util::Result<sparql::PreparedQuery> plan = engine.Prepare(text);
    if (!plan.ok()) return {std::move(plan), false};
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->plan = plan.value();
      lru_.splice(lru_.begin(), lru_, it->second);
    } else {
      lru_.push_front(Entry{key, plan.value()});
      index_[key] = lru_.begin();
      if (lru_.size() > capacity_) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
      }
    }
    return {std::move(plan), false};
  }

  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

 private:
  struct Entry {
    std::string key;
    sparql::PreparedQuery plan;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace turbo::server
