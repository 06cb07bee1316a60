// Per-execution term space for values a query *computes* rather than reads:
// aggregate results (COUNT/SUM/AVG literals) are RDF terms that do not exist
// in the shared, immutable Dictionary. A LocalVocab assigns them TermIds in
// the range [base, base + size) — just above the dictionary — so computed
// values flow through the same Row = vector<TermId> pipeline as stored
// terms. Resolution helpers below pick the right table per id.
//
// One LocalVocab lives per cursor execution; the Cursor / ResultSet share
// ownership so delivered rows stay resolvable after the pipeline is gone.
// A cursor's own vocab is touched by one thread at a time, but the live
// store's term overlay is a LocalVocab shared by every reader of an epoch.
// So Intern/Find/Numeric synchronize on an internal mutex; deques
// keep term references stable across growth, so a pointer returned by Find
// stays valid for the vocab's lifetime.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "rdf/dictionary.hpp"
#include "rdf/term.hpp"
#include "util/common.hpp"

namespace turbo::sparql {

class LocalVocab {
 public:
  /// `base` is the first id this vocab owns — dict.size() at open time (the
  /// dictionary is immutable while a query runs).
  explicit LocalVocab(TermId base) : base_(base) {}

  /// Chained form for the live-store term overlay: ids below `base` that the
  /// dictionary does not cover resolve through `parent` (itself a LocalVocab
  /// over the ids [parent->base(), base)). A cursor's vocab chains to the
  /// shared overlay so update-introduced terms resolve like stored ones
  /// while cursor-computed values still intern locally above them.
  LocalVocab(TermId base, std::shared_ptr<const LocalVocab> parent)
      : base_(base), parent_(std::move(parent)) {}

  /// Interns `t`, deduplicating by term value; returns its local id.
  TermId Intern(rdf::Term t) {
    std::string key = MakeKey(t);
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, added] =
        index_.try_emplace(std::move(key), base_ + static_cast<TermId>(terms_.size()));
    if (added) {
      // Numeric view cached once at intern time: sort keys and HAVING
      // comparisons over aggregate columns resolve without re-parsing.
      numeric_.push_back(t.NumericValue());
      terms_.push_back(std::move(t));
    }
    return it->second;
  }

  /// Interns `t`, but prefers an id already visible through the parent chain
  /// below this vocab's base. Used when a query constant (VALUES row, BIND
  /// result) must join against data the overlay already stores: matching the
  /// overlay's id is what makes the join succeed. Parent ids at or above
  /// `base_` are terms interned after this vocab's epoch was pinned — they
  /// would collide with local ids, so they are ignored and the term interns
  /// locally (correctly matching nothing in the pinned snapshot).
  TermId InternVisible(const rdf::Term& t) {
    if (parent_) {
      std::optional<TermId> id = parent_->FindId(t);
      if (id && *id < base_) return *id;
    }
    return Intern(t);
  }

  /// The id this vocab (or a parent) assigned to `t`, if any.
  std::optional<TermId> FindId(const rdf::Term& t) const {
    std::string key = MakeKey(t);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = index_.find(key);
      if (it != index_.end()) return it->second;
    }
    if (parent_) return parent_->FindId(t);
    return std::nullopt;
  }

  /// The term for a local id; nullptr if `id` is not in this vocab's range.
  /// The pointer stays valid while the vocab lives (deque storage).
  const rdf::Term* Find(TermId id) const {
    if (id < base_) return parent_ ? parent_->Find(id) : nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= base_ + terms_.size()) return nullptr;
    return &terms_[id - base_];
  }

  /// Cached numeric value for a local id (nullopt if out of range or
  /// non-numeric).
  std::optional<double> Numeric(TermId id) const {
    if (id < base_) return parent_ ? parent_->Numeric(id) : std::nullopt;
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= base_ + numeric_.size()) return std::nullopt;
    return numeric_[id - base_];
  }

  TermId base() const { return base_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return terms_.size();
  }

 private:
  // Composite key without the N-Triples escaping pass: lexical forms of
  // computed values never contain '\n', and kind disambiguates the rest.
  static std::string MakeKey(const rdf::Term& t) {
    std::string key;
    key.reserve(t.lexical.size() + t.datatype.size() + t.lang.size() + 3);
    key += static_cast<char>('0' + static_cast<int>(t.kind));
    key += t.lexical;
    key += '\n';
    key += t.datatype;
    key += '\n';
    key += t.lang;
    return key;
  }

  TermId base_;
  std::shared_ptr<const LocalVocab> parent_;  ///< covers [parent.base, base_)
  mutable std::mutex mu_;
  std::deque<rdf::Term> terms_;
  std::deque<std::optional<double>> numeric_;
  std::unordered_map<std::string, TermId> index_;  ///< composite value key -> id
};

/// Resolves an id against the dictionary or, above it, the local vocab.
/// Returns nullptr for kInvalidId (unbound) and for ids in neither table.
inline const rdf::Term* ResolveTerm(const rdf::Dictionary& dict, const LocalVocab* local,
                                    TermId id) {
  if (id == kInvalidId) return nullptr;
  if (id < dict.size()) return &dict.term(id);
  return local ? local->Find(id) : nullptr;
}

/// Cached numeric view of an id — the Dictionary's precomputed cache below
/// the base, the LocalVocab's intern-time cache above it.
inline std::optional<double> ResolveNumeric(const rdf::Dictionary& dict,
                                            const LocalVocab* local, TermId id) {
  if (id == kInvalidId) return std::nullopt;
  if (id < dict.size()) return dict.NumericValue(id);
  return local ? local->Numeric(id) : std::nullopt;
}

}  // namespace turbo::sparql
