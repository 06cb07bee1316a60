// Sorted triple index after RDF-3X, which "materializes six different
// orderings for the EDGE(S,P,O) table" (§1). Five orders serve every
// triple-pattern lookup (o-p-s would only duplicate o-s-p's `o` ranges), so
// any subset of bound components is a binary-search range scan.
#pragma once

#include <span>
#include <vector>

#include "rdf/dataset.hpp"
#include "util/common.hpp"

namespace turbo::baseline {

/// Base triples retracted by a live-store epoch, sorted in (s, p, o) order;
/// scans skip them. Immutable once built: the next epoch's set is derived
/// from this one by a linear merge.
class TombstoneSet {
 public:
  TombstoneSet() = default;
  /// The set of `triples` (sorted and deduplicated here).
  explicit TombstoneSet(std::vector<rdf::Triple> triples);
  /// `prev` plus `add` minus `remove`, by one linear merge.
  TombstoneSet(const TombstoneSet& prev, std::vector<rdf::Triple> add,
               std::vector<rdf::Triple> remove);

  /// 1 if `t` is in the set, else 0 (binary search).
  size_t count(const rdf::Triple& t) const;
  size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

 private:
  std::vector<rdf::Triple> sorted_;
};

class TripleIndex {
 public:
  /// Builds the index over all (original + inferred) triples, deduplicated.
  explicit TripleIndex(const rdf::Dataset& dataset);

  /// Builds the index over an explicit triple list (deduplicated). Sorts
  /// (s, p, o) once and derives each other order by a stable counting pass
  /// over an order whose tail already matches: O(N) beyond the first sort.
  explicit TripleIndex(std::vector<rdf::Triple> triples);

  /// `prev` plus `add` minus `remove`, each order by one linear merge:
  /// O(|prev| + batch log batch). The live store derives an epoch's delta
  /// index from the previous epoch's this way.
  TripleIndex(const TripleIndex& prev, std::vector<rdf::Triple> add,
              std::vector<rdf::Triple> remove);

  /// Triples matching the pattern; kInvalidId = free component. Every
  /// subset of bound components is a sort prefix of one order, so the
  /// returned range is exact (no post-filtering needed).
  std::span<const rdf::Triple> Lookup(TermId s, TermId p, TermId o) const;

  /// Cardinality of Lookup without materializing.
  uint64_t Count(TermId s, TermId p, TermId o) const { return Lookup(s, p, o).size(); }

  /// Whether the exact triple is indexed.
  bool Contains(const rdf::Triple& t) const { return !Lookup(t.s, t.p, t.o).empty(); }

  size_t size() const { return spo_.size(); }
  /// Every indexed triple, in (s, p, o) order.
  std::span<const rdf::Triple> triples() const { return spo_; }

 private:
  // Orders named by sort key; each stores full triples.
  std::vector<rdf::Triple> spo_, sop_, pso_, pos_, osp_;
};

}  // namespace turbo::baseline
