// Six-permutation sorted triple index, the storage scheme of RDF-3X
// ("materializes six different orderings for the EDGE(S,P,O) table", §1).
// Any subset of bound components is served by the permutation having that
// subset as a sort prefix, so every triple-pattern lookup is a binary-search
// range scan.
#pragma once

#include <array>
#include <span>
#include <unordered_set>
#include <vector>

#include "rdf/dataset.hpp"
#include "util/common.hpp"

namespace turbo::baseline {

/// Base triples retracted by a live-store epoch; scans skip them.
using TombstoneSet = std::unordered_set<rdf::Triple, rdf::TripleHash>;

class TripleIndex {
 public:
  /// Builds the index over all (original + inferred) triples, deduplicated.
  explicit TripleIndex(const rdf::Dataset& dataset);

  /// Builds the index over an explicit triple list (deduplicated) — the
  /// live store's delta index over update-appended triples.
  explicit TripleIndex(std::vector<rdf::Triple> triples);

  /// Triples matching the pattern; kInvalidId = free component. Every
  /// subset of bound components is a sort prefix of one permutation, so the
  /// returned range is exact (no post-filtering needed).
  std::span<const rdf::Triple> Lookup(TermId s, TermId p, TermId o) const;

  /// Cardinality of Lookup without materializing.
  uint64_t Count(TermId s, TermId p, TermId o) const { return Lookup(s, p, o).size(); }

  size_t size() const { return spo_.size(); }
  /// Every indexed triple, in (s, p, o) order.
  std::span<const rdf::Triple> triples() const { return spo_; }

 private:
  // Permutations named by sort order; each stores full triples.
  std::vector<rdf::Triple> spo_, sop_, pso_, pos_, osp_, ops_;
};

}  // namespace turbo::baseline
