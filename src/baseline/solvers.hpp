// Baseline BGP engines standing in for the paper's competitors (§7.1):
//
//  * SortMergeBgpSolver — RDF-3X stand-in: materializes one relation per
//    triple pattern by an index range scan over the sorted-permutation store,
//    then joins relations smallest-first (hash joins on shared variables).
//    Its cost is driven by scan sizes, which grow with the dataset — exactly
//    the behaviour the paper reports for RDF-3X on the constant-solution
//    LUBM queries (Table 3).
//
//  * IndexJoinBgpSolver — "System-X" stand-in: selectivity-ordered index
//    nested-loop join, probing one pattern at a time. Nearly constant on
//    point queries, expensive when intermediate results are large (the
//    paper's Q2/Q9 observations). Given an EpochDelta it also serves the
//    live store's reads: each probe scans the base range minus tombstones,
//    then the delta's added triples (RDF-3X differential indexing), and
//    constants missing from the dictionary resolve through the term
//    overlay. Without a delta it is the plain baseline.
//
// Both operate directly on the dictionary-encoded triples (rdf:type is an
// ordinary predicate to them), so they must be given the inference-closed
// dataset — the same data every engine loads in the paper's setup.
#pragma once

#include <memory>

#include "baseline/triple_index.hpp"
#include "sparql/local_vocab.hpp"
#include "sparql/solver.hpp"

namespace turbo::baseline {

class SortMergeBgpSolver : public sparql::BgpSolver {
 public:
  SortMergeBgpSolver(const TripleIndex& index, const rdf::Dictionary& dict)
      : index_(index), dict_(dict) {}

  util::Status Evaluate(const std::vector<sparql::TriplePattern>& bgp,
                        const sparql::VarRegistry& vars, const sparql::Row& bound,
                        const std::vector<const sparql::FilterExpr*>& pushable,
                        const sparql::RowSink& emit,
                        const sparql::EvalControl& control = {}) const override;

  const rdf::Dictionary& dict() const override { return dict_; }

 private:
  const TripleIndex& index_;
  const rdf::Dictionary& dict_;
};

/// A live-store epoch's changes over a base index. The added and base triple
/// sets are disjoint (the store never adds a base triple), so scans need no
/// dedup. Overlay ids in [dict.size(), overlay_limit) are this epoch's
/// update-introduced terms; ids at or above the limit belong to later epochs
/// and resolve to nothing.
struct EpochDelta {
  std::shared_ptr<const TripleIndex> adds;
  std::shared_ptr<const TombstoneSet> tombstones;
  std::shared_ptr<const sparql::LocalVocab> overlay;
  TermId overlay_limit = 0;
};

class IndexJoinBgpSolver : public sparql::BgpSolver {
 public:
  IndexJoinBgpSolver(const TripleIndex& index, const rdf::Dictionary& dict,
                     EpochDelta delta = {})
      : index_(index), dict_(dict), delta_(std::move(delta)) {}

  util::Status Evaluate(const std::vector<sparql::TriplePattern>& bgp,
                        const sparql::VarRegistry& vars, const sparql::Row& bound,
                        const std::vector<const sparql::FilterExpr*>& pushable,
                        const sparql::RowSink& emit,
                        const sparql::EvalControl& control = {}) const override;

  const rdf::Dictionary& dict() const override { return dict_; }

 private:
  const TripleIndex& index_;
  const rdf::Dictionary& dict_;
  EpochDelta delta_;
};

}  // namespace turbo::baseline
