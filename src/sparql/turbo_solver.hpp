// TurboBgpSolver: compiles a SPARQL basic graph pattern into a QueryGraph
// (the query-side direct / type-aware transformation of §3.2 / §4.1) and
// evaluates it with the TurboHOM++ engine.
//
// Under the type-aware transformation, (?x rdf:type C) patterns fold into
// vertex labels — the paper's key query-shrinking step; (?x rdf:type ?t)
// binds ?t by enumerating the matched vertex's label set; variable
// predicates become blank query edges whose bindings are recovered from the
// adjacency lists (Definition 2's Me).
#pragma once

#include <mutex>

#include "engine/engine.hpp"
#include "graph/data_graph.hpp"
#include "sparql/solver.hpp"

namespace turbo::sparql {

class TurboBgpSolver : public BgpSolver {
 public:
  TurboBgpSolver(const graph::DataGraph& g, const rdf::Dictionary& dict,
                 engine::MatchOptions options = {})
      : g_(g), dict_(dict), options_(options) {}

  util::Status Evaluate(const std::vector<TriplePattern>& bgp, const VarRegistry& vars,
                        const Row& bound, const std::vector<const FilterExpr*>& pushable,
                        const RowSink& emit,
                        const EvalControl& control = {}) const override;

  /// COUNT(*) pushdown: compiles the BGP and counts embeddings with
  /// Matcher::Count — no solution rows are assembled. Declines (leaving
  /// *counted false) whenever rows would not map 1:1 to embeddings: pending
  /// type-/predicate-variable bindings, schema (rdfs:subClassOf) joins, the
  /// variable-predicate interpretation expansion, or a disconnected pattern.
  /// An impossible pattern (absent constant) counts as 0 without matching.
  util::Status CountSolutions(const std::vector<TriplePattern>& bgp,
                              const VarRegistry& vars, uint64_t* count, bool* counted,
                              const EvalControl& control = {}) const override;

  const rdf::Dictionary& dict() const override { return dict_; }
  const graph::DataGraph& data_graph() const { return g_; }
  const engine::MatchOptions& options() const { return options_; }

  /// Cumulative engine statistics across Evaluate calls, as a snapshot —
  /// concurrent cursors over one shared solver merge into the accumulator
  /// under a lock, so returning a reference would hand out a torn read.
  /// (Stats are mutable bookkeeping, so resetting through a const facade
  /// pointer is fine.)
  engine::MatchStats last_stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return last_stats_;
  }
  void ResetStats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_stats_ = {};
  }

  /// RegionArena pool shared by every Matcher this solver spawns, so
  /// candidate-region memory is reused across Evaluate calls (the executor
  /// re-enters Evaluate once per OPTIONAL input row — exactly the workload
  /// arena reuse targets).
  engine::ArenaPool& arena_pool() const { return arena_pool_; }

 private:
  util::Status EvaluateOne(const std::vector<TriplePattern>& bgp, const VarRegistry& vars,
                           const Row& bound, const std::vector<const FilterExpr*>& pushable,
                           const RowSink& emit, const EvalControl& control) const;

  void MergeStats(const engine::MatchStats& stats) const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_stats_.MergeFrom(stats);
  }

  const graph::DataGraph& g_;
  const rdf::Dictionary& dict_;
  engine::MatchOptions options_;
  mutable std::mutex stats_mu_;
  mutable engine::MatchStats last_stats_;  ///< guarded by stats_mu_
  mutable engine::ArenaPool arena_pool_;
};

}  // namespace turbo::sparql
