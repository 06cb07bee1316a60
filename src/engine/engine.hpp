// TurboHOM / TurboHOM++: the paper's core contribution. An e-graph
// homomorphism matcher derived from TurboISO (Algorithm 1 / 2):
//
//   ChooseStartQueryVertex -> WriteQueryTree -> per starting data vertex:
//   ExploreCandidateRegion -> DetermineMatchingOrder -> SubgraphSearch.
//
// The injectivity constraint of subgraph isomorphism is disabled under
// MatchSemantics::kHomomorphism (Section 2.2, "Modifying TurboISO for
// e-Graph Homomorphism"); the four optimizations of Section 4.3 (+INT,
// -NLF, -DEG, +REUSE) are individually toggleable so the Figure 15 ablation
// can be reproduced; Section 5.2's parallel execution over dynamic chunks of
// starting vertices is enabled with MatchOptions::num_threads > 1.
//
// The same class implements both TurboHOM (run it on a directly-transformed
// DataGraph) and TurboHOM++ (run it on a type-aware-transformed DataGraph):
// the transformation lives in the data, per the paper.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "engine/options.hpp"
#include "engine/region_arena.hpp"
#include "graph/data_graph.hpp"
#include "graph/query_graph.hpp"

namespace turbo::engine {

/// One embedding: query-vertex index -> data vertex.
using Solution = std::vector<VertexId>;

/// Called once per solution with the query-vertex-indexed mapping. Return
/// false to stop the enumeration: the engine aborts the current search,
/// drains every worker, and Match returns with MatchStats::stopped_early
/// set. This is the engine half of the streaming query API — LIMIT-style
/// termination costs exactly as much search as the delivered solutions
/// required.
using SolutionCallback = std::function<bool(std::span<const VertexId>)>;

class Matcher {
 public:
  /// `shared_pool` (optional) supplies the RegionArena checkout pool; when
  /// null the Matcher owns a private one. Passing a long-lived pool (as
  /// TurboBgpSolver does) lets per-query Matcher instances stay cheap while
  /// candidate-region memory is still reused across queries.
  explicit Matcher(const graph::DataGraph& g, MatchOptions options = {},
                   ArenaPool* shared_pool = nullptr)
      : g_(g), options_(options), shared_pool_(shared_pool) {}

  /// Enumerates all e-graph homomorphisms (or isomorphisms) of `q` in the
  /// data graph. The callback, if provided, is invoked serially — parallel
  /// runs deliver small per-worker batches from the worker threads under a
  /// mutex (never concurrently), so a `false` return or a
  /// MatchOptions::cancel signal stops further enumeration promptly instead
  /// of after a full buffer-and-replay. Requires a connected query graph
  /// with >= 1 vertex.
  MatchStats Match(const graph::QueryGraph& q, const SolutionCallback& callback) const;

  /// Counts solutions without materializing them.
  uint64_t Count(const graph::QueryGraph& q, MatchStats* stats = nullptr) const;

  /// Collects all solutions.
  std::vector<Solution> FindAll(const graph::QueryGraph& q, MatchStats* stats = nullptr) const;

  /// Human-readable plan description: chosen start query vertex with its
  /// candidate count, the query tree (BFS parents + traversal directions),
  /// and the non-tree edges IsJoinable will verify. Does not execute the
  /// query beyond ChooseStartQueryVertex.
  std::string ExplainPlan(const graph::QueryGraph& q) const;

  const MatchOptions& options() const { return options_; }
  const graph::DataGraph& data_graph() const { return g_; }
  /// The arena checkout pool in effect (shared or owned).
  ArenaPool& arena_pool() const { return shared_pool_ ? *shared_pool_ : own_pool_; }

 private:
  const graph::DataGraph& g_;
  MatchOptions options_;
  ArenaPool* shared_pool_ = nullptr;
  mutable ArenaPool own_pool_;
};

}  // namespace turbo::engine
