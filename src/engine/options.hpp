// Matching options and statistics for the TurboHOM / TurboHOM++ engine.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

namespace turbo::engine {

/// Matching semantics. The paper's RDF semantics is (e-graph) homomorphism;
/// isomorphism retains TurboISO's injectivity constraint (Definition 1) and
/// exists so tests can reproduce Figure 1 (1 isomorphism vs 3 homomorphisms).
enum class MatchSemantics : uint8_t { kHomomorphism, kIsomorphism };

/// Engine configuration. Defaults correspond to the paper's fully optimized
/// TurboHOM++: +INT, -NLF, -DEG, +REUSE (Section 4.3). Candidate regions
/// always live in pooled RegionArenas (engine/region_arena.hpp).
struct MatchOptions {
  MatchSemantics semantics = MatchSemantics::kHomomorphism;

  /// +INT — bulk IsJoinable via one k-way sorted intersection.
  bool use_intersection = true;
  /// NLF filter in ExploreCandidateRegion (paper disables it: -NLF).
  bool use_nlf = false;
  /// Degree filter in ExploreCandidateRegion (paper disables it: -DEG).
  bool use_degree_filter = false;
  /// +REUSE — compute the matching order for the first candidate region only.
  bool reuse_matching_order = true;

  /// Match against L_simple(v) (simple entailment regime, §4.2) instead of
  /// the inferred label closure L(v).
  bool simple_entailment = false;

  /// Worker threads; starting data vertices are distributed in dynamic
  /// chunks (§5.2). 1 = sequential.
  uint32_t num_threads = 1;
  /// Starting-vertex chunk size for the dynamic distribution.
  uint32_t chunk_size = 16;
  /// If false, starting vertices are pre-partitioned into one contiguous
  /// slice per thread instead of dynamically chunked — the "pre-determined
  /// way" §5.2 warns about (skewed candidate regions unbalance threads).
  /// Exists for the work-distribution ablation benchmark.
  bool dynamic_chunking = true;

  /// Stop after this many solutions (default: unlimited).
  uint64_t limit = std::numeric_limits<uint64_t>::max();

  /// External cancellation flag (owned by the caller, e.g. a Cursor's cancel
  /// token). Checked between starting vertices and inside SubgraphSearch, so
  /// setting it drains sequential and parallel enumeration promptly.
  const std::atomic<bool>* cancel = nullptr;

  /// Steady-clock deadline; the epoch default means "none". Polled at region
  /// granularity (every few hundred starting vertices), which keeps the
  /// clock reads off the per-candidate hot path.
  std::chrono::steady_clock::time_point deadline{};

  /// Consumer-detached stop signal: set when the streaming Cursor that
  /// drives this match is destroyed mid-query. Behaves like `cancel` for the
  /// enumeration but is reported as an abandonment, not a caller error.
  const std::atomic<bool>* abandon = nullptr;

  bool has_deadline() const { return deadline.time_since_epoch().count() != 0; }
};

/// Per-query execution statistics (drives the paper's profiling claims:
/// ExploreCandidateRegion vs SubgraphSearch time, IsJoinable counts, and
/// the §4.1 candidate-region size metric).
struct MatchStats {
  /// True when enumeration was cut short (solution limit, a callback
  /// returning false, cancellation, or an expired deadline).
  bool stopped_early = false;
  uint64_t num_solutions = 0;
  uint64_t num_start_candidates = 0;  ///< data vertices tried as region roots
  uint64_t num_regions = 0;           ///< non-empty candidate regions
  uint64_t cr_candidate_vertices = 0; ///< total candidates across all CRs
  uint64_t isjoinable_checks = 0;     ///< membership probes (non-+INT path)
  uint64_t intersection_ops = 0;      ///< k-way intersections (+INT path)
  uint64_t sig_checks = 0;            ///< neighborhood-signature filter tests
  uint64_t sig_prunes = 0;            ///< candidates rejected by the signature alone
  uint64_t arena_workers = 0;         ///< RegionArenas checked out for the run
  uint64_t arena_warm = 0;            ///< arenas reused from a previous query
  uint64_t arena_bytes = 0;           ///< resident arena capacity after the run
  double explore_ms = 0;              ///< time in ExploreCandidateRegion
  double search_ms = 0;               ///< time in SubgraphSearch
  double order_ms = 0;                ///< time in DetermineMatchingOrder
  double total_ms = 0;
  uint32_t start_query_vertex = 0;
  /// First computed matching order, as a query-vertex sequence (diagnostic;
  /// lets tests verify the Figure 2 matching-order example).
  std::vector<uint32_t> matching_order;

  void MergeFrom(const MatchStats& o) {
    if (matching_order.empty()) matching_order = o.matching_order;
    stopped_early = stopped_early || o.stopped_early;
    num_solutions += o.num_solutions;
    num_start_candidates += o.num_start_candidates;
    num_regions += o.num_regions;
    cr_candidate_vertices += o.cr_candidate_vertices;
    isjoinable_checks += o.isjoinable_checks;
    intersection_ops += o.intersection_ops;
    sig_checks += o.sig_checks;
    sig_prunes += o.sig_prunes;
    arena_workers += o.arena_workers;
    arena_warm += o.arena_warm;
    arena_bytes += o.arena_bytes;
    explore_ms += o.explore_ms;
    search_ms += o.search_ms;
    order_ms += o.order_ms;
  }
};

}  // namespace turbo::engine
