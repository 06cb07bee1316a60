// RegionArena unit tests plus the arena-reuse regression suite: identical
// results and deterministic stats from a warm arena and a cold one across
// the full toggle matrix, warm-arena reuse across queries on one Matcher,
// and no stale-candidate leakage when a shared ArenaPool hops between
// Matchers bound to different datasets (the ASan CI job turns any lifetime
// mistake here into a hard failure).
#include "engine/region_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "engine/engine.hpp"
#include "graph/data_graph.hpp"
#include "graph/query_graph.hpp"
#include "rdf/dataset.hpp"
#include "sparql/turbo_solver.hpp"
#include "tests/crosscheck_util.hpp"
#include "util/rng.hpp"

namespace turbo {
namespace {

using engine::ArenaPool;
using engine::CandidateMap;
using engine::MatchOptions;
using engine::MatchSemantics;
using engine::MatchStats;
using engine::MemoMap;
using engine::RegionArena;
using namespace turbo::testing::crosscheck;  // NOLINT

// ---------------------------------------------------------------------------
// CandidateMap / MemoMap units.
// ---------------------------------------------------------------------------

TEST(CandidateMapTest, InsertFindGrow) {
  CandidateMap m;
  EXPECT_EQ(m.Find(7), nullptr);
  for (VertexId k = 0; k < 1000; ++k) {
    CandidateMap::Entry* e = m.Insert(k * 3);
    e->begin = k;
    e->end = k + 2;
  }
  EXPECT_EQ(m.size(), 1000u);
  for (VertexId k = 0; k < 1000; ++k) {
    const CandidateMap::Entry* e = m.Find(k * 3);
    ASSERT_NE(e, nullptr) << k;
    EXPECT_EQ(e->begin, k);
    EXPECT_EQ(e->end, k + 2);
  }
  EXPECT_EQ(m.Find(1), nullptr);  // never inserted (not a multiple of 3)
}

TEST(CandidateMapTest, ResetIsGenerational) {
  CandidateMap m;
  m.Insert(42)->begin = 5;
  ASSERT_NE(m.Find(42), nullptr);
  size_t bytes_before = m.capacity_bytes();
  m.Reset();
  EXPECT_EQ(m.Find(42), nullptr);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.capacity_bytes(), bytes_before);  // reset keeps the slots
  // Slots freed by Reset are reusable without growth.
  m.Insert(42)->begin = 9;
  EXPECT_EQ(m.Find(42)->begin, 9u);
}

TEST(CandidateMapTest, ManyResetCycles) {
  CandidateMap m;
  for (int cycle = 0; cycle < 300; ++cycle) {
    for (VertexId k = 0; k < 8; ++k) {
      auto* e = m.Insert(k + cycle);
      e->begin = static_cast<uint32_t>(cycle);
      e->end = static_cast<uint32_t>(cycle) + k;
    }
    for (VertexId k = 0; k < 8; ++k) {
      const auto* e = m.Find(k + cycle);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->end - e->begin, k);
    }
    EXPECT_EQ(m.Find(1000000), nullptr);
    m.Reset();
    EXPECT_EQ(m.Find(cycle), nullptr);
  }
}

TEST(MemoMapTest, PutFindReset) {
  MemoMap m;
  EXPECT_EQ(m.Find(3), -1);
  for (uint64_t k = 0; k < 500; ++k) m.Put(k << 32 | k, k % 2 == 0);
  for (uint64_t k = 0; k < 500; ++k) EXPECT_EQ(m.Find(k << 32 | k), k % 2 == 0 ? 1 : 0);
  EXPECT_EQ(m.Find(12345), -1);
  m.Reset();
  for (uint64_t k = 0; k < 500; ++k) EXPECT_EQ(m.Find(k << 32 | k), -1);
  m.Put(7, false);
  EXPECT_EQ(m.Find(7), 0);
}

TEST(RegionArenaTest, PooledStoreRoundTrip) {
  RegionArena a;
  a.PrepareQuery(4);
  // Two lists on node 1 (depth 1), interleaved with one on node 2 (depth 2):
  // the exploration DFS pattern (deeper lists open and close while a
  // shallower one is still open).
  a.BeginList(1, 1);
  a.Append(1, 10);
  a.BeginList(2, 2);
  a.Append(2, 20);
  a.Append(2, 21);
  EXPECT_EQ(a.EndList(2, 2, 10), 2u);
  a.Append(1, 11);
  EXPECT_EQ(a.EndList(1, 1, 100), 2u);

  auto l1 = a.Lookup(1, 1, 100);
  ASSERT_EQ(l1.size(), 2u);
  EXPECT_EQ(l1[0], 10u);
  EXPECT_EQ(l1[1], 11u);
  auto l2 = a.Lookup(2, 2, 10);
  ASSERT_EQ(l2.size(), 2u);
  EXPECT_EQ(l2[0], 20u);
  EXPECT_TRUE(a.Lookup(1, 1, 999).empty());
  a.MemoPut(99, true);
  EXPECT_EQ(a.MemoFind(99), 1);
  EXPECT_EQ(a.MemoFind(98), -1);

  a.ResetRegion();
  EXPECT_TRUE(a.Lookup(1, 1, 100).empty());
  EXPECT_TRUE(a.Lookup(2, 2, 10).empty());
  EXPECT_EQ(a.MemoFind(99), -1);
}

TEST(ArenaPoolTest, AcquireWarmsOnRelease) {
  ArenaPool pool;
  auto a = pool.Acquire();
  EXPECT_FALSE(a->warm);
  RegionArena* raw = a.get();
  pool.Release(std::move(a));
  EXPECT_EQ(pool.idle(), 1u);
  auto b = pool.Acquire();
  EXPECT_EQ(b.get(), raw);
  EXPECT_TRUE(b->warm);
  EXPECT_EQ(pool.idle(), 0u);
}

// ---------------------------------------------------------------------------
// Warm vs cold arena equivalence over the randomized matrix.
// ---------------------------------------------------------------------------

/// The deterministic slice of MatchStats (excludes wall-clock timings and
/// the arena bookkeeping, which legitimately differ between warm and cold
/// arenas).
std::string DeterministicStats(const MatchStats& s) {
  std::string out;
  out += "solutions=" + std::to_string(s.num_solutions);
  out += " starts=" + std::to_string(s.num_start_candidates);
  out += " regions=" + std::to_string(s.num_regions);
  out += " cr_vertices=" + std::to_string(s.cr_candidate_vertices);
  out += " isjoinable=" + std::to_string(s.isjoinable_checks);
  out += " intersections=" + std::to_string(s.intersection_ops);
  out += " start_qv=" + std::to_string(s.start_query_vertex);
  out += " order=";
  for (uint32_t v : s.matching_order) out += std::to_string(v) + ",";
  return out;
}

TEST(ArenaReuse, WarmArenaMatchesColdAcrossToggleMatrix) {
  // One pool per (semantics, toggle combo), shared across seeds: each seed's
  // query checks out the arena the previous seed's query left warm — on
  // another graph, with another query shape — and must match a fresh
  // Matcher, whose arena is cold, result for result and counter for counter.
  std::array<ArenaPool, 32> pools;
  uint64_t seeds_run = 0, warm_runs = 0;
  for (uint64_t seed = 200; seed < 215; ++seed) {
    util::Rng rng(seed);
    rdf::Dataset ds = MakeRandomDataset(rng);
    graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
    if (g.num_vertices() == 0 || g.num_edge_labels() == 0) continue;
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ++seeds_run;

    graph::QueryGraph q;
    const uint32_t nq = 2 + static_cast<uint32_t>(rng.Below(2));
    for (uint32_t i = 0; i < nq; ++i) {
      graph::QueryVertex v;
      if (g.num_vertex_labels() > 0 && rng.Chance(0.3))
        v.labels = {static_cast<LabelId>(rng.Below(g.num_vertex_labels()))};
      q.AddVertex(v);
    }
    for (uint32_t i = 1; i < nq; ++i) {
      graph::QueryEdge e;
      uint32_t anchor = static_cast<uint32_t>(rng.Below(i));
      e.from = rng.Chance(0.5) ? anchor : i;
      e.to = e.from == anchor ? i : anchor;
      e.label = static_cast<EdgeLabelId>(rng.Below(g.num_edge_labels()));
      q.AddEdge(e);
    }

    size_t pi = 0;
    for (MatchSemantics sem :
         {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
      for (const MatchOptions& o : AllToggleCombos(sem)) {
        ArenaPool& pool = pools[pi++];
        const bool expect_warm = pool.idle() > 0;
        MatchStats s_warm, s_cold;
        auto r_warm = engine::Matcher(g, o, &pool).FindAll(q, &s_warm);
        auto r_cold = engine::Matcher(g, o).FindAll(q, &s_cold);
        EXPECT_EQ(r_warm, r_cold) << DescribeToggles(o);
        EXPECT_EQ(DeterministicStats(s_warm), DeterministicStats(s_cold))
            << DescribeToggles(o);
        EXPECT_EQ(s_cold.arena_warm, 0u) << DescribeToggles(o);
        if (expect_warm) {
          EXPECT_GT(s_warm.arena_warm, 0u) << DescribeToggles(o);
          ++warm_runs;
        }
      }
    }
  }
  // Every seed after the first one run checks all 32 combos out warm.
  ASSERT_GE(seeds_run, 2u);
  EXPECT_EQ(warm_runs, 32 * (seeds_run - 1));
}

// ---------------------------------------------------------------------------
// Warm-arena correctness across queries and across datasets.
// ---------------------------------------------------------------------------

graph::QueryGraph PathQuery(const graph::DataGraph& g, uint32_t len, uint64_t seed) {
  util::Rng rng(seed);
  graph::QueryGraph q;
  for (uint32_t i = 0; i <= len; ++i) q.AddVertex({});
  for (uint32_t i = 0; i < len; ++i) {
    graph::QueryEdge e;
    e.from = i;
    e.to = i + 1;
    e.label = static_cast<EdgeLabelId>(rng.Below(std::max<uint32_t>(1, g.num_edge_labels())));
    q.AddEdge(e);
  }
  return q;
}

TEST(ArenaReuse, WarmArenaAcrossQueriesOfDifferentShapes) {
  util::Rng rng(77);
  rdf::Dataset ds = MakeRandomDataset(rng);
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  if (g.num_edge_labels() == 0) GTEST_SKIP() << "degenerate dataset";

  engine::Matcher warm(g);  // one matcher, pool persists across queries
  uint64_t warm_seen = 0;
  // Alternate tree sizes so PrepareQuery repeatedly grows and logically
  // shrinks the arena; every query must still match a fresh matcher.
  for (uint32_t round = 0; round < 6; ++round) {
    uint32_t len = 1 + (round * 2) % 5;  // 1,3,5,2,4,1
    graph::QueryGraph q = PathQuery(g, len, 500 + round);
    MatchStats ws, fs;
    auto got = warm.FindAll(q, &ws);
    auto expect = engine::Matcher(g).FindAll(q, &fs);
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect) << "round " << round << " len " << len;
    EXPECT_EQ(DeterministicStats(ws), DeterministicStats(fs)) << "round " << round;
    warm_seen += ws.arena_warm;
  }
  // The matcher-owned pool must actually be reused: every round after the
  // first checks out the arena the previous round released.
  EXPECT_GE(warm_seen, 5u);
}

TEST(ArenaReuse, IsomorphismFlagsStayCleanAcrossSemanticsSwitches) {
  util::Rng rng(88);
  rdf::Dataset ds = MakeRandomDataset(rng);
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  if (g.num_edge_labels() == 0) GTEST_SKIP() << "degenerate dataset";
  graph::QueryGraph q = PathQuery(g, 2, 42);

  ArenaPool pool;  // shared across iso and hom matchers
  MatchOptions iso;
  iso.semantics = MatchSemantics::kIsomorphism;
  for (int round = 0; round < 3; ++round) {
    uint64_t iso_count = engine::Matcher(g, iso, &pool).Count(q);
    uint64_t hom_count = engine::Matcher(g, {}, &pool).Count(q);
    EXPECT_EQ(iso_count, engine::Matcher(g, iso).Count(q)) << "round " << round;
    EXPECT_EQ(hom_count, engine::Matcher(g).Count(q)) << "round " << round;
  }
}

TEST(ArenaReuse, SharedPoolAcrossDatasetsDoesNotLeakCandidates) {
  // Two unrelated datasets, one shared pool: matcher B inherits arenas warm
  // from matcher A's graph. Any stale candidate list, memo entry, or visited
  // flag surviving the hop would corrupt results (or trip ASan).
  ArenaPool pool;
  std::vector<uint64_t> fresh_counts;
  for (int round = 0; round < 4; ++round) {
    util::Rng rng(900 + round);
    rdf::Dataset ds = MakeRandomDataset(rng);
    graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
    if (g.num_edge_labels() == 0) {
      fresh_counts.push_back(0);
      continue;
    }
    graph::QueryGraph q = PathQuery(g, 2 + round % 3, 600 + round);
    MatchStats shared_stats;
    uint64_t with_shared_pool = engine::Matcher(g, {}, &pool).Count(q, &shared_stats);
    uint64_t with_fresh = engine::Matcher(g).Count(q);
    EXPECT_EQ(with_shared_pool, with_fresh) << "round " << round;
    if (round > 0) {
      EXPECT_GE(shared_stats.arena_warm, 1u) << "pool was not reused";
    }
    fresh_counts.push_back(with_fresh);
  }
  // Parallel workers from the same pool, still isolated per worker.
  for (int round = 0; round < 4; ++round) {
    util::Rng rng(900 + round);
    rdf::Dataset ds = MakeRandomDataset(rng);
    graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
    if (g.num_edge_labels() == 0) continue;
    graph::QueryGraph q = PathQuery(g, 2 + round % 3, 600 + round);
    MatchOptions par;
    par.num_threads = 4;
    EXPECT_EQ(engine::Matcher(g, par, &pool).Count(q), fresh_counts[round])
        << "round " << round;
  }
}

TEST(ArenaReuse, SolverReusesArenasAcrossEvaluateCalls) {
  RandomCase c = MakeRandomCase(3);
  if (c.bgp.empty()) GTEST_SKIP() << "degenerate case";

  baseline::TripleIndex index(c.ds);
  baseline::SortMergeBgpSolver reference_solver(index, c.ds.dict());
  const std::vector<sparql::Row> reference = Evaluate(reference_solver, c);

  graph::DataGraph cg = graph::DataGraph::Build(c.ds, graph::TransformMode::kTypeAware);
  sparql::TurboBgpSolver solver(cg, c.ds.dict());
  for (int round = 0; round < 3; ++round)
    EXPECT_EQ(reference, Evaluate(solver, c)) << "round " << round;
  const MatchStats& st = solver.last_stats();
  EXPECT_GE(st.arena_workers, 3u);
  EXPECT_EQ(st.arena_warm + 1, st.arena_workers)
      << "every checkout after the first should find a warm arena";
}

}  // namespace
}  // namespace turbo
