// Differential-testing oracle: the TurboHOM++ engine (via TurboBgpSolver)
// must produce exactly the same solution set as both baseline BGP engines
// (SortMergeBgpSolver, IndexJoinBgpSolver) on randomized datasets and
// randomized basic graph patterns, across every combination of the Section
// 4.3 optimization toggles (+INT, -NLF, -DEG, +REUSE), on both the direct
// and the type-aware transformation, and under both homomorphism and
// isomorphism semantics (isomorphism is checked against the baseline's
// homomorphism rows filtered for vertex-injectivity).
//
// The large-graph tier also serves each case through a live store's delta
// (IndexJoinBgpSolver over base minus tombstones plus added triples, with
// an overlay-only term) and compares its rendered rows to the reference.
//
// Every future perf PR inherits this oracle: if a hot-path change breaks
// correctness on any toggle combination, this test catches it on 60+ seeded
// random query/data pairs. The generators live in tests/crosscheck_util.hpp
// so engine variants can be crosschecked outside this file too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "engine/engine.hpp"
#include "graph/data_graph.hpp"
#include "rdf/dataset.hpp"
#include "sparql/turbo_solver.hpp"
#include "store/live_store.hpp"
#include "tests/crosscheck_util.hpp"
#include "util/rng.hpp"

namespace turbo {
namespace {

using engine::MatchOptions;
using engine::MatchSemantics;
using sparql::Row;
using namespace turbo::testing::crosscheck;  // NOLINT

/// Rows in N-Triples form, sorted: a live store assigns its own term ids, so
/// only rendered rows compare across stores.
std::vector<std::string> RenderSorted(const std::vector<Row>& rows,
                                      const std::vector<std::string>& vars,
                                      const rdf::Dictionary& dict,
                                      const sparql::LocalVocab* local = nullptr) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(sparql::FormatRow(vars, r, dict, local));
  std::sort(out.begin(), out.end());
  return out;
}

/// Serves `c` from a live store whose one update leaves a delta. The base
/// holds most of the case's triples plus extra ones the case lacks. The
/// update deletes the extras (tombstones) and inserts the rest (delta adds),
/// among them every triple naming one term, so that term exists only in the
/// overlay. Returns the rows of the update's epoch, rendered. `c` must have
/// a non-empty base BGP.
std::vector<std::string> RunOverLiveDelta(const ExecutorFuzzCase& c,
                                          const sparql::PreparedQuery& prepared,
                                          uint64_t seed) {
  util::Rng rng(seed ^ 0x5eedULL);
  const rdf::Dictionary& dict = c.ds.dict();
  std::vector<rdf::Triple> all(c.ds.triples().begin(), c.ds.triples().end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  std::unordered_set<rdf::Triple, rdf::TripleHash> present(all.begin(), all.end());
  auto pick = [&] { return all[rng.Below(all.size())]; };

  // Half the cases make the predicate of the query's first pattern
  // overlay-only, so query constants must resolve through the overlay.
  const sparql::PatternTerm& first_p = c.query.where.triples.front().p;
  const TermId fresh =
      !first_p.is_var() && rng.Chance(0.5) ? *dict.Find(first_p.term) : pick().s;
  auto names_fresh = [&](const rdf::Triple& t) {
    return t.s == fresh || t.p == fresh || t.o == fresh;
  };
  std::vector<rdf::Triple> base, inserts, doomed;
  for (const rdf::Triple& t : all)
    (names_fresh(t) || rng.Chance(0.2) ? inserts : base).push_back(t);
  for (int i = 0; i < 64; ++i) {
    rdf::Triple t{pick().s, pick().p, pick().o};
    if (!names_fresh(t) && present.insert(t).second) doomed.push_back(t);
  }

  rdf::Dataset base_ds;
  for (const std::vector<rdf::Triple>* part : {&base, &doomed})
    for (const rdf::Triple& t : *part)
      base_ds.Add(dict.term(t.s), dict.term(t.p), dict.term(t.o));
  auto block = [&](const char* op, const std::vector<rdf::Triple>& triples) {
    std::string text = std::string(op) + " DATA {\n";
    for (const rdf::Triple& t : triples)
      text += dict.term(t.s).ToNTriples() + " " + dict.term(t.p).ToNTriples() + " " +
              dict.term(t.o).ToNTriples() + " .\n";
    return text + "}";
  };
  std::string update = block("INSERT", inserts);
  if (!doomed.empty()) update = block("DELETE", doomed) + " ;\n" + update;

  store::LiveStore::Config config;
  config.engine.solver = sparql::QueryEngine::SolverKind::kIndexJoin;
  store::LiveStore live(std::move(base_ds), config);
  auto applied = live.Update(update);
  EXPECT_TRUE(applied.ok()) << applied.message();
  if (!applied.ok()) return {"<update error>"};
  EXPECT_EQ(applied.value().deleted, doomed.size());
  EXPECT_EQ(applied.value().inserted, inserts.size());

  std::shared_ptr<const store::LiveStore::Snapshot> snap = live.snapshot();
  EXPECT_TRUE(snap->has_delta());
  EXPECT_FALSE(snap->dict().Find(dict.term(fresh)).has_value())
      << "the fresh term must live in the overlay only";
  auto cursor = store::LiveStore::OpenAt(snap, prepared);
  EXPECT_TRUE(cursor.ok()) << cursor.message();
  if (!cursor.ok()) return {"<open error>"};
  // Odd seeds read through a push run, even ones through Next.
  std::vector<Row> rows;
  if (seed % 2 == 1) {
    cursor.value().Run([&](const Row& r) {
      rows.push_back(r);
      return sparql::EmitResult::kContinue;
    });
  } else {
    Row row;
    while (cursor.value().Next(&row)) rows.push_back(row);
  }
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  return RenderSorted(rows, prepared.var_names(), snap->dict(),
                      cursor.value().local_vocab().get());
}

TEST(SolverCrosscheck, RandomizedBgpAllTogglesBothSemantics) {
  constexpr uint64_t kNumCases = 60;
  uint64_t nonempty_cases = 0;
  for (uint64_t seed = 1; seed <= kNumCases; ++seed) {
    RandomCase c = MakeRandomCase(seed);
    SCOPED_TRACE(DescribeCase(c, seed));
    if (c.bgp.empty()) continue;

    baseline::TripleIndex index(c.ds);
    baseline::SortMergeBgpSolver sort_merge(index, c.ds.dict());
    baseline::IndexJoinBgpSolver index_join(index, c.ds.dict());

    const std::vector<Row> reference = Evaluate(sort_merge, c);
    if (!reference.empty()) ++nonempty_cases;
    if (c.expect_nonempty) {
      EXPECT_FALSE(reference.empty()) << "data-derived query lost its witness";
    }
    EXPECT_EQ(reference, Evaluate(index_join, c)) << "baselines disagree";

    graph::DataGraph direct = graph::DataGraph::Build(c.ds, graph::TransformMode::kDirect);
    graph::DataGraph typed = graph::DataGraph::Build(c.ds, graph::TransformMode::kTypeAware);
    // Compressed adjacency storage must be observationally identical: the
    // toggle matrix exercises both decode-into-scratch (intersection) and
    // galloping membership (IsJoinable) over the varint lists.
    graph::DataGraph direct_c = graph::DataGraph::Build(
        c.ds, graph::TransformMode::kDirect, graph::StorageMode::kCompressed);
    graph::DataGraph typed_c = graph::DataGraph::Build(
        c.ds, graph::TransformMode::kTypeAware, graph::StorageMode::kCompressed);

    for (const MatchOptions& o : AllToggleCombos(MatchSemantics::kHomomorphism)) {
      sparql::TurboBgpSolver turbo_typed(typed, c.ds.dict(), o);
      EXPECT_EQ(reference, Evaluate(turbo_typed, c)) << "type-aware" << DescribeToggles(o);
      sparql::TurboBgpSolver turbo_direct(direct, c.ds.dict(), o);
      EXPECT_EQ(reference, Evaluate(turbo_direct, c)) << "direct" << DescribeToggles(o);
      sparql::TurboBgpSolver turbo_typed_c(typed_c, c.ds.dict(), o);
      EXPECT_EQ(reference, Evaluate(turbo_typed_c, c))
          << "type-aware compressed" << DescribeToggles(o);
      sparql::TurboBgpSolver turbo_direct_c(direct_c, c.ds.dict(), o);
      EXPECT_EQ(reference, Evaluate(turbo_direct_c, c))
          << "direct compressed" << DescribeToggles(o);
    }

    // Isomorphism: only when query vertices coincide exactly with the
    // vertex variables (no constant slots) and on the type-aware graph
    // (type patterns fold into labels instead of becoming query vertices).
    if (c.all_slots_are_vars) {
      const std::vector<Row> iso_expected = InjectiveOnly(reference, c.vertex_var_indices);
      for (const MatchOptions& o : AllToggleCombos(MatchSemantics::kIsomorphism)) {
        sparql::TurboBgpSolver turbo_iso(typed, c.ds.dict(), o);
        EXPECT_EQ(iso_expected, Evaluate(turbo_iso, c))
            << "isomorphism vs injectivity-filtered baseline";
      }
    }
    if (::testing::Test::HasFailure()) break;  // one broken seed is enough
  }
  // The generator must actually exercise the engines: most cases sampled
  // from the data are guaranteed a witness, so a near-empty run means the
  // generator regressed. Only meaningful when all seeds ran — after an
  // early break the count is truncated and would misdirect triage.
  if (!::testing::Test::HasFailure()) {
    EXPECT_GE(nonempty_cases, kNumCases / 3);
  }
}

// Matcher-level brute-force oracle, independent of the SPARQL layer and of
// both baselines: enumerate all vertex assignments of a small random query
// graph by brute force and compare against Matcher::FindAll under both
// semantics and all toggle combinations.
TEST(SolverCrosscheck, MatcherVsBruteForceOnRandomGraphs) {
  for (uint64_t seed = 100; seed < 120; ++seed) {
    util::Rng rng(seed);
    rdf::Dataset ds = MakeRandomDataset(rng);
    graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
    graph::DataGraph gc = graph::DataGraph::Build(
        ds, graph::TransformMode::kTypeAware, graph::StorageMode::kCompressed);
    if (g.num_vertices() == 0 || g.num_edge_labels() == 0) continue;
    SCOPED_TRACE("seed=" + std::to_string(seed));

    // Random connected query graph over existing labels/edge labels.
    graph::QueryGraph q;
    const uint32_t nq = 2 + static_cast<uint32_t>(rng.Below(2));  // 2..3
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

    // Brute force: all |V|^nq assignments.
    auto admissible = [&](uint32_t u, VertexId v) {
      for (LabelId l : q.vertex(u).labels)
        if (!g.HasLabel(v, l)) return false;
      return true;
    };
    auto edges_ok = [&](const std::vector<VertexId>& asg) {
      for (uint32_t e = 0; e < q.num_edges(); ++e) {
        const graph::QueryEdge& qe = q.edge(e);
        if (!g.HasEdge(asg[qe.from], asg[qe.to], qe.label)) return false;
      }
      return true;
    };
    std::vector<std::vector<VertexId>> brute_hom, brute_iso;
    std::vector<VertexId> asg(nq, 0);
    const uint32_t n = g.num_vertices();
    uint64_t total = 1;
    for (uint32_t i = 0; i < nq; ++i) total *= n;
    for (uint64_t code = 0; code < total; ++code) {
      uint64_t x = code;
      bool ok = true;
      for (uint32_t i = 0; i < nq; ++i, x /= n) {
        asg[i] = static_cast<VertexId>(x % n);
        if (!admissible(i, asg[i])) { ok = false; break; }
      }
      if (!ok || !edges_ok(asg)) continue;
      brute_hom.push_back(asg);
      std::set<VertexId> distinct(asg.begin(), asg.end());
      if (distinct.size() == nq) brute_iso.push_back(asg);
    }
    std::sort(brute_hom.begin(), brute_hom.end());
    std::sort(brute_iso.begin(), brute_iso.end());

    for (MatchSemantics sem : {MatchSemantics::kHomomorphism, MatchSemantics::kIsomorphism}) {
      const auto& expected = sem == MatchSemantics::kHomomorphism ? brute_hom : brute_iso;
      for (const MatchOptions& o : AllToggleCombos(sem)) {
        for (const graph::DataGraph* dg : {&g, &gc}) {
          engine::Matcher matcher(*dg, o);
          std::vector<engine::Solution> got = matcher.FindAll(q);
          std::sort(got.begin(), got.end());
          EXPECT_EQ(expected, got)
              << "sem=" << (sem == MatchSemantics::kHomomorphism ? "hom" : "iso")
              << (dg->compressed() ? " compressed" : " plain") << DescribeToggles(o);
        }
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
}

// Nightly-scale fuzz tier: 100-500 entity graphs and full SELECT queries
// (OPTIONAL / FILTER / UNION / DISTINCT) evaluated through
// sparql::Materialize, so the solver integration — bound-row re-entry for
// OPTIONAL, filter pushdown, RegionArena reuse across the executor's many
// Evaluate calls — is differentially tested, not just bare BGP matching.
//
// Runs a handful of seeds by default (fast enough for every ctest run);
// nightly CI scales it up with TURBO_FUZZ_ITERS=150+. Plain and compressed
// adjacency storage and a parallel configuration are checked against both
// baselines.
// GROUP BY / aggregate tier: random grouped queries (COUNT / SUM / MIN /
// MAX / AVG, DISTINCT-inside, HAVING) over the 100-500-entity datasets,
// checked against the brute-force reference evaluator — which aggregates
// the flat WHERE rows with independent loops — and differentially across
// all four solvers, both storage modes, and the parallel path. Scaled by
// $TURBO_FUZZ_ITERS in nightly like the executor tier.
TEST(SolverCrosscheck, GroupAggregateFuzz) {
  const uint64_t iters = FuzzItersFromEnv(5);
  constexpr size_t kRowCap = 50000;  // skip pathological row explosions
  uint64_t nonempty = 0, skipped = 0;
  for (uint64_t seed = 2000; seed < 2000 + iters; ++seed) {
    AggregateFuzzCase c = MakeAggregateFuzzCase(seed);
    SCOPED_TRACE(c.description);
    if (c.query.where.triples.empty()) continue;

    baseline::TripleIndex index(c.ds);
    baseline::SortMergeBgpSolver sort_merge(index, c.ds.dict());
    baseline::IndexJoinBgpSolver index_join(index, c.ds.dict());

    // The reference input: flat SELECT * rows from a trusted baseline.
    auto flat = sparql::Materialize(sort_merge, c.flat);
    ASSERT_TRUE(flat.ok()) << flat.message();
    if (flat.value().rows.size() > kRowCap) {
      ++skipped;
      continue;
    }
    const std::vector<RenderedRow> expected = ReferenceAggregate(c, flat.value());
    if (!expected.empty()) ++nonempty;

    EXPECT_EQ(expected, RunAggregated(sort_merge, c.query)) << "sortmerge";
    EXPECT_EQ(expected, RunAggregated(index_join, c.query)) << "indexjoin";
    // Push delivery of aggregated rows: computed values resolve through the
    // cursor's LocalVocab from inside the sink.
    EXPECT_EQ(expected, RunAggregatedPushed(sort_merge, c.query)) << "push sortmerge";

    graph::DataGraph direct = graph::DataGraph::Build(c.ds, graph::TransformMode::kDirect);
    graph::DataGraph typed = graph::DataGraph::Build(c.ds, graph::TransformMode::kTypeAware);
    graph::DataGraph typed_c = graph::DataGraph::Build(
        c.ds, graph::TransformMode::kTypeAware, graph::StorageMode::kCompressed);
    {
      sparql::TurboBgpSolver turbo_typed(typed, c.ds.dict());
      EXPECT_EQ(expected, RunAggregated(turbo_typed, c.query)) << "type-aware";
      sparql::TurboBgpSolver turbo_direct(direct, c.ds.dict());
      EXPECT_EQ(expected, RunAggregated(turbo_direct, c.query)) << "direct";
      sparql::TurboBgpSolver turbo_typed_c(typed_c, c.ds.dict());
      EXPECT_EQ(expected, RunAggregated(turbo_typed_c, c.query))
          << "type-aware compressed";
    }
    {
      MatchOptions o;
      o.num_threads = 3;
      sparql::TurboBgpSolver turbo_par(typed, c.ds.dict(), o);
      EXPECT_EQ(expected, RunAggregated(turbo_par, c.query)) << "parallel type-aware";
    }
    if (::testing::Test::HasFailure()) break;
  }
  if (!::testing::Test::HasFailure() && skipped < iters) {
    // Aggregation always answers for the implicit group, and the generator
    // guarantees a base-BGP witness: a mostly-empty run means the tier
    // regressed into testing nothing.
    EXPECT_GE(nonempty, (iters - skipped) / 2);
  }
}

TEST(SolverCrosscheck, LargeGraphExecutorFuzz) {
  const uint64_t iters = FuzzItersFromEnv(5);
  constexpr size_t kRowCap = 50000;  // skip pathological row explosions
  uint64_t nonempty = 0, skipped = 0;
  for (uint64_t seed = 1000; seed < 1000 + iters; ++seed) {
    ExecutorFuzzCase c = MakeExecutorFuzzCase(seed);
    SCOPED_TRACE(c.description);
    if (c.query.where.triples.empty()) continue;

    baseline::TripleIndex index(c.ds);
    baseline::SortMergeBgpSolver sort_merge(index, c.ds.dict());
    baseline::IndexJoinBgpSolver index_join(index, c.ds.dict());

    const std::vector<Row> reference = RunMaterialized(sort_merge, c.query);
    if (reference.size() > kRowCap) {
      ++skipped;
      continue;
    }
    if (!reference.empty()) ++nonempty;
    EXPECT_EQ(reference, RunMaterialized(index_join, c.query)) << "baselines disagree";

    // A push run must deliver exactly the materialized rows.
    EXPECT_EQ(reference, RunPushed(sort_merge, c.query)) << "push sortmerge";

    // The same final triple set, read through a live store's delta.
    {
      auto prepared = sparql::PrepareSelect(c.query);
      ASSERT_TRUE(prepared.ok()) << prepared.message();
      EXPECT_EQ(RenderSorted(reference, prepared.value().var_names(), c.ds.dict()),
                RunOverLiveDelta(c, prepared.value(), seed))
          << "live-store delta";
    }

    graph::DataGraph direct = graph::DataGraph::Build(c.ds, graph::TransformMode::kDirect);
    graph::DataGraph typed = graph::DataGraph::Build(c.ds, graph::TransformMode::kTypeAware);
    graph::DataGraph typed_c = graph::DataGraph::Build(
        c.ds, graph::TransformMode::kTypeAware, graph::StorageMode::kCompressed);

    {
      sparql::TurboBgpSolver turbo_typed(typed, c.ds.dict());
      EXPECT_EQ(reference, RunMaterialized(turbo_typed, c.query)) << "type-aware";
      EXPECT_EQ(reference, RunPushed(turbo_typed, c.query)) << "push type-aware";
      sparql::TurboBgpSolver turbo_typed_c(typed_c, c.ds.dict());
      EXPECT_EQ(reference, RunMaterialized(turbo_typed_c, c.query)) << "type-aware compressed";
      sparql::TurboBgpSolver turbo_direct(direct, c.ds.dict());
      EXPECT_EQ(reference, RunMaterialized(turbo_direct, c.query)) << "direct";
      // The solver's arena pool must actually have been exercised: the
      // executor re-enters Evaluate per OPTIONAL row. The streaming
      // pipeline nests those calls inside the outer Match's callback, so
      // up to one arena per active pipeline stage (base BGP, a UNION
      // branch, an OPTIONAL extension) is checked out concurrently — each
      // stage's first checkout is cold, every later one must be warm.
      const engine::MatchStats& st = turbo_typed.last_stats();
      EXPECT_GT(st.arena_workers, 0u);
      EXPECT_LE(st.arena_workers - st.arena_warm, 3u)
          << "more cold arena checkouts than concurrent pipeline stages";
    }
    {
      MatchOptions o;
      o.num_threads = 3;
      sparql::TurboBgpSolver turbo_par(typed, c.ds.dict(), o);
      EXPECT_EQ(reference, RunMaterialized(turbo_par, c.query)) << "parallel type-aware";
      // Parallel workers batch rows into the sink; the sorted bag must
      // still match exactly.
      EXPECT_EQ(reference, RunPushed(turbo_par, c.query)) << "push parallel";
      // Parallel decode shares nothing but the immutable compressed arrays;
      // each worker decodes into its own arena-backed scratch.
      sparql::TurboBgpSolver turbo_par_c(typed_c, c.ds.dict(), o);
      EXPECT_EQ(reference, RunMaterialized(turbo_par_c, c.query))
          << "parallel type-aware compressed";
    }
    if (::testing::Test::HasFailure()) break;
  }
  if (!::testing::Test::HasFailure() && skipped < iters) {
    // The generator guarantees a witness for the base BGP; decorations can
    // filter everything out sometimes, but a mostly-empty run means the
    // tier regressed into testing nothing.
    EXPECT_GE(nonempty, (iters - skipped) / 2);
  }
}

}  // namespace
}  // namespace turbo
