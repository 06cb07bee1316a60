// Property-based tests: randomized graphs and queries swept over many seeds
// (parameterized gtest), validated against a brute-force oracle and across
// engines. Invariants:
//   P1. TurboHOM++ homomorphism count == exhaustive-backtracking oracle;
//   P2. isomorphism count == oracle with injectivity, and <= hom count;
//   P3. all 16 optimization-flag combinations return identical counts;
//   P4. parallel execution == sequential;
//   P5. on random SPARQL BGPs, all four engines (type-aware, direct,
//       sort-merge, index-join) return identical row counts;
//   P6. simple-entailment answers are a subset of full-entailment answers.
#include <gtest/gtest.h>

#include <set>

#include "baseline/solvers.hpp"
#include "engine/engine.hpp"
#include "rdf/reasoner.hpp"
#include "rdf/vocabulary.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "util/rng.hpp"

namespace turbo {
namespace {

using graph::DataGraph;
using graph::QueryGraph;

// ---------------------------------------------------------------------------
// Random labeled graphs and queries.
// ---------------------------------------------------------------------------

struct RandomWorld {
  rdf::Dataset ds;
  DataGraph g;
};

/// ~40 vertices, ~100 edges, 5 vertex labels, 4 edge labels.
RandomWorld MakeRandomWorld(uint64_t seed) {
  util::Rng rng(seed);
  rdf::Dataset ds;
  const uint32_t n = 30 + rng.Below(20);
  const uint32_t labels = 5, els = 4;
  auto vertex = [](uint32_t i) { return "http://r/v" + std::to_string(i); };
  for (uint32_t v = 0; v < n; ++v) {
    uint32_t nl = static_cast<uint32_t>(rng.Below(4));  // 0..3 labels
    for (uint32_t l = 0; l < nl; ++l)
      ds.AddIri(vertex(v), rdf::vocab::kRdfType, "http://r/L" + std::to_string(rng.Below(labels)));
  }
  uint32_t m = 2 * n + static_cast<uint32_t>(rng.Below(2 * n));
  for (uint32_t e = 0; e < m; ++e)
    ds.AddIri(vertex(static_cast<uint32_t>(rng.Below(n))),
              "http://r/e" + std::to_string(rng.Below(els)),
              vertex(static_cast<uint32_t>(rng.Below(n))));
  DataGraph g = DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  return {std::move(ds), std::move(g)};
}

/// Random connected query with 2-4 vertices: a random spanning pattern plus
/// possibly one extra (non-tree) edge; labels/edge labels partially blank.
QueryGraph MakeRandomQuery(const DataGraph& g, uint64_t seed) {
  util::Rng rng(seed * 31 + 7);
  QueryGraph q;
  uint32_t k = 2 + static_cast<uint32_t>(rng.Below(3));
  for (uint32_t i = 0; i < k; ++i) {
    graph::QueryVertex v;
    uint32_t nl = static_cast<uint32_t>(rng.Below(3));  // 0..2 labels
    for (uint32_t l = 0; l < nl && g.num_vertex_labels() > 0; ++l)
      v.labels.push_back(static_cast<LabelId>(rng.Below(g.num_vertex_labels())));
    std::sort(v.labels.begin(), v.labels.end());
    v.labels.erase(std::unique(v.labels.begin(), v.labels.end()), v.labels.end());
    if (rng.Chance(0.15)) v.fixed_id = static_cast<VertexId>(rng.Below(g.num_vertices()));
    q.AddVertex(v);
  }
  auto random_el = [&]() -> EdgeLabelId {
    if (rng.Chance(0.2)) return kInvalidId;  // blank predicate
    return static_cast<EdgeLabelId>(rng.Below(g.num_edge_labels()));
  };
  // Spanning edges keep the pattern connected.
  for (uint32_t i = 1; i < k; ++i) {
    uint32_t other = static_cast<uint32_t>(rng.Below(i));
    if (rng.Chance(0.5))
      q.AddEdge({other, i, random_el(), -1});
    else
      q.AddEdge({i, other, random_el(), -1});
  }
  if (k >= 3 && rng.Chance(0.5)) {
    uint32_t a = static_cast<uint32_t>(rng.Below(k));
    uint32_t b = static_cast<uint32_t>(rng.Below(k));
    q.AddEdge({a, b, random_el(), -1});  // may be parallel or a self loop
  }
  return q;
}

/// Brute-force oracle: plain backtracking over all data vertices with no
/// pruning beyond incremental edge verification.
uint64_t OracleCount(const DataGraph& g, const QueryGraph& q, bool injective) {
  std::vector<VertexId> m(q.num_vertices(), kInvalidId);
  uint64_t count = 0;
  std::function<void(uint32_t)> rec = [&](uint32_t u) {
    if (u == q.num_vertices()) {
      ++count;
      return;
    }
    const graph::QueryVertex& qv = q.vertex(u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (qv.has_fixed_id() && v != qv.fixed_id) continue;
      bool ok = true;
      for (LabelId l : qv.labels)
        if (!g.HasLabel(v, l)) {
          ok = false;
          break;
        }
      if (!ok) continue;
      if (injective) {
        for (uint32_t w = 0; w < u; ++w)
          if (m[w] == v) {
            ok = false;
            break;
          }
        if (!ok) continue;
      }
      // Verify all edges whose endpoints are both assigned.
      m[u] = v;
      for (uint32_t e = 0; e < q.num_edges() && ok; ++e) {
        const graph::QueryEdge& qe = q.edge(e);
        if (qe.from > u || qe.to > u) continue;
        VertexId from = m[qe.from], to = m[qe.to];
        if (qe.has_label()) {
          ok = g.HasEdge(from, to, qe.label);
        } else {
          std::vector<EdgeLabelId> els;
          g.EdgeLabelsBetween(from, to, &els);
          ok = !els.empty();
        }
      }
      if (ok) rec(u + 1);
      m[u] = kInvalidId;
    }
  };
  rec(0);
  return count;
}

class EngineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineProperty, HomomorphismMatchesOracle) {
  RandomWorld w = MakeRandomWorld(GetParam());
  for (int qi = 0; qi < 3; ++qi) {
    QueryGraph q = MakeRandomQuery(w.g, GetParam() * 10 + qi);
    engine::Matcher m(w.g);
    EXPECT_EQ(m.Count(q), OracleCount(w.g, q, false)) << "seed=" << GetParam();
  }
}

TEST_P(EngineProperty, IsomorphismMatchesOracleAndIsBounded) {
  RandomWorld w = MakeRandomWorld(GetParam());
  QueryGraph q = MakeRandomQuery(w.g, GetParam() * 10 + 3);
  engine::MatchOptions iso;
  iso.semantics = engine::MatchSemantics::kIsomorphism;
  uint64_t iso_count = engine::Matcher(w.g, iso).Count(q);
  uint64_t hom_count = engine::Matcher(w.g).Count(q);
  EXPECT_EQ(iso_count, OracleCount(w.g, q, true));
  EXPECT_LE(iso_count, hom_count);
}

TEST_P(EngineProperty, OptimizationFlagsNeverChangeAnswers) {
  RandomWorld w = MakeRandomWorld(GetParam());
  QueryGraph q = MakeRandomQuery(w.g, GetParam() * 10 + 4);
  uint64_t expected = engine::Matcher(w.g).Count(q);
  for (int mask = 0; mask < 16; ++mask) {
    engine::MatchOptions o;
    o.use_intersection = mask & 1;
    o.use_nlf = mask & 2;
    o.use_degree_filter = mask & 4;
    o.reuse_matching_order = mask & 8;
    EXPECT_EQ(engine::Matcher(w.g, o).Count(q), expected)
        << "seed=" << GetParam() << " mask=" << mask;
  }
}

TEST_P(EngineProperty, ParallelEqualsSequential) {
  RandomWorld w = MakeRandomWorld(GetParam());
  QueryGraph q = MakeRandomQuery(w.g, GetParam() * 10 + 5);
  auto sols = engine::Matcher(w.g).FindAll(q);
  std::set<std::vector<VertexId>> expected(sols.begin(), sols.end());
  engine::MatchOptions o;
  o.num_threads = 4;
  o.chunk_size = 2;
  auto par = engine::Matcher(w.g, o).FindAll(q);
  EXPECT_EQ(std::set<std::vector<VertexId>>(par.begin(), par.end()), expected);
  EXPECT_EQ(par.size(), sols.size());  // bag sizes too, not just sets
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty, ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// SPARQL-level cross-engine property.
// ---------------------------------------------------------------------------

/// A random RDF dataset with a small subclass hierarchy, then random BGPs
/// formed by lifting sampled triples into patterns.
class SparqlProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparqlProperty, AllEnginesAgreeOnRandomBgps) {
  util::Rng rng(GetParam() * 977 + 13);
  rdf::Dataset ds;
  // Schema: L1 subClassOf L0, L3 subClassOf L2.
  ds.AddIri("http://r/L1", rdf::vocab::kRdfsSubClassOf, "http://r/L0");
  ds.AddIri("http://r/L3", rdf::vocab::kRdfsSubClassOf, "http://r/L2");
  const uint32_t n = 40;
  for (uint32_t v = 0; v < n; ++v) {
    if (rng.Chance(0.7))
      ds.AddIri("http://r/v" + std::to_string(v), rdf::vocab::kRdfType,
                "http://r/L" + std::to_string(rng.Below(4)));
  }
  for (uint32_t e = 0; e < 120; ++e)
    ds.AddIri("http://r/v" + std::to_string(rng.Below(n)),
              "http://r/e" + std::to_string(rng.Below(4)),
              "http://r/v" + std::to_string(rng.Below(n)));
  rdf::MaterializeInference(&ds);

  DataGraph aware = DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  DataGraph direct = DataGraph::Build(ds, graph::TransformMode::kDirect);
  baseline::TripleIndex index(ds);
  sparql::TurboBgpSolver s_aware(aware, ds.dict());
  sparql::TurboBgpSolver s_direct(direct, ds.dict());
  baseline::SortMergeBgpSolver s_sm(index, ds.dict());
  baseline::IndexJoinBgpSolver s_ij(index, ds.dict());

  // Random BGPs: sample triples, lift positions to variables. Subject/object
  // variables come from one pool (join-friendly), predicates from another.
  for (int qi = 0; qi < 4; ++qi) {
    const auto& triples = ds.triples();
    std::string query = "SELECT * WHERE { ";
    uint32_t num_patterns = 1 + static_cast<uint32_t>(rng.Below(3));
    for (uint32_t p = 0; p < num_patterns; ++p) {
      const rdf::Triple& t = triples[rng.Below(triples.size())];
      auto pos = [&](TermId id, const char* pool, uint32_t pool_size) -> std::string {
        if (rng.Chance(0.5)) return "?" + std::string(pool) + std::to_string(rng.Below(pool_size));
        return ds.dict().term(id).ToNTriples();
      };
      query += pos(t.s, "x", 3) + " ";
      query += rng.Chance(0.25) ? "?p" + std::to_string(rng.Below(2)) + " "
                                : ds.dict().term(t.p).ToNTriples() + " ";
      query += pos(t.o, "x", 3) + " . ";
    }
    query += "}";

    auto run = [&](const sparql::BgpSolver& s) -> int64_t {
      auto r = sparql::Materialize(s, query);
      if (!r.ok()) return -1;
      return static_cast<int64_t>(r.value().rows.size());
    };
    int64_t a = run(s_aware);
    ASSERT_GE(a, 0) << query;
    EXPECT_EQ(a, run(s_direct)) << query;
    EXPECT_EQ(a, run(s_sm)) << query;
    EXPECT_EQ(a, run(s_ij)) << query;
  }
}

TEST_P(SparqlProperty, SimpleEntailmentIsSubsetOfFull) {
  util::Rng rng(GetParam() * 31 + 5);
  rdf::Dataset ds;
  ds.AddIri("http://r/Sub", rdf::vocab::kRdfsSubClassOf, "http://r/Super");
  for (uint32_t v = 0; v < 30; ++v) {
    ds.AddIri("http://r/v" + std::to_string(v), rdf::vocab::kRdfType,
              rng.Chance(0.5) ? "http://r/Sub" : "http://r/Super");
    ds.AddIri("http://r/v" + std::to_string(v), "http://r/e",
              "http://r/v" + std::to_string(rng.Below(30)));
  }
  rdf::MaterializeInference(&ds);
  DataGraph g = DataGraph::Build(ds, graph::TransformMode::kTypeAware);

  QueryGraph q;
  graph::QueryVertex u0, u1;
  u0.labels = {*g.LabelOfTerm(*ds.dict().FindIri("http://r/Super"))};
  q.AddVertex(u0);
  q.AddVertex(u1);
  q.AddEdge({0, 1, *g.EdgeLabelOfTerm(*ds.dict().FindIri("http://r/e")), -1});

  engine::MatchOptions simple;
  simple.simple_entailment = true;
  uint64_t full_count = engine::Matcher(g).Count(q);
  uint64_t simple_count = engine::Matcher(g, simple).Count(q);
  EXPECT_LE(simple_count, full_count);
  // The inferred Super labels on Sub-typed vertices are the difference.
  auto simple_sols = engine::Matcher(g, simple).FindAll(q);
  auto full_sols = engine::Matcher(g).FindAll(q);
  std::set<std::vector<VertexId>> full_set(full_sols.begin(), full_sols.end());
  for (const auto& s : simple_sols) EXPECT_TRUE(full_set.count(s));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparqlProperty, ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace turbo
