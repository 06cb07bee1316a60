// End-to-end integration tests across the whole stack: serialization
// round-trips feeding the engines, streaming delivery semantics, and
// full-pipeline consistency (Turtle -> reasoner -> both transformations ->
// all engines -> identical answers).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "baseline/solvers.hpp"
#include "engine/engine.hpp"
#include "rdf/ntriples.hpp"
#include "rdf/reasoner.hpp"
#include "rdf/snapshot.hpp"
#include "rdf/turtle.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "test_util.hpp"
#include "workload/lubm.hpp"

namespace turbo {
namespace {

TEST(Integration, TurtleAndNTriplesProduceIdenticalGraphs) {
  // The same graph in both serializations must yield byte-identical
  // query behaviour.
  const char* turtle =
      "@prefix ex: <http://e/> .\n"
      "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
      "ex:Grad rdfs:subClassOf ex:Student .\n"
      "ex:a a ex:Grad ; ex:knows ex:b ; ex:age 30 .\n"
      "ex:b a ex:Student .\n";
  const char* ntriples =
      "<http://e/Grad> <http://www.w3.org/2000/01/rdf-schema#subClassOf> "
      "<http://e/Student> .\n"
      "<http://e/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Grad> .\n"
      "<http://e/a> <http://e/knows> <http://e/b> .\n"
      "<http://e/a> <http://e/age> \"30\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<http://e/b> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Student> "
      ".\n";
  rdf::Dataset from_ttl, from_nt;
  ASSERT_TRUE(rdf::ParseTurtleString(turtle, &from_ttl).ok());
  ASSERT_TRUE(rdf::ParseNTriplesString(ntriples, &from_nt).ok());
  rdf::MaterializeInference(&from_ttl);
  rdf::MaterializeInference(&from_nt);
  ASSERT_EQ(from_ttl.size(), from_nt.size());

  auto count = [](const rdf::Dataset& ds, const std::string& q) {
    graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
    sparql::TurboBgpSolver solver(g, ds.dict());
    auto r = sparql::Materialize(solver, q);
    EXPECT_TRUE(r.ok()) << r.message();
    return r.ok() ? r.value().rows.size() : 0;
  };
  for (const char* q :
       {"SELECT ?x WHERE { ?x a <http://e/Student> . }",
        "SELECT ?x ?y WHERE { ?x <http://e/knows> ?y . ?x <http://e/age> ?a . "
        "FILTER(?a >= 30) }"}) {
    EXPECT_EQ(count(from_ttl, q), count(from_nt, q)) << q;
  }
}

TEST(Integration, SnapshotPreservesQueryAnswers) {
  workload::LubmConfig cfg;
  cfg.num_universities = 1;
  cfg.seed = 5;
  rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
  std::stringstream buf;
  ASSERT_TRUE(rdf::SaveSnapshot(ds, buf).ok());
  auto loaded = rdf::LoadSnapshot(buf);
  ASSERT_TRUE(loaded.ok());

  auto run = [](const rdf::Dataset& d, const std::string& q) {
    graph::DataGraph g = graph::DataGraph::Build(d, graph::TransformMode::kTypeAware);
    sparql::TurboBgpSolver solver(g, d.dict());
    auto r = sparql::Materialize(solver, q);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value().rows.size() : 0;
  };
  auto queries = workload::LubmQueries();
  for (size_t qi : {0u, 1u, 5u, 8u, 12u})
    EXPECT_EQ(run(ds, queries[qi]), run(loaded.value(), queries[qi])) << "Q" << qi + 1;
}

TEST(Integration, StreamingCallbackDeliversEverySolutionOnce) {
  testing::TestGraph t({{"a", "type", "T"},
                        {"b", "type", "T"},
                        {"c", "type", "T"},
                        {"a", "p", "b"},
                        {"b", "p", "c"},
                        {"a", "p", "c"}});
  graph::QueryGraph q;
  uint32_t u0 = testing::AddQV(&q, {t.label("T")});
  uint32_t u1 = testing::AddQV(&q, {t.label("T")});
  testing::AddQE(&q, u0, u1, t.el("p"));
  engine::Matcher m(t.g());
  size_t calls = 0;
  engine::MatchStats stats = m.Match(q, [&](std::span<const VertexId> sol) {
    ++calls;
    EXPECT_EQ(sol.size(), 2u);
    EXPECT_NE(sol[0], kInvalidId);
    return true;
  });
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(stats.num_solutions, 3u);
}

TEST(Integration, StreamingSingleVertexQuery) {
  testing::TestGraph t({{"a", "type", "T"}, {"b", "type", "T"}});
  graph::QueryGraph q;
  testing::AddQV(&q, {t.label("T")});
  engine::Matcher m(t.g());
  size_t calls = 0;
  m.Match(q, [&](std::span<const VertexId> sol) {
    ++calls;
    EXPECT_EQ(sol.size(), 1u);
    return true;
  });
  EXPECT_EQ(calls, 2u);
}

TEST(Integration, ParallelCallbackStillDeliversAll) {
  testing::TestGraph t({{"a", "type", "T"},
                        {"b", "type", "T"},
                        {"c", "type", "T"},
                        {"a", "p", "b"},
                        {"b", "p", "c"},
                        {"a", "p", "c"}});
  graph::QueryGraph q;
  uint32_t u0 = testing::AddQV(&q, {t.label("T")});
  uint32_t u1 = testing::AddQV(&q, {t.label("T")});
  testing::AddQE(&q, u0, u1, t.el("p"));
  engine::MatchOptions opt;
  opt.num_threads = 4;
  engine::Matcher m(t.g(), opt);
  // Parallel runs stream directly from worker threads, serialized by the
  // engine's delivery mutex — the callback never runs concurrently.
  size_t calls = 0;
  m.Match(q, [&](std::span<const VertexId>) {
    ++calls;
    return true;
  });
  EXPECT_EQ(calls, 3u);
}

TEST(Integration, WriteNTriplesIncludesInferredWhenAsked) {
  rdf::Dataset ds = testing::MakeDataset(
      {{"Sub", "subclass", "Super"}, {"x", "type", "Sub"}});
  rdf::MaterializeInference(&ds);
  std::ostringstream orig_only, with_inferred;
  rdf::WriteNTriples(ds, orig_only, /*include_inferred=*/false);
  rdf::WriteNTriples(ds, with_inferred, /*include_inferred=*/true);
  std::string orig_text = orig_only.str();
  std::string full_text = with_inferred.str();
  EXPECT_EQ(std::count(orig_text.begin(), orig_text.end(), '\n'), 2);
  EXPECT_EQ(std::count(full_text.begin(), full_text.end(), '\n'), 3);
}

}  // namespace
}  // namespace turbo
