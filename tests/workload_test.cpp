// Workload tests for the YAGO-like, BTC-like and BSBM-like generators:
// determinism, schema structure, and cross-engine agreement on the full
// benchmark query sets at reduced scale.
#include <gtest/gtest.h>

#include <set>

#include "baseline/solvers.hpp"
#include "graph/data_graph.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "workload/bsbm.hpp"
#include "workload/btc.hpp"
#include "workload/yago.hpp"

namespace turbo::workload {
namespace {

size_t Run(const sparql::BgpSolver& solver, const std::string& text) {
  auto r = sparql::Materialize(solver, text);
  EXPECT_TRUE(r.ok()) << r.message() << "\n" << text;
  return r.ok() ? r.value().rows.size() : 0;
}

/// Builds all engines over a dataset and checks they agree on every query.
void ExpectAllEnginesAgree(const rdf::Dataset& ds, const std::vector<std::string>& queries,
                           std::vector<size_t>* counts = nullptr) {
  graph::DataGraph aware = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  graph::DataGraph direct = graph::DataGraph::Build(ds, graph::TransformMode::kDirect);
  baseline::TripleIndex index(ds);
  sparql::TurboBgpSolver s_aware(aware, ds.dict());
  sparql::TurboBgpSolver s_direct(direct, ds.dict());
  baseline::SortMergeBgpSolver s_sm(index, ds.dict());
  baseline::IndexJoinBgpSolver s_ij(index, ds.dict());
  for (size_t i = 0; i < queries.size(); ++i) {
    size_t a = Run(s_aware, queries[i]);
    EXPECT_EQ(a, Run(s_direct, queries[i])) << "Q" << i + 1 << " (direct)";
    EXPECT_EQ(a, Run(s_sm, queries[i])) << "Q" << i + 1 << " (sortmerge)";
    EXPECT_EQ(a, Run(s_ij, queries[i])) << "Q" << i + 1 << " (indexjoin)";
    if (counts) counts->push_back(a);
  }
}

// ---------------------------------------------------------------------------
// YAGO
// ---------------------------------------------------------------------------

YagoConfig SmallYago() {
  YagoConfig cfg;
  cfg.seed = 11;
  cfg.num_persons = 4000;
  cfg.num_cities = 120;
  cfg.num_countries = 12;
  cfg.num_movies = 700;
  cfg.num_universities = 60;
  return cfg;
}

TEST(Yago, Deterministic) {
  rdf::Dataset a = GenerateYago(SmallYago());
  rdf::Dataset b = GenerateYago(SmallYago());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.triples()[42].o, b.triples()[42].o);
}

TEST(Yago, SchemaMix) {
  rdf::Dataset ds = GenerateYago(SmallYago());
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  // Heterogeneous types present.
  EXPECT_GE(g.num_vertex_labels(), 8u);
  EXPECT_GT(g.num_edges(), 10000u);
}

TEST(Yago, AllEnginesAgreeOnAllQueries) {
  rdf::Dataset ds = GenerateYago(SmallYago());
  std::vector<size_t> counts;
  ExpectAllEnginesAgree(ds, YagoQueries(), &counts);
  // The marriage/birth-city and actor queries must be non-trivial.
  EXPECT_GT(counts[1], 0u);  // Q2
  EXPECT_GT(counts[2], 0u);  // Q3
  EXPECT_GT(counts[6], 0u);  // Q7 (self-directed actors)
}

// ---------------------------------------------------------------------------
// BTC
// ---------------------------------------------------------------------------

BtcConfig SmallBtc() {
  BtcConfig cfg;
  cfg.seed = 13;
  cfg.num_persons = 3000;
  cfg.num_documents = 2000;
  cfg.num_places = 400;
  return cfg;
}

TEST(Btc, Deterministic) {
  rdf::Dataset a = GenerateBtc(SmallBtc());
  rdf::Dataset b = GenerateBtc(SmallBtc());
  ASSERT_EQ(a.size(), b.size());
}

TEST(Btc, IrregularCoverage) {
  rdf::Dataset ds = GenerateBtc(SmallBtc());
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  // Not every person is typed (schema noise): fewer Person labels than
  // person name triples.
  auto person = ds.dict().FindIri("http://xmlns.com/foaf/0.1/Person");
  ASSERT_TRUE(person.has_value());
  auto label = g.LabelOfTerm(*person);
  ASSERT_TRUE(label.has_value());
  EXPECT_LT(g.VerticesWithLabel(*label).size(), 3000u);
  EXPECT_GT(g.VerticesWithLabel(*label).size(), 2000u);
}

TEST(Btc, AllEnginesAgreeOnAllQueries) {
  rdf::Dataset ds = GenerateBtc(SmallBtc());
  std::vector<size_t> counts;
  ExpectAllEnginesAgree(ds, BtcQueries(), &counts);
  EXPECT_GT(counts[2], 0u);  // Q3: typed persons with contactable friends
  EXPECT_GT(counts[7], 0u);  // Q8: documents by located authors
}

// ---------------------------------------------------------------------------
// BSBM
// ---------------------------------------------------------------------------

BsbmConfig SmallBsbm() {
  BsbmConfig cfg;
  cfg.seed = 17;
  cfg.num_products = 400;
  cfg.num_product_types = 20;
  cfg.num_features = 60;
  cfg.num_producers = 15;
  cfg.num_vendors = 12;
  cfg.num_reviewers = 200;
  return cfg;
}

TEST(Bsbm, InferenceClosesTypeHierarchy) {
  rdf::Dataset ds = GenerateBsbmClosed(SmallBsbm());
  EXPECT_GT(ds.size(), ds.num_original());
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  // Every product must carry the root Product label after closure.
  auto product = ds.dict().FindIri(std::string(kBsbmPrefix) + "Product");
  ASSERT_TRUE(product.has_value());
  auto label = g.LabelOfTerm(*product);
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(g.VerticesWithLabel(*label).size(), 400u);
}

TEST(Bsbm, AllEnginesAgreeOnAllQueries) {
  rdf::Dataset ds = GenerateBsbmClosed(SmallBsbm());
  std::vector<size_t> counts;
  ExpectAllEnginesAgree(ds, BsbmQueries(), &counts);
  EXPECT_GT(counts[1], 0u);   // Q2: fixed-product star
  EXPECT_GT(counts[7], 0u);   // Q8: English reviews exist
  EXPECT_GT(counts[10], 0u);  // Q11: variable predicate star
}

TEST(Bsbm, Q3NegationSemantics) {
  // Q3's OPTIONAL+!bound must act as negation: no product may have both
  // feature1 and appear in the result.
  rdf::Dataset ds = GenerateBsbmClosed(SmallBsbm());
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  sparql::TurboBgpSolver solver(g, ds.dict());
  auto q3 = sparql::Materialize(solver, BsbmQueries()[2]);
  ASSERT_TRUE(q3.ok()) << q3.message();
  // Compare against explicit both-features query.
  auto both = sparql::Materialize(solver,
      std::string("PREFIX bsbm: <") + kBsbmPrefix + "> PREFIX inst: <" + kBsbmInst +
      "> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
      "SELECT ?product WHERE { ?product a inst:ProductType1 . "
      "?product bsbm:productFeature inst:ProductFeature1 . "
      "?product bsbm:productFeature inst:ProductFeature2 . }");
  ASSERT_TRUE(both.ok()) << both.message();
  std::set<TermId> excluded;
  for (const auto& row : both.value().rows) excluded.insert(row[0]);
  for (const auto& row : q3.value().rows) EXPECT_EQ(excluded.count(row[0]), 0u);
}

TEST(Bsbm, Q10OrderedByPrice) {
  rdf::Dataset ds = GenerateBsbmClosed(SmallBsbm());
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  sparql::TurboBgpSolver solver(g, ds.dict());
  auto r = sparql::Materialize(solver, BsbmQueries()[9]);
  ASSERT_TRUE(r.ok()) << r.message();
  double prev = -1;
  for (const auto& row : r.value().rows) {
    auto v = ds.dict().NumericValue(row[1]);
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, prev);
    prev = *v;
  }
}

}  // namespace
}  // namespace turbo::workload
