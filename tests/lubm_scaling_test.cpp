// Encodes Table 2's scaling claims as tests: the constant-solution queries
// (Q1, Q3-Q5, Q7, Q8, Q10-Q12) return the same counts at every scale, the
// increasing-solution queries (Q2, Q6, Q9, Q13, Q14) grow with the dataset —
// the classification the paper's §7.2 analysis rests on.
#include <gtest/gtest.h>

#include "graph/data_graph.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "workload/lubm.hpp"

namespace turbo::workload {
namespace {

std::vector<size_t> CountsAtScale(uint32_t universities) {
  LubmConfig cfg;
  cfg.seed = 99;
  cfg.num_universities = universities;
  rdf::Dataset ds = GenerateLubmClosed(cfg);
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  sparql::TurboBgpSolver solver(g, ds.dict());
  std::vector<size_t> counts;
  for (const std::string& q : LubmQueries()) {
    auto r = sparql::Materialize(solver, q);
    EXPECT_TRUE(r.ok()) << r.message();
    counts.push_back(r.ok() ? r.value().rows.size() : 0);
  }
  return counts;
}

TEST(LubmScaling, ConstantAndIncreasingSolutionClasses) {
  std::vector<size_t> small = CountsAtScale(1);
  std::vector<size_t> large = CountsAtScale(3);
  // 0-based indices of the constant-solution queries.
  for (size_t qi : {0u, 2u, 3u, 4u, 6u, 7u, 9u, 10u, 11u})
    EXPECT_EQ(small[qi], large[qi]) << "Q" << qi + 1 << " must be scale-invariant";
  // Increasing-solution queries. (Q2/Q13 depend on the degree pool and grow
  // in expectation; with seeds they are monotone here as well.)
  for (size_t qi : {5u, 8u, 13u})
    EXPECT_GT(large[qi], small[qi]) << "Q" << qi + 1 << " must grow with scale";
  EXPECT_GE(large[1], small[1]);   // Q2
  EXPECT_GE(large[12], small[12]); // Q13
}

TEST(LubmScaling, Q6EqualsUndergraduatesPlusGraduates) {
  // Q6 (all Students) must equal Q14 (undergraduates) plus the graduate
  // students inferred via the takesCourse restriction.
  LubmConfig cfg;
  cfg.seed = 99;
  cfg.num_universities = 1;
  rdf::Dataset ds = GenerateLubmClosed(cfg);
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  sparql::TurboBgpSolver solver(g, ds.dict());
  auto queries = LubmQueries();
  auto q6 = sparql::Materialize(solver, queries[5]);
  auto q14 = sparql::Materialize(solver, queries[13]);
  const std::string grads =
      "PREFIX ub: <" + std::string(kUbPrefix) +
      "> SELECT ?x WHERE { ?x a ub:GraduateStudent . }";
  auto qg = sparql::Materialize(solver, grads);
  ASSERT_TRUE(q6.ok() && q14.ok() && qg.ok());
  EXPECT_EQ(q6.value().rows.size(), q14.value().rows.size() + qg.value().rows.size());
}

}  // namespace
}  // namespace turbo::workload
