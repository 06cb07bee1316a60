// Tests for the engine's observability surface (MatchStats) and for error /
// edge paths across the SPARQL stack. The stats matter because the paper's
// analysis (§3, §7.3) is phrased in terms of them: time split between
// ExploreCandidateRegion and SubgraphSearch, IsJoinable work, candidate
// region sizes.
#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "rdf/reasoner.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "test_util.hpp"

namespace turbo::engine {
namespace {

using graph::QueryGraph;
using testing::AddQE;
using testing::AddQV;
using testing::TestGraph;

/// A 3-university world where Q2-like triangles exist.
class StatsTest : public ::testing::Test {
 protected:
  StatsTest() : t_(Build()) {}
  static TestGraph Build() {
    rdf::Dataset ds;
    auto add = [&](const std::string& s, const std::string& p, const std::string& o) {
      ds.AddIri(testing::TestIri(s),
                p == "type" ? std::string(rdf::vocab::kRdfType) : testing::TestIri(p),
                testing::TestIri(o));
    };
    for (int u = 0; u < 3; ++u) {
      std::string uni = "uni" + std::to_string(u);
      add(uni, "type", "University");
      for (int d = 0; d < 4; ++d) {
        std::string dept = uni + "d" + std::to_string(d);
        add(dept, "type", "Department");
        add(dept, "subOrgOf", uni);
        for (int s = 0; s < 6; ++s) {
          std::string stu = dept + "s" + std::to_string(s);
          add(stu, "type", "Student");
          add(stu, "memberOf", dept);
          add(stu, "degreeFrom", "uni" + std::to_string((u + s) % 3));
        }
      }
    }
    return TestGraph(std::move(ds));
  }

  QueryGraph Triangle() {
    QueryGraph q;
    uint32_t x = AddQV(&q, {t_.label("Student")});
    uint32_t y = AddQV(&q, {t_.label("University")});
    uint32_t z = AddQV(&q, {t_.label("Department")});
    AddQE(&q, x, y, t_.el("degreeFrom"));
    AddQE(&q, x, z, t_.el("memberOf"));
    AddQE(&q, z, y, t_.el("subOrgOf"));
    return q;
  }

  TestGraph t_;
};

TEST_F(StatsTest, RegionAndCandidateCountsPopulated) {
  Matcher m(t_.g());
  MatchStats stats;
  uint64_t n = m.Count(Triangle(), &stats);
  EXPECT_GT(n, 0u);
  EXPECT_EQ(stats.num_start_candidates, 3u);  // freq(University)=3, lowest rank
  EXPECT_GT(stats.num_regions, 0u);
  EXPECT_LE(stats.num_regions, stats.num_start_candidates);
  EXPECT_GT(stats.cr_candidate_vertices, 0u);
  EXPECT_GE(stats.total_ms, 0.0);
}

TEST_F(StatsTest, PhaseTimesSplitTheSequentialRun) {
  Matcher m(t_.g());  // one thread: the phases are laps of one clock
  MatchStats stats;
  EXPECT_GT(m.Count(Triangle(), &stats), 0u);
  EXPECT_GT(stats.num_regions, 1u);
  EXPECT_GT(stats.explore_ms, 0.0);
  EXPECT_GT(stats.search_ms, 0.0);
  EXPECT_LE(stats.explore_ms + stats.order_ms + stats.search_ms, stats.total_ms);
}

TEST_F(StatsTest, IntersectionVsMembershipCounters) {
  QueryGraph q = Triangle();
  MatchOptions with_int;  // default: +INT
  MatchStats s1;
  Matcher(t_.g(), with_int).Count(q, &s1);
  EXPECT_GT(s1.intersection_ops, 0u);
  EXPECT_EQ(s1.isjoinable_checks, 0u);

  MatchOptions no_int;
  no_int.use_intersection = false;
  MatchStats s2;
  Matcher(t_.g(), no_int).Count(q, &s2);
  EXPECT_EQ(s2.intersection_ops, 0u);
  EXPECT_GT(s2.isjoinable_checks, 0u);
}

TEST_F(StatsTest, MatchingOrderRecorded) {
  Matcher m(t_.g());
  MatchStats stats;
  m.Count(Triangle(), &stats);
  ASSERT_EQ(stats.matching_order.size(), 3u);
  EXPECT_EQ(stats.matching_order[0], stats.start_query_vertex);
}

TEST_F(StatsTest, TreeOnlyQueryNeedsNoJoinabilityWork) {
  QueryGraph q;  // star: no non-tree edges
  uint32_t x = AddQV(&q, {t_.label("Student")});
  uint32_t z = AddQV(&q, {t_.label("Department")});
  AddQE(&q, x, z, t_.el("memberOf"));
  MatchStats stats;
  Matcher(t_.g()).Count(q, &stats);
  EXPECT_EQ(stats.intersection_ops, 0u);
  EXPECT_EQ(stats.isjoinable_checks, 0u);
}

TEST_F(StatsTest, LimitShortCircuitsWork) {
  MatchOptions opt;
  opt.limit = 1;
  MatchStats stats;
  uint64_t n = Matcher(t_.g(), opt).Count(Triangle(), &stats);
  EXPECT_EQ(n, 1u);
  EXPECT_LT(stats.num_regions, 3u);  // stopped before visiting every region
}

TEST_F(StatsTest, FindAllAndCountAgree) {
  QueryGraph q = Triangle();
  MatchStats s;
  auto sols = Matcher(t_.g()).FindAll(q, &s);
  EXPECT_EQ(sols.size(), s.num_solutions);
  EXPECT_EQ(Matcher(t_.g()).Count(q), sols.size());
}

// ---------------------------------------------------------------------------
// Error paths across the SPARQL stack.
// ---------------------------------------------------------------------------

class ErrorPathTest : public ::testing::Test {
 protected:
  ErrorPathTest()
      : t_({{"a", "p", "b"}, {"a", "type", "T"}}),
        solver_(t_.g(), t_.dataset().dict()) {}
  TestGraph t_;
  sparql::TurboBgpSolver solver_;
};

TEST_F(ErrorPathTest, ParseErrorsPropagate) {
  EXPECT_FALSE(sparql::Materialize(solver_, "SELEC ?x WHERE { ?x ?p ?o . }").ok());
  EXPECT_FALSE(sparql::Materialize(solver_, "SELECT ?x WHERE { ?x ?p }").ok());
}

TEST_F(ErrorPathTest, NodeAndPredicatePositionConflict) {
  auto r = sparql::Materialize(solver_, "SELECT * WHERE { ?x ?y ?z . ?y <http://t/p> ?w . }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.message().find("positions"), std::string::npos);
}

TEST_F(ErrorPathTest, EmptyWhereYieldsOneEmptyRow) {
  auto r = sparql::Materialize(solver_, "SELECT * WHERE { }");
  ASSERT_TRUE(r.ok()) << r.message();
  // No variables, one (empty) solution — SPARQL's empty-group semantics.
  EXPECT_EQ(r.value().rows.size(), 1u);
}

TEST_F(ErrorPathTest, FilterOnUnknownVariableIsFalse) {
  auto r = sparql::Materialize(solver_, "SELECT ?x WHERE { ?x <http://t/p> ?o . FILTER(?ghost > 1) }");
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value().rows.size(), 0u);
}

TEST_F(ErrorPathTest, SchemaPatternOnTypeAwareGraph) {
  // (L1 subClassOf ?x) must be answerable even though the type-aware graph
  // dropped the triple (the side-table path).
  TestGraph t({{"Sub", "subclass", "Super"}, {"x", "type", "Sub"}, {"x", "p", "y"}});
  sparql::TurboBgpSolver s(t.g(), t.dataset().dict());
  auto r = sparql::Materialize(s,
      "SELECT ?c WHERE { <http://t/Sub> "
      "<http://www.w3.org/2000/01/rdf-schema#subClassOf> ?c . }");
  ASSERT_TRUE(r.ok()) << r.message();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(t.dataset().dict().term(r.value().rows[0][0]).lexical,
            testing::TestIri("Super"));
}

TEST_F(ErrorPathTest, SchemaJoinWithInstancePattern) {
  TestGraph t({{"Sub", "subclass", "Super"},
               {"x", "type", "Sub"},
               {"y", "type", "Super"},
               {"x", "p", "y"}});
  sparql::TurboBgpSolver s(t.g(), t.dataset().dict());
  // Join a type variable with a schema pattern: classes of ?a that are
  // subclasses of something.
  auto r = sparql::Materialize(s,
      "SELECT ?a ?c ?d WHERE { ?a a ?c . ?c "
      "<http://www.w3.org/2000/01/rdf-schema#subClassOf> ?d . }");
  ASSERT_TRUE(r.ok()) << r.message();
  ASSERT_EQ(r.value().rows.size(), 1u);  // only x's Sub is a subclass
  EXPECT_EQ(t.dataset().dict().term(r.value().rows[0][2]).lexical,
            testing::TestIri("Super"));
}


// ---------------------------------------------------------------------------
// ExplainPlan output.
// ---------------------------------------------------------------------------

TEST_F(StatsTest, ExplainPlanDescribesTreeAndNonTreeEdges) {
  Matcher m(t_.g());
  std::string plan = m.ExplainPlan(Triangle());
  EXPECT_NE(plan.find("start:"), std::string::npos);
  EXPECT_NE(plan.find("query tree"), std::string::npos);
  EXPECT_NE(plan.find("non-tree edges"), std::string::npos);
  EXPECT_NE(plan.find("(root)"), std::string::npos);
}

TEST_F(StatsTest, ExplainPlanPointShape) {
  QueryGraph q;
  AddQV(&q, {t_.label("Student")});
  Matcher m(t_.g());
  std::string plan = m.ExplainPlan(q);
  EXPECT_NE(plan.find("point-shaped"), std::string::npos);
}

TEST_F(StatsTest, ExplainPlanFixedIdStart) {
  QueryGraph q;
  // Pin to data vertex 0 (uni0) with a requirement it satisfies (incoming
  // subOrgOf) — the signature pre-filter drops infeasible pinned starts.
  uint32_t u0 = AddQV(&q, {}, 0);
  uint32_t u1 = AddQV(&q, {});
  AddQE(&q, u1, u0, t_.el("subOrgOf"));
  Matcher m(t_.g());
  std::string plan = m.ExplainPlan(q);
  EXPECT_NE(plan.find("[id=0]"), std::string::npos);
  EXPECT_NE(plan.find("(1 starting vertices)"), std::string::npos);
}

TEST_F(StatsTest, ExplainPlanFixedIdStartInfeasiblePinPrunedBySignature) {
  QueryGraph q;
  uint32_t u0 = AddQV(&q, {}, 0);  // uni0 has no outgoing memberOf edge
  uint32_t u1 = AddQV(&q, {});
  AddQE(&q, u0, u1, t_.el("memberOf"));
  Matcher m(t_.g());
  std::string plan = m.ExplainPlan(q);
  EXPECT_NE(plan.find("(0 starting vertices)"), std::string::npos);
}

}  // namespace
}  // namespace turbo::engine
