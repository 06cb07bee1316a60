// SPARQL stack tests: lexer, parser, filter evaluation, and end-to-end
// execution with OPTIONAL / FILTER / UNION (§5.1), including the paper's
// OPTIONAL example and cross-checks between direct and type-aware modes.
#include <gtest/gtest.h>

#include "baseline/solvers.hpp"
#include "rdf/reasoner.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/filter_eval.hpp"
#include "sparql/lexer.hpp"
#include "sparql/parser.hpp"
#include "sparql/turbo_solver.hpp"
#include "test_util.hpp"

namespace turbo::sparql {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, TokenKinds) {
  auto r = Lex("SELECT ?x WHERE { ?x <http://p> \"v\"@en . FILTER(?x > 3.5) }");
  ASSERT_TRUE(r.ok()) << r.message();
  const auto& t = r.value();
  EXPECT_EQ(t[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[1].kind, TokenKind::kVar);
  EXPECT_EQ(t[1].text, "x");
  EXPECT_EQ(t[4].kind, TokenKind::kVar);
  EXPECT_EQ(t[5].kind, TokenKind::kIri);
  EXPECT_EQ(t[5].text, "http://p");
  EXPECT_EQ(t[6].kind, TokenKind::kString);
  EXPECT_EQ(t[6].lang, "en");
}

TEST(Lexer, DistinguishesIriFromLessThan) {
  auto r = Lex("FILTER(?a < 5) ?x <http://e> ?y");
  ASSERT_TRUE(r.ok()) << r.message();
  int iris = 0, lts = 0;
  for (const auto& t : r.value()) {
    if (t.kind == TokenKind::kIri) ++iris;
    if (t.kind == TokenKind::kPunct && t.text == "<") ++lts;
  }
  EXPECT_EQ(iris, 1);
  EXPECT_EQ(lts, 1);
}

TEST(Lexer, PrefixedNames) {
  auto r = Lex("ub:GraduateStudent rdf:type");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].kind, TokenKind::kPname);
  EXPECT_EQ(r.value()[0].text, "ub:GraduateStudent");
}

TEST(Lexer, AKeywordAndComments) {
  auto r = Lex("?x a ub:T # trailing comment\n.");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[1].kind, TokenKind::kA);
  EXPECT_EQ(r.value()[3].text, ".");
}

TEST(Lexer, TypedLiteralAndNumbers) {
  auto r = Lex("\"5\"^^<http://www.w3.org/2001/XMLSchema#int> 42 3.25 (-7)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].datatype, "http://www.w3.org/2001/XMLSchema#int");
  EXPECT_EQ(r.value()[1].text, "42");
  EXPECT_EQ(r.value()[2].text, "3.25");
  // After punctuation, "-7" is one negative-number token; after a number
  // ("42 - 7") the minus stays an operator.
  EXPECT_EQ(r.value()[4].text, "-7");
  EXPECT_EQ(r.value()[4].kind, TokenKind::kNumber);
}

TEST(Lexer, RejectsUnterminatedString) { EXPECT_FALSE(Lex("\"abc").ok()); }
TEST(Lexer, RejectsBareWord) { EXPECT_FALSE(Lex("hello world").ok()); }

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(Parser, BasicBgp) {
  auto q = ParseQuery("SELECT ?x ?y WHERE { ?x <http://e/p> ?y . ?y a <http://e/T> . }");
  ASSERT_TRUE(q.ok()) << q.message();
  ASSERT_EQ(q.value().select.size(), 2u);
  EXPECT_EQ(q.value().select[0].name, "x");
  EXPECT_EQ(q.value().select[1].name, "y");
  EXPECT_FALSE(q.value().select[0].is_agg);
  ASSERT_EQ(q.value().where.triples.size(), 2u);
  EXPECT_EQ(q.value().where.triples[1].p.term.lexical,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
}

TEST(Parser, PrefixExpansion) {
  auto q = ParseQuery(
      "PREFIX ub: <http://u/> SELECT ?x WHERE { ?x ub:takes ub:Course1 . }");
  ASSERT_TRUE(q.ok()) << q.message();
  EXPECT_EQ(q.value().where.triples[0].p.term.lexical, "http://u/takes");
  EXPECT_EQ(q.value().where.triples[0].o.term.lexical, "http://u/Course1");
}

TEST(Parser, SemicolonAndCommaShorthand) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <http://e/a> ?y , ?z ; <http://e/b> ?w . }");
  ASSERT_TRUE(q.ok()) << q.message();
  ASSERT_EQ(q.value().where.triples.size(), 3u);
  EXPECT_EQ(q.value().where.triples[0].s.var, "x");
  EXPECT_EQ(q.value().where.triples[1].s.var, "x");
  EXPECT_EQ(q.value().where.triples[2].p.term.lexical, "http://e/b");
}

TEST(Parser, OptionalAndFilter) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { ?x <http://e/p> ?y . "
      "OPTIONAL { ?x <http://e/q> ?z . } FILTER(?y > 3 && bound(?z)) }");
  ASSERT_TRUE(q.ok()) << q.message();
  EXPECT_EQ(q.value().where.optionals.size(), 1u);
  ASSERT_EQ(q.value().where.filters.size(), 1u);
  EXPECT_EQ(q.value().where.filters[0].op, FilterExpr::Op::kAnd);
}

TEST(Parser, Union) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { { ?x a <http://e/A> . } UNION { ?x a <http://e/B> . } "
      "UNION { ?x a <http://e/C> . } }");
  ASSERT_TRUE(q.ok()) << q.message();
  ASSERT_EQ(q.value().where.unions.size(), 1u);
  EXPECT_EQ(q.value().where.unions[0].size(), 3u);
}

TEST(Parser, Modifiers) {
  auto q = ParseQuery(
      "SELECT DISTINCT ?x WHERE { ?x a <http://e/T> . } "
      "ORDER BY DESC(?x) LIMIT 10 OFFSET 5");
  ASSERT_TRUE(q.ok()) << q.message();
  EXPECT_TRUE(q.value().distinct);
  ASSERT_EQ(q.value().order_by.size(), 1u);
  EXPECT_FALSE(q.value().order_by[0].ascending);
  EXPECT_EQ(q.value().limit, 10);
  EXPECT_EQ(q.value().offset, 5);
}

TEST(Parser, FilterPrecedence) {
  auto q = ParseQuery("SELECT ?x WHERE { ?x <http://p> ?y . FILTER(?y = 1 || ?y = 2 && ?y != 3) }");
  ASSERT_TRUE(q.ok()) << q.message();
  // || binds looser than &&.
  EXPECT_EQ(q.value().where.filters[0].op, FilterExpr::Op::kOr);
}

TEST(Parser, RegexFunction) {
  auto q = ParseQuery("SELECT ?x WHERE { ?x <http://p> ?y . FILTER regex(?y, \"ab.*\", \"i\") }");
  // Our subset requires parentheses around FILTER constraints.
  EXPECT_FALSE(q.ok());
  auto q2 = ParseQuery(
      "SELECT ?x WHERE { ?x <http://p> ?y . FILTER(regex(?y, \"ab.*\", \"i\")) }");
  ASSERT_TRUE(q2.ok()) << q2.message();
  EXPECT_EQ(q2.value().where.filters[0].op, FilterExpr::Op::kRegex);
  EXPECT_EQ(q2.value().where.filters[0].children.size(), 3u);
}

TEST(Parser, Errors) {
  EXPECT_FALSE(ParseQuery("WHERE { ?x ?p ?o }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x { ?x ?p ").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x unknown:p ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT WHERE { ?x ?p ?o . }").ok());
}

TEST(Parser, AggregatesAndGroupBy) {
  auto q = ParseQuery(
      "SELECT ?d (COUNT(DISTINCT ?x) AS ?n) (SUM(?v) AS ?s) WHERE "
      "{ ?x <http://e/memberOf> ?d . ?x <http://e/val> ?v . } GROUP BY ?d");
  ASSERT_TRUE(q.ok()) << q.message();
  const SelectQuery& query = q.value();
  ASSERT_EQ(query.select.size(), 3u);
  EXPECT_FALSE(query.select[0].is_agg);
  ASSERT_TRUE(query.select[1].is_agg);
  EXPECT_EQ(query.select[1].name, "n");
  EXPECT_EQ(query.select[1].agg.func, Aggregate::Func::kCount);
  EXPECT_TRUE(query.select[1].agg.distinct);
  EXPECT_EQ(query.select[1].agg.var, "x");
  ASSERT_TRUE(query.select[2].is_agg);
  EXPECT_EQ(query.select[2].agg.func, Aggregate::Func::kSum);
  EXPECT_FALSE(query.select[2].agg.distinct);
  EXPECT_EQ(query.group_by, (std::vector<std::string>{"d"}));
  EXPECT_TRUE(query.IsAggregated());
}

TEST(Parser, CountStarAndHaving) {
  auto q = ParseQuery(
      "SELECT ?d (COUNT(*) AS ?n) WHERE { ?x <http://e/memberOf> ?d . } "
      "GROUP BY ?d HAVING(COUNT(*) > 5) (MIN(?x) < 100) ORDER BY DESC(?n) LIMIT 3");
  ASSERT_TRUE(q.ok()) << q.message();
  const SelectQuery& query = q.value();
  ASSERT_TRUE(query.select[1].is_agg);
  EXPECT_TRUE(query.select[1].agg.star);
  ASSERT_EQ(query.having.size(), 2u);
  EXPECT_EQ(query.having[0].op, FilterExpr::Op::kGt);
  EXPECT_EQ(query.having[0].children[0].op, FilterExpr::Op::kAggregate);
  EXPECT_TRUE(query.having[0].children[0].agg.star);
  EXPECT_EQ(query.having[1].children[0].agg.func, Aggregate::Func::kMin);
  ASSERT_EQ(query.order_by.size(), 1u);
  EXPECT_EQ(query.order_by[0].var, "n");
  EXPECT_FALSE(query.order_by[0].ascending);
  EXPECT_EQ(query.limit, 3);
}

TEST(Parser, AggregateErrors) {
  // AS ?alias is mandatory for SELECT aggregates.
  EXPECT_FALSE(ParseQuery("SELECT (COUNT(?x)) WHERE { ?x ?p ?o . }").ok());
  // Only COUNT accepts *.
  EXPECT_FALSE(ParseQuery("SELECT (SUM(*) AS ?s) WHERE { ?x ?p ?o . }").ok());
  // Aggregate arguments are variables, not expressions.
  EXPECT_FALSE(ParseQuery("SELECT (SUM(1) AS ?s) WHERE { ?x ?p ?o . }").ok());
  // Empty GROUP BY.
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x ?p ?o . } GROUP BY").ok());
}

// ---------------------------------------------------------------------------
// Filter evaluation
// ---------------------------------------------------------------------------

class FilterTest : public ::testing::Test {
 protected:
  FilterTest() {
    price_ = dict_.GetOrAdd(rdf::Term::TypedLiteral("99.5", rdf::vocab::kXsdDouble));
    name_ = dict_.GetOrAdd(rdf::Term::Literal("Widget"));
    iri_ = dict_.GetOrAddIri("http://e/x");
    vp_ = vars_.GetOrAdd("p");
    vn_ = vars_.GetOrAdd("n");
    vi_ = vars_.GetOrAdd("i");
    vu_ = vars_.GetOrAdd("u");  // stays unbound
    row_ = {price_, name_, iri_, kInvalidId};
  }
  FilterExpr Parse(const std::string& expr) {
    auto q = ParseQuery("SELECT ?p WHERE { ?p <http://e/p> ?n . FILTER(" + expr + ") }");
    EXPECT_TRUE(q.ok()) << q.message();
    return q.value().where.filters[0];
  }
  bool Test(const std::string& expr) {
    FilterEvaluator ev(dict_, vars_);
    return ev.Test(Parse(expr), row_);
  }
  rdf::Dictionary dict_;
  VarRegistry vars_;
  TermId price_, name_, iri_;
  int vp_, vn_, vi_, vu_;
  Row row_;
};

TEST_F(FilterTest, NumericComparisons) {
  EXPECT_TRUE(Test("?p > 50"));
  EXPECT_TRUE(Test("?p <= 99.5"));
  EXPECT_FALSE(Test("?p < 99.5"));
  EXPECT_TRUE(Test("?p = 99.5"));
  EXPECT_TRUE(Test("?p != 100"));
}

TEST_F(FilterTest, Arithmetic) {
  EXPECT_TRUE(Test("?p * 2 = 199"));
  EXPECT_TRUE(Test("?p + 0.5 = 100"));
  EXPECT_TRUE(Test("?p - 99 > 0"));
  EXPECT_FALSE(Test("?p / 0 = 1"));  // division by zero -> error -> false
}

TEST_F(FilterTest, StringComparisons) {
  EXPECT_TRUE(Test("?n = \"Widget\""));
  EXPECT_FALSE(Test("?n = \"widget\""));
  EXPECT_TRUE(Test("?n < \"Xylophone\""));
}

TEST_F(FilterTest, LogicalOperators) {
  EXPECT_TRUE(Test("?p > 50 && ?n = \"Widget\""));
  EXPECT_TRUE(Test("?p < 50 || ?n = \"Widget\""));
  EXPECT_FALSE(Test("!(?p > 50)"));
}

TEST_F(FilterTest, BoundFunction) {
  EXPECT_TRUE(Test("bound(?p)"));
  EXPECT_FALSE(Test("bound(?u)"));
  EXPECT_TRUE(Test("!bound(?u)"));
}

TEST_F(FilterTest, Regex) {
  EXPECT_TRUE(Test("regex(?n, \"^Wid\")"));
  EXPECT_FALSE(Test("regex(?n, \"^wid\")"));
  EXPECT_TRUE(Test("regex(?n, \"^wid\", \"i\")"));
}

TEST_F(FilterTest, TermKindTests) {
  EXPECT_TRUE(Test("isIRI(?i)"));
  EXPECT_FALSE(Test("isIRI(?n)"));
  EXPECT_TRUE(Test("isLiteral(?n)"));
}

TEST_F(FilterTest, UnboundComparisonsAreFalse) {
  EXPECT_FALSE(Test("?u > 1"));
  EXPECT_FALSE(Test("?u = ?p"));
  EXPECT_FALSE(Test("?u != ?p"));  // errors, not "not equal"
}

// ---------------------------------------------------------------------------
// End-to-end execution
// ---------------------------------------------------------------------------

/// A small e-commerce world exercising OPTIONAL / FILTER / UNION (the §5.1
/// examples) plus a type hierarchy.
class ExecTest : public ::testing::Test {
 protected:
  static rdf::Dataset MakeData() {
    rdf::Dataset ds;
    auto iri = [](const std::string& n) { return rdf::Term::Iri("http://e/" + n); };
    auto type = rdf::Term::Iri(rdf::vocab::kRdfType);
    auto num = [](double v) {
      std::string s = std::to_string(v);
      s.erase(s.find_last_not_of('0') + 1);
      if (!s.empty() && s.back() == '.') s.pop_back();
      return rdf::Term::TypedLiteral(s, rdf::vocab::kXsdDouble);
    };
    ds.Add(iri("product1"), type, iri("Product"));
    ds.Add(iri("product1"), iri("price"), num(100));
    ds.Add(iri("product1"), iri("rating"), num(5));
    ds.Add(iri("product1"), iri("rating"), num(1));
    ds.Add(iri("product2"), type, iri("Product"));
    ds.Add(iri("product2"), iri("price"), num(250));
    ds.Add(iri("product2"), iri("rating"), num(3));
    ds.Add(iri("product2"), iri("homepage"), rdf::Term::Literal("http://shop/p2"));
    ds.Add(iri("product3"), type, iri("Product"));
    ds.Add(iri("product3"), iri("price"), num(60));
    ds.Add(iri("product1"), iri("hasFeature"), iri("feature1"));
    ds.Add(iri("product2"), iri("hasFeature"), iri("feature2"));
    ds.Add(iri("product3"), iri("hasFeature"), iri("feature1"));
    ds.Add(iri("product3"), iri("hasFeature"), iri("feature2"));
    rdf::MaterializeInference(&ds);
    return ds;
  }

  ExecTest()
      : ds_(MakeData()),
        g_(graph::DataGraph::Build(ds_, graph::TransformMode::kTypeAware)),
        gd_(graph::DataGraph::Build(ds_, graph::TransformMode::kDirect)),
        index_(ds_),
        turbo_(g_, ds_.dict()),
        turbo_direct_(gd_, ds_.dict()),
        sortmerge_(index_, ds_.dict()),
        indexjoin_(index_, ds_.dict()) {}

  size_t CountRows(const BgpSolver& solver, const std::string& text) {
    auto r = Materialize(solver, text);
    EXPECT_TRUE(r.ok()) << r.message();
    return r.ok() ? r.value().rows.size() : 0;
  }

  /// Runs on all four solvers and expects identical row counts.
  size_t CountAll(const std::string& text) {
    size_t a = CountRows(turbo_, text);
    EXPECT_EQ(a, CountRows(turbo_direct_, text)) << text;
    EXPECT_EQ(a, CountRows(sortmerge_, text)) << text;
    EXPECT_EQ(a, CountRows(indexjoin_, text)) << text;
    return a;
  }

  rdf::Dataset ds_;
  graph::DataGraph g_, gd_;
  baseline::TripleIndex index_;
  TurboBgpSolver turbo_, turbo_direct_;
  baseline::SortMergeBgpSolver sortmerge_;
  baseline::IndexJoinBgpSolver indexjoin_;
};

TEST_F(ExecTest, BasicBgpAllEngines) {
  EXPECT_EQ(CountAll("SELECT ?x WHERE { ?x a <http://e/Product> . }"), 3u);
  EXPECT_EQ(CountAll("SELECT ?x ?p WHERE { ?x <http://e/price> ?p . }"), 3u);
  EXPECT_EQ(CountAll("SELECT ?x WHERE { ?x <http://e/hasFeature> <http://e/feature1> . }"),
            2u);
}

TEST_F(ExecTest, JoinAcrossPatterns) {
  EXPECT_EQ(CountAll("SELECT ?x ?r WHERE { ?x a <http://e/Product> . "
                     "?x <http://e/rating> ?r . }"),
            3u);  // product1 has two ratings, product2 one
}

TEST_F(ExecTest, FilterNumeric) {
  EXPECT_EQ(CountAll("SELECT ?x WHERE { ?x <http://e/price> ?p . FILTER(?p > 90) }"), 2u);
  EXPECT_EQ(CountAll("SELECT ?x WHERE { ?x <http://e/price> ?p . FILTER(?p > 300) }"), 0u);
}

TEST_F(ExecTest, PaperFigure13FilterJoin) {
  // Products rated higher than some rating of product1 (join condition).
  size_t n = CountAll(
      "SELECT ?product WHERE { <http://e/product1> <http://e/rating> ?r1 . "
      "?product a <http://e/Product> . ?product <http://e/rating> ?r2 . "
      "FILTER(?r2 > ?r1) }");
  // r1 in {5,1}; pairs with r2>r1: r1=1: r2 in {5,3} -> 2; r1=5: none.
  EXPECT_EQ(n, 2u);
}

TEST_F(ExecTest, PaperOptionalExample) {
  // §5.1 Figure 12: rating+homepage optional as one clause; product1 has
  // ratings but no homepage => the whole optional nullifies, exactly one
  // solution (qualify-and-exclude-duplicate).
  auto r = Materialize(turbo_,
      "SELECT ?price ?rating ?homepage WHERE { "
      "<http://e/product1> a <http://e/Product> . "
      "<http://e/product1> <http://e/price> ?price . "
      "OPTIONAL { <http://e/product1> <http://e/rating> ?rating . "
      "<http://e/product1> <http://e/homepage> ?homepage . } }");
  ASSERT_TRUE(r.ok()) << r.message();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_NE(r.value().rows[0][0], kInvalidId);  // price bound
  EXPECT_EQ(r.value().rows[0][1], kInvalidId);  // rating unbound
  EXPECT_EQ(r.value().rows[0][2], kInvalidId);  // homepage unbound
}

TEST_F(ExecTest, OptionalExtendsWhenPresent) {
  auto r = Materialize(turbo_,
      "SELECT ?x ?h WHERE { ?x a <http://e/Product> . "
      "OPTIONAL { ?x <http://e/homepage> ?h . } }");
  ASSERT_TRUE(r.ok()) << r.message();
  ASSERT_EQ(r.value().rows.size(), 3u);
  int bound = 0;
  for (const auto& row : r.value().rows)
    if (row[1] != kInvalidId) ++bound;
  EXPECT_EQ(bound, 1);  // only product2 has a homepage
}

TEST_F(ExecTest, NegationByFailure) {
  // bound() + OPTIONAL: products without homepage.
  EXPECT_EQ(CountAll("SELECT ?x WHERE { ?x a <http://e/Product> . "
                     "OPTIONAL { ?x <http://e/homepage> ?h . } FILTER(!bound(?h)) }"),
            2u);
}

TEST_F(ExecTest, PaperFigure14Union) {
  // Products having feature1 or feature2; product3 has both and appears
  // twice (UNION keeps duplicates).
  EXPECT_EQ(CountAll("SELECT ?product WHERE { "
                     "{ ?product a <http://e/Product> . "
                     "?product <http://e/hasFeature> <http://e/feature1> . } UNION "
                     "{ ?product a <http://e/Product> . "
                     "?product <http://e/hasFeature> <http://e/feature2> . } }"),
            4u);
}

TEST_F(ExecTest, UnionWithDistinct) {
  EXPECT_EQ(CountAll("SELECT DISTINCT ?product WHERE { "
                     "{ ?product <http://e/hasFeature> <http://e/feature1> . } UNION "
                     "{ ?product <http://e/hasFeature> <http://e/feature2> . } }"),
            3u);
}

TEST_F(ExecTest, OrderByAndLimit) {
  auto r = Materialize(turbo_,
      "SELECT ?x ?p WHERE { ?x <http://e/price> ?p . } ORDER BY DESC(?p) LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.message();
  ASSERT_EQ(r.value().rows.size(), 2u);
  EXPECT_EQ(ds_.dict().term(r.value().rows[0][1]).lexical, "250");
  EXPECT_EQ(ds_.dict().term(r.value().rows[1][1]).lexical, "100");
}

TEST_F(ExecTest, OffsetSkips) {
  auto r = Materialize(turbo_,
      "SELECT ?x ?p WHERE { ?x <http://e/price> ?p . } ORDER BY ?p OFFSET 1 LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.message();
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(ds_.dict().term(r.value().rows[0][1]).lexical, "100");
}

TEST_F(ExecTest, TypeVariableEnumeratesLabels) {
  // (?x rdf:type ?t): type-aware mode must enumerate the label set.
  EXPECT_EQ(CountAll("SELECT ?x ?t WHERE { ?x a ?t . ?x <http://e/price> ?p . }"), 3u);
}

TEST_F(ExecTest, VariablePredicate) {
  // All edges out of product2 (type edge folds into labels in type-aware
  // mode but must still be reported).
  size_t n = CountAll("SELECT ?p ?o WHERE { <http://e/product2> ?p ?o . }");
  EXPECT_EQ(n, 5u);  // type, price, rating, homepage, hasFeature
}

TEST_F(ExecTest, VariablePredicateJoin) {
  // Pairs of products connected by the same predicate to the same object.
  size_t n = CountAll(
      "SELECT ?a ?b ?p WHERE { ?a ?p ?o . ?b ?p ?o . "
      "FILTER(?a != ?b) }");
  // feature1 shared by product1/product3; feature2 by product2/product3;
  // both types Product shared pairwise (3 products -> 6 ordered pairs).
  EXPECT_EQ(n, 2u + 2u + 6u);
}

TEST_F(ExecTest, UnknownConstantsYieldEmpty) {
  EXPECT_EQ(CountAll("SELECT ?x WHERE { ?x a <http://e/Nonexistent> . }"), 0u);
  EXPECT_EQ(CountAll("SELECT ?x WHERE { ?x <http://e/nosuchpred> ?y . }"), 0u);
  EXPECT_EQ(CountAll("SELECT ?x WHERE { <http://e/ghost> <http://e/price> ?x . }"), 0u);
}

TEST_F(ExecTest, CartesianAcrossComponents) {
  EXPECT_EQ(CountAll("SELECT ?x ?y WHERE { ?x <http://e/homepage> ?h . "
                     "?y <http://e/hasFeature> <http://e/feature1> . }"),
            2u);  // 1 x 2
}

TEST_F(ExecTest, SelectStarProjectsAllVars) {
  auto r = Materialize(turbo_, "SELECT * WHERE { ?x <http://e/price> ?p . }");
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value().var_names.size(), 2u);
}

TEST_F(ExecTest, NestedOptional) {
  auto r = Materialize(turbo_,
      "SELECT ?x ?r ?h WHERE { ?x a <http://e/Product> . "
      "OPTIONAL { ?x <http://e/rating> ?r . OPTIONAL { ?x <http://e/homepage> ?h . } } }");
  ASSERT_TRUE(r.ok()) << r.message();
  // product1: ratings 5,1 (no homepage); product2: rating 3 + homepage;
  // product3: no rating -> nullified row.
  EXPECT_EQ(r.value().rows.size(), 4u);
}

}  // namespace
}  // namespace turbo::sparql
