// Streaming query API tests: QueryEngine / PreparedQuery / Cursor.
//
//  * cursor Next matches the materialized Executor::Execute row-for-row
//    (including order) across all four solvers and the §4.3 crosscheck
//    toggle matrix;
//  * LIMIT-k / limit_budget pushdown provably shrinks the enumeration
//    (MatchStats assertions: fewer starting vertices tried, early stop);
//  * cancellation, deadlines, and row budgets terminate mid-query with a
//    clean error status and no leaks (the suite runs under ASan in CI);
//  * prepared queries re-execute; the parallel worker path delivers exactly
//    k rows under a budget and drains on cancel.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "crosscheck_util.hpp"
#include "graph/data_graph.hpp"
#include "rdf/reasoner.hpp"
#include "sparql/executor.hpp"
#include "sparql/parser.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "workload/lubm.hpp"

namespace turbo::sparql {
namespace {

std::vector<Row> Drain(Cursor& cursor) {
  std::vector<Row> rows;
  Row row;
  while (cursor.Next(&row)) rows.push_back(row);
  return rows;
}

std::vector<Row> OpenAndDrain(const QueryEngine& engine, const std::string& text,
                              const ExecOptions& opts = {}) {
  auto cursor = engine.Open(text, opts);
  EXPECT_TRUE(cursor.ok()) << cursor.message();
  if (!cursor.ok()) return {};
  std::vector<Row> rows = Drain(cursor.value());
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  return rows;
}

/// The sparql_test e-commerce world: products with prices, ratings,
/// features, one homepage — exercises OPTIONAL / FILTER / UNION / DISTINCT.
rdf::Dataset MakeProductData() {
  rdf::Dataset ds;
  auto iri = [](const std::string& n) { return rdf::Term::Iri("http://e/" + n); };
  auto type = rdf::Term::Iri(rdf::vocab::kRdfType);
  auto num = [](const std::string& v) {
    return rdf::Term::TypedLiteral(v, rdf::vocab::kXsdDouble);
  };
  ds.Add(iri("product1"), type, iri("Product"));
  ds.Add(iri("product1"), iri("price"), num("100"));
  ds.Add(iri("product1"), iri("rating"), num("5"));
  ds.Add(iri("product1"), iri("rating"), num("1"));
  ds.Add(iri("product2"), type, iri("Product"));
  ds.Add(iri("product2"), iri("price"), num("250"));
  ds.Add(iri("product2"), iri("rating"), num("3"));
  ds.Add(iri("product2"), iri("homepage"), rdf::Term::Literal("http://shop/p2"));
  ds.Add(iri("product3"), type, iri("Product"));
  ds.Add(iri("product3"), iri("price"), num("60"));
  ds.Add(iri("product1"), iri("hasFeature"), iri("feature1"));
  ds.Add(iri("product2"), iri("hasFeature"), iri("feature2"));
  ds.Add(iri("product3"), iri("hasFeature"), iri("feature1"));
  ds.Add(iri("product3"), iri("hasFeature"), iri("feature2"));
  rdf::MaterializeInference(&ds);
  return ds;
}

const char* const kProductQueries[] = {
    "SELECT ?x WHERE { ?x a <http://e/Product> . }",
    "SELECT ?x ?r WHERE { ?x a <http://e/Product> . ?x <http://e/rating> ?r . }",
    "SELECT ?x WHERE { ?x <http://e/price> ?p . FILTER(?p > 90) }",
    "SELECT ?x ?h WHERE { ?x a <http://e/Product> . "
    "OPTIONAL { ?x <http://e/homepage> ?h . } }",
    "SELECT ?x WHERE { ?x a <http://e/Product> . "
    "OPTIONAL { ?x <http://e/homepage> ?h . } FILTER(!bound(?h)) }",
    "SELECT ?product WHERE { "
    "{ ?product <http://e/hasFeature> <http://e/feature1> . } UNION "
    "{ ?product <http://e/hasFeature> <http://e/feature2> . } }",
    "SELECT DISTINCT ?product WHERE { "
    "{ ?product <http://e/hasFeature> <http://e/feature1> . } UNION "
    "{ ?product <http://e/hasFeature> <http://e/feature2> . } }",
    "SELECT ?x ?p WHERE { ?x <http://e/price> ?p . } ORDER BY DESC(?p) LIMIT 2",
    "SELECT ?x ?p WHERE { ?x <http://e/price> ?p . } ORDER BY ?p OFFSET 1 LIMIT 1",
    "SELECT ?p ?o WHERE { <http://e/product2> ?p ?o . }",
    "SELECT ?x ?r ?h WHERE { ?x a <http://e/Product> . "
    "OPTIONAL { ?x <http://e/rating> ?r . OPTIONAL { ?x <http://e/homepage> ?h . } } }",
    "SELECT DISTINCT ?x WHERE { ?x a <http://e/Product> . ?x <http://e/rating> ?r . } "
    "LIMIT 2",
    "SELECT ?x WHERE { ?x <http://e/price> ?p . } OFFSET 1",
};

class CursorVsExecute : public ::testing::Test {
 protected:
  CursorVsExecute()
      : ds_(MakeProductData()),
        typed_(graph::DataGraph::Build(ds_, graph::TransformMode::kTypeAware)),
        direct_(graph::DataGraph::Build(ds_, graph::TransformMode::kDirect)),
        index_(ds_) {}

  /// Drains the cursor and the compat Execute over the same solver and
  /// expects identical rows in identical order — then repeats with
  /// streaming (producer-thread) cursors at tight and loose channel
  /// capacities and with a push run (Cursor::Run), which must also match
  /// row-for-row.
  void CheckIdentity(const BgpSolver& solver, const std::string& text) {
    Executor ex(&solver);
    auto materialized = ex.Execute(text);
    ASSERT_TRUE(materialized.ok()) << materialized.message() << "\n" << text;
    QueryEngine engine(&solver);
    std::vector<Row> streamed = OpenAndDrain(engine, text);
    EXPECT_EQ(materialized.value().rows, streamed) << text;
    for (uint32_t capacity : {1u, 64u}) {
      ExecOptions opts;
      opts.streaming = true;
      opts.channel_capacity = capacity;
      std::vector<Row> live = OpenAndDrain(engine, text, opts);
      EXPECT_EQ(materialized.value().rows, live)
          << text << " (streaming, capacity " << capacity << ")";
    }
    auto cursor = engine.Open(text);
    ASSERT_TRUE(cursor.ok()) << cursor.message();
    std::vector<Row> pushed;
    cursor.value().Run([&](const Row& r) {
      pushed.push_back(r);
      return EmitResult::kContinue;
    });
    EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
    EXPECT_EQ(materialized.value().rows, pushed) << text << " (push)";
  }

  rdf::Dataset ds_;
  graph::DataGraph typed_, direct_;
  baseline::TripleIndex index_;
};

TEST_F(CursorVsExecute, AllSolversAllQueries) {
  baseline::SortMergeBgpSolver sortmerge(index_, ds_.dict());
  baseline::IndexJoinBgpSolver indexjoin(index_, ds_.dict());
  for (const char* q : kProductQueries) {
    TurboBgpSolver typed(typed_, ds_.dict());
    TurboBgpSolver direct(direct_, ds_.dict());
    CheckIdentity(typed, q);
    CheckIdentity(direct, q);
    CheckIdentity(sortmerge, q);
    CheckIdentity(indexjoin, q);
  }
}

// Every §4.3 toggle combination on seeded random BGPs: the cursor path must
// agree with the solver-level Evaluate rows.
TEST_F(CursorVsExecute, CrosscheckToggleMatrix) {
  namespace cc = turbo::testing::crosscheck;
  for (uint64_t seed = 600; seed < 606; ++seed) {
    cc::RandomCase c = cc::MakeRandomCase(seed);
    if (c.bgp.empty()) continue;
    SCOPED_TRACE(cc::DescribeCase(c, seed));
    graph::DataGraph typed =
        graph::DataGraph::Build(c.ds, graph::TransformMode::kTypeAware);

    // The cursor path projects in registry order, so solver rows compare 1:1.
    SelectQuery q;
    q.where.triples = c.bgp;
    for (size_t i = 0; i < c.vars.size(); ++i)
      q.AddSelectVar(c.vars.name(static_cast<int>(i)));

    for (const engine::MatchOptions& o :
         cc::AllToggleCombos(engine::MatchSemantics::kHomomorphism)) {
      TurboBgpSolver solver(typed, c.ds.dict(), o);
      std::vector<Row> expected = cc::Evaluate(solver, c);

      auto prepared = PrepareSelect(q);
      ASSERT_TRUE(prepared.ok());
      Cursor cursor = OpenCursor(solver, prepared.value());
      std::vector<Row> streamed = Drain(cursor);
      EXPECT_TRUE(cursor.status().ok()) << cursor.status().message();
      std::sort(streamed.begin(), streamed.end());
      EXPECT_EQ(expected, streamed) << cc::DescribeToggles(o);
    }
  }
}

// Fuzz-scale SELECT queries (OPTIONAL / FILTER / UNION / DISTINCT): cursor
// and Execute agree through every decoration.
TEST_F(CursorVsExecute, ExecutorFuzzCursorIdentity) {
  namespace cc = turbo::testing::crosscheck;
  for (uint64_t seed = 7000; seed < 7004; ++seed) {
    cc::ExecutorFuzzCase c = cc::MakeExecutorFuzzCase(seed);
    if (c.query.where.triples.empty()) continue;
    SCOPED_TRACE(c.description);
    graph::DataGraph typed =
        graph::DataGraph::Build(c.ds, graph::TransformMode::kTypeAware);
    TurboBgpSolver solver(typed, c.ds.dict());
    Executor ex(&solver);
    auto materialized = ex.Execute(c.query);
    ASSERT_TRUE(materialized.ok()) << materialized.message();
    auto prepared = PrepareSelect(c.query);
    ASSERT_TRUE(prepared.ok());
    Cursor cursor = OpenCursor(solver, prepared.value());
    EXPECT_EQ(materialized.value().rows, Drain(cursor));
    EXPECT_TRUE(cursor.status().ok());
  }
}

// ---------------------------------------------------------------------------
// LIMIT pushdown: enumeration work must shrink, not just the delivered rows.
// ---------------------------------------------------------------------------

class LimitPushdown : public ::testing::Test {
 protected:
  static QueryEngine MakeEngine(uint32_t threads = 1) {
    workload::LubmConfig cfg;
    cfg.num_universities = 1;
    QueryEngine::Config config;
    config.engine_options.num_threads = threads;
    return QueryEngine(workload::GenerateLubmClosed(cfg), config);
  }

  // Thousands of solutions on LUBM(1); multi-vertex, so the engine walks
  // many candidate regions when run to completion.
  static constexpr const char* kManySolutions =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y WHERE { ?x a ub:GraduateStudent . ?x ub:takesCourse ?y . }";
};

TEST_F(LimitPushdown, BudgetStopsEnumerationEarly) {
  QueryEngine engine = MakeEngine();
  const TurboBgpSolver* solver = engine.turbo_solver();
  ASSERT_NE(solver, nullptr);

  solver->ResetStats();
  std::vector<Row> full = OpenAndDrain(engine, kManySolutions);
  engine::MatchStats full_stats = solver->last_stats();
  ASSERT_GT(full.size(), 100u);
  EXPECT_FALSE(full_stats.stopped_early);

  ExecOptions opts;
  opts.limit_budget = 5;
  solver->ResetStats();
  std::vector<Row> limited = OpenAndDrain(engine, kManySolutions, opts);
  engine::MatchStats limited_stats = solver->last_stats();

  // Streamed prefix semantics: the first five rows of the full run.
  ASSERT_EQ(limited.size(), 5u);
  EXPECT_EQ(std::vector<Row>(full.begin(), full.begin() + 5), limited);
  // And the enumeration actually stopped: fewer region roots explored,
  // fewer solutions produced, early-stop recorded.
  EXPECT_TRUE(limited_stats.stopped_early);
  EXPECT_LT(limited_stats.num_solutions, full_stats.num_solutions);
  EXPECT_LT(limited_stats.num_start_candidates, full_stats.num_start_candidates);
  EXPECT_LT(limited_stats.cr_candidate_vertices, full_stats.cr_candidate_vertices);
}

TEST_F(LimitPushdown, QueryLimitClausePushesDown) {
  QueryEngine engine = MakeEngine();
  const TurboBgpSolver* solver = engine.turbo_solver();
  solver->ResetStats();
  std::vector<Row> rows = OpenAndDrain(engine, std::string(kManySolutions) + " LIMIT 7");
  EXPECT_EQ(rows.size(), 7u);
  EXPECT_TRUE(solver->last_stats().stopped_early);
}

TEST_F(LimitPushdown, OrderByDisablesPushdownButStaysExact) {
  QueryEngine engine = MakeEngine();
  const std::string q =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y WHERE { ?x a ub:GraduateStudent . ?x ub:takesCourse ?y . } "
      "ORDER BY ?x LIMIT 5";
  const TurboBgpSolver* solver = engine.turbo_solver();
  solver->ResetStats();
  std::vector<Row> rows = OpenAndDrain(engine, q);
  ASSERT_EQ(rows.size(), 5u);
  // ORDER BY needs the full solution bag: no early stop.
  EXPECT_FALSE(solver->last_stats().stopped_early);
  // And the cursor agrees with the compat wrapper.
  Executor ex(&engine.solver());
  auto materialized = ex.Execute(q);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized.value().rows, rows);
}

TEST_F(LimitPushdown, ParallelBudgetDeliversExactlyKAndDrains) {
  QueryEngine engine = MakeEngine(/*threads=*/4);
  // Reference rows from a sequential engine (parallel delivery order is
  // nondeterministic, so compare as a subset of the full solution set).
  QueryEngine seq = MakeEngine();
  std::vector<Row> full = OpenAndDrain(seq, kManySolutions);
  std::set<Row> universe(full.begin(), full.end());

  ExecOptions opts;
  opts.limit_budget = 9;
  std::vector<Row> rows = OpenAndDrain(engine, kManySolutions, opts);
  ASSERT_EQ(rows.size(), 9u);
  for (const Row& r : rows) EXPECT_TRUE(universe.count(r));
  EXPECT_TRUE(engine.turbo_solver()->last_stats().stopped_early);
}

// ---------------------------------------------------------------------------
// Budgets, deadlines, cancellation.
// ---------------------------------------------------------------------------

TEST_F(LimitPushdown, RowBudgetExceededIsAnError) {
  QueryEngine engine = MakeEngine();
  ExecOptions opts;
  opts.row_budget = 3;
  auto cursor = engine.Open(kManySolutions, opts);
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> rows = Drain(cursor.value());
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("row budget"), std::string::npos);
  EXPECT_LE(rows.size(), 3u);  // whatever cleared the modifiers before the trip
}

TEST_F(LimitPushdown, ExpiredDeadlineReturnsCleanly) {
  QueryEngine engine = MakeEngine();
  ExecOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto cursor = engine.Open(kManySolutions, opts);
  ASSERT_TRUE(cursor.ok());
  Row row;
  EXPECT_FALSE(cursor.value().Next(&row));
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("deadline"), std::string::npos);
}

TEST_F(LimitPushdown, PreSetCancelTokenReturnsCleanly) {
  QueryEngine engine = MakeEngine();
  std::atomic<bool> cancel{true};
  ExecOptions opts;
  opts.cancel_token = &cancel;
  auto cursor = engine.Open(kManySolutions, opts);
  ASSERT_TRUE(cursor.ok());
  Row row;
  EXPECT_FALSE(cursor.value().Next(&row));
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("cancel"), std::string::npos);
}

TEST_F(LimitPushdown, ConcurrentCancelMidQueryIsClean) {
  // Nondeterministic by nature: the canceller races the query. Whatever the
  // interleaving, the cursor must end in either a complete Ok stream or a
  // clean "cancelled" error — never a crash or a leak (ASan covers this
  // suite in CI).
  QueryEngine engine = MakeEngine(/*threads=*/2);
  std::atomic<bool> cancel{false};
  ExecOptions opts;
  opts.cancel_token = &cancel;
  auto cursor = engine.Open(kManySolutions, opts);
  ASSERT_TRUE(cursor.ok());
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    cancel.store(true);
  });
  std::vector<Row> rows = Drain(cursor.value());
  canceller.join();
  const util::Status& st = cursor.value().status();
  if (!st.ok()) {
    EXPECT_NE(st.message().find("cancel"), std::string::npos) << st.message();
  }
}

TEST_F(LimitPushdown, CancelledParallelBaselinesReturnCleanly) {
  // The baselines honour the same control surface (coarse-grained checks in
  // their scan / probe loops).
  workload::LubmConfig cfg;
  cfg.num_universities = 1;
  for (QueryEngine::SolverKind kind :
       {QueryEngine::SolverKind::kSortMerge, QueryEngine::SolverKind::kIndexJoin}) {
    QueryEngine::Config config;
    config.solver = kind;
    QueryEngine engine(workload::GenerateLubmClosed(cfg), config);
    std::atomic<bool> cancel{true};
    ExecOptions opts;
    opts.cancel_token = &cancel;
    auto cursor = engine.Open(kManySolutions, opts);
    ASSERT_TRUE(cursor.ok());
    Row row;
    EXPECT_FALSE(cursor.value().Next(&row));
    EXPECT_FALSE(cursor.value().status().ok());
  }
}

// ---------------------------------------------------------------------------
// Facade behaviour: prepared reuse, ownership, solver-level sink stops.
// ---------------------------------------------------------------------------

TEST(QueryEngineFacade, PreparedQueryReExecutes) {
  QueryEngine engine(MakeProductData());
  auto prepared = engine.Prepare(
      "SELECT ?x ?r WHERE { ?x a <http://e/Product> . ?x <http://e/rating> ?r . }");
  ASSERT_TRUE(prepared.ok()) << prepared.message();
  auto c1 = engine.Open(prepared.value());
  auto c2 = engine.Open(prepared.value());
  ASSERT_TRUE(c1.ok() && c2.ok());
  std::vector<Row> r1 = Drain(c1.value());
  EXPECT_EQ(r1, Drain(c2.value()));
  EXPECT_EQ(r1.size(), 3u);
  // A budgeted reopen of the same prepared query.
  ExecOptions opts;
  opts.limit_budget = 1;
  auto c3 = engine.Open(prepared.value(), opts);
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(Drain(c3.value()).size(), 1u);
}

TEST(QueryEngineFacade, AllSolverKindsAgree) {
  const char* q = "SELECT ?x WHERE { ?x <http://e/hasFeature> <http://e/feature1> . }";
  size_t expected = 2;
  for (QueryEngine::SolverKind kind :
       {QueryEngine::SolverKind::kTurbo, QueryEngine::SolverKind::kTurboDirect,
        QueryEngine::SolverKind::kSortMerge, QueryEngine::SolverKind::kIndexJoin}) {
    QueryEngine::Config config;
    config.solver = kind;
    QueryEngine engine(MakeProductData(), config);
    EXPECT_EQ(OpenAndDrain(engine, q).size(), expected);
    EXPECT_NE(engine.dataset(), nullptr);
    EXPECT_EQ(engine.turbo_solver() != nullptr,
              kind == QueryEngine::SolverKind::kTurbo ||
                  kind == QueryEngine::SolverKind::kTurboDirect);
  }
}

TEST(QueryEngineFacade, OpenWithoutPrepareFails) {
  QueryEngine engine(MakeProductData());
  PreparedQuery never_prepared;
  auto cursor = engine.Open(never_prepared);
  EXPECT_FALSE(cursor.ok());
  auto bad = engine.Prepare("SELECT WHERE {");
  EXPECT_FALSE(bad.ok());
}

TEST(QueryEngineFacade, LimitZeroSkipsEnumeration) {
  QueryEngine engine(MakeProductData());
  const TurboBgpSolver* solver = engine.turbo_solver();
  solver->ResetStats();
  std::vector<Row> rows =
      OpenAndDrain(engine, "SELECT ?x WHERE { ?x a <http://e/Product> . } LIMIT 0");
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(solver->last_stats().num_start_candidates, 0u);  // no work at all
}

// Solver-level contract: a kStop from the sink ends Evaluate with Ok after
// exactly the delivered rows, for every implementation.
TEST(QueryEngineFacade, SolverSinkStopIsHonoured) {
  rdf::Dataset ds = MakeProductData();
  graph::DataGraph typed = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  baseline::TripleIndex index(ds);
  TurboBgpSolver turbo(typed, ds.dict());
  baseline::SortMergeBgpSolver sortmerge(index, ds.dict());
  baseline::IndexJoinBgpSolver indexjoin(index, ds.dict());

  auto q = ParseQuery("SELECT ?x ?r WHERE { ?x <http://e/rating> ?r . }");
  ASSERT_TRUE(q.ok());
  VarRegistry vars;
  for (const auto& tp : q.value().where.triples)
    for (const auto* pt : {&tp.s, &tp.p, &tp.o})
      if (pt->is_var()) vars.GetOrAdd(pt->var);

  for (const BgpSolver* solver :
       {static_cast<const BgpSolver*>(&turbo), static_cast<const BgpSolver*>(&sortmerge),
        static_cast<const BgpSolver*>(&indexjoin)}) {
    size_t delivered = 0;
    Row bound(vars.size(), kInvalidId);
    auto st = solver->Evaluate(q.value().where.triples, vars, bound, {},
                               [&](const Row&) {
                                 ++delivered;
                                 return EmitResult::kStop;
                               });
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(delivered, 1u);  // three ratings exist; the stop was honoured
  }
}

// Cursor::Run: a sink kStop ends the run cleanly, like LIMIT, unless the
// caller's deadline has passed by then — a sink that waited out the
// deadline on a slow consumer ends the run as a deadline stop.
TEST(QueryEngineFacade, PushSinkStopIsCleanUnlessDeadlinePassed) {
  QueryEngine engine(MakeProductData());
  const std::string q = "SELECT ?x ?r WHERE { ?x <http://e/rating> ?r . }";
  auto clean = engine.Open(q);
  ASSERT_TRUE(clean.ok());
  size_t delivered = 0;
  clean.value().Run([&](const Row&) {
    ++delivered;
    return EmitResult::kStop;
  });
  EXPECT_EQ(delivered, 1u);
  EXPECT_TRUE(clean.value().status().ok());
  EXPECT_EQ(clean.value().stop_cause(), StopCause::kNone);

  ExecOptions opts;
  opts.deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  auto late = engine.Open(q, opts);
  ASSERT_TRUE(late.ok());
  late.value().Run([&](const Row&) {
    std::this_thread::sleep_until(opts.deadline + std::chrono::milliseconds(1));
    return EmitResult::kStop;
  });
  EXPECT_FALSE(late.value().status().ok());
  EXPECT_EQ(late.value().stop_cause(), StopCause::kDeadline);
}

// ---------------------------------------------------------------------------
// ORDER BY + LIMIT: bounded top-k heap instead of the full solution bag.
// ---------------------------------------------------------------------------

class OrderByTopK : public ::testing::Test {
 protected:
  OrderByTopK() {
    workload::LubmConfig cfg;
    cfg.num_universities = 1;
    engine_ = std::make_unique<QueryEngine>(workload::GenerateLubmClosed(cfg));
  }

  static constexpr const char* kPrologue =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> ";
  /// Solution-heavy ordered query: every student's email, ordered by it.
  std::string Ordered(const std::string& modifiers) {
    return std::string(kPrologue) +
           "SELECT ?x ?e WHERE { ?x a ub:Student . ?x ub:emailAddress ?e . } "
           "ORDER BY ?e " +
           modifiers;
  }

  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(OrderByTopK, BoundedHeapMatchesFullSortAndStaysSmall) {
  auto full_cursor = engine_->Open(Ordered(""));
  ASSERT_TRUE(full_cursor.ok());
  std::vector<Row> full = Drain(full_cursor.value());
  const uint64_t total = full_cursor.value().rows_before_modifiers();
  ASSERT_GT(total, 1000u);
  // The unbounded run buffers the whole bag.
  EXPECT_EQ(full_cursor.value().peak_buffered_rows(), total);

  for (uint64_t k : {1u, 10u, 100u}) {
    auto cursor = engine_->Open(Ordered("LIMIT " + std::to_string(k)));
    ASSERT_TRUE(cursor.ok());
    std::vector<Row> rows = Drain(cursor.value());
    ASSERT_EQ(rows.size(), k);
    for (uint64_t i = 0; i < k; ++i) EXPECT_EQ(rows[i], full[i]) << "k=" << k << " i=" << i;
    // Sort is post-hoc: enumeration still ran the full solution space…
    EXPECT_EQ(cursor.value().rows_before_modifiers(), total);
    // …but memory stayed O(k).
    EXPECT_EQ(cursor.value().peak_buffered_rows(), k);
  }
}

TEST_F(OrderByTopK, OffsetWidensTheHeapExactly) {
  auto full_cursor = engine_->Open(Ordered(""));
  ASSERT_TRUE(full_cursor.ok());
  std::vector<Row> full = Drain(full_cursor.value());

  auto cursor = engine_->Open(Ordered("OFFSET 5 LIMIT 7"));
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> rows = Drain(cursor.value());
  ASSERT_EQ(rows.size(), 7u);
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], full[5 + i]);
  EXPECT_EQ(cursor.value().peak_buffered_rows(), 12u);  // offset + limit
}

TEST_F(OrderByTopK, LimitBudgetAloneBoundsTheBuffer) {
  // The service-side delivery cap bounds the heap exactly like a query
  // LIMIT.
  ExecOptions opts;
  opts.limit_budget = 4;
  auto cursor = engine_->Open(Ordered(""), opts);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(Drain(cursor.value()).size(), 4u);
  EXPECT_EQ(cursor.value().peak_buffered_rows(), 4u);
}

TEST_F(OrderByTopK, DistinctComposesWithBoundedHeap) {
  // Since the operator refactor, DISTINCT + ORDER BY plans as
  // Project -> DistinctOp -> TopKOp whenever every sort key is projected:
  // dedup commutes with the seq-stable sort then, so the bounded heap
  // applies (the PR 4 leftover where this combination buffered fully).
  std::string base = std::string(kPrologue) +
                     "SELECT DISTINCT ?e WHERE "
                     "{ ?x a ub:Student . ?x ub:emailAddress ?e . } ORDER BY ?e ";
  auto full_cursor = engine_->Open(base);
  ASSERT_TRUE(full_cursor.ok());
  std::vector<Row> full = Drain(full_cursor.value());
  ASSERT_GT(full_cursor.value().rows_before_modifiers(), 1000u);

  auto cursor = engine_->Open(base + "LIMIT 3");
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> rows = Drain(cursor.value());
  ASSERT_EQ(rows.size(), 3u);
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], full[i]);
  // Full enumeration still happened, but the delivery buffer stayed O(k).
  EXPECT_EQ(cursor.value().rows_before_modifiers(),
            full_cursor.value().rows_before_modifiers());
  EXPECT_EQ(cursor.value().peak_buffered_rows(), 3u);
}

TEST_F(OrderByTopK, DistinctWithUnprojectedKeyKeepsTheFullSort) {
  // A sort key outside the projection makes a distinct row's position
  // depend on which full-width representative survives, so dedup no longer
  // commutes with the sort: this combination must keep the full buffer.
  std::string q = std::string(kPrologue) +
                  "SELECT DISTINCT ?x WHERE "
                  "{ ?x a ub:Student . ?x ub:emailAddress ?e . } ORDER BY ?e LIMIT 3";
  auto cursor = engine_->Open(q);
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> rows = Drain(cursor.value());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(cursor.value().peak_buffered_rows(), cursor.value().rows_before_modifiers());

  // Independent oracle through a different plan shape: project BOTH
  // columns (keys projected -> no fallback path involved), then apply
  // sort-order dedup on ?x by hand and truncate.
  std::vector<Row> both = Drain(
      engine_
          ->Open(std::string(kPrologue) +
                 "SELECT ?x ?e WHERE { ?x a ub:Student . ?x ub:emailAddress ?e . } "
                 "ORDER BY ?e")
          .value());
  std::vector<Row> expected;
  std::set<TermId> seen;
  for (const Row& r : both) {
    if (!seen.insert(r[0]).second) continue;
    expected.push_back({r[0]});
    if (expected.size() == 3) break;
  }
  EXPECT_EQ(expected, rows);
}

// ---------------------------------------------------------------------------
// Aggregation end-to-end: GROUP BY / COUNT / SUM / MIN / MAX / AVG / HAVING
// through the full stack (parser -> planner -> operator tree -> cursor).
// ---------------------------------------------------------------------------

class AggregateQueries : public ::testing::Test {
 protected:
  AggregateQueries() : engine_(MakeProductData()) {}

  /// Drains and renders rows (local-vocab aware) for value-level asserts.
  std::vector<std::vector<std::string>> Rendered(const std::string& text,
                                                 Cursor* out_cursor = nullptr) {
    auto cursor = engine_.Open(text);
    EXPECT_TRUE(cursor.ok()) << cursor.message();
    if (!cursor.ok()) return {};
    std::vector<std::vector<std::string>> out;
    Row row;
    while (cursor.value().Next(&row)) {
      std::vector<std::string> cells;
      for (TermId id : row) {
        const rdf::Term* t =
            ResolveTerm(engine_.dict(), cursor.value().local_vocab().get(), id);
        cells.push_back(t ? t->lexical : "UNBOUND");
      }
      out.push_back(std::move(cells));
    }
    EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
    if (out_cursor) *out_cursor = cursor.value();
    return out;
  }

  QueryEngine engine_;
};

TEST_F(AggregateQueries, GroupByWithCountSumAvg) {
  auto rows = Rendered(
      "SELECT ?x (COUNT(?r) AS ?n) (SUM(?r) AS ?s) (AVG(?r) AS ?a) WHERE "
      "{ ?x a <http://e/Product> . ?x <http://e/rating> ?r . } GROUP BY ?x "
      "ORDER BY ?x");
  // product1 has ratings {5,1}; product2 has {3}; product3 none (no row).
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0],
            (std::vector<std::string>{"http://e/product1", "2", "6", "3"}));
  EXPECT_EQ(rows[1],
            (std::vector<std::string>{"http://e/product2", "1", "3", "3"}));
}

TEST_F(AggregateQueries, ImplicitGroupAndOptionalUnbound) {
  // OPTIONAL leaves ?h unbound for 2 of 3 products: COUNT(?h) skips them,
  // COUNT(*) does not; MIN/MAX over one homepage literal.
  auto rows = Rendered(
      "SELECT (COUNT(*) AS ?all) (COUNT(?h) AS ?hn) (MIN(?h) AS ?m) WHERE "
      "{ ?x a <http://e/Product> . OPTIONAL { ?x <http://e/homepage> ?h . } }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"3", "1", "http://shop/p2"}));
}

TEST_F(AggregateQueries, CountOverEmptyMatchIsZero) {
  auto rows = Rendered(
      "SELECT (COUNT(*) AS ?n) (SUM(?p) AS ?s) WHERE "
      "{ ?x a <http://e/NoSuchClass> . ?x <http://e/price> ?p . }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"0", "0"}));
}

// ---------------------------------------------------------------------------
// COUNT(*) pushdown: a bare single-BGP COUNT(*) is answered by the solver's
// embedding counter — no solution rows are assembled or grouped.
// ---------------------------------------------------------------------------

TEST_F(AggregateQueries, CountStarPushdownSkipsRowAssembly) {
  const TurboBgpSolver* solver = engine_.turbo_solver();
  ASSERT_NE(solver, nullptr);
  solver->ResetStats();
  Cursor cursor;
  auto rows = Rendered(
      "SELECT (COUNT(*) AS ?n) WHERE { ?x <http://e/rating> ?r . }", &cursor);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"3"}));
  // No solution rows entered the pipeline — the pre-modifier meter never
  // moved — yet the engine demonstrably counted the three embeddings.
  EXPECT_EQ(cursor.rows_before_modifiers(), 0u);
  EXPECT_EQ(solver->last_stats().num_solutions, 3u);
}

TEST_F(AggregateQueries, CountStarPushdownAbsentConstantIsZero) {
  Cursor cursor;
  auto rows = Rendered(
      "SELECT (COUNT(*) AS ?n) WHERE { ?x <http://e/noSuchPredicate> ?r . }",
      &cursor);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"0"}));
  EXPECT_EQ(cursor.rows_before_modifiers(), 0u);
}

TEST_F(AggregateQueries, CountStarPushdownDeclinesPerSolutionExpansion) {
  // (?x a ?t) binds ?t by per-solution label enumeration, so rows do not map
  // 1:1 to embeddings — the solver must decline and the row path answers.
  Cursor cursor;
  auto rows = Rendered("SELECT (COUNT(*) AS ?n) WHERE { ?x a ?t . }", &cursor);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GT(cursor.rows_before_modifiers(), 0u);
  // Cross-check the value against a formulation that can never push down
  // (two aggregates) over the same pattern.
  auto check =
      Rendered("SELECT (COUNT(*) AS ?n) (COUNT(?x) AS ?m) WHERE { ?x a ?t . }");
  ASSERT_EQ(check.size(), 1u);
  EXPECT_EQ(rows[0][0], check[0][0]);
}

TEST_F(AggregateQueries, RowBudgetDisablesCountPushdown) {
  // A row budget meters pre-modifier rows; the pushdown produces none, so it
  // must stand aside and let the budget semantics apply unchanged.
  ExecOptions opts;
  opts.row_budget = 1;  // three rating rows: must trip
  auto cursor =
      engine_.Open("SELECT (COUNT(*) AS ?n) WHERE { ?x <http://e/rating> ?r . }",
                   opts);
  ASSERT_TRUE(cursor.ok());
  Row row;
  while (cursor.value().Next(&row)) {
  }
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kRowBudget);
}

TEST_F(AggregateQueries, HavingFiltersGroupsAndOrderByAlias) {
  Cursor cursor;
  auto rows = Rendered(
      "SELECT ?x (COUNT(?r) AS ?n) WHERE { ?x <http://e/rating> ?r . } "
      "GROUP BY ?x HAVING(COUNT(?r) > 1) ORDER BY DESC(?n)",
      &cursor);
  ASSERT_EQ(rows.size(), 1u);  // only product1 has two ratings
  EXPECT_EQ(rows[0], (std::vector<std::string>{"http://e/product1", "2"}));
  // The plan shows grouping and the HAVING stage with its row counts.
  std::string plan = cursor.Explain();
  EXPECT_NE(plan.find("GroupAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Having"), std::string::npos) << plan;
}

TEST_F(AggregateQueries, CountDistinct) {
  // Four hasFeature triples over two distinct features.
  auto rows = Rendered(
      "SELECT (COUNT(DISTINCT ?f) AS ?n) (COUNT(?f) AS ?all) WHERE "
      "{ ?x <http://e/hasFeature> ?f . }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"2", "4"}));
}

TEST_F(AggregateQueries, MinMaxNumericOrder) {
  auto rows = Rendered(
      "SELECT (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) WHERE "
      "{ ?x <http://e/price> ?p . }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"60", "250"}));
}

TEST_F(AggregateQueries, CursorMatchesExecuteAcrossSolvers) {
  const char* queries[] = {
      "SELECT ?x (COUNT(?r) AS ?n) WHERE { ?x <http://e/rating> ?r . } GROUP BY ?x",
      "SELECT (COUNT(*) AS ?n) WHERE { ?x a <http://e/Product> . }",
      "SELECT ?f (COUNT(?x) AS ?n) WHERE { ?x <http://e/hasFeature> ?f . } "
      "GROUP BY ?f HAVING(COUNT(?x) > 1) ORDER BY ?f LIMIT 1",
  };
  rdf::Dataset ds = MakeProductData();
  graph::DataGraph typed = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  baseline::TripleIndex index(ds);
  TurboBgpSolver turbo(typed, ds.dict());
  baseline::SortMergeBgpSolver sortmerge(index, ds.dict());
  baseline::IndexJoinBgpSolver indexjoin(index, ds.dict());
  for (const char* q : queries) {
    for (const BgpSolver* solver :
         {static_cast<const BgpSolver*>(&turbo),
          static_cast<const BgpSolver*>(&sortmerge),
          static_cast<const BgpSolver*>(&indexjoin)}) {
      Executor ex(solver);
      auto materialized = ex.Execute(q);
      ASSERT_TRUE(materialized.ok()) << materialized.message() << "\n" << q;
      QueryEngine engine(solver);
      auto cursor = engine.Open(q);
      ASSERT_TRUE(cursor.ok());
      EXPECT_EQ(materialized.value().rows, Drain(cursor.value())) << q;
    }
  }
}

TEST_F(AggregateQueries, PlannerRejectsInvalidShapes) {
  // Ungrouped variable in SELECT.
  EXPECT_FALSE(engine_
                   .Open("SELECT ?x (COUNT(?r) AS ?n) WHERE "
                         "{ ?x <http://e/rating> ?r . }")
                   .ok());
  // SELECT * with grouping.
  EXPECT_FALSE(
      engine_.Open("SELECT * WHERE { ?x <http://e/rating> ?r . } GROUP BY ?x").ok());
  // Aggregate inside FILTER.
  EXPECT_FALSE(engine_
                   .Open("SELECT ?x WHERE { ?x <http://e/rating> ?r . "
                         "FILTER(COUNT(?r) > 1) }")
                   .ok());
  // HAVING referencing an ungrouped variable.
  EXPECT_FALSE(engine_
                   .Open("SELECT (COUNT(*) AS ?n) WHERE "
                         "{ ?x <http://e/rating> ?r . } HAVING(?r > 1)")
                   .ok());
  // ORDER BY on a variable hidden by grouping.
  EXPECT_FALSE(engine_
                   .Open("SELECT (COUNT(*) AS ?n) WHERE "
                         "{ ?x <http://e/rating> ?r . } ORDER BY ?r")
                   .ok());
  // Alias clashing with a select variable.
  EXPECT_FALSE(engine_
                   .Open("SELECT ?x (COUNT(?r) AS ?x) WHERE "
                         "{ ?x <http://e/rating> ?r . } GROUP BY ?x")
                   .ok());
}

TEST_F(AggregateQueries, PreparedAggregateReExecutes) {
  auto prepared = engine_.Prepare(
      "SELECT ?x (COUNT(?r) AS ?n) WHERE { ?x <http://e/rating> ?r . } GROUP BY ?x");
  ASSERT_TRUE(prepared.ok()) << prepared.message();
  EXPECT_EQ(prepared.value().var_names(), (std::vector<std::string>{"x", "n"}));
  auto c1 = engine_.Open(prepared.value());
  auto c2 = engine_.Open(prepared.value());
  ASSERT_TRUE(c1.ok() && c2.ok());
  std::vector<Row> r1 = Drain(c1.value());
  std::vector<Row> r2 = Drain(c2.value());
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1, r2);  // deterministic replan: same local ids, same rows
}

TEST_F(AggregateQueries, ExplainShowsOperatorTreeWithCounts) {
  Cursor cursor;
  Rendered("SELECT ?x WHERE { ?x a <http://e/Product> . } LIMIT 2", &cursor);
  std::string plan = cursor.Explain();
  EXPECT_NE(plan.find("BgpSource{1 triple}"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Slice{offset=0 limit=2}"), std::string::npos) << plan;
  EXPECT_NE(plan.find("out=2"), std::string::npos) << plan;
}

}  // namespace
}  // namespace turbo::sparql
