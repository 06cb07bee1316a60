// Push-run tests: Cursor::Run hands each delivered row to the caller's
// sink on the calling thread, and Next() serves the same rows from a
// materialized run.
//
//  * delivery: a push run delivers exactly the materialized rows, also when
//    a row budget or LIMIT stops it and when rows are zero-width; the first
//    row reaches the sink while the enumeration is still going, and a run
//    without a sort or group stage holds no row (peak_buffered_rows 0);
//  * stops: a sink kStop ends the enumeration itself on all four solvers
//    and is a clean stop; a sink that gives up after the deadline records
//    kDeadline; a cancel token fired from another thread mid-run ends it
//    with kCancelled (the suite runs under ASan and TSan in CI);
//  * status: solver errors and exceptions surface through Cursor::status()
//    with the original message as kProducerFailed, distinct from row-budget
//    / deadline / cancel stops;
//  * aggregates resolve through local_vocab() from inside the sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "graph/data_graph.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "workload/lubm.hpp"

namespace turbo::sparql {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

const char* const kPairQuery = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }";

rdf::Dataset TinyData() {
  rdf::Dataset ds;
  for (int i = 0; i < 8; ++i)
    ds.Add(rdf::Term::Iri("http://x/s" + std::to_string(i)),
           rdf::Term::Iri("http://x/p"),
           rdf::Term::Iri("http://x/o" + std::to_string(i)));
  return ds;
}

/// Emits `total` synthetic width-2 rows, counting emissions and honouring
/// stop/control — the deterministic producer for delivery and stop tests.
class CountingSolver final : public BgpSolver {
 public:
  CountingSolver(const rdf::Dictionary& dict, uint64_t total)
      : dict_(dict), total_(total) {}

  util::Status Evaluate(const std::vector<TriplePattern>&, const VarRegistry&,
                        const Row&, const std::vector<const FilterExpr*>&,
                        const RowSink& emit, const EvalControl& control) const override {
    Row r(2, 0);
    const TermId n = static_cast<TermId>(dict_.size());
    for (uint64_t i = 0; i < total_; ++i) {
      if (auto st = control.Check(); !st.ok()) return st;
      r[0] = static_cast<TermId>(i % n);
      r[1] = static_cast<TermId>((i + 1) % n);
      emitted_.fetch_add(1, std::memory_order_relaxed);
      if (emit(r) == EmitResult::kStop) {
        stopped_.store(true, std::memory_order_relaxed);
        return util::Status::Ok();
      }
    }
    return util::Status::Ok();
  }
  const rdf::Dictionary& dict() const override { return dict_; }

  uint64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  bool stopped() const { return stopped_.load(std::memory_order_relaxed); }

 private:
  const rdf::Dictionary& dict_;
  const uint64_t total_;
  mutable std::atomic<uint64_t> emitted_{0};
  mutable std::atomic<bool> stopped_{false};
};

/// Emits `ok_rows` rows, then fails with a solver-side error status.
class FailingSolver final : public BgpSolver {
 public:
  FailingSolver(const rdf::Dictionary& dict, uint64_t ok_rows)
      : dict_(dict), ok_rows_(ok_rows) {}

  util::Status Evaluate(const std::vector<TriplePattern>&, const VarRegistry&,
                        const Row&, const std::vector<const FilterExpr*>&,
                        const RowSink& emit, const EvalControl&) const override {
    Row r(2, 0);
    for (uint64_t i = 0; i < ok_rows_; ++i) {
      r[0] = static_cast<TermId>(i % dict_.size());
      if (emit(r) == EmitResult::kStop) return util::Status::Ok();
    }
    return util::Status::Error("solver exploded");
  }
  const rdf::Dictionary& dict() const override { return dict_; }

 private:
  const rdf::Dictionary& dict_;
  const uint64_t ok_rows_;
};

/// Throws from inside Evaluate — the run's catch-all must turn this into a
/// status instead of terminating the process.
class ThrowingSolver final : public BgpSolver {
 public:
  explicit ThrowingSolver(const rdf::Dictionary& dict) : dict_(dict) {}

  util::Status Evaluate(const std::vector<TriplePattern>&, const VarRegistry&,
                        const Row&, const std::vector<const FilterExpr*>&,
                        const RowSink& emit, const EvalControl&) const override {
    Row r(2, 0);
    emit(r);
    throw std::runtime_error("kaboom");
  }
  const rdf::Dictionary& dict() const override { return dict_; }

 private:
  const rdf::Dictionary& dict_;
};

/// Emits nothing and spins (politely) until the control trips — models a
/// long enumeration with no deliverable row.
class StallingSolver final : public BgpSolver {
 public:
  explicit StallingSolver(const rdf::Dictionary& dict) : dict_(dict) {}

  util::Status Evaluate(const std::vector<TriplePattern>&, const VarRegistry&,
                        const Row&, const std::vector<const FilterExpr*>&,
                        const RowSink&, const EvalControl& control) const override {
    while (true) {
      if (auto st = control.Check(); !st.ok()) return st;
      std::this_thread::sleep_for(milliseconds(1));
    }
  }
  const rdf::Dictionary& dict() const override { return dict_; }

 private:
  const rdf::Dictionary& dict_;
};

/// Push-runs the cursor's plan and keeps every row the sink sees.
std::vector<Row> PushAll(Cursor& cursor) {
  std::vector<Row> rows;
  cursor.Run([&](const Row& row) {
    rows.push_back(row);
    return EmitResult::kContinue;
  });
  return rows;
}

std::vector<Row> DrainAll(Cursor& cursor) {
  std::vector<Row> rows;
  Row row;
  while (cursor.Next(&row)) rows.push_back(row);
  return rows;
}

/// Opens `query` twice under `opts` and expects the push run to deliver
/// exactly the materialized rows with the same stop.
void ExpectPushMatchesMaterialized(const QueryEngine& engine, const std::string& query,
                                   const ExecOptions& opts, size_t rows,
                                   StopCause cause) {
  auto mat = engine.Open(query, opts);
  ASSERT_TRUE(mat.ok());
  const std::vector<Row> expect = DrainAll(mat.value());
  ASSERT_EQ(expect.size(), rows) << query;
  EXPECT_EQ(mat.value().stop_cause(), cause) << query;
  auto push = engine.Open(query, opts);
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(PushAll(push.value()), expect) << query;
  EXPECT_EQ(push.value().stop_cause(), cause) << query;
  EXPECT_EQ(push.value().status().ok(), mat.value().status().ok()) << query;
}

// ---------------------------------------------------------------------------
// Delivery on synthetic producers.
// ---------------------------------------------------------------------------

TEST(PushDelivery, FirstRowReachesTheSinkMidEnumeration) {
  rdf::Dataset ds = TinyData();
  constexpr uint64_t kTotal = 10000;
  CountingSolver solver(ds.dict(), kTotal);
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery);
  ASSERT_TRUE(cursor.ok()) << cursor.message();
  uint64_t emitted_at_first = 0, rows = 0;
  cursor.value().Run([&](const Row&) {
    if (rows++ == 0) emitted_at_first = solver.emitted();
    return EmitResult::kContinue;
  });
  EXPECT_EQ(emitted_at_first, 1u);  // no row waits for the ones after it
  EXPECT_EQ(rows, kTotal);
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kNone);
  EXPECT_EQ(cursor.value().peak_buffered_rows(), 0u);
  EXPECT_EQ(cursor.value().rows_before_modifiers(), kTotal);
}

TEST(PushDelivery, PushMatchesMaterializedRowForRow) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 500);
  QueryEngine engine(&solver);
  ExpectPushMatchesMaterialized(engine, kPairQuery, {}, 500, StopCause::kNone);
}

TEST(PushDelivery, BudgetAndLimitStopsDeliverTheMaterializedRows) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 1000);
  QueryEngine engine(&solver);
  ExecOptions budget;
  budget.row_budget = 37;
  ExpectPushMatchesMaterialized(engine, kPairQuery, budget, 37, StopCause::kRowBudget);
  ExpectPushMatchesMaterialized(
      engine, "SELECT ?s ?o WHERE { ?s <http://x/p> ?o . } LIMIT 42", {}, 42,
      StopCause::kNone);
}

TEST(PushDelivery, ZeroWidthRowsDeliverTheRightCount) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 100);
  QueryEngine engine(&solver);
  // A ground pattern binds no variable: every solution is a zero-width row.
  const std::string q = "SELECT * WHERE { <http://x/s0> <http://x/p> <http://x/o0> . }";
  auto mat = engine.Open(q);
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(DrainAll(mat.value()), std::vector<Row>(100));
  auto push = engine.Open(q);
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(PushAll(push.value()), std::vector<Row>(100));
  EXPECT_TRUE(push.value().status().ok());
}

TEST(PushDelivery, LimitZeroEndsImmediately) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 100);
  QueryEngine engine(&solver);
  auto cursor = engine.Open("SELECT ?s ?o WHERE { ?s <http://x/p> ?o . } LIMIT 0");
  ASSERT_TRUE(cursor.ok());
  EXPECT_TRUE(PushAll(cursor.value()).empty());
  EXPECT_TRUE(cursor.value().status().ok());
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kNone);
  EXPECT_EQ(solver.emitted(), 0u);
}

TEST(PushDelivery, ExplainAfterARunCountsTheSinkRows) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 300);
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(PushAll(cursor.value()).size(), 300u);
  // Explain renders the run that happened; it does not run the plan again.
  std::string plan = cursor.value().Explain();
  EXPECT_NE(plan.find("Sink  in=300"), std::string::npos) << plan;
  EXPECT_EQ(solver.emitted(), 300u);
}

// ---------------------------------------------------------------------------
// Stops: sink, deadline, cancel.
// ---------------------------------------------------------------------------

TEST(PushStop, SinkStopEndsTheEnumeration) {
  rdf::Dataset ds = TinyData();
  constexpr uint64_t kTotal = 1000000;
  CountingSolver solver(ds.dict(), kTotal);
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery);
  ASSERT_TRUE(cursor.ok());
  uint64_t rows = 0;
  cursor.value().Run(
      [&](const Row&) { return ++rows < 2 ? EmitResult::kContinue : EmitResult::kStop; });
  EXPECT_EQ(rows, 2u);
  EXPECT_TRUE(solver.stopped());  // the kStop reached the solver itself
  EXPECT_EQ(solver.emitted(), 2u);
  EXPECT_TRUE(cursor.value().status().ok());
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kNone);  // clean, like LIMIT
}

TEST(PushStop, UnrunCursorDoesNoWork) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 1000);
  QueryEngine engine(&solver);
  {
    auto cursor = engine.Open(kPairQuery);
    ASSERT_TRUE(cursor.ok());
  }
  EXPECT_EQ(solver.emitted(), 0u);
}

TEST(PushStop, PreparedQueryRerunsAfterStoppedRuns) {
  // The PreparedQuery and QueryEngine outlive each cursor; a fresh cursor
  // after runs stopped by their sinks gets a fresh pipeline.
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 5000);
  QueryEngine engine(&solver);
  auto prepared = engine.Prepare(kPairQuery);
  ASSERT_TRUE(prepared.ok());
  for (int round = 0; round < 3; ++round) {
    auto cursor = engine.Open(prepared.value());
    ASSERT_TRUE(cursor.ok());
    cursor.value().Run([](const Row&) { return EmitResult::kStop; });
    EXPECT_TRUE(cursor.value().status().ok());
  }
  auto cursor = engine.Open(prepared.value());
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(PushAll(cursor.value()).size(), 5000u);
  EXPECT_TRUE(cursor.value().status().ok());
}

TEST(PushStop, SinkThatWaitsOutTheDeadlineStopsWithDeadline) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 1000000);
  QueryEngine engine(&solver);
  ExecOptions opts;
  opts.deadline = steady_clock::now() + milliseconds(30);
  auto cursor = engine.Open(kPairQuery, opts);
  ASSERT_TRUE(cursor.ok());
  uint64_t rows = 0;
  // A slow consumer: the first row's sink blocks past the deadline and
  // then gives up, as the server's sink does on a write that timed out.
  cursor.value().Run([&](const Row&) {
    ++rows;
    std::this_thread::sleep_until(opts.deadline + milliseconds(5));
    return EmitResult::kStop;
  });
  EXPECT_EQ(rows, 1u);
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("deadline"), std::string::npos)
      << cursor.value().status().message();
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kDeadline);
}

TEST(PushStop, DeadlineStopsASearchThatFindsNothing) {
  rdf::Dataset ds = TinyData();
  StallingSolver solver(ds.dict());
  QueryEngine engine(&solver);
  ExecOptions opts;
  opts.deadline = steady_clock::now() + milliseconds(60);
  auto cursor = engine.Open(kPairQuery, opts);
  ASSERT_TRUE(cursor.ok());
  auto t0 = steady_clock::now();
  EXPECT_TRUE(PushAll(cursor.value()).empty());  // returns at the deadline
  EXPECT_LT(steady_clock::now() - t0, milliseconds(5000));
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("deadline"), std::string::npos);
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kDeadline);
}

TEST(PushStop, CancelFiredFromAnotherThreadEndsTheRun) {
  rdf::Dataset ds = TinyData();
  StallingSolver solver(ds.dict());
  QueryEngine engine(&solver);
  std::atomic<bool> cancel{false};
  ExecOptions opts;
  opts.cancel_token = &cancel;
  auto cursor = engine.Open(kPairQuery, opts);
  ASSERT_TRUE(cursor.ok());
  std::thread trip([&] {
    std::this_thread::sleep_for(milliseconds(30));
    cancel.store(true);
  });
  EXPECT_TRUE(PushAll(cursor.value()).empty());
  trip.join();
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("cancel"), std::string::npos);
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kCancelled);
}

// ---------------------------------------------------------------------------
// Status: solver-side failures vs caller-imposed stops.
// ---------------------------------------------------------------------------

TEST(PushStatus, SolverErrorSurfacesWithOriginalMessage) {
  rdf::Dataset ds = TinyData();
  FailingSolver solver(ds.dict(), 5);
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(PushAll(cursor.value()).size(), 5u);  // rows before the failure
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("solver exploded"),
            std::string::npos)
      << cursor.value().status().message();
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kProducerFailed);
}

TEST(PushStatus, SolverExceptionBecomesStatus) {
  rdf::Dataset ds = TinyData();
  ThrowingSolver solver(ds.dict());
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery);
  ASSERT_TRUE(cursor.ok());
  PushAll(cursor.value());
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("kaboom"), std::string::npos)
      << cursor.value().status().message();
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kProducerFailed);
}

TEST(PushStatus, RowBudgetIsDistinctFromSolverFailure) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 1000);
  QueryEngine engine(&solver);
  ExecOptions opts;
  opts.row_budget = 3;
  auto cursor = engine.Open(kPairQuery, opts);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(PushAll(cursor.value()).size(), 3u);
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("row budget"), std::string::npos);
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kRowBudget);
}

// ---------------------------------------------------------------------------
// Aggregates: computed values resolve from inside the sink.
// ---------------------------------------------------------------------------

TEST(PushAggregates, GroupedResultsResolveThroughLocalVocabInTheSink) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 400);
  QueryEngine engine(&solver);
  const std::string q =
      "SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s <http://x/p> ?o . } GROUP BY ?s";

  auto materialized = engine.Open(q);
  ASSERT_TRUE(materialized.ok());
  std::vector<std::string> expect;
  Row row;
  while (materialized.value().Next(&row))
    expect.push_back(FormatRow(materialized.value().var_names(), row, engine.dict(),
                               materialized.value().local_vocab().get()));
  ASSERT_FALSE(expect.empty());

  auto pushed = engine.Open(q);
  ASSERT_TRUE(pushed.ok());
  Cursor& cur = pushed.value();
  std::vector<std::string> got;
  cur.Run([&](const Row& r) {
    got.push_back(FormatRow(cur.var_names(), r, engine.dict(), cur.local_vocab().get()));
    return EmitResult::kContinue;
  });
  EXPECT_TRUE(cur.status().ok()) << cur.status().message();
  EXPECT_EQ(got, expect);
}

// ---------------------------------------------------------------------------
// LUBM: the acceptance scenario, across all four solvers.
// ---------------------------------------------------------------------------

class PushLubm : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::LubmConfig cfg;
    cfg.seed = 7;
    cfg.num_universities = 1;
    ds_ = new rdf::Dataset(workload::GenerateLubmClosed(cfg));
    typed_ = new graph::DataGraph(
        graph::DataGraph::Build(*ds_, graph::TransformMode::kTypeAware));
    direct_ = new graph::DataGraph(
        graph::DataGraph::Build(*ds_, graph::TransformMode::kDirect));
    index_ = new baseline::TripleIndex(*ds_);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete direct_;
    delete typed_;
    delete ds_;
    index_ = nullptr;
    direct_ = nullptr;
    typed_ = nullptr;
    ds_ = nullptr;
  }

  /// The unbounded (no-LIMIT) solution-heavy query of the acceptance
  /// criterion: LUBM Q6, every student.
  static std::string StudentQuery() {
    return std::string("PREFIX ub: <") + workload::kUbPrefix +
           "> SELECT ?x WHERE { ?x a ub:Student . }";
  }

  static rdf::Dataset* ds_;
  static graph::DataGraph* typed_;
  static graph::DataGraph* direct_;
  static baseline::TripleIndex* index_;
};

rdf::Dataset* PushLubm::ds_ = nullptr;
graph::DataGraph* PushLubm::typed_ = nullptr;
graph::DataGraph* PushLubm::direct_ = nullptr;
baseline::TripleIndex* PushLubm::index_ = nullptr;

TEST_F(PushLubm, UnboundedQueryHoldsNoRow) {
  TurboBgpSolver solver(*typed_, ds_->dict());
  QueryEngine engine(&solver);
  const std::string q = StudentQuery();

  // Materialized baseline: the full delivered set is resident at once.
  auto full = engine.Open(q);
  ASSERT_TRUE(full.ok());
  std::vector<Row> expect = DrainAll(full.value());
  ASSERT_TRUE(full.value().status().ok());
  ASSERT_GT(expect.size(), 1000u);  // genuinely solution-heavy
  EXPECT_EQ(full.value().peak_buffered_rows(), expect.size());

  // Push: row-for-row identical, and no row is held between the search and
  // the sink — the full result set is never resident.
  auto push = engine.Open(q);
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(PushAll(push.value()), expect);
  EXPECT_TRUE(push.value().status().ok());
  EXPECT_EQ(push.value().peak_buffered_rows(), 0u);
  EXPECT_EQ(push.value().rows_before_modifiers(), expect.size());
}

TEST_F(PushLubm, SinkStopAcrossAllFourSolvers) {
  TurboBgpSolver turbo_typed(*typed_, ds_->dict());
  TurboBgpSolver turbo_direct(*direct_, ds_->dict());
  baseline::SortMergeBgpSolver sortmerge(*index_, ds_->dict());
  baseline::IndexJoinBgpSolver indexjoin(*index_, ds_->dict());
  const BgpSolver* solvers[] = {&turbo_typed, &turbo_direct, &sortmerge, &indexjoin};
  const std::string q = StudentQuery();

  for (const BgpSolver* solver : solvers) {
    QueryEngine engine(solver);
    auto prepared = engine.Prepare(q);
    ASSERT_TRUE(prepared.ok());
    uint64_t full_count = 0;
    {
      auto cursor = engine.Open(prepared.value());
      ASSERT_TRUE(cursor.ok());
      full_count = PushAll(cursor.value()).size();
      ASSERT_TRUE(cursor.value().status().ok());
    }
    ASSERT_GT(full_count, 3u);
    {
      // The sink stops after two rows: the solver unwinds, no further row
      // enters the pipeline, and the stop is clean.
      auto cursor = engine.Open(prepared.value());
      ASSERT_TRUE(cursor.ok());
      uint64_t rows = 0;
      cursor.value().Run(
          [&](const Row&) { return ++rows < 2 ? EmitResult::kContinue : EmitResult::kStop; });
      EXPECT_EQ(rows, 2u);
      EXPECT_EQ(cursor.value().rows_before_modifiers(), 2u);
      EXPECT_TRUE(cursor.value().status().ok());
      EXPECT_EQ(cursor.value().stop_cause(), StopCause::kNone);
    }
    // The engine and prepared query are unaffected: reopen and run it all.
    auto cursor = engine.Open(prepared.value());
    ASSERT_TRUE(cursor.ok());
    EXPECT_EQ(PushAll(cursor.value()).size(), full_count);
    EXPECT_TRUE(cursor.value().status().ok());
  }
}

TEST_F(PushLubm, ParallelWorkersPushTheSequentialRows) {
  engine::MatchOptions mo;
  mo.num_threads = 3;
  TurboBgpSolver solver(*typed_, ds_->dict(), mo);
  QueryEngine engine(&solver);
  const std::string q = StudentQuery();

  TurboBgpSolver seq(*typed_, ds_->dict());
  QueryEngine seq_engine(&seq);
  std::vector<Row> expect;
  {
    auto cursor = seq_engine.Open(q);
    ASSERT_TRUE(cursor.ok());
    expect = DrainAll(cursor.value());
  }
  std::sort(expect.begin(), expect.end());

  auto cursor = engine.Open(q);
  ASSERT_TRUE(cursor.ok());
  std::vector<Row> got = PushAll(cursor.value());
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(cursor.value().peak_buffered_rows(), 0u);
}

}  // namespace
}  // namespace turbo::sparql
