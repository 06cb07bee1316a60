// Streaming-cursor tests: producer-thread delivery over the bounded channel.
//
//  * backpressure: a fast producer never runs more than channel_capacity
//    ahead of the consumer, so an unbounded query streams its first row
//    before enumeration completes and peak_buffered_rows stays bounded;
//  * teardown: destroying a cursor mid-stream (all four solvers, with the
//    QueryEngine / PreparedQuery outliving it) joins the producer and
//    terminates the enumeration itself — no leaked thread, no race (the
//    suite runs under ASan and TSan in CI);
//  * status: producer-side failures (error statuses and exceptions) surface
//    through Cursor::status() with the original message and a distinct
//    stop_cause, distinguishable from row-budget / deadline / cancel stops;
//  * deadline expiry is observed while blocked on either channel end;
//  * parity: streaming drains match materialized Execute row-for-row, also
//    when a row budget or LIMIT stops the producer mid-batch and when rows
//    are zero-width.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "graph/data_graph.hpp"
#include "sparql/executor.hpp"
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

/// Emits `total` synthetic width-2 rows, counting emissions observably from
/// other threads and honouring stop/control — the deterministic producer
/// for backpressure and teardown tests.
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

/// Throws from inside Evaluate — the producer thread's catch-all must turn
/// this into a status instead of terminating the process.
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
/// long enumeration with no deliverable row, which leaves the consumer
/// blocked on an empty channel.
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

ExecOptions Streaming(uint32_t capacity) {
  ExecOptions opts;
  opts.streaming = true;
  opts.channel_capacity = capacity;
  return opts;
}

// ---------------------------------------------------------------------------
// Backpressure and parity on synthetic producers.
// ---------------------------------------------------------------------------

TEST(StreamingBackpressure, ProducerNeverRunsMoreThanCapacityAhead) {
  rdf::Dataset ds = TinyData();
  constexpr uint64_t kTotal = 10000;
  CountingSolver solver(ds.dict(), kTotal);
  QueryEngine engine(&solver);

  auto cursor = engine.Open(kPairQuery, Streaming(8));
  ASSERT_TRUE(cursor.ok()) << cursor.message();
  Row row;
  ASSERT_TRUE(cursor.value().Next(&row));
  // Give a runaway producer every chance to sprint ahead; with working
  // backpressure it parks at: 1 delivered + 8 buffered + 1 blocked in the
  // sink's hand.
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_LE(solver.emitted(), 1u + 8u + 1u);
  EXPECT_LT(solver.emitted(), kTotal);  // first row arrived mid-enumeration

  uint64_t drained = 1;
  while (cursor.value().Next(&row)) ++drained;
  EXPECT_EQ(drained, kTotal);
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kNone);
  EXPECT_LE(cursor.value().peak_channel_rows(), 8u);
  EXPECT_LE(cursor.value().peak_buffered_rows(), 8u);
  EXPECT_EQ(cursor.value().rows_before_modifiers(), kTotal);
}

TEST(StreamingBackpressure, StreamingMatchesMaterializedRowForRow) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 500);
  QueryEngine engine(&solver);

  Row row;
  std::vector<Row> materialized;
  {
    auto cursor = engine.Open(kPairQuery);
    ASSERT_TRUE(cursor.ok());
    while (cursor.value().Next(&row)) materialized.push_back(row);
  }
  for (uint32_t capacity : {1u, 2u, 64u}) {
    auto cursor = engine.Open(kPairQuery, Streaming(capacity));
    ASSERT_TRUE(cursor.ok());
    std::vector<Row> streamed;
    while (cursor.value().Next(&row)) streamed.push_back(row);
    EXPECT_TRUE(cursor.value().status().ok());
    EXPECT_EQ(streamed, materialized) << "capacity " << capacity;
  }
}

TEST(StreamingBackpressure, LimitZeroEndsImmediately) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 100);
  QueryEngine engine(&solver);
  auto cursor =
      engine.Open("SELECT ?s ?o WHERE { ?s <http://x/p> ?o . } LIMIT 0", Streaming(4));
  ASSERT_TRUE(cursor.ok());
  Row row;
  EXPECT_FALSE(cursor.value().Next(&row));
  EXPECT_TRUE(cursor.value().status().ok());
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kNone);
  EXPECT_EQ(solver.emitted(), 0u);
}

// ---------------------------------------------------------------------------
// Batched delivery edges: rows travel the channel in batches (the first row
// alone, then capacity/4 rows each), so every early stop must still flush the
// open partial batch, and zero-width rows must still count.
// ---------------------------------------------------------------------------

std::vector<Row> DrainAll(Cursor* cursor) {
  std::vector<Row> rows;
  Row row;
  while (cursor->Next(&row)) rows.push_back(row);
  return rows;
}

TEST(StreamingBatches, BudgetAndLimitStopsDeliverTheMaterializedRows) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 1000);
  QueryEngine engine(&solver);
  // Neither 37 nor 42 fills a whole number of batches at capacity 8 (2-row
  // batches after the first row) and 64 (16-row batches).
  ExecOptions budget;
  budget.row_budget = 37;
  struct Case {
    std::string query;
    ExecOptions opts;
    size_t rows;
    StopCause cause;
  } cases[] = {
      {kPairQuery, budget, 37, StopCause::kRowBudget},
      {"SELECT ?s ?o WHERE { ?s <http://x/p> ?o . } LIMIT 42", {}, 42, StopCause::kNone},
  };
  for (Case& c : cases) {
    auto mat = engine.Open(c.query, c.opts);
    ASSERT_TRUE(mat.ok());
    const std::vector<Row> expect = DrainAll(&mat.value());
    ASSERT_EQ(expect.size(), c.rows) << c.query;
    EXPECT_EQ(mat.value().stop_cause(), c.cause) << c.query;
    for (uint32_t capacity : {1u, 8u, 64u}) {
      ExecOptions opts = c.opts;
      opts.streaming = true;
      opts.channel_capacity = capacity;
      auto cursor = engine.Open(c.query, opts);
      ASSERT_TRUE(cursor.ok());
      EXPECT_EQ(DrainAll(&cursor.value()), expect) << c.query << " capacity " << capacity;
      EXPECT_EQ(cursor.value().stop_cause(), c.cause) << c.query << " capacity " << capacity;
      EXPECT_EQ(cursor.value().status().ok(), mat.value().status().ok());
    }
  }
}

TEST(StreamingBatches, ZeroWidthRowsStreamTheRightCount) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 100);
  QueryEngine engine(&solver);
  // A ground pattern binds no variable: every solution is a zero-width row.
  const std::string q = "SELECT * WHERE { <http://x/s0> <http://x/p> <http://x/o0> . }";
  auto mat = engine.Open(q);
  ASSERT_TRUE(mat.ok());
  EXPECT_EQ(DrainAll(&mat.value()), std::vector<Row>(100));
  for (uint32_t capacity : {1u, 8u, 64u}) {
    auto cursor = engine.Open(q, Streaming(capacity));
    ASSERT_TRUE(cursor.ok());
    EXPECT_EQ(DrainAll(&cursor.value()), std::vector<Row>(100)) << "capacity " << capacity;
    EXPECT_TRUE(cursor.value().status().ok());
  }
}

// ---------------------------------------------------------------------------
// Teardown: abandoned cursors.
// ---------------------------------------------------------------------------

TEST(StreamingTeardown, AbandonMidStreamStopsTheEnumeration) {
  rdf::Dataset ds = TinyData();
  constexpr uint64_t kTotal = 1000000;
  CountingSolver solver(ds.dict(), kTotal);
  QueryEngine engine(&solver);
  {
    auto cursor = engine.Open(kPairQuery, Streaming(4));
    ASSERT_TRUE(cursor.ok());
    Row row;
    ASSERT_TRUE(cursor.value().Next(&row));
    ASSERT_TRUE(cursor.value().Next(&row));
    // Cursor destroyed here, mid-stream: the destructor must signal the
    // producer, drain, and join — and the enumeration must die with it.
  }
  EXPECT_LT(solver.emitted(), kTotal);
}

TEST(StreamingTeardown, AbandonBeforeFirstNextIsClean) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 1000);
  QueryEngine engine(&solver);
  {
    auto cursor = engine.Open(kPairQuery, Streaming(4));
    ASSERT_TRUE(cursor.ok());
    // Never called Next: no producer thread ever started; destruction must
    // still be clean.
  }
  EXPECT_EQ(solver.emitted(), 0u);
}

TEST(StreamingTeardown, AbandonWhileConsumerStillHoldsPrepared) {
  // The PreparedQuery and QueryEngine outlive the cursor; re-opening after
  // an abandoned stream must work (fresh pipeline, fresh producer).
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 5000);
  QueryEngine engine(&solver);
  auto prepared = engine.Prepare(kPairQuery);
  ASSERT_TRUE(prepared.ok());
  for (int round = 0; round < 3; ++round) {
    auto cursor = engine.Open(prepared.value(), Streaming(1));
    ASSERT_TRUE(cursor.ok());
    Row row;
    ASSERT_TRUE(cursor.value().Next(&row));
    // dropped mid-stream each round
  }
  auto cursor = engine.Open(prepared.value(), Streaming(16));
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (cursor.value().Next(&row)) ++n;
  EXPECT_EQ(n, 5000u);
  EXPECT_TRUE(cursor.value().status().ok());
}

// ---------------------------------------------------------------------------
// Status: producer-side failures vs caller-imposed stops.
// ---------------------------------------------------------------------------

TEST(StreamingStatus, ProducerErrorSurfacesWithOriginalMessage) {
  rdf::Dataset ds = TinyData();
  FailingSolver solver(ds.dict(), 5);
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery, Streaming(16));
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (cursor.value().Next(&row)) ++n;
  EXPECT_EQ(n, 5u);  // rows delivered before the failure remain valid
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("solver exploded"),
            std::string::npos)
      << cursor.value().status().message();
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kProducerFailed);
}

TEST(StreamingStatus, ProducerExceptionBecomesStatus) {
  rdf::Dataset ds = TinyData();
  ThrowingSolver solver(ds.dict());
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery, Streaming(4));
  ASSERT_TRUE(cursor.ok());
  Row row;
  while (cursor.value().Next(&row)) {
  }
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("kaboom"), std::string::npos)
      << cursor.value().status().message();
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kProducerFailed);
}

TEST(StreamingStatus, RowBudgetIsDistinctFromProducerFailure) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 1000);
  QueryEngine engine(&solver);
  ExecOptions opts = Streaming(16);
  opts.row_budget = 3;
  auto cursor = engine.Open(kPairQuery, opts);
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (cursor.value().Next(&row)) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("row budget"), std::string::npos);
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kRowBudget);
}

TEST(StreamingStatus, DeadlineObservedWhileProducerBlockedOnFullChannel) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 1000000);
  QueryEngine engine(&solver);
  ExecOptions opts = Streaming(1);
  opts.deadline = steady_clock::now() + milliseconds(60);
  auto cursor = engine.Open(kPairQuery, opts);
  ASSERT_TRUE(cursor.ok());
  Row row;
  ASSERT_TRUE(cursor.value().Next(&row));
  // Producer is now wedged on the full 1-slot channel. Sleep the consumer
  // past the deadline: only the producer's timeout-aware Push wait (or the
  // consumer-side check on the next Pop) can notice it.
  std::this_thread::sleep_for(milliseconds(150));
  uint64_t extra = 0;
  while (cursor.value().Next(&row)) ++extra;
  EXPECT_LE(extra, 3u);  // at most what was already in flight
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("deadline"), std::string::npos)
      << cursor.value().status().message();
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kDeadline);
}

TEST(StreamingStatus, DeadlineObservedWhileConsumerBlockedOnEmptyChannel) {
  rdf::Dataset ds = TinyData();
  StallingSolver solver(ds.dict());
  QueryEngine engine(&solver);
  ExecOptions opts = Streaming(4);
  opts.deadline = steady_clock::now() + milliseconds(60);
  auto cursor = engine.Open(kPairQuery, opts);
  ASSERT_TRUE(cursor.ok());
  Row row;
  auto t0 = steady_clock::now();
  EXPECT_FALSE(cursor.value().Next(&row));  // blocks until the deadline
  EXPECT_LT(steady_clock::now() - t0, milliseconds(5000));
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("deadline"), std::string::npos);
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kDeadline);
  EXPECT_FALSE(cursor.value().Next(&row));  // stays ended
}

TEST(StreamingStatus, CancelTokenUnblocksTheConsumer) {
  rdf::Dataset ds = TinyData();
  StallingSolver solver(ds.dict());
  QueryEngine engine(&solver);
  std::atomic<bool> cancel{false};
  ExecOptions opts = Streaming(4);
  opts.cancel_token = &cancel;
  auto cursor = engine.Open(kPairQuery, opts);
  ASSERT_TRUE(cursor.ok());
  std::thread trip([&] {
    std::this_thread::sleep_for(milliseconds(30));
    cancel.store(true);
  });
  Row row;
  EXPECT_FALSE(cursor.value().Next(&row));
  trip.join();
  EXPECT_FALSE(cursor.value().status().ok());
  EXPECT_NE(cursor.value().status().message().find("cancel"), std::string::npos);
  EXPECT_EQ(cursor.value().stop_cause(), StopCause::kCancelled);
}

TEST(StreamingStatus, ExplainSnapshotsMidStreamThenSettles) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 100000);
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery, Streaming(1));
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t drained = 0;
  ASSERT_TRUE(cursor.value().Next(&row));
  ++drained;
  // Mid-stream: a stable snapshot taken at a delivery boundary, with real
  // per-operator counts covering at least every row the consumer has seen.
  std::string mid = cursor.value().Explain();
  EXPECT_NE(mid.find("streaming snapshot"), std::string::npos) << mid;
  EXPECT_NE(mid.find("ChannelSink"), std::string::npos) << mid;
  EXPECT_EQ(mid.find("in=0 out=0"), std::string::npos) << mid;
  while (cursor.value().Next(&row)) ++drained;
  // Settled: the live counters, which must account for every delivered row.
  std::string plan = cursor.value().Explain();
  EXPECT_EQ(plan.find("streaming snapshot"), std::string::npos) << plan;
  EXPECT_NE(plan.find("ChannelSink"), std::string::npos) << plan;
  EXPECT_NE(plan.find("out=" + std::to_string(drained)), std::string::npos) << plan;
}

TEST(StreamingStatus, ExplainBeforeFirstRowSaysNoRowsYet) {
  rdf::Dataset ds = TinyData();
  StallingSolver solver(ds.dict());
  QueryEngine engine(&solver);
  auto cursor = engine.Open(kPairQuery, Streaming(1));
  ASSERT_TRUE(cursor.ok());
  // Producer is alive but nothing has reached the channel: no snapshot
  // exists yet, and Explain must say so rather than render zero counts.
  // (Cursor destruction abandons the stalled producer and joins it.)
  EXPECT_NE(cursor.value().Explain().find("no rows delivered yet"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming aggregation: the LocalVocab is shared across threads.
// ---------------------------------------------------------------------------

TEST(StreamingAggregates, GroupedResultsResolveThroughSharedVocab) {
  rdf::Dataset ds = TinyData();
  CountingSolver solver(ds.dict(), 400);
  QueryEngine engine(&solver);
  const std::string q =
      "SELECT ?s (COUNT(?o) AS ?c) WHERE { ?s <http://x/p> ?o . } GROUP BY ?s";

  auto render = [&](Cursor& cursor) {
    std::vector<std::string> out;
    Row row;
    // Resolve aggregate values while the producer may still be interning —
    // the concurrent-intern/resolve path TSan checks.
    while (cursor.Next(&row))
      out.push_back(FormatRow(cursor.var_names(), row, engine.dict(),
                              cursor.local_vocab().get()));
    EXPECT_TRUE(cursor.status().ok()) << cursor.status().message();
    return out;
  };

  auto materialized = engine.Open(q);
  ASSERT_TRUE(materialized.ok());
  std::vector<std::string> expect = render(materialized.value());
  ASSERT_FALSE(expect.empty());

  auto streamed = engine.Open(q, Streaming(1));
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(render(streamed.value()), expect);
}

// ---------------------------------------------------------------------------
// LUBM: the acceptance scenario, across all four solvers.
// ---------------------------------------------------------------------------

class StreamingLubm : public ::testing::Test {
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

rdf::Dataset* StreamingLubm::ds_ = nullptr;
graph::DataGraph* StreamingLubm::typed_ = nullptr;
graph::DataGraph* StreamingLubm::direct_ = nullptr;
baseline::TripleIndex* StreamingLubm::index_ = nullptr;

TEST_F(StreamingLubm, UnboundedQueryStreamsWithBoundedBuffer) {
  TurboBgpSolver solver(*typed_, ds_->dict());
  QueryEngine engine(&solver);
  const std::string q = StudentQuery();
  constexpr uint32_t kCapacity = 16;

  // Materialized baseline: the full delivered set is resident at once.
  auto full = engine.Open(q);
  ASSERT_TRUE(full.ok());
  Row row;
  std::vector<Row> expect;
  while (full.value().Next(&row)) expect.push_back(row);
  ASSERT_TRUE(full.value().status().ok());
  ASSERT_GT(expect.size(), 100u * kCapacity);  // genuinely solution-heavy
  EXPECT_EQ(full.value().peak_buffered_rows(), expect.size());

  // Streaming: row-for-row identical, but never more than channel_capacity
  // rows in flight — the full result set is never resident.
  auto streaming = engine.Open(q, Streaming(kCapacity));
  ASSERT_TRUE(streaming.ok());
  std::vector<Row> got;
  while (streaming.value().Next(&row)) got.push_back(row);
  EXPECT_TRUE(streaming.value().status().ok());
  EXPECT_EQ(got, expect);
  EXPECT_LE(streaming.value().peak_buffered_rows(), kCapacity);
  EXPECT_EQ(streaming.value().rows_before_modifiers(), expect.size());
}

TEST_F(StreamingLubm, AbandonMidStreamAcrossAllFourSolvers) {
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
      auto cursor = engine.Open(prepared.value(), Streaming(64));
      ASSERT_TRUE(cursor.ok());
      Row row;
      while (cursor.value().Next(&row)) ++full_count;
      ASSERT_TRUE(cursor.value().status().ok());
    }
    ASSERT_GT(full_count, 3u);
    {
      // Abandon with the producer mid-flight on a tight channel.
      auto cursor = engine.Open(prepared.value(), Streaming(1));
      ASSERT_TRUE(cursor.ok());
      Row row;
      ASSERT_TRUE(cursor.value().Next(&row));
      ASSERT_TRUE(cursor.value().Next(&row));
    }
    // The engine and prepared query survived the teardown: reopen and drain.
    auto cursor = engine.Open(prepared.value(), Streaming(8));
    ASSERT_TRUE(cursor.ok());
    Row row;
    uint64_t count = 0;
    while (cursor.value().Next(&row)) ++count;
    EXPECT_TRUE(cursor.value().status().ok());
    EXPECT_EQ(count, full_count);
  }
}

TEST_F(StreamingLubm, ParallelWorkersBatchDeliveryIntoTheChannel) {
  engine::MatchOptions mo;
  mo.num_threads = 3;
  TurboBgpSolver solver(*typed_, ds_->dict(), mo);
  QueryEngine engine(&solver);
  const std::string q = StudentQuery();

  TurboBgpSolver seq(*typed_, ds_->dict());
  QueryEngine seq_engine(&seq);
  Row row;
  std::vector<Row> expect;
  {
    auto cursor = seq_engine.Open(q);
    ASSERT_TRUE(cursor.ok());
    while (cursor.value().Next(&row)) expect.push_back(row);
  }
  std::sort(expect.begin(), expect.end());

  std::vector<Row> got;
  auto cursor = engine.Open(q, Streaming(8));
  ASSERT_TRUE(cursor.ok());
  while (cursor.value().Next(&row)) got.push_back(row);
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
  EXPECT_LE(cursor.value().peak_channel_rows(), 8u);
}

}  // namespace
}  // namespace turbo::sparql
