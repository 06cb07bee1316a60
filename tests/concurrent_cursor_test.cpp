// Concurrent-cursor torture: many threads hammer ONE shared QueryEngine
// with mixed materialized / push / push-stopped-early cursors, across all
// four solver kinds. This is the enforced form of the engine's
// thread-safety contract (query_engine.hpp): Prepare/Open are const, a
// PreparedQuery is shareable, and any number of cursors may be in flight at
// once — the solvers' shared mutable state (cumulative MatchStats, the
// RegionArena pool) is mutex-protected. The suite runs under TSan in CI;
// a data race here is a contract violation, not flakiness.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "workload/lubm.hpp"

namespace turbo::sparql {
namespace {

/// Small but join-shaped dataset: k subjects in chains s -p1-> m -p2-> o
/// with types, so the Turbo solver builds real candidate regions (arena
/// pool, stats merge) rather than degenerate single-edge scans.
rdf::Dataset ChainData(int k) {
  rdf::Dataset ds;
  auto iri = [](const std::string& s) { return rdf::Term::Iri("http://x/" + s); };
  for (int i = 0; i < k; ++i) {
    std::string s = "s" + std::to_string(i);
    std::string m = "m" + std::to_string(i % (k / 4 + 1));
    std::string o = "o" + std::to_string(i % 3);
    ds.Add(iri(s), iri("p1"), iri(m));
    ds.Add(iri(m), iri("p2"), iri(o));
    ds.Add(iri(s), rdf::Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
           iri("S"));
  }
  return ds;
}

const char* const kQueries[] = {
    "SELECT ?s ?m WHERE { ?s <http://x/p1> ?m . }",
    "SELECT ?s ?m ?o WHERE { ?s <http://x/p1> ?m . ?m <http://x/p2> ?o . }",
    "SELECT ?s ?o WHERE { ?s a <http://x/S> . ?s <http://x/p1> ?m . "
    "?m <http://x/p2> ?o . } ORDER BY ?s ?o LIMIT 40",
};

std::vector<Row> Drain(Cursor& cursor) {
  std::vector<Row> rows;
  Row row;
  while (cursor.Next(&row)) rows.push_back(row);
  return rows;
}

/// Push-runs the cursor's plan, keeping at most `take` rows: the sink stops
/// the run once it has them.
std::vector<Row> Push(Cursor& cursor, size_t take = SIZE_MAX) {
  std::vector<Row> rows;
  if (take == 0) return rows;
  cursor.Run([&](const Row& row) {
    rows.push_back(row);
    return rows.size() < take ? EmitResult::kContinue : EmitResult::kStop;
  });
  return rows;
}

class ConcurrentCursors : public ::testing::TestWithParam<QueryEngine::SolverKind> {
 protected:
  static QueryEngine MakeEngine(QueryEngine::SolverKind kind) {
    QueryEngine::Config config;
    config.solver = kind;
    return QueryEngine(ChainData(64), config);
  }
};

TEST_P(ConcurrentCursors, MixedCursorKindsKeepParityUnderContention) {
  QueryEngine engine = MakeEngine(GetParam());

  // Single-threaded references, plus shared prepared plans (one PreparedQuery
  // deliberately used from every thread at once).
  std::vector<std::vector<Row>> expected;
  std::vector<PreparedQuery> prepared;
  for (const char* q : kQueries) {
    auto plan = engine.Prepare(q);
    ASSERT_TRUE(plan.ok()) << plan.message();
    auto cursor = engine.Open(plan.value());
    ASSERT_TRUE(cursor.ok());
    expected.push_back(Drain(cursor.value()));
    ASSERT_FALSE(expected.back().empty());
    prepared.push_back(plan.value());
  }

  constexpr int kThreads = 16;
  constexpr int kIters = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        size_t qi = static_cast<size_t>(t + i) % prepared.size();
        int mode = (t + 7 * i) % 3;
        auto cursor = engine.Open(prepared[qi]);
        if (!cursor.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (mode == 2) {
          // Stopped early: the sink takes a prefix and ends the search,
          // which must end cleanly with exactly that prefix.
          size_t take = 1 + static_cast<size_t>(i) % 5;
          std::vector<Row> prefix = Push(cursor.value(), take);
          const std::vector<Row>& all = expected[qi];
          if (!cursor.value().status().ok() ||
              prefix.size() != std::min(take, all.size()) ||
              !std::equal(prefix.begin(), prefix.end(), all.begin()))
            failures.fetch_add(1);
          continue;
        }
        std::vector<Row> rows = mode == 0 ? Drain(cursor.value()) : Push(cursor.value());
        if (!cursor.value().status().ok() || rows != expected[qi])
          failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, ConcurrentCursors,
    ::testing::Values(QueryEngine::SolverKind::kTurbo,
                      QueryEngine::SolverKind::kTurboDirect,
                      QueryEngine::SolverKind::kSortMerge,
                      QueryEngine::SolverKind::kIndexJoin),
    [](const ::testing::TestParamInfo<QueryEngine::SolverKind>& info) {
      switch (info.param) {
        case QueryEngine::SolverKind::kTurbo: return "Turbo";
        case QueryEngine::SolverKind::kTurboDirect: return "TurboDirect";
        case QueryEngine::SolverKind::kSortMerge: return "SortMerge";
        case QueryEngine::SolverKind::kIndexJoin: return "IndexJoin";
      }
      return "Unknown";
    });

// Shared-stats audit: concurrent Evaluate calls merge into the solver's
// cumulative MatchStats under a lock; totals must equal the serial sum.
TEST(ConcurrentCursorScale, StatsMergeIsCoherentUnderConcurrency) {
  QueryEngine engine(ChainData(64));
  const TurboBgpSolver* solver = engine.turbo_solver();
  ASSERT_NE(solver, nullptr);
  auto plan = engine.Prepare(kQueries[1]);
  ASSERT_TRUE(plan.ok());

  solver->ResetStats();
  {
    auto cursor = engine.Open(plan.value());
    ASSERT_TRUE(cursor.ok());
    Drain(cursor.value());
  }
  uint64_t serial_solutions = solver->last_stats().num_solutions;
  ASSERT_GT(serial_solutions, 0u);

  constexpr int kThreads = 8;
  solver->ResetStats();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      auto cursor = engine.Open(plan.value());
      ASSERT_TRUE(cursor.ok());
      Push(cursor.value());
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(solver->last_stats().num_solutions, serial_solutions * kThreads);
}

}  // namespace
}  // namespace turbo::sparql
