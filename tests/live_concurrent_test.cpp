// Read-while-write torture for the live store: one writer thread applies a
// deterministic sequence of update batches (and a compaction) while reader
// threads continuously pin snapshots and drain cursors — all four solver
// kinds, through Next and through push runs. Every result must be
// byte-identical to a from-scratch oracle of the epoch the reader pinned:
// that is the MVCC contract (readers never block, never see a half-applied
// batch, never see a later epoch's rows). Compaction builds off the write
// lock and re-homes the updates applied meanwhile, so further tests race it
// against updates and readers and check that updates complete while it
// builds. The suite runs under TSan in CI; a data race here is a contract
// violation, not flakiness.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sparql/query_engine.hpp"
#include "store/live_store.hpp"
#include "workload/lubm.hpp"

namespace turbo::store {
namespace {

using sparql::QueryEngine;
using sparql::Row;

rdf::Term X(const std::string& s) { return rdf::Term::Iri("http://x/" + s); }

const char* const kKnows = "SELECT ?x ?y WHERE { ?x <http://x/knows> ?y . }";
const char* const kTwoHop =
    "SELECT ?x ?z WHERE { ?x <http://x/knows> ?y . ?y <http://x/knows> ?z . }";

/// One ground mutation; batches of these make an update text and, replayed
/// onto a set, the oracle state per epoch.
struct Op {
  bool insert;
  const char* s;
  const char* o;
};

// Epoch e applies kBatches[e-1]. `eve`/`frank`/`gail` are absent from the
// base dictionary, so inserts naming them exercise the term overlay; deletes
// cover base triples (tombstones) and delta adds alike.
const std::vector<std::vector<Op>> kBatches = {
    {{true, "carol", "dave"}, {true, "dave", "alice"}},
    {{false, "alice", "bob"}},
    {{true, "eve", "alice"}, {true, "bob", "eve"}},
    {{false, "dave", "alice"}, {true, "dave", "frank"}},
    {{true, "alice", "bob"}, {false, "bob", "carol"}},
    {{true, "frank", "gail"}, {false, "eve", "alice"}},
};

std::string BatchText(const std::vector<Op>& batch) {
  std::string inserts, deletes;
  for (const Op& op : batch) {
    std::string triple = std::string("<http://x/") + op.s + "> <http://x/knows> " +
                         "<http://x/" + op.o + "> . ";
    (op.insert ? inserts : deletes) += triple;
  }
  std::string text;
  if (!deletes.empty()) text += "DELETE DATA { " + deletes + "}";
  if (!inserts.empty()) {
    if (!text.empty()) text += " ; ";
    text += "INSERT DATA { " + inserts + "}";
  }
  return text;
}

std::set<std::pair<std::string, std::string>> BaseEdges() {
  return {{"alice", "bob"}, {"bob", "carol"}, {"carol", "alice"}, {"dave", "bob"}};
}

rdf::Dataset DataFromEdges(const std::set<std::pair<std::string, std::string>>& edges) {
  rdf::Dataset ds;
  for (const auto& [s, o] : edges) ds.Add(X(s), X("knows"), X(o));
  auto type = rdf::Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  // A little typed ballast so the Turbo solvers build real label sets.
  for (const char* who : {"alice", "bob", "carol", "dave"}) ds.Add(X(who), type, X("P"));
  return ds;
}

/// Formats every row of `cursor`, sorted — read through a push run when
/// `push` is set, through Next otherwise.
std::vector<std::string> DrainSorted(const LiveStore::Snapshot& snap,
                                     sparql::Cursor& cursor, bool push = false) {
  std::vector<std::string> out;
  auto format = [&](const Row& row) {
    out.push_back(sparql::FormatRow(cursor.var_names(), row, snap.dict(),
                                    cursor.local_vocab().get()));
    return sparql::EmitResult::kContinue;
  };
  if (push) {
    cursor.Run(format);
  } else {
    Row row;
    while (cursor.Next(&row)) format(row);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class LiveReadWrite : public ::testing::TestWithParam<QueryEngine::SolverKind> {};

TEST_P(LiveReadWrite, ReadersAlwaysSeeExactlyTheirPinnedEpoch) {
  LiveStore::Config config;
  config.engine.solver = GetParam();

  // Oracle per epoch: replay the batches onto a plain edge set and evaluate
  // each state from scratch. Epochs: 0 = base, 1..N = after batch i,
  // N+1 = post-compaction (same state as N), N+2 = one post-compaction batch.
  const std::vector<Op> post_compact_batch = {{true, "gail", "alice"}};
  std::vector<std::set<std::pair<std::string, std::string>>> states;
  states.push_back(BaseEdges());
  for (const auto& batch : kBatches) {
    auto next = states.back();
    for (const Op& op : batch) {
      if (op.insert) next.insert({op.s, op.o});
      else next.erase({op.s, op.o});
    }
    states.push_back(std::move(next));
  }
  states.push_back(states.back());  // compaction: same visible state
  {
    auto next = states.back();
    for (const Op& op : post_compact_batch) next.insert({op.s, op.o});
    states.push_back(std::move(next));
  }

  std::vector<std::vector<std::string>> expect_knows, expect_hops;
  for (const auto& state : states) {
    LiveStore oracle(DataFromEdges(state), config);
    auto snap = oracle.snapshot();
    auto run = [&](const char* q) {
      auto prepared = oracle.Prepare(q);
      EXPECT_TRUE(prepared.ok());
      auto cursor = LiveStore::OpenAt(snap, prepared.value(), {});
      EXPECT_TRUE(cursor.ok());
      return DrainSorted(*snap, cursor.value());
    };
    expect_knows.push_back(run(kKnows));
    expect_hops.push_back(run(kTwoHop));
  }

  LiveStore store(DataFromEdges(BaseEdges()), config);
  auto prepared_knows = store.Prepare(kKnows);
  auto prepared_hops = store.Prepare(kTwoHop);
  ASSERT_TRUE(prepared_knows.ok() && prepared_hops.ok());

  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (const auto& batch : kBatches) {
      auto result = store.Update(BatchText(batch));
      if (!result.ok()) failures.fetch_add(1);
      std::this_thread::yield();
    }
    if (!store.Compact().ok()) failures.fetch_add(1);
    if (!store.Update(BatchText(post_compact_batch)).ok()) failures.fetch_add(1);
    writer_done.store(true);
  });

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int iter = 0;
      // Keep reading until the writer finishes, then a few verifying passes
      // over the final epoch so late epochs are covered too.
      while (!writer_done.load(std::memory_order_acquire) || iter % 8 != 0) {
        ++iter;
        std::shared_ptr<const LiveStore::Snapshot> snap = store.snapshot();
        if (snap->epoch >= expect_knows.size()) {
          failures.fetch_add(1);
          break;
        }
        const bool push = (r + iter) % 2 == 1;
        bool hops = (r + iter) % 3 == 0;
        auto cursor = LiveStore::OpenAt(
            snap, hops ? prepared_hops.value() : prepared_knows.value());
        if (!cursor.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::vector<std::string> got = DrainSorted(*snap, cursor.value(), push);
        const std::vector<std::string>& want =
            hops ? expect_hops[snap->epoch] : expect_knows[snap->epoch];
        if (!cursor.value().status().ok() || got != want) failures.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Everything settled: the final epoch equals the last oracle state.
  auto final_snap = store.snapshot();
  EXPECT_EQ(final_snap->epoch, states.size() - 1);
  auto cursor = LiveStore::OpenAt(final_snap, prepared_knows.value(), {});
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(DrainSorted(*final_snap, cursor.value()), expect_knows.back());
}

// Compaction racing updates and readers. One thread loops Compact(), one
// applies random batches and records each result epoch with the edge state
// it produced, readers drain pinned snapshots. A reader at epoch e must see
// the state of the last update with epoch <= e: a compaction publishes one
// epoch equal to the latest, whatever it re-homed.
TEST_P(LiveReadWrite, CompactionRacingUpdatesKeepsEveryEpochExact) {
  LiveStore::Config config;
  config.engine.solver = GetParam();
  using EdgeSet = std::set<std::pair<std::string, std::string>>;
  LiveStore store(DataFromEdges(BaseEdges()), config);
  auto prepared_knows = store.Prepare(kKnows);
  auto prepared_hops = store.Prepare(kTwoHop);
  ASSERT_TRUE(prepared_knows.ok() && prepared_hops.ok());

  // Written by the writer only, read after it is joined.
  std::vector<std::pair<uint64_t, EdgeSet>> applied;
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    const char* const names[] = {"alice", "bob", "carol", "dave", "eve", "frank", "gail"};
    std::mt19937 rng(5);
    std::uniform_int_distribution<int> pick(0, 6), coin(0, 1), size(1, 3);
    EdgeSet state = BaseEdges();
    for (int b = 0; b < 80; ++b) {
      std::vector<Op> batch;
      for (int k = size(rng); k > 0; --k)
        batch.push_back({coin(rng) == 1, names[pick(rng)], names[pick(rng)]});
      auto result = store.Update(BatchText(batch));
      if (!result.ok()) {
        failures.fetch_add(1);
        break;
      }
      // Deletes apply before inserts within a request.
      for (const Op& op : batch)
        if (!op.insert) state.erase({op.s, op.o});
      for (const Op& op : batch)
        if (op.insert) state.insert({op.s, op.o});
      applied.emplace_back(result.value().epoch, state);
      std::this_thread::yield();
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::thread compactor([&] {
    while (!writer_done.load(std::memory_order_acquire))
      if (!store.Compact().ok()) failures.fetch_add(1);
  });

  struct Seen {
    uint64_t epoch;
    bool hops;
    std::vector<std::string> rows;
  };
  constexpr int kReaders = 3;
  std::vector<std::vector<Seen>> seen(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // At least one read each, however early the writer finishes.
      for (int iter = 0; iter == 0 || !writer_done.load(std::memory_order_acquire);
           ++iter) {
        std::shared_ptr<const LiveStore::Snapshot> snap = store.snapshot();
        const bool push = iter % 2 == 1;
        const bool hops = (r + iter) % 3 == 0;
        auto cursor = LiveStore::OpenAt(
            snap, hops ? prepared_hops.value() : prepared_knows.value());
        if (!cursor.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::vector<std::string> rows = DrainSorted(*snap, cursor.value(), push);
        if (!cursor.value().status().ok()) failures.fetch_add(1);
        seen[r].push_back({snap->epoch, hops, std::move(rows)});
      }
    });
  }
  writer.join();
  compactor.join();
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_FALSE(applied.empty());

  // From-scratch oracle per distinct state.
  std::map<EdgeSet, std::pair<std::vector<std::string>, std::vector<std::string>>> oracle;
  auto expect = [&](const EdgeSet& state, bool hops) -> const std::vector<std::string>& {
    auto it = oracle.find(state);
    if (it == oracle.end()) {
      LiveStore scratch(DataFromEdges(state), config);
      auto snap = scratch.snapshot();
      auto run = [&](const char* q) {
        auto cursor = LiveStore::OpenAt(snap, scratch.Prepare(q).value(), {});
        return DrainSorted(*snap, cursor.value());
      };
      it = oracle.emplace(state, std::make_pair(run(kKnows), run(kTwoHop))).first;
    }
    return hops ? it->second.second : it->second.first;
  };
  const EdgeSet base = BaseEdges();
  auto state_at = [&](uint64_t epoch) -> const EdgeSet& {
    // The last update with epoch <= `epoch`; `applied` is in epoch order.
    auto it = std::upper_bound(applied.begin(), applied.end(), epoch,
                               [](uint64_t e, const auto& a) { return e < a.first; });
    return it == applied.begin() ? base : std::prev(it)->second;
  };
  size_t checked = 0;
  for (const auto& per_reader : seen) {
    for (const Seen& s : per_reader) {
      EXPECT_EQ(s.rows, expect(state_at(s.epoch), s.hops)) << "epoch " << s.epoch;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);

  // Settled: the final snapshot, and one more compaction of it, equal the
  // oracle of the last update's state.
  for (int pass = 0; pass < 2; ++pass) {
    auto final_snap = store.snapshot();
    EXPECT_EQ(state_at(final_snap->epoch), applied.back().second);
    auto cursor = LiveStore::OpenAt(final_snap, prepared_knows.value(), {});
    ASSERT_TRUE(cursor.ok());
    EXPECT_EQ(DrainSorted(*final_snap, cursor.value()),
              expect(applied.back().second, false));
    ASSERT_TRUE(store.Compact().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, LiveReadWrite,
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

// Background compaction: with a threshold set, updates trigger the
// compactor thread; queries keep answering correctly throughout and the
// delta eventually folds away.
TEST(LiveBackgroundCompaction, ThresholdTriggersCompactorThread) {
  LiveStore::Config config;
  config.engine.solver = QueryEngine::SolverKind::kIndexJoin;
  config.compact_threshold = 4;
  LiveStore store(DataFromEdges(BaseEdges()), config);

  for (int i = 0; i < 12; ++i) {
    std::string who = "n" + std::to_string(i);
    auto result = store.Update("INSERT DATA { <http://x/" + who +
                               "> <http://x/knows> <http://x/alice> . }");
    ASSERT_TRUE(result.ok()) << result.message();
  }
  // Wait (bounded) for the compactor to drain the delta below the threshold.
  for (int spin = 0; spin < 200 && store.stats().delta_adds >= 4; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  LiveStore::Stats stats = store.stats();
  EXPECT_GE(stats.compactions, 1u);

  LiveStore oracle(DataFromEdges([] {
                     auto edges = BaseEdges();
                     for (int i = 0; i < 12; ++i)
                       edges.insert({"n" + std::to_string(i), "alice"});
                     return edges;
                   }()),
                   config);
  auto q = store.Prepare(kKnows);
  ASSERT_TRUE(q.ok());
  auto snap = store.snapshot();
  auto cursor = LiveStore::OpenAt(snap, q.value(), {});
  ASSERT_TRUE(cursor.ok());
  auto oracle_snap = oracle.snapshot();
  auto oracle_q = oracle.Prepare(kKnows);
  ASSERT_TRUE(oracle_q.ok());
  auto oracle_cursor = LiveStore::OpenAt(oracle_snap, oracle_q.value(), {});
  ASSERT_TRUE(oracle_cursor.ok());
  EXPECT_EQ(DrainSorted(*snap, cursor.value()),
            DrainSorted(*oracle_snap, oracle_cursor.value()));
}

// Updates never wait for a rebuild: on LUBM-1, updates applied while a
// Compact() on another thread builds get epochs between the one recorded
// before it and the compaction's own, and the post-compaction snapshot holds
// their effect (the ones after the pin re-homed into its delta).
TEST(LiveCompactionOffLock, UpdatesCompleteWhileCompactionBuilds) {
  workload::LubmConfig lubm;
  lubm.seed = 7;
  lubm.num_universities = 1;
  LiveStore store(workload::GenerateLubmClosed(lubm));
  auto insert = [&](int i) {
    return store.Update("INSERT DATA { <http://x/n" + std::to_string(i) +
                        "> <http://x/knows> <http://x/alice> . }");
  };
  // The first update builds the base index; keep it out of the window.
  ASSERT_TRUE(insert(0).ok());

  const uint64_t e0 = store.epoch();
  std::atomic<bool> compacted{false};
  util::Status compact_status;
  std::thread compactor([&] {
    compact_status = store.Compact();
    compacted.store(true, std::memory_order_release);
  });
  std::set<uint64_t> update_epochs;
  int updates = 1;
  bool ok = true;
  while (ok && !compacted.load(std::memory_order_acquire)) {
    auto result = insert(updates++);
    ok = result.ok();
    if (ok) update_epochs.insert(result.value().epoch);
  }
  compactor.join();
  ASSERT_TRUE(ok);
  ASSERT_TRUE(compact_status.ok()) << compact_status.message();
  // One update after the compaction brackets its epoch.
  auto last = insert(updates++);
  ASSERT_TRUE(last.ok());
  update_epochs.insert(last.value().epoch);

  // Every epoch after e0 is an update's or the compaction's own.
  uint64_t compaction_epoch = e0 + 1;
  while (update_epochs.count(compaction_epoch)) ++compaction_epoch;
  ASSERT_LT(compaction_epoch, last.value().epoch);
  const size_t during = std::distance(update_epochs.upper_bound(e0),
                                      update_epochs.lower_bound(compaction_epoch));
  EXPECT_GE(during, 10u) << "updates waited for the compaction";

  LiveStore::Stats stats = store.stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_FALSE(stats.compacting);
  EXPECT_GE(stats.replayed_updates, 1u);
  // Updates up to the pin folded into the base; the replayed ones and those
  // after the compaction's epoch are the whole delta.
  const size_t after = std::distance(update_epochs.upper_bound(compaction_epoch),
                                     update_epochs.end());
  auto snap = store.snapshot();
  EXPECT_EQ(snap->delta_adds(), stats.replayed_updates + after);
  EXPECT_EQ(snap->tombstone_count(), 0u);
  auto cursor = store.Open("SELECT ?x WHERE { ?x <http://x/knows> <http://x/alice> . }");
  ASSERT_TRUE(cursor.ok()) << cursor.message();
  Row row;
  int rows = 0;
  while (cursor.value().Next(&row)) ++rows;
  EXPECT_EQ(rows, updates);
}

}  // namespace
}  // namespace turbo::store
