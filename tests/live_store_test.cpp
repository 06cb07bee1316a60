// LiveStore unit tests: SPARQL Update parsing, delta visibility, epoch
// pinning, compaction invariance, VALUES / BIND operators, and prepared
// plans that outlive updates and compactions. The cross-solver acceptance
// bar: a cursor opened before an update batch returns rows identical to the
// pre-update run, and a cursor opened after returns rows identical to a
// store rebuilt from scratch over the post-update data — every solver, both
// delivery modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/plan_cache.hpp"
#include "sparql/parser.hpp"
#include "sparql/query_engine.hpp"
#include "store/live_store.hpp"

namespace turbo::store {
namespace {

using sparql::QueryEngine;
using sparql::Row;

constexpr const char* kXsdInt = "http://www.w3.org/2001/XMLSchema#integer";

rdf::Term X(const std::string& s) { return rdf::Term::Iri("http://x/" + s); }

rdf::Dataset PeopleData() {
  rdf::Dataset ds;
  ds.Add(X("alice"), X("knows"), X("bob"));
  ds.Add(X("bob"), X("knows"), X("carol"));
  ds.Add(X("alice"), X("age"), rdf::Term::TypedLiteral("30", kXsdInt));
  ds.Add(X("bob"), X("age"), rdf::Term::TypedLiteral("25", kXsdInt));
  auto type = rdf::Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  for (const char* who : {"alice", "bob", "carol"}) ds.Add(X(who), type, X("Person"));
  return ds;
}

LiveStore::Config StoreConfig(QueryEngine::SolverKind kind) {
  LiveStore::Config config;
  config.engine.solver = kind;
  return config;
}

/// Formats every row of `cursor` — through a push run when `push` is set,
/// through Next otherwise.
std::vector<std::string> FormatAll(sparql::Cursor& cursor, const rdf::Dictionary& dict,
                                   bool push) {
  std::vector<std::string> out;
  auto format = [&](const Row& row) {
    out.push_back(sparql::FormatRow(cursor.var_names(), row, dict,
                                    cursor.local_vocab().get()));
    return sparql::EmitResult::kContinue;
  };
  if (push) {
    cursor.Run(format);
  } else {
    Row row;
    while (cursor.Next(&row)) format(row);
  }
  return out;
}

/// Runs a prepared plan over `snap` and returns the formatted rows, sorted —
/// the byte-level result fingerprint the oracle tests compare.
std::vector<std::string> RunPlanSorted(std::shared_ptr<const LiveStore::Snapshot> snap,
                                       const sparql::PreparedQuery& prepared,
                                       bool push = false) {
  auto cursor = LiveStore::OpenAt(snap, prepared);
  if (!cursor.ok()) {
    ADD_FAILURE() << "open: " << cursor.message();
    return {"<open error>"};
  }
  std::vector<std::string> out = FormatAll(cursor.value(), snap->dict(), push);
  EXPECT_TRUE(cursor.value().status().ok()) << cursor.value().status().message();
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `query` against the store's current epoch (see RunPlanSorted).
std::vector<std::string> RunSorted(const LiveStore& store, const std::string& query,
                                   bool push = false) {
  auto prepared = store.Prepare(query);
  if (!prepared.ok()) {
    ADD_FAILURE() << "prepare: " << prepared.message();
    return {"<prepare error>"};
  }
  return RunPlanSorted(store.snapshot(), prepared.value(), push);
}

const char* const kKnows = "SELECT ?x ?y WHERE { ?x <http://x/knows> ?y . }";
const char* const kTwoHop =
    "SELECT ?x ?z WHERE { ?x <http://x/knows> ?y . ?y <http://x/knows> ?z . }";

class LiveStoreSolvers : public ::testing::TestWithParam<QueryEngine::SolverKind> {};

TEST_P(LiveStoreSolvers, InsertsAreVisibleIncludingNewTerms) {
  LiveStore store(PeopleData(), StoreConfig(GetParam()));
  ASSERT_EQ(store.epoch(), 0u);

  // `dave` does not exist in the base dictionary: both triples route through
  // the term overlay, and the two-hop join must cross base -> delta edges.
  auto result = store.Update(
      "INSERT DATA { <http://x/carol> <http://x/knows> <http://x/dave> . "
      "<http://x/dave> <http://x/knows> <http://x/alice> . }");
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_EQ(result.value().epoch, 1u);
  EXPECT_EQ(result.value().inserted, 2u);
  EXPECT_EQ(result.value().delta_adds, 2u);

  for (bool push : {false, true}) {
    std::vector<std::string> knows = RunSorted(store, kKnows, push);
    ASSERT_EQ(knows.size(), 4u);
    EXPECT_NE(std::find_if(knows.begin(), knows.end(),
                           [](const std::string& r) {
                             return r.find("dave") != std::string::npos;
                           }),
              knows.end());
    // bob -> carol -> dave and dave -> alice -> bob span base and delta.
    std::vector<std::string> hops = RunSorted(store, kTwoHop, push);
    EXPECT_EQ(hops.size(), 4u);
  }

  // A VALUES constant naming an overlay-only term must join the delta.
  std::vector<std::string> via_values = RunSorted(
      store,
      "SELECT ?x ?y WHERE { VALUES ?x { <http://x/dave> } ?x <http://x/knows> ?y . }");
  ASSERT_EQ(via_values.size(), 1u);
  EXPECT_NE(via_values[0].find("alice"), std::string::npos);
}

TEST_P(LiveStoreSolvers, DeletesHideBaseTriples) {
  LiveStore store(PeopleData(), StoreConfig(GetParam()));
  auto result =
      store.Update("DELETE DATA { <http://x/alice> <http://x/knows> <http://x/bob> . }");
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_EQ(result.value().deleted, 1u);
  EXPECT_EQ(result.value().tombstones, 1u);

  for (bool push : {false, true}) {
    std::vector<std::string> knows = RunSorted(store, kKnows, push);
    ASSERT_EQ(knows.size(), 1u);
    EXPECT_EQ(knows[0].find("alice"), std::string::npos);
    EXPECT_TRUE(RunSorted(store, kTwoHop, push).empty());
  }

  // Re-inserting erases the tombstone (set semantics) and restores the row.
  auto back =
      store.Update("INSERT DATA { <http://x/alice> <http://x/knows> <http://x/bob> . }");
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().inserted, 1u);
  EXPECT_EQ(back.value().tombstones, 0u);
  EXPECT_EQ(back.value().delta_adds, 0u);
  EXPECT_EQ(RunSorted(store, kKnows).size(), 2u);
}

TEST_P(LiveStoreSolvers, CursorsPinTheirEpoch) {
  LiveStore store(PeopleData(), StoreConfig(GetParam()));
  std::vector<std::string> before = RunSorted(store, kKnows);

  for (bool push : {false, true}) {
    auto prepared = store.Prepare(kKnows);
    ASSERT_TRUE(prepared.ok());
    std::shared_ptr<const LiveStore::Snapshot> snap = store.snapshot();
    auto pinned = LiveStore::OpenAt(snap, prepared.value());
    ASSERT_TRUE(pinned.ok());

    // Mutate *after* Open, *before* the run: the pinned cursor must
    // still deliver the pre-update rows byte-for-byte.
    ASSERT_TRUE(
        store
            .Update("INSERT DATA { <http://x/eve> <http://x/knows> <http://x/alice> . } "
                    "; DELETE DATA { <http://x/bob> <http://x/knows> <http://x/carol> . }")
            .ok());

    std::vector<std::string> got = FormatAll(pinned.value(), snap->dict(), push);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, before) << "push=" << push;

    // Undo for the next iteration; new cursors see the undone state again.
    ASSERT_TRUE(
        store
            .Update("DELETE DATA { <http://x/eve> <http://x/knows> <http://x/alice> . } "
                    "; INSERT DATA { <http://x/bob> <http://x/knows> <http://x/carol> . }")
            .ok());
    EXPECT_EQ(RunSorted(store, kKnows, push), before);
  }
}

TEST_P(LiveStoreSolvers, MatchesFromScratchOracleAndSurvivesCompaction) {
  LiveStore store(PeopleData(), StoreConfig(GetParam()));
  ASSERT_TRUE(store
                  .Update("INSERT DATA { <http://x/carol> <http://x/knows> "
                          "<http://x/dave> . <http://x/dave> <http://x/knows> "
                          "<http://x/alice> . <http://x/dave> <http://x/age> "
                          "\"7\"^^xsd:integer . }")
                  .ok());
  ASSERT_TRUE(
      store.Update("DELETE DATA { <http://x/bob> <http://x/knows> <http://x/carol> . }")
          .ok());

  // Oracle: the same final state loaded from scratch (no delta, no overlay).
  rdf::Dataset oracle_data = PeopleData();
  oracle_data.Add(X("carol"), X("knows"), X("dave"));
  oracle_data.Add(X("dave"), X("knows"), X("alice"));
  oracle_data.Add(X("dave"), X("age"), rdf::Term::TypedLiteral("7", kXsdInt));
  {  // delete bob->carol from the oracle's triple list
    auto& triples = oracle_data.mutable_triples();
    rdf::Triple doomed{*oracle_data.dict().Find(X("bob")),
                       *oracle_data.dict().Find(X("knows")),
                       *oracle_data.dict().Find(X("carol"))};
    triples.erase(std::remove(triples.begin(), triples.end(), doomed), triples.end());
  }
  LiveStore oracle(std::move(oracle_data), StoreConfig(GetParam()));

  const char* kAggregate =
      "SELECT (SUM(?a) AS ?total) WHERE { ?x <http://x/age> ?a . }";
  for (bool push : {false, true}) {
    for (const char* q : {kKnows, kTwoHop, kAggregate}) {
      EXPECT_EQ(RunSorted(store, q, push), RunSorted(oracle, q, push))
          << q << " push=" << push;
    }
  }
  // The SUM must include the overlay-interned "7" (30 + 25 + 7).
  std::vector<std::string> total = RunSorted(store, kAggregate);
  ASSERT_EQ(total.size(), 1u);
  EXPECT_NE(total[0].find("62"), std::string::npos) << total[0];

  // Compaction folds the delta into a fresh base; results are invariant and
  // further updates start from a clean overlay.
  std::vector<std::string> before = RunSorted(store, kTwoHop);
  uint64_t epoch_before = store.epoch();
  ASSERT_TRUE(store.Compact().ok());
  LiveStore::Stats stats = store.stats();
  EXPECT_EQ(stats.epoch, epoch_before + 1);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.delta_adds, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.overlay_terms, 0u);
  EXPECT_EQ(RunSorted(store, kTwoHop), before);
  for (const char* q : {kKnows, kAggregate})
    EXPECT_EQ(RunSorted(store, q), RunSorted(oracle, q)) << q << " post-compaction";

  ASSERT_TRUE(store
                  .Update("INSERT DATA { <http://x/dave> <http://x/knows> "
                          "<http://x/frank> . }")
                  .ok());
  EXPECT_EQ(RunSorted(store, kKnows).size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, LiveStoreSolvers,
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

// ---------------------------------------------------------------------------
// Update parsing
// ---------------------------------------------------------------------------

TEST(ParseUpdate, AcceptsPrefixesAndCombinedOperations) {
  auto parsed = sparql::ParseUpdate(
      "PREFIX x: <http://x/> "
      "INSERT DATA { x:a x:p x:b . x:b x:p x:c . } ; "
      "DELETE DATA { x:c x:p x:d . }");
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(parsed.value().insert_triples.size(), 2u);
  EXPECT_EQ(parsed.value().delete_triples.size(), 1u);
  EXPECT_EQ(parsed.value().insert_triples[0][0].lexical, "http://x/a");
}

TEST(ParseUpdate, RejectsVariablesAndPatternForms) {
  EXPECT_FALSE(sparql::ParseUpdate("INSERT DATA { ?x <http://x/p> <http://x/o> . }").ok());
  EXPECT_FALSE(sparql::ParseUpdate(
                   "DELETE WHERE { <http://x/a> <http://x/p> <http://x/o> . }")
                   .ok());
  EXPECT_FALSE(sparql::ParseUpdate("SELECT ?x WHERE { ?x ?p ?o . }").ok());
  EXPECT_FALSE(sparql::ParseUpdate("").ok());
}

TEST(LiveStoreSemantics, SetSemanticsAndUnknownTermDeletes) {
  LiveStore store(PeopleData(), LiveStore::Config{});
  // Inserting an existing base triple is a no-op.
  auto redundant =
      store.Update("INSERT DATA { <http://x/alice> <http://x/knows> <http://x/bob> . }");
  ASSERT_TRUE(redundant.ok());
  EXPECT_EQ(redundant.value().inserted, 0u);
  EXPECT_EQ(redundant.value().delta_adds, 0u);
  // Deleting a triple whose terms were never seen is a no-op, not an error.
  auto phantom =
      store.Update("DELETE DATA { <http://x/ghost> <http://x/haunts> <http://x/attic> . }");
  ASSERT_TRUE(phantom.ok());
  EXPECT_EQ(phantom.value().deleted, 0u);
  EXPECT_EQ(phantom.value().tombstones, 0u);
  // Insert-then-delete of a brand-new triple leaves an empty delta.
  ASSERT_TRUE(
      store.Update("INSERT DATA { <http://x/eve> <http://x/knows> <http://x/eve> . }")
          .ok());
  auto gone =
      store.Update("DELETE DATA { <http://x/eve> <http://x/knows> <http://x/eve> . }");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().deleted, 1u);
  EXPECT_EQ(gone.value().delta_adds, 0u);
  EXPECT_EQ(gone.value().tombstones, 0u);
  LiveStore::Stats stats = store.stats();
  EXPECT_EQ(stats.updates_applied, 4u);
  EXPECT_EQ(stats.epoch, 4u);
}

// Insert/delete churn with a compaction per cycle: each cycle inserts four
// fresh literals and deletes the batch two cycles back, so only two batches
// are ever live. Compaction drops the terms of deleted batches, so the
// dictionary stops growing once the churn reaches its steady state.
TEST(LiveStoreSemantics, CompactionDropsTermsNoTripleUses) {
  LiveStore store(PeopleData(), LiveStore::Config{});
  const size_t base_terms = store.snapshot()->dict().size();
  auto batch = [](int cycle) {
    std::string triples;
    for (int k = 0; k < 4; ++k)
      triples += "<http://x/alice> <http://x/note> \"n" + std::to_string(cycle) + "_" +
                 std::to_string(k) + "\" . ";
    return "{ " + triples + "}";
  };
  std::vector<size_t> sizes;
  for (int cycle = 0; cycle < 40; ++cycle) {
    ASSERT_TRUE(store.Update("INSERT DATA " + batch(cycle)).ok());
    if (cycle >= 2) {
      auto deleted = store.Update("DELETE DATA " + batch(cycle - 2));
      ASSERT_TRUE(deleted.ok());
      EXPECT_EQ(deleted.value().deleted, 4u);
    }
    ASSERT_TRUE(store.Compact().ok());
    sizes.push_back(store.snapshot()->dict().size());
  }
  // The base terms, the new predicate and two live batches of literals.
  EXPECT_EQ(sizes[2], base_terms + 1 + 8);
  EXPECT_EQ(sizes.back(), sizes[2]) << "the dictionary grew with the cycle count";
  const std::vector<std::string> notes =
      RunSorted(store, "SELECT ?n WHERE { <http://x/alice> <http://x/note> ?n . }");
  EXPECT_EQ(notes.size(), 8u);
  EXPECT_EQ(RunSorted(store, "SELECT ?p WHERE { ?p a <http://x/Person> . }").size(), 3u);
}

// ---------------------------------------------------------------------------
// VALUES / BIND (the new streaming operators, over a plain engine)
// ---------------------------------------------------------------------------

TEST(ValuesAndBind, ValuesRestrictsAndBindComputes) {
  LiveStore store(PeopleData(), LiveStore::Config{});
  std::vector<std::string> rows = RunSorted(
      store,
      "SELECT ?x ?y WHERE { VALUES ?x { <http://x/alice> <http://x/nobody> } "
      "?x <http://x/knows> ?y . }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].find("alice"), std::string::npos);

  // Parenthesized multi-var form with UNDEF: (bob UNDEF) leaves ?y free.
  std::vector<std::string> multi = RunSorted(
      store,
      "SELECT ?x ?y WHERE { VALUES (?x ?y) { (<http://x/alice> <http://x/bob>) "
      "(<http://x/bob> UNDEF) } ?x <http://x/knows> ?y . }");
  EXPECT_EQ(multi.size(), 2u);

  // BIND copies a bound term into a fresh variable.
  std::vector<std::string> bound = RunSorted(
      store,
      "SELECT ?x ?z WHERE { ?x <http://x/knows> ?y . BIND(?y AS ?z) }");
  ASSERT_EQ(bound.size(), 2u);
  for (const std::string& r : bound)
    EXPECT_TRUE(r.find("bob") != std::string::npos ||
                r.find("carol") != std::string::npos)
        << r;
}

// ---------------------------------------------------------------------------
// Plans across epochs
// ---------------------------------------------------------------------------

// The plan cache keys on query text alone because a plan holds no term ids.
// So one plan prepared at epoch 0 must answer like a from-scratch store both
// after an update that interns overlay terms and after a compaction that
// re-ranks every id.
TEST(PlanCacheEpochs, EpochZeroPlanMatchesOracleAfterUpdateAndCompaction) {
  const char* const kLikes =
      "SELECT ?x ?y ?z WHERE { ?x <http://x/likes> ?y . ?y <http://x/knows> ?z . }";
  LiveStore store(PeopleData(), LiveStore::Config{});
  server::PlanCache cache(4);
  auto first = cache.Get(*store.snapshot()->engine, kLikes);
  ASSERT_TRUE(first.plan.ok()) << first.plan.message();
  EXPECT_FALSE(first.hit);
  const sparql::PreparedQuery plan = first.plan.value();

  // `likes` and `dave` are absent from the base: both intern into the overlay.
  ASSERT_TRUE(
      store
          .Update("INSERT DATA { <http://x/dave> <http://x/likes> <http://x/alice> . "
                  "<http://x/carol> <http://x/likes> <http://x/bob> . "
                  "<http://x/alice> <http://x/likes> <http://x/bob> . }")
          .ok());
  rdf::Dataset oracle_data = PeopleData();
  oracle_data.Add(X("dave"), X("likes"), X("alice"));
  oracle_data.Add(X("carol"), X("likes"), X("bob"));
  oracle_data.Add(X("alice"), X("likes"), X("bob"));
  LiveStore oracle(std::move(oracle_data), LiveStore::Config{});
  const std::vector<std::string> expected = RunSorted(oracle, kLikes);
  ASSERT_EQ(expected.size(), 3u);

  std::shared_ptr<const LiveStore::Snapshot> updated = store.snapshot();
  ASSERT_TRUE(updated->has_delta());
  const std::optional<TermId> overlay_likes = updated->delta.overlay->FindId(X("likes"));
  ASSERT_TRUE(overlay_likes.has_value());
  EXPECT_EQ(RunPlanSorted(updated, plan), expected);
  EXPECT_EQ(RunPlanSorted(updated, plan, /*push=*/true), expected);

  ASSERT_TRUE(store.Compact().ok());
  std::shared_ptr<const LiveStore::Snapshot> compacted = store.snapshot();
  ASSERT_FALSE(compacted->has_delta());
  // The re-rank gave the new predicate a different (low-band) id.
  EXPECT_NE(compacted->dict().Find(X("likes")), overlay_likes);
  EXPECT_EQ(RunPlanSorted(compacted, plan), expected);
  EXPECT_EQ(RunPlanSorted(compacted, plan, /*push=*/true), expected);

  auto again = cache.Get(*compacted->engine, kLikes);
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace turbo::store
