// Unit tests for the baseline substrate: the sorted triple index (counting
// build, merge derivation, tombstone sets) and the two baseline BGP solvers
// (every binding-pattern combination, join ordering, repeated variables,
// pre-bound rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "sparql/parser.hpp"
#include "test_util.hpp"

namespace turbo::baseline {
namespace {

class TripleIndexTest : public ::testing::Test {
 protected:
  TripleIndexTest() {
    ds_ = testing::MakeDataset({
        {"a", "p", "b"},
        {"a", "p", "c"},
        {"a", "q", "b"},
        {"b", "p", "c"},
        {"c", "q", "a"},
        {"c", "q", "a"},  // duplicate: must be deduplicated
    });
    index_ = std::make_unique<TripleIndex>(ds_);
  }
  TermId T(const std::string& name) {
    auto t = ds_.dict().FindIri(testing::TestIri(name));
    return t ? *t : kInvalidId;
  }
  rdf::Dataset ds_;
  std::unique_ptr<TripleIndex> index_;
};

TEST_F(TripleIndexTest, Deduplicates) { EXPECT_EQ(index_->size(), 5u); }

TEST_F(TripleIndexTest, FullScan) {
  EXPECT_EQ(index_->Lookup(kInvalidId, kInvalidId, kInvalidId).size(), 5u);
}

TEST_F(TripleIndexTest, AllBindingPatterns) {
  // (s) (p) (o) (sp) (so) (po) (spo)
  EXPECT_EQ(index_->Lookup(T("a"), kInvalidId, kInvalidId).size(), 3u);
  EXPECT_EQ(index_->Lookup(kInvalidId, T("p"), kInvalidId).size(), 3u);
  EXPECT_EQ(index_->Lookup(kInvalidId, kInvalidId, T("b")).size(), 2u);
  EXPECT_EQ(index_->Lookup(T("a"), T("p"), kInvalidId).size(), 2u);
  EXPECT_EQ(index_->Lookup(T("a"), kInvalidId, T("b")).size(), 2u);
  EXPECT_EQ(index_->Lookup(kInvalidId, T("q"), T("a")).size(), 1u);
  EXPECT_EQ(index_->Lookup(T("a"), T("p"), T("b")).size(), 1u);
  EXPECT_EQ(index_->Lookup(T("a"), T("q"), T("c")).size(), 0u);
}

TEST_F(TripleIndexTest, RangesAreExact) {
  // Every returned triple must actually match the binding.
  auto span = index_->Lookup(T("a"), kInvalidId, T("b"));
  for (const rdf::Triple& t : span) {
    EXPECT_EQ(t.s, T("a"));
    EXPECT_EQ(t.o, T("b"));
  }
}

TEST_F(TripleIndexTest, MissingTermsYieldEmpty) {
  EXPECT_TRUE(index_->Lookup(12345, kInvalidId, kInvalidId).empty());
}

// ---------------------------------------------------------------------------
// Randomized: the counting-pass build and the merge constructor against a
// naive sort, for every bound subset of (s, p, o).
// ---------------------------------------------------------------------------

std::vector<rdf::Triple> RandomTriples(std::mt19937* rng, size_t n, TermId so_range,
                                       TermId p_range) {
  std::uniform_int_distribution<TermId> so(0, so_range - 1), p(0, p_range - 1);
  std::vector<rdf::Triple> out;
  for (size_t i = 0; i < n; ++i) out.push_back({so(*rng), p(*rng), so(*rng)});
  // Explicit duplicates on top of whatever the ranges collide on.
  for (size_t i = 0; i < n / 8; ++i) out.push_back(out[i * 7 % n]);
  return out;
}

/// The sort key of the order a lookup with bound subset `mask` (s = 4,
/// p = 2, o = 1) scans: its bound components form a prefix of that order.
std::tuple<TermId, TermId, TermId> OrderKey(int mask, const rdf::Triple& t) {
  switch (mask) {
    case 5: return {t.s, t.o, t.p};          // s o
    case 3: return {t.p, t.o, t.s};          // p o
    case 2: return {t.p, t.s, t.o};          // p
    case 1: return {t.o, t.s, t.p};          // o
    default: return {t.s, t.p, t.o};         // s p o, s p, s, none
  }
}

/// Every lookup of `index` returns exactly the naive answer over `expected`
/// (any multiset; deduplicated here), in its order's sort order. Probes bind
/// the components of some indexed triples and of an absent id.
void ExpectSameSpans(const TripleIndex& index, std::vector<rdf::Triple> expected,
                     TermId absent) {
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  ASSERT_EQ(index.size(), expected.size());
  const size_t n_probes = std::min<size_t>(expected.size(), 48);
  std::vector<rdf::Triple> probes(expected.begin(), expected.begin() + n_probes);
  probes.push_back({absent, absent, absent});
  if (!expected.empty()) probes.push_back({expected[0].s, absent, expected.back().o});
  for (const rdf::Triple& probe : probes) {
    for (int mask = 0; mask < 8; ++mask) {
      const TermId s = mask & 4 ? probe.s : kInvalidId;
      const TermId p = mask & 2 ? probe.p : kInvalidId;
      const TermId o = mask & 1 ? probe.o : kInvalidId;
      std::vector<rdf::Triple> want;
      for (const rdf::Triple& t : expected)
        if ((s == kInvalidId || t.s == s) && (p == kInvalidId || t.p == p) &&
            (o == kInvalidId || t.o == o))
          want.push_back(t);
      std::sort(want.begin(), want.end(),
                [&](const rdf::Triple& a, const rdf::Triple& b) {
                  return OrderKey(mask, a) < OrderKey(mask, b);
                });
      std::span<const rdf::Triple> got = index.Lookup(s, p, o);
      ASSERT_EQ(std::vector<rdf::Triple>(got.begin(), got.end()), want)
          << "mask " << mask << " probe " << probe.s << " " << probe.p << " " << probe.o;
    }
  }
}

struct RandomCase {
  size_t n;
  TermId so_range, p_range;
};

// Sizes and id ranges on both sides of the counting/comparison cut-over:
// dense ids (counting passes), sparse ids (comparison sorts) and a mix
// (dense predicates, sparse subjects and objects).
const RandomCase kRandomCases[] = {
    {0, 4, 4},        {1, 4, 4},          {2, 1000, 1000},   {17, 1000, 1000},
    {500, 1000, 8},   {5000, 64, 8},      {5000, 1 << 20, 8}, {5000, 1 << 20, 1 << 20},
    {40000, 20000, 16},
};

TEST(TripleIndexRandom, BuildMatchesNaiveSort) {
  std::mt19937 rng(11);
  for (const RandomCase& c : kRandomCases) {
    SCOPED_TRACE(::testing::Message() << "n " << c.n << " ranges " << c.so_range << "/"
                                      << c.p_range);
    std::vector<rdf::Triple> triples = RandomTriples(&rng, c.n, c.so_range, c.p_range);
    ExpectSameSpans(TripleIndex(triples), triples, c.so_range + c.p_range);
  }
}

TEST(TripleIndexRandom, MergeMatchesNaiveSort) {
  std::mt19937 rng(12);
  for (const RandomCase& c : kRandomCases) {
    SCOPED_TRACE(::testing::Message() << "n " << c.n << " ranges " << c.so_range << "/"
                                      << c.p_range);
    std::vector<rdf::Triple> current = RandomTriples(&rng, c.n, c.so_range, c.p_range);
    TripleIndex index(current);
    // Three generations, each adding new and present triples (with
    // duplicates) and removing present, absent and just-added ones.
    for (int gen = 0; gen < 3; ++gen) {
      std::vector<rdf::Triple> add =
          RandomTriples(&rng, c.n / 4 + 3, c.so_range, c.p_range);
      std::vector<rdf::Triple> remove = RandomTriples(&rng, 3, c.so_range, c.p_range);
      for (size_t i = 0; i < current.size(); i += 3) remove.push_back(current[i]);
      if (!current.empty()) add.push_back(current[0]);
      remove.push_back(add[0]);

      std::set<rdf::Triple> want(current.begin(), current.end());
      want.insert(add.begin(), add.end());
      for (const rdf::Triple& t : remove) want.erase(t);
      current.assign(want.begin(), want.end());

      index = TripleIndex(index, add, remove);
      ExpectSameSpans(index, current, c.so_range + c.p_range);
    }
  }
}

TEST(TombstoneSetRandom, BuildAndMergeMatchNaiveSet) {
  std::mt19937 rng(13);
  for (const RandomCase& c : kRandomCases) {
    std::vector<rdf::Triple> first = RandomTriples(&rng, c.n, c.so_range, c.p_range);
    std::set<rdf::Triple> want(first.begin(), first.end());
    TombstoneSet tombs(first);
    for (int gen = 0; gen < 3; ++gen) {
      std::vector<rdf::Triple> add =
          RandomTriples(&rng, c.n / 4 + 3, c.so_range, c.p_range);
      std::vector<rdf::Triple> remove = RandomTriples(&rng, 3, c.so_range, c.p_range);
      size_t i = 0;
      for (const rdf::Triple& t : want)
        if (i++ % 2 == 0) remove.push_back(t);
      remove.push_back(add[0]);
      want.insert(add.begin(), add.end());
      for (const rdf::Triple& t : remove) want.erase(t);
      tombs = TombstoneSet(tombs, add, remove);

      // Same size and every expected member present: the same set.
      ASSERT_EQ(tombs.size(), want.size());
      EXPECT_EQ(tombs.empty(), want.empty());
      for (const rdf::Triple& t : want) ASSERT_EQ(tombs.count(t), 1u);
      for (const rdf::Triple& t : add) EXPECT_EQ(tombs.count(t), want.count(t));
      for (const rdf::Triple& t : remove) EXPECT_EQ(tombs.count(t), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Solver-level tests (shared across both baselines via a parameterized
// fixture).
// ---------------------------------------------------------------------------

enum class Kind { kSortMerge, kIndexJoin };

class BaselineSolverTest : public ::testing::TestWithParam<Kind> {
 protected:
  BaselineSolverTest() {
    ds_ = testing::MakeDataset({
        {"alice", "knows", "bob"},
        {"bob", "knows", "carol"},
        {"carol", "knows", "alice"},
        {"alice", "worksFor", "acme"},
        {"bob", "worksFor", "acme"},
        {"narc", "knows", "narc"},  // self loop
    });
    index_ = std::make_unique<TripleIndex>(ds_);
    if (GetParam() == Kind::kSortMerge)
      solver_ = std::make_unique<SortMergeBgpSolver>(*index_, ds_.dict());
    else
      solver_ = std::make_unique<IndexJoinBgpSolver>(*index_, ds_.dict());
  }

  /// Evaluates a BGP given as SPARQL text; returns distinct + total counts.
  std::pair<size_t, size_t> Eval(const std::string& where, sparql::Row bound = {}) {
    auto q = sparql::ParseQuery("SELECT * WHERE { " + where + " }");
    EXPECT_TRUE(q.ok()) << q.message();
    sparql::VarRegistry vars;
    for (const auto& tp : q.value().where.triples)
      for (const auto* pt : {&tp.s, &tp.p, &tp.o})
        if (pt->is_var()) vars.GetOrAdd(pt->var);
    bound.resize(vars.size(), kInvalidId);
    std::set<sparql::Row> distinct;
    size_t total = 0;
    auto st = solver_->Evaluate(q.value().where.triples, vars, bound, {},
                                [&](const sparql::Row& r) {
                                  distinct.insert(r);
                                  ++total;
                                  return sparql::EmitResult::kContinue;
                                });
    EXPECT_TRUE(st.ok()) << st.message();
    return {distinct.size(), total};
  }

  TermId T(const std::string& name) { return *ds_.dict().FindIri(testing::TestIri(name)); }

  rdf::Dataset ds_;
  std::unique_ptr<TripleIndex> index_;
  std::unique_ptr<sparql::BgpSolver> solver_;
};

TEST_P(BaselineSolverTest, SinglePattern) {
  EXPECT_EQ(Eval("?x <http://t/knows> ?y .").second, 4u);
}

TEST_P(BaselineSolverTest, ChainJoin) {
  EXPECT_EQ(Eval("?x <http://t/knows> ?y . ?y <http://t/knows> ?z .").second, 4u);
}

TEST_P(BaselineSolverTest, TriangleJoin) {
  EXPECT_EQ(
      Eval("?x <http://t/knows> ?y . ?y <http://t/knows> ?z . ?z <http://t/knows> ?x .")
          .second,
      4u);  // 3 rotations + the self-loop triple (narc,narc,narc)
}

TEST_P(BaselineSolverTest, RepeatedVariableWithinPattern) {
  EXPECT_EQ(Eval("?x <http://t/knows> ?x .").second, 1u);  // narc only
}

TEST_P(BaselineSolverTest, ConstantAnchors) {
  EXPECT_EQ(Eval("<http://t/alice> <http://t/knows> ?y .").second, 1u);
  EXPECT_EQ(Eval("?x <http://t/worksFor> <http://t/acme> .").second, 2u);
  EXPECT_EQ(Eval("<http://t/alice> <http://t/knows> <http://t/bob> .").second, 1u);
}

TEST_P(BaselineSolverTest, UnknownConstantYieldsNoRows) {
  EXPECT_EQ(Eval("<http://t/ghost> <http://t/knows> ?y .").second, 0u);
}

TEST_P(BaselineSolverTest, VariablePredicate) {
  EXPECT_EQ(Eval("<http://t/alice> ?p ?y .").second, 2u);  // knows + worksFor
}

TEST_P(BaselineSolverTest, CartesianWhenDisconnected) {
  EXPECT_EQ(Eval("?x <http://t/worksFor> <http://t/acme> . "
                 "?a <http://t/knows> <http://t/carol> .")
                .second,
            2u);  // 2 workers x 1 knower
}

TEST_P(BaselineSolverTest, PreBoundRowActsAsConstant) {
  // Bind ?x = alice before evaluation (the executor's OPTIONAL mechanism).
  auto q = sparql::ParseQuery("SELECT * WHERE { ?x <http://t/knows> ?y . }");
  ASSERT_TRUE(q.ok());
  sparql::VarRegistry vars;
  int vx = vars.GetOrAdd("x");
  vars.GetOrAdd("y");
  sparql::Row bound(vars.size(), kInvalidId);
  bound[vx] = T("alice");
  size_t count = 0;
  auto st = solver_->Evaluate(q.value().where.triples, vars, bound, {},
                              [&](const sparql::Row& r) {
                                EXPECT_EQ(r[vx], T("alice"));
                                ++count;
                                return sparql::EmitResult::kContinue;
                              });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, 1u);
}

TEST_P(BaselineSolverTest, EmptyBgpEmitsBoundRow) {
  auto [distinct, total] = Eval("");
  EXPECT_EQ(total, 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, BaselineSolverTest,
                         ::testing::Values(Kind::kSortMerge, Kind::kIndexJoin));

}  // namespace
}  // namespace turbo::baseline
