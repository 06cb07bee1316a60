// Unit suite for the physical operator layer (sparql/operators.hpp): each
// operator's row semantics plus its stop / budget / cancel contract —
//  * a kStop from downstream must propagate upward and suppress any further
//    emission (Union stops remaining branches, Optional suppresses the
//    unmatched fallback, BgpSource unwinds the solver enumeration);
//  * GuardOp converts budget/cancel/deadline trips into an ExecState error
//    plus kStop;
//  * blocking operators (TopK / OrderBy / GroupAggregate) absorb demand
//    during Push and honour kStop while flushing in Finish.
// The shared typed-value helper (sparql/typed_value.hpp) is covered here
// too: xsd:integer/decimal/double coercion, int64 overflow promotion, and
// mixed-type SUM/AVG through GroupAggregateOp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rdf/dictionary.hpp"
#include "rdf/vocabulary.hpp"
#include "sparql/filter_eval.hpp"
#include "sparql/operators.hpp"
#include "sparql/typed_value.hpp"

namespace turbo::sparql {
namespace {

using rdf::Term;

// ---------------------------------------------------------------------------
// typed_value
// ---------------------------------------------------------------------------

TEST(TypedValue, IntegerCoercion) {
  auto n = NumericOfTerm(Term::TypedLiteral("42", rdf::vocab::kXsdInteger));
  ASSERT_TRUE(n);
  EXPECT_TRUE(n->is_int());
  EXPECT_EQ(n->i, 42);
  // Plain literals with integer lexical forms stay exact too.
  auto p = NumericOfTerm(Term::Literal("-7"));
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->is_int());
  EXPECT_EQ(p->i, -7);
}

TEST(TypedValue, DoubleAndDecimalCoercion) {
  // An integer-shaped lexical form with a floating datatype is a double.
  auto d = NumericOfTerm(Term::TypedLiteral("100", rdf::vocab::kXsdDouble));
  ASSERT_TRUE(d);
  EXPECT_FALSE(d->is_int());
  EXPECT_EQ(d->AsDouble(), 100.0);
  auto dec = NumericOfTerm(
      Term::TypedLiteral("2.5", "http://www.w3.org/2001/XMLSchema#decimal"));
  ASSERT_TRUE(dec);
  EXPECT_FALSE(dec->is_int());
  EXPECT_EQ(dec->AsDouble(), 2.5);
  auto frac = NumericOfTerm(Term::Literal("0.25"));
  ASSERT_TRUE(frac);
  EXPECT_FALSE(frac->is_int());
}

TEST(TypedValue, ErrorsAreUnbound) {
  EXPECT_FALSE(NumericOfTerm(Term::Literal("abc")));
  EXPECT_FALSE(NumericOfTerm(Term::Literal("12abc")));
  EXPECT_FALSE(NumericOfTerm(Term::Iri("http://x/12")));
  EXPECT_FALSE(NumericOfTerm(Term::Literal("")));
}

TEST(TypedValue, LexicalOverflowFallsBackToDouble) {
  // 2^63 does not fit int64; the coercion keeps the value as a double
  // instead of erroring or wrapping.
  auto n = NumericOfTerm(Term::TypedLiteral("9223372036854775808", rdf::vocab::kXsdInteger));
  ASSERT_TRUE(n);
  EXPECT_FALSE(n->is_int());
  EXPECT_EQ(n->AsDouble(), 9223372036854775808.0);
}

TEST(TypedValue, AddPromotesOnOverflow) {
  Numeric max = Numeric::Int(std::numeric_limits<int64_t>::max());
  Numeric one = Numeric::Int(1);
  Numeric sum = NumericAdd(max, one);
  EXPECT_FALSE(sum.is_int());
  EXPECT_EQ(sum.AsDouble(), 9223372036854775808.0);
  // Exact while it fits.
  Numeric small = NumericAdd(Numeric::Int(40), Numeric::Int(2));
  EXPECT_TRUE(small.is_int());
  EXPECT_EQ(small.i, 42);
  // Mixed types land in the double domain.
  EXPECT_FALSE(NumericAdd(Numeric::Int(1), Numeric::Dbl(0.5)).is_int());
}

TEST(TypedValue, SpecialDoublesUseXsdLexicalForms) {
  // XSD spells these INF/-INF/NaN; "%g"'s inf/nan are not valid xsd:double.
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(FormatDouble(inf), "INF");
  EXPECT_EQ(FormatDouble(-inf), "-INF");
  EXPECT_EQ(FormatDouble(std::numeric_limits<double>::quiet_NaN()), "NaN");
  // And they round-trip through the shared coercion (strtod reads them).
  auto back = NumericOfTerm(NumericToTerm(Numeric::Dbl(inf)));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->AsDouble(), inf);
}

TEST(TypedValue, ToTermRoundTrips) {
  EXPECT_EQ(NumericToTerm(Numeric::Int(17)),
            Term::TypedLiteral("17", rdf::vocab::kXsdInteger));
  Term d = NumericToTerm(Numeric::Dbl(2.5));
  EXPECT_EQ(d.datatype, rdf::vocab::kXsdDouble);
  auto back = NumericOfTerm(d);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->AsDouble(), 2.5);
  // Shortest round-trip form for an awkward double.
  Term awkward = NumericToTerm(Numeric::Dbl(1.0 / 3.0));
  auto back2 = NumericOfTerm(awkward);
  ASSERT_TRUE(back2);
  EXPECT_EQ(back2->AsDouble(), 1.0 / 3.0);
}

// ---------------------------------------------------------------------------
// Operator harness
// ---------------------------------------------------------------------------

/// A dictionary with the integer literals 0..n-1 plus a few extras; ids are
/// the values, so rows read naturally in tests.
struct Fixture {
  rdf::Dictionary dict;
  std::vector<TermId> nums;

  explicit Fixture(int n = 10) {
    for (int i = 0; i < n; ++i)
      nums.push_back(dict.GetOrAdd(
          Term::TypedLiteral(std::to_string(i), rdf::vocab::kXsdInteger)));
  }
  TermId Lit(const std::string& s) { return dict.GetOrAdd(Term::Literal(s)); }
  TermId Typed(const std::string& s, const char* dt) {
    return dict.GetOrAdd(Term::TypedLiteral(s, dt));
  }
};

/// Collects into `out`, optionally stopping after `stop_after` rows — the
/// downstream-consumer stand-in for kStop contract tests.
class StopSink final : public RowOp {
 public:
  StopSink(std::vector<Row>* out, uint64_t stop_after, ExecState* state)
      : RowOp("StopSink", nullptr, state), out_(out), stop_after_(stop_after) {}
  EmitResult DoPush(const Row& row) override {
    out_->push_back(row);
    return out_->size() >= stop_after_ ? EmitResult::kStop : EmitResult::kContinue;
  }

 private:
  std::vector<Row>* out_;
  uint64_t stop_after_;
};

Row R(std::initializer_list<TermId> ids) { return Row(ids); }

TEST(SliceOp, OffsetLimitAndStopContract) {
  Pipeline pipe;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* slice = pipe.Make<SliceOp>(2, 3, collect, &pipe.state);
  EmitResult last = EmitResult::kContinue;
  int pushed = 0;
  for (TermId i = 0; i < 100 && last == EmitResult::kContinue; ++i) {
    last = slice->Push(R({i}));
    ++pushed;
  }
  // Rows 0,1 skipped; 2,3,4 delivered; the 5th push returns kStop.
  EXPECT_EQ(out.ToRows(), (std::vector<Row>{R({2}), R({3}), R({4})}));
  EXPECT_EQ(pushed, 5);
  EXPECT_EQ(last, EmitResult::kStop);
}

TEST(DistinctOp, DropsDuplicatesKeepsFirst) {
  Pipeline pipe;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* distinct = pipe.Make<DistinctOp>(collect, &pipe.state);
  for (TermId i : {1u, 2u, 1u, 3u, 2u, 1u}) distinct->Push(R({i}));
  EXPECT_EQ(out.ToRows(), (std::vector<Row>{R({1}), R({2}), R({3})}));
  EXPECT_EQ(distinct->rows_in(), 6u);
  EXPECT_EQ(distinct->rows_out(), 3u);
}

TEST(ProjectOp, NarrowsColumns) {
  Pipeline pipe;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* project = pipe.Make<ProjectOp>(std::vector<int>{2, 0}, collect, &pipe.state);
  project->Push(R({10, 11, 12}));
  EXPECT_EQ(out.ToRows(), (std::vector<Row>{R({12, 10})}));
}

TEST(FilterOp, DropsFailingRows) {
  Fixture fx;
  VarRegistry vars;
  vars.GetOrAdd("x");
  FilterEvaluator eval(fx.dict, vars);
  FilterExpr gt = FilterExpr::MakeBinary(
      FilterExpr::Op::kGt, FilterExpr::MakeVar("x"),
      FilterExpr::MakeLiteral(Term::TypedLiteral("5", rdf::vocab::kXsdInteger)));

  Pipeline pipe;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* filter = pipe.Make<FilterOp>("Filter", eval, std::vector<const FilterExpr*>{&gt},
                                     collect, &pipe.state);
  for (TermId id : fx.nums) filter->Push(R({id}));
  ASSERT_EQ(out.size(), 4u);  // 6,7,8,9
  EXPECT_EQ(out.ToRows().front(), R({fx.nums[6]}));
}

TEST(GuardOp, RowBudgetTripsWithErrorAndStop) {
  Pipeline pipe;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* guard = pipe.Make<GuardOp>(3, collect, &pipe.state);
  EmitResult last = EmitResult::kContinue;
  for (TermId i = 0; i < 10 && last == EmitResult::kContinue; ++i)
    last = guard->Push(R({i}));
  EXPECT_EQ(last, EmitResult::kStop);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_FALSE(pipe.state.error.ok());
  EXPECT_NE(pipe.state.error.message().find("row budget"), std::string::npos);
  EXPECT_EQ(pipe.state.before_modifiers, 4u);  // the tripping row was counted
}

TEST(GuardOp, CancelTokenTripsOnPeriodicProbe) {
  Pipeline pipe;
  std::atomic<bool> cancel{true};
  pipe.state.control.cancel = &cancel;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* guard = pipe.Make<GuardOp>(std::numeric_limits<uint64_t>::max(), collect, &pipe.state);
  EmitResult last = EmitResult::kContinue;
  uint64_t pushed = 0;
  while (last == EmitResult::kContinue && pushed < 1000) {
    last = guard->Push(R({static_cast<TermId>(pushed)}));
    ++pushed;
  }
  // The probe is amortized: the 64th row trips it.
  EXPECT_EQ(last, EmitResult::kStop);
  EXPECT_EQ(pushed, 64u);
  EXPECT_NE(pipe.state.error.message().find("cancel"), std::string::npos);
}

TEST(GuardOp, ExpiredDeadlineTrips) {
  Pipeline pipe;
  pipe.state.control.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* guard = pipe.Make<GuardOp>(std::numeric_limits<uint64_t>::max(), collect, &pipe.state);
  EmitResult last = EmitResult::kContinue;
  uint64_t pushed = 0;
  while (last == EmitResult::kContinue && pushed < 1000) {
    last = guard->Push(R({static_cast<TermId>(pushed)}));
    ++pushed;
  }
  EXPECT_EQ(pushed, 64u);
  EXPECT_NE(pipe.state.error.message().find("deadline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sorting operators
// ---------------------------------------------------------------------------

SortKeys KeysOn(const Fixture& fx, std::vector<int> idx, std::vector<bool> asc) {
  SortKeys k;
  k.idx = std::move(idx);
  k.ascending = std::move(asc);
  k.dict = &fx.dict;
  return k;
}

TEST(OrderByOp, SortsStablyAndHonoursStopWhileFlushing) {
  Fixture fx;
  Pipeline pipe;
  std::vector<Row> out;
  auto* sink = pipe.Make<StopSink>(&out, 3, &pipe.state);
  auto* order = pipe.Make<OrderByOp>(KeysOn(fx, {0}, {true}), sink, &pipe.state);
  // Two rows tie on the key (value 2): arrival order must be preserved.
  for (auto row : {R({fx.nums[5], 0u}), R({fx.nums[2], 1u}), R({fx.nums[2], 2u}),
                   R({fx.nums[1], 3u}), R({fx.nums[7], 4u})})
    EXPECT_EQ(order->Push(row), EmitResult::kContinue);  // blocking: absorbs
  ASSERT_TRUE(order->Finish().ok());
  // Only 3 rows delivered (sink stopped the flush), sorted, tie stable.
  EXPECT_EQ(out, (std::vector<Row>{R({fx.nums[1], 3u}), R({fx.nums[2], 1u}),
                                   R({fx.nums[2], 2u})}));
}

TEST(TopKOp, BoundedHeapEqualsStableSortTruncation) {
  Fixture fx(100);
  Pipeline pipe;
  RowBatch topk_out, sort_out;
  auto* topk_collect = pipe.Make<CollectOp>(&topk_out, &pipe.state);
  auto* topk = pipe.Make<TopKOp>(KeysOn(fx, {0}, {true}), 5, topk_collect, &pipe.state);
  auto* sort_collect = pipe.Make<CollectOp>(&sort_out, &pipe.state);
  auto* order = pipe.Make<OrderByOp>(KeysOn(fx, {0}, {true}), sort_collect, &pipe.state);

  // Pseudo-random insertion order with duplicate keys (i % 13).
  for (uint32_t i = 0; i < 100; ++i) {
    Row row = R({fx.nums[(i * 37 + 11) % 13], i});
    topk->Push(row);
    order->Push(row);
  }
  ASSERT_TRUE(topk->Finish().ok());
  ASSERT_TRUE(order->Finish().ok());
  std::vector<Row> sorted = sort_out.ToRows();
  sorted.resize(5);
  EXPECT_EQ(topk_out.ToRows(), sorted);
  // And the heap never held more than its cap.
  EXPECT_LE(pipe.state.peak_buffered, 100u);
}

TEST(TopKOp, DescendingWithNumericKeys) {
  Fixture fx;
  Pipeline pipe;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* topk = pipe.Make<TopKOp>(KeysOn(fx, {0}, {false}), 2, collect, &pipe.state);
  for (TermId i : {3u, 9u, 1u, 7u}) topk->Push(R({fx.nums[i]}));
  ASSERT_TRUE(topk->Finish().ok());
  EXPECT_EQ(out.ToRows(), (std::vector<Row>{R({fx.nums[9]}), R({fx.nums[7]})}));
}

TEST(CompareTermsFn, MixedTypesFormAStrictWeakOrdering) {
  // "2" < "10" numerically, "10" < "1z" lexically, "1z" < "2" lexically —
  // a cycle unless numeric terms form their own rank. Sort a mixed column
  // well past the insertion-sort threshold to catch comparator UB.
  Fixture fx(40);
  TermId z1 = fx.Lit("1z"), abc = fx.Lit("abc");
  // Rank boundary is consistent and numeric terms come first.
  EXPECT_LT(CompareTerms(fx.dict, nullptr, fx.nums[10], z1), 0);
  EXPECT_LT(CompareTerms(fx.dict, nullptr, fx.nums[2], z1), 0);
  EXPECT_GT(CompareTerms(fx.dict, nullptr, abc, fx.nums[39]), 0);

  Pipeline pipe;
  RowBatch collected;
  auto* collect = pipe.Make<CollectOp>(&collected, &pipe.state);
  auto* order = pipe.Make<OrderByOp>(KeysOn(fx, {0}, {true}), collect, &pipe.state);
  for (uint32_t i = 0; i < 40; ++i) {
    order->Push(R({fx.nums[(i * 17 + 5) % 40]}));
    order->Push(R({i % 2 ? z1 : abc}));
  }
  ASSERT_TRUE(order->Finish().ok());
  std::vector<Row> out = collected.ToRows();
  ASSERT_EQ(out.size(), 80u);
  for (size_t i = 0; i + 1 < out.size(); ++i)
    EXPECT_LE(CompareTerms(fx.dict, nullptr, out[i][0], out[i + 1][0]), 0) << i;
  // All 40 numeric rows precede the 40 string rows.
  EXPECT_EQ(out[39][0], fx.nums[39]);
  EXPECT_EQ(out[40][0], z1);
}

TEST(CompareTermsFn, NaNLiteralDemotesToLexicalRank) {
  // "NaN"^^xsd:double parses to NaN, which is unordered against every
  // number — comparing it numerically would make the comparator
  // asymmetric (UB in std::sort). It must rank with the non-numeric terms.
  Fixture fx;
  TermId nan = fx.Typed("NaN", rdf::vocab::kXsdDouble);
  TermId two = fx.nums[2], abc = fx.Lit("abc");
  EXPECT_GT(CompareTerms(fx.dict, nullptr, nan, two), 0);
  EXPECT_LT(CompareTerms(fx.dict, nullptr, two, nan), 0);  // antisymmetric
  // Within the lexical rank NaN compares by lexical form, consistently.
  EXPECT_EQ(CompareTerms(fx.dict, nullptr, nan, abc),
            -CompareTerms(fx.dict, nullptr, abc, nan));

  Pipeline pipe;
  RowBatch collected;
  auto* collect = pipe.Make<CollectOp>(&collected, &pipe.state);
  auto* order = pipe.Make<OrderByOp>(KeysOn(fx, {0}, {true}), collect, &pipe.state);
  for (int i = 0; i < 30; ++i) {
    order->Push(R({fx.nums[static_cast<size_t>(i) % 10]}));
    order->Push(R({nan}));
  }
  ASSERT_TRUE(order->Finish().ok());
  std::vector<Row> out = collected.ToRows();
  ASSERT_EQ(out.size(), 60u);
  for (size_t i = 30; i < 60; ++i) EXPECT_EQ(out[i][0], nan);  // numbers first
}

TEST(RowOpFinish, FlushErrorSuppressesDownstreamFlush) {
  // A cancel tripping during GroupAggregateOp's flush must not let the
  // downstream sort flush a top-k computed from a truncated group set.
  Fixture fx;
  Pipeline pipe;
  LocalVocab local(static_cast<TermId>(fx.dict.size()));
  std::atomic<bool> cancel{false};
  pipe.state.control.cancel = &cancel;

  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* order = pipe.Make<OrderByOp>(KeysOn(fx, {0}, {true}), collect, &pipe.state);
  AggSpec spec;
  spec.agg.star = true;
  auto* group = pipe.Make<GroupAggregateOp>(std::vector<int>{0},
                                            std::vector<AggSpec>{spec}, false, fx.dict,
                                            &local, order, &pipe.state);
  // 200 distinct groups, then cancel before the flush: the every-64-groups
  // probe trips mid-flush.
  for (TermId i = 0; i < 200; ++i) group->Push(R({i, 0u}));
  cancel.store(true);
  ASSERT_TRUE(group->Finish().ok());
  EXPECT_FALSE(pipe.state.error.ok());
  EXPECT_NE(pipe.state.error.message().find("cancel"), std::string::npos);
  EXPECT_TRUE(out.empty());  // OrderBy never flushed its partial buffer
}

TEST(CompareTermsFn, NumericElseLexicalUnboundFirst) {
  Fixture fx;
  TermId two = fx.nums[2], ten = fx.Typed("10", rdf::vocab::kXsdDouble);
  TermId abc = fx.Lit("abc"), abd = fx.Lit("abd");
  EXPECT_LT(CompareTerms(fx.dict, nullptr, two, ten), 0);   // 2 < 10 numerically
  EXPECT_LT(CompareTerms(fx.dict, nullptr, abc, abd), 0);   // lexical
  EXPECT_LT(CompareTerms(fx.dict, nullptr, kInvalidId, two), 0);  // unbound first
  EXPECT_EQ(CompareTerms(fx.dict, nullptr, two, two), 0);
  // Local-vocab ids resolve too.
  LocalVocab local(static_cast<TermId>(fx.dict.size()));
  TermId big = local.Intern(NumericToTerm(Numeric::Int(1000)));
  EXPECT_LT(CompareTerms(fx.dict, &local, two, big), 0);
}

// ---------------------------------------------------------------------------
// GroupAggregateOp
// ---------------------------------------------------------------------------

struct AggFixture : Fixture {
  Pipeline pipe;
  /// Created at Run time, once every test term is in the dictionary —
  /// local ids start above dict.size(), exactly like a cursor execution.
  std::unique_ptr<LocalVocab> local;
  std::vector<Row> out;

  AggFixture() : Fixture(10) {}

  /// Runs rows through GroupAggregate(key = col 0, aggs over col 1).
  std::vector<Row> Run(std::vector<Aggregate> aggs, const std::vector<Row>& rows,
                       bool implicit = false, uint64_t stop_after = 1000) {
    out.clear();
    local = std::make_unique<LocalVocab>(static_cast<TermId>(dict.size()));
    std::vector<AggSpec> specs;
    for (Aggregate& a : aggs) {
      AggSpec s;
      s.agg = a;
      if (!a.star) s.arg_idx = 1;
      specs.push_back(s);
    }
    auto* sink = pipe.Make<StopSink>(&out, stop_after, &pipe.state);
    auto* group = pipe.Make<GroupAggregateOp>(
        implicit ? std::vector<int>{} : std::vector<int>{0}, specs, implicit, dict,
        local.get(), sink, &pipe.state);
    for (const Row& r : rows) EXPECT_EQ(group->Push(r), EmitResult::kContinue);
    EXPECT_TRUE(group->Finish().ok());
    return out;
  }

  Aggregate Agg(Aggregate::Func f, bool distinct = false, bool star = false) {
    Aggregate a;
    a.func = f;
    a.distinct = distinct;
    a.star = star;
    if (!star) a.var = "v";
    return a;
  }
  std::string Lex(TermId id) {
    const rdf::Term* t = ResolveTerm(dict, local.get(), id);
    return t ? t->ToNTriples() : "UNBOUND";
  }
};

TEST(GroupAggregateOpTest, CountStarAndCountVarSkipUnbound) {
  AggFixture fx;
  auto rows = fx.Run({fx.Agg(Aggregate::Func::kCount, false, true),
                      fx.Agg(Aggregate::Func::kCount)},
                     {R({1, fx.nums[1]}), R({1, kInvalidId}), R({2, fx.nums[2]}),
                      R({1, fx.nums[1]})});
  ASSERT_EQ(rows.size(), 2u);  // first-seen group order: key 1, then key 2
  EXPECT_EQ(rows[0][0], 1u);
  EXPECT_EQ(fx.Lex(rows[0][1]), "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(fx.Lex(rows[0][2]), "\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(fx.Lex(rows[1][1]), "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(GroupAggregateOpTest, DistinctInsideAggregates) {
  AggFixture fx;
  auto rows = fx.Run({fx.Agg(Aggregate::Func::kCount, true),
                      fx.Agg(Aggregate::Func::kSum, true)},
                     {R({1, fx.nums[4]}), R({1, fx.nums[4]}), R({1, fx.nums[3]})});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(fx.Lex(rows[0][1]), "\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(fx.Lex(rows[0][2]), "\"7\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(GroupAggregateOpTest, SumMixedTypesAndAvg) {
  AggFixture fx;
  TermId half = fx.Typed("0.5", rdf::vocab::kXsdDouble);
  auto rows = fx.Run({fx.Agg(Aggregate::Func::kSum), fx.Agg(Aggregate::Func::kAvg)},
                     {R({1, fx.nums[2]}), R({1, half}), R({1, fx.nums[3]})});
  ASSERT_EQ(rows.size(), 1u);
  // 2 + 0.5 + 3: integer exactness ends at the first double.
  EXPECT_EQ(fx.Lex(rows[0][1]), "\"5.5\"^^<http://www.w3.org/2001/XMLSchema#double>");
  auto avg = NumericOfTerm(*ResolveTerm(fx.dict, fx.local.get(), rows[0][2]));
  ASSERT_TRUE(avg);
  EXPECT_DOUBLE_EQ(avg->AsDouble(), 5.5 / 3.0);
}

TEST(GroupAggregateOpTest, SumOverflowPromotesToDouble) {
  AggFixture fx;
  TermId big = fx.Typed("9223372036854775807", rdf::vocab::kXsdInteger);
  auto rows =
      fx.Run({fx.Agg(Aggregate::Func::kSum)}, {R({1, big}), R({1, fx.nums[1]})});
  ASSERT_EQ(rows.size(), 1u);
  auto sum = NumericOfTerm(*ResolveTerm(fx.dict, fx.local.get(), rows[0][1]));
  ASSERT_TRUE(sum);
  EXPECT_FALSE(sum->is_int());
  EXPECT_EQ(sum->AsDouble(), 9223372036854775808.0);
}

TEST(GroupAggregateOpTest, NonNumericMakesSumUnboundButCountStillCounts) {
  AggFixture fx;
  TermId word = fx.Lit("word");
  auto rows = fx.Run({fx.Agg(Aggregate::Func::kSum), fx.Agg(Aggregate::Func::kCount)},
                     {R({1, fx.nums[2]}), R({1, word})});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], kInvalidId);  // error-as-unbound
  EXPECT_EQ(fx.Lex(rows[0][2]), "\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(GroupAggregateOpTest, MinMaxUseOrderByComparison) {
  AggFixture fx;
  TermId two = fx.nums[2], ten = fx.Typed("10", rdf::vocab::kXsdDouble);
  auto rows = fx.Run({fx.Agg(Aggregate::Func::kMin), fx.Agg(Aggregate::Func::kMax)},
                     {R({1, ten}), R({1, two}), R({1, kInvalidId})});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], two);  // numeric comparison: 2 < 10
  EXPECT_EQ(rows[0][2], ten);
}

TEST(GroupAggregateOpTest, ImplicitGroupOverEmptyInput) {
  AggFixture fx;
  auto rows = fx.Run({fx.Agg(Aggregate::Func::kCount, false, true),
                      fx.Agg(Aggregate::Func::kSum), fx.Agg(Aggregate::Func::kMin)},
                     {}, /*implicit=*/true);
  ASSERT_EQ(rows.size(), 1u);  // COUNT over nothing still answers
  EXPECT_EQ(fx.Lex(rows[0][0]), "\"0\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(fx.Lex(rows[0][1]), "\"0\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(rows[0][2], kInvalidId);  // MIN of nothing: unbound
}

TEST(GroupAggregateOpTest, ExplicitGroupByOverEmptyInputYieldsNothing) {
  AggFixture fx;
  auto rows = fx.Run({fx.Agg(Aggregate::Func::kCount, false, true)}, {});
  EXPECT_TRUE(rows.empty());
}

TEST(GroupAggregateOpTest, StopDuringFinishFlushIsHonoured) {
  AggFixture fx;
  auto rows = fx.Run({fx.Agg(Aggregate::Func::kCount, false, true)},
                     {R({1, 0u}), R({2, 0u}), R({3, 0u})}, false, /*stop_after=*/2);
  EXPECT_EQ(rows.size(), 2u);  // three groups existed; flush stopped at two
}

// ---------------------------------------------------------------------------
// Pattern operators: Union / Optional / BgpSource (with a scripted solver)
// ---------------------------------------------------------------------------

/// A BgpSolver that emits a fixed row list, honouring stop and control —
/// lets the BgpSource / stop contract be tested without a data graph.
class ScriptedSolver final : public BgpSolver {
 public:
  ScriptedSolver(const rdf::Dictionary& dict, std::vector<Row> rows)
      : dict_(dict), rows_(std::move(rows)) {}

  util::Status Evaluate(const std::vector<TriplePattern>&, const VarRegistry&,
                        const Row&, const std::vector<const FilterExpr*>&,
                        const RowSink& emit, const EvalControl& control) const override {
    for (const Row& r : rows_) {
      if (auto st = control.Check(); !st.ok()) return st;
      ++emitted_;
      if (emit(r) == EmitResult::kStop) return util::Status::Ok();
    }
    return util::Status::Ok();
  }
  const rdf::Dictionary& dict() const override { return dict_; }
  uint64_t emitted() const { return emitted_; }

 private:
  const rdf::Dictionary& dict_;
  std::vector<Row> rows_;
  mutable uint64_t emitted_ = 0;
};

TEST(BgpSourceOp, StopUnwindsTheSolverEnumeration) {
  Fixture fx;
  ScriptedSolver solver(fx.dict, {R({1}), R({2}), R({3}), R({4})});
  VarRegistry vars;
  vars.GetOrAdd("x");
  std::vector<TriplePattern> bgp(1);

  Pipeline pipe;
  std::vector<Row> out;
  auto* sink = pipe.Make<StopSink>(&out, 2, &pipe.state);
  auto* src = pipe.Make<BgpSource>(solver, vars, bgp, std::vector<const FilterExpr*>{},
                                   sink, &pipe.state);
  EXPECT_EQ(src->Push(R({kInvalidId})), EmitResult::kStop);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(solver.emitted(), 2u);  // enumeration stopped, not truncated
}

TEST(BgpSourceOp, SolverErrorBecomesExecStateError) {
  Fixture fx;
  ScriptedSolver solver(fx.dict, {R({1}), R({2})});
  VarRegistry vars;
  vars.GetOrAdd("x");
  std::vector<TriplePattern> bgp(1);

  Pipeline pipe;
  std::atomic<bool> cancel{true};
  pipe.state.control.cancel = &cancel;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* src = pipe.Make<BgpSource>(solver, vars, bgp, std::vector<const FilterExpr*>{},
                                   collect, &pipe.state);
  EXPECT_EQ(src->Push(R({kInvalidId})), EmitResult::kStop);
  EXPECT_FALSE(pipe.state.error.ok());
  EXPECT_TRUE(out.empty());
}

TEST(UnionOpTest, ConcatenatesBranchesPerRowAndStops) {
  Pipeline pipe;
  std::vector<Row> out;
  auto* sink = pipe.Make<StopSink>(&out, 3, &pipe.state);
  auto* u = pipe.Make<UnionOp>(2, sink, &pipe.state);
  // Branch 1 doubles the row's first cell, branch 2 triples it.
  for (int mult : {2, 3}) {
    auto* relay = pipe.Make<RelayOp>(
        [u, mult](const Row& r) {
          Row e = r;
          e[0] *= mult;
          return u->ForwardBranchRow(e);
        },
        &pipe.state);
    u->AddBranch(relay);
  }
  EXPECT_EQ(u->Push(R({1})), EmitResult::kContinue);
  EXPECT_EQ(out, (std::vector<Row>{R({2}), R({3})}));
  // The third delivered row trips the sink: branch 2 must not run.
  EXPECT_EQ(u->Push(R({10})), EmitResult::kStop);
  EXPECT_EQ(out, (std::vector<Row>{R({2}), R({3}), R({20})}));
}

TEST(OptionalOpTest, ExtendsOrFallsBackExactlyOnce) {
  Fixture fx;
  Pipeline pipe;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* opt = pipe.Make<OptionalOp>(collect, &pipe.state);
  // The branch extends rows whose first cell is even, twice.
  auto* relay = pipe.Make<RelayOp>(
      [opt](const Row& r) {
        if (r[0] % 2 != 0) return EmitResult::kContinue;
        Row e = r;
        for (TermId ext : {100u, 200u}) {
          e[1] = ext;
          if (opt->ForwardBranchRow(e) == EmitResult::kStop) return EmitResult::kStop;
        }
        return EmitResult::kContinue;
      },
      &pipe.state);
  opt->SetBranch(relay);
  opt->Push(R({2, kInvalidId}));
  opt->Push(R({3, kInvalidId}));
  EXPECT_EQ(out.ToRows(), (std::vector<Row>{R({2, 100}), R({2, 200}), R({3, kInvalidId})}));
}

TEST(OptionalOpTest, StopMidExtensionSuppressesFallback) {
  Pipeline pipe;
  std::vector<Row> out;
  auto* sink = pipe.Make<StopSink>(&out, 1, &pipe.state);
  auto* opt = pipe.Make<OptionalOp>(sink, &pipe.state);
  auto* relay = pipe.Make<RelayOp>(
      [opt](const Row& r) {
        Row e = r;
        e[1] = 100;
        return opt->ForwardBranchRow(e);
      },
      &pipe.state);
  opt->SetBranch(relay);
  // The extension row satisfies the sink (kStop). The unextended fallback
  // must NOT also fire.
  EXPECT_EQ(opt->Push(R({1, kInvalidId})), EmitResult::kStop);
  EXPECT_EQ(out, (std::vector<Row>{R({1, 100})}));
}

TEST(ExplainChainFn, RendersCountsAndSubChains) {
  Pipeline pipe;
  RowBatch out;
  auto* collect = pipe.Make<CollectOp>(&out, &pipe.state);
  auto* u = pipe.Make<UnionOp>(1, collect, &pipe.state);
  auto* relay =
      pipe.Make<RelayOp>([u](const Row& r) { return u->ForwardBranchRow(r); },
                         &pipe.state);
  u->AddBranch(relay);
  u->Push(R({1}));
  std::string plan = ExplainChain(u);
  EXPECT_NE(plan.find("Union{1 branches}  in=1 out=1"), std::string::npos);
  EXPECT_NE(plan.find("  Relay  in=1 out=0"), std::string::npos);
  EXPECT_NE(plan.find("Collect  in=1"), std::string::npos);
}

}  // namespace
}  // namespace turbo::sparql
