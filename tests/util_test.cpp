// Unit tests for util/: sorted-set kernels, RNG, parallel-for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "util/rng.hpp"
#include "util/sorted.hpp"
#include "util/thread_pool.hpp"

namespace turbo::util {
namespace {

TEST(Sorted, ContainsFindsPresentElements) {
  std::vector<uint32_t> v{1, 3, 5, 9, 100};
  for (uint32_t x : v) EXPECT_TRUE(SortedContains(v, x));
}

TEST(Sorted, ContainsRejectsAbsentElements) {
  std::vector<uint32_t> v{1, 3, 5, 9, 100};
  for (uint32_t x : {0u, 2u, 4u, 10u, 101u}) EXPECT_FALSE(SortedContains(v, x));
}

TEST(Sorted, ContainsOnEmpty) {
  std::vector<uint32_t> v;
  EXPECT_FALSE(SortedContains(v, 1));
}

TEST(Sorted, IntersectBasic) {
  std::vector<uint32_t> a{1, 2, 3, 5, 8}, b{2, 3, 4, 8, 9}, out;
  IntersectInto(a, b, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{2, 3, 8}));
}

TEST(Sorted, IntersectEmptySides) {
  std::vector<uint32_t> a{1, 2}, empty, out;
  IntersectInto(a, empty, &out);
  EXPECT_TRUE(out.empty());
  IntersectInto(empty, a, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, IntersectDisjoint) {
  std::vector<uint32_t> a{1, 3, 5}, b{2, 4, 6}, out;
  IntersectInto(a, b, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, IntersectGallopPath) {
  // Size ratio >= 16 triggers the galloping strategy.
  std::vector<uint32_t> small{5, 500, 5000};
  std::vector<uint32_t> big(10000);
  std::iota(big.begin(), big.end(), 0);
  std::vector<uint32_t> out;
  IntersectInto(small, big, &out);
  EXPECT_EQ(out, small);
  IntersectInto(big, small, &out);  // order must not matter
  EXPECT_EQ(out, small);
}

TEST(Sorted, IntersectGallopNoMatch) {
  std::vector<uint32_t> small{10001, 10002, 10003};
  std::vector<uint32_t> big(10000);
  std::iota(big.begin(), big.end(), 0);
  std::vector<uint32_t> out;
  IntersectInto(small, big, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, KWayIntersect) {
  std::vector<uint32_t> a{1, 2, 3, 4, 5}, b{2, 3, 4, 6}, c{0, 3, 4, 5};
  std::vector<uint32_t> out;
  IntersectKWay({a, b, c}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{3, 4}));
}

TEST(Sorted, KWaySingleList) {
  std::vector<uint32_t> a{7, 9};
  std::vector<uint32_t> out;
  IntersectKWay({a}, &out);
  EXPECT_EQ(out, a);
}

TEST(Sorted, KWayEmptyInput) {
  std::vector<uint32_t> out{42};
  IntersectKWay({}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, UnionDeduplicates) {
  std::vector<uint32_t> a{1, 3, 5}, b{3, 4, 5}, c{1};
  std::vector<uint32_t> out;
  UnionInto({a, b, c}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 3, 4, 5}));
}

TEST(Sorted, UnionOfNothing) {
  std::vector<uint32_t> out{9};
  UnionInto({}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Sorted, IntersectInPlaceKeepsCommon) {
  std::vector<uint32_t> v{1, 2, 3, 4};
  std::vector<uint32_t> other{2, 4, 8};
  IntersectInPlace(&v, other);
  EXPECT_EQ(v, (std::vector<uint32_t>{2, 4}));
}

TEST(Sorted, GallopLowerBoundFindsFirstGeq) {
  std::vector<uint32_t> a{2, 4, 6, 8, 10, 12};
  EXPECT_EQ(GallopLowerBound(a, 0, 1), 0u);
  EXPECT_EQ(GallopLowerBound(a, 0, 6), 2u);
  EXPECT_EQ(GallopLowerBound(a, 0, 7), 3u);
  EXPECT_EQ(GallopLowerBound(a, 2, 13), 6u);
  EXPECT_EQ(GallopLowerBound(a, 5, 12), 5u);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, RangeIsInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = r.Range(3, 5);
    EXPECT_GE(x, 3u);
    EXPECT_LE(x, 5u);
    saw_lo |= x == 3;
    saw_hi |= x == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double u = r.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelForDynamic(8, 1000, 7, [&](uint64_t b, uint64_t e, uint32_t) {
    for (uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SequentialFallback) {
  std::vector<int> hits(100, 0);
  ParallelForDynamic(1, 100, 9, [&](uint64_t b, uint64_t e, uint32_t tid) {
    EXPECT_EQ(tid, 0u);
    for (uint64_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ZeroTotalIsNoop) {
  ParallelForDynamic(4, 0, 8, [&](uint64_t, uint64_t, uint32_t) { FAIL(); });
}

}  // namespace
}  // namespace turbo::util
