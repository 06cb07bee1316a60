// Unit tests for util/: sorted-set kernels, RNG, parallel-for, channel.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "util/channel.hpp"
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

using IntChannel = Channel<int>;
constexpr auto kNeverAbort = [] { return false; };

TEST(Channel, FifoOrderWithinCapacity) {
  IntChannel ch(4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ch.Push(i, kNeverAbort), IntChannel::Op::kOk);
  EXPECT_EQ(ch.size(), 4u);
  int v;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ch.Pop(&v, kNeverAbort), IntChannel::Op::kOk);
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(ch.peak_size(), 4u);
}

TEST(Channel, PeakCountsWeightNotItems) {
  // Capacity counts items (batch slots); the peak counts their weight (rows).
  struct Length {
    size_t operator()(const std::string& s) const { return s.size(); }
  };
  using BatchChannel = Channel<std::string, Length>;
  BatchChannel ch(2);
  EXPECT_EQ(ch.Push("abc", kNeverAbort), BatchChannel::Op::kOk);
  EXPECT_EQ(ch.Push("de", kNeverAbort), BatchChannel::Op::kOk);
  std::string v;
  EXPECT_EQ(ch.Pop(&v, kNeverAbort), BatchChannel::Op::kOk);
  EXPECT_EQ(ch.Push("f", kNeverAbort), BatchChannel::Op::kOk);
  EXPECT_EQ(ch.peak_size(), 5u);  // "abc" + "de"; "de" + "f" is only 3
  EXPECT_EQ(ch.size(), 2u);
}

TEST(Channel, ZeroCapacityClampsToOne) {
  IntChannel ch(0);
  EXPECT_EQ(ch.capacity(), 1u);
}

TEST(Channel, CloseProducerDrainsThenCloses) {
  IntChannel ch(8);
  ch.Push(1, kNeverAbort);
  ch.Push(2, kNeverAbort);
  ch.CloseProducer();
  int v;
  EXPECT_EQ(ch.Pop(&v, kNeverAbort), IntChannel::Op::kOk);
  EXPECT_EQ(v, 1);
  EXPECT_EQ(ch.Pop(&v, kNeverAbort), IntChannel::Op::kOk);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(ch.Pop(&v, kNeverAbort), IntChannel::Op::kClosed);
}

TEST(Channel, BackpressureBoundsBuffering) {
  // A fast producer against a slow consumer never holds more than capacity.
  IntChannel ch(3);
  constexpr int kTotal = 50;
  std::thread producer([&] {
    for (int i = 0; i < kTotal; ++i) ASSERT_EQ(ch.Push(i, kNeverAbort), IntChannel::Op::kOk);
    ch.CloseProducer();
  });
  std::vector<int> got;
  int v;
  while (ch.Pop(&v, kNeverAbort) == IntChannel::Op::kOk) {
    got.push_back(v);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();
  ASSERT_EQ(got.size(), static_cast<size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) EXPECT_EQ(got[i], i);
  EXPECT_LE(ch.peak_size(), 3u);
}

TEST(Channel, AbortWakesBlockedPush) {
  IntChannel ch(1);
  ASSERT_EQ(ch.Push(0, kNeverAbort), IntChannel::Op::kOk);
  std::atomic<bool> abort{false};
  std::thread trip([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    abort.store(true);
  });
  // Full channel, nobody popping: only the abort predicate can end this.
  EXPECT_EQ(ch.Push(1, [&] { return abort.load(); }), IntChannel::Op::kAborted);
  trip.join();
}

TEST(Channel, AbortWakesBlockedPop) {
  IntChannel ch(1);
  std::atomic<bool> abort{false};
  std::thread trip([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    abort.store(true);
  });
  int v;
  EXPECT_EQ(ch.Pop(&v, [&] { return abort.load(); }), IntChannel::Op::kAborted);
  trip.join();
}

TEST(Channel, CloseConsumerWakesAndRejectsProducers) {
  IntChannel ch(1);
  ASSERT_EQ(ch.Push(0, kNeverAbort), IntChannel::Op::kOk);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.CloseConsumer();
  });
  EXPECT_EQ(ch.Push(1, kNeverAbort), IntChannel::Op::kClosed);
  closer.join();
  // Buffered items were discarded; further pushes fail immediately.
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.Push(2, kNeverAbort), IntChannel::Op::kClosed);
}

TEST(Channel, AbortFreeBlockingPopTakesNoTimedSlices) {
  // The untimed overloads must park on the condvar, not poll: a consumer
  // blocked for ~100ms with no abort probe would previously spin dozens of
  // 2ms wait_for slices; now it takes zero.
  IntChannel ch(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(ch.Push(42, kNeverAbort), IntChannel::Op::kOk);
    ch.CloseProducer();
  });
  int v;
  EXPECT_EQ(ch.Pop(&v), IntChannel::Op::kOk);
  EXPECT_EQ(v, 42);
  EXPECT_EQ(ch.Pop(&v), IntChannel::Op::kClosed);
  producer.join();
  EXPECT_EQ(ch.timed_wait_slices(), 0u);
}

TEST(Channel, AbortFreeBlockingPushTakesNoTimedSlices) {
  IntChannel ch(1);
  ASSERT_EQ(ch.Push(0), IntChannel::Op::kOk);
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int v;
    ASSERT_EQ(ch.Pop(&v), IntChannel::Op::kOk);
    ASSERT_EQ(ch.Pop(&v), IntChannel::Op::kOk);
  });
  // Channel full: the untimed push blocks until the consumer drains, with
  // no timed polling in between.
  EXPECT_EQ(ch.Push(1), IntChannel::Op::kOk);
  consumer.join();
  EXPECT_EQ(ch.timed_wait_slices(), 0u);
}

TEST(Channel, CloseConsumerWakesUntimedPush) {
  // Abandonment must not depend on a polling probe: CloseConsumer alone has
  // to wake a producer parked in the untimed Push.
  IntChannel ch(1);
  ASSERT_EQ(ch.Push(0), IntChannel::Op::kOk);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.CloseConsumer();
  });
  EXPECT_EQ(ch.Push(1), IntChannel::Op::kClosed);
  closer.join();
  EXPECT_EQ(ch.timed_wait_slices(), 0u);
}

TEST(Channel, TimedOverloadsStillCountSlices) {
  // The probing overloads remain available for cancel/deadline paths — and
  // observably slice their waits (this is what the counter is for).
  IntChannel ch(1);
  std::atomic<bool> abort{false};
  std::thread trip([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    abort.store(true);
  });
  int v;
  EXPECT_EQ(ch.Pop(&v, [&] { return abort.load(); }), IntChannel::Op::kAborted);
  trip.join();
  EXPECT_GE(ch.timed_wait_slices(), 1u);
}

}  // namespace
}  // namespace turbo::util
