// Microbenchmarks (google-benchmark) for the hot kernels behind the +INT
// optimization and candidate collection: sorted intersection (merge vs
// gallop), k-way intersection, membership probes, and adjacency lookups.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "engine/region_arena.hpp"
#include "graph/data_graph.hpp"
#include "util/rng.hpp"
#include "util/sorted.hpp"
#include "workload/lubm.hpp"

namespace {

std::vector<uint32_t> RandomSorted(size_t n, uint32_t universe, uint64_t seed) {
  turbo::util::Rng rng(seed);
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = static_cast<uint32_t>(rng.Below(universe));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void BM_IntersectBalanced(benchmark::State& state) {
  size_t n = state.range(0);
  auto a = RandomSorted(n, 4 * n, 1);
  auto b = RandomSorted(n, 4 * n, 2);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    turbo::util::IntersectInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_IntersectBalanced)->Range(1 << 8, 1 << 16);

void BM_IntersectSkewed(benchmark::State& state) {
  // Small list vs large list: exercises the galloping path the +INT
  // complexity bound relies on (min(merge, binary-search) in §4.3).
  auto small = RandomSorted(64, 1 << 20, 3);
  auto big = RandomSorted(state.range(0), 1 << 20, 4);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    turbo::util::IntersectInto(small, big, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectSkewed)->Range(1 << 12, 1 << 20);

void BM_IntersectKWay(benchmark::State& state) {
  std::vector<std::vector<uint32_t>> lists;
  for (int i = 0; i < 4; ++i) lists.push_back(RandomSorted(state.range(0), 1 << 18, 10 + i));
  std::vector<uint32_t> out;
  for (auto _ : state) {
    std::vector<std::span<const uint32_t>> spans(lists.begin(), lists.end());
    turbo::util::IntersectKWay(std::move(spans), &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_IntersectKWay)->Range(1 << 8, 1 << 14);

void BM_MembershipProbes(benchmark::State& state) {
  // The non-+INT IsJoinable path: one binary search per candidate.
  auto adj = RandomSorted(state.range(0), 1 << 20, 5);
  auto candidates = RandomSorted(1024, 1 << 20, 6);
  for (auto _ : state) {
    size_t hits = 0;
    for (uint32_t c : candidates) hits += turbo::util::SortedContains(adj, c);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_MembershipProbes)->Range(1 << 10, 1 << 20);

void BM_AdjacencyLookup(benchmark::State& state) {
  // Figure 9 layout: neighbour-type group lookups on a real LUBM graph.
  static const turbo::rdf::Dataset ds = [] {
    turbo::workload::LubmConfig cfg;
    cfg.num_universities = 1;
    return turbo::workload::GenerateLubmClosed(cfg);
  }();
  static const turbo::graph::DataGraph g =
      turbo::graph::DataGraph::Build(ds, turbo::graph::TransformMode::kTypeAware);
  turbo::util::Rng rng(7);
  for (auto _ : state) {
    turbo::VertexId v = static_cast<turbo::VertexId>(rng.Below(g.num_vertices()));
    auto groups = g.TypeGroups(v, turbo::graph::Direction::kOut);
    benchmark::DoNotOptimize(groups.data());
    if (!groups.empty()) {
      auto nbrs = g.GroupNeighbors(turbo::graph::Direction::kOut, groups[0]);
      benchmark::DoNotOptimize(nbrs.data());
    }
  }
}
BENCHMARK(BM_AdjacencyLookup);

void BM_CandidateRegionStore(benchmark::State& state) {
  // ExploreCandidateRegion's per-region lifecycle: reset the RegionArena
  // (memory kept), build `kLists` candidate lists per tree node, look each
  // one up once.
  constexpr uint32_t kNodes = 6;
  constexpr uint32_t kLists = 64;
  constexpr uint32_t kLen = 24;
  turbo::engine::RegionArena arena;
  arena.PrepareQuery(kNodes);
  // Distinct keys: CandidateMap::Insert requires the key to be absent.
  std::vector<turbo::VertexId> parents(kLists);
  for (uint32_t li = 0; li < kLists; ++li) parents[li] = 1000 + li * 131;
  for (auto _ : state) {
    arena.ResetRegion();
    for (uint32_t node = 1; node < kNodes; ++node) {
      const uint32_t depth = node / 2;
      for (uint32_t li = 0; li < kLists; ++li) {
        arena.BeginList(node, depth);
        for (uint32_t k = 0; k < kLen; ++k) arena.Append(depth, parents[li] + k);
        arena.EndList(node, depth, parents[li]);
      }
      for (uint32_t li = 0; li < kLists; ++li) {
        auto span = arena.Lookup(node, depth, parents[li]);
        benchmark::DoNotOptimize(span.data());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * (kNodes - 1) * kLists * kLen);
}
BENCHMARK(BM_CandidateRegionStore);

}  // namespace

BENCHMARK_MAIN();
