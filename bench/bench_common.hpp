// Shared infrastructure for the table/figure harnesses: engine bundles,
// paper-style timing (run 5x, drop best and worst, average the remaining 3 —
// §7.1), and table formatting.
//
// Every harness accepts environment overrides so the suite can be scaled up
// toward the paper's sizes on bigger machines:
//   LUBM_SCALES                comma list of university counts
//   BENCH_REPS                 measurement repetitions (default 5)
//   BENCH_JSON                 path for the machine-tagged JSON report —
//                              currently emitted by bench_table3_lubm (see
//                              bench_json.hpp / bench/compare_results.py)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "graph/data_graph.hpp"
#include "sparql/executor.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "util/timer.hpp"

namespace turbo::bench {

inline std::vector<uint32_t> ScalesFromEnv(const char* name,
                                           std::vector<uint32_t> defaults) {
  const char* env = std::getenv(name);
  if (!env) return defaults;
  std::vector<uint32_t> out;
  std::string s(env);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(static_cast<uint32_t>(std::strtoul(s.substr(pos, comma - pos).c_str(),
                                                     nullptr, 10)));
    pos = comma + 1;
  }
  return out.empty() ? defaults : out;
}

inline int RepsFromEnv() {
  const char* env = std::getenv("BENCH_REPS");
  return env ? std::max(1, atoi(env)) : 5;
}

/// Optional heap-allocation probe. A driver that includes alloc_counter.hpp
/// sets this to AllocCount so TimeQuery can report an "allocs" metric; when
/// unset the metric is omitted.
inline uint64_t (*g_alloc_probe)() = nullptr;

/// Paper methodology: execute `reps` times, drop best and worst, average the
/// rest. Long-running queries (>2 s) are measured once to keep the suite
/// usable. Returns (milliseconds, result rows of the last run).
struct Timed {
  double ms = 0;
  size_t rows = 0;
  uint64_t allocs = 0;  ///< heap allocations in the last (warm) repetition
};

inline Timed TimeQuery(const sparql::QueryEngine& engine, const std::string& query,
                       int reps = RepsFromEnv()) {
  Timed result;
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    uint64_t alloc_before = g_alloc_probe ? g_alloc_probe() : 0;
    util::WallTimer t;
    // Parse + plan + execute per repetition (the historical measurement);
    // the cursor is drained to completion so the work matches Execute.
    auto cursor = engine.Open(query);
    size_t rows = 0;
    if (cursor.ok()) {
      sparql::Row row;
      while (cursor.value().Next(&row)) ++rows;
    }
    double ms = t.ElapsedMillis();
    const util::Status& st = cursor.ok() ? cursor.value().status() : cursor.status();
    if (!st.ok()) {
      std::fprintf(stderr, "query error: %s\n", st.message().c_str());
      return result;
    }
    if (g_alloc_probe) result.allocs = g_alloc_probe() - alloc_before;
    result.rows = rows;
    times.push_back(ms);
    if (ms > 2000 && i == 0) break;  // long query: single measurement
  }
  if (times.size() >= 3) {
    std::sort(times.begin(), times.end());
    double sum = 0;
    for (size_t i = 1; i + 1 < times.size(); ++i) sum += times[i];
    result.ms = sum / (times.size() - 2);
  } else {
    double sum = 0;
    for (double t : times) sum += t;
    result.ms = sum / times.size();
  }
  return result;
}

/// Solver-level convenience: wraps the solver in a (non-owning) QueryEngine
/// so every table driver measures the same streaming cursor path.
inline Timed TimeQuery(const sparql::BgpSolver& solver, const std::string& query,
                       int reps = RepsFromEnv()) {
  return TimeQuery(sparql::QueryEngine(&solver), query, reps);
}

/// All four engines over one dataset (the paper's §7 line-up with the
/// DESIGN.md substitutions).
struct EngineSet {
  explicit EngineSet(const rdf::Dataset& ds)
      : aware(graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware)),
        direct(graph::DataGraph::Build(ds, graph::TransformMode::kDirect)),
        index(ds),
        turbo(aware, ds.dict()),
        turbo_direct(direct, ds.dict()),
        sortmerge(index, ds.dict()),
        indexjoin(index, ds.dict()) {}

  graph::DataGraph aware;
  graph::DataGraph direct;
  baseline::TripleIndex index;
  sparql::TurboBgpSolver turbo;         // TurboHOM++ (type-aware)
  sparql::TurboBgpSolver turbo_direct;  // TurboHOM (direct transformation)
  baseline::SortMergeBgpSolver sortmerge;
  baseline::IndexJoinBgpSolver indexjoin;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

inline void PrintRow(const std::string& name, const std::vector<std::string>& cells) {
  std::printf("%-22s", name.c_str());
  for (const auto& c : cells) std::printf(" %12s", c.c_str());
  std::printf("\n");
}

inline std::string Ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

inline std::string Num(uint64_t v) { return std::to_string(v); }

}  // namespace turbo::bench
