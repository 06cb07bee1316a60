// Row-delivery bench: time to first row and peak buffered rows for the
// solution-heavy LUBM queries, a materialized cursor (Next) against a push
// run (Cursor::Run into a counting sink).
//
// The two metrics the push surface exists for:
//   * ttfr_ms — a materialized cursor cannot return its first row until the
//     whole enumeration finishes; a push run hands it to the sink as soon as
//     the search finds it;
//   * peak_buffered — materialized mode holds every delivered row at once;
//     a push run holds none (plus any sort/group operator buffers, which
//     these queries do not have).
//
// A third, machine-independent one: allocs_per_row, the heap allocations of
// one warm Open + run divided by its rows. A push run hands the sink the
// pipeline's own row, so it allocates per query, not per row. Omitted under
// ASan (the sanitizer owns the allocator).
//
// With BENCH_JSON=<path> the run emits the machine-tagged report consumed by
// bench/compare_results.py; bench/results/streaming.json is the checked-in
// reference-VM baseline. Entries are named LUBM<n>/Q<i>/{materialized,push}
// with metrics ttfr_ms / ms / rows / peak_buffered / allocs_per_row.
#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

namespace {

struct Measured {
  double ttfr_ms = 0;        ///< Open + first row
  double ms = 0;             ///< Open + every row
  size_t rows = 0;
  uint64_t peak_buffered = 0;  ///< Cursor::peak_buffered_rows
  uint64_t allocs = 0;         ///< heap allocations of the last Open + run
};

/// Times `reps` runs of `query`: drained through Next() when `push` is
/// false, through Run() into a sink that only counts when it is true.
Measured TimeRun(const sparql::QueryEngine& engine, const std::string& query, bool push,
                 int reps) {
  Measured result;
  std::vector<double> ttfr, total;
  for (int i = 0; i < reps; ++i) {
    const uint64_t allocs_before = bench::AllocCount();
    util::WallTimer t;
    auto cursor = engine.Open(query);
    size_t rows = 0;
    double first = 0;
    if (cursor.ok()) {
      sparql::Cursor& cur = cursor.value();
      if (push) {
        cur.Run([&](const sparql::Row&) {
          if (rows++ == 0) first = t.ElapsedMillis();
          return sparql::EmitResult::kContinue;
        });
      } else {
        sparql::Row row;
        while (cur.Next(&row))
          if (rows++ == 0) first = t.ElapsedMillis();
      }
      if (rows == 0) first = t.ElapsedMillis();
      result.allocs = bench::AllocCount() - allocs_before;
      result.peak_buffered = cur.peak_buffered_rows();
    }
    double ms = t.ElapsedMillis();
    result.rows = rows;
    ttfr.push_back(first);
    total.push_back(ms);
    if (ms > 2000 && i == 0) break;
  }
  auto trimmed_mean = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    if (v.size() >= 3) {
      double sum = 0;
      for (size_t i = 1; i + 1 < v.size(); ++i) sum += v[i];
      return sum / (v.size() - 2);
    }
    double sum = 0;
    for (double x : v) sum += x;
    return sum / v.size();
  };
  result.ttfr_ms = trimmed_mean(ttfr);
  result.ms = trimmed_mean(total);
  return result;
}

}  // namespace

int main() {
  auto scales = bench::ScalesFromEnv("LUBM_SCALES", {2, 8});
  auto queries = workload::LubmQueries();
  const int reps = bench::RepsFromEnv();
  // The increasing-solution queries of §7.2 (1-based indices): the ones
  // where an unbounded cursor actually streams for a while.
  const int increasing[] = {2, 6, 9, 13, 14};

  bench::BenchReport report;
  report.bench = "bench_streaming";
  report.machine = bench::MachineTag();
  report.config["reps"] = std::to_string(reps);

  for (uint32_t n : scales) {
    workload::LubmConfig cfg;
    cfg.num_universities = n;
    util::WallTimer prep;
    rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
    std::printf("\n[LUBM%u: %zu triples, prep %.1fs]\n", n, ds.size(),
                prep.ElapsedSeconds());
    sparql::QueryEngine engine(std::move(ds));

    bench::PrintHeader("push run vs materialized: time-to-first-row [ms]");
    bench::PrintRow("query", {"mat ttfr", "push ttfr", "mat peak", "push peak", "rows"});
    for (int qi : increasing) {
      const std::string& query = queries[qi - 1];
      Measured mat = TimeRun(engine, query, /*push=*/false, reps);
      Measured push = TimeRun(engine, query, /*push=*/true, reps);

      bench::PrintRow("Q" + std::to_string(qi),
                      {bench::Ms(mat.ttfr_ms), bench::Ms(push.ttfr_ms),
                       bench::Num(mat.peak_buffered), bench::Num(push.peak_buffered),
                       bench::Num(push.rows)});

      for (const auto& [tag, m] :
           {std::pair<std::string, const Measured&>{"materialized", mat},
            std::pair<std::string, const Measured&>{"push", push}}) {
        bench::BenchResult res;
        res.name = "LUBM" + std::to_string(n) + "/Q" + std::to_string(qi) + "/" + tag;
        res.metrics["ttfr_ms"] = m.ttfr_ms;
        res.metrics["ms"] = m.ms;
        res.metrics["rows"] = static_cast<double>(m.rows);
        res.metrics["peak_buffered"] = static_cast<double>(m.peak_buffered);
        if (bench::kAllocCountingEnabled && m.rows > 0)
          res.metrics["allocs_per_row"] =
              static_cast<double>(m.allocs) / static_cast<double>(m.rows);
        report.results.push_back(std::move(res));
      }
    }
  }
  bench::MaybeWriteJson(report);
  return 0;
}
