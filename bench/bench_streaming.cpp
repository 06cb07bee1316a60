// Streaming-cursor bench: time-to-first-row and peak buffered rows for the
// solution-heavy LUBM queries, materialized vs producer-thread streaming
// over the bounded delivery channel.
//
// The two metrics the channel architecture exists for:
//   * ttfr_ms — a materialized cursor cannot return its first row until the
//     whole enumeration finishes; a streaming cursor returns it as soon as
//     the first solution reaches the channel;
//   * peak_buffered — materialized mode holds every delivered row at once,
//     streaming holds at most channel_capacity rows in flight (plus any
//     sort/group operator buffers).
//
// A third, machine-independent one: allocs_per_row, the heap allocations of
// one warm Open + drain divided by its rows. Rows cross the channel in flat
// batches and Next() copies into the caller's reused Row, so a streaming
// drain allocates per batch, not per row. Omitted under ASan (the sanitizer
// owns the allocator).
//
// With BENCH_JSON=<path> the run emits the machine-tagged report consumed by
// bench/compare_results.py; bench/results/streaming.json is the checked-in
// reference-VM baseline. Entries are named LUBM<n>/Q<i>/{materialized,
// streaming<cap>} with metrics ttfr_ms / ms / rows / peak_buffered /
// peak_channel / allocs_per_row.
#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

namespace {

constexpr uint32_t kCapacity = 64;

struct Measured {
  double ttfr_ms = 0;        ///< Open + first Next
  double ms = 0;             ///< Open + full drain
  size_t rows = 0;
  uint64_t peak_buffered = 0;  ///< Cursor::peak_buffered_rows
  uint64_t peak_channel = 0;   ///< Cursor::peak_channel_rows
  uint64_t allocs = 0;         ///< heap allocations of the last Open + drain
};

Measured TimeDrain(const sparql::QueryEngine& engine, const std::string& query,
                   const sparql::ExecOptions& opts, int reps) {
  Measured result;
  std::vector<double> ttfr, total;
  for (int i = 0; i < reps; ++i) {
    const uint64_t allocs_before = bench::AllocCount();
    util::WallTimer t;
    auto cursor = engine.Open(query, opts);
    size_t rows = 0;
    double first = 0;
    if (cursor.ok()) {
      sparql::Row row;
      if (cursor.value().Next(&row)) {
        first = t.ElapsedMillis();
        rows = 1;
        while (cursor.value().Next(&row)) ++rows;
      } else {
        first = t.ElapsedMillis();
      }
      result.allocs = bench::AllocCount() - allocs_before;
      result.peak_buffered = cursor.value().peak_buffered_rows();
      result.peak_channel = cursor.value().peak_channel_rows();
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
  report.config["channel_capacity"] = std::to_string(kCapacity);
  report.config["reps"] = std::to_string(reps);

  for (uint32_t n : scales) {
    workload::LubmConfig cfg;
    cfg.num_universities = n;
    util::WallTimer prep;
    rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
    std::printf("\n[LUBM%u: %zu triples, prep %.1fs]\n", n, ds.size(),
                prep.ElapsedSeconds());
    sparql::QueryEngine engine(std::move(ds));

    bench::PrintHeader("streaming vs materialized: time-to-first-row [ms]");
    bench::PrintRow("query", {"mat ttfr", "strm ttfr", "mat peak", "strm peak",
                              "chan peak", "rows"});
    for (int qi : increasing) {
      const std::string& query = queries[qi - 1];
      Measured mat = TimeDrain(engine, query, {}, reps);
      sparql::ExecOptions opts;
      opts.streaming = true;
      opts.channel_capacity = kCapacity;
      Measured strm = TimeDrain(engine, query, opts, reps);

      bench::PrintRow("Q" + std::to_string(qi),
                      {bench::Ms(mat.ttfr_ms), bench::Ms(strm.ttfr_ms),
                       bench::Num(mat.peak_buffered), bench::Num(strm.peak_buffered),
                       bench::Num(strm.peak_channel), bench::Num(strm.rows)});

      const std::string strm_tag = "streaming" + std::to_string(kCapacity);
      for (const auto& [tag, m] :
           {std::pair<std::string, const Measured&>{"materialized", mat},
            std::pair<std::string, const Measured&>{strm_tag, strm}}) {
        bench::BenchResult res;
        res.name = "LUBM" + std::to_string(n) + "/Q" + std::to_string(qi) + "/" + tag;
        res.metrics["ttfr_ms"] = m.ttfr_ms;
        res.metrics["ms"] = m.ms;
        res.metrics["rows"] = static_cast<double>(m.rows);
        res.metrics["peak_buffered"] = static_cast<double>(m.peak_buffered);
        res.metrics["peak_channel"] = static_cast<double>(m.peak_channel);
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
