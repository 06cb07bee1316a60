// Table 3 (a/b/c): elapsed time of the 14 LUBM queries at three scales for
// the four engines. Expected shapes (paper §7.2):
//  * constant-solution queries (Q1,Q3-Q5,Q7,Q8,Q10-Q12): TurboHOM++ stays
//    flat across scales while the scan+join baseline (RDF-3X stand-in)
//    grows, so the gap widens;
//  * increasing-solution queries (Q2,Q6,Q9,Q13,Q14): everything grows,
//    TurboHOM++ stays fastest;
//  * the index-nested-loop baseline (System-X stand-in) is competitive on
//    point queries but collapses on Q2/Q9.
//
// With BENCH_JSON=<path> the run also emits a machine-tagged JSON report
// (per query: ms, rows, heap allocations) — the input format of
// bench/compare_results.py.
#include "alloc_counter.hpp"
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

int main() {
  auto scales = bench::ScalesFromEnv("LUBM_SCALES", {2, 8, 32});
  auto queries = workload::LubmQueries();
  if (bench::kAllocCountingEnabled) bench::g_alloc_probe = &bench::AllocCount;

  bench::BenchReport report;
  report.bench = "bench_table3_lubm";
  report.machine = bench::MachineTag();
  report.config["reps"] = std::to_string(bench::RepsFromEnv());

  for (uint32_t n : scales) {
    workload::LubmConfig cfg;
    cfg.num_universities = n;
    util::WallTimer prep;
    rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
    bench::EngineSet engines(ds);
    std::printf("\n[LUBM%u: %zu triples, prep %.1fs]\n", n, ds.size(),
                prep.ElapsedSeconds());

    bench::PrintHeader("Table 3: elapsed time in LUBM" + std::to_string(n) + " [ms]");
    std::vector<std::string> header;
    for (int i = 1; i <= 14; ++i) header.push_back("Q" + std::to_string(i));
    bench::PrintRow("engine", header);

    // Each solver is driven through the QueryEngine facade — the same
    // prepared-query + cursor path a service front-end uses.
    struct Row {
      const char* name;
      sparql::QueryEngine engine;
    } rows[] = {
        {"TurboHOM++", sparql::QueryEngine(&engines.turbo)},
        {"SortMerge(RDF-3X-like)", sparql::QueryEngine(&engines.sortmerge)},
        {"IndexJoin(Sys-X-like)", sparql::QueryEngine(&engines.indexjoin)},
        {"TurboHOM(direct)", sparql::QueryEngine(&engines.turbo_direct)},
    };
    for (const auto& row : rows) {
      std::vector<std::string> cells;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        bench::Timed t = bench::TimeQuery(row.engine, queries[qi]);
        cells.push_back(bench::Ms(t.ms));
        bench::BenchResult res;
        res.name = "LUBM" + std::to_string(n) + "/Q" + std::to_string(qi + 1) + "/" +
                   row.name;
        res.metrics["ms"] = t.ms;
        res.metrics["rows"] = static_cast<double>(t.rows);
        if (bench::g_alloc_probe)
          res.metrics["allocs"] = static_cast<double>(t.allocs);
        report.results.push_back(std::move(res));
      }
      bench::PrintRow(row.name, cells);
    }
  }
  bench::MaybeWriteJson(report);
  return 0;
}
