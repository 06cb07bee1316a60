// Storage-mode benchmark for the compressed adjacency tentpole: the same
// LUBM workload measured on plain (uncompressed CSR) and compressed
// (delta + group-varint with skip pointers and neighborhood signatures)
// DataGraph storage.
//
// Four surfaces per scale:
//   * footprint  — adjacency + signature bytes per transform, plain vs
//     compressed, with the ratio the nightly gate holds at <= 0.7;
//   * decode     — a full AllNeighbors sweep over every (vertex, direction),
//     reported as decoded-output GB/s (plain is the zero-copy traversal
//     bound the SIMD varint decoder is chasing);
//   * queries    — the 14 LUBM queries on otherwise-identical engines; rows
//     must be identical across modes (machine-independent, gated nightly);
//   * signatures — sig_checks / sig_prunes accumulated over the query mix
//     (prunes must be nonzero on LUBM, gated nightly).
//
// With BENCH_JSON=<path> the run emits the machine-tagged report consumed by
// bench/compare_results.py; bench/results/storage.json is the checked-in
// reference-VM baseline. Entries:
//   LUBM<n>/footprint/<transform>  plain_bytes / compressed_bytes / ratio
//   LUBM<n>/decode                 values / plain_gbps / compressed_gbps
//   LUBM<n>/Q<i>/<mode>            ms / rows / sig_checks / sig_prunes
#include "bench_common.hpp"
#include "bench_json.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

namespace {

struct DecodeSweep {
  uint64_t values = 0;   ///< neighbor ids produced
  double gbps = 0;       ///< decoded output bytes / second
  uint64_t checksum = 0; ///< defeats dead-code elimination; sanity-compared
};

DecodeSweep SweepAllNeighbors(const graph::DataGraph& g, int reps) {
  DecodeSweep out;
  std::vector<VertexId> scratch;
  double best_ms = 0;
  for (int r = 0; r < reps; ++r) {
    uint64_t values = 0, checksum = 0;
    util::WallTimer t;
    for (graph::Direction d : {graph::Direction::kOut, graph::Direction::kIn}) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        auto nbrs = g.AllNeighbors(v, d, scratch);
        values += nbrs.size();
        for (VertexId n : nbrs) checksum += n;
      }
    }
    double ms = t.ElapsedMillis();
    out.values = values;
    out.checksum = checksum;
    if (best_ms == 0 || ms < best_ms) best_ms = ms;
  }
  out.gbps = best_ms > 0
                 ? (static_cast<double>(out.values) * sizeof(VertexId)) /
                       (best_ms * 1e6)
                 : 0;
  return out;
}

}  // namespace

int main() {
  auto scales = bench::ScalesFromEnv("LUBM_SCALES", {1, 8});
  auto queries = workload::LubmQueries();
  const int reps = bench::RepsFromEnv();

  bench::BenchReport report;
  report.bench = "bench_storage";
  report.machine = bench::MachineTag();
  report.config["reps"] = std::to_string(reps);

  for (uint32_t n : scales) {
    workload::LubmConfig cfg;
    cfg.num_universities = n;
    util::WallTimer prep;
    rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
    std::printf("\n[LUBM%u: %zu triples, prep %.1fs]\n", n, ds.size(),
                prep.ElapsedSeconds());
    const std::string tag = "LUBM" + std::to_string(n);

    // ---- Footprint: adjacency + signature bytes per transform. ----
    bench::PrintHeader("adjacency + signature footprint [bytes]");
    bench::PrintRow("transform", {"plain", "compressed", "ratio"});
    for (auto [tname, tmode] :
         {std::pair<const char*, graph::TransformMode>{"typed",
                                                       graph::TransformMode::kTypeAware},
          std::pair<const char*, graph::TransformMode>{"direct",
                                                       graph::TransformMode::kDirect}}) {
      graph::DataGraph plain =
          graph::DataGraph::Build(ds, tmode, graph::StorageMode::kUncompressed);
      graph::DataGraph comp =
          graph::DataGraph::Build(ds, tmode, graph::StorageMode::kCompressed);
      const size_t pb = plain.MemoryUsage().adjacency_total();
      const size_t cb = comp.MemoryUsage().adjacency_total();
      const double ratio = pb ? static_cast<double>(cb) / static_cast<double>(pb) : 0;
      char rbuf[32];
      std::snprintf(rbuf, sizeof(rbuf), "%.3f", ratio);
      bench::PrintRow(tname, {bench::Num(pb), bench::Num(cb), rbuf});

      bench::BenchResult res;
      res.name = tag + "/footprint/" + tname;
      res.metrics["plain_bytes"] = static_cast<double>(pb);
      res.metrics["compressed_bytes"] = static_cast<double>(cb);
      res.metrics["ratio"] = ratio;
      report.results.push_back(std::move(res));

      // The acceptance gate: the engine's working (type-aware) graph must be
      // at least 30% smaller compressed. Machine-independent, so the bench
      // itself fails rather than leaving it to a comparison script.
      if (tmode == graph::TransformMode::kTypeAware && ratio > 0.7) {
        std::fprintf(stderr, "FATAL: %s compressed/plain ratio %.3f exceeds 0.7\n",
                     tag.c_str(), ratio);
        return 1;
      }

      // ---- Decode sweep (type-aware only: the engine's working graph). ----
      if (tmode == graph::TransformMode::kTypeAware) {
        DecodeSweep sp = SweepAllNeighbors(plain, reps);
        DecodeSweep sc = SweepAllNeighbors(comp, reps);
        if (sp.checksum != sc.checksum || sp.values != sc.values) {
          std::fprintf(stderr, "FATAL: decode sweep diverged between modes\n");
          return 1;
        }
        bench::PrintHeader("AllNeighbors sweep throughput [GB/s of decoded ids]");
        bench::PrintRow("plain", {bench::Ms(sp.gbps)});
        bench::PrintRow("compressed", {bench::Ms(sc.gbps)});
        bench::BenchResult dres;
        dres.name = tag + "/decode";
        dres.metrics["values"] = static_cast<double>(sp.values);
        dres.metrics["plain_gbps"] = sp.gbps;
        dres.metrics["compressed_gbps"] = sc.gbps;
        report.results.push_back(std::move(dres));
      }
    }

    // ---- Query times + signature counters, plain vs compressed engines. ----
    sparql::QueryEngine::Config config;
    sparql::QueryEngine plain_engine(ds, config);
    config.storage = graph::StorageMode::kCompressed;
    sparql::QueryEngine comp_engine(ds, config);

    bench::PrintHeader("LUBM queries: plain vs compressed storage [ms]");
    bench::PrintRow("query", {"plain ms", "comp ms", "rows", "sig checks", "sig prunes"});
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const std::string qname = "Q" + std::to_string(qi + 1);
      for (auto [mode, engine] :
           {std::pair<const char*, const sparql::QueryEngine*>{"plain", &plain_engine},
            std::pair<const char*, const sparql::QueryEngine*>{"compressed",
                                                               &comp_engine}}) {
        const sparql::TurboBgpSolver* solver = engine->turbo_solver();
        solver->ResetStats();
        bench::Timed m = bench::TimeQuery(*engine, queries[qi], reps);
        engine::MatchStats stats = solver->last_stats();

        bench::BenchResult res;
        res.name = tag + "/" + qname + "/" + mode;
        res.metrics["ms"] = m.ms;
        res.metrics["rows"] = static_cast<double>(m.rows);
        res.metrics["sig_checks"] = static_cast<double>(stats.sig_checks);
        res.metrics["sig_prunes"] = static_cast<double>(stats.sig_prunes);
        report.results.push_back(std::move(res));

        if (std::string(mode) == "compressed") {
          // The plain entry is the previous row in the report.
          const bench::BenchResult& p = report.results[report.results.size() - 2];
          bench::PrintRow(qname, {bench::Ms(p.metrics.at("ms")), bench::Ms(m.ms),
                                  bench::Num(m.rows), bench::Num(stats.sig_checks),
                                  bench::Num(stats.sig_prunes)});
          if (p.metrics.at("rows") != static_cast<double>(m.rows)) {
            std::fprintf(stderr, "FATAL: %s row counts diverged across storage modes\n",
                         qname.c_str());
            return 1;
          }
        }
      }
    }
  }
  bench::MaybeWriteJson(report);
  return 0;
}
