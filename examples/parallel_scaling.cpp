// Parallel scaling example: the Section 5.2 execution model — starting data
// vertices handed to worker threads in dynamic chunks — demonstrated on the
// most demanding LUBM query (Q9).
//
//   $ ./examples/parallel_scaling [num_universities] [max_threads]
#include <cstdio>
#include <cstdlib>

#include "graph/data_graph.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "util/timer.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

int main(int argc, char** argv) {
  workload::LubmConfig cfg;
  cfg.num_universities = argc > 1 ? std::atoi(argv[1]) : 8;
  uint32_t max_threads = argc > 2 ? std::atoi(argv[2]) : 16;

  std::printf("generating LUBM(%u)...\n", cfg.num_universities);
  rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
  graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
  std::string q9 = workload::LubmQueries()[8];

  std::printf("%8s %12s %12s %10s\n", "threads", "time[ms]", "speed-up", "solutions");
  double base = 0;
  for (uint32_t threads = 1; threads <= max_threads; threads *= 2) {
    engine::MatchOptions opts;
    opts.num_threads = threads;
    opts.chunk_size = 16;  // small dynamic chunks keep skewed regions balanced
    sparql::TurboBgpSolver solver(g, ds.dict(), opts);
    // Warm-up, then measure.
    (void)sparql::Materialize(solver, q9);
    util::WallTimer t;
    auto r = sparql::Materialize(solver, q9);
    double ms = t.ElapsedMillis();
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.message().c_str());
      return 1;
    }
    if (threads == 1) base = ms;
    std::printf("%8u %12.2f %11.2fx %10zu\n", threads, ms, base / ms,
                r.value().rows.size());
  }
  return 0;
}
