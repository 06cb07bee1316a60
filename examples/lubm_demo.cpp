// LUBM demo: generate a university dataset, materialize inference, and run
// the 14 official benchmark queries, printing counts, times and the
// engine-side statistics (candidate regions, matching order).
//
//   $ ./examples/lubm_demo [num_universities]
#include <cstdio>
#include <cstdlib>

#include "graph/data_graph.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "util/timer.hpp"
#include "workload/lubm.hpp"

int main(int argc, char** argv) {
  turbo::workload::LubmConfig cfg;
  cfg.num_universities = argc > 1 ? std::atoi(argv[1]) : 2;

  turbo::util::WallTimer timer;
  turbo::rdf::ReasonerStats rstats;
  turbo::rdf::Dataset dataset = turbo::workload::GenerateLubmClosed(cfg, &rstats);
  std::printf("LUBM(%u): %zu original + %zu inferred triples (%.1fs)\n",
              cfg.num_universities, dataset.num_original(), rstats.inferred_triples,
              timer.ElapsedSeconds());

  timer.Reset();
  turbo::graph::DataGraph graph =
      turbo::graph::DataGraph::Build(dataset, turbo::graph::TransformMode::kTypeAware);
  std::printf("type-aware graph: %u vertices, %llu edges, %u labels (%.1fs)\n\n",
              graph.num_vertices(), static_cast<unsigned long long>(graph.num_edges()),
              graph.num_vertex_labels(), timer.ElapsedSeconds());

  turbo::sparql::TurboBgpSolver solver(graph, dataset.dict());
  auto queries = turbo::workload::LubmQueries();
  std::printf("%-5s %12s %12s %10s %12s\n", "query", "solutions", "time[ms]", "regions",
              "CR vertices");
  for (size_t i = 0; i < queries.size(); ++i) {
    solver.ResetStats();
    turbo::util::WallTimer qt;
    auto result = turbo::sparql::Materialize(solver, queries[i]);
    double ms = qt.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "Q%zu failed: %s\n", i + 1, result.message().c_str());
      continue;
    }
    const auto& stats = solver.last_stats();
    std::printf("Q%-4zu %12zu %12.2f %10llu %12llu\n", i + 1, result.value().rows.size(),
                ms, static_cast<unsigned long long>(stats.num_regions),
                static_cast<unsigned long long>(stats.cr_candidate_vertices));
  }
  return 0;
}
