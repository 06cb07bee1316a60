// Table 2: number of solutions of the 14 LUBM queries across dataset scales.
// The paper's shape claims: Q1, Q3-Q5, Q7, Q8, Q10-Q12 are constant-solution
// queries (independent of scale); Q2, Q6, Q9, Q13, Q14 are increasing-
// solution queries.
#include "bench_common.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

int main() {
  auto scales = bench::ScalesFromEnv("LUBM_SCALES", {2, 8, 32});
  bench::PrintHeader("Table 2: number of solutions in LUBM queries");
  std::vector<std::string> header{"dataset"};
  for (int i = 1; i <= 14; ++i) header.push_back("Q" + std::to_string(i));
  bench::PrintRow(header[0], {header.begin() + 1, header.end()});

  auto queries = workload::LubmQueries();
  for (uint32_t n : scales) {
    workload::LubmConfig cfg;
    cfg.num_universities = n;
    rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
    graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
    sparql::TurboBgpSolver solver(g, ds.dict());
    std::vector<std::string> cells;
    for (const auto& q : queries) {
      auto r = sparql::Materialize(solver, q);
      cells.push_back(r.ok() ? bench::Num(r.value().rows.size()) : "ERR");
    }
    bench::PrintRow("LUBM" + std::to_string(n), cells);
  }
  return 0;
}
