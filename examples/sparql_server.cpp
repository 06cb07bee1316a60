// sparql_server: serves SPARQL over HTTP from one shared QueryEngine — the
// README's "Serving SPARQL over HTTP" quickstart binary.
//
//   sparql_server --lubm 1 --port 8080
//   curl 'http://127.0.0.1:8080/sparql?query=SELECT+?x+WHERE+{...}'
//   curl 'http://127.0.0.1:8080/stats'
//
// Data loading mirrors sparql_shell (--nt / --ttl / --snap / --lubm, with
// --engine / --threads / --no-inference); serving knobs are --port (0 picks
// a free port, printed on stderr), --workers, --queue-depth,
// --default-timeout-ms, --max-row-budget, --plan-cache, --read-timeout-ms
// (idle keep-alive connections are closed after it; 0 = never). The engine is
// wrapped in a LiveStore, so POST /update (INSERT DATA / DELETE DATA) works
// out of the box and query responses carry X-Epoch; --compact-threshold N
// enables background compaction once the delta reaches N entries. Runs
// until SIGINT / SIGTERM, then drains and exits cleanly.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "graph/graph_snapshot.hpp"
#include "rdf/loader.hpp"
#include "rdf/reasoner.hpp"
#include "rdf/snapshot.hpp"
#include "server/sparql_server.hpp"
#include "sparql/query_engine.hpp"
#include "store/live_store.hpp"
#include "util/common.hpp"
#include "workload/lubm.hpp"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace turbo;
  std::string nt_path, ttl_path, snap_path, engine_name = "turbo",
                                            storage_name = "plain";
  uint32_t lubm = 0, threads = 1, load_threads = 0;
  size_t compact_threshold = 0;
  bool direct = false, inference = true;
  server::ServerConfig server_config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--nt") nt_path = next();
    else if (arg == "--ttl") ttl_path = next();
    else if (arg == "--snap") snap_path = next();
    else if (arg == "--lubm") lubm = std::atoi(next());
    else if (arg == "--engine") engine_name = next();
    else if (arg == "--storage") storage_name = next();
    else if (arg == "--threads") threads = std::atoi(next());
    else if (arg == "--load-threads") load_threads = std::atoi(next());
    else if (arg == "--no-inference") inference = false;
    else if (arg == "--direct") direct = true;
    else if (arg == "--port") server_config.port = static_cast<uint16_t>(std::atoi(next()));
    else if (arg == "--workers") server_config.workers = std::atoi(next());
    else if (arg == "--queue-depth") server_config.queue_depth = std::atoi(next());
    else if (arg == "--plan-cache") server_config.plan_cache_capacity = std::strtoull(next(), nullptr, 10);
    else if (arg == "--default-timeout-ms")
      server_config.default_timeout_ms = std::strtoull(next(), nullptr, 10);
    else if (arg == "--max-row-budget")
      server_config.max_row_budget = std::strtoull(next(), nullptr, 10);
    else if (arg == "--read-timeout-ms")
      server_config.read_timeout_ms = std::strtoull(next(), nullptr, 10);
    else if (arg == "--compact-threshold")
      compact_threshold = std::strtoull(next(), nullptr, 10);
    else return Fail("unknown argument '" + arg + "'");
  }
  if (nt_path.empty() && ttl_path.empty() && snap_path.empty() && lubm == 0)
    return Fail("need one of --nt <file>, --ttl <file>, --snap <file>, --lubm <N>");

  rdf::Dataset ds;
  std::vector<rdf::SnapshotSection> snap_extras;
  if (!snap_path.empty()) {
    auto loaded = rdf::LoadSnapshotFile(snap_path, load_threads, &snap_extras);
    if (!loaded.ok()) return Fail(loaded.message());
    ds = loaded.take();
    inference = false;  // snapshots carry their closure
  } else if (!nt_path.empty() || !ttl_path.empty()) {
    rdf::LoadOptions load_opts;
    load_opts.threads = load_threads;
    auto loaded = nt_path.empty() ? rdf::LoadTurtleFile(ttl_path, load_opts)
                                  : rdf::LoadNTriplesFile(nt_path, load_opts);
    if (!loaded.ok()) return Fail(loaded.message());
    ds = std::move(loaded.value().dataset);
  } else {
    workload::LubmConfig cfg;
    cfg.num_universities = lubm;
    ds = workload::GenerateLubm(cfg);
  }
  if (inference) {
    auto opts = lubm > 0 ? workload::LubmReasonerOptions(&ds.dict())
                         : rdf::ReasonerOptions{};
    rdf::MaterializeInference(&ds, opts);
    // Inference appended terms in discovery order; re-rank so the served
    // engine gets the frequency-split layout (same as a bulk load).
    if (lubm > 0) rdf::RerankDatasetByFrequency(&ds);
  }
  std::fprintf(stderr, "loaded %zu triples\n", ds.size());

  sparql::QueryEngine::Config config;
  if (engine_name == "turbo") {
    config.solver = direct ? sparql::QueryEngine::SolverKind::kTurboDirect
                           : sparql::QueryEngine::SolverKind::kTurbo;
    config.engine_options.num_threads = threads;
  } else if (engine_name == "sortmerge") {
    config.solver = sparql::QueryEngine::SolverKind::kSortMerge;
  } else if (engine_name == "indexjoin") {
    config.solver = sparql::QueryEngine::SolverKind::kIndexJoin;
  } else {
    return Fail("unknown engine '" + engine_name + "'");
  }
  if (storage_name == "compressed") config.storage = graph::StorageMode::kCompressed;
  else if (storage_name != "plain")
    return Fail("unknown storage '" + storage_name + "' (plain|compressed)");

  // Adopt a matching "GRPH" snapshot section so compressed graphs reload
  // without re-encoding (mismatches rebuild from the dataset).
  std::unique_ptr<graph::DataGraph> prebuilt;
  for (rdf::SnapshotSection& s : snap_extras) {
    if (s.tag != graph::kGraphSectionTag) continue;
    auto g = graph::DeserializeDataGraph(s.payload);
    if (g.ok())
      prebuilt = std::make_unique<graph::DataGraph>(g.take());
    else
      std::fprintf(stderr, "warning: ignoring snapshot graph section: %s\n",
                   g.message().c_str());
  }
  snap_extras.clear();

  store::LiveStore::Config store_config;
  store_config.engine = config;
  store_config.compact_threshold = compact_threshold;
  store::LiveStore live(std::move(ds), store_config, std::move(prebuilt));

  server::SparqlServer srv(&live, server_config);
  if (auto st = srv.Start(); !st.ok()) return Fail(st.message());
  std::fprintf(stderr,
               "serving on http://127.0.0.1:%u/sparql (%d workers; POST /update "
               "enabled%s)\n",
               srv.port(), server_config.workers,
               compact_threshold
                   ? (", compaction at " + std::to_string(compact_threshold)).c_str()
                   : "");

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  sigset_t mask;
  sigemptyset(&mask);
  while (!g_stop) sigsuspend(&mask);  // sleep until a signal arrives

  std::fprintf(stderr, "shutting down\n");
  srv.Stop();
  server::ServerStats stats = srv.stats();
  store::LiveStore::Stats ls = live.stats();
  std::fprintf(stderr,
               "served %llu requests (%llu overload rejections, %llu bad, "
               "plan cache %llu/%llu hit/miss, %llu updates -> epoch %llu, "
               "%llu compactions)\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.rejected_overload),
               static_cast<unsigned long long>(stats.bad_requests),
               static_cast<unsigned long long>(stats.plan_cache_hits),
               static_cast<unsigned long long>(stats.plan_cache_misses),
               static_cast<unsigned long long>(stats.updates),
               static_cast<unsigned long long>(ls.epoch),
               static_cast<unsigned long long>(ls.compactions));
  return 0;
}
