// sparql_shell: command-line SPARQL processor over the query API — the kind
// of front-end a downstream user would drive the library with. The
// QueryEngine facade owns the dataset and the chosen solver; every query
// runs through Prepare + Open and a push run (Cursor::Run) that prints each
// row as it clears the solution modifiers, so output starts with the first
// row and memory stays constant without a sort or group stage. Optional
// per-query budgets apply.
//
//   # load N-Triples through the parallel ingestion pipeline, run one query:
//   $ ./examples/sparql_shell --nt data.nt 'SELECT ?s WHERE { ?s ?p ?o . }'
//   # generate LUBM(2), REPL on stdin:
//   $ ./examples/sparql_shell --lubm 2
//   # save / reuse a binary snapshot (skips parsing + inference):
//   $ ./examples/sparql_shell --lubm 2 --save lubm2.snap
//   $ ./examples/sparql_shell --snap lubm2.snap 'SELECT ...'
// Options: --direct (direct transformation), --engine turbo|sortmerge|indexjoin,
//          --storage plain|compressed (adjacency layout: plain CSR arrays or
//          delta + group-varint packed streams; snapshots saved from a
//          compressed engine embed the encoded graph, so --snap reloads it
//          without re-encoding),
//          --threads N (query parallelism), --load-threads N (ingestion
//          parallelism, 0 = all cores), --skip-bad-lines (tolerate malformed
//          N-Triples lines), --no-inference, --max-rows N (server-style
//          delivery cap), --timeout-ms N (per-query deadline), --explain
//          (print the executed operator tree with per-operator row counts).
//
// Live updates: the engine is wrapped in a LiveStore, so data is mutable
// without reloading. `--update 'INSERT DATA { ... }'` applies a batch before
// the query/REPL starts; in the REPL, lines whose first keyword is INSERT or
// DELETE are routed to SPARQL Update (reporting the new epoch and delta
// size), and `compact` folds the delta into a fresh base engine.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph/graph_snapshot.hpp"
#include "rdf/loader.hpp"
#include "rdf/reasoner.hpp"
#include "rdf/snapshot.hpp"
#include "sparql/query_engine.hpp"
#include "store/live_store.hpp"
#include "util/timer.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

struct QueryLimits {
  uint64_t max_rows = sparql::kNoBudget;
  int64_t timeout_ms = -1;
  bool explain = false;
};

void RunQuery(const store::LiveStore& store, const QueryLimits& limits,
              const std::string& query) {
  util::WallTimer t;
  auto prepared = store.Prepare(query);
  if (!prepared.ok()) {
    std::fprintf(stderr, "error: %s\n", prepared.message().c_str());
    return;
  }
  sparql::ExecOptions opts;
  opts.limit_budget = limits.max_rows;
  if (limits.timeout_ms >= 0)
    opts.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(limits.timeout_ms);
  // Pin the epoch explicitly so row formatting reads the same dictionary the
  // cursor executes over, even if an update lands mid-stream.
  std::shared_ptr<const store::LiveStore::Snapshot> snap = store.snapshot();
  auto cursor = store::LiveStore::OpenAt(snap, prepared.value(), opts);
  if (!cursor.ok()) {
    std::fprintf(stderr, "error: %s\n", cursor.message().c_str());
    return;
  }
  sparql::Cursor& cur = cursor.value();
  size_t rows = 0;
  cur.Run([&](const sparql::Row& row) {
    std::printf("%s\n", sparql::FormatRow(cur.var_names(), row, snap->dict(),
                                          cur.local_vocab().get())
                            .c_str());
    ++rows;
    return sparql::EmitResult::kContinue;
  });
  if (!cur.status().ok()) {
    // A deadline / cancel trip surfaces here: name the cause so a scripted
    // caller can tell "--timeout-ms fired" from a genuine solver failure.
    std::fprintf(stderr, "error: %s (stop cause: %s; %zu rows delivered)\n",
                 cur.status().message().c_str(),
                 sparql::ToString(cur.stop_cause()), rows);
    return;
  }
  std::printf("-- %zu rows in %.2f ms\n", rows, t.ElapsedMillis());
  if (cur.stop_cause() != sparql::StopCause::kNone)
    // Ok status but a tripped budget: the stream ended early, not at the
    // natural end of results — say so instead of passing off as complete.
    std::fprintf(stderr, "-- stopped early (%s): results above are partial\n",
                 sparql::ToString(cur.stop_cause()));
  if (limits.explain)
    std::fprintf(stderr, "-- plan (per-operator rows):\n%s",
                 cur.Explain().c_str());
}

void RunUpdate(store::LiveStore& store, const std::string& text) {
  util::WallTimer t;
  auto result = store.Update(text);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.message().c_str());
    return;
  }
  const store::LiveStore::UpdateResult& r = result.value();
  std::printf("-- update ok: epoch %llu, +%zu inserted, -%zu deleted "
              "(delta: %zu adds, %zu tombstones) in %.2f ms\n",
              static_cast<unsigned long long>(r.epoch), r.inserted, r.deleted,
              r.delta_adds, r.tombstones, t.ElapsedMillis());
}

void RunCompact(store::LiveStore& store) {
  util::WallTimer t;
  if (auto st = store.Compact(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return;
  }
  store::LiveStore::Stats s = store.stats();
  std::printf("-- compacted: epoch %llu, base %zu triples in %.2f ms\n",
              static_cast<unsigned long long>(s.epoch), s.base_triples,
              t.ElapsedMillis());
}

/// The first SELECT / INSERT / DELETE keyword decides query vs update (PREFIX
/// declarations may precede either).
bool LooksLikeUpdate(const std::string& text) {
  std::string upper(text);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  size_t select = upper.find("SELECT");
  size_t insert = upper.find("INSERT");
  size_t del = upper.find("DELETE");
  size_t update = std::min(insert, del);
  return update != std::string::npos && update < select;
}

}  // namespace

int main(int argc, char** argv) {
  std::string nt_path, ttl_path, snap_path, save_path, engine_name = "turbo",
                                                       storage_name = "plain", query;
  std::vector<std::string> updates;
  uint32_t lubm = 0, threads = 1, load_threads = 0;
  bool direct = false, inference = true, skip_bad = false;
  QueryLimits limits;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--nt") nt_path = next();
    else if (arg == "--ttl") ttl_path = next();
    else if (arg == "--snap") snap_path = next();
    else if (arg == "--save") save_path = next();
    else if (arg == "--lubm") lubm = std::atoi(next());
    else if (arg == "--engine") engine_name = next();
    else if (arg == "--storage") storage_name = next();
    else if (arg == "--threads") threads = std::atoi(next());
    else if (arg == "--load-threads") load_threads = std::atoi(next());
    else if (arg == "--update") updates.emplace_back(next());
    else if (arg == "--max-rows") limits.max_rows = std::strtoull(next(), nullptr, 10);
    else if (arg == "--timeout-ms") limits.timeout_ms = std::atoll(next());
    else if (arg == "--explain") limits.explain = true;
    else if (arg == "--direct") direct = true;
    else if (arg == "--skip-bad-lines") skip_bad = true;
    else if (arg == "--no-inference") inference = false;
    else query = arg;
  }
  if (nt_path.empty() && ttl_path.empty() && snap_path.empty() && lubm == 0)
    return Fail("need one of --nt <file>, --ttl <file>, --snap <file>, --lubm <N>");

  // ---- Load. ----
  util::WallTimer t;
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
    if (skip_bad) load_opts.on_error = rdf::LoadOptions::OnError::kSkip;
    // The explicit flag decides the format; extension-based LoadRdfFile is
    // for callers without one.
    auto loaded = nt_path.empty() ? rdf::LoadTurtleFile(ttl_path, load_opts)
                                  : rdf::LoadNTriplesFile(nt_path, load_opts);
    if (!loaded.ok()) return Fail(loaded.message());
    const rdf::LoadStats& ls = loaded.value().stats;
    std::fprintf(stderr,
                 "pipeline: %llu chunks x %u threads, parse %.0f ms, merge %.0f ms, "
                 "remap %.0f ms%s\n",
                 static_cast<unsigned long long>(ls.chunks), ls.threads, ls.parse_ms,
                 ls.merge_ms, ls.remap_ms,
                 ls.skipped_lines
                     ? (" (" + std::to_string(ls.skipped_lines) + " bad lines skipped)")
                           .c_str()
                     : "");
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
    // Generated / incrementally-built datasets carry arrival-order ids;
    // fold them into the frequency-split layout before the engine build
    // (bulk loads and snapshots already arrive ranked).
    if (lubm > 0) rdf::RerankDatasetByFrequency(&ds);
  }
  std::fprintf(stderr, "loaded %zu triples (%.1fs)\n", ds.size(), t.ElapsedSeconds());

  // ---- Build the requested engine behind the facade. ----
  t.Reset();
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

  // A "GRPH" snapshot section carrying a graph that matches the requested
  // transform + storage is adopted directly — compressed graphs reload
  // without re-running the encoder. Mismatches just rebuild.
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
  store::LiveStore store(std::move(ds), store_config, std::move(prebuilt));
  std::fprintf(stderr, "engine '%s' ready (%.1fs)\n", engine_name.c_str(),
               t.ElapsedSeconds());

  std::shared_ptr<const store::LiveStore::Snapshot> epoch0 = store.snapshot();
  if (const graph::DataGraph* g = epoch0->engine->data_graph()) {
    graph::DataGraph::MemoryBreakdown m = g->MemoryUsage();
    std::fprintf(stderr,
                 "graph memory (%s): total %.1f MiB | adjacency %.1f MiB "
                 "(groups %.1f, neighbors %.1f, compressed %.1f, skips %.1f) | "
                 "signatures %.1f MiB | labels %.1f MiB | predicate index %.1f MiB | "
                 "terms %.1f MiB\n",
                 g->compressed() ? "compressed" : "plain", m.total() / 1048576.0,
                 m.adjacency_total() / 1048576.0, m.adjacency_groups / 1048576.0,
                 m.adjacency_neighbors / 1048576.0, m.adjacency_compressed / 1048576.0,
                 m.skip_tables / 1048576.0, m.signatures / 1048576.0,
                 (m.vertex_labels + m.inverse_label_index) / 1048576.0,
                 m.predicate_index / 1048576.0, (m.term_maps + m.schema) / 1048576.0);
  }
  {
    rdf::Dictionary::LayoutStats d = epoch0->engine->dict().layout_stats();
    std::fprintf(stderr,
                 "dictionary: %zu terms | hot band %zu | index %.1f MiB | "
                 "shard fill %.2f-%.2f (avg %.2f) | hot-cache hits %llu/%llu\n",
                 d.terms, d.hot_band, d.index_bytes / 1048576.0, d.shard_load_min,
                 d.shard_load_max, d.shard_load_avg,
                 static_cast<unsigned long long>(d.hot_hits),
                 static_cast<unsigned long long>(d.hot_probes));
  }

  if (!save_path.empty()) {
    // Saved after the engine build so the snapshot can embed the finished
    // graph: reloading skips classification, sorting, and (in compressed
    // mode) the varint encoder.
    std::vector<rdf::SnapshotSection> extras;
    if (const graph::DataGraph* g = epoch0->engine->data_graph()) {
      std::string payload;
      graph::SerializeDataGraph(*g, &payload);
      extras.push_back({graph::kGraphSectionTag, std::move(payload)});
    }
    auto st =
        rdf::SaveSnapshotFile(*epoch0->engine->dataset(), save_path, extras);
    if (!st.ok()) return Fail(st.message());
    std::fprintf(stderr, "snapshot written to %s\n", save_path.c_str());
  }
  epoch0.reset();

  for (const std::string& update : updates) RunUpdate(store, update);

  if (!query.empty()) {
    if (LooksLikeUpdate(query)) RunUpdate(store, query);
    else RunQuery(store, limits, query);
    return 0;
  }
  // REPL: one query or update per line (';' continues are not needed —
  // statements are single-line); `compact` folds the delta; EOF exits.
  std::string line;
  std::fprintf(stderr, "sparql> ");
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line == "compact") RunCompact(store);
    else if (!line.empty() && LooksLikeUpdate(line)) RunUpdate(store, line);
    else if (!line.empty()) RunQuery(store, limits, line);
    std::fprintf(stderr, "sparql> ");
  }
  return 0;
}
