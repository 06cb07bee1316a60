// e2e_bench: the end-to-end SPARQL-endpoint benchmark. One workload per
// invocation, driven by e2ebench/run.py (see e2ebench/README.md).
//
//   e2e_bench generate --workload W --seed N --dir D
//       Writes the workload's inputs: D/W-N.nt (LUBM N-Triples dump with its
//       closure) or D/W-N.snap (snapshot with a GRPH section), plus
//       D/W-N.req, the request pools the client draws from.
//
//   e2e_bench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       Serves the inputs the way examples/sparql_server does (data load ->
//       store::LiveStore -> server::SparqlServer, 2 workers) and drives the
//       server over loopback HTTP from 2 keep-alive closed-loop connections,
//       each sending a fixed, seed-determined request sequence. Every response
//       is checked against an in-process reference. With --trace 0 it reports
//       the end-to-end metrics; with --trace 1 it times set-up and the HTTP
//       run with spans, replays the request sequence through the public
//       functions of each layer, probes the load path and store layer the
//       workload does not exercise, and reports the per-layer metrics. The
//       machine-tagged BenchReport goes to $BENCH_JSON (bench/bench_json.hpp),
//       spans to $BENCH_JSON.spans.tsv. Exits 1 if any response was wrong.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "bench/bench_json.hpp"
#include "graph/data_graph.hpp"
#include "graph/graph_snapshot.hpp"
#include "rdf/loader.hpp"
#include "rdf/ntriples.hpp"
#include "rdf/snapshot.hpp"
#include "server/http.hpp"
#include "server/result_encoder.hpp"
#include "server/sparql_server.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "store/live_store.hpp"
#include "util/rng.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

namespace {

constexpr const char* kRdfTypeIri = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr int kConnections = 2;
constexpr int kWorkers = 2;
// A run is kRounds rounds; each sets the server up afresh, warms up for
// kWarmupSeconds and then measures a kRounds-th of the window, and each
// metric is the median over the rounds. On a shared host the spread between
// set-ups (memory placement, the share of a shared L3 the graph keeps) is
// larger than the spread within one, so one run averages over several.
constexpr int kRounds = 5;
constexpr double kWarmupSeconds = 0.5;
// live-rw write stream: every kUpdateEvery-th request of a connection is an
// update; each inserts or deletes kBatchTriples ub:researchInterest triples
// on subjects drawn from kSubjects professors, and each connection keeps
// about kLiveBatches of its batches live. The window is long enough that a
// delete mostly names triples an earlier compaction already folded in, so
// the delta grows by kBatchTriples per update until compaction.
constexpr uint64_t kUpdateEvery = 5;
constexpr int kBatchTriples = 4;
constexpr uint64_t kLiveBatches = 256;
constexpr size_t kSubjects = 32;
// One read in kTouchedEvery reads the updated predicate of one subject.
constexpr uint64_t kTouchedEvery = 8;
constexpr size_t kPointConstants = 48;  // constants per point-query template
// The LUBM generator seed. LUBM draws 15-25 departments per university from
// its seed, which moves LUBM-2's size and row counts by up to 25 %, so the
// data is fixed and the workload seed varies the requests instead: their
// order, the point-query constants and the update batches.
constexpr uint64_t kDataSeed = 42;

struct Workload {
  const char* name;
  uint32_t universities;
  uint32_t degree_pool;      ///< LubmConfig::degree_pool (0 = generator default)
  bool snapshot;             ///< restore a GRPH snapshot instead of parsing N-Triples
  bool updates;              ///< the request sequence carries update batches
  size_t compact_threshold;  ///< LiveStore background compaction (0 = off)
  double tail_quantile;      ///< fixed tail percentile for query_tail_ms
};

const Workload kWorkloads[] = {
    {"lubm-stream", 2, 0, false, false, 0, 0.95},
    {"lubm-match", 4, 4, false, false, 0, 0.98},
    {"live-rw", 1, 0, true, true, 2000, 0.95},
};

[[noreturn]] void Fatal(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "e2e_bench: %s\n", message.c_str());
  std::_Exit(1);
}

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kProcessStart).count();
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory around the benchmark's own calls into each layer
// and written out when the run ends.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t parent;  ///< index of the enclosing span, -1 for a root
    uint64_t request;
    double start_us;
    double end_us;
  };

  int64_t Add(const char* name, int64_t parent, uint64_t request, double start_us,
              double end_us) {
    spans_.push_back({name, parent, request, start_us, end_us});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Opens a span whose end is filled in by Close.
  int64_t Open(const char* name, int64_t parent, uint64_t request) {
    return Add(name, parent, request, NowUs(), 0);
  }
  void Close(int64_t id) { spans_[static_cast<size_t>(id)].end_us = NowUs(); }

  void Append(const SpanLog& other) {
    const int64_t offset = static_cast<int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(s);
    }
  }

  /// Total duration of the spans called `name`, in ms.
  double TotalMs(std::string_view name) const {
    double total = 0;
    for (const Span& s : spans_)
      if (name == s.name) total += (s.end_us - s.start_us) / 1000.0;
    return total;
  }

  bool WriteTsv(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tparent\trequest\tname\tstart_us\tend_us\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name << '\t'
          << static_cast<uint64_t>(s.start_us) << '\t' << static_cast<uint64_t>(s.end_us)
          << '\n';
    }
    return out.good();
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

std::string InputBase(const std::string& dir, const Workload& w, uint64_t seed) {
  return dir + "/" + w.name + "-" + std::to_string(seed);
}
std::string DataPath(const std::string& dir, const Workload& w, uint64_t seed) {
  return InputBase(dir, w, seed) + (w.snapshot ? ".snap" : ".nt");
}
std::string PoolPath(const std::string& dir, const Workload& w, uint64_t seed) {
  return InputBase(dir, w, seed) + ".req";
}

workload::LubmConfig LubmFor(const Workload& w) {
  workload::LubmConfig cfg;
  cfg.seed = kDataSeed;
  cfg.num_universities = w.universities;
  cfg.degree_pool = w.degree_pool;
  return cfg;
}

std::string Ub(const std::string& local) { return "<" + std::string(workload::kUbPrefix) + local + ">"; }

/// Sorted IRIs of every instance of ub:`cls` (closure included).
std::vector<std::string> InstancesOf(const rdf::Dataset& ds, const std::string& cls) {
  auto type = ds.dict().FindIri(kRdfTypeIri);
  auto klass = ds.dict().FindIri(std::string(workload::kUbPrefix) + cls);
  std::vector<std::string> out;
  if (!type || !klass) return out;
  for (const rdf::Triple& t : ds.triples())
    if (t.p == *type && t.o == *klass) out.push_back(ds.dict().term(t.s).lexical);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Up to `n` distinct members of `v`, drawn by `rng`.
std::vector<std::string> Pick(std::vector<std::string> v, size_t n, util::Rng* rng) {
  n = std::min(n, v.size());
  for (size_t i = 0; i < n; ++i) std::swap(v[i], v[i + rng->Below(v.size() - i)]);
  v.resize(n);
  return v;
}

/// The request pools a run draws from. `reads` are checked against an
/// in-process reference; a repeated entry weights the mix. `subjects`
/// (live-rw) feed the update batches and the touched reads, which are
/// checked by row count per epoch.
struct Pools {
  std::vector<std::string> reads;
  std::vector<std::string> subjects;
};

std::string TouchedText(const std::string& subject) {
  return "SELECT ?r WHERE { <" + subject + "> " + Ub("researchInterest") + " ?r . }";
}

Pools LiveRwPools(const rdf::Dataset& ds, uint64_t seed) {
  util::Rng rng(seed ^ 0x5eed5eed5eedULL);
  const std::string pre = "PREFIX ub: <" + std::string(workload::kUbPrefix) + "> ";
  Pools p;
  for (const std::string& c : Pick(InstancesOf(ds, "GraduateCourse"), kPointConstants, &rng))
    p.reads.push_back(pre + "SELECT ?x WHERE { ?x a ub:GraduateStudent . ?x ub:takesCourse <" +
                      c + "> . }");
  for (const std::string& a :
       Pick(InstancesOf(ds, "AssistantProfessor"), kPointConstants, &rng))
    p.reads.push_back(pre + "SELECT ?x WHERE { ?x a ub:Publication . ?x ub:publicationAuthor <" +
                      a + "> . }");
  for (const std::string& d : InstancesOf(ds, "Department"))
    p.reads.push_back(pre +
                      "SELECT ?x ?y1 ?y2 ?y3 WHERE { ?x a ub:Professor . ?x ub:worksFor <" + d +
                      "> . ?x ub:name ?y1 . ?x ub:emailAddress ?y2 . ?x ub:telephone ?y3 . }");
  for (const std::string& a :
       Pick(InstancesOf(ds, "AssociateProfessor"), kPointConstants, &rng))
    p.reads.push_back(pre +
                      "SELECT ?x ?y WHERE { ?x a ub:Student . ?y a ub:Course . "
                      "?x ub:takesCourse ?y . <" + a + "> ub:teacherOf ?y . }");
  p.subjects = Pick(InstancesOf(ds, "Professor"), kSubjects, &rng);
  return p;
}

void WritePools(const Pools& p, const std::string& path) {
  std::ofstream out(path);
  for (const std::string& r : p.reads) out << "read\t" << r << '\n';
  for (const std::string& s : p.subjects) out << "subject\t" << s << '\n';
  out.flush();
  if (!out.good()) Fatal("cannot write " + path);
}

Pools ReadPools(const std::string& path) {
  std::ifstream in(path);
  if (!in) Fatal("cannot read " + path);
  Pools p;
  std::string line;
  while (std::getline(in, line)) {
    size_t tab = line.find('\t');
    if (tab == std::string::npos) Fatal("malformed pool line in " + path);
    std::string kind = line.substr(0, tab), value = line.substr(tab + 1);
    if (kind == "read") p.reads.push_back(value);
    else if (kind == "subject") p.subjects.push_back(value);
    else Fatal("unknown pool entry '" + kind + "' in " + path);
  }
  if (p.reads.empty()) Fatal("no reads in " + path);
  return p;
}

int Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  const std::string data = DataPath(dir, w, seed);
  workload::LubmConfig cfg = LubmFor(w);
  Pools pools;
  if (!w.snapshot) {
    if (auto st = workload::WriteLubmNTriplesFile(cfg, data); !st.ok()) Fatal(st.message());
    std::vector<std::string> q = workload::LubmQueries();
    if (std::string(w.name) == "lubm-stream") pools.reads = {q[5], q[13], q[7]};  // Q6 Q14 Q8
    else pools.reads = {q[1], q[8], q[8]};  // Q2 Q9 Q9: the median falls inside Q9's cluster
  } else {
    rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
    graph::DataGraph g = graph::DataGraph::Build(ds, graph::TransformMode::kTypeAware);
    std::string payload;
    graph::SerializeDataGraph(g, &payload);
    if (auto st = rdf::SaveSnapshotFile(ds, data, {{graph::kGraphSectionTag, std::move(payload)}});
        !st.ok())
      Fatal(st.message());
    pools = LiveRwPools(ds, seed);
  }
  WritePools(pools, PoolPath(dir, w, seed));
  return 0;
}

// ---------------------------------------------------------------------------
// Request sequences: a connection's sequence depends only on the seed and
// the connection index, so every run does the same work in the same order.
// ---------------------------------------------------------------------------

struct Op {
  enum Kind : uint8_t { kRead, kTouched, kUpdate } kind = kRead;
  uint32_t read = 0;   ///< index into Pools::reads (kRead) or Pools::subjects (kTouched)
  bool insert = false; ///< kUpdate: INSERT DATA (true) or DELETE DATA of an older batch
  uint64_t batch = 0;  ///< kUpdate: the connection's batch number
};

class OpSequence {
 public:
  OpSequence(const Workload& w, const Pools& p, uint64_t seed, int conn)
      : updates_(w.updates),
        reads_(p.reads.size()),
        subjects_(p.subjects.size()),
        rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(conn) + 1) {}

  Op Next() {
    const uint64_t i = n_++;
    if (updates_ && i % kUpdateEvery == kUpdateEvery - 1) return UpdateOp(writes_++);
    if (subjects_ && rng_.Below(kTouchedEvery) == 0)
      return {Op::kTouched, static_cast<uint32_t>(rng_.Below(subjects_)), false, 0};
    return {Op::kRead, static_cast<uint32_t>(rng_.Below(reads_)), false, 0};
  }

 private:
  /// Inserts batches 0..kLiveBatches-1, then alternates deleting the oldest
  /// live batch with inserting the next one, so every delete names triples
  /// this connection inserted and no other connection touches.
  static Op UpdateOp(uint64_t u) {
    if (u < kLiveBatches) return {Op::kUpdate, 0, true, u};
    const uint64_t k = u - kLiveBatches;
    if (k % 2 == 0) return {Op::kUpdate, 0, false, k / 2};
    return {Op::kUpdate, 0, true, kLiveBatches + k / 2};
  }

  bool updates_;
  uint64_t reads_;
  uint64_t subjects_;
  util::Rng rng_;
  uint64_t n_ = 0;
  uint64_t writes_ = 0;
};

/// Pools::subjects index of each triple of a connection's batch.
std::vector<uint32_t> BatchSubjects(uint64_t seed, int conn, uint64_t batch) {
  util::Rng rng(seed ^ (static_cast<uint64_t>(conn) << 48) ^ (batch * 0xbf58476d1ce4e5b9ULL));
  std::vector<uint32_t> out(kBatchTriples);
  for (uint32_t& s : out) s = static_cast<uint32_t>(rng.Below(kSubjects));
  return out;
}

/// Each triple's object is unique to (connection, batch, position), so an
/// insert always adds kBatchTriples triples and the matching delete removes
/// them again.
std::string UpdateText(const Pools& p, uint64_t seed, int conn, uint64_t batch, bool insert) {
  std::string text = insert ? "INSERT DATA { " : "DELETE DATA { ";
  std::vector<uint32_t> subjects = BatchSubjects(seed, conn, batch);
  for (size_t i = 0; i < subjects.size(); ++i) {
    text += "<" + p.subjects[subjects[i]] + "> " + Ub("researchInterest") + " \"e2e-" +
            std::to_string(conn) + "-" + std::to_string(batch) + "-" + std::to_string(i) +
            "\" . ";
  }
  return text + "}";
}

std::string UrlEncode(const std::string& s) {
  std::string out;
  char buf[4];
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      std::snprintf(buf, sizeof buf, "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

std::string QueryTarget(const std::string& text) { return "/sparql?query=" + UrlEncode(text); }

// ---------------------------------------------------------------------------
// Output check: row count plus an order-independent digest of the rows of a
// SPARQL JSON body (one binding object per line, as the encoder writes it).
// ---------------------------------------------------------------------------

struct BodySummary {
  bool ok = false;
  uint64_t rows = 0;
  uint64_t digest = 0;
};

BodySummary SummarizeJson(std::string_view body) {
  BodySummary s;
  constexpr std::string_view kOpen = "\"bindings\":[\n";
  size_t pos = body.find(kOpen);
  if (pos == std::string_view::npos) return s;
  pos += kOpen.size();
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) return s;
    std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == ']') {
      s.ok = line == "]}}" && pos == body.size();
      return s;
    }
    if (line.back() == ',') line.remove_suffix(1);
    if (line.front() != '{' || line.back() != '}') return s;
    ++s.rows;
    uint64_t h = std::hash<std::string_view>{}(line);
    s.digest += h ^ (h >> 29) ^ 0x9e3779b97f4a7c15ULL;
  }
  return s;
}

/// Numeric member `key` of a flat JSON object such as the /update reply.
bool JsonU64(const std::string& body, const std::string& key, uint64_t* out) {
  size_t at = body.find("\"" + key + "\":");
  if (at == std::string::npos) return false;
  *out = std::strtoull(body.c_str() + at + key.size() + 3, nullptr, 10);
  return true;
}

// ---------------------------------------------------------------------------
// Set-up: data on disk -> LiveStore -> SparqlServer -> first response.
// ---------------------------------------------------------------------------

struct Served {
  std::unique_ptr<store::LiveStore> store;
  std::unique_ptr<server::SparqlServer> server;
  uint64_t triples = 0;

  void Reset() {
    server.reset();  // the server borrows the store
    store.reset();
  }
};

/// What the traced set-up measured, beyond its spans.
struct SetupTrace {
  SpanLog spans;
  rdf::LoadStats load;
  uint64_t graph_bytes = 0;
};

std::unique_ptr<store::LiveStore> LoadStore(const Workload& w, const std::string& data,
                                            size_t compact_threshold, SetupTrace* trace,
                                            int64_t parent) {
  rdf::Dataset ds;
  std::unique_ptr<graph::DataGraph> prebuilt;
  double t0 = NowUs();
  if (w.snapshot) {
    std::vector<rdf::SnapshotSection> extras;
    auto loaded = rdf::LoadSnapshotFile(data, 0, &extras);
    if (!loaded.ok()) Fatal(loaded.message());
    ds = loaded.take();
    double t1 = NowUs();
    if (trace) trace->spans.Add("rdf.snapshot_load", parent, 0, t0, t1);
    for (rdf::SnapshotSection& s : extras) {
      if (s.tag != graph::kGraphSectionTag) continue;
      auto g = graph::DeserializeDataGraph(s.payload);
      if (!g.ok()) Fatal("snapshot graph section: " + g.message());
      prebuilt = std::make_unique<graph::DataGraph>(g.take());
    }
    if (!prebuilt) Fatal(data + " carries no GRPH section");
    if (trace) trace->spans.Add("graph.deserialize", parent, 0, t1, NowUs());
  } else {
    auto loaded = rdf::LoadNTriplesFile(data);
    if (!loaded.ok()) Fatal(loaded.message());
    if (trace) {
      trace->spans.Add("rdf.load", parent, 0, t0, NowUs());
      trace->load = loaded.value().stats;
    }
    ds = std::move(loaded.value().dataset);  // the dump carries its closure
  }
  store::LiveStore::Config cfg;
  cfg.compact_threshold = compact_threshold;
  double t2 = NowUs();
  auto st = std::make_unique<store::LiveStore>(std::move(ds), cfg, std::move(prebuilt));
  if (trace) {
    trace->spans.Add("graph.build", parent, 0, t2, NowUs());
    if (const graph::DataGraph* g = st->snapshot()->engine->data_graph())
      trace->graph_bytes = g->MemoryUsage().total();
  }
  return st;
}

/// Times the load path this workload's set-up does not take, on the same
/// data, so that every rdf.* and graph.* metric is measured on every
/// workload: an N-Triples parse of a snapshot workload's data, and a GRPH
/// snapshot restore of an N-Triples workload's data.
void ProbeOtherLoadPath(const Workload& w, const store::LiveStore& st, const std::string& data,
                        SetupTrace* trace) {
  std::shared_ptr<const store::LiveStore::Snapshot> snap = st.snapshot();
  const rdf::Dataset& ds = *snap->engine->dataset();
  const int64_t root = trace->spans.Open("probe", -1, 0);
  if (w.snapshot) {
    const std::string nt = data + ".probe.nt";
    {
      std::ofstream out(nt, std::ios::binary);
      rdf::WriteNTriples(ds, out, /*include_inferred=*/true);
      if (!out.good()) Fatal("cannot write " + nt);
    }
    double t0 = NowUs();
    auto loaded = rdf::LoadNTriplesFile(nt);
    if (!loaded.ok()) Fatal(loaded.message());
    trace->spans.Add("rdf.load", root, 0, t0, NowUs());
    trace->load = loaded.value().stats;
    std::remove(nt.c_str());
  } else {
    const std::string path = data + ".probe.snap";
    std::string payload;
    graph::SerializeDataGraph(*snap->engine->data_graph(), &payload);
    if (auto saved = rdf::SaveSnapshotFile(ds, path, {{graph::kGraphSectionTag, std::move(payload)}});
        !saved.ok())
      Fatal(saved.message());
    std::vector<rdf::SnapshotSection> extras;
    double t0 = NowUs();
    auto loaded = rdf::LoadSnapshotFile(path, 0, &extras);
    if (!loaded.ok()) Fatal(loaded.message());
    double t1 = NowUs();
    trace->spans.Add("rdf.snapshot_load", root, 0, t0, t1);
    for (const rdf::SnapshotSection& section : extras)
      if (section.tag == graph::kGraphSectionTag)
        if (auto g = graph::DeserializeDataGraph(section.payload); !g.ok()) Fatal(g.message());
    trace->spans.Add("graph.deserialize", root, 0, t1, NowUs());
    std::remove(path.c_str());
  }
  trace->spans.Close(root);
}

Served Setup(const Workload& w, const std::string& data, const std::string& probe,
             SetupTrace* trace) {
  int64_t root = trace ? trace->spans.Open("setup", -1, 0) : -1;
  Served s;
  s.store = LoadStore(w, data, w.compact_threshold, trace, root);
  s.triples = s.store->stats().base_triples;
  server::ServerConfig cfg;
  cfg.workers = kWorkers;
  double t0 = NowUs();
  s.server = std::make_unique<server::SparqlServer>(s.store.get(), cfg);
  if (auto st = s.server->Start(); !st.ok()) Fatal("server start: " + st.message());
  double t1 = NowUs();
  server::HttpResponse resp;
  auto st = server::HttpGet(s.server->port(), probe, &resp);
  if (!st.ok() || resp.status != 200)
    Fatal("first request failed: " + st.message() + " (status " + std::to_string(resp.status) + ")");
  if (trace) {
    trace->spans.Add("server.start", root, 0, t0, t1);
    trace->spans.Add("http.first_response", root, 0, t1, NowUs());
    trace->spans.Close(root);
  }
  return s;
}

// ---------------------------------------------------------------------------
// In-process execution: the same calls the server makes for one request,
// with the cursor drained first and the rows encoded after, so each layer is
// one contiguous span.
// ---------------------------------------------------------------------------

struct ReadTrace {
  double prepare_ms = 0, open_ms = 0, first_row_ms = 0, drain_ms = 0, encode_ms = 0;
  engine::MatchStats engine;  ///< TurboBgpSolver stats delta (native reads only)
  bool overlay = false;       ///< the pinned epoch had a delta
  uint64_t rows = 0;
  uint64_t bytes = 0;
};

engine::MatchStats StatsDelta(const engine::MatchStats& a, const engine::MatchStats& b) {
  engine::MatchStats d;
  d.num_solutions = b.num_solutions - a.num_solutions;
  d.num_start_candidates = b.num_start_candidates - a.num_start_candidates;
  d.num_regions = b.num_regions - a.num_regions;
  d.cr_candidate_vertices = b.cr_candidate_vertices - a.cr_candidate_vertices;
  d.intersection_ops = b.intersection_ops - a.intersection_ops;
  d.sig_prunes = b.sig_prunes - a.sig_prunes;
  d.explore_ms = b.explore_ms - a.explore_ms;
  d.order_ms = b.order_ms - a.order_ms;
  d.search_ms = b.search_ms - a.search_ms;
  return d;
}

BodySummary ExecuteInProcess(const store::LiveStore& st, const std::string& text,
                             ReadTrace* trace = nullptr, SpanLog* spans = nullptr,
                             int64_t parent = -1, uint64_t request = 0) {
  auto record = [&](const char* name, double t0, double t1, double* ms) {
    if (spans) spans->Add(name, parent, request, t0, t1);
    if (ms) *ms = (t1 - t0) / 1000.0;
  };
  std::shared_ptr<const store::LiveStore::Snapshot> snap = st.snapshot();
  const sparql::TurboBgpSolver* turbo = snap->has_delta() ? nullptr : snap->engine->turbo_solver();
  engine::MatchStats before = turbo ? turbo->last_stats() : engine::MatchStats{};

  double t0 = NowUs();
  auto prepared = snap->engine->Prepare(text);
  if (!prepared.ok()) Fatal("prepare: " + prepared.message());
  double t1 = NowUs();
  record("sparql.prepare", t0, t1, trace ? &trace->prepare_ms : nullptr);
  sparql::ExecOptions opts;
  opts.streaming = true;  // as served
  auto cursor = store::LiveStore::OpenAt(snap, prepared.value(), opts);
  if (!cursor.ok()) Fatal("open: " + cursor.message());
  sparql::Cursor& cur = cursor.value();
  double t2 = NowUs();
  record("sparql.open", t1, t2, trace ? &trace->open_ms : nullptr);
  std::vector<sparql::Row> rows(1);
  bool more = cur.Next(&rows[0]);
  if (!more) rows.clear();
  double t3 = NowUs();
  record("sparql.first_row", t2, t3, trace ? &trace->first_row_ms : nullptr);
  sparql::Row row;
  while (more && (more = cur.Next(&row))) rows.push_back(row);
  if (!cur.status().ok()) Fatal("query failed in process: " + cur.status().message());
  double t4 = NowUs();
  record("sparql.drain", t3, t4, trace ? &trace->drain_ms : nullptr);

  std::unique_ptr<server::ResultEncoder> enc = server::MakeResultEncoder("json");
  const std::vector<std::string>& vars = cur.var_names();
  std::shared_ptr<const sparql::LocalVocab> vocab = cur.local_vocab();
  std::string body = enc->Header(vars);
  for (const sparql::Row& r : rows) body += enc->EncodeRow(vars, r, snap->dict(), vocab.get());
  body += enc->Footer(cur.stop_cause());
  record("server.encode", t4, NowUs(), trace ? &trace->encode_ms : nullptr);
  if (trace) {
    trace->overlay = snap->has_delta();
    trace->rows = rows.size();
    trace->bytes = body.size();
    if (turbo) trace->engine = StatsDelta(before, turbo->last_stats());
  }
  return SummarizeJson(body);
}

// ---------------------------------------------------------------------------
// The closed-loop HTTP client.
// ---------------------------------------------------------------------------

struct Sample {
  bool update;
  double ms;
  double ttfb_ms;
};

/// What the touched reads saw and what the updates did, per subject.
struct Ledger {
  struct Entry {
    uint32_t subject;
    uint64_t epoch;
    int64_t rows;  ///< rows seen (touched read) or +1 / -1 (one updated triple)
  };
  std::vector<Entry> touched;
  std::vector<Entry> writes;
};

struct ClientResult {
  std::vector<Sample> samples;
  Ledger ledger;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  SpanLog spans;
};

struct RunContext {
  const Workload* w;
  const Pools* pools;
  uint64_t seed;
  uint16_t port;
  std::vector<std::string> targets;     ///< per Pools::reads entry
  std::vector<std::string> touched_targets;  ///< per Pools::subjects entry
  std::vector<BodySummary> references;       ///< per Pools::reads entry
};

class Connection {
 public:
  Connection(const RunContext& ctx, int index)
      : ctx_(ctx), index_(index), seq_(*ctx.w, *ctx.pools, ctx.seed, index) {
    fd_ = server::DialLocal(ctx.port);
    if (fd_ < 0) Fatal("cannot connect to the server");
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends requests until `until`; samples of requests started before
  /// `measure_from` are checked but not kept.
  void Drive(Clock::time_point measure_from, Clock::time_point until, bool traced,
             ClientResult* out) {
    while (Clock::now() < until) {
      Op op = seq_.Next();
      const uint64_t request = (static_cast<uint64_t>(index_) << 40) | sent_++;
      ++out->attempted;
      std::string update;
      if (op.kind == Op::kUpdate)
        update = UpdateText(*ctx_.pools, ctx_.seed, index_, op.batch, op.insert);

      Clock::time_point t0 = Clock::now();
      double t0_us = traced ? NowUs() : 0;
      util::Status st =
          op.kind == Op::kUpdate
              ? server::WriteHttpRequest(fd_, "POST", "/update",
                                         {{"Content-Type", "application/sparql-update"}}, update)
              : server::WriteHttpRequest(
                    fd_, "GET",
                    op.kind == Op::kRead ? ctx_.targets[op.read] : ctx_.touched_targets[op.read]);
      if (!st.ok() || !server::WaitForResponseByte(fd_, &leftover_)) {
        Fail(out, "connection lost");
        return;
      }
      Clock::time_point t1 = Clock::now();
      double t1_us = traced ? NowUs() : 0;
      server::HttpResponse resp;
      if (!server::ReadHttpResponse(fd_, &resp, &leftover_).ok()) {
        Fail(out, "malformed response");
        return;
      }
      Clock::time_point t2 = Clock::now();
      if (traced) {
        int64_t root = out->spans.Add(op.kind == Op::kUpdate ? "http.update" : "http.read", -1,
                                      request, t0_us, NowUs());
        out->spans.Add("http.first_byte", root, request, t0_us, t1_us);
      }
      if (Check(op, resp, out) && t0 >= measure_from) {
        out->samples.push_back(
            {op.kind == Op::kUpdate, std::chrono::duration<double, std::milli>(t2 - t0).count(),
             std::chrono::duration<double, std::milli>(t1 - t0).count()});
      }
    }
  }

 private:
  static void Fail(ClientResult* out, const std::string& why) {
    ++out->failed;
    if (out->first_error.empty()) out->first_error = why;
  }

  bool Check(const Op& op, const server::HttpResponse& resp, ClientResult* out) {
    if (resp.status != 200) {
      Fail(out, "status " + std::to_string(resp.status) + ": " + resp.body.substr(0, 200));
      return false;
    }
    uint64_t epoch = 0;
    auto e = resp.headers.find("x-epoch");
    if (e == resp.headers.end()) {
      Fail(out, "response without X-Epoch");
      return false;
    }
    epoch = std::strtoull(e->second.c_str(), nullptr, 10);
    if (op.kind == Op::kUpdate) {
      uint64_t inserted = 0, deleted = 0;
      if (!JsonU64(resp.body, "inserted", &inserted) || !JsonU64(resp.body, "deleted", &deleted) ||
          (op.insert ? inserted : deleted) != static_cast<uint64_t>(kBatchTriples) ||
          (op.insert ? deleted : inserted) != 0) {
        Fail(out, "unexpected update result: " + resp.body);
        return false;
      }
      for (uint32_t s : BatchSubjects(ctx_.seed, index_, op.batch))
        out->ledger.writes.push_back({s, epoch, op.insert ? 1 : -1});
      return true;
    }
    auto cause = resp.headers.find("x-stop-cause");
    BodySummary got = SummarizeJson(resp.body);
    if (cause == resp.headers.end() || cause->second != "none" || !got.ok) {
      Fail(out, "truncated or malformed result body");
      return false;
    }
    if (op.kind == Op::kTouched) {
      out->ledger.touched.push_back(  // checked after the run
          {op.read, epoch, static_cast<int64_t>(got.rows)});
      return true;
    }
    const BodySummary& want = ctx_.references[op.read];
    if (got.rows != want.rows || got.digest != want.digest) {
      Fail(out, "wrong rows for read " + std::to_string(op.read) + ": " +
                    std::to_string(got.rows) + " vs " + std::to_string(want.rows));
      return false;
    }
    return true;
  }

  const RunContext& ctx_;
  int index_;
  OpSequence seq_;
  int fd_ = -1;
  std::string leftover_;
  uint64_t sent_ = 0;
};

/// Runs every connection until `until` on its own thread. The client
/// threads run at a lower priority (nice 10) so that, when the host's CPUs
/// are saturated, the server's threads are served first, as they would be
/// with the load generator on another machine.
void DriveAll(std::vector<std::unique_ptr<Connection>>& conns, Clock::time_point measure_from,
              Clock::time_point until, bool traced, std::vector<ClientResult>* results) {
  results->assign(conns.size(), ClientResult{});
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c)
    threads.emplace_back([&, c] {
      ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 10);
      conns[c]->Drive(measure_from, until, traced, &(*results)[c]);
    });
  for (std::thread& t : threads) t.join();
}

/// Checks each touched read's row count against the count its subject must
/// have at the read's epoch: the epoch-0 count plus the net effect of every
/// update published at or before that epoch (compactions bump the epoch
/// without changing content).
uint64_t CheckLedger(const Ledger& ledger, const std::vector<uint64_t>& base_rows,
                     std::string* error) {
  auto by_subject_epoch = [](const Ledger::Entry& a, const Ledger::Entry& b) {
    return a.subject != b.subject ? a.subject < b.subject : a.epoch < b.epoch;
  };
  std::vector<Ledger::Entry> writes = ledger.writes;
  std::sort(writes.begin(), writes.end(), by_subject_epoch);
  std::vector<int64_t> prefix(writes.size() + 1, 0);
  for (size_t i = 0; i < writes.size(); ++i) prefix[i + 1] = prefix[i] + writes[i].rows;
  uint64_t wrong = 0;
  for (const Ledger::Entry& read : ledger.touched) {
    auto first = std::lower_bound(writes.begin(), writes.end(), Ledger::Entry{read.subject, 0, 0},
                                  by_subject_epoch);
    auto last = std::upper_bound(writes.begin(), writes.end(), read, by_subject_epoch);
    int64_t want = static_cast<int64_t>(base_rows[read.subject]) +
                   prefix[static_cast<size_t>(last - writes.begin())] -
                   prefix[static_cast<size_t>(first - writes.begin())];
    if (read.rows != want) {
      if (error->empty())
        *error = "touched read of subject " + std::to_string(read.subject) + " at epoch " +
                 std::to_string(read.epoch) + ": " + std::to_string(read.rows) +
                 " rows, expected " + std::to_string(want);
      ++wrong;
    }
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Total and steal jiffies from /proc/stat: on a shared host, steal during
/// the timed window explains a slow run.
std::pair<uint64_t, uint64_t> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {}, total = 0;
  in >> cpu;
  for (uint64_t& x : v) {
    in >> x;
    total += x;
  }
  return {total, v[7]};
}

std::string Pct(double q) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", q * 100);
  return buf;
}

struct LoadSummary {
  double qps = 0, query_p50 = 0, query_tail = 0, ttfb_p50 = 0, read_mean = 0;
  double updates_per_s = 0, update_p50 = 0, update_tail = 0;
  size_t queries = 0, updates = 0;
  size_t beyond_tail = 0;  ///< samples beyond the tail percentile
};

LoadSummary Summarize(const std::vector<ClientResult>& results, double window_s, double tail_q) {
  std::vector<double> q_ms, ttfb, u_ms;
  double sum = 0;
  for (const ClientResult& r : results)
    for (const Sample& s : r.samples) {
      if (s.update) {
        u_ms.push_back(s.ms);
      } else {
        q_ms.push_back(s.ms);
        ttfb.push_back(s.ttfb_ms);
        sum += s.ms;
      }
    }
  LoadSummary m;
  m.queries = q_ms.size();
  m.updates = u_ms.size();
  m.qps = static_cast<double>(q_ms.size()) / window_s;
  m.query_p50 = Median(q_ms);
  m.query_tail = Quantile(q_ms, tail_q);
  m.beyond_tail = static_cast<size_t>(
      std::count_if(q_ms.begin(), q_ms.end(), [&](double v) { return v > m.query_tail; }));
  m.ttfb_p50 = Median(ttfb);
  m.read_mean = q_ms.empty() ? 0 : sum / static_cast<double>(q_ms.size());
  m.updates_per_s = static_cast<double>(u_ms.size()) / window_s;
  m.update_p50 = Median(u_ms);
  m.update_tail = Quantile(u_ms, tail_q);
  return m;
}

/// Field-wise median over the rounds; counts are summed and beyond_tail is
/// the fewest of any round.
LoadSummary MedianOverRounds(const std::vector<LoadSummary>& rounds) {
  auto median = [&](double LoadSummary::*field) {
    std::vector<double> v;
    for (const LoadSummary& r : rounds) v.push_back(r.*field);
    return Median(v);
  };
  LoadSummary m;
  m.qps = median(&LoadSummary::qps);
  m.query_p50 = median(&LoadSummary::query_p50);
  m.query_tail = median(&LoadSummary::query_tail);
  m.ttfb_p50 = median(&LoadSummary::ttfb_p50);
  m.read_mean = median(&LoadSummary::read_mean);
  m.updates_per_s = median(&LoadSummary::updates_per_s);
  m.update_p50 = median(&LoadSummary::update_p50);
  m.update_tail = median(&LoadSummary::update_tail);
  m.beyond_tail = SIZE_MAX;
  for (const LoadSummary& r : rounds) {
    m.queries += r.queries;
    m.updates += r.updates;
    m.beyond_tail = std::min(m.beyond_tail, r.beyond_tail);
  }
  return m;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  std::string mode, workload, dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Fatal("usage: e2e_bench generate|run --workload W --seed N [--seconds S --trace 0|1] --dir D");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) Fatal("missing value for " + arg);
    std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (arg == "--trace") a.trace = v == "1";
    else if (arg == "--dir") a.dir = v;
    else Fatal("unknown argument " + arg);
  }
  if (a.dir.empty()) Fatal("--dir is required");
  if (a.seconds <= 0) Fatal("--seconds must be positive");
  return a;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  Fatal("unknown workload '" + name + "' (lubm-stream | lubm-match | live-rw)");
}

void PrintMetric(const char* name, double value, const char* unit, const std::string& note) {
  std::printf("  %-28s %14.4f %-6s %s\n", name, value, unit, note.c_str());
}

/// The traced run's extra work: replays the request sequence in process and
/// fills the per-layer metrics.
struct Replay {
  SpanLog spans;
  std::vector<ReadTrace> reads;
  std::vector<double> update_ms, compact_ms;
  double overlay_read_ms = 0, native_read_ms = 0;
};

void ReplayInProcess(const Workload& w, const Pools& pools, uint64_t seed, double seconds,
                     store::LiveStore* st, Replay* out) {
  std::vector<OpSequence> seqs;
  for (int c = 0; c < kConnections; ++c) seqs.emplace_back(w, pools, seed, c);
  Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (uint64_t i = 0; Clock::now() < until; ++i) {
    const int c = static_cast<int>(i % kConnections);
    const uint64_t request = (static_cast<uint64_t>(c) << 40) | (i / kConnections);
    Op op = seqs[static_cast<size_t>(c)].Next();
    if (op.kind == Op::kUpdate) {
      std::string text = UpdateText(pools, seed, c, op.batch, op.insert);
      double t0 = NowUs();
      auto r = st->Update(text);
      if (!r.ok()) Fatal("update: " + r.message());
      double t1 = NowUs();
      int64_t root = out->spans.Add("store.update", -1, request, t0, t1);
      out->update_ms.push_back((t1 - t0) / 1000.0);
      // The background compactor's trigger, run synchronously so it is timed.
      if (w.compact_threshold && r.value().delta_adds + r.value().tombstones >= w.compact_threshold) {
        double t2 = NowUs();
        if (auto cs = st->Compact(); !cs.ok()) Fatal("compact: " + cs.message());
        double t3 = NowUs();
        out->spans.Add("store.compact", root, request, t2, t3);
        out->compact_ms.push_back((t3 - t2) / 1000.0);
      }
      continue;
    }
    ReadTrace rt;
    int64_t root = out->spans.Open("request", -1, request);
    const std::string text =
        op.kind == Op::kRead ? pools.reads[op.read] : TouchedText(pools.subjects[op.read]);
    BodySummary got = ExecuteInProcess(*st, text, &rt, &out->spans, root, request);
    out->spans.Close(root);
    if (!got.ok) Fatal("malformed in-process result");
    out->reads.push_back(rt);
  }
  // The store layer on this workload's data. A workload without updates gets
  // a few synthetic inserts; the first one builds the base index, as the
  // first update after a compaction does. Then the same read runs over the
  // overlay (delta present) and natively (after Compact).
  if (!w.updates) {
    for (int k = 0; k < 5; ++k) {
      const std::string text = "INSERT DATA { <http://e2e.bench/probe/" + std::to_string(k) +
                               "> <http://e2e.bench/probe#tag> \"" + std::to_string(k) + "\" . }";
      double t0 = NowUs();
      if (auto r = st->Update(text); !r.ok()) Fatal("update: " + r.message());
      out->update_ms.push_back((NowUs() - t0) / 1000.0);
    }
  } else if (!st->snapshot()->has_delta()) {
    if (auto r = st->Update(UpdateText(pools, seed, kConnections, 0, true)); !r.ok())
      Fatal("update: " + r.message());
  }
  const std::string read = w.updates ? TouchedText(pools.subjects[0]) : pools.reads[0];
  auto time_read = [&] {
    std::vector<double> ms;
    for (int k = 0; k < 3; ++k) {
      double t0 = NowUs();
      ExecuteInProcess(*st, read);
      ms.push_back((NowUs() - t0) / 1000.0);
    }
    return Median(ms);
  };
  out->overlay_read_ms = time_read();
  double t0 = NowUs();
  if (auto cs = st->Compact(); !cs.ok()) Fatal("compact: " + cs.message());
  out->compact_ms.push_back((NowUs() - t0) / 1000.0);
  out->native_read_ms = time_read();
}

int Run(const Workload& w, const Args& args) {
#ifndef NDEBUG
  Fatal("refusing to time a build without NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release");
#endif
  const std::string data = DataPath(args.dir, w, args.seed);
  Pools pools = ReadPools(PoolPath(args.dir, w, args.seed));
  if (w.updates && pools.subjects.size() != kSubjects)
    Fatal("update workload needs " + std::to_string(kSubjects) + " subjects");

  RunContext ctx;
  ctx.w = &w;
  ctx.pools = &pools;
  ctx.seed = args.seed;
  for (const std::string& r : pools.reads) ctx.targets.push_back(QueryTarget(r));
  for (const std::string& s : pools.subjects) ctx.touched_targets.push_back(QueryTarget(TouchedText(s)));

  auto secs = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  // A traced run has one round whose window is split into an untraced and a
  // traced half on the same connections.
  const int rounds = args.trace ? 1 : kRounds;
  const double round_s = args.seconds / (args.trace ? 2 : kRounds);
  std::vector<double> setup_s;
  std::vector<LoadSummary> per_round;
  std::vector<ClientResult> traced;
  LoadSummary traced_load;
  Served served;
  SetupTrace setup_trace;
  std::vector<uint64_t> touched_base;
  server::ServerStats sstats;
  uint64_t compactions = 0, attempted = 0, failed = 0, jiffies = 0, steal = 0;
  double peak_rss = 0;
  std::string error;
  for (int r = 0; r < rounds; ++r) {
    served.Reset();
    Clock::time_point t0 = Clock::now();
    served = Setup(w, data, ctx.targets[0], args.trace ? &setup_trace : nullptr);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    ctx.port = served.server->port();

    if (r == 0) {
      // In-process references on epoch 0; every round serves the same data.
      for (const std::string& q : pools.reads) {
        BodySummary ref = ExecuteInProcess(*served.store, q);
        if (!ref.ok) Fatal("malformed reference result");
        ctx.references.push_back(ref);
      }
      for (const std::string& subject : pools.subjects)
        touched_base.push_back(ExecuteInProcess(*served.store, TouchedText(subject)).rows);
    }

    std::vector<std::unique_ptr<Connection>> conns;
    for (int c = 0; c < kConnections; ++c) conns.push_back(std::make_unique<Connection>(ctx, c));
    Clock::time_point measure_from = Clock::now() + secs(kWarmupSeconds);
    std::vector<ClientResult> results;
    const auto cpu_before = CpuJiffies();
    DriveAll(conns, measure_from, measure_from + secs(round_s), false, &results);
    const double measured_s = std::chrono::duration<double>(Clock::now() - measure_from).count();
    const auto cpu_after = CpuJiffies();
    jiffies += cpu_after.first - cpu_before.first;
    steal += cpu_after.second - cpu_before.second;
    per_round.push_back(Summarize(results, measured_s, w.tail_quantile));
    if (args.trace) {
      Clock::time_point t = Clock::now();
      DriveAll(conns, t, t + secs(round_s), true, &traced);
      traced_load =
          Summarize(traced, std::chrono::duration<double>(Clock::now() - t).count(), w.tail_quantile);
      results.insert(results.end(), traced.begin(), traced.end());
    }
    conns.clear();
    sstats = served.server->stats();
    compactions += served.store->stats().compactions;
    served.server->Stop();

    // Output check; epochs restart with each store, so the ledger is per round.
    Ledger ledger;
    for (const ClientResult& c : results) {
      attempted += c.attempted;
      failed += c.failed;
      if (error.empty()) error = c.first_error;
      ledger.touched.insert(ledger.touched.end(), c.ledger.touched.begin(), c.ledger.touched.end());
      ledger.writes.insert(ledger.writes.end(), c.ledger.writes.begin(), c.ledger.writes.end());
    }
    failed += CheckLedger(ledger, touched_base, &error);
    // One set-up and its run, as a long-running server sees it; later rounds
    // would add the allocator's leftovers from earlier ones.
    if (r == 0) peak_rss = PeakRssMb();
  }
  const LoadSummary load = MedianOverRounds(per_round);
  const double steal_pct = jiffies ? 100.0 * static_cast<double>(steal) / static_cast<double>(jiffies) : 0;
  const double error_rate = attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1;

  bench::BenchReport report;
  report.bench = "e2e_bench";
  report.machine = bench::MachineTag();
  report.config = {{"workload", w.name},
                   {"seed", std::to_string(args.seed)},
                   {"seconds", std::to_string(args.seconds)},
                   {"trace", args.trace ? "1" : "0"},
                   {"nproc", std::to_string(std::thread::hardware_concurrency())},
                   {"connections", std::to_string(kConnections)},
                   {"workers", std::to_string(kWorkers)},
                   {"triples", std::to_string(served.triples)},
                   {"tail_percentile", Pct(w.tail_quantile)},
                   {"cpu_steal_pct", std::to_string(steal_pct)}};
  report.results.push_back({"check",
                            {{"attempted", static_cast<double>(attempted)},
                             {"failed", static_cast<double>(failed)},
                             {"error_rate", error_rate}}});

  std::printf("e2e_bench %s seed %llu: %llu triples, %d connections, %d workers, nproc %u\n",
              w.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(served.triples), kConnections, kWorkers,
              std::thread::hardware_concurrency());
  const std::string tail = Pct(w.tail_quantile);

  if (!args.trace) {
    report.results.push_back({"end_to_end",
                              {{"setup_s", Median(setup_s)},
                               {"peak_rss_mb", peak_rss},
                               {"qps", load.qps},
                               {"query_p50_ms", load.query_p50},
                               {"query_tail_ms", load.query_tail},
                               {"ttfb_p50_ms", load.ttfb_p50},
                               {"error_rate", error_rate}}});
    if (w.updates)
      report.results.push_back({"updates",
                                {{"updates_per_s", load.updates_per_s},
                                 {"update_p50_ms", load.update_p50},
                                 {"update_tail_ms", load.update_tail},
                                 {"compactions", static_cast<double>(compactions)}}});
    std::printf("end-to-end metrics (medians over %d rounds, each a fresh set-up, %.1f s warm-up "
                "and %.1f s measured):\n",
                rounds, kWarmupSeconds, round_s);
    std::printf("  per round: query_p50_ms");
    for (const LoadSummary& r : per_round) std::printf(" %.3f", r.query_p50);
    std::printf(", setup_s");
    for (double v : setup_s) std::printf(" %.3f", v);
    std::printf("\n");
    PrintMetric("setup_s", Median(setup_s), "s", "median of " + std::to_string(rounds) + " set-ups");
    PrintMetric("peak_rss_mb", peak_rss, "MiB", "VmHWM over the first set-up and round");
    PrintMetric("qps", load.qps, "1/s", std::to_string(load.queries) + " queries");
    PrintMetric("query_p50_ms", load.query_p50, "ms", std::to_string(load.queries) + " samples");
    PrintMetric("query_tail_ms", load.query_tail, "ms",
                tail + ", >= " + std::to_string(load.beyond_tail) + " samples beyond per round");
    PrintMetric("ttfb_p50_ms", load.ttfb_p50, "ms", std::to_string(load.queries) + " samples");
    if (w.updates) {
      PrintMetric("updates_per_s", load.updates_per_s, "1/s", std::to_string(load.updates) + " updates");
      PrintMetric("update_p50_ms", load.update_p50, "ms", std::to_string(load.updates) + " samples");
      PrintMetric("update_tail_ms", load.update_tail, "ms", tail);
      std::printf("  (%llu background compactions)\n", static_cast<unsigned long long>(compactions));
    } else {
      std::printf("  updates_per_s, update_p50_ms, update_tail_ms: n/a (no updates in %s)\n",
                  w.name);
    }
    PrintMetric("error_rate", error_rate, "ratio",
                std::to_string(failed) + " of " + std::to_string(attempted) + " requests");
    std::printf("  (host CPU steal during the run: %.2f %%)\n", steal_pct);
  } else {
    // Replay: live-rw gets a fresh store without the background compactor so
    // compactions run (and are timed) on the replay thread.
    Replay replay;
    std::unique_ptr<store::LiveStore> replay_store;
    store::LiveStore* target = served.store.get();
    if (w.updates) {
      served.Reset();
      replay_store = LoadStore(w, data, 0, nullptr, -1);
      target = replay_store.get();
    }
    ProbeOtherLoadPath(w, *target, data, &setup_trace);
    ReplayInProcess(w, pools, args.seed, round_s, target, &replay);

    const double n = static_cast<double>(std::max<size_t>(replay.reads.size(), 1));
    double prepare = 0, open = 0, first_row = 0, drain = 0, encode = 0, explore = 0, order = 0,
           search = 0, bytes = 0, overlay = 0;
    double regions = 0, cands = 0, inters = 0, prunes = 0, sols = 0, starts = 0, rows = 0;
    for (const ReadTrace& r : replay.reads) {
      prepare += r.prepare_ms;
      open += r.open_ms;
      first_row += r.first_row_ms;
      drain += r.drain_ms;
      encode += r.encode_ms;
      explore += r.engine.explore_ms;
      order += r.engine.order_ms;
      search += r.engine.search_ms;
      regions += static_cast<double>(r.engine.num_regions);
      cands += static_cast<double>(r.engine.cr_candidate_vertices);
      inters += static_cast<double>(r.engine.intersection_ops);
      prunes += static_cast<double>(r.engine.sig_prunes);
      sols += static_cast<double>(r.engine.num_solutions);
      starts += static_cast<double>(r.engine.num_start_candidates);
      bytes += static_cast<double>(r.bytes);
      rows += static_cast<double>(r.rows);
      overlay += r.overlay ? 1 : 0;
    }
    prepare /= n, open /= n, first_row /= n, drain /= n, encode /= n;
    explore /= n, order /= n, search /= n;
    const double engine_ms = explore + order + search;
    const double in_process = prepare + open + first_row + drain + encode;
    const double http_mean = traced_load.read_mean;
    const double transport = http_mean - in_process;
    const double pipeline_self = first_row + drain - engine_ms;
    const double hits = static_cast<double>(sstats.plan_cache_hits);
    const double lookups = hits + static_cast<double>(sstats.plan_cache_misses);

    std::map<std::string, double> layer = {
        {"rdf.load_ms", setup_trace.spans.TotalMs("rdf.load")},
        {"rdf.parse_ms", setup_trace.load.parse_ms},
        {"rdf.merge_ms", setup_trace.load.merge_ms},
        {"rdf.remap_ms", setup_trace.load.remap_ms},
        {"rdf.snapshot_load_ms", setup_trace.spans.TotalMs("rdf.snapshot_load")},
        {"graph.deserialize_ms", setup_trace.spans.TotalMs("graph.deserialize")},
        {"graph.build_ms", setup_trace.spans.TotalMs("graph.build")},
        {"graph.bytes", static_cast<double>(setup_trace.graph_bytes)},
        {"engine.explore_ms", explore},
        {"engine.order_ms", order},
        {"engine.search_ms", search},
        {"engine.regions", regions / n},
        {"engine.cr_candidates", cands / n},
        {"engine.intersections", inters / n},
        {"engine.sig_prunes", prunes / n},
        {"engine.solutions_per_candidate", starts > 0 ? sols / starts : 0},
        {"sparql.prepare_ms", prepare},
        {"sparql.open_ms", open},
        {"sparql.first_row_ms", first_row},
        {"sparql.drain_ms", drain},
        {"sparql.pipeline_self_ms", pipeline_self},
        {"sparql.rows", rows / n},
        {"server.encode_ms", encode},
        {"server.response_bytes", bytes / n},
        {"server.transport_ms", transport},
        {"server.plan_cache_hit_rate", lookups > 0 ? hits / lookups : 0},
        {"server.plan_revalidations", static_cast<double>(sstats.plan_cache_revalidations)},
        {"server.rejected_overload", static_cast<double>(sstats.rejected_overload)},
        {"store.update_ms", Median(replay.update_ms)},
        {"store.compact_ms", Median(replay.compact_ms)},
        {"store.compactions", static_cast<double>(compactions)},
        {"store.overlay_read_share", overlay / n},
        {"store.overlay_read_ms", replay.overlay_read_ms},
        {"store.native_read_ms", replay.native_read_ms},
        {"trace.http_read_ms", http_mean},
        {"trace.qps_ratio", load.qps > 0 ? traced_load.qps / load.qps : 0},
    };
    report.results.push_back({"per_layer", layer});

    std::printf("traced run: %zu replayed reads, %zu replayed updates\n", replay.reads.size(),
                replay.update_ms.size());
    std::printf("self time per read request (means; traced HTTP read = %.4f ms):\n", http_mean);
    auto share = [&](const char* name, double ms) {
      std::printf("  %-34s %10.4f ms %6.1f %%\n", name, ms,
                  http_mean > 0 ? 100 * ms / http_mean : 0);
    };
    share("sparql.prepare", prepare);
    share("sparql.open", open);
    share("engine (explore+order+search)", engine_ms);
    share("sparql.pipeline_self", pipeline_self);
    share("server.encode", encode);
    share("server.transport (residual)", transport);
    std::printf("  stream path (drain+encode+transport) %10.4f ms %6.1f %%\n",
                drain + encode + transport,
                http_mean > 0 ? 100 * (drain + encode + transport) / http_mean : 0);
    std::printf("tracing overhead: traced %.2f qps vs untraced %.2f qps (ratio %.4f)\n",
                traced_load.qps, load.qps, load.qps > 0 ? traced_load.qps / load.qps : 0);
    std::printf("per-layer metrics:\n");
    for (const auto& [k, v] : layer) std::printf("  %-32s %16.4f\n", k.c_str(), v);

    if (const char* path = std::getenv("BENCH_JSON"); path && *path) {
      SpanLog all;
      all.Append(setup_trace.spans);
      for (const ClientResult& r : traced) all.Append(r.spans);
      all.Append(replay.spans);
      if (!all.WriteTsv(std::string(path) + ".spans.tsv")) Fatal("cannot write spans");
    }
  }
  served.Reset();
  if (!bench::MaybeWriteJson(report) && std::getenv("BENCH_JSON")) Fatal("cannot write report");
  if (failed) {
    std::fprintf(stderr, "e2e_bench: %llu of %llu responses wrong; first: %s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted), error.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Workload& w = FindWorkload(args.workload);
  if (args.mode == "generate") return Generate(w, args.seed, args.dir);
  if (args.mode == "run") return Run(w, args);
  Fatal("unknown mode '" + args.mode + "' (generate | run)");
}
