// HTTP SPARQL endpoint tests, all over an in-process SparqlServer on an
// ephemeral port:
//  * encoders: hand-written golden bytes for JSON and TSV (every term
//    shape, escapes in every 8-byte word and in a short tail, unbound
//    cells, separators, footers with and without a stop cause);
//  * chunked writer: a chunk far larger than the socket buffer arrives
//    intact through partial sendmsg writes;
//  * URL decoding: every byte as an upper- and lower-case escape, '+', and
//    malformed escapes kept verbatim;
//  * protocol: JSON/TSV result encoding matches sparql::Materialize byte for
//    byte around the first full chunk (0, 1, just under and just over it,
//    10k rows), and a large response goes out in 64 KB chunks; X-Plan-Cache
//    miss-then-hit with identical rows; malformed queries get a 400 whose
//    body carries the parse error; per-request
//    deadline maps to 408 before the first row and an in-body stop marker
//    after it (in the first chunk or past it), a row budget is a 200 with the
//    marker before the first row, in the first chunk, or past it, and a
//    request can tighten the
//    server's deadline but never lift or loosen it; a reader that stops
//    reading holds its worker no longer than the deadline;
//  * live store: a cached plan keeps hitting across POST /update and
//    answers with the updated rows; /stats reports compactions, whether one
//    is building and how many updates the last one re-homed, and counts
//    queries and updates apart;
//  * admission control: a saturated worker pool answers 503 immediately and
//    recovers once the pool drains; an idle keep-alive client, and one
//    that trickles its request a byte at a time, is closed after the read
//    timeout, so neither can hold a worker;
//  * teardown: a client that disconnects mid-stream stops the search
//    (Stop() joins everything, and the suite runs under ASan/TSan in CI);
//  * threads: a started server runs one thread per worker plus the
//    acceptor, and serving a query creates no thread, whether its response
//    fits in one chunk or not;
//  * scale: 64 concurrent in-flight streaming requests over one shared
//    engine, every response row-identical to the materialized reference.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/http.hpp"
#include "server/result_encoder.hpp"
#include "server/sparql_server.hpp"
#include "sparql/query_engine.hpp"
#include "store/live_store.hpp"
#include "workload/lubm.hpp"

namespace turbo::server {
namespace {

using sparql::QueryEngine;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

const char* const kProfessorQuery =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
    "SELECT ?x ?y WHERE { ?x a ub:FullProfessor . ?x ub:worksFor ?y . }";

std::string UrlEncode(const std::string& s) {
  std::string out;
  char buf[8];
  for (unsigned char c : s) {
    if (std::isalnum(c)) {
      out += static_cast<char>(c);
    } else {
      std::snprintf(buf, sizeof buf, "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

/// The materialized reference for `query` over `engine`, rendered through
/// the same encoder — byte for byte what a complete streamed body must
/// equal.
std::string Reference(const QueryEngine& engine, const std::string& query,
                      const std::string& format) {
  auto rs = sparql::Materialize(engine.solver(), query);
  EXPECT_TRUE(rs.ok()) << rs.message();
  if (!rs.ok()) return {};
  auto enc = MakeResultEncoder(format);
  std::string out = enc->Header(rs.value().var_names);
  for (const auto& row : rs.value().rows)
    out += enc->EncodeRow(rs.value().var_names, row, engine.dict(),
                          rs.value().local_vocab.get());
  out += enc->Footer(sparql::StopCause::kNone);
  return out;
}

/// One shared LUBM(1) engine + server for the protocol tests (building the
/// engine dominates the suite's runtime, so it is paid once).
class ServerProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::LubmConfig cfg;
    cfg.num_universities = 1;
    engine_ = new QueryEngine(workload::GenerateLubmClosed(cfg));
    ServerConfig config;
    config.workers = 4;
    server_ = new SparqlServer(engine_, config);
    ASSERT_TRUE(server_->Start().ok());
  }
  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete engine_;
    engine_ = nullptr;
  }

  static HttpResponse Get(const std::string& target) {
    HttpResponse resp;
    auto st = HttpGet(server_->port(), target, &resp);
    EXPECT_TRUE(st.ok()) << st.message();
    return resp;
  }

  static std::string Reference(const std::string& query, const std::string& format) {
    return server::Reference(*engine_, query, format);
  }

  static QueryEngine* engine_;
  static SparqlServer* server_;
};

QueryEngine* ServerProtocolTest::engine_ = nullptr;
SparqlServer* ServerProtocolTest::server_ = nullptr;

// ---------------------------------------------------------------------------
// Golden bytes: hand-written expected encodings, independent of the encoder
// (the materialized references above are rendered by the encoder itself).
// ---------------------------------------------------------------------------

/// One term of every shape the encoders distinguish, plus three rows over
/// them: (IRI, escape-heavy literal), (typed, language-tagged), (bnode,
/// unbound) — the last also exercises the multi-row separator.
struct GoldenRows {
  rdf::Dictionary dict;
  std::vector<std::string> vars{"s", "o"};
  std::vector<sparql::Row> rows;

  GoldenRows() {
    const TermId iri = dict.GetOrAdd(rdf::Term::Iri("http://x/a"));
    // '"', '\', '\n', '\t' and a 0x01 control byte between plain runs.
    const TermId lit = dict.GetOrAdd(rdf::Term::Literal("a\"b\\c\nd\te\x01" "f"));
    const TermId typed = dict.GetOrAdd(
        rdf::Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"));
    const TermId lang = dict.GetOrAdd(rdf::Term::LangLiteral("chat", "fr"));
    const TermId bnode = dict.GetOrAdd(rdf::Term::Blank("b0"));
    rows = {{iri, lit}, {typed, lang}, {bnode, kInvalidId}};
  }

  std::string Encode(const std::string& format, sparql::StopCause cause) const {
    auto enc = MakeResultEncoder(format);
    std::string out = enc->Header(vars);
    for (const sparql::Row& row : rows) out += enc->EncodeRow(vars, row, dict, nullptr);
    out += enc->Footer(cause);
    return out;
  }
};

TEST(ResultEncoderGolden, JsonBytes) {
  GoldenRows g;
  const std::string rows =
      R"({"head":{"vars":["s","o"]},"results":{"bindings":[)"
      "\n"
      R"({"s":{"type":"uri","value":"http://x/a"},)"
      R"("o":{"type":"literal","value":"a\"b\\c\nd\te\u0001f"}})"
      ",\n"
      R"({"s":{"type":"literal","value":"42",)"
      R"("datatype":"http://www.w3.org/2001/XMLSchema#integer"},)"
      R"("o":{"type":"literal","value":"chat","xml:lang":"fr"}})"
      ",\n"
      R"({"s":{"type":"bnode","value":"b0"}})";
  EXPECT_EQ(g.Encode("json", sparql::StopCause::kNone), rows + "\n]}}\n");
  EXPECT_EQ(g.Encode("json", sparql::StopCause::kRowBudget),
            rows + "\n]},\"stopped\":\"row budget\"}\n");
}

TEST(ResultEncoderGolden, TsvBytes) {
  GoldenRows g;
  const std::string rows =
      "?s\t?o\n"
      "<http://x/a>\t\"a\\\"b\\\\c\\nd\\te\\u0001f\"\n"
      "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\t\"chat\"@fr\n"
      "_:b0\t\n";
  EXPECT_EQ(g.Encode("tsv", sparql::StopCause::kNone), rows);
  EXPECT_EQ(g.Encode("tsv", sparql::StopCause::kDeadline),
            rows + "# stopped: deadline\n");
}

TEST(ResultEncoderGolden, JsonNoRowsAndAllUnbound) {
  rdf::Dictionary dict;
  std::vector<std::string> vars{"x"};
  auto empty = MakeResultEncoder("json");
  EXPECT_EQ(empty->Header(vars) + empty->Footer(sparql::StopCause::kRowBudget),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[\n\n]},"
            "\"stopped\":\"row budget\"}\n");
  auto enc = MakeResultEncoder("json");
  std::string body = enc->Header(vars);
  body += enc->EncodeRow(vars, {kInvalidId}, dict, nullptr);
  body += enc->EncodeRow(vars, {kInvalidId}, dict, nullptr);
  EXPECT_EQ(body, "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[\n{},\n{}");
}

TEST(ResultEncoderGolden, EscapesPastTheFirstWordAndInAShortTail) {
  // 28 bytes: escapes in the second and third 8-byte words, a two-byte
  // UTF-8 'é' in a clean run, and '\b' and 0x1F in the 4-byte tail.
  rdf::Dictionary dict;
  const std::vector<std::string> vars{"v"};
  const sparql::Row row{dict.GetOrAdd(
      rdf::Term::Literal("plain-run-\"caf\xC3\xA9 12345\\abc\b\x1F"))};
  auto json = MakeResultEncoder("json");
  EXPECT_EQ(json->EncodeRow(vars, row, dict, nullptr),
            "{\"v\":{\"type\":\"literal\",\"value\":"
            "\"plain-run-\\\"caf\xC3\xA9 12345\\\\abc\\u0008\\u001f\"}}");
  auto tsv = MakeResultEncoder("tsv");
  EXPECT_EQ(tsv->EncodeRow(vars, row, dict, nullptr),
            "\"plain-run-\\\"caf\xC3\xA9 12345\\\\abc\\b\\u001F\"\n");
}

// ---------------------------------------------------------------------------
// URL decoding.
// ---------------------------------------------------------------------------

TEST(HttpUrlDecode, EveryEscapeAndMalformedForms) {
  for (int b = 0; b < 256; ++b) {
    const std::string byte(1, static_cast<char>(b));
    for (const char* fmt : {"%%%02X", "%%%02x"}) {
      char esc[4];
      std::snprintf(esc, sizeof esc, fmt, b);
      EXPECT_EQ(UrlDecode(esc), byte) << esc;
      EXPECT_EQ(UrlDecode(std::string("x") + esc + "z"), "x" + byte + "z") << esc;
    }
  }
  EXPECT_EQ(UrlDecode("+"), " ");
  EXPECT_EQ(UrlDecode("a+b+"), "a b ");
  // A '%' that does not start two hex digits stays as it is; "%%41" keeps
  // its first '%' and decodes the escape behind it.
  EXPECT_EQ(UrlDecode("%"), "%");
  EXPECT_EQ(UrlDecode("x%"), "x%");
  EXPECT_EQ(UrlDecode("x%z"), "x%z");
  EXPECT_EQ(UrlDecode("x%4"), "x%4");
  EXPECT_EQ(UrlDecode("x%4z"), "x%4z");
  EXPECT_EQ(UrlDecode("x%G1"), "x%G1");
  EXPECT_EQ(UrlDecode("x%G1z"), "x%G1z");
  EXPECT_EQ(UrlDecode("x%1G"), "x%1G");
  EXPECT_EQ(UrlDecode("x%%41"), "x%A");
  EXPECT_EQ(UrlDecode("x%%41z"), "x%Az");
}

// ---------------------------------------------------------------------------
// Chunked writer: one sendmsg per chunk, resumed across partial writes.
// ---------------------------------------------------------------------------

TEST(HttpChunkedWriter, LargeChunkSurvivesPartialWrites) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // A tiny non-blocking send buffer: no single sendmsg can take the 1.5 MB
  // chunk, so the writer must advance its iovecs past partial writes.
  int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf), 0);
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL) | O_NONBLOCK), 0);
  std::string payload(1536 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<char>('a' + i % 23);

  HttpResponse resp;
  util::Status read_status;
  std::thread reader([&] {
    std::string leftover;
    read_status = ReadHttpResponse(sv[1], &resp, &leftover);
  });
  HttpResponseWriter w(sv[0]);
  w.BeginChunked(200, "text/plain", {}, "X-Done");
  EXPECT_TRUE(w.Chunk(payload));
  EXPECT_TRUE(w.Chunk("tail"));
  EXPECT_TRUE(w.EndChunked({{"X-Done", "yes"}}));
  ::shutdown(sv[0], SHUT_WR);  // a failed writer must not leave the reader waiting
  reader.join();
  ::close(sv[0]);
  ::close(sv[1]);

  ASSERT_TRUE(read_status.ok()) << read_status.message();
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.body == payload + "tail") << "decoded body differs";
  EXPECT_EQ(resp.headers["x-done"], "yes");
}

TEST_F(ServerProtocolTest, TsvBodyMatchesMaterializedReference) {
  HttpResponse resp = Get("/sparql?format=tsv&query=" + UrlEncode(kProfessorQuery));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers["content-type"], "text/tab-separated-values");
  EXPECT_EQ(resp.headers["x-stop-cause"], "none");
  EXPECT_EQ(resp.body, Reference(kProfessorQuery, "tsv"));
  EXPECT_GT(std::count(resp.body.begin(), resp.body.end(), '\n'), 10);
}

TEST_F(ServerProtocolTest, JsonBodyMatchesMaterializedReference) {
  HttpResponse resp = Get("/sparql?query=" + UrlEncode(kProfessorQuery));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers["content-type"], "application/sparql-results+json");
  EXPECT_EQ(resp.body, Reference(kProfessorQuery, "json"));
}

TEST_F(ServerProtocolTest, PostFormAndRawBodyBothWork) {
  int fd = DialLocal(server_->port());
  ASSERT_GE(fd, 0);
  std::string leftover;
  HttpResponse resp;
  ASSERT_TRUE(WriteHttpRequest(fd, "POST", "/sparql?format=tsv",
                               {{"Content-Type", "application/x-www-form-urlencoded"}},
                               "query=" + UrlEncode(kProfessorQuery))
                  .ok());
  ASSERT_TRUE(ReadHttpResponse(fd, &resp, &leftover).ok());
  EXPECT_EQ(resp.status, 200);
  std::string form_body = resp.body;
  // Keep-alive: the raw-body POST rides the same connection.
  ASSERT_TRUE(WriteHttpRequest(fd, "POST", "/sparql?format=tsv",
                               {{"Content-Type", "application/sparql-query"}},
                               kProfessorQuery)
                  .ok());
  ASSERT_TRUE(ReadHttpResponse(fd, &resp, &leftover).ok());
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, form_body);
  ::close(fd);
}

TEST_F(ServerProtocolTest, PlanCacheMissThenHitWithIdenticalRows) {
  // A query text unique to this test: first sight must miss, the exact
  // reformatted text must hit (whitespace-normalized key) with equal rows.
  std::string q =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?d WHERE { ?d a ub:Department . } LIMIT 9";
  std::string reformatted =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n  "
      "SELECT ?d\nWHERE  { ?d a ub:Department . }\tLIMIT 9";
  HttpResponse miss = Get("/sparql?format=tsv&query=" + UrlEncode(q));
  HttpResponse hit = Get("/sparql?format=tsv&query=" + UrlEncode(reformatted));
  EXPECT_EQ(miss.status, 200);
  EXPECT_EQ(hit.status, 200);
  EXPECT_EQ(miss.headers["x-plan-cache"], "miss");
  EXPECT_EQ(hit.headers["x-plan-cache"], "hit");
  EXPECT_EQ(miss.body, hit.body);
}

TEST_F(ServerProtocolTest, MalformedQueryGets400WithParseError) {
  HttpResponse resp = Get("/sparql?query=" + UrlEncode("SELECT WHERE {{{"));
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("parse error"), std::string::npos) << resp.body;
  HttpResponse missing = Get("/sparql");
  EXPECT_EQ(missing.status, 400);
  EXPECT_NE(missing.body.find("missing query"), std::string::npos);
}

TEST_F(ServerProtocolTest, UnknownPathAndMethod) {
  HttpResponse resp = Get("/nope");
  EXPECT_EQ(resp.status, 404);
  int fd = DialLocal(server_->port());
  ASSERT_GE(fd, 0);
  std::string leftover;
  ASSERT_TRUE(WriteHttpRequest(fd, "DELETE", "/sparql").ok());
  ASSERT_TRUE(ReadHttpResponse(fd, &resp, &leftover).ok());
  EXPECT_EQ(resp.status, 405);
  ::close(fd);
}

TEST_F(ServerProtocolTest, StatsEndpointCounts) {
  HttpResponse resp = Get("/stats");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"plan_cache\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"requests\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Synthetic-solver servers: deterministic control over producer behaviour.
// ---------------------------------------------------------------------------

/// Emits `total` width-2 rows; optionally blocks at a gate, after
/// `gate_after` rows, until the test releases it (honouring control, so
/// cancelled runs and deadlines still terminate).
class GateSolver final : public sparql::BgpSolver {
 public:
  GateSolver(const rdf::Dictionary& dict, uint64_t total, bool gated,
             uint64_t gate_after = 0)
      : dict_(dict), total_(total), gated_(gated), gate_after_(gate_after) {}

  util::Status Evaluate(const std::vector<sparql::TriplePattern>&,
                        const sparql::VarRegistry&, const sparql::Row&,
                        const std::vector<const sparql::FilterExpr*>&,
                        const sparql::RowSink& emit,
                        const sparql::EvalControl& control) const override {
    util::Status st = Run(emit, control);
    finished_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  const rdf::Dictionary& dict() const override { return dict_; }

  /// Blocks until `n` Evaluate calls are waiting at the gate.
  void WaitForActive(int n) const {
    std::unique_lock<std::mutex> lock(mu_);
    entered_.wait(lock, [&] { return active_ >= n; });
  }
  void Release() const {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }
  /// Evaluate calls that have returned — however the enumeration ended
  /// (completion, downstream kStop, cancel/deadline trip).
  uint64_t finished() const { return finished_.load(std::memory_order_relaxed); }

 private:
  util::Status WaitAtGate(const sparql::EvalControl& control) const {
    std::unique_lock<std::mutex> lock(mu_);
    ++active_;
    entered_.notify_all();
    while (gated_ && !released_) {
      if (auto st = control.Check(); !st.ok()) {
        --active_;
        return st;
      }
      released_cv_.wait_for(lock, milliseconds(2));
    }
    --active_;
    return util::Status::Ok();
  }

  util::Status Run(const sparql::RowSink& emit,
                   const sparql::EvalControl& control) const {
    sparql::Row r(2, 0);
    const TermId n = static_cast<TermId>(dict_.size());
    for (uint64_t i = 0; i < total_; ++i) {
      if (i == gate_after_)
        if (auto st = WaitAtGate(control); !st.ok()) return st;
      if (auto st = control.Check(); !st.ok()) return st;
      r[0] = static_cast<TermId>(i % n);
      r[1] = static_cast<TermId>((i + 1) % n);
      if (emit(r) == sparql::EmitResult::kStop) return util::Status::Ok();
    }
    return util::Status::Ok();
  }

  const rdf::Dictionary& dict_;
  const uint64_t total_;
  const bool gated_;
  const uint64_t gate_after_;
  mutable std::mutex mu_;
  mutable std::condition_variable entered_, released_cv_;
  mutable int active_ = 0;
  mutable bool released_ = false;
  mutable std::atomic<uint64_t> finished_{0};
};

rdf::Dataset TinyData() {
  rdf::Dataset ds;
  for (int i = 0; i < 8; ++i)
    ds.Add(rdf::Term::Iri("http://x/s" + std::to_string(i)),
           rdf::Term::Iri("http://x/p"),
           rdf::Term::Iri("http://x/o" + std::to_string(i)));
  return ds;
}

const char* const kPairQuery = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }";

/// The row count at which a GateSolver response over `dict` fills its first
/// full chunk: the first row goes out alone, then rows fill an 8 KB chunk,
/// and the row that fills it is the last one in that chunk; later rows go
/// out in 64 KB chunks.
uint64_t FirstFullChunkRow(const rdf::Dictionary& dict, const std::string& format) {
  auto enc = MakeResultEncoder(format);
  const std::vector<std::string> vars{"s", "o"};
  const TermId n = static_cast<TermId>(dict.size());
  sparql::Row r(2);
  std::string chunk;
  for (uint64_t i = 0;; ++i) {
    r[0] = static_cast<TermId>(i % n);
    r[1] = static_cast<TermId>((i + 1) % n);
    std::string row = enc->EncodeRow(vars, r, dict, nullptr);
    if (i == 0) continue;  // the first row is a chunk of its own
    chunk += row;
    if (chunk.size() >= 8192) return i + 1;
  }
}

size_t CountThreads() {
  size_t n = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (!dir) return 0;
  while (dirent* e = ::readdir(dir))
    if (e->d_name[0] != '.') ++n;
  ::closedir(dir);
  return n;
}

TEST(ServerAdmission, SaturatedPoolAnswers503ThenRecovers) {
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 4, /*gated=*/true);
  QueryEngine engine(&solver);
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 0;  // one in flight, zero waiting: the tightest pool
  SparqlServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  // First request occupies the only worker, held at the solver gate.
  int fd = DialLocal(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      WriteHttpRequest(fd, "GET", "/sparql?format=tsv&query=" +
                                      std::string("SELECT%20?s%20?o%20WHERE%20%7B%20"
                                                  "?s%20%3Chttp://x/p%3E%20?o%20.%20%7D"))
          .ok());
  solver.WaitForActive(1);

  // Saturated: the acceptor must reject instantly, not queue.
  HttpResponse rejected;
  ASSERT_TRUE(HttpGet(server.port(), "/stats", &rejected).ok());
  EXPECT_EQ(rejected.status, 503);
  EXPECT_GE(server.stats().rejected_overload, 1u);

  solver.Release();
  HttpResponse first;
  std::string leftover;
  ASSERT_TRUE(ReadHttpResponse(fd, &first, &leftover).ok());
  EXPECT_EQ(first.status, 200);
  ::close(fd);

  // Worker freed: served again (retry while the worker re-parks).
  HttpResponse again;
  for (int i = 0; i < 200; ++i) {
    if (HttpGet(server.port(), "/stats", &again).ok() && again.status == 200) break;
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(again.status, 200);
  server.Stop();
}

TEST(ServerTeardown, MidStreamDisconnectAbandonsCursor) {
  rdf::Dataset ds = TinyData();
  // Far more rows than any socket buffer holds, so the worker is guaranteed
  // to still be streaming when the client vanishes.
  GateSolver solver(ds.dict(), 50'000'000, /*gated=*/false);
  QueryEngine engine(&solver);
  SparqlServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  int fd = DialLocal(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      WriteHttpRequest(fd, "GET", "/sparql?format=tsv&query=" +
                                      std::string("SELECT%20?s%20?o%20WHERE%20%7B%20"
                                                  "?s%20%3Chttp://x/p%3E%20?o%20.%20%7D"))
          .ok());
  // Read a little of the stream, then vanish.
  std::string leftover;
  ASSERT_TRUE(WaitForResponseByte(fd, &leftover));
  ::close(fd);

  // The next chunk write fails (on the worker or its writer), the sink
  // returns kStop, and the stop unwinds into the solver enumeration — its
  // Evaluate must return long before its 50M rows are done.
  steady_clock::time_point deadline = steady_clock::now() + std::chrono::seconds(30);
  while (solver.finished() == 0 && steady_clock::now() < deadline)
    std::this_thread::sleep_for(milliseconds(5));
  EXPECT_EQ(solver.finished(), 1u);
  server.Stop();  // joins acceptor + workers: nothing may still be running
}

TEST(ServerScale, SixtyFourConcurrentStreamingRequests) {
  rdf::Dataset ds = TinyData();
  constexpr int kClients = 64;
  constexpr uint64_t kRows = 300;
  GateSolver solver(ds.dict(), kRows, /*gated=*/true);
  QueryEngine engine(&solver);
  ServerConfig config;
  config.workers = kClients + 4;
  config.queue_depth = kClients;
  SparqlServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  const std::string target =
      "/sparql?format=tsv&query=SELECT%20?s%20?o%20WHERE%20%7B%20"
      "?s%20%3Chttp://x/p%3E%20?o%20.%20%7D";
  std::vector<int> fds(kClients, -1);
  for (int i = 0; i < kClients; ++i) {
    fds[i] = DialLocal(server.port());
    ASSERT_GE(fds[i], 0);
    ASSERT_TRUE(WriteHttpRequest(fds[i], "GET", target).ok());
  }
  // All 64 producers held at the gate at once: 64 streaming cursors are in
  // flight over one shared engine, each on its own worker thread.
  solver.WaitForActive(kClients);
  solver.Release();

  // Row-for-row parity: every body equals the materialized reference.
  auto prepared = engine.Prepare(kPairQuery);
  ASSERT_TRUE(prepared.ok());
  std::string expected;
  {
    auto enc = MakeResultEncoder("tsv");
    auto rs = sparql::Materialize(engine.solver(), kPairQuery);
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().rows.size(), kRows);
    expected = enc->Header(rs.value().var_names);
    for (const auto& row : rs.value().rows)
      expected += enc->EncodeRow(rs.value().var_names, row, engine.dict(),
                                 rs.value().local_vocab.get());
    expected += enc->Footer(sparql::StopCause::kNone);
  }
  for (int i = 0; i < kClients; ++i) {
    HttpResponse resp;
    std::string leftover;
    ASSERT_TRUE(ReadHttpResponse(fds[i], &resp, &leftover).ok()) << "client " << i;
    EXPECT_EQ(resp.status, 200) << "client " << i;
    EXPECT_EQ(resp.body, expected) << "client " << i;
    ::close(fds[i]);
  }
  server.Stop();
}

TEST(ServerDeadline, DeadlineBeforeFirstRowIs408MidStreamIsMarker) {
  rdf::Dataset ds = TinyData();
  // The gate is never released, so the deadline wins: before the first row,
  // and after 2000 rows — past the first full chunk.
  for (uint64_t gate_after : {0, 2000}) {
    GateSolver gated(ds.dict(), 5000, /*gated=*/true, gate_after);
    QueryEngine engine(&gated);
    SparqlServer server(&engine, ServerConfig{});
    ASSERT_TRUE(server.Start().ok());
    HttpResponse resp;
    ASSERT_TRUE(HttpGet(server.port(),
                        "/sparql?format=tsv&timeout-ms=50&query=SELECT%20?s%20?o%20WHERE"
                        "%20%7B%20?s%20%3Chttp://x/p%3E%20?o%20.%20%7D",
                        &resp)
                    .ok());
    if (gate_after == 0) {
      EXPECT_EQ(resp.status, 408);
      EXPECT_NE(resp.body.find("deadline"), std::string::npos) << resp.body;
      continue;
    }
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(std::count(resp.body.begin(), resp.body.end(), '\n'), 2002)
        << "header, the 2000 rows before the gate, marker";
    EXPECT_TRUE(resp.body.ends_with("\n# stopped: deadline\n"));
    EXPECT_EQ(resp.headers["x-stop-cause"], "deadline");
    server.Stop();
  }
}

TEST(ServerDeadline, StalledReaderHoldsWorkerNoLongerThanDeadline) {
  // Rows of ~8 KB fill the socket buffers long before the deadline, even in
  // a sanitizer build.
  rdf::Dataset ds;
  for (int i = 0; i < 8; ++i)
    ds.Add(rdf::Term::Iri("http://x/s" + std::to_string(i) + std::string(4000, 's')),
           rdf::Term::Iri("http://x/p"),
           rdf::Term::Iri("http://x/o" + std::to_string(i) + std::string(4000, 'o')));
  GateSolver solver(ds.dict(), 50'000'000, /*gated=*/false);
  QueryEngine engine(&solver);
  ServerConfig config;
  config.workers = 1;  // the stalled request holds the only worker
  SparqlServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  // A client that asks for a large result and never reads it.
  int stalled = DialLocal(server.port());
  ASSERT_GE(stalled, 0);
  const steady_clock::time_point start = steady_clock::now();
  ASSERT_TRUE(WriteHttpRequest(stalled, "GET",
                               "/sparql?format=tsv&timeout-ms=200&query=" +
                                   UrlEncode(kPairQuery),
                               {{"Connection", "close"}})
                  .ok());

  // Without a bounded write, the worker would wait on the stalled socket
  // forever; the watchdog then closes it (unread data makes that a reset,
  // which fails the server's write) so the test fails instead of hanging.
  std::atomic<bool> served{false};
  std::atomic<bool> reset{false};
  std::thread watchdog([&] {
    const steady_clock::time_point until = steady_clock::now() + std::chrono::seconds(5);
    while (!served.load() && steady_clock::now() < until)
      std::this_thread::sleep_for(milliseconds(5));
    if (!served.load()) {
      reset.store(true);
      ::close(stalled);
    }
  });
  HttpResponse second;
  EXPECT_TRUE(HttpGet(server.port(), "/sparql?format=tsv&query=" +
                                         UrlEncode(std::string(kPairQuery) + " LIMIT 1"),
                      &second)
                  .ok());
  const auto waited = steady_clock::now() - start;
  served.store(true);
  watchdog.join();
  EXPECT_EQ(second.status, 200);
  EXPECT_LT(waited, milliseconds(1200));
  if (!reset.load()) ::close(stalled);
  server.Stop();
}

TEST(ServerDeadline, RequestCannotLiftOrLoosenServerDeadline) {
  rdf::Dataset ds = TinyData();
  GateSolver gated(ds.dict(), 8, /*gated=*/true);
  QueryEngine engine(&gated);
  ServerConfig config;
  config.default_timeout_ms = 50;
  SparqlServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  // A request that escaped the server's deadline would wait at the gate
  // until this watchdog opens it, and then answer 200 instead of 408.
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    const steady_clock::time_point until = steady_clock::now() + std::chrono::seconds(2);
    while (!done.load() && steady_clock::now() < until)
      std::this_thread::sleep_for(milliseconds(5));
    gated.Release();
  });
  for (const char* timeout : {"0", "500"}) {
    HttpResponse resp;
    EXPECT_TRUE(HttpGet(server.port(),
                        std::string("/sparql?timeout-ms=") + timeout +
                            "&query=SELECT%20?s%20?o%20WHERE%20%7B%20"
                            "?s%20%3Chttp://x/p%3E%20?o%20.%20%7D",
                        &resp)
                    .ok());
    EXPECT_EQ(resp.status, 408) << "timeout-ms=" << timeout;
  }
  done.store(true);
  watchdog.join();
  server.Stop();
}

TEST(ServerChunks, BodiesMatchReferenceAroundTheFirstFullChunk) {
  rdf::Dataset ds = TinyData();
  constexpr uint64_t kRows = 10'000;
  GateSolver solver(ds.dict(), kRows, /*gated=*/false);
  QueryEngine engine(&solver);
  SparqlServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  for (const std::string format : {"tsv", "json"}) {
    const uint64_t at = FirstFullChunkRow(ds.dict(), format);
    ASSERT_LT(at + 1, kRows);
    for (uint64_t rows : {uint64_t{0}, uint64_t{1}, at - 1, at + 1, kRows}) {
      std::string query = kPairQuery;
      if (rows < kRows) query += " LIMIT " + std::to_string(rows);
      HttpResponse resp;
      ASSERT_TRUE(HttpGet(server.port(),
                          "/sparql?format=" + format + "&query=" + UrlEncode(query), &resp)
                      .ok());
      EXPECT_EQ(resp.status, 200);
      EXPECT_EQ(resp.headers["x-stop-cause"], "none");
      EXPECT_TRUE(resp.body == Reference(engine, query, format))
          << format << ", " << rows << " rows (first full chunk at row " << at
          << "): body differs from the reference";
    }
  }
  server.Stop();
}

/// Sends `target` on a connection of its own (Connection: close) and
/// returns the sizes of the response's data chunks, read off the raw bytes.
std::vector<size_t> ChunkSizes(uint16_t port, const std::string& target) {
  int fd = DialLocal(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  EXPECT_TRUE(WriteHttpRequest(fd, "GET", target, {{"Connection", "close"}}).ok());
  std::string raw;
  char buf[16384];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
    raw.append(buf, static_cast<size_t>(n));
  ::close(fd);
  std::vector<size_t> sizes;
  size_t pos = raw.find("\r\n\r\n");
  if (pos == std::string::npos) {
    ADD_FAILURE() << "no response head";
    return sizes;
  }
  for (pos += 4;;) {
    const size_t eol = raw.find("\r\n", pos);
    if (eol == std::string::npos) {
      ADD_FAILURE() << "truncated chunked body";
      break;
    }
    const size_t len = std::strtoull(raw.c_str() + pos, nullptr, 16);
    if (len == 0) break;
    sizes.push_back(len);
    pos = eol + 2 + len + 2;  // size line, data, CRLF
  }
  return sizes;
}

TEST(ServerChunks, LargeResponseGoesOutIn64KBChunks) {
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 10'000, /*gated=*/false);
  QueryEngine engine(&solver);
  SparqlServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  for (const std::string format : {"tsv", "json"}) {
    const std::vector<size_t> sizes = ChunkSizes(
        server.port(), "/sparql?format=" + format + "&query=" + UrlEncode(kPairQuery));
    size_t bytes = 0;
    for (size_t n : sizes) bytes += n;
    EXPECT_EQ(bytes, Reference(engine, kPairQuery, format).size()) << format;
    // The first row alone, one ~8 KB chunk, then ~64 KB chunks; the last
    // chunk carries the rest with the footer.
    EXPECT_EQ(sizes.size(), (bytes + 65535) / 65536 + 2)
        << format << ", " << bytes << " bytes";
    ASSERT_GE(sizes.size(), 4u) << format;
    EXPECT_GE(sizes[1], 8192u) << format;
    EXPECT_LT(sizes[1], 65536u) << format;
    for (size_t i = 2; i + 1 < sizes.size(); ++i) EXPECT_GE(sizes[i], 65536u) << format;
  }
  server.Stop();
}

TEST(ServerThreads, StartedServerRunsOneThreadPerWorkerPlusAcceptor) {
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 1, /*gated=*/false);
  QueryEngine engine(&solver);
  ServerConfig config;
  config.workers = 3;
  SparqlServer server(&engine, config);
  const size_t before = CountThreads();
  ASSERT_GT(before, 0u);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(CountThreads() - before, 4u) << "3 workers and the acceptor";
  server.Stop();
  EXPECT_EQ(CountThreads(), before);
}

TEST(ServerThreads, NoThreadPerQuery) {
  rdf::Dataset ds = TinyData();
  struct Case {
    uint64_t rows, gate_after;
  };
  // A 1-row response held before its row, and a response held after 2000
  // rows, past the first full chunk.
  for (Case c : {Case{1, 0}, Case{5000, 2000}}) {
    GateSolver solver(ds.dict(), c.rows, /*gated=*/true, c.gate_after);
    QueryEngine engine(&solver);
    ServerConfig config;
    config.workers = 2;
    SparqlServer server(&engine, config);
    ASSERT_TRUE(server.Start().ok());
    const size_t idle = CountThreads();
    ASSERT_GT(idle, 0u);

    int fd = DialLocal(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WriteHttpRequest(fd, "GET",
                                 "/sparql?format=tsv&query=" + UrlEncode(kPairQuery))
                    .ok());
    solver.WaitForActive(1);  // the query is in flight, held at the gate
    EXPECT_EQ(CountThreads(), idle) << c.rows << "-row response";
    solver.Release();

    HttpResponse resp;
    std::string leftover;
    ASSERT_TRUE(ReadHttpResponse(fd, &resp, &leftover).ok());
    ::close(fd);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(std::count(resp.body.begin(), resp.body.end(), '\n'), c.rows + 1);
    server.Stop();
  }
}

TEST(ServerLiveStore, CachedPlanHitsAcrossUpdateWithUpdatedRows) {
  store::LiveStore live(TinyData());
  SparqlServer server(&live, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const std::string target =
      "/sparql?format=tsv&query=SELECT%20?o%20WHERE%20%7B%20%3Chttp://x/s9%3E%20"
      "%3Chttp://x/p%3E%20?o%20.%20%7D";
  HttpResponse before;
  ASSERT_TRUE(HttpGet(server.port(), target, &before).ok());
  EXPECT_EQ(before.status, 200);
  EXPECT_EQ(before.headers["x-plan-cache"], "miss");
  EXPECT_EQ(before.headers["x-epoch"], "0");
  EXPECT_EQ(before.body.find("o9"), std::string::npos) << before.body;

  int fd = DialLocal(server.port());
  ASSERT_GE(fd, 0);
  HttpResponse updated;
  std::string leftover;
  ASSERT_TRUE(
      WriteHttpRequest(fd, "POST", "/update",
                       {{"Content-Type", "application/sparql-update"}},
                       "INSERT DATA { <http://x/s9> <http://x/p> <http://x/o9> . }")
          .ok());
  ASSERT_TRUE(ReadHttpResponse(fd, &updated, &leftover).ok());
  ::close(fd);
  EXPECT_EQ(updated.status, 200) << updated.body;

  HttpResponse after;
  ASSERT_TRUE(HttpGet(server.port(), target, &after).ok());
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.headers["x-plan-cache"], "hit");
  EXPECT_EQ(after.headers["x-epoch"], "1");
  EXPECT_NE(after.body.find("<http://x/o9>"), std::string::npos) << after.body;
  EXPECT_EQ(server.stats().plan_cache_misses, 1u);
  server.Stop();
}

TEST(ServerLiveStore, StatsReportCompaction) {
  store::LiveStore live(TinyData());
  SparqlServer server(&live, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      live.Update("INSERT DATA { <http://x/s9> <http://x/p> <http://x/o9> . }").ok());
  HttpResponse before;
  ASSERT_TRUE(HttpGet(server.port(), "/stats", &before).ok());
  EXPECT_EQ(before.status, 200);
  EXPECT_NE(
      before.body.find("\"compactions\":0,\"compacting\":false,\"replayed_updates\":0,"),
      std::string::npos)
      << before.body;
  ASSERT_TRUE(live.Compact().ok());
  HttpResponse after;
  ASSERT_TRUE(HttpGet(server.port(), "/stats", &after).ok());
  // Nothing was applied while the compaction built, so nothing re-homed.
  EXPECT_NE(
      after.body.find("\"compactions\":1,\"compacting\":false,\"replayed_updates\":0,"),
      std::string::npos)
      << after.body;
  EXPECT_NE(after.body.find("\"delta_adds\":0,"), std::string::npos) << after.body;
  server.Stop();
}

TEST(ServerLiveStore, StatsCountQueriesAndUpdatesApart) {
  store::LiveStore live(TinyData());
  SparqlServer server(&live, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  int fd = DialLocal(server.port());
  ASSERT_GE(fd, 0);
  std::string leftover;
  // Four queries and two updates, interleaved on one keep-alive connection.
  for (int i = 0; i < 6; ++i) {
    HttpResponse resp;
    if (i % 3 == 2) {
      ASSERT_TRUE(WriteHttpRequest(fd, "POST", "/update",
                                   {{"Content-Type", "application/sparql-update"}},
                                   "INSERT DATA { <http://x/s" + std::to_string(i) +
                                       "> <http://x/p> <http://x/o9> . }")
                      .ok());
    } else {
      ASSERT_TRUE(
          WriteHttpRequest(fd, "GET", "/sparql?format=tsv&query=" + UrlEncode(kPairQuery))
              .ok());
    }
    ASSERT_TRUE(ReadHttpResponse(fd, &resp, &leftover).ok());
    EXPECT_EQ(resp.status, 200) << "request " << i << ": " << resp.body;
  }
  ::close(fd);
  EXPECT_EQ(server.stats().requests, 4u);
  EXPECT_EQ(server.stats().updates, 2u);
  HttpResponse stats;
  ASSERT_TRUE(HttpGet(server.port(), "/stats", &stats).ok());
  EXPECT_NE(stats.body.find("{\"requests\":4,"), std::string::npos) << stats.body;
  server.Stop();
}

TEST(ServerLimits, RowBudgetStopCarriesInBodyMarkerAndTrailer) {
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 100'000, /*gated=*/false);
  QueryEngine engine(&solver);
  SparqlServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  // 100 rows fit in the first ~8 KB chunk; 5000 go on into 64 KB chunks.
  for (uint64_t budget : {100, 5000}) {
    HttpResponse resp;
    ASSERT_TRUE(HttpGet(server.port(),
                        "/sparql?format=tsv&budget=" + std::to_string(budget) +
                            "&query=SELECT%20?s%20?o%20WHERE%20"
                            "%7B%20?s%20%3Chttp://x/p%3E%20?o%20.%20%7D",
                        &resp)
                    .ok());
    EXPECT_EQ(resp.status, 200);  // the stream had already begun
    EXPECT_EQ(std::count(resp.body.begin(), resp.body.end(), '\n'), budget + 2)
        << "header, every row within the budget, marker";
    EXPECT_TRUE(resp.body.ends_with("\n# stopped: row budget\n")) << budget;
    EXPECT_EQ(resp.headers["x-stop-cause"], "row budget");  // chunked trailer
  }
  server.Stop();
}

TEST(ServerLimits, RowBudgetBeforeFirstRowIsEmpty200WithMarker) {
  // ORDER BY buffers every row before delivering one, so the budget trips
  // before the first row: that is still a budget stop, not a failure.
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 100'000, /*gated=*/false);
  QueryEngine engine(&solver);
  SparqlServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const std::string query =
      "&budget=100&query=SELECT%20?s%20?o%20WHERE%20%7B%20?s%20%3Chttp://x/p%3E%20?o"
      "%20.%20%7D%20ORDER%20BY%20?s";
  HttpResponse tsv;
  ASSERT_TRUE(HttpGet(server.port(), "/sparql?format=tsv" + query, &tsv).ok());
  EXPECT_EQ(tsv.status, 200) << tsv.body;
  EXPECT_EQ(tsv.body, "?s\t?o\n# stopped: row budget\n");
  EXPECT_EQ(tsv.headers["x-stop-cause"], "row budget");
  HttpResponse json;
  ASSERT_TRUE(HttpGet(server.port(), "/sparql?format=json" + query, &json).ok());
  EXPECT_EQ(json.status, 200) << json.body;
  EXPECT_EQ(json.body,
            "{\"head\":{\"vars\":[\"s\",\"o\"]},\"results\":{\"bindings\":[\n\n]},"
            "\"stopped\":\"row budget\"}\n");
  server.Stop();
}

TEST(ServerReadTimeout, IdleKeepAliveClientIsClosedAfterTheTimeout) {
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 4, /*gated=*/false);
  QueryEngine engine(&solver);
  ServerConfig config;
  config.workers = 1;  // the idle connection holds the only worker
  config.read_timeout_ms = 300;
  SparqlServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  const std::string target = "/sparql?format=tsv&query=" + UrlEncode(kPairQuery);

  // A keep-alive client that is served once and then sends nothing more.
  int idle = DialLocal(server.port());
  ASSERT_GE(idle, 0);
  HttpResponse first;
  std::string leftover;
  ASSERT_TRUE(WriteHttpRequest(idle, "GET", target).ok());
  ASSERT_TRUE(ReadHttpResponse(idle, &first, &leftover).ok());
  EXPECT_EQ(first.status, 200);
  const steady_clock::time_point start = steady_clock::now();

  // Without a read timeout the worker would wait on the idle client
  // forever; the watchdog then hangs up for it, so the test fails instead
  // of hanging.
  std::atomic<bool> served{false};
  std::thread watchdog([&] {
    const steady_clock::time_point until = steady_clock::now() + std::chrono::seconds(5);
    while (!served.load() && steady_clock::now() < until)
      std::this_thread::sleep_for(milliseconds(5));
    if (!served.load()) ::shutdown(idle, SHUT_WR);
  });
  HttpResponse second;
  EXPECT_TRUE(HttpGet(server.port(), target, &second).ok());
  const auto waited = steady_clock::now() - start;
  served.store(true);
  watchdog.join();
  EXPECT_EQ(second.status, 200);
  EXPECT_LT(waited, milliseconds(300 + 1000));
  // The server closed the idle connection without an answer.
  char c;
  EXPECT_EQ(::recv(idle, &c, 1, 0), 0);
  EXPECT_EQ(server.stats().bad_requests, 0u);
  ::close(idle);
  server.Stop();
}

TEST(ServerReadTimeout, TricklingClientIsClosedAfterTheTimeout) {
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 4, /*gated=*/false);
  QueryEngine engine(&solver);
  ServerConfig config;
  config.workers = 1;  // the trickling connection holds the only worker
  config.read_timeout_ms = 300;
  SparqlServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  const std::string target = "/sparql?format=tsv&query=" + UrlEncode(kPairQuery);

  // A client that sends its request one byte every 100 ms: every recv
  // returns well inside the timeout, but the request never completes.
  int slow = DialLocal(server.port());
  ASSERT_GE(slow, 0);
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: x\r\n\r\n";
  constexpr size_t kTrickleBytes = 40;  // 4 s, never the whole request
  ASSERT_LT(kTrickleBytes, request.size());
  std::atomic<bool> stop{false};
  std::thread trickler([&] {
    for (size_t i = 0; i < kTrickleBytes && !stop.load(); ++i) {
      if (::send(slow, &request[i], 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(milliseconds(100));
    }
  });
  std::this_thread::sleep_for(milliseconds(50));  // the worker takes it first
  const steady_clock::time_point start = steady_clock::now();

  // The second client is served once the first is cut off.
  HttpResponse second;
  EXPECT_TRUE(HttpGet(server.port(), target, &second).ok());
  const auto waited = steady_clock::now() - start;
  stop.store(true);
  trickler.join();
  EXPECT_EQ(second.status, 200);
  EXPECT_LT(waited, milliseconds(300 + 1000));
  // The server closed the trickling connection without an answer (a reset
  // when bytes it never read were still arriving).
  char c;
  EXPECT_LE(::recv(slow, &c, 1, 0), 0);
  EXPECT_EQ(server.stats().bad_requests, 0u);
  ::close(slow);
  server.Stop();
}

}  // namespace
}  // namespace turbo::server
