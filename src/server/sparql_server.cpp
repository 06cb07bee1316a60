#include "server/sparql_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "graph/data_graph.hpp"
#include "server/http.hpp"
#include "server/result_encoder.hpp"
#include "sparql/operators.hpp"
#include "sparql/parser.hpp"
#include "store/live_store.hpp"

namespace turbo::server {
namespace {

/// Accepted connections awaiting a worker. Unlike util::Channel this hands
/// rejected/undrained fds back to the caller — sockets must be closed, not
/// silently dropped. Admission counts idle workers: a connection is accepted
/// when a worker is waiting for it OR the wait queue has room, so
/// queue_depth = 0 means "serve up to `workers` connections, queue none".
class ConnQueue {
 public:
  explicit ConnQueue(size_t cap) : cap_(cap) {}

  /// False when saturated or closed — the acceptor answers 503 and closes.
  bool TryPush(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || fds_.size() >= cap_ + idle_) return false;
    fds_.push_back(fd);
    ready_.notify_one();
    return true;
  }

  /// Blocks for the next connection; -1 once closed and drained.
  int Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ++idle_;
    parked_.notify_all();
    ready_.wait(lock, [this] { return closed_ || !fds_.empty(); });
    --idle_;
    if (fds_.empty()) return -1;
    int fd = fds_.front();
    fds_.pop_front();
    return fd;
  }

  /// Blocks until `n` workers are parked in Pop. Until a worker parks, its
  /// slot does not count toward admission.
  void WaitIdle(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    parked_.wait(lock, [&] { return idle_ >= n; });
  }

  /// Closes the queue and returns any connections nobody will serve.
  std::vector<int> CloseAndDrain() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    std::vector<int> rest(fds_.begin(), fds_.end());
    fds_.clear();
    ready_.notify_all();
    return rest;
  }

 private:
  const size_t cap_;
  std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable parked_;  ///< signalled whenever idle_ grows
  std::deque<int> fds_;
  size_t idle_ = 0;  ///< workers parked in Pop, ready to take a connection
  bool closed_ = false;
};

/// A response's rows go out in chunks of about this many bytes, after a
/// first chunk that carries the first row alone. A response that fills one
/// such chunk spills: the rest of its rows go to the worker's SpillWriter.
constexpr size_t kChunkBytes = 8192;
/// Geometry of the channel from a worker to its writer: rows per batch,
/// and batches in flight before the worker's pipeline blocks.
constexpr size_t kSpillBatchRows = 16;
constexpr size_t kSpillSlots = 4;

using sparql::RowChannel;

/// What one /sparql response is encoded from and written to. The worker
/// owns it; once the response spills, the writer uses it until Wait().
struct ResponseBody {
  ResponseBody(HttpResponseWriter* writer, ResultEncoder* encoder,
               const std::vector<std::string>* names, const rdf::Dictionary* d)
      : w(writer), enc(encoder), vars(names), dict(d) {}

  HttpResponseWriter* w;
  ResultEncoder* enc;
  const std::vector<std::string>* vars;
  const rdf::Dictionary* dict;
  const sparql::LocalVocab* vocab = nullptr;
  std::string buf;  ///< encoded bytes not yet sent
  bool broken = false;  ///< the writer gave up on the response

  void Append(const sparql::Row& row) { enc->AppendRow(*vars, row, *dict, vocab, &buf); }
  /// Sends `buf` as one chunk and empties it.
  bool Send() {
    bool ok = w->Chunk(buf);
    buf.clear();
    return ok;
  }
};

/// A serving worker's writer thread. A response that outgrows its first
/// full chunk hands its later rows here, so encoding and sending overlap
/// the worker's matching; a smaller response never touches it.
class SpillWriter {
 public:
  SpillWriter() : thread_([this] { Loop(); }) {}
  ~SpillWriter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Starts draining `rows` into `body`: rows are encoded into body->buf,
  /// which goes out as a chunk whenever it holds kChunkBytes. A failed write
  /// closes `rows` from the consumer side, so the worker's next push fails
  /// and its sink stops the search. The caller closes `rows` with
  /// CloseProducer and then calls Wait before it touches `body` again.
  void Begin(ResponseBody* body, RowChannel* rows) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = body;
      rows_ = rows;
    }
    cv_.notify_all();
  }

  /// Blocks until the writer has drained the closed channel or given up;
  /// body->buf then holds the encoded rows not yet sent.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return body_ == nullptr; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return quit_ || body_ != nullptr; });
      if (!body_) return;
      ResponseBody* body = body_;
      RowChannel* rows = rows_;
      lock.unlock();
      try {
        Drain(body, rows);
      } catch (...) {  // an encoder failure must not end the process
        body->broken = true;
        rows->CloseConsumer();
      }
      lock.lock();
      body_ = nullptr;
      cv_.notify_all();
    }
  }

  static void Drain(ResponseBody* body, RowChannel* rows) {
    sparql::RowBatch batch;
    sparql::Row row;
    while (rows->Pop(&batch) == RowChannel::Op::kOk) {
      for (size_t i = 0; i < batch.size(); ++i) {
        batch.CopyRow(i, &row);
        body->Append(row);
      }
      if (body->buf.size() >= kChunkBytes && !body->Send()) {
        body->broken = true;
        rows->CloseConsumer();
        return;
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;  ///< a job arrived, a job finished, or quit
  ResponseBody* body_ = nullptr;  ///< the response being drained, if any
  RowChannel* rows_ = nullptr;
  bool quit_ = false;
  std::thread thread_;  ///< last: starts after the members it reads
};

uint64_t ParseU64(const std::string& s, uint64_t fallback) {
  if (s.empty()) return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() ? fallback : v;
}

}  // namespace

struct SparqlServer::Impl {
  const sparql::QueryEngine* engine;      // null when serving a live store
  store::LiveStore* store = nullptr;      // null when serving a bare engine
  ServerConfig config;
  PlanCache plan_cache;
  ConnQueue queue;

  int listen_fd = -1;
  uint16_t bound_port = 0;
  std::thread acceptor;
  std::vector<std::thread> workers;
  std::atomic<bool> stopping{false};
  bool started = false;

  // Connections currently owned by workers, so Stop() can shut them down
  // under a blocked read/write.
  std::mutex conns_mu;
  std::unordered_set<int> live_conns;

  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> rejected_overload{0};
  std::atomic<uint64_t> bad_requests{0};
  std::atomic<uint64_t> responses_spilled{0};
  std::atomic<uint64_t> updates{0};
  std::atomic<uint32_t> in_flight{0};

  Impl(const sparql::QueryEngine* e, store::LiveStore* st, ServerConfig c)
      : engine(e),
        store(st),
        config(c),
        plan_cache(c.plan_cache_capacity),
        queue(static_cast<size_t>(c.queue_depth < 0 ? 0 : c.queue_depth)) {}

  void AcceptLoop() {
    for (;;) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed: Stop() is in progress
      }
      // Chunk frames are small writes; without TCP_NODELAY, Nagle + delayed
      // ACK turns every response tail into a ~40ms stall.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (stopping.load() || !queue.TryPush(fd)) {
        // Admission control: never let connections queue unbounded — tell
        // the client to back off now, while the answer is still cheap.
        rejected_overload.fetch_add(1, std::memory_order_relaxed);
        HttpResponseWriter w(fd);
        w.WriteSimple(503, "text/plain", "server overloaded\n", {}, /*keep_alive=*/false);
        ::close(fd);
      }
    }
  }

  void WorkerLoop() {
    SpillWriter writer;  // this worker's writer, joined when the worker exits
    for (;;) {
      int fd = queue.Pop();
      if (fd < 0) return;
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        live_conns.insert(fd);
      }
      ServeConnection(fd, &writer);
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        live_conns.erase(fd);
      }
      ::close(fd);
    }
  }

  void ServeConnection(int fd, SpillWriter* writer) {
    std::string leftover;
    while (!stopping.load()) {
      HttpRequest req;
      util::Status st = ReadHttpRequest(fd, &req, &leftover);
      if (!st.ok()) {
        if (st.message() != "connection closed") {
          bad_requests.fetch_add(1, std::memory_order_relaxed);
          HttpResponseWriter(fd).WriteSimple(400, "text/plain", st.message() + "\n", {},
                                             false);
        }
        return;
      }
      in_flight.fetch_add(1, std::memory_order_relaxed);
      bool keep = Dispatch(fd, req, writer);
      in_flight.fetch_sub(1, std::memory_order_relaxed);
      if (!keep) return;
    }
  }

  /// Returns whether the connection survives for another request.
  bool Dispatch(int fd, const HttpRequest& req, SpillWriter* writer) {
    bool keep_alive = req.header("connection") != "close";
    HttpResponseWriter w(fd);
    if (req.path == "/stats") {
      ServerStats s = Snapshot();
      std::string body =
          "{\"requests\":" + std::to_string(s.requests) +
          ",\"rejected_overload\":" + std::to_string(s.rejected_overload) +
          ",\"bad_requests\":" + std::to_string(s.bad_requests) +
          ",\"responses_spilled\":" + std::to_string(s.responses_spilled) +
          ",\"plan_cache\":{\"hits\":" + std::to_string(s.plan_cache_hits) +
          ",\"misses\":" + std::to_string(s.plan_cache_misses) +
          ",\"size\":" + std::to_string(plan_cache.size()) + "}";
      if (store) {
        store::LiveStore::Stats ls = store->stats();
        body += ",\"store\":{\"epoch\":" + std::to_string(ls.epoch) +
                ",\"updates_applied\":" + std::to_string(ls.updates_applied) +
                ",\"compactions\":" + std::to_string(ls.compactions) +
                ",\"compacting\":" + (ls.compacting ? "true" : "false") +
                ",\"replayed_updates\":" + std::to_string(ls.replayed_updates) +
                ",\"delta_adds\":" + std::to_string(ls.delta_adds) +
                ",\"tombstones\":" + std::to_string(ls.tombstones) +
                ",\"overlay_terms\":" + std::to_string(ls.overlay_terms) +
                ",\"base_triples\":" + std::to_string(ls.base_triples) + "}";
        // Graph storage footprint (turbo engines only): the byte breakdown
        // DataGraph::MemoryUsage reports, so operators can compare plain vs
        // compressed adjacency without restarting under a profiler.
        if (const graph::DataGraph* g = store->snapshot()->engine->data_graph()) {
          graph::DataGraph::MemoryBreakdown m = g->MemoryUsage();
          body += std::string(",\"graph\":{\"storage\":\"") +
                  (g->compressed() ? "compressed" : "plain") +
                  "\",\"total_bytes\":" + std::to_string(m.total()) +
                  ",\"adjacency_bytes\":" + std::to_string(m.adjacency_total()) +
                  ",\"adjacency\":{\"groups\":" + std::to_string(m.adjacency_groups) +
                  ",\"neighbors\":" + std::to_string(m.adjacency_neighbors) +
                  ",\"compressed\":" + std::to_string(m.adjacency_compressed) +
                  ",\"skip_tables\":" + std::to_string(m.skip_tables) +
                  ",\"signatures\":" + std::to_string(m.signatures) + "}" +
                  ",\"vertex_labels\":" + std::to_string(m.vertex_labels) +
                  ",\"inverse_label_index\":" + std::to_string(m.inverse_label_index) +
                  ",\"predicate_index\":" + std::to_string(m.predicate_index) +
                  ",\"term_maps\":" + std::to_string(m.term_maps) +
                  ",\"schema\":" + std::to_string(m.schema) + "}";
        }
        // Dictionary layout: the frequency-split band + hot-term cache and
        // shard fill (see rdf/dictionary.hpp), next to the graph bytes they
        // shrink.
        {
          rdf::Dictionary::LayoutStats d =
              store->snapshot()->engine->dict().layout_stats();
          char load[96];
          std::snprintf(load, sizeof(load),
                        "{\"min\":%.3f,\"max\":%.3f,\"avg\":%.3f}",
                        d.shard_load_min, d.shard_load_max, d.shard_load_avg);
          body += ",\"dict\":{\"terms\":" + std::to_string(d.terms) +
                  ",\"hot_band\":" + std::to_string(d.hot_band) +
                  ",\"hot_cache_hits\":" + std::to_string(d.hot_hits) +
                  ",\"hot_cache_probes\":" + std::to_string(d.hot_probes) +
                  ",\"index_bytes\":" + std::to_string(d.index_bytes) +
                  ",\"shard_load\":" + load + "}";
        }
      }
      body += ",\"in_flight\":" + std::to_string(s.in_flight) + "}\n";
      return w.WriteSimple(200, "application/json", body, {}, keep_alive) && keep_alive;
    }
    if (req.path == "/update") {
      if (req.method != "POST") {
        bad_requests.fetch_add(1, std::memory_order_relaxed);
        return w.WriteSimple(405, "text/plain", "use POST\n", {}, keep_alive) &&
               keep_alive;
      }
      return HandleUpdate(&w, req, keep_alive) && keep_alive;
    }
    if (req.path != "/sparql") {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return w.WriteSimple(404, "text/plain", "not found\n", {}, keep_alive) && keep_alive;
    }
    if (req.method != "GET" && req.method != "POST") {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return w.WriteSimple(405, "text/plain", "use GET or POST\n", {}, keep_alive) &&
             keep_alive;
    }
    return HandleQuery(&w, req, keep_alive, writer) && keep_alive;
  }

  bool HandleQuery(HttpResponseWriter* w, const HttpRequest& req, bool keep_alive,
                   SpillWriter* writer) {
    requests.fetch_add(1, std::memory_order_relaxed);
    std::string query = req.param("query");
    if (query.empty() &&
        req.header("content-type").find("application/sparql-query") != std::string::npos)
      query = req.body;
    if (query.empty()) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return w->WriteSimple(400, "text/plain", "missing query\n", {}, keep_alive);
    }

    // Per-request execution controls, clamped to the server-wide caps.
    sparql::ExecOptions opts;
    opts.limit_budget = ParseU64(req.param("limit"), sparql::kNoBudget);
    opts.row_budget = std::min(
        config.max_row_budget,
        ParseU64(!req.param("budget").empty() ? req.param("budget")
                                              : req.header("x-row-budget"),
                 sparql::kNoBudget));
    // The deadline is the tighter of the request's and the server's; a
    // request's 0 names none, so it can never loosen or lift the server's.
    uint64_t timeout_ms =
        ParseU64(!req.param("timeout-ms").empty() ? req.param("timeout-ms")
                                                  : req.header("x-timeout-ms"),
                 0);
    if (config.default_timeout_ms > 0 &&
        (timeout_ms == 0 || timeout_ms > config.default_timeout_ms))
      timeout_ms = config.default_timeout_ms;
    if (timeout_ms > 0)
      opts.deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);

    std::string format = req.param("format");
    if (format.empty())
      format = req.header("accept").find("tab-separated") != std::string::npos ? "tsv"
                                                                               : "json";
    std::unique_ptr<ResultEncoder> enc = MakeResultEncoder(format);
    if (!enc) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return w->WriteSimple(400, "text/plain", "unknown format (json|tsv)\n", {},
                            keep_alive);
    }

    // A live store pins one epoch snapshot for the whole request: the
    // cursor executes over it and rows format against its dictionary — both
    // consistent with the X-Epoch the response reports, regardless of
    // concurrent updates. Cached plans hold no term ids, so any epoch's
    // plan serves this one.
    std::shared_ptr<const store::LiveStore::Snapshot> snap;
    if (store) snap = store->snapshot();

    PlanCache::Lookup looked = plan_cache.Get(snap ? *snap->engine : *engine, query);
    const char* cache_state = looked.hit ? "hit" : "miss";
    std::map<std::string, std::string> headers{{"X-Plan-Cache", cache_state}};
    if (snap) headers["X-Epoch"] = std::to_string(snap->epoch);
    if (!looked.plan.ok()) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return w->WriteSimple(400, "text/plain",
                            "parse error: " + looked.plan.message() + "\n", headers,
                            keep_alive);
    }
    auto cursor = snap ? store::LiveStore::OpenAt(snap, looked.plan.value(), opts)
                       : engine->Open(looked.plan.value(), opts);
    if (!cursor.ok())
      return w->WriteSimple(500, "text/plain", cursor.message() + "\n", headers,
                            keep_alive);
    sparql::Cursor& cur = cursor.value();
    w->set_deadline(opts.deadline);
    ResponseBody body{w, enc.get(), &cur.var_names(),
                      snap ? &snap->dict() : &engine->dict()};

    // The plan runs on this worker with the sink below as its root. The
    // status line waits for the first row (or the end of the run), so an
    // early failure still gets a real status code. The first row goes out
    // alone — time to first byte tracks the search — then ~8KB chunks.
    // Once a response has filled a full chunk it spills: later rows travel
    // in batches to this worker's writer, which encodes and sends them
    // while the search goes on. A failed or timed-out write stops the
    // search (the sink returns kStop; past the deadline that is kDeadline).
    sparql::EvalControl control;
    control.cancel = opts.cancel_token;
    control.deadline = opts.deadline;
    bool begun = false;
    auto begin = [&] {
      begun = true;
      w->BeginChunked(200, enc->content_type(), headers, "X-Stop-Cause", keep_alive);
      body.buf = enc->Header(*body.vars);
    };
    std::unique_ptr<RowChannel> spill;
    sparql::RowBatch batch;
    auto hand_batch = [&] {
      auto op = control.cancel || control.has_deadline()
                    ? spill->Push(std::move(batch),
                                  [&] { return control.cancelled() || control.expired(); })
                    : spill->Push(std::move(batch));
      batch.Clear();
      return op == RowChannel::Op::kOk;
    };
    cur.Run([&](const sparql::Row& row) {
      if (spill) {
        if (batch.empty()) batch.Reserve(kSpillBatchRows, row.size());
        batch.Append(row);
        if (batch.size() < kSpillBatchRows || hand_batch())
          return sparql::EmitResult::kContinue;
        return sparql::EmitResult::kStop;
      }
      if (!begun) {
        begin();
        body.vocab = cur.local_vocab().get();  // the cursor keeps it alive
        body.Append(row);
        return body.Send() ? sparql::EmitResult::kContinue : sparql::EmitResult::kStop;
      }
      body.Append(row);
      if (body.buf.size() < kChunkBytes) return sparql::EmitResult::kContinue;
      if (!body.Send()) return sparql::EmitResult::kStop;
      spill = std::make_unique<RowChannel>(kSpillSlots);
      responses_spilled.fetch_add(1, std::memory_order_relaxed);
      writer->Begin(&body, spill.get());
      return sparql::EmitResult::kContinue;
    });
    bool handed = true;  // false: the last rows never reached the writer
    if (spill) {
      if (!batch.empty()) handed = hand_batch();
      spill->CloseProducer();
      writer->Wait();
    }
    // Client gone or stalled past the deadline: close the connection.
    if (!handed || w->failed() || body.broken) return false;

    sparql::StopCause cause = cur.stop_cause();
    if (!begun) {
      // No row was sent, so the status line is still open. A row budget is
      // not a failure: tripped before the first row (a sort or group over
      // more rows than the budget) it answers like one tripped after it — a
      // 200 whose body carries the stop marker and trailer.
      if (!cur.status().ok() && cause != sparql::StopCause::kRowBudget) {
        int code = cause == sparql::StopCause::kDeadline ? 408 : 500;
        return w->WriteSimple(code, "text/plain",
                              cur.status().message() + " (stop cause: " +
                                  sparql::ToString(cause) + ")\n",
                              headers, keep_alive);
      }
      begin();
    }
    body.buf += enc->Footer(cause);
    return w->EndChunked({{"X-Stop-Cause", sparql::ToString(cause)}}, body.buf);
  }

  bool HandleUpdate(HttpResponseWriter* w, const HttpRequest& req, bool keep_alive) {
    requests.fetch_add(1, std::memory_order_relaxed);
    if (!store) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return w->WriteSimple(403, "text/plain", "read-only endpoint (no live store)\n",
                            {}, keep_alive);
    }
    std::string text = req.param("update");
    if (text.empty() &&
        req.header("content-type").find("application/sparql-update") != std::string::npos)
      text = req.body;
    if (text.empty()) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return w->WriteSimple(400, "text/plain", "missing update\n", {}, keep_alive);
    }
    auto request = sparql::ParseUpdate(text);
    if (!request.ok()) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return w->WriteSimple(400, "text/plain",
                            "parse error: " + request.message() + "\n", {}, keep_alive);
    }
    auto result = store->Apply(request.value());
    if (!result.ok())
      return w->WriteSimple(500, "text/plain", result.message() + "\n", {}, keep_alive);
    updates.fetch_add(1, std::memory_order_relaxed);
    const store::LiveStore::UpdateResult& r = result.value();
    std::string body = "{\"epoch\":" + std::to_string(r.epoch) +
                       ",\"inserted\":" + std::to_string(r.inserted) +
                       ",\"deleted\":" + std::to_string(r.deleted) +
                       ",\"delta_adds\":" + std::to_string(r.delta_adds) +
                       ",\"tombstones\":" + std::to_string(r.tombstones) + "}\n";
    return w->WriteSimple(200, "application/json", body,
                          {{"X-Epoch", std::to_string(r.epoch)}}, keep_alive);
  }

  ServerStats Snapshot() const {
    ServerStats s;
    s.requests = requests.load(std::memory_order_relaxed);
    s.rejected_overload = rejected_overload.load(std::memory_order_relaxed);
    s.bad_requests = bad_requests.load(std::memory_order_relaxed);
    s.responses_spilled = responses_spilled.load(std::memory_order_relaxed);
    s.plan_cache_hits = plan_cache.hits();
    s.plan_cache_misses = plan_cache.misses();
    s.updates = updates.load(std::memory_order_relaxed);
    s.in_flight = in_flight.load(std::memory_order_relaxed);
    return s;
  }
};

SparqlServer::SparqlServer(const sparql::QueryEngine* engine, ServerConfig config)
    : impl_(std::make_unique<Impl>(engine, nullptr, config)) {}

SparqlServer::SparqlServer(store::LiveStore* store, ServerConfig config)
    : impl_(std::make_unique<Impl>(nullptr, store, config)) {}

SparqlServer::~SparqlServer() { Stop(); }

util::Status SparqlServer::Start() {
  Impl& s = *impl_;
  s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s.listen_fd < 0) return util::Status::Error("socket failed");
  int one = 1;
  ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(s.config.port);
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(s.listen_fd);
    s.listen_fd = -1;
    return util::Status::Error(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(s.listen_fd, 64) != 0) {
    ::close(s.listen_fd);
    s.listen_fd = -1;
    return util::Status::Error(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  s.bound_port = ntohs(addr.sin_port);

  int workers = s.config.workers < 1 ? 1 : s.config.workers;
  s.workers.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i)
    s.workers.emplace_back([this] { impl_->WorkerLoop(); });
  // Accept only once the whole pool is parked: otherwise a connection that
  // arrives before a worker first reaches Pop is refused with a 503 even
  // though the pool is idle.
  s.queue.WaitIdle(static_cast<size_t>(workers));
  s.acceptor = std::thread([this] { impl_->AcceptLoop(); });
  s.started = true;
  return util::Status::Ok();
}

void SparqlServer::Stop() {
  Impl& s = *impl_;
  if (!s.started) return;  // idempotent (sequential calls; not a race-safe API)
  s.started = false;
  s.stopping.store(true);
  // shutdown() fails the blocked accept() and the acceptor exits; it must go
  // first so no new connections arrive below. The fd is closed only after
  // the join — the acceptor re-reads listen_fd each iteration, so clearing
  // it while that thread is live would race (and closing early could let a
  // recycled fd number reach accept()).
  if (s.listen_fd >= 0) ::shutdown(s.listen_fd, SHUT_RDWR);
  if (s.acceptor.joinable()) s.acceptor.join();
  if (s.listen_fd >= 0) {
    ::close(s.listen_fd);
    s.listen_fd = -1;
  }
  for (int fd : s.queue.CloseAndDrain()) ::close(fd);  // nobody will serve these
  {
    // Kick workers out of blocked reads/writes on live connections. The fd
    // stays open (the worker closes it) — shutdown only fails the I/O.
    std::lock_guard<std::mutex> lock(s.conns_mu);
    for (int fd : s.live_conns) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : s.workers)
    if (t.joinable()) t.join();
  s.workers.clear();
}

uint16_t SparqlServer::port() const { return impl_->bound_port; }

ServerStats SparqlServer::stats() const { return impl_->Snapshot(); }

}  // namespace turbo::server
