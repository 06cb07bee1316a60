// SparqlServer: an HTTP SPARQL-protocol endpoint over one shared
// QueryEngine — the service front-end the streaming query API was built
// for. Zero external dependencies: raw POSIX sockets (server/http.hpp), a
// bounded worker pool, and the engine's own concurrency contract (any
// number of cursors in flight over one engine).
//
// Protocol surface:
//   GET  /sparql?query=...      — query via query string
//   POST /sparql                — form-urlencoded `query=` or a raw
//                                 application/sparql-query body
//   POST /update                — SPARQL Update (INSERT DATA / DELETE DATA)
//                                 as form-urlencoded `update=` or a raw
//                                 application/sparql-update body; requires
//                                 the live-store constructor (403 otherwise)
//   GET  /stats                 — JSON counters (requests, overload 503s,
//                                 spilled responses, plan-cache
//                                 hits/misses/size, in-flight gauge; live
//                                 stores add epoch / delta / compaction
//                                 counters)
//
// When built over a live store, every /sparql response carries an X-Epoch
// header naming the epoch the request pinned: rows are consistent with
// exactly that epoch regardless of concurrent updates. The plan cache is
// keyed on query text alone — plans hold no term ids — so updates and
// compactions never invalidate it.
//
// Per-request execution controls (query parameters, with X- header
// equivalents): `limit` (delivered-row cap), `budget` / X-Row-Budget
// (pre-modifier row budget), `timeout-ms` / X-Timeout-Ms (deadline),
// `format` = json|tsv (or Accept: text/tab-separated-values). A request may
// tighten the server's row budget and deadline, never loosen them. The
// deadline also bounds every socket write: a reader that stops reading
// holds the worker no longer than the deadline (HttpResponseWriter::
// set_deadline), after which the connection is closed and the search stops
// with cause kDeadline.
//
// Execution: the plan runs on the serving worker (Cursor::Run) with the
// response's row sink as the pipeline's root, so no thread is created per
// query. Results stream with chunked transfer encoding: rows are encoded
// into one reusable per-response buffer and sent in ~8 KB chunks, the first
// row alone, so time-to-first-byte tracks the search's first row — not query
// completion. A response that fills its first full 8 KB chunk spills: its
// later rows travel in batches over a bounded channel to the worker's own
// writer thread, which encodes and sends them while the search goes on; the
// worker sends the footer and trailer once the writer has drained.
//
// Status mapping: the status line waits for the first row or the end of
// the run, so early failures get real codes — 400 parse error (parser
// message in the body), 408 deadline before the first row, 500 producer
// failures, 503 admission-control overload. A row budget is not a failure:
// whether it trips before the first row or after, the answer is a 200 whose
// stop is reported in-body (encoder footer) and in an X-Stop-Cause trailer,
// as is every stop after streaming has begun.
//
// Threading: an acceptor thread hands accepted connections to a bounded
// pool of workers, each with one writer thread, all started in Start and
// joined in Stop; each connection is owned by one worker for its keep-alive
// lifetime (thread-per-connection with a bounded pool). When the pool and
// the wait queue are both full, the acceptor answers 503 immediately rather
// than letting connections queue unbounded. A client that disconnects
// mid-stream fails the next chunk write, inline or on the writer; the sink
// then stops the search and the worker closes the connection.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "server/plan_cache.hpp"
#include "sparql/query_engine.hpp"
#include "util/status.hpp"

namespace turbo::store {
class LiveStore;
}

namespace turbo::server {

struct ServerConfig {
  uint16_t port = 0;   ///< 0 = any free port (read it back via port())
  int workers = 4;     ///< connection-serving threads (max concurrent conns)
  int queue_depth = 16;  ///< accepted connections awaiting a free worker
  size_t plan_cache_capacity = 64;
  /// Server-wide defaults, applied when a request names no tighter value.
  uint64_t default_timeout_ms = 0;  ///< deadline cap; 0 = none
  uint64_t max_row_budget = sparql::kNoBudget;
};

struct ServerStats {
  uint64_t requests = 0;           ///< /sparql requests fully dispatched
  uint64_t rejected_overload = 0;  ///< fast 503s from admission control
  uint64_t bad_requests = 0;       ///< 400s (malformed HTTP or query)
  /// /sparql responses that outgrew their first full chunk and handed the
  /// rest of their rows to the worker's writer thread.
  uint64_t responses_spilled = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Always 0: plans are keyed on query text alone and never go stale.
  /// e2ebench still reports it as server.plan_revalidations.
  uint64_t plan_cache_revalidations = 0;
  uint64_t updates = 0;                   ///< /update requests applied
  uint32_t in_flight = 0;  ///< requests being served right now
};

class SparqlServer {
 public:
  /// The engine must outlive the server.
  SparqlServer(const sparql::QueryEngine* engine, ServerConfig config);
  /// Live-store form: queries pin an epoch snapshot per request (X-Epoch)
  /// and POST /update is enabled. The store must outlive the server.
  SparqlServer(store::LiveStore* store, ServerConfig config);
  ~SparqlServer();  ///< calls Stop()

  SparqlServer(const SparqlServer&) = delete;
  SparqlServer& operator=(const SparqlServer&) = delete;

  /// Binds, listens, and spawns the acceptor + worker threads.
  util::Status Start();
  /// Stops accepting, shuts down live connections, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after Start).
  uint16_t port() const;
  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace turbo::server
