// The streaming query API: the top-level facade a service front-end drives.
//
//   QueryEngine engine(std::move(dataset));            // owns data + solver
//   auto prepared = engine.Prepare(text);              // parse + plan once
//   auto cursor = engine.Open(prepared.value(), opts); // execute
//   Row row;
//   while (cursor.value().Next(&row)) { ... }          // stream rows
//
// The layer below is a composable physical operator tree (sparql/
// operators.hpp): Prepare plans the query once, Open instantiates the
// operator chain — BgpSource / UnionOp / OptionalOp / FilterOp / GuardOp /
// GroupAggregateOp / ProjectOp / DistinctOp / OrderByOp / TopKOp / SliceOp
// — and the Cursor drains its root. Rows flow through the operators one at
// a time with a kStop backchannel that unwinds all the way into the TurboHOM++ Matcher's
// SubgraphSearch (sequential and parallel), so a LIMIT-k query without
// ORDER BY enumerates only as much of the solution space as k rows require
// — the paper's "answer within the budget" behaviour rather than
// materialize-then-truncate. ORDER BY and GROUP BY are the pipeline
// breakers: ORDER BY + LIMIT keeps a bounded top-k heap (also composed
// behind DISTINCT when the sort keys are projected), and aggregation
// (GROUP BY / COUNT / SUM / MIN / MAX / AVG / HAVING) hash-groups before
// the solution modifiers, materializing computed values in a per-execution
// LocalVocab.
//
// ExecOptions adds the service-side controls on top of the query's own
// modifiers: a delivered-row cap (limit_budget), a pre-modifier work budget
// (row_budget), a deadline, and a cooperative cancel token. Cancel/deadline
// reach the enumeration loops themselves (MatchOptions::cancel/deadline), so
// even zero-solution searches terminate promptly and cleanly.
//
// `sparql::Executor` remains as a thin compatibility wrapper that drains a
// cursor into the materialized ResultSet.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/options.hpp"
#include "graph/data_graph.hpp"
#include "rdf/dataset.hpp"
#include "sparql/ast.hpp"
#include "sparql/local_vocab.hpp"
#include "sparql/solver.hpp"
#include "util/status.hpp"

namespace turbo::baseline {
class TripleIndex;
}

namespace turbo::sparql {

class Cursor;
class TurboBgpSolver;
struct ExecOptions;

inline constexpr uint64_t kNoBudget = std::numeric_limits<uint64_t>::max();

/// Caller-side execution controls, orthogonal to the query's own solution
/// modifiers (which always apply).
struct ExecOptions {
  /// Cap on delivered (post-DISTINCT/OFFSET) rows; combines with the query's
  /// LIMIT by taking the minimum. Reaching it is a normal termination.
  uint64_t limit_budget = kNoBudget;
  /// Cap on pre-modifier rows the pipeline may inspect; exceeding it stops
  /// execution with an error status ("row budget exceeded"). Guards a
  /// service against runaway queries whose cost is in enumeration, not
  /// delivery.
  uint64_t row_budget = kNoBudget;
  /// Steady-clock deadline (epoch default = none). Tripping it surfaces as
  /// status "deadline exceeded".
  std::chrono::steady_clock::time_point deadline{};
  /// Cooperative cancel token owned by the caller; set it from any thread to
  /// stop execution with status "query cancelled".
  const std::atomic<bool>* cancel_token = nullptr;
  /// Run the operator pipeline on a producer thread that hands rows to the
  /// consumer through a bounded channel: Next() returns as soon as one row
  /// exists, the execution holds at most `channel_capacity` delivered rows
  /// in flight (plus any sort/group operator buffers), and destroying the
  /// cursor tears the enumeration down. When false (the default) the cursor
  /// materializes the delivered set on first use, exactly as before.
  bool streaming = false;
  /// Delivery-channel capacity for streaming mode, in rows (clamped to
  /// >= 1); a full channel blocks the producer (backpressure). Rows cross
  /// the channel in batches derived from it (sparql::DeliveryBatching: the
  /// first row alone, then max(1, capacity/4)-row batches), sized so the
  /// channel never queues more than `channel_capacity` rows.
  uint32_t channel_capacity = 64;
  /// Pre-built per-execution vocab (computed/overlay terms). The live store
  /// passes a vocab chained to its shared term overlay so row cells carrying
  /// update-introduced ids resolve, and VALUES/BIND constants join against
  /// them. Null (the default) lets the cursor create its own when needed.
  std::shared_ptr<LocalVocab> vocab;
  /// Opaque lifetime pin: whatever snapshot/epoch state must outlive this
  /// execution (the live store's pinned epoch). The cursor holds it until
  /// destruction; the engine never looks inside.
  std::shared_ptr<const void> pin;
};

/// A parsed + planned SELECT query, reusable across Open calls (and across
/// threads: it is immutable after Prepare). Cheap to copy — shared state.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  const SelectQuery& query() const;
  const VarRegistry& vars() const;
  /// Projected variable names, in SELECT order (all vars for SELECT *).
  const std::vector<std::string>& var_names() const;
  /// False for a default-constructed handle (one not produced by Prepare).
  bool valid() const { return impl_ != nullptr; }

  struct Impl;

 private:
  friend class Cursor;
  friend class QueryEngine;
  friend util::Result<PreparedQuery> PrepareSelect(SelectQuery q);
  friend Cursor OpenCursor(const BgpSolver& solver, const PreparedQuery& prepared,
                           const ExecOptions& opts);
  std::shared_ptr<const Impl> impl_;
};

/// Plans an already-parsed SELECT (variable registry, projection indices,
/// per-group pushable filter sets). The text front door is
/// QueryEngine::Prepare.
util::Result<PreparedQuery> PrepareSelect(SelectQuery q);

/// A result handle. Next() delivers projected rows in the same
/// order Executor::Execute would return them, or Run() pushes them into a
/// caller's sink; status() reports how the
/// stream ended (Ok for completion, LIMIT, or budget-satisfied stops; an
/// error for cancellation / deadline / row-budget violations or a
/// producer-side failure — any rows already delivered remain valid), and
/// stop_cause() classifies the stop machine-readably.
///
/// In materialized mode (the default) the cursor runs the row pipeline on
/// first use and retains only the rows the modifiers let through (bounded
/// by LIMIT/limit_budget when present). With ExecOptions::streaming the
/// pipeline runs on a producer thread feeding a bounded channel; Next()
/// pops at the consumer's pace, and teardown is clean: the destructor
/// signals the producer, drains the channel, and joins the thread, so
/// abandoning a cursor mid-stream terminates the subgraph search itself.
/// Run() needs neither: the pipeline runs on the calling thread with the
/// sink as its root, so a slow sink is the backpressure.
/// The cursor must not outlive the solver/engine it was opened on.
class Cursor {
 public:
  Cursor() = default;

  /// Push entry point: runs the plan on the calling thread and hands each
  /// delivered row, in Next() order, to `sink` as it is produced. Returns
  /// once the run has ended, with status(), stop_cause() and the counters
  /// settled. A sink kStop ends the run like LIMIT — unless the caller's
  /// deadline or cancel has fired by then, which makes it a kDeadline /
  /// kCancelled stop (a sink that waited out the deadline on a slow
  /// consumer). local_vocab() is readable from inside the sink. Use either
  /// Run() or Next() on one cursor, not both; ExecOptions::streaming is
  /// ignored.
  void Run(const RowSink& sink);

  /// Advances to the next row. Returns false at end-of-stream (check
  /// status() to distinguish completion from an error). In streaming mode
  /// this blocks until a row is available, the stream ends, or the caller's
  /// cancel/deadline fires (the waits are timeout-aware on both channel
  /// ends).
  bool Next(Row* row);

  /// How the stream ended so far; Ok while rows are still flowing.
  /// Producer-side errors (solver failures, exceptions on the producer
  /// thread) surface here with their original message once Next() has
  /// returned false.
  const util::Status& status() const;

  /// Why the stream stopped: kNone while flowing or after a clean end
  /// (LIMIT counts as clean), kRowBudget / kCancelled / kDeadline for the
  /// caller-imposed stops, kAbandoned after mid-stream teardown, and
  /// kProducerFailed when the producer side failed on its own — the
  /// distinction status() strings alone could not carry.
  StopCause stop_cause() const;

  /// Projected variable names (row columns), in SELECT order.
  const std::vector<std::string>& var_names() const;

  /// Rows that entered the solution-modifier stage before the stream
  /// stopped; with an early LIMIT stop this is what the pushdown saved work
  /// on (compare with ResultSet::total_before_modifiers of a full run).
  uint64_t rows_before_modifiers() const;

  /// High-water mark of rows the cursor held at once for delivery ordering
  /// (sort/heap/collect buffers plus, in streaming mode, the delivery
  /// channel; dedup memos and the group hash table are working state, not
  /// delivery buffers). For ORDER BY + LIMIT k this is bounded by k +
  /// OFFSET — the top-k heap, which since the operator refactor also
  /// composes behind DISTINCT whenever every sort key is projected — while
  /// rows_before_modifiers still reports the full enumeration. A streaming
  /// cursor with no sort/group stage is bounded by channel_capacity
  /// regardless of result size. Settles at end-of-stream (streaming
  /// counters read 0 until the stream ends).
  uint64_t peak_buffered_rows() const;

  /// The delivery channel's own high-water mark (streaming mode; 0 in
  /// materialized mode), already included in peak_buffered_rows(). Settles
  /// at end-of-stream.
  uint64_t peak_channel_rows() const;

  /// Terms computed by this execution (aggregate results); row cells with
  /// ids at or above dict.size() resolve here. Null when the query computes
  /// nothing. Shared ownership: stays valid as long as someone holds it.
  std::shared_ptr<const LocalVocab> local_vocab() const;

  /// The executed operator tree with per-operator row counts, one line per
  /// operator (the `sparql_shell --explain` output). Runs the query first
  /// if it has not run yet. While a streaming producer is still running,
  /// this renders the stable snapshot the producer publishes at every
  /// delivery boundary — a mutually consistent copy of all counters as of
  /// the last batch handed to the delivery channel (prefixed with a note
  /// that counts are still advancing) — and the final counts once the
  /// stream ends or the producer has finished.
  std::string Explain();

 private:
  friend class QueryEngine;
  friend Cursor OpenCursor(const BgpSolver& solver, const PreparedQuery& prepared,
                           const ExecOptions& opts);
  struct State;
  std::shared_ptr<State> state_;
};

/// Opens a cursor over a bare solver — the building block QueryEngine::Open
/// and the Executor compatibility wrapper share. The solver must outlive the
/// cursor.
Cursor OpenCursor(const BgpSolver& solver, const PreparedQuery& prepared,
                  const ExecOptions& opts = {});

/// Renders one streamed row as a human-readable line (terms in N-Triples
/// form); `var_names` comes from the cursor or prepared query. Pass the
/// cursor's local_vocab() to resolve computed (aggregate) values.
std::string FormatRow(const std::vector<std::string>& var_names, const Row& row,
                      const rdf::Dictionary& dict, const LocalVocab* local = nullptr);

/// Owns a dataset, its derived index structures, and one BgpSolver; or wraps
/// a caller-owned solver. The facade for everything above the BGP layer.
///
/// Thread-safety contract (enforced — the HTTP endpoint and the concurrent-
/// cursor torture test drive it, and the TSan CI job checks it): one engine
/// may serve any number of threads concurrently. Prepare() and Open() are
/// const and touch only immutable or internally synchronized state; a
/// PreparedQuery is immutable after Prepare and shareable across threads;
/// each Cursor is single-consumer but any number of cursors (materialized,
/// streaming, or abandoned mid-stream) may be in flight over the same
/// engine at once — the solvers' shared mutable state (the RegionArena
/// pool, the cumulative MatchStats) is mutex-protected.
class QueryEngine {
 public:
  enum class SolverKind : uint8_t {
    kTurbo,        ///< TurboHOM++ on the type-aware transformed graph
    kTurboDirect,  ///< TurboHOM on the directly transformed graph
    kSortMerge,    ///< RDF-3X-style scan + join baseline
    kIndexJoin,    ///< index-nested-loop baseline
  };

  struct Config {
    SolverKind solver = SolverKind::kTurbo;
    /// Adjacency storage for the Turbo solvers' DataGraph: the plain CSR
    /// arrays (default) or the delta + group-varint packed streams with
    /// decode-on-access (graph/compressed_adj.hpp). Ignored by baselines.
    graph::StorageMode storage = graph::StorageMode::kUncompressed;
    /// Engine options for the Turbo solvers (threads, §4.3 toggles, arena).
    engine::MatchOptions engine_options{};
  };

  /// Owning constructors: take the (inference-closed) dataset and build the
  /// transformed graph / triple index the chosen solver needs.
  explicit QueryEngine(rdf::Dataset dataset);
  QueryEngine(rdf::Dataset dataset, Config config);

  /// Owning constructor with a prebuilt graph (the snapshot "GRPH" fast
  /// path): adopts `prebuilt` when it matches the config's transform and
  /// storage mode — skipping classification, sorting, and re-encoding —
  /// and silently falls back to building from `dataset` otherwise (or when
  /// `prebuilt` is null / the solver is a baseline). The graph must have
  /// been built from (a snapshot of) this exact dataset: term ids are
  /// shared.
  QueryEngine(rdf::Dataset dataset, Config config,
              std::unique_ptr<graph::DataGraph> prebuilt);

  /// Non-owning view over an existing solver (benches and tests that manage
  /// their own EngineSet). The solver must outlive the engine.
  explicit QueryEngine(const BgpSolver* solver);

  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;
  ~QueryEngine();

  /// Parse + plan once; the result re-executes any number of times.
  util::Result<PreparedQuery> Prepare(const std::string& text) const;

  /// Starts executing a prepared query under `opts`.
  util::Result<Cursor> Open(const PreparedQuery& prepared, ExecOptions opts = {}) const;
  /// One-shot convenience: Prepare + Open.
  util::Result<Cursor> Open(const std::string& text, ExecOptions opts = {}) const;

  const BgpSolver& solver() const { return *solver_; }
  const rdf::Dictionary& dict() const { return solver_->dict(); }
  /// The owned dataset (owning engines only; nullptr when wrapping).
  const rdf::Dataset* dataset() const;
  /// The TurboBgpSolver behind this engine, or nullptr for the baselines —
  /// gives access to MatchStats for EXPLAIN-style diagnostics and tests.
  const TurboBgpSolver* turbo_solver() const;
  /// The transformed data graph (owning Turbo engines only; nullptr for
  /// baselines and wrapped solvers). Feeds memory reporting and snapshot
  /// persistence.
  const graph::DataGraph* data_graph() const;

 private:
  struct Owned;
  std::unique_ptr<Owned> owned_;   // null when wrapping a caller-owned solver
  const BgpSolver* solver_ = nullptr;
};

}  // namespace turbo::sparql
