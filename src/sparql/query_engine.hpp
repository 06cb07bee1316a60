// The query API: the top-level facade a service front-end drives.
//
//   QueryEngine engine(std::move(dataset));            // owns data + solver
//   auto prepared = engine.Prepare(text);              // parse + plan once
//   auto cursor = engine.Open(prepared.value(), opts); // bind the options
//   cursor.value().Run(sink);                          // push rows, or
//   while (cursor.value().Next(&row)) { ... }          // read them back
//
// The layer below is a composable physical operator tree (sparql/
// operators.hpp): Prepare plans the query once, and a run instantiates the
// operator chain — BgpSource / UnionOp / OptionalOp / FilterOp / GuardOp /
// GroupAggregateOp / ProjectOp / DistinctOp / OrderByOp / TopKOp / SliceOp
// — and pushes the seed row through it on the calling thread. Rows flow
// through the operators one at a time with a kStop backchannel that unwinds
// all the way into the TurboHOM++ Matcher's SubgraphSearch (sequential and
// parallel), so a LIMIT-k query without ORDER BY enumerates only as much of
// the solution space as k rows require — the paper's "answer within the
// budget" behaviour rather than materialize-then-truncate. ORDER BY and
// GROUP BY are the pipeline breakers: ORDER BY + LIMIT keeps a bounded
// top-k heap (also composed behind DISTINCT when the sort keys are
// projected), and aggregation (GROUP BY / COUNT / SUM / MIN / MAX / AVG /
// HAVING) hash-groups before the solution modifiers, materializing computed
// values in a per-execution LocalVocab.
//
// A plan has one execution path with two surfaces over it: Cursor::Run
// pushes each row into the caller's sink as the search finds it (what the
// HTTP endpoint and `sparql_shell` use; memory stays constant without a
// sort or group stage), and Cursor::Next runs the plan once into a row
// batch and serves rows from it. Materialize() drains Next into a
// ResultSet for callers that want the whole answer at once.
//
// ExecOptions adds the service-side controls on top of the query's own
// modifiers: a delivered-row cap (limit_budget), a pre-modifier work budget
// (row_budget), a deadline, and a cooperative cancel token. Cancel/deadline
// reach the enumeration loops themselves (MatchOptions::cancel/deadline), so
// even zero-solution searches terminate promptly and cleanly.
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
  /// Ignored: every run happens on the calling thread, and Cursor::Run is
  /// the streaming surface. The field stays only because the end-to-end
  /// benchmark's reference replay still sets it, and goes with that line.
  bool streaming = false;
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

/// A result handle over one execution of a prepared plan. Run() pushes the
/// delivered rows into a caller's sink on the calling thread; Next() runs
/// the plan into a row batch on first call and then returns its rows in
/// the same order. status() reports how the run ended (Ok for completion,
/// LIMIT, or budget-satisfied stops; an error for cancellation / deadline /
/// row-budget violations or a solver-side failure — any rows already
/// delivered remain valid), and stop_cause() classifies the stop
/// machine-readably. The cursor must not outlive the solver/engine it was
/// opened on.
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
  /// Run() or Next() on one cursor, not both.
  void Run(const RowSink& sink);

  /// Advances to the next row. The first call runs the whole plan and
  /// keeps the delivered rows (bounded by LIMIT/limit_budget when present).
  /// Returns false at end-of-stream; check status() to distinguish
  /// completion from an error.
  bool Next(Row* row);

  /// How the run ended; Ok before it has run. Solver failures and
  /// exceptions surface here with their original message.
  const util::Status& status() const;

  /// Why the run stopped: kNone before it ran or after a clean end (LIMIT
  /// counts as clean), kRowBudget / kCancelled / kDeadline for the
  /// caller-imposed stops, and kProducerFailed when the solver or pipeline
  /// failed on its own — the distinction status() strings alone could not
  /// carry.
  StopCause stop_cause() const;

  /// Projected variable names (row columns), in SELECT order.
  const std::vector<std::string>& var_names() const;

  /// Rows that entered the solution-modifier stage before the run stopped;
  /// with an early LIMIT stop this is what the pushdown saved work on
  /// (compare with ResultSet::total_before_modifiers of a full run).
  uint64_t rows_before_modifiers() const;

  /// High-water mark of rows the execution held at once for delivery
  /// ordering (sort/heap buffers, and Next()'s row batch; dedup memos and
  /// the group hash table are working state, not delivery buffers). For
  /// ORDER BY + LIMIT k this is bounded by k + OFFSET — the top-k heap,
  /// which also composes behind DISTINCT whenever every sort key is
  /// projected — while rows_before_modifiers still reports the full
  /// enumeration. A Run() with no sort stage holds no row: 0.
  uint64_t peak_buffered_rows() const;

  /// Terms computed by this execution (aggregate results); row cells with
  /// ids at or above dict.size() resolve here. Null when the query computes
  /// nothing. Shared ownership: stays valid as long as someone holds it.
  std::shared_ptr<const LocalVocab> local_vocab() const;

  /// The executed operator tree with per-operator row counts, one line per
  /// operator (the `sparql_shell --explain` output). Runs the query first,
  /// as Next() does, if it has not run yet.
  std::string Explain();

 private:
  friend class QueryEngine;
  friend Cursor OpenCursor(const BgpSolver& solver, const PreparedQuery& prepared,
                           const ExecOptions& opts);
  struct State;
  std::shared_ptr<State> state_;
};

/// Opens a cursor over a bare solver — the building block QueryEngine::Open
/// and Materialize share. The solver must outlive the cursor.
Cursor OpenCursor(const BgpSolver& solver, const PreparedQuery& prepared,
                  const ExecOptions& opts = {});

/// A query's whole answer at once.
struct ResultSet {
  std::vector<std::string> var_names;      ///< projected variable names
  std::vector<std::vector<TermId>> rows;   ///< kInvalidId = unbound (OPTIONAL)
  /// Rows that reached the solution-modifier stage. Equal to the pre-LIMIT
  /// row count when the pipeline ran to completion; smaller when LIMIT
  /// pushdown stopped the enumeration early (that is the point).
  uint64_t total_before_modifiers = 0;
  /// Computed terms (aggregate results) of this execution; cells with ids
  /// at or above dict.size() resolve here. Null for pattern-only queries.
  std::shared_ptr<const LocalVocab> local_vocab;

  size_t size() const { return rows.size(); }
};

/// Plans and runs a query over `solver` with default ExecOptions and keeps
/// every delivered row — a drained Next(), for callers (tests, benches,
/// examples) that want the answer as a value. An error status means the
/// query did not parse, plan or run to completion.
util::Result<ResultSet> Materialize(const BgpSolver& solver, const SelectQuery& q);
/// Parses `text`, then as above.
util::Result<ResultSet> Materialize(const BgpSolver& solver, const std::string& text);

/// Renders one row as a human-readable line (terms in N-Triples
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
/// each Cursor belongs to one thread at a time, but any number of cursors
/// may run over the same engine at once — the solvers' shared mutable state
/// (the RegionArena pool, the cumulative MatchStats) is mutex-protected.
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
