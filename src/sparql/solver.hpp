// BgpSolver: the narrow interface between the SPARQL executor and a basic
// graph pattern evaluator. Three implementations exist:
//   * TurboBgpSolver      — the paper's engine (TurboHOM / TurboHOM++),
//   * SortMergeBgpSolver  — RDF-3X-style baseline (six sorted permutations),
//   * IndexJoinBgpSolver  — index-nested-loop baseline (System-X stand-in).
// Sharing the interface lets the executor provide OPTIONAL / FILTER / UNION
// uniformly and lets tests cross-check the engines row-for-row.
//
// Evaluation is push-with-backpressure: the solver emits rows into a
// RowSink, and the sink's EmitResult return value propagates a stop request
// back down into the enumeration (through the TurboHOM++ Matcher's
// SubgraphSearch, including its parallel workers). This is what lets a
// LIMIT-k cursor terminate matching after k rows instead of materializing
// the full solution bag.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.hpp"
#include "sparql/ast.hpp"
#include "util/common.hpp"
#include "util/status.hpp"

namespace turbo::sparql {

/// A (partial) solution row: variable index -> bound term (kInvalidId =
/// unbound).
using Row = std::vector<TermId>;

/// `size()` rows of `width()` TermIds stored flat — what a materialized
/// cursor collects into. The row count is kept explicitly, so zero-width
/// rows (SELECT * over a ground pattern) still count. Operators keep
/// passing `const Row&`.
class RowBatch {
 public:
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  size_t width() const { return width_; }

  /// Appends a row; the first row of an empty batch fixes the width.
  void Append(const Row& row) {
    if (n_ == 0) width_ = row.size();
    cells_.insert(cells_.end(), row.begin(), row.end());
    ++n_;
  }
  /// Overwrites `*out` with row `i` (no allocation once `*out` has room).
  void CopyRow(size_t i, Row* out) const {
    auto first = cells_.begin() + static_cast<std::ptrdiff_t>(i * width_);
    out->assign(first, first + static_cast<std::ptrdiff_t>(width_));
  }
  /// The rows as separate vectors (tests and diagnostics).
  std::vector<Row> ToRows() const {
    std::vector<Row> out(n_);
    for (size_t i = 0; i < n_; ++i) CopyRow(i, &out[i]);
    return out;
  }

 private:
  std::vector<TermId> cells_;
  size_t width_ = 0;
  size_t n_ = 0;
};

/// Stable mapping from variable names to row indices for one query.
class VarRegistry {
 public:
  int GetOrAdd(const std::string& name) {
    auto [it, added] = index_.try_emplace(name, static_cast<int>(names_.size()));
    if (added) names_.push_back(name);
    return it->second;
  }
  std::optional<int> Find(const std::string& name) const {
    auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }
  const std::string& name(int i) const { return names_[i]; }
  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> names_;
};

/// What a RowSink tells the producing solver after each row.
enum class EmitResult : uint8_t {
  kContinue,  ///< keep enumerating
  kStop,      ///< enough rows: unwind the enumeration and return Ok
};

/// Per-row consumer. Returning kStop is a normal early termination (LIMIT
/// satisfied, cursor closed), not an error.
using RowSink = std::function<EmitResult(const Row&)>;

/// Caller-supplied cancellation surface threaded through Evaluate into the
/// enumeration loops. Distinct from a sink kStop: tripping either signal
/// makes Evaluate return an error status (see CheckControl).
struct EvalControl {
  const std::atomic<bool>* cancel = nullptr;          ///< cooperative cancel token
  std::chrono::steady_clock::time_point deadline{};   ///< epoch default = none

  bool has_deadline() const { return deadline.time_since_epoch().count() != 0; }
  bool cancelled() const {
    return cancel && cancel->load(std::memory_order_relaxed);
  }
  bool expired() const {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline;
  }
  /// Ok, or the error a solver must return when a signal has fired.
  util::Status Check() const {
    if (cancelled()) return util::Status::Error("query cancelled");
    if (expired()) return util::Status::Error("deadline exceeded");
    return util::Status::Ok();
  }
};

/// Machine-readable classification of why an execution stopped before a
/// natural end-of-stream. status() carries the human message; this answers
/// "was that a budget I imposed, or did the producer side fail?".
enum class StopCause : uint8_t {
  kNone,            ///< still flowing, or completed (LIMIT counts as normal)
  kRowBudget,       ///< ExecOptions::row_budget tripped
  kCancelled,       ///< caller's cancel token fired
  kDeadline,        ///< caller's deadline expired
  kProducerFailed,  ///< solver/pipeline raised an error of its own
};

/// Short stable name for a StopCause — what `sparql_shell` prints to stderr
/// and the HTTP endpoint sends in its X-Stop-Cause header.
inline const char* ToString(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "none";
    case StopCause::kRowBudget: return "row budget";
    case StopCause::kCancelled: return "cancelled";
    case StopCause::kDeadline: return "deadline";
    case StopCause::kProducerFailed: return "producer failed";
  }
  return "unknown";
}

/// Maps a tripped EvalControl to its cause; `fallback` is used when no
/// control signal fired (i.e. the producer itself failed).
inline StopCause CauseOf(const EvalControl& control, StopCause fallback) {
  if (control.cancelled()) return StopCause::kCancelled;
  if (control.expired()) return StopCause::kDeadline;
  return fallback;
}

class BgpSolver {
 public:
  virtual ~BgpSolver() = default;

  /// Evaluates `bgp` under the pre-bound row `bound` (vars already bound act
  /// as constants — this is how the executor implements OPTIONAL extension).
  /// Emits one completed row per solution until the sink returns kStop (then
  /// returns Ok without enumerating further) or `control` trips (then
  /// returns the matching error). `pushable` are filters whose variables all
  /// occur in `bgp`; a solver MAY use them to prune early (§5.1:
  /// "inexpensive filters are applied whenever we access the corresponding
  /// vertices") — the executor re-checks every filter, so ignoring them is
  /// always safe.
  virtual util::Status Evaluate(const std::vector<TriplePattern>& bgp,
                                const VarRegistry& vars, const Row& bound,
                                const std::vector<const FilterExpr*>& pushable,
                                const RowSink& emit,
                                const EvalControl& control = {}) const = 0;

  /// Solver-side COUNT(*): when the solver can count the solutions of `bgp`
  /// without assembling or emitting rows, it sets *count, sets *counted =
  /// true, and the executor skips row enumeration entirely (the COUNT(*)
  /// pushdown). Declining (*counted = false, the default) is always safe —
  /// the executor falls back to Evaluate + aggregation. A solver must only
  /// count patterns whose Evaluate would emit exactly one row per embedding
  /// (no per-solution binding expansion), with no `bound` prefix and no
  /// pushed filters in play.
  virtual util::Status CountSolutions(const std::vector<TriplePattern>& bgp,
                                      const VarRegistry& vars, uint64_t* count,
                                      bool* counted,
                                      const EvalControl& control = {}) const {
    (void)bgp;
    (void)vars;
    (void)count;
    (void)control;
    *counted = false;
    return util::Status::Ok();
  }

  /// The dictionary used to resolve constants in patterns and filters.
  virtual const rdf::Dictionary& dict() const = 0;
};

}  // namespace turbo::sparql
