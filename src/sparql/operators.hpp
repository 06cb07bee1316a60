// The composable physical operator layer: a SELECT query is planned into a
// chain of small single-purpose RowOps instead of one hard-coded pipeline
// class. Concrete operators:
//
//   BgpSource        evaluates a group's basic graph pattern per input row
//                    (streaming out of BgpSolver::Evaluate; the seed row
//                    makes it a source, a bound row makes it a bind join)
//   UnionOp          feeds each input row through every branch sub-chain
//   OptionalOp       left-join extension with the qualify-or-keep fallback
//   FilterOp         drops rows failing FILTER / HAVING constraints
//   GuardOp          pre-modifier row budget + periodic cancel/deadline probe
//   GroupAggregateOp hash grouping with COUNT/SUM/MIN/MAX/AVG accumulation
//   ProjectOp        narrows full-width rows to the SELECT columns
//   DistinctOp       set-based duplicate elimination
//   OrderByOp/TopKOp pipeline breakers: full sort, or the bounded
//                    offset+limit heap with arrival-sequence tiebreak
//   SliceOp          OFFSET/LIMIT; the kStop origin for LIMIT pushdown
//   CollectOp        root of a materialized run: the Cursor's row batch
//   RelayOp          glue: terminates a branch sub-chain (or a push run's
//                    pipeline) into a callback
//
// Execution model: produce/consume (push), not Volcano pull. The solvers
// enumerate through callbacks that cannot be suspended mid-recursion, so a
// pull Next() at the leaf would have to either materialize the whole BGP
// (killing LIMIT pushdown) or restart enumeration per row. Push with a
// kStop backchannel gives the same early-termination behaviour demand-pull
// would: when SliceOp has delivered OFFSET+LIMIT rows its kStop unwinds
// through every operator into SubgraphSearch, and blocking operators
// (sort/group) absorb the demand boundary exactly where a pull tree would
// block. Every execution is one push run on the calling thread:
// Cursor::Run roots it at a RelayOp into the caller's sink, and
// Cursor::Next runs it once into a CollectOp and serves rows from the batch.
//
// Lifecycle: Open() once (resets per-run state down the chain), Push() per
// input row, Finish() once at end of input (blocking operators emit their
// buffered results downstream here), all single-threaded per chain. A
// kStop return from Push/Emit means "no more rows needed" — normal early
// termination. Errors (budget/cancel/deadline) travel through the shared
// ExecState: the failing operator records the status and returns kStop.
//
// Every operator counts rows in/out; ExplainChain renders the tree with
// those counts (the `sparql_shell --explain` output).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sparql/ast.hpp"
#include "sparql/local_vocab.hpp"
#include "sparql/solver.hpp"
#include "sparql/typed_value.hpp"
#include "util/status.hpp"

namespace turbo::sparql {

class FilterEvaluator;

/// Three-way term comparison for ORDER BY and MIN/MAX (numeric when both
/// sides are numeric, else lexical; unbound sorts first). Resolves local
/// (computed) ids as well as dictionary ids.
int CompareTerms(const rdf::Dictionary& dict, const LocalVocab* local, TermId a,
                 TermId b);

/// State shared by every operator of one execution: the cancellation
/// surface, the first error raised (with its machine-readable cause), and
/// the cursor-visible counters.
struct ExecState {
  EvalControl control;
  util::Status error;
  StopCause cause = StopCause::kNone;  ///< why `error` was raised
  uint64_t before_modifiers = 0;  ///< rows that reached the modifier stage
  uint64_t peak_buffered = 0;     ///< high-water mark of any operator buffer

  /// Records the first error and its classification; later failures are
  /// ignored (the first stop is the one the cursor reports).
  void Fail(util::Status st, StopCause why) {
    if (error.ok()) {
      error = std::move(st);
      cause = why;
    }
  }
  void NoteBuffered(uint64_t n) {
    if (n > peak_buffered) peak_buffered = n;
  }
};

class RowOp {
 public:
  RowOp(std::string label, RowOp* next, ExecState* state)
      : label_(std::move(label)), next_(next), state_(state) {}
  virtual ~RowOp() = default;

  /// Processes one input row; kStop means the chain needs no further input.
  EmitResult Push(const Row& row) {
    ++rows_in_;
    return DoPush(row);
  }

  /// End of input: flush buffered state downstream, then finish downstream.
  /// An error recorded in the ExecState (cancel/deadline tripping during a
  /// flush) stops the cascade: downstream pipeline breakers must not sort /
  /// deliver a result computed from a truncated flush.
  util::Status Finish() {
    util::Status st = DoFinish();
    if (!st.ok()) return st;
    if (!state_->error.ok()) return util::Status::Ok();
    return next_ ? next_->Finish() : util::Status::Ok();
  }

  const std::string& label() const { return label_; }
  RowOp* next() const { return next_; }
  uint64_t rows_in() const { return rows_in_; }
  uint64_t rows_out() const { return rows_out_; }
  /// Sub-chain heads (UNION branches, OPTIONAL extension) for EXPLAIN.
  virtual std::vector<const RowOp*> children() const { return {}; }

 protected:
  /// Hands a row to the downstream operator (kContinue at the chain tail).
  EmitResult Emit(const Row& row) {
    ++rows_out_;
    return next_ ? next_->Push(row) : EmitResult::kContinue;
  }

  virtual EmitResult DoPush(const Row& row) = 0;
  virtual util::Status DoFinish() { return util::Status::Ok(); }

  ExecState* state() const { return state_; }

  /// The pipeline-breaker flush loop: emits `get(item)` per item with the
  /// amortized cancel/deadline probe (enumeration is over, but a flush can
  /// be long), stopping on kStop or a tripped control.
  template <typename Range, typename GetRow>
  void FlushBuffered(const Range& range, GetRow get) {
    uint64_t flushed = 0;
    for (const auto& item : range) {
      if ((++flushed & 0x3F) == 0) {
        if (util::Status st = state_->control.Check(); !st.ok()) {
          state_->Fail(std::move(st),
                       CauseOf(state_->control, StopCause::kProducerFailed));
          return;
        }
      }
      if (Emit(get(item)) == EmitResult::kStop) return;
    }
  }

 private:
  std::string label_;
  RowOp* next_;
  ExecState* state_;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

/// Owns the operators of one execution (operators hold raw pointers into
/// the chain; the pipeline keeps them alive and in construction order).
struct Pipeline {
  ExecState state;
  std::vector<std::unique_ptr<RowOp>> ops;
  RowOp* head = nullptr;

  template <typename T, typename... Args>
  T* Make(Args&&... args) {
    ops.push_back(std::make_unique<T>(std::forward<Args>(args)...));
    return static_cast<T*>(ops.back().get());
  }
};

/// Renders the chain starting at `head` as an indented tree with per-
/// operator row counts (EXPLAIN).
std::string ExplainChain(const RowOp* head);

// ---------------------------------------------------------------------------
// Pattern-matching operators (the WHERE clause).
// ---------------------------------------------------------------------------

/// Streams the solutions of a basic graph pattern, each input row acting as
/// the pre-bound seed (the executor's OPTIONAL/UNION re-entry contract).
class BgpSource final : public RowOp {
 public:
  BgpSource(const BgpSolver& solver, const VarRegistry& vars,
            const std::vector<TriplePattern>& bgp,
            std::vector<const FilterExpr*> pushable, RowOp* next, ExecState* state)
      : RowOp("BgpSource{" + std::to_string(bgp.size()) + " triple" +
                  (bgp.size() == 1 ? "" : "s") + "}",
              next, state),
        solver_(solver),
        vars_(vars),
        bgp_(bgp),
        pushable_(std::move(pushable)) {}

  EmitResult DoPush(const Row& row) override;

 private:
  const BgpSolver& solver_;
  const VarRegistry& vars_;
  const std::vector<TriplePattern>& bgp_;
  std::vector<const FilterExpr*> pushable_;
};

/// Terminates a chain into a callback: a branch sub-chain into its owner,
/// or a push run's pipeline into the caller's sink.
class RelayOp final : public RowOp {
 public:
  RelayOp(std::function<EmitResult(const Row&)> fn, ExecState* state,
          std::string label = "Relay")
      : RowOp(std::move(label), nullptr, state), fn_(std::move(fn)) {}
  EmitResult DoPush(const Row& row) override { return fn_(row); }

 private:
  std::function<EmitResult(const Row&)> fn_;
};

/// Feeds each input row through every branch in turn (concatenation
/// semantics, duplicates preserved); branch outputs continue downstream.
class UnionOp final : public RowOp {
 public:
  UnionOp(size_t n_branches, RowOp* next, ExecState* state)
      : RowOp("Union{" + std::to_string(n_branches) + " branches}", next, state) {}

  /// Branch chains are built after construction (they relay into this op).
  void AddBranch(RowOp* head) { branches_.push_back(head); }
  EmitResult ForwardBranchRow(const Row& row) { return Emit(row); }

  EmitResult DoPush(const Row& row) override {
    for (RowOp* b : branches_)
      if (b->Push(row) == EmitResult::kStop) return EmitResult::kStop;
    return EmitResult::kContinue;
  }
  util::Status DoFinish() override {
    for (RowOp* b : branches_)
      if (util::Status st = b->Finish(); !st.ok()) return st;
    return util::Status::Ok();
  }
  std::vector<const RowOp*> children() const override {
    return {branches_.begin(), branches_.end()};
  }

 private:
  std::vector<RowOp*> branches_;
};

/// Left-join extension: rows the branch extends continue extended; a row
/// with no extension continues unextended, exactly once. When the consumer
/// stops mid-extension the unextended fallback must not fire.
class OptionalOp final : public RowOp {
 public:
  OptionalOp(RowOp* next, ExecState* state) : RowOp("Optional", next, state) {}

  void SetBranch(RowOp* head) { branch_ = head; }
  EmitResult ForwardBranchRow(const Row& row) {
    matched_ = true;
    return Emit(row);
  }

  EmitResult DoPush(const Row& row) override {
    matched_ = false;
    if (branch_->Push(row) == EmitResult::kStop) return EmitResult::kStop;
    if (!matched_) return Emit(row);
    return EmitResult::kContinue;
  }
  util::Status DoFinish() override { return branch_->Finish(); }
  std::vector<const RowOp*> children() const override { return {branch_}; }

 private:
  RowOp* branch_ = nullptr;
  bool matched_ = false;
};

/// Drops rows failing any of its constraints (group FILTERs, or the
/// planner-rewritten HAVING constraints over grouped rows).
class FilterOp final : public RowOp {
 public:
  FilterOp(std::string label, const FilterEvaluator& eval,
           std::vector<const FilterExpr*> exprs, RowOp* next, ExecState* state)
      : RowOp(std::move(label), next, state), eval_(eval), exprs_(std::move(exprs)) {}

  EmitResult DoPush(const Row& row) override;

 private:
  const FilterEvaluator& eval_;
  std::vector<const FilterExpr*> exprs_;
};

/// Inline data (VALUES): joins each input row against the clause's rows.
/// Cells are pre-resolved to ids at plan time ((var index, id) pairs; UNDEF
/// cells are simply absent). A values row is compatible when every cell
/// either binds a previously-unbound variable or equals the input binding;
/// each compatible row emits once (Cartesian semantics against the input).
class ValuesOp final : public RowOp {
 public:
  using Binding = std::pair<int, TermId>;  ///< (row index, resolved id)

  ValuesOp(std::vector<std::vector<Binding>> rows, RowOp* next, ExecState* state)
      : RowOp("Values{" + std::to_string(rows.size()) + " rows}", next, state),
        rows_(std::move(rows)) {}

  EmitResult DoPush(const Row& row) override {
    for (const std::vector<Binding>& vrow : rows_) {
      bool compatible = true;
      for (const Binding& b : vrow) {
        TermId bound = row[b.first];
        if (bound != kInvalidId && bound != b.second) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;
      scratch_ = row;
      for (const Binding& b : vrow) scratch_[b.first] = b.second;
      if (Emit(scratch_) == EmitResult::kStop) return EmitResult::kStop;
    }
    return EmitResult::kContinue;
  }

 private:
  std::vector<std::vector<Binding>> rows_;
  Row scratch_;
};

/// BIND(expr AS ?var): evaluates the expression per row, interns the
/// computed term into the execution's LocalVocab, and binds the target
/// variable. Evaluation errors leave the variable unbound (SPARQL error
/// semantics); an already-bound target is a planner error, caught at
/// Prepare time.
class BindOp final : public RowOp {
 public:
  BindOp(const FilterEvaluator& eval, const FilterExpr* expr, int target_idx,
         LocalVocab* local, RowOp* next, ExecState* state)
      : RowOp("Bind", next, state),
        eval_(eval),
        expr_(expr),
        target_idx_(target_idx),
        local_(local) {}

  EmitResult DoPush(const Row& row) override;

 private:
  const FilterEvaluator& eval_;
  const FilterExpr* expr_;
  int target_idx_;
  LocalVocab* local_;
  Row scratch_;
};

// ---------------------------------------------------------------------------
// Budget guard.
// ---------------------------------------------------------------------------

/// Counts rows entering the solution-modifier stage, enforces the caller's
/// pre-modifier row budget, and probes cancellation/deadline periodically
/// (rows can be born in executor stages — OPTIONAL fallbacks — that the
/// solver-level checks never see).
class GuardOp final : public RowOp {
 public:
  GuardOp(uint64_t row_budget, RowOp* next, ExecState* state)
      : RowOp("Guard", next, state), row_budget_(row_budget) {}

  EmitResult DoPush(const Row& row) override {
    uint64_t n = ++state()->before_modifiers;
    if (n > row_budget_) {
      state()->Fail(util::Status::Error("row budget exceeded"),
                    StopCause::kRowBudget);
      return EmitResult::kStop;
    }
    if ((n & 0x3F) == 0) {
      if (util::Status st = state()->control.Check(); !st.ok()) {
        state()->Fail(std::move(st),
                      CauseOf(state()->control, StopCause::kProducerFailed));
        return EmitResult::kStop;
      }
    }
    return Emit(row);
  }

 private:
  uint64_t row_budget_;
};

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

/// One planned aggregate column.
struct AggSpec {
  Aggregate agg;
  int arg_idx = -1;  ///< input-row index of the argument variable (-1: none)
};

/// Hash grouping with streaming accumulation; a pipeline breaker. Output
/// rows are [group-key terms..., aggregate values...] in first-seen group
/// order (deterministic given the input order). Aggregate results
/// materialize as terms in the execution's LocalVocab.
///
/// Value semantics (shared with the brute-force reference evaluator):
///  * COUNT(*) counts rows; COUNT(?x) counts rows where ?x is bound;
///    DISTINCT dedupes by term (COUNT(DISTINCT *): by whole row);
///  * SUM/AVG skip unbound values; any bound non-numeric value makes the
///    result unbound (error-as-unbound). SUM of nothing is 0 (xsd:integer,
///    exact int64 until overflow promotes to double); AVG of nothing is 0,
///    otherwise xsd:double;
///  * MIN/MAX skip unbound values and use the ORDER BY comparison (numeric
///    when both sides are numeric, else lexical); empty input -> unbound.
class GroupAggregateOp final : public RowOp {
 public:
  GroupAggregateOp(std::vector<int> key_idx, std::vector<AggSpec> aggs,
                   bool implicit_group, const rdf::Dictionary& dict,
                   LocalVocab* local, RowOp* next, ExecState* state);

  EmitResult DoPush(const Row& row) override;
  util::Status DoFinish() override;

 private:
  struct Accum {
    uint64_t count = 0;
    Numeric sum = Numeric::Int(0);
    bool num_error = false;
    TermId best = kInvalidId;
    /// DISTINCT dedup state, allocated lazily: non-DISTINCT aggregates over
    /// high-cardinality keys would otherwise carry dead set headers per
    /// group x aggregate.
    std::unique_ptr<std::set<TermId>> distinct;   ///< term-level values
    std::unique_ptr<std::set<Row>> distinct_rows; ///< COUNT(DISTINCT *)
  };
  struct Group {
    std::vector<TermId> key;
    std::vector<Accum> accums;
  };
  struct KeyHash {
    size_t operator()(const std::vector<TermId>& k) const {
      size_t h = 0xcbf29ce484222325ull;
      for (TermId t : k) h = (h ^ t) * 0x100000001b3ull;
      return h;
    }
  };

  void Accumulate(const AggSpec& spec, Accum* a, const Row& row);
  TermId Result(const AggSpec& spec, const Accum& a);

  std::vector<int> key_idx_;
  std::vector<AggSpec> aggs_;
  bool implicit_group_;
  const rdf::Dictionary& dict_;
  LocalVocab* local_;
  std::vector<Group> groups_;  ///< first-seen order
  std::unordered_map<std::vector<TermId>, size_t, KeyHash> index_;
  /// Typed-coercion memo: analytics columns repeat values heavily, so each
  /// distinct term parses once per execution instead of once per row.
  std::unordered_map<TermId, std::optional<Numeric>> num_cache_;
  std::vector<TermId> key_scratch_;
  Row out_scratch_;
};

// ---------------------------------------------------------------------------
// Solution modifiers.
// ---------------------------------------------------------------------------

/// Narrows full-width rows to the projected columns.
class ProjectOp final : public RowOp {
 public:
  ProjectOp(std::vector<int> proj, RowOp* next, ExecState* state)
      : RowOp("Project", next, state), proj_(std::move(proj)) {}

  EmitResult DoPush(const Row& row) override {
    scratch_.resize(proj_.size());
    for (size_t i = 0; i < proj_.size(); ++i) scratch_[i] = row[proj_[i]];
    return Emit(scratch_);
  }

 private:
  std::vector<int> proj_;
  Row scratch_;
};

/// Set-based duplicate elimination. The dedup memo is working state, not a
/// delivery buffer: it is excluded from peak_buffered_rows (like the group
/// hash table), which tracks rows held for delivery ordering.
class DistinctOp final : public RowOp {
 public:
  DistinctOp(RowOp* next, ExecState* state) : RowOp("Distinct", next, state) {}

  EmitResult DoPush(const Row& row) override {
    if (!seen_.insert(row).second) return EmitResult::kContinue;
    return Emit(row);
  }

 private:
  std::set<Row> seen_;
};

/// Sort-key configuration shared by OrderByOp and TopKOp: row indices plus
/// per-key direction, with the arrival sequence number as the final key —
/// which makes heap selection and full sort exactly equal to a stable sort.
struct SortKeys {
  std::vector<int> idx;
  std::vector<bool> ascending;
  const rdf::Dictionary* dict = nullptr;
  const LocalVocab* local = nullptr;

  bool Less(const Row& x, uint64_t xseq, const Row& y, uint64_t yseq) const {
    for (size_t i = 0; i < idx.size(); ++i) {
      int c = CompareTerms(*dict, local, x[idx[i]], y[idx[i]]);
      if (c != 0) return ascending[i] ? c < 0 : c > 0;
    }
    return xseq < yseq;
  }
};

/// Full buffering sort — the pipeline breaker for unbounded ORDER BY.
class OrderByOp final : public RowOp {
 public:
  OrderByOp(SortKeys keys, RowOp* next, ExecState* state)
      : RowOp("OrderBy", next, state), keys_(std::move(keys)) {}

  EmitResult DoPush(const Row& row) override {
    rows_.push_back({row, ++seq_});
    state()->NoteBuffered(rows_.size());
    return EmitResult::kContinue;
  }
  util::Status DoFinish() override;

 private:
  struct Keyed {
    Row row;
    uint64_t seq;
  };
  SortKeys keys_;
  std::vector<Keyed> rows_;
  uint64_t seq_ = 0;
};

/// Bounded top-k heap (k = OFFSET + LIMIT): keeps only the rows that can
/// still be delivered, with the arrival-sequence tiebreak making its output
/// row-for-row equal to a stable full sort + truncation.
class TopKOp final : public RowOp {
 public:
  TopKOp(SortKeys keys, uint64_t cap, RowOp* next, ExecState* state)
      : RowOp("TopK{cap=" + std::to_string(cap) + "}", next, state),
        keys_(std::move(keys)),
        cap_(cap) {}

  EmitResult DoPush(const Row& row) override;
  util::Status DoFinish() override;

 private:
  struct Keyed {
    Row row;
    uint64_t seq;
  };
  bool KeyedLess(const Keyed& a, const Keyed& b) const {
    return keys_.Less(a.row, a.seq, b.row, b.seq);
  }
  SortKeys keys_;
  uint64_t cap_;
  std::vector<Keyed> heap_;  ///< max-heap of the cap best rows
  uint64_t seq_ = 0;
};

/// OFFSET / LIMIT. Emitting the last deliverable row returns kStop — the
/// signal that unwinds into the solvers and makes LIMIT pushdown real.
class SliceOp final : public RowOp {
 public:
  SliceOp(uint64_t offset, uint64_t limit, RowOp* next, ExecState* state)
      : RowOp("Slice{offset=" + std::to_string(offset) + " limit=" +
                  (limit == std::numeric_limits<uint64_t>::max()
                       ? std::string("none")
                       : std::to_string(limit)) +
                  "}",
              next, state),
        offset_(offset),
        limit_(limit) {}

  EmitResult DoPush(const Row& row) override {
    if (skipped_ < offset_) {
      ++skipped_;
      return EmitResult::kContinue;
    }
    if (delivered_ >= limit_) return EmitResult::kStop;
    EmitResult r = Emit(row);
    if (++delivered_ >= limit_) return EmitResult::kStop;
    return r;
  }

 private:
  uint64_t offset_;
  uint64_t limit_;
  uint64_t skipped_ = 0;
  uint64_t delivered_ = 0;
};

/// Root sink of a materialized cursor: appends delivered rows to the
/// cursor's flat delivery batch.
class CollectOp final : public RowOp {
 public:
  CollectOp(RowBatch* out, ExecState* state)
      : RowOp("Collect", nullptr, state), out_(out) {}

  EmitResult DoPush(const Row& row) override {
    out_->Append(row);
    state()->NoteBuffered(out_->size());
    return EmitResult::kContinue;
  }

 private:
  RowBatch* out_;
};

}  // namespace turbo::sparql
