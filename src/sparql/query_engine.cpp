#include "sparql/query_engine.hpp"

#include <algorithm>
#include <unordered_map>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "graph/data_graph.hpp"
#include "sparql/filter_eval.hpp"
#include "sparql/operators.hpp"
#include "sparql/parser.hpp"
#include "sparql/turbo_solver.hpp"
#include "sparql/typed_value.hpp"

namespace turbo::sparql {

namespace {

/// Registers every variable appearing anywhere in the group (recursively).
void CollectGroupVars(const GroupPattern& g, VarRegistry* vars) {
  for (const TriplePattern& t : g.triples) {
    for (const PatternTerm* pt : {&t.s, &t.p, &t.o})
      if (pt->is_var()) vars->GetOrAdd(pt->var);
  }
  for (const FilterExpr& f : g.filters) {
    std::vector<std::string> fv;
    f.CollectVars(&fv);
    for (auto& v : fv) vars->GetOrAdd(v);
  }
  for (const ValuesClause& v : g.values)
    for (const std::string& name : v.vars) vars->GetOrAdd(name);
  for (const BindClause& b : g.binds) {
    std::vector<std::string> bv;
    b.expr.CollectVars(&bv);
    for (auto& v : bv) vars->GetOrAdd(v);
    vars->GetOrAdd(b.var);
  }
  for (const GroupPattern& o : g.optionals) CollectGroupVars(o, vars);
  for (const auto& u : g.unions)
    for (const GroupPattern& b : u) CollectGroupVars(b, vars);
}

/// True if the group tree computes terms at runtime (VALUES constants that
/// may be absent from the dictionary, BIND results) — the executions that
/// need a LocalVocab even without aggregation.
bool GroupComputes(const GroupPattern& g) {
  if (!g.values.empty() || !g.binds.empty()) return true;
  for (const GroupPattern& o : g.optionals)
    if (GroupComputes(o)) return true;
  for (const auto& u : g.unions)
    for (const GroupPattern& b : u)
      if (GroupComputes(b)) return true;
  return false;
}

/// True if any FILTER anywhere in the group tree contains an aggregate call
/// (aggregates are only legal in SELECT and HAVING).
bool GroupHasAggregateFilter(const GroupPattern& g) {
  for (const FilterExpr& f : g.filters)
    if (f.ContainsAggregate()) return true;
  for (const BindClause& b : g.binds)
    if (b.expr.ContainsAggregate()) return true;
  for (const GroupPattern& o : g.optionals)
    if (GroupHasAggregateFilter(o)) return true;
  for (const auto& u : g.unions)
    for (const GroupPattern& b : u)
      if (GroupHasAggregateFilter(b)) return true;
  return false;
}

/// True if every variable of `f` occurs in a triple pattern of `g` (then the
/// filter can be handed to the solver as a pruning hint).
bool FilterCoveredByBgp(const FilterExpr& f, const GroupPattern& g) {
  std::vector<std::string> fv;
  f.CollectVars(&fv);
  for (const std::string& v : fv) {
    bool found = false;
    for (const TriplePattern& t : g.triples) {
      if ((t.s.is_var() && t.s.var == v) || (t.p.is_var() && t.p.var == v) ||
          (t.o.is_var() && t.o.var == v)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return !fv.empty();
}

}  // namespace

// ---------------------------------------------------------------------------
// PreparedQuery: parse + plan once.
// ---------------------------------------------------------------------------

struct PreparedQuery::Impl {
  SelectQuery query;
  VarRegistry vars;                    ///< WHERE-scope (pattern) registry
  std::vector<std::string> var_names;  ///< projected names, SELECT order
  std::vector<int> proj;       ///< projected indices (into vars / post_vars)
  std::vector<int> order_idx;  ///< ORDER BY key indices (ditto)

  /// True when the WHERE tree contains VALUES/BIND — executions then need a
  /// LocalVocab for computed terms even without aggregation.
  bool computes = false;

  /// Aggregation plan (empty/unused when !aggregated). The grouped output
  /// schema `post_vars` is [GROUP BY keys..., aggregate columns...]; HAVING
  /// constraints are rewritten over it (aggregate calls become column
  /// references, deduplicated against identical SELECT aggregates).
  bool aggregated = false;
  std::vector<int> group_key_idx;  ///< base-row indices of the GROUP BY keys
  std::vector<AggSpec> agg_specs;  ///< one per grouped output column
  VarRegistry post_vars;
  std::vector<FilterExpr> having;  ///< rewritten: aggregate-free

  /// Per-group pushable filter sets, keyed by group identity (the AST is
  /// owned by this Impl, so the pointers are stable).
  std::unordered_map<const GroupPattern*, std::vector<const FilterExpr*>> pushable;

  const std::vector<const FilterExpr*>& PushableFor(const GroupPattern& g) const {
    static const std::vector<const FilterExpr*> kNone;
    auto it = pushable.find(&g);
    return it == pushable.end() ? kNone : it->second;
  }

  void PlanGroup(const GroupPattern& g) {
    if (!g.triples.empty()) {
      std::vector<const FilterExpr*> push;
      for (const FilterExpr& f : g.filters)
        if (FilterCoveredByBgp(f, g)) push.push_back(&f);
      if (!push.empty()) pushable.emplace(&g, std::move(push));
    }
    for (const GroupPattern& o : g.optionals) PlanGroup(o);
    for (const auto& u : g.unions)
      for (const GroupPattern& b : u) PlanGroup(b);
  }

  /// Adds a grouped output column for `agg` (or reuses an identical one)
  /// and returns its post_vars name. `alias` is empty for HAVING-only
  /// aggregates, which get hidden (unprojectable) column names.
  std::string AddAggColumn(const Aggregate& agg, const std::string& alias) {
    if (alias.empty()) {
      for (size_t i = 0; i < agg_specs.size(); ++i)
        if (agg_specs[i].agg == agg)
          return post_vars.name(static_cast<int>(group_key_idx.size() + i));
    }
    std::string name = alias.empty() ? "#agg" + std::to_string(agg_specs.size()) : alias;
    AggSpec spec;
    spec.agg = agg;
    if (!agg.star) spec.arg_idx = vars.GetOrAdd(agg.var);
    agg_specs.push_back(std::move(spec));
    post_vars.GetOrAdd(name);
    return name;
  }

  /// Rewrites one HAVING expression in place: aggregate calls become
  /// references to grouped output columns; plain variables must already be
  /// visible in the grouped schema (keys or aliases).
  util::Status RewriteHaving(FilterExpr* e) {
    if (e->op == FilterExpr::Op::kAggregate) {
      *e = FilterExpr::MakeVar(AddAggColumn(e->agg, ""));
      return util::Status::Ok();
    }
    if (e->op == FilterExpr::Op::kVar || e->op == FilterExpr::Op::kBound) {
      if (!post_vars.Find(e->var))
        return util::Status::Error("variable ?" + e->var +
                                   " in HAVING is neither grouped nor an aggregate");
    }
    for (FilterExpr& c : e->children)
      if (auto st = RewriteHaving(&c); !st.ok()) return st;
    return util::Status::Ok();
  }
};

const SelectQuery& PreparedQuery::query() const { return impl_->query; }
const VarRegistry& PreparedQuery::vars() const { return impl_->vars; }
const std::vector<std::string>& PreparedQuery::var_names() const {
  return impl_->var_names;
}

util::Result<PreparedQuery> PrepareSelect(SelectQuery q) {
  auto impl = std::make_shared<PreparedQuery::Impl>();
  impl->query = std::move(q);
  const SelectQuery& query = impl->query;

  if (GroupHasAggregateFilter(query.where))
    return util::Status::Error("aggregates are only allowed in SELECT and HAVING");

  impl->aggregated = query.IsAggregated();
  impl->computes = GroupComputes(query.where);

  if (!impl->aggregated) {
    for (const SelectItem& s : query.select) impl->vars.GetOrAdd(s.name);
    CollectGroupVars(query.where, &impl->vars);
    for (const OrderKey& k : query.order_by)
      impl->order_idx.push_back(impl->vars.GetOrAdd(k.var));

    if (query.select.empty()) {
      for (size_t i = 0; i < impl->vars.size(); ++i) {
        impl->var_names.push_back(impl->vars.name(static_cast<int>(i)));
        impl->proj.push_back(static_cast<int>(i));
      }
    } else {
      for (const SelectItem& s : query.select) {
        impl->var_names.push_back(s.name);
        impl->proj.push_back(*impl->vars.Find(s.name));
      }
    }
    impl->PlanGroup(query.where);
    PreparedQuery prepared;
    prepared.impl_ = std::move(impl);
    return prepared;
  }

  // ---- Aggregation plan. ----
  CollectGroupVars(query.where, &impl->vars);
  if (query.select.empty())
    return util::Status::Error("SELECT * cannot be combined with GROUP BY/aggregates");

  // Grouped schema, part 1: the GROUP BY keys.
  for (const std::string& g : query.group_by) {
    if (impl->post_vars.Find(g))
      return util::Status::Error("duplicate GROUP BY variable ?" + g);
    impl->post_vars.GetOrAdd(g);
    impl->group_key_idx.push_back(impl->vars.GetOrAdd(g));
  }

  // Part 2: aggregate columns, in SELECT order; plain items must be keys.
  for (const SelectItem& s : query.select) {
    if (!s.is_agg) {
      if (std::find(query.group_by.begin(), query.group_by.end(), s.name) ==
          query.group_by.end())
        return util::Status::Error("SELECT variable ?" + s.name +
                                   " must appear in GROUP BY");
      impl->var_names.push_back(s.name);
      impl->proj.push_back(*impl->post_vars.Find(s.name));
      continue;
    }
    if (s.name.empty())
      return util::Status::Error("aggregate in SELECT needs an AS ?alias");
    if (impl->post_vars.Find(s.name))
      return util::Status::Error("duplicate name ?" + s.name + " in SELECT");
    std::string col = impl->AddAggColumn(s.agg, s.name);
    impl->var_names.push_back(s.name);
    impl->proj.push_back(*impl->post_vars.Find(col));
  }

  // Part 3: HAVING rewrite (may add hidden aggregate columns).
  impl->having = query.having;
  for (FilterExpr& h : impl->having)
    if (auto st = impl->RewriteHaving(&h); !st.ok()) return st;

  // ORDER BY keys live in the grouped schema (keys and aliases).
  for (const OrderKey& k : query.order_by) {
    auto idx = impl->post_vars.Find(k.var);
    if (!idx)
      return util::Status::Error("ORDER BY variable ?" + k.var +
                                 " is not visible after grouping");
    impl->order_idx.push_back(*idx);
  }

  impl->PlanGroup(query.where);
  PreparedQuery prepared;
  prepared.impl_ = std::move(impl);
  return prepared;
}

// ---------------------------------------------------------------------------
// Cursor: plans the operator tree per execution and drains its root.
// ---------------------------------------------------------------------------

struct Cursor::State {
  const BgpSolver* solver = nullptr;
  std::shared_ptr<const PreparedQuery::Impl> prepared;
  ExecOptions opts;
  util::Status status;
  StopCause cause = StopCause::kNone;  ///< classification of `status`
  /// The rows Next() serves from (CollectOp writes them); `served` counts
  /// the rows already handed out.
  RowBatch delivered;
  size_t served = 0;
  bool ran = false;
  uint64_t before_modifiers = 0;
  uint64_t peak_buffered = 0;  ///< high-water mark of rows held at once

  /// The physical operator tree of this execution (kept after the run for
  /// EXPLAIN) and the state it shares.
  Pipeline pipe;
  std::shared_ptr<LocalVocab> local_vocab;  ///< computed terms (aggregates)
  std::unique_ptr<FilterEvaluator> base_eval;  ///< over prepared->vars
  std::unique_ptr<FilterEvaluator> post_eval;  ///< over post_vars + local

  /// The one execution path: runs the pipeline into `root` on this thread
  /// and settles status/cause/counters (Next: CollectOp; Run: the caller's
  /// sink).
  void Run(RowOp* root);
  /// Next() and Explain() run the plan into `delivered` on first use.
  void RunCollected() {
    if (!ran) Run(pipe.Make<CollectOp>(&delivered, &pipe.state));
  }
  /// Runs `body`, turning anything it throws into a kProducerFailed stop
  /// with the original message.
  template <typename Body>
  void Guarded(Body&& body);
  void RunPipeline(RowOp* root);
  RowOp* BuildWhereChain(const GroupPattern& g, RowOp* next);
  std::vector<std::vector<ValuesOp::Binding>> ResolveValues(const ValuesClause& v);
};

/// Resolves a VALUES clause's constants to ids at plan time: dictionary ids
/// where the term is stored, vocab interns otherwise (InternVisible reuses
/// an id the store's overlay already assigned, so inline data joins against
/// update-introduced terms). Terms known nowhere get fresh local ids that
/// match no stored triple — the correct empty join.
std::vector<std::vector<ValuesOp::Binding>> Cursor::State::ResolveValues(
    const ValuesClause& v) {
  const rdf::Dictionary& dict = solver->dict();
  std::vector<std::vector<ValuesOp::Binding>> out;
  out.reserve(v.rows.size());
  for (const auto& row : v.rows) {
    std::vector<ValuesOp::Binding> bindings;
    for (size_t i = 0; i < v.vars.size(); ++i) {
      if (!row[i]) continue;  // UNDEF leaves the variable unconstrained
      int idx = *prepared->vars.Find(v.vars[i]);
      auto id = dict.Find(*row[i]);
      bindings.emplace_back(idx, id ? *id : local_vocab->InternVisible(*row[i]));
    }
    out.push_back(std::move(bindings));
  }
  return out;
}

/// Builds the operator chain evaluating group `g`, emitting into `next`:
/// BgpSource, then VALUES joins, then UNION blocks, then OPTIONAL
/// left-joins, then BIND assignments, then the group FILTERs. Sub-groups
/// recurse, terminating in relays back to their owning operator.
RowOp* Cursor::State::BuildWhereChain(const GroupPattern& g, RowOp* next) {
  const PreparedQuery::Impl& p = *prepared;
  ExecState* st = &pipe.state;
  RowOp* cur = next;
  if (!g.filters.empty()) {
    std::vector<const FilterExpr*> exprs;
    for (const FilterExpr& f : g.filters) exprs.push_back(&f);
    cur = pipe.Make<FilterOp>("Filter", *base_eval, std::move(exprs), cur, st);
  }
  for (auto it = g.binds.rbegin(); it != g.binds.rend(); ++it) {
    int target = *p.vars.Find(it->var);
    cur = pipe.Make<BindOp>(*base_eval, &it->expr, target, local_vocab.get(), cur, st);
  }
  for (auto it = g.optionals.rbegin(); it != g.optionals.rend(); ++it) {
    OptionalOp* opt = pipe.Make<OptionalOp>(cur, st);
    RelayOp* relay = pipe.Make<RelayOp>(
        [opt](const Row& r) { return opt->ForwardBranchRow(r); }, st);
    opt->SetBranch(BuildWhereChain(*it, relay));
    cur = opt;
  }
  for (auto it = g.unions.rbegin(); it != g.unions.rend(); ++it) {
    UnionOp* u = pipe.Make<UnionOp>(it->size(), cur, st);
    for (const GroupPattern& b : *it) {
      RelayOp* relay =
          pipe.Make<RelayOp>([u](const Row& r) { return u->ForwardBranchRow(r); }, st);
      u->AddBranch(BuildWhereChain(b, relay));
    }
    cur = u;
  }
  for (auto it = g.values.rbegin(); it != g.values.rend(); ++it)
    cur = pipe.Make<ValuesOp>(ResolveValues(*it), cur, st);
  if (!g.triples.empty())
    cur = pipe.Make<BgpSource>(*solver, p.vars, g.triples, p.PushableFor(g), cur, st);
  return cur;
}

void Cursor::State::Run(RowOp* root) {
  ran = true;
  Guarded([&] { RunPipeline(root); });
  const ExecState& st = pipe.state;
  if (!st.error.ok()) {
    status = st.error;
    cause = st.cause;
  }
  before_modifiers = st.before_modifiers;
  peak_buffered = st.peak_buffered;
}

template <typename Body>
void Cursor::State::Guarded(Body&& body) {
  // The library reports failures through Status, and a server worker must
  // not let anything escape — an exception there would end the process.
  try {
    body();
  } catch (const std::exception& e) {
    pipe.state.Fail(util::Status::Error(std::string("producer failed: ") + e.what()),
                    StopCause::kProducerFailed);
  } catch (...) {
    pipe.state.Fail(util::Status::Error("producer failed: unknown exception"),
                    StopCause::kProducerFailed);
  }
}

void Cursor::State::RunPipeline(RowOp* root) {
  const PreparedQuery::Impl& p = *prepared;
  const SelectQuery& q = p.query;
  const rdf::Dictionary& dict = solver->dict();
  ExecState* st = &pipe.state;

  st->control.cancel = opts.cancel_token;
  st->control.deadline = opts.deadline;
  if (auto s = st->control.Check(); !s.ok()) {
    st->Fail(std::move(s), CauseOf(st->control, StopCause::kProducerFailed));
    return;
  }

  // Delivered-row cap: the query's own LIMIT and the caller's budget.
  uint64_t limit = opts.limit_budget;
  if (q.limit >= 0) limit = std::min(limit, static_cast<uint64_t>(q.limit));
  if (limit == 0) return;  // nothing to deliver: skip enumeration entirely

  // A live-store cursor brings its own vocab (chained to the shared term
  // overlay).
  if (opts.vocab)
    local_vocab = opts.vocab;
  else if (p.aggregated || p.computes)
    local_vocab = std::make_shared<LocalVocab>(static_cast<TermId>(dict.size()));
  base_eval = std::make_unique<FilterEvaluator>(dict, p.vars, local_vocab.get());
  if (p.aggregated)
    post_eval =
        std::make_unique<FilterEvaluator>(dict, p.post_vars, local_vocab.get());

  // ---- Build the modifier chain, back to front. ----
  RowOp* cur = pipe.Make<SliceOp>(static_cast<uint64_t>(q.offset), limit, root, st);

  if (!q.order_by.empty()) {
    SortKeys keys;
    keys.dict = &dict;
    keys.local = local_vocab.get();
    for (size_t i = 0; i < p.order_idx.size(); ++i) {
      keys.idx.push_back(p.order_idx[i]);
      keys.ascending.push_back(q.order_by[i].ascending);
    }
    const bool bounded = limit != kNoBudget;
    const uint64_t cap = bounded ? limit + static_cast<uint64_t>(q.offset) : 0;
    auto make_sort = [&](SortKeys k, RowOp* n) -> RowOp* {
      if (bounded) return pipe.Make<TopKOp>(std::move(k), cap, n, st);
      return pipe.Make<OrderByOp>(std::move(k), n, st);
    };

    if (!q.distinct) {
      // Sort full-width rows (keys may be non-projected), then project.
      cur = pipe.Make<ProjectOp>(p.proj, cur, st);
      cur = make_sort(std::move(keys), cur);
    } else {
      // DISTINCT + ORDER BY. When every sort key is projected, the key of a
      // projected row no longer depends on which full-width representative
      // survives, so deduplication commutes with the (seq-stable) sort:
      // Project -> Distinct -> TopK keeps the bounded heap that PR 4 had to
      // forgo. Keys outside the projection fall back to the full sort.
      SortKeys proj_keys = keys;
      bool keys_projected = true;
      for (size_t i = 0; i < keys.idx.size() && keys_projected; ++i) {
        auto at = std::find(p.proj.begin(), p.proj.end(), keys.idx[i]);
        if (at == p.proj.end())
          keys_projected = false;
        else
          proj_keys.idx[i] = static_cast<int>(at - p.proj.begin());
      }
      if (keys_projected) {
        cur = make_sort(std::move(proj_keys), cur);
        cur = pipe.Make<DistinctOp>(cur, st);
        cur = pipe.Make<ProjectOp>(p.proj, cur, st);
      } else {
        // Heap eviction could drop rows the downstream dedup needed, so
        // this combination keeps the full sort.
        cur = pipe.Make<DistinctOp>(cur, st);
        cur = pipe.Make<ProjectOp>(p.proj, cur, st);
        cur = pipe.Make<OrderByOp>(std::move(keys), cur, st);
      }
    }
  } else {
    if (q.distinct) cur = pipe.Make<DistinctOp>(cur, st);
    cur = pipe.Make<ProjectOp>(p.proj, cur, st);
  }

  if (p.aggregated) {
    if (!p.having.empty()) {
      std::vector<const FilterExpr*> exprs;
      for (const FilterExpr& h : p.having) exprs.push_back(&h);
      cur = pipe.Make<FilterOp>("Having", *post_eval, std::move(exprs), cur, st);
    }

    // COUNT(*) pushdown: a bare single-BGP `SELECT (COUNT(*) AS ?n)` can be
    // answered by the solver's embedding counter (BgpSolver::CountSolutions)
    // without assembling, emitting, or grouping a single row. Only an
    // ungrouped, non-DISTINCT COUNT(*) over a pattern with no other clauses
    // qualifies, and only when no row budget is in force (the budget meters
    // pre-modifier rows, which this path never produces). The solver may
    // still decline — then we fall through to the ordinary row pipeline.
    const GroupPattern& w = q.where;
    const bool plain_bgp = !w.triples.empty() && w.filters.empty() &&
                           w.values.empty() && w.binds.empty() &&
                           w.optionals.empty() && w.unions.empty();
    if (plain_bgp && p.group_key_idx.empty() && p.agg_specs.size() == 1 &&
        p.agg_specs[0].agg.func == Aggregate::Func::kCount &&
        p.agg_specs[0].agg.star && !p.agg_specs[0].agg.distinct &&
        opts.row_budget == kNoBudget) {
      uint64_t n = 0;
      bool counted = false;
      util::Status cst =
          solver->CountSolutions(w.triples, p.vars, &n, &counted, st->control);
      if (!cst.ok()) {
        st->Fail(std::move(cst), CauseOf(st->control, StopCause::kProducerFailed));
        return;
      }
      if (counted) {
        // Feed the one synthesized aggregate row (post_vars schema: the
        // COUNT column is index 0 when there is no GROUP BY) to the already
        // built Having → modifier → sink chain.
        Row agg(p.post_vars.size(), kInvalidId);
        agg[0] = local_vocab->Intern(
            NumericToTerm(Numeric::Int(static_cast<int64_t>(n))));
        pipe.head = cur;
        pipe.head->Push(agg);
        if (st->error.ok()) {
          if (util::Status fst = pipe.head->Finish(); !fst.ok())
            st->Fail(std::move(fst), CauseOf(st->control, StopCause::kProducerFailed));
        }
        return;
      }
    }

    cur = pipe.Make<GroupAggregateOp>(p.group_key_idx, p.agg_specs,
                                      /*implicit_group=*/q.group_by.empty(), dict,
                                      local_vocab.get(), cur, st);
  }

  cur = pipe.Make<GuardOp>(opts.row_budget, cur, st);
  pipe.head = BuildWhereChain(q.where, cur);

  // ---- Drive: one seed row in, Finish flushes the pipeline breakers. ----
  Row seed(p.vars.size(), kInvalidId);
  pipe.head->Push(seed);
  if (st->error.ok()) {
    // Errors suppress the flush: a budget/cancel trip must not deliver a
    // sorted/grouped result computed from a truncated enumeration.
    if (util::Status fst = pipe.head->Finish(); !fst.ok())
      st->Fail(std::move(fst), CauseOf(st->control, StopCause::kProducerFailed));
  }
}

bool Cursor::Next(Row* row) {
  if (!state_) return false;
  State& s = *state_;
  s.RunCollected();
  // Rows are copied out of the flat batch into the caller's row, which a
  // reused Row absorbs without allocating.
  if (s.served >= s.delivered.size()) return false;
  s.delivered.CopyRow(s.served++, row);
  return true;
}

void Cursor::Run(const RowSink& sink) {
  if (!state_) return;
  State& s = *state_;
  if (s.ran) {
    s.status = util::Status::Error("cursor already ran");
    s.cause = StopCause::kProducerFailed;
    return;
  }
  ExecState* st = &s.pipe.state;
  s.Run(s.pipe.Make<RelayOp>(
      [&sink, st](const Row& row) {
        if (sink(row) == EmitResult::kContinue) return EmitResult::kContinue;
        // A sink that gave up because the caller's deadline or cancel fired
        // (a write that waited out the deadline) ends the run with that
        // cause; any other sink stop is a clean early end, like LIMIT.
        if (util::Status c = st->control.Check(); !c.ok())
          st->Fail(std::move(c), CauseOf(st->control, StopCause::kProducerFailed));
        return EmitResult::kStop;
      },
      st, "Sink"));
}

const util::Status& Cursor::status() const {
  static const util::Status kOk;
  return state_ ? state_->status : kOk;
}

const std::vector<std::string>& Cursor::var_names() const {
  static const std::vector<std::string> kEmpty;
  return state_ && state_->prepared ? state_->prepared->var_names : kEmpty;
}

uint64_t Cursor::rows_before_modifiers() const {
  return state_ ? state_->before_modifiers : 0;
}

uint64_t Cursor::peak_buffered_rows() const {
  return state_ ? state_->peak_buffered : 0;
}

StopCause Cursor::stop_cause() const {
  return state_ ? state_->cause : StopCause::kNone;
}

std::shared_ptr<const LocalVocab> Cursor::local_vocab() const {
  return state_ ? state_->local_vocab : nullptr;
}

std::string Cursor::Explain() {
  if (!state_) return "(no query)\n";
  State& s = *state_;
  s.RunCollected();
  if (!s.pipe.head) return "(not executed: empty LIMIT or pre-run stop)\n";
  return ExplainChain(s.pipe.head);
}

Cursor OpenCursor(const BgpSolver& solver, const PreparedQuery& prepared,
                  const ExecOptions& opts) {
  Cursor cursor;
  cursor.state_ = std::make_shared<Cursor::State>();
  cursor.state_->solver = &solver;
  cursor.state_->prepared = prepared.impl_;
  cursor.state_->opts = opts;
  return cursor;
}

util::Result<ResultSet> Materialize(const BgpSolver& solver, const SelectQuery& q) {
  auto prepared = PrepareSelect(q);
  if (!prepared.ok()) return prepared.status();
  Cursor cursor = OpenCursor(solver, prepared.value());
  ResultSet rs;
  rs.var_names = prepared.value().var_names();
  Row row;
  while (cursor.Next(&row)) rs.rows.push_back(row);
  if (!cursor.status().ok()) return cursor.status();
  rs.total_before_modifiers = cursor.rows_before_modifiers();
  rs.local_vocab = cursor.local_vocab();
  return rs;
}

util::Result<ResultSet> Materialize(const BgpSolver& solver, const std::string& text) {
  auto q = ParseQuery(text);
  if (!q.ok()) return q.status();
  return Materialize(solver, q.value());
}

// ---------------------------------------------------------------------------
// QueryEngine: dataset + solver ownership.
// ---------------------------------------------------------------------------

struct QueryEngine::Owned {
  rdf::Dataset dataset;
  std::unique_ptr<graph::DataGraph> graph;
  std::unique_ptr<baseline::TripleIndex> index;
  std::unique_ptr<BgpSolver> solver;
};

QueryEngine::QueryEngine(rdf::Dataset dataset)
    : QueryEngine(std::move(dataset), Config{}) {}

QueryEngine::QueryEngine(rdf::Dataset dataset, Config config)
    : QueryEngine(std::move(dataset), std::move(config), nullptr) {}

QueryEngine::QueryEngine(rdf::Dataset dataset, Config config,
                         std::unique_ptr<graph::DataGraph> prebuilt)
    : owned_(std::make_unique<Owned>()) {
  owned_->dataset = std::move(dataset);
  const rdf::Dataset& ds = owned_->dataset;
  switch (config.solver) {
    case SolverKind::kTurbo:
    case SolverKind::kTurboDirect: {
      auto mode = config.solver == SolverKind::kTurbo
                      ? graph::TransformMode::kTypeAware
                      : graph::TransformMode::kDirect;
      if (prebuilt && prebuilt->mode() == mode &&
          prebuilt->storage_mode() == config.storage)
        owned_->graph = std::move(prebuilt);
      else
        owned_->graph = std::make_unique<graph::DataGraph>(
            graph::DataGraph::Build(ds, mode, config.storage));
      owned_->solver = std::make_unique<TurboBgpSolver>(*owned_->graph, ds.dict(),
                                                        config.engine_options);
      break;
    }
    case SolverKind::kSortMerge:
    case SolverKind::kIndexJoin: {
      owned_->index = std::make_unique<baseline::TripleIndex>(ds);
      if (config.solver == SolverKind::kSortMerge)
        owned_->solver =
            std::make_unique<baseline::SortMergeBgpSolver>(*owned_->index, ds.dict());
      else
        owned_->solver =
            std::make_unique<baseline::IndexJoinBgpSolver>(*owned_->index, ds.dict());
      break;
    }
  }
  solver_ = owned_->solver.get();
}

QueryEngine::QueryEngine(const BgpSolver* solver) : solver_(solver) {}

QueryEngine::~QueryEngine() = default;

util::Result<PreparedQuery> QueryEngine::Prepare(const std::string& text) const {
  auto q = ParseQuery(text);
  if (!q.ok()) return q.status();
  return PrepareSelect(q.take());
}

util::Result<Cursor> QueryEngine::Open(const PreparedQuery& prepared,
                                       ExecOptions opts) const {
  if (!prepared.impl_) return util::Status::Error("query was not prepared");
  return OpenCursor(*solver_, prepared, opts);
}

util::Result<Cursor> QueryEngine::Open(const std::string& text, ExecOptions opts) const {
  auto prepared = Prepare(text);
  if (!prepared.ok()) return prepared.status();
  return Open(prepared.value(), opts);
}

std::string FormatRow(const std::vector<std::string>& var_names, const Row& row,
                      const rdf::Dictionary& dict, const LocalVocab* local) {
  std::string out;
  for (size_t i = 0; i < var_names.size(); ++i) {
    if (i) out += "  ";
    out += "?" + var_names[i] + "=";
    const rdf::Term* t = ResolveTerm(dict, local, row[i]);
    out += t ? t->ToNTriples() : "UNBOUND";
  }
  return out;
}

const rdf::Dataset* QueryEngine::dataset() const {
  return owned_ ? &owned_->dataset : nullptr;
}

const TurboBgpSolver* QueryEngine::turbo_solver() const {
  return dynamic_cast<const TurboBgpSolver*>(solver_);
}

const graph::DataGraph* QueryEngine::data_graph() const {
  return owned_ ? owned_->graph.get() : nullptr;
}

}  // namespace turbo::sparql
