#include "baseline/solvers.hpp"

#include <algorithm>
#include <unordered_map>

namespace turbo::baseline {

namespace {

using sparql::EmitResult;
using sparql::EvalControl;
using sparql::PatternTerm;
using sparql::Row;
using sparql::RowSink;
using sparql::TriplePattern;
using sparql::VarRegistry;

/// Amortized cancellation probe: checks the control signals once every 4096
/// calls so the per-row cost stays negligible.
class ControlTicker {
 public:
  explicit ControlTicker(const EvalControl& control) : control_(control) {}
  util::Status Tick() {
    if ((++count_ & 0xFFF) == 0) return control_.Check();
    return util::Status::Ok();
  }

 private:
  const EvalControl& control_;
  uint64_t count_ = 0;
};

/// One position of a resolved pattern: a constant term id or a variable
/// index (constants include variables pre-bound by the executor).
struct Slot {
  TermId term = kInvalidId;  ///< constant value, if var < 0
  int var = -1;

  bool is_var() const { return var >= 0; }
};

struct ResolvedPattern {
  Slot s, p, o;
};

/// Resolves pattern positions against the dictionary (then the term overlay
/// below `overlay_limit`, if any) and the bound row. Returns false if a
/// constant resolves to nothing (zero results).
bool Resolve(const std::vector<TriplePattern>& bgp, const VarRegistry& vars,
             const Row& bound, const rdf::Dictionary& dict,
             std::vector<ResolvedPattern>* out,
             const sparql::LocalVocab* overlay = nullptr, TermId overlay_limit = 0) {
  auto slot = [&](const PatternTerm& pt, Slot* s) {
    if (pt.is_var()) {
      int vi = *vars.Find(pt.var);
      if (static_cast<size_t>(vi) < bound.size() && bound[vi] != kInvalidId) {
        s->term = bound[vi];
      } else {
        s->var = vi;
      }
      return true;
    }
    auto t = dict.Find(pt.term);
    if (!t && overlay) {
      t = overlay->FindId(pt.term);
      if (t && *t >= overlay_limit) return false;
    }
    if (!t) return false;
    s->term = *t;
    return true;
  };
  for (const TriplePattern& tp : bgp) {
    ResolvedPattern rp;
    if (!slot(tp.s, &rp.s) || !slot(tp.p, &rp.p) || !slot(tp.o, &rp.o)) return false;
    out->push_back(rp);
  }
  return true;
}

/// Binds a triple's component into `row`; false on conflict with an
/// existing binding (repeated variables).
bool Bind(Row* row, const Slot& slot, TermId value, std::vector<int>* newly) {
  if (!slot.is_var()) return slot.term == value;
  TermId& cell = (*row)[slot.var];
  if (cell == kInvalidId) {
    cell = value;
    newly->push_back(slot.var);
    return true;
  }
  return cell == value;
}

uint64_t HashKey(const Row& row, const std::vector<int>& key_vars) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int v : key_vars) {
    h ^= row[v] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// SortMergeBgpSolver
// ---------------------------------------------------------------------------

util::Status SortMergeBgpSolver::Evaluate(
    const std::vector<TriplePattern>& bgp, const VarRegistry& vars, const Row& bound,
    const std::vector<const sparql::FilterExpr*>& /*pushable: executor re-checks*/,
    const RowSink& emit, const EvalControl& control) const {
  std::vector<ResolvedPattern> patterns;
  if (!Resolve(bgp, vars, bound, dict_, &patterns)) return util::Status::Ok();
  ControlTicker ticker(control);

  struct Relation {
    std::vector<int> vars;  // variables bound by this relation (sorted)
    std::vector<Row> rows;
  };

  // Materialize one relation per pattern via an index range scan.
  std::vector<Relation> rels;
  Row seed = bound;
  seed.resize(vars.size(), kInvalidId);
  for (const ResolvedPattern& rp : patterns) {
    Relation rel;
    auto span = index_.Lookup(rp.s.is_var() ? kInvalidId : rp.s.term,
                              rp.p.is_var() ? kInvalidId : rp.p.term,
                              rp.o.is_var() ? kInvalidId : rp.o.term);
    for (const rdf::Triple& t : span) {
      if (auto st = ticker.Tick(); !st.ok()) return st;
      Row row = seed;
      std::vector<int> newly;
      if (Bind(&row, rp.s, t.s, &newly) && Bind(&row, rp.p, t.p, &newly) &&
          Bind(&row, rp.o, t.o, &newly)) {
        rel.rows.push_back(std::move(row));
      }
    }
    for (const Slot* s : {&rp.s, &rp.p, &rp.o})
      if (s->is_var()) rel.vars.push_back(s->var);
    std::sort(rel.vars.begin(), rel.vars.end());
    rel.vars.erase(std::unique(rel.vars.begin(), rel.vars.end()), rel.vars.end());
    if (rel.rows.empty()) return util::Status::Ok();
    rels.push_back(std::move(rel));
  }
  if (rels.empty()) {
    emit(seed);
    return util::Status::Ok();
  }

  // Greedy join order: start from the smallest relation; always prefer a
  // relation sharing a variable with the accumulated result.
  std::vector<bool> used(rels.size(), false);
  size_t first = 0;
  for (size_t i = 1; i < rels.size(); ++i)
    if (rels[i].rows.size() < rels[first].rows.size()) first = i;
  used[first] = true;
  Relation cur = std::move(rels[first]);

  for (size_t step = 1; step < rels.size(); ++step) {
    size_t best = SIZE_MAX;
    bool best_shares = false;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (used[i]) continue;
      bool shares = false;
      for (int v : rels[i].vars)
        if (std::binary_search(cur.vars.begin(), cur.vars.end(), v)) shares = true;
      if (best == SIZE_MAX || (shares && !best_shares) ||
          (shares == best_shares && rels[i].rows.size() < rels[best].rows.size())) {
        best = i;
        best_shares = shares;
      }
    }
    Relation& nxt = rels[best];
    used[best] = true;

    std::vector<int> shared;
    for (int v : nxt.vars)
      if (std::binary_search(cur.vars.begin(), cur.vars.end(), v)) shared.push_back(v);

    Relation joined;
    joined.vars = cur.vars;
    for (int v : nxt.vars) joined.vars.push_back(v);
    std::sort(joined.vars.begin(), joined.vars.end());
    joined.vars.erase(std::unique(joined.vars.begin(), joined.vars.end()),
                      joined.vars.end());

    if (shared.empty()) {
      // Cartesian product.
      for (const Row& a : cur.rows)
        for (const Row& b : nxt.rows) {
          if (auto st = ticker.Tick(); !st.ok()) return st;
          Row merged = a;
          for (int v : nxt.vars) merged[v] = b[v];
          joined.rows.push_back(std::move(merged));
        }
    } else {
      // Hash join on the shared variables (build on the smaller side).
      const bool build_next = nxt.rows.size() <= cur.rows.size();
      const std::vector<Row>& build = build_next ? nxt.rows : cur.rows;
      const std::vector<Row>& probe = build_next ? cur.rows : nxt.rows;
      std::unordered_multimap<uint64_t, const Row*> table;
      table.reserve(build.size());
      for (const Row& r : build) table.emplace(HashKey(r, shared), &r);
      const std::vector<int>& other_vars = build_next ? nxt.vars : cur.vars;
      for (const Row& r : probe) {
        if (auto st = ticker.Tick(); !st.ok()) return st;
        auto [lo, hi] = table.equal_range(HashKey(r, shared));
        for (auto it = lo; it != hi; ++it) {
          const Row& b = *it->second;
          bool ok = true;
          for (int v : shared)
            if (b[v] != r[v]) {
              ok = false;
              break;
            }
          if (!ok) continue;
          Row merged = r;
          for (int v : other_vars) merged[v] = b[v];
          joined.rows.push_back(std::move(merged));
        }
      }
    }
    if (joined.rows.empty()) return util::Status::Ok();
    cur = std::move(joined);
  }
  for (const Row& r : cur.rows)
    if (emit(r) == EmitResult::kStop) break;
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// IndexJoinBgpSolver
// ---------------------------------------------------------------------------

util::Status IndexJoinBgpSolver::Evaluate(
    const std::vector<TriplePattern>& bgp, const VarRegistry& vars, const Row& bound,
    const std::vector<const sparql::FilterExpr*>& /*pushable: executor re-checks*/,
    const RowSink& emit, const EvalControl& control) const {
  std::vector<ResolvedPattern> patterns;
  if (!Resolve(bgp, vars, bound, dict_, &patterns, delta_.overlay.get(),
               delta_.overlay_limit))
    return util::Status::Ok();
  if (patterns.empty()) {
    Row seed = bound;
    seed.resize(vars.size(), kInvalidId);
    emit(seed);
    return util::Status::Ok();
  }
  ControlTicker ticker(control);

  // Selectivity-ordered greedy plan: repeatedly take the cheapest pattern,
  // preferring ones connected to already-bound variables.
  std::vector<size_t> order;
  std::vector<bool> used(patterns.size(), false);
  std::vector<bool> var_bound(vars.size(), false);
  for (size_t i = 0; i < bound.size(); ++i)
    if (bound[i] != kInvalidId) var_bound[i] = true;

  const TripleIndex* adds = delta_.adds.get();
  const TombstoneSet* tombs = delta_.tombstones && !delta_.tombstones->empty()
                                  ? delta_.tombstones.get()
                                  : nullptr;

  // Tombstones make this an overestimate for base ranges; fine for ordering.
  auto estimate = [&](const ResolvedPattern& rp) {
    TermId s = rp.s.is_var() ? kInvalidId : rp.s.term;
    TermId p = rp.p.is_var() ? kInvalidId : rp.p.term;
    TermId o = rp.o.is_var() ? kInvalidId : rp.o.term;
    return index_.Count(s, p, o) + (adds ? adds->Count(s, p, o) : 0);
  };
  auto connected = [&](const ResolvedPattern& rp) {
    for (const Slot* s : {&rp.s, &rp.p, &rp.o})
      if (s->is_var() && var_bound[s->var]) return true;
    return false;
  };
  for (size_t step = 0; step < patterns.size(); ++step) {
    size_t best = SIZE_MAX;
    bool best_conn = false;
    uint64_t best_cost = 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i]) continue;
      bool conn = connected(patterns[i]);
      uint64_t cost = estimate(patterns[i]);
      if (best == SIZE_MAX || (conn && !best_conn) ||
          (conn == best_conn && cost < best_cost)) {
        best = i;
        best_conn = conn;
        best_cost = cost;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const Slot* s : {&patterns[best].s, &patterns[best].p, &patterns[best].o})
      if (s->is_var()) var_bound[s->var] = true;
  }

  Row row = bound;
  row.resize(vars.size(), kInvalidId);

  // Depth-first index nested-loop join; a kStop from the sink (or a tripped
  // control signal, surfaced via `abort_status`) unwinds the whole probe.
  // Each probe scans the base range (minus tombstones), then the delta's.
  util::Status abort_status;
  std::function<EmitResult(size_t)> probe = [&](size_t depth) -> EmitResult {
    if (depth == order.size()) return emit(row);
    const ResolvedPattern& rp = patterns[order[depth]];
    auto value_of = [&](const Slot& s) {
      if (!s.is_var()) return s.term;
      return row[s.var];  // kInvalidId if still free
    };
    const TermId s = value_of(rp.s), p = value_of(rp.p), o = value_of(rp.o);
    auto visit = [&](const rdf::Triple& t) {
      if (auto st = ticker.Tick(); !st.ok()) {
        abort_status = st;
        return EmitResult::kStop;
      }
      std::vector<int> newly;
      EmitResult er = EmitResult::kContinue;
      if (Bind(&row, rp.s, t.s, &newly) && Bind(&row, rp.p, t.p, &newly) &&
          Bind(&row, rp.o, t.o, &newly)) {
        er = probe(depth + 1);
      }
      for (int v : newly) row[v] = kInvalidId;
      return er;
    };
    for (const rdf::Triple& t : index_.Lookup(s, p, o)) {
      if (tombs && tombs->count(t)) continue;
      if (visit(t) == EmitResult::kStop) return EmitResult::kStop;
    }
    if (adds) {
      for (const rdf::Triple& t : adds->Lookup(s, p, o))
        if (visit(t) == EmitResult::kStop) return EmitResult::kStop;
    }
    return EmitResult::kContinue;
  };
  probe(0);
  return abort_status;
}

}  // namespace turbo::baseline
