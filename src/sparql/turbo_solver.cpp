#include "sparql/turbo_solver.hpp"

#include <algorithm>
#include <unordered_map>

#include "rdf/vocabulary.hpp"
#include "sparql/filter_eval.hpp"

namespace turbo::sparql {

namespace {

using graph::DataGraph;
using graph::QueryGraph;

/// A deferred variable binding resolved per solution by enumeration.
struct PendingTypeVar {
  uint32_t qv;
  int var;
};
struct PendingElVar {
  uint32_t from_qv;
  uint32_t to_qv;
  int var;
};

bool ContainsRegex(const FilterExpr& e) {
  if (e.op == FilterExpr::Op::kRegex) return true;
  for (const auto& c : e.children)
    if (ContainsRegex(c)) return true;
  return false;
}

/// The BGP compiled to a QueryGraph plus everything row assembly needs to
/// turn embeddings back into rows. Shared between the row path (EvaluateOne)
/// and the COUNT(*) pushdown, which declines whenever the auxiliary
/// structures are non-empty (rows would not map 1:1 to embeddings).
struct CompiledBgp {
  QueryGraph q;
  std::unordered_map<int, uint32_t> var_to_qv;    ///< unbound vertex vars
  std::vector<const TriplePattern*> schema_patterns;
  std::vector<PendingTypeVar> type_vars;
  std::vector<PendingElVar> el_vars;
  bool impossible = false;  ///< some constant is absent: zero solutions
  util::Status error;       ///< variable position conflicts
};

/// Compiles `bgp` under the pre-bound row `bound` (§3.2 / §4.1 query-side
/// transformation; type-aware mode folds rdf:type into labels and diverts
/// rdfs:subClassOf patterns to the schema side table).
CompiledBgp CompileBgp(const DataGraph& g, const rdf::Dictionary& dict,
                       const engine::MatchOptions& options,
                       const std::vector<TriplePattern>& bgp, const VarRegistry& vars,
                       const Row& bound) {
  CompiledBgp c;
  const bool type_aware = g.mode() == graph::TransformMode::kTypeAware;
  auto type_term = dict.Find(rdf::Term::Iri(rdf::vocab::kRdfType));
  auto subclass_term = dict.Find(rdf::Term::Iri(rdf::vocab::kRdfsSubClassOf));

  QueryGraph& q = c.q;
  std::unordered_map<TermId, uint32_t> const_qv;  // constant / bound-var vertices
  std::vector<int> predicate_vars;  // for var-position conflict detection

  auto bound_value = [&](const std::string& name) -> TermId {
    auto vi = vars.Find(name);
    if (!vi || static_cast<size_t>(*vi) >= bound.size()) return kInvalidId;
    return bound[*vi];
  };

  auto vertex_for_term = [&](TermId t) -> uint32_t {
    auto it = const_qv.find(t);
    if (it != const_qv.end()) return it->second;
    graph::QueryVertex v;
    auto vid = g.VertexOfTerm(t);
    if (!vid) {
      c.impossible = true;
      v.fixed_id = kInvalidId - 1;  // unmatchable
    } else {
      v.fixed_id = *vid;
    }
    uint32_t qv = q.AddVertex(std::move(v));
    const_qv.emplace(t, qv);
    return qv;
  };

  auto vertex_for = [&](const PatternTerm& pt) -> uint32_t {
    if (pt.is_var()) {
      TermId b = bound_value(pt.var);
      if (b != kInvalidId) return vertex_for_term(b);
      int vi = *vars.Find(pt.var);
      auto it = c.var_to_qv.find(vi);
      if (it != c.var_to_qv.end()) return it->second;
      graph::QueryVertex v;
      v.var = vi;
      uint32_t qv = q.AddVertex(std::move(v));
      c.var_to_qv.emplace(vi, qv);
      return qv;
    }
    auto t = dict.Find(pt.term);
    if (!t) {
      c.impossible = true;
      // Create a placeholder vertex so the graph stays well-formed.
      graph::QueryVertex v;
      v.fixed_id = kInvalidId - 1;
      return q.AddVertex(std::move(v));
    }
    return vertex_for_term(*t);
  };

  for (const TriplePattern& tp : bgp) {
    if (type_aware && subclass_term) {
      bool is_schema = (!tp.p.is_var() && tp.p.term.is_iri() &&
                        tp.p.term.lexical == rdf::vocab::kRdfsSubClassOf) ||
                       (tp.p.is_var() && bound_value(tp.p.var) == *subclass_term);
      if (is_schema) {
        c.schema_patterns.push_back(&tp);
        continue;
      }
    }
    // Type-aware folding of rdf:type patterns (§4.1).
    bool is_type_pattern = type_aware && !tp.p.is_var() &&
                           tp.p.term.is_iri() && tp.p.term.lexical == rdf::vocab::kRdfType;
    if (!is_type_pattern && type_aware && tp.p.is_var()) {
      // A bound predicate variable naming rdf:type also folds.
      TermId b = bound_value(tp.p.var);
      if (type_term && b == *type_term) is_type_pattern = true;
    }
    if (is_type_pattern) {
      uint32_t subj = vertex_for(tp.s);
      TermId obj_term = kInvalidId;
      if (!tp.o.is_var()) {
        auto t = dict.Find(tp.o.term);
        if (!t) {
          c.impossible = true;
          continue;
        }
        obj_term = *t;
      } else {
        obj_term = bound_value(tp.o.var);
      }
      if (obj_term != kInvalidId) {
        auto l = g.LabelOfTerm(obj_term);
        if (!l) {
          c.impossible = true;
          continue;
        }
        q.mutable_vertex(subj).labels.push_back(*l);
      } else {
        // (?x rdf:type ?t): enumerate labels of the match per solution.
        int vi = *vars.Find(tp.o.var);
        c.type_vars.push_back({subj, vi});
        // The subject must carry at least one label.
        graph::VertexConstraint prev = q.vertex(subj).constraint;
        const bool simple = options.simple_entailment;
        q.mutable_vertex(subj).constraint = [prev, simple](const DataGraph& g2, VertexId v) {
          if (prev && !prev(g2, v)) return false;
          return simple ? !g2.simple_labels(v).empty() : !g2.labels(v).empty();
        };
      }
      continue;
    }

    uint32_t from = vertex_for(tp.s);
    uint32_t to = vertex_for(tp.o);
    // Direct transformation keeps rdf:type as an ordinary edge, but its
    // object is a class vertex with huge fan-in; flag it so the start-vertex
    // choice prefers entity anchors (see QueryVertex::hub_hint).
    if (!type_aware && type_term && !tp.p.is_var()) {
      auto pt = dict.Find(tp.p.term);
      if (pt && *pt == *type_term && q.vertex(to).has_fixed_id())
        q.mutable_vertex(to).hub_hint = true;
    }
    graph::QueryEdge e;
    e.from = from;
    e.to = to;
    if (!tp.p.is_var()) {
      auto t = dict.Find(tp.p.term);
      auto el = t ? g.EdgeLabelOfTerm(*t) : std::nullopt;
      if (!el) {
        c.impossible = true;
        continue;
      }
      e.label = *el;
    } else {
      TermId b = bound_value(tp.p.var);
      if (b != kInvalidId) {
        auto el = g.EdgeLabelOfTerm(b);
        if (!el) {
          c.impossible = true;
          continue;
        }
        e.label = *el;
      } else {
        int vi = *vars.Find(tp.p.var);
        e.label = kInvalidId;
        e.label_var = vi;
        c.el_vars.push_back({from, to, vi});
        predicate_vars.push_back(vi);
      }
    }
    q.AddEdge(e);
  }

  // A variable cannot be both a node and a predicate.
  for (int pv : predicate_vars) {
    if (c.var_to_qv.count(pv)) {
      c.error = util::Status::Error("variable ?" + vars.name(pv) +
                                    " used in both node and predicate positions");
      return c;
    }
    for (const auto& tv : c.type_vars)
      if (tv.var == pv) {
        c.error = util::Status::Error("variable ?" + vars.name(pv) +
                                      " used in both type and predicate positions");
        return c;
      }
  }

  for (uint32_t u = 0; u < q.num_vertices(); ++u) {
    auto& ls = q.mutable_vertex(u).labels;
    std::sort(ls.begin(), ls.end());
    ls.erase(std::unique(ls.begin(), ls.end()), ls.end());
  }
  return c;
}

}  // namespace

util::Status TurboBgpSolver::Evaluate(const std::vector<TriplePattern>& bgp,
                                      const VarRegistry& vars, const Row& bound,
                                      const std::vector<const FilterExpr*>& pushable,
                                      const RowSink& emit,
                                      const EvalControl& control) const {
  // In type-aware mode, rdf:type triples are folded into labels and
  // rdfs:subClassOf triples into the schema side table, so an unbound
  // predicate variable would silently miss those rows. For each such
  // variable we additionally evaluate with it pre-bound to rdf:type /
  // rdfs:subClassOf (the bound-variable paths fold them appropriately); the
  // edge path cannot double-count because neither predicate is an edge label
  // in the type-aware graph.
  if (g_.mode() == graph::TransformMode::kTypeAware) {
    std::vector<TermId> interpretations{kInvalidId};  // kInvalidId = edge label
    if (auto t = dict_.Find(rdf::Term::Iri(rdf::vocab::kRdfType))) interpretations.push_back(*t);
    if (!g_.SubclassTriples().empty()) {
      if (auto t = dict_.Find(rdf::Term::Iri(rdf::vocab::kRdfsSubClassOf)))
        interpretations.push_back(*t);
    }
    std::vector<int> pred_vars;
    for (const TriplePattern& tp : bgp) {
      if (!tp.p.is_var()) continue;
      auto vi = vars.Find(tp.p.var);
      if (!vi) continue;
      bool unbound = static_cast<size_t>(*vi) >= bound.size() || bound[*vi] == kInvalidId;
      if (unbound && std::find(pred_vars.begin(), pred_vars.end(), *vi) == pred_vars.end())
        pred_vars.push_back(*vi);
    }
    if (interpretations.size() > 1 && !pred_vars.empty()) {
      if (pred_vars.size() > 8)
        return util::Status::Error("too many variable predicates in one pattern");
      uint64_t combos = 1;
      for (size_t j = 0; j < pred_vars.size(); ++j) combos *= interpretations.size();
      // A sink stop must also stop the remaining interpretation combos, so
      // watch for it on the way through.
      bool stopped = false;
      RowSink watched = [&](const Row& r) {
        EmitResult er = emit(r);
        if (er == EmitResult::kStop) stopped = true;
        return er;
      };
      for (uint64_t mask = 0; mask < combos && !stopped; ++mask) {
        Row b2 = bound;
        b2.resize(vars.size(), kInvalidId);
        uint64_t rest = mask;
        for (size_t j = 0; j < pred_vars.size(); ++j) {
          b2[pred_vars[j]] = interpretations[rest % interpretations.size()];
          rest /= interpretations.size();
        }
        auto st = EvaluateOne(bgp, vars, b2, pushable, watched, control);
        if (!st.ok()) return st;
      }
      return util::Status::Ok();
    }
  }
  return EvaluateOne(bgp, vars, bound, pushable, emit, control);
}

util::Status TurboBgpSolver::EvaluateOne(const std::vector<TriplePattern>& bgp,
                                         const VarRegistry& vars, const Row& bound,
                                         const std::vector<const FilterExpr*>& pushable,
                                         const RowSink& emit,
                                         const EvalControl& control) const {
  CompiledBgp c = CompileBgp(g_, dict_, options_, bgp, vars, bound);
  if (!c.error.ok()) return c.error;
  if (c.impossible) return util::Status::Ok();  // some constant is absent: zero rows

  QueryGraph& q = c.q;
  // Schema (rdfs:subClassOf) patterns join against the side table the
  // type-aware transformation retains; they bind variables to class TERMS,
  // not vertices, and are applied to each solution row after matching.
  auto& schema_patterns = c.schema_patterns;
  auto& var_to_qv = c.var_to_qv;
  auto& type_vars = c.type_vars;
  auto& el_vars = c.el_vars;

  // Push single-variable non-regex filters down as vertex constraints
  // (§5.1: inexpensive filters evaluated on access).
  std::shared_ptr<FilterEvaluator> shared_eval;
  if (!pushable.empty()) shared_eval = std::make_shared<FilterEvaluator>(dict_, vars);
  for (const FilterExpr* f : pushable) {
    if (ContainsRegex(*f)) continue;
    std::vector<std::string> fvars;
    f->CollectVars(&fvars);
    std::sort(fvars.begin(), fvars.end());
    fvars.erase(std::unique(fvars.begin(), fvars.end()), fvars.end());
    if (fvars.size() != 1) continue;
    auto vi = vars.Find(fvars[0]);
    if (!vi) continue;
    auto it = var_to_qv.find(*vi);
    if (it == var_to_qv.end()) continue;
    graph::VertexConstraint prev = q.vertex(it->second).constraint;
    size_t row_size = vars.size();
    int var_idx = *vi;
    q.mutable_vertex(it->second).constraint =
        [prev, shared_eval, f, var_idx, row_size](const DataGraph& g, VertexId v) {
          if (prev && !prev(g, v)) return false;
          thread_local Row tmp;
          tmp.assign(row_size, kInvalidId);
          tmp[var_idx] = g.VertexTerm(v);
          return shared_eval->Test(*f, tmp);
        };
  }

  // ---- Schema join wrapper: extend each solution row with the
  // rdfs:subClassOf side-table bindings. Propagates the sink's stop request
  // back out through the recursion. ----
  std::function<EmitResult(Row&)> emit_schema = [&](Row& row) { return emit(row); };
  if (!schema_patterns.empty()) {
    emit_schema = [&](Row& row) -> EmitResult {
      std::function<EmitResult(size_t)> rec = [&](size_t k) -> EmitResult {
        if (k == schema_patterns.size()) return emit(row);
        const TriplePattern& tp = *schema_patterns[k];
        TermId fs = kInvalidId, fo = kInvalidId;
        int vs = -1, vo = -1;
        auto resolve = [&](const PatternTerm& pt, TermId* fixed, int* var) {
          if (!pt.is_var()) {
            auto t = dict_.Find(pt.term);
            *fixed = t ? *t : kInvalidId;  // kInvalidId matches no term
            return;
          }
          int vi = *vars.Find(pt.var);
          if (row[vi] != kInvalidId)
            *fixed = row[vi];
          else
            *var = vi;
        };
        resolve(tp.s, &fs, &vs);
        resolve(tp.o, &fo, &vo);
        EmitResult result = EmitResult::kContinue;
        for (const auto& [subj, obj] : g_.SubclassTriples()) {
          if (vs < 0 && subj != fs) continue;
          if (vo < 0 && obj != fo) continue;
          if (vs >= 0 && vo >= 0 && vs == vo && subj != obj) continue;
          TermId save_s = vs >= 0 ? row[vs] : 0;
          TermId save_o = vo >= 0 ? row[vo] : 0;
          if (vs >= 0) row[vs] = subj;
          if (vo >= 0) row[vo] = obj;
          result = rec(k + 1);
          if (vs >= 0) row[vs] = save_s;
          if (vo >= 0) row[vo] = save_o;
          if (result == EmitResult::kStop) break;
        }
        return result;
      };
      return rec(0);
    };
  }

  // ---- Match, component by component. ----
  auto comp = q.ComponentIds();
  uint32_t num_comps = q.num_vertices() == 0 ? 0 : *std::max_element(comp.begin(), comp.end()) + 1;
  if (num_comps == 0) {
    // Schema-only BGP: no vertex matching needed.
    Row out = bound;
    out.resize(vars.size(), kInvalidId);
    emit_schema(out);
    return util::Status::Ok();
  }

  // Engine options for this call: the caller's cancel token / deadline ride
  // into the Matcher so even zero-solution enumerations stay cancellable.
  engine::MatchOptions mopts = options_;
  mopts.cancel = control.cancel;
  mopts.deadline = control.deadline;

  // ---- Row assembly: resolve pending type-variable and predicate-variable
  // bindings, then run the schema join and emit. A kStop propagates back to
  // the Matcher callback, which aborts SubgraphSearch itself. ----
  Row out;
  std::vector<VertexId> m(q.num_vertices(), kInvalidId);
  std::vector<EdgeLabelId> el_scratch;

  std::function<EmitResult(size_t)> expand = [&](size_t k) -> EmitResult {
    if (k == type_vars.size() + el_vars.size()) return emit_schema(out);
    if (k < type_vars.size()) {
      const PendingTypeVar& tv = type_vars[k];
      auto labels = options_.simple_entailment ? g_.simple_labels(m[tv.qv])
                                               : g_.labels(m[tv.qv]);
      TermId already = out[tv.var];
      EmitResult result = EmitResult::kContinue;
      for (LabelId l : labels) {
        TermId t = g_.LabelTerm(l);
        if (already != kInvalidId && already != t) continue;
        out[tv.var] = t;
        result = expand(k + 1);
        if (result == EmitResult::kStop) break;
      }
      out[tv.var] = already;
      return result;
    }
    const PendingElVar& ev = el_vars[k - type_vars.size()];
    g_.EdgeLabelsBetween(m[ev.from_qv], m[ev.to_qv], &el_scratch);
    std::vector<EdgeLabelId> labels = el_scratch;  // recursion reuses scratch
    TermId already = out[ev.var];
    EmitResult result = EmitResult::kContinue;
    for (EdgeLabelId el : labels) {
      TermId t = g_.EdgeLabelTerm(el);
      if (already != kInvalidId && already != t) continue;
      out[ev.var] = t;
      result = expand(k + 1);
      if (result == EmitResult::kStop) break;
    }
    out[ev.var] = already;
    return result;
  };

  auto emit_mapping = [&]() -> EmitResult {
    out = bound;
    out.resize(vars.size(), kInvalidId);
    for (uint32_t u = 0; u < q.num_vertices(); ++u) {
      int vi = q.vertex(u).var;
      if (vi >= 0) out[vi] = g_.VertexTerm(m[u]);
    }
    return expand(0);
  };

  if (num_comps == 1) {
    // Common case: stream solutions straight from the engine — no
    // intermediate materialization (important for the point-shaped queries
    // like LUBM Q6/Q14 whose cost is dominated by result delivery).
    engine::Matcher matcher(g_, mopts, &arena_pool_);
    bool sink_stopped = false;
    engine::MatchStats stats =
        matcher.Match(q, [&](std::span<const VertexId> sol) {
          for (uint32_t u = 0; u < q.num_vertices(); ++u) m[u] = sol[u];
          if (emit_mapping() == EmitResult::kStop) sink_stopped = true;
          return !sink_stopped;
        });
    MergeStats(stats);
    // Surface a cancel/deadline error only when it actually cut the
    // enumeration short — a signal that trips after completion (or after
    // the sink's own kStop) must not retroactively spoil a full answer.
    if (stats.stopped_early && !sink_stopped) return control.Check();
    return util::Status::Ok();
  }

  // Disconnected patterns: match each component separately, then take the
  // cartesian product of the per-component solution sets.
  std::vector<std::vector<engine::Solution>> comp_solutions(num_comps);
  std::vector<std::vector<uint32_t>> comp_qvs(num_comps);
  {
    std::vector<uint32_t> local_idx(q.num_vertices());
    for (uint32_t c = 0; c < num_comps; ++c) {
      QueryGraph sub;
      for (uint32_t u = 0; u < q.num_vertices(); ++u) {
        if (comp[u] != c) continue;
        local_idx[u] = sub.AddVertex(q.vertex(u));
        comp_qvs[c].push_back(u);
      }
      for (uint32_t ei = 0; ei < q.num_edges(); ++ei) {
        const graph::QueryEdge& e = q.edge(ei);
        if (comp[e.from] != c) continue;
        graph::QueryEdge le = e;
        le.from = local_idx[e.from];
        le.to = local_idx[e.to];
        sub.AddEdge(le);
      }
      engine::Matcher matcher(g_, mopts, &arena_pool_);
      engine::MatchStats stats;
      comp_solutions[c] = matcher.FindAll(sub, &stats);
      MergeStats(stats);
      // FindAll has no sink, so an early stop here can only mean the
      // cancel/deadline fired mid-enumeration.
      if (stats.stopped_early)
        if (auto st = control.Check(); !st.ok()) return st;
      if (comp_solutions[c].empty()) return util::Status::Ok();
    }
  }

  std::function<EmitResult(uint32_t)> cartesian = [&](uint32_t c) -> EmitResult {
    if (c == num_comps) return emit_mapping();
    for (const engine::Solution& sol : comp_solutions[c]) {
      for (size_t i = 0; i < comp_qvs[c].size(); ++i) m[comp_qvs[c][i]] = sol[i];
      if (cartesian(c + 1) == EmitResult::kStop) return EmitResult::kStop;
    }
    return EmitResult::kContinue;
  };
  cartesian(0);
  return util::Status::Ok();
}

util::Status TurboBgpSolver::CountSolutions(const std::vector<TriplePattern>& bgp,
                                            const VarRegistry& vars, uint64_t* count,
                                            bool* counted,
                                            const EvalControl& control) const {
  *counted = false;
  CompiledBgp c = CompileBgp(g_, dict_, options_, bgp, vars, /*bound=*/{});
  if (!c.error.ok()) return c.error;
  if (c.impossible) {  // some constant is absent: zero solutions, no matching
    *count = 0;
    *counted = true;
    return util::Status::Ok();
  }
  // Count only when every embedding is exactly one row. Pending type- or
  // predicate-variable bindings expand per solution (and an unbound predicate
  // variable additionally triggers the type-aware interpretation expansion in
  // Evaluate); schema patterns join against the side table; a disconnected
  // pattern needs a cartesian product. All of those decline.
  if (!c.type_vars.empty() || !c.el_vars.empty() || !c.schema_patterns.empty())
    return util::Status::Ok();
  auto comp = c.q.ComponentIds();
  uint32_t num_comps =
      c.q.num_vertices() == 0 ? 0 : *std::max_element(comp.begin(), comp.end()) + 1;
  if (num_comps != 1) return util::Status::Ok();

  engine::MatchOptions mopts = options_;
  mopts.cancel = control.cancel;
  mopts.deadline = control.deadline;
  engine::Matcher matcher(g_, mopts, &arena_pool_);
  engine::MatchStats stats;
  uint64_t n = matcher.Count(c.q, &stats);
  MergeStats(stats);
  if (stats.stopped_early) return control.Check();
  *count = n;
  *counted = true;
  return util::Status::Ok();
}

}  // namespace turbo::sparql
