// Reusable differential-verification layer for engine work.
//
// Provides seeded random RDF datasets, random connected basic graph
// patterns (optionally sampled from the data so at least one solution is
// guaranteed), solver-agnostic evaluation into canonicalized row sets, the
// injectivity filter that turns homomorphism rows into the isomorphism
// solution set, and the enumeration of all 16 combinations of the paper's
// Section 4.3 optimization toggles.
//
// tests/solver_crosscheck_test.cpp is the primary consumer; any PR touching
// the engine hot path can include this header and crosscheck its variant
// against the baselines on the same seeded cases.
//
// Two fuzz tiers live here:
//   * MakeRandomCase      — small graphs (<= ~15 entities), bare BGPs, used
//     by the exhaustive all-toggle matrix;
//   * MakeExecutorFuzzCase — the nightly-scale tier: 100-500 entity graphs
//     and full SELECT queries with OPTIONAL / FILTER / UNION, evaluated
//     through the sparql::Executor so the solver integration (bound-row
//     re-entry, filter pushdown, left-join extension) is differentially
//     tested too. Iteration count is scaled by $TURBO_FUZZ_ITERS.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/options.hpp"
#include "rdf/dataset.hpp"
#include "rdf/reasoner.hpp"
#include "rdf/triple.hpp"
#include "rdf/vocabulary.hpp"
#include "sparql/ast.hpp"
#include "sparql/executor.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/solver.hpp"
#include "sparql/typed_value.hpp"
#include "util/rng.hpp"

namespace turbo::testing::crosscheck {

using engine::MatchOptions;
using engine::MatchSemantics;
using sparql::PatternTerm;
using sparql::Row;
using sparql::TriplePattern;
using sparql::VarRegistry;

inline std::string EntityIri(uint64_t i) { return "http://x/e" + std::to_string(i); }
inline std::string ClassIri(uint64_t i) { return "http://x/C" + std::to_string(i); }
inline std::string PredIri(uint64_t i) { return "http://x/p" + std::to_string(i); }

struct RandomCase {
  rdf::Dataset ds;
  std::vector<TriplePattern> bgp;
  VarRegistry vars;
  /// Row indices of the vertex-position variables (?v*), used for the
  /// isomorphism injectivity filter.
  std::vector<int> vertex_var_indices;
  /// True if every subject/object slot of the BGP is a variable (no constant
  /// entities); the isomorphism crosscheck only runs on such cases, where
  /// query vertices and vertex variables coincide exactly.
  bool all_slots_are_vars = true;
  bool expect_nonempty = false;  ///< query was sampled from the data
};

/// Random dataset: a handful of entities, predicates, and classes, an
/// optional rdfs:subClassOf chain, random type assertions, and random edges.
inline rdf::Dataset MakeRandomDataset(util::Rng& rng) {
  rdf::Dataset ds;
  const uint64_t n_entities = 6 + rng.Below(9);   // 6..14
  const uint64_t n_preds = 2 + rng.Below(3);      // 2..4
  const uint64_t n_classes = 2 + rng.Below(3);    // 2..4
  for (uint64_t c = 1; c < n_classes; ++c)
    if (rng.Chance(0.5))
      ds.AddIri(ClassIri(c), std::string(rdf::vocab::kRdfsSubClassOf), ClassIri(c - 1));
  for (uint64_t v = 0; v < n_entities; ++v) {
    const uint64_t n_types = rng.Below(3);  // 0..2 type assertions
    for (uint64_t t = 0; t < n_types; ++t)
      ds.AddIri(EntityIri(v), std::string(rdf::vocab::kRdfType),
                ClassIri(rng.Below(n_classes)));
  }
  const uint64_t n_edges = n_entities + rng.Below(2 * n_entities);
  for (uint64_t e = 0; e < n_edges; ++e)
    ds.AddIri(EntityIri(rng.Below(n_entities)), PredIri(rng.Below(n_preds)),
              EntityIri(rng.Below(n_entities)));
  // Half the datasets get the inference closure materialized, matching the
  // paper's setup where every engine loads inference-closed data.
  if (rng.Chance(0.5)) rdf::MaterializeInference(&ds);
  return ds;
}

/// Non-schema triples (ordinary predicates only) of `ds`, for sampling
/// data-derived queries.
inline std::vector<rdf::Triple> EdgeTriples(const rdf::Dataset& ds) {
  std::vector<rdf::Triple> out;
  auto type_p = ds.dict().FindIri(std::string(rdf::vocab::kRdfType));
  auto sub_p = ds.dict().FindIri(std::string(rdf::vocab::kRdfsSubClassOf));
  for (const rdf::Triple& t : ds.triples()) {
    if (type_p && t.p == *type_p) continue;
    if (sub_p && t.p == *sub_p) continue;
    out.push_back(t);
  }
  return out;
}

inline PatternTerm ConstIri(const rdf::Dataset& ds, TermId t) {
  return PatternTerm::Const(ds.dict().term(t));
}

/// Builds a random connected BGP. With probability ~0.6 the pattern is
/// sampled from the data (guaranteeing at least one solution); otherwise the
/// shape and constants are fully random. Slots (subject/object positions)
/// are usually variables ?v<i>, occasionally pinned to a constant entity;
/// predicates are usually constants, occasionally variables ?p<i>; vertex
/// variables occasionally gain a (?v rdf:type C) pattern.
inline RandomCase MakeRandomCase(uint64_t seed) {
  util::Rng rng(seed);
  RandomCase c{MakeRandomDataset(rng), {}, {}, {}, true, false};
  const rdf::Dataset& ds = c.ds;
  std::vector<rdf::Triple> edges = EdgeTriples(ds);
  auto type_term = ds.dict().FindIri(std::string(rdf::vocab::kRdfType));

  const bool from_data = !edges.empty() && rng.Chance(0.6);
  c.expect_nonempty = from_data;
  const uint64_t n_slots = 2 + rng.Below(3);  // 2..4 vertex slots

  // slot -> (variable row index or -1) and (sample entity term for
  // data-derived pinning / type lookup).
  std::vector<int> slot_var(n_slots, -1);
  std::vector<TermId> slot_entity(n_slots, kInvalidId);
  std::vector<PatternTerm> slot_pt(n_slots);

  if (from_data) {
    // Random walk over data triples: each new slot is attached to an
    // already-placed slot via an actual triple, so mapping slot i ->
    // slot_entity[i] is always a solution.
    rdf::Triple t0 = edges[rng.Below(edges.size())];
    slot_entity[0] = t0.s;
    slot_entity[1] = t0.o;
    c.bgp.push_back({PatternTerm{}, ConstIri(ds, t0.p), PatternTerm{}});
    std::vector<std::pair<uint32_t, uint32_t>> pattern_slots{{0, 1}};
    for (uint64_t i = 2; i < n_slots; ++i) {
      // Find a triple touching a placed entity.
      std::vector<std::pair<rdf::Triple, bool>> touching;  // (triple, placed-is-subject)
      for (const rdf::Triple& t : edges)
        for (uint64_t j = 0; j < i; ++j) {
          if (t.s == slot_entity[j]) touching.push_back({t, true});
          if (t.o == slot_entity[j]) touching.push_back({t, false});
        }
      if (touching.empty()) break;
      auto [t, placed_is_subj] = touching[rng.Below(touching.size())];
      slot_entity[i] = placed_is_subj ? t.o : t.s;
      uint32_t placed_slot = 0;
      TermId placed_entity = placed_is_subj ? t.s : t.o;
      // Any slot holding that entity works; pick the first.
      for (uint64_t j = 0; j < i; ++j)
        if (slot_entity[j] == placed_entity) { placed_slot = static_cast<uint32_t>(j); break; }
      c.bgp.push_back({PatternTerm{}, ConstIri(ds, t.p), PatternTerm{}});
      pattern_slots.push_back(placed_is_subj
                                  ? std::make_pair(placed_slot, static_cast<uint32_t>(i))
                                  : std::make_pair(static_cast<uint32_t>(i), placed_slot));
    }
    // Materialize slot pattern terms: mostly vars, sometimes the constant.
    for (uint64_t i = 0; i < n_slots && slot_entity[i] != kInvalidId; ++i) {
      if (i > 0 && rng.Chance(0.15)) {
        slot_pt[i] = ConstIri(ds, slot_entity[i]);
        c.all_slots_are_vars = false;
      } else {
        slot_var[i] = c.vars.GetOrAdd("v" + std::to_string(i));
        slot_pt[i] = PatternTerm::Var("v" + std::to_string(i));
      }
    }
    for (size_t e = 0; e < c.bgp.size(); ++e) {
      c.bgp[e].s = slot_pt[pattern_slots[e].first];
      c.bgp[e].o = slot_pt[pattern_slots[e].second];
    }
    // Occasionally demote a predicate to a variable (keeps all solutions).
    for (size_t e = 0; e < c.bgp.size(); ++e)
      if (rng.Chance(0.1)) {
        std::string pv = "p" + std::to_string(e);
        c.vars.GetOrAdd(pv);
        c.bgp[e].p = PatternTerm::Var(pv);
      }
    // Occasionally constrain a var slot by one of its entity's actual types.
    if (type_term)
      for (uint64_t i = 0; i < n_slots; ++i) {
        if (slot_var[i] < 0 || slot_entity[i] == kInvalidId || !rng.Chance(0.25)) continue;
        std::vector<TermId> types;
        for (const rdf::Triple& t : ds.triples())
          if (t.p == *type_term && t.s == slot_entity[i]) types.push_back(t.o);
        if (types.empty()) continue;
        c.bgp.push_back({slot_pt[i], ConstIri(ds, *type_term),
                         ConstIri(ds, types[rng.Below(types.size())])});
      }
  } else {
    // Fully random connected shape: spanning tree + possible extra edge.
    // Collect the constant pools actually present in the dictionary.
    std::vector<TermId> preds, classes, entities;
    for (const rdf::Triple& t : edges) {
      preds.push_back(t.p);
      entities.push_back(t.s);
      entities.push_back(t.o);
    }
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    std::sort(entities.begin(), entities.end());
    entities.erase(std::unique(entities.begin(), entities.end()), entities.end());
    if (type_term)
      for (const rdf::Triple& t : ds.triples())
        if (t.p == *type_term) classes.push_back(t.o);
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
    if (preds.empty()) {
      // Degenerate dataset with no ordinary edges: single-pattern query.
      slot_var[0] = c.vars.GetOrAdd("v0");
      slot_pt[0] = PatternTerm::Var("v0");
      if (type_term && !classes.empty()) {
        c.bgp.push_back({slot_pt[0], ConstIri(ds, *type_term),
                         ConstIri(ds, classes[rng.Below(classes.size())])});
      }
      return c;
    }
    for (uint64_t i = 0; i < n_slots; ++i) {
      if (i > 0 && !entities.empty() && rng.Chance(0.15)) {
        slot_pt[i] = ConstIri(ds, entities[rng.Below(entities.size())]);
        c.all_slots_are_vars = false;
      } else {
        slot_var[i] = c.vars.GetOrAdd("v" + std::to_string(i));
        slot_pt[i] = PatternTerm::Var("v" + std::to_string(i));
      }
    }
    auto rand_pred = [&]() -> PatternTerm {
      return ConstIri(ds, preds[rng.Below(preds.size())]);
    };
    for (uint64_t i = 1; i < n_slots; ++i) {
      uint64_t anchor = rng.Below(i);
      if (rng.Chance(0.5))
        c.bgp.push_back({slot_pt[anchor], rand_pred(), slot_pt[i]});
      else
        c.bgp.push_back({slot_pt[i], rand_pred(), slot_pt[anchor]});
    }
    if (n_slots >= 3 && rng.Chance(0.5)) {
      uint64_t a = rng.Below(n_slots), b = rng.Below(n_slots);
      if (a != b) c.bgp.push_back({slot_pt[a], rand_pred(), slot_pt[b]});
    }
    for (size_t e = 0; e < c.bgp.size(); ++e)
      if (rng.Chance(0.1)) {
        std::string pv = "p" + std::to_string(e);
        c.vars.GetOrAdd(pv);
        c.bgp[e].p = PatternTerm::Var(pv);
      }
    if (type_term && !classes.empty())
      for (uint64_t i = 0; i < n_slots; ++i)
        if (slot_var[i] >= 0 && rng.Chance(0.25))
          c.bgp.push_back({slot_pt[i], ConstIri(ds, *type_term),
                           ConstIri(ds, classes[rng.Below(classes.size())])});
  }

  for (uint64_t i = 0; i < n_slots; ++i)
    if (slot_var[i] >= 0) c.vertex_var_indices.push_back(slot_var[i]);
  return c;
}

inline std::vector<Row> Evaluate(const sparql::BgpSolver& solver, const RandomCase& c) {
  std::vector<Row> rows;
  Row bound(c.vars.size(), kInvalidId);
  util::Status st = solver.Evaluate(c.bgp, c.vars, bound, {}, [&](const Row& r) {
    rows.push_back(r);
    return sparql::EmitResult::kContinue;
  });
  EXPECT_TRUE(st.ok()) << st.message();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Homomorphism rows whose vertex-variable bindings are pairwise distinct —
/// the isomorphism solution set when query vertices == vertex variables.
inline std::vector<Row> InjectiveOnly(const std::vector<Row>& rows,
                               const std::vector<int>& vertex_vars) {
  std::vector<Row> out;
  for (const Row& r : rows) {
    std::set<TermId> seen;
    bool inj = true;
    for (int i : vertex_vars)
      if (!seen.insert(r[i]).second) { inj = false; break; }
    if (inj) out.push_back(r);
  }
  return out;
}

inline std::string DescribeCase(const RandomCase& c, uint64_t seed) {
  std::string s = "seed=" + std::to_string(seed) + " bgp:";
  auto pt = [](const PatternTerm& p) {
    return p.is_var() ? "?" + p.var : p.term.lexical;
  };
  for (const TriplePattern& t : c.bgp)
    s += " {" + pt(t.s) + " " + pt(t.p) + " " + pt(t.o) + "}";
  return s;
}

/// All 16 combinations of the §4.3 toggles (+INT, NLF, DEG, +REUSE).
inline std::vector<MatchOptions> AllToggleCombos(MatchSemantics sem) {
  std::vector<MatchOptions> out;
  for (int mask = 0; mask < 16; ++mask) {
    MatchOptions o;
    o.semantics = sem;
    o.use_intersection = mask & 1;
    o.use_nlf = mask & 2;
    o.use_degree_filter = mask & 4;
    o.reuse_matching_order = mask & 8;
    out.push_back(o);
  }
  return out;
}

/// Names the §4.3 toggles of `o` for failure messages.
inline std::string DescribeToggles(const MatchOptions& o) {
  return " [INT=" + std::to_string(o.use_intersection) +
         " NLF=" + std::to_string(o.use_nlf) +
         " DEG=" + std::to_string(o.use_degree_filter) +
         " REUSE=" + std::to_string(o.reuse_matching_order) + "]";
}

// ---------------------------------------------------------------------------
// Nightly-scale executor-level fuzz tier.
// ---------------------------------------------------------------------------

/// Iteration count for the large-graph tier: $TURBO_FUZZ_ITERS when set
/// (nightly CI uses hundreds), else `dflt` (kept small so the tier still
/// runs — and catches gross breakage — in every plain ctest invocation).
inline uint64_t FuzzItersFromEnv(uint64_t dflt) {
  const char* env = std::getenv("TURBO_FUZZ_ITERS");
  if (!env || !*env) return dflt;
  uint64_t v = std::strtoull(env, nullptr, 10);
  return v > 0 ? v : dflt;
}

inline std::string ValPredIri() { return "http://x/val"; }

/// Large random dataset for the nightly tier: 100-500 entities, a subclass
/// chain, random types and edges, plus integer-literal attribute triples
/// (predicate ValPredIri) so FILTER comparisons have something numeric.
inline rdf::Dataset MakeLargeRandomDataset(util::Rng& rng) {
  rdf::Dataset ds;
  const uint64_t n_entities = 100 + rng.Below(401);  // 100..500
  const uint64_t n_preds = 3 + rng.Below(4);         // 3..6
  const uint64_t n_classes = 3 + rng.Below(4);       // 3..6
  for (uint64_t c = 1; c < n_classes; ++c)
    if (rng.Chance(0.5))
      ds.AddIri(ClassIri(c), std::string(rdf::vocab::kRdfsSubClassOf), ClassIri(c - 1));
  for (uint64_t v = 0; v < n_entities; ++v) {
    const uint64_t n_types = rng.Below(3);
    for (uint64_t t = 0; t < n_types; ++t)
      ds.AddIri(EntityIri(v), std::string(rdf::vocab::kRdfType),
                ClassIri(rng.Below(n_classes)));
    if (rng.Chance(0.4))
      ds.Add(rdf::Term::Iri(EntityIri(v)), rdf::Term::Iri(ValPredIri()),
             rdf::Term::TypedLiteral(std::to_string(rng.Below(100)),
                                     "http://www.w3.org/2001/XMLSchema#integer"));
  }
  const uint64_t n_edges = 2 * n_entities + rng.Below(2 * n_entities);
  for (uint64_t e = 0; e < n_edges; ++e)
    ds.AddIri(EntityIri(rng.Below(n_entities)), PredIri(rng.Below(n_preds)),
              EntityIri(rng.Below(n_entities)));
  if (rng.Chance(0.5)) rdf::MaterializeInference(&ds);
  return ds;
}

struct ExecutorFuzzCase {
  rdf::Dataset ds;
  sparql::SelectQuery query;
  std::string description;
};

/// Random SELECT query over a large dataset: a data-sampled connected base
/// BGP (2-3 vertex variables) decorated with OPTIONAL groups, numeric /
/// equality FILTERs, a UNION block, and occasionally DISTINCT. All
/// decorations are randomized independently so the executor paths compose.
inline ExecutorFuzzCase MakeExecutorFuzzCase(uint64_t seed) {
  util::Rng rng(seed);
  ExecutorFuzzCase c;
  c.ds = MakeLargeRandomDataset(rng);
  const rdf::Dataset& ds = c.ds;
  sparql::GroupPattern& where = c.query.where;

  std::vector<rdf::Triple> edges;  // entity->entity edges only (walkable)
  std::vector<TermId> preds;
  {
    auto val_p = ds.dict().FindIri(ValPredIri());
    for (const rdf::Triple& t : EdgeTriples(ds)) {
      if (val_p && t.p == *val_p) continue;
      edges.push_back(t);
      preds.push_back(t.p);
    }
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  }
  if (edges.empty()) return c;  // degenerate; caller skips empty queries

  auto var = [](const std::string& n) { return sparql::PatternTerm::Var(n); };
  auto slot = [&](uint64_t i) {
    std::string name = "v";
    name += std::to_string(i);
    return var(name);
  };

  // Base BGP: random walk over data triples, so a witness is guaranteed.
  const uint64_t n_slots = 2 + rng.Below(2);  // 2..3
  std::vector<TermId> slot_entity(n_slots, kInvalidId);
  rdf::Triple t0 = edges[rng.Below(edges.size())];
  slot_entity[0] = t0.s;
  slot_entity[1] = t0.o;
  where.triples.push_back({slot(0), ConstIri(ds, t0.p), slot(1)});
  uint64_t placed = 2;
  for (; placed < n_slots; ++placed) {
    std::vector<std::pair<rdf::Triple, bool>> touching;
    for (const rdf::Triple& t : edges)
      for (uint64_t j = 0; j < placed; ++j) {
        if (t.s == slot_entity[j]) touching.push_back({t, true});
        if (t.o == slot_entity[j]) touching.push_back({t, false});
      }
    if (touching.empty()) break;
    auto [t, placed_is_subj] = touching[rng.Below(touching.size())];
    slot_entity[placed] = placed_is_subj ? t.o : t.s;
    TermId anchor_entity = placed_is_subj ? t.s : t.o;
    uint64_t anchor = 0;
    for (uint64_t j = 0; j < placed; ++j)
      if (slot_entity[j] == anchor_entity) { anchor = j; break; }
    if (placed_is_subj)
      where.triples.push_back({slot(anchor), ConstIri(ds, t.p), slot(placed)});
    else
      where.triples.push_back({slot(placed), ConstIri(ds, t.p), slot(anchor)});
  }

  auto rand_slot = [&] { return rng.Below(placed); };
  auto rand_pred = [&] { return ConstIri(ds, preds[rng.Below(preds.size())]); };

  // Type constraint on one slot (folds into labels under type-aware).
  if (auto type_p = ds.dict().FindIri(std::string(rdf::vocab::kRdfType));
      type_p && rng.Chance(0.4)) {
    uint64_t i = rand_slot();
    std::vector<TermId> types;
    for (const rdf::Triple& t : ds.triples())
      if (t.p == *type_p && t.s == slot_entity[i]) types.push_back(t.o);
    if (!types.empty())
      where.triples.push_back({slot(i), ConstIri(ds, *type_p),
                               ConstIri(ds, types[rng.Below(types.size())])});
  }

  // Numeric FILTER over the val attribute of one slot.
  if (auto val_p = ds.dict().FindIri(ValPredIri()); val_p && rng.Chance(0.5)) {
    where.triples.push_back({slot(rand_slot()), ConstIri(ds, *val_p), var("x")});
    auto cmp = rng.Chance(0.5) ? sparql::FilterExpr::Op::kGe : sparql::FilterExpr::Op::kLt;
    where.filters.push_back(sparql::FilterExpr::MakeBinary(
        cmp, sparql::FilterExpr::MakeVar("x"),
        sparql::FilterExpr::MakeLiteral(rdf::Term::TypedLiteral(
            std::to_string(rng.Below(100)), "http://www.w3.org/2001/XMLSchema#integer"))));
  }

  // Equality FILTER pinning one slot to its witness entity.
  if (rng.Chance(0.25)) {
    uint64_t i = rand_slot();
    where.filters.push_back(sparql::FilterExpr::MakeBinary(
        sparql::FilterExpr::Op::kEq, sparql::FilterExpr::MakeVar("v" + std::to_string(i)),
        sparql::FilterExpr::MakeLiteral(ds.dict().term(slot_entity[i]))));
  }

  // OPTIONAL: one or two patterns hanging off a base slot; the predicate is
  // random, so unmatched optionals (unbound columns) occur regularly.
  if (rng.Chance(0.6)) {
    sparql::GroupPattern opt;
    uint64_t i = rand_slot();
    opt.triples.push_back({slot(i), rand_pred(), var("o0")});
    if (rng.Chance(0.3)) opt.triples.push_back({var("o0"), rand_pred(), var("o1")});
    where.optionals.push_back(std::move(opt));
  }

  // UNION: two single-pattern branches over the same fresh variable.
  if (rng.Chance(0.4)) {
    uint64_t i = rand_slot();
    sparql::GroupPattern b1, b2;
    b1.triples.push_back({slot(i), rand_pred(), var("u")});
    b2.triples.push_back({var("u"), rand_pred(), slot(i)});
    where.unions.push_back({std::move(b1), std::move(b2)});
  }

  c.query.distinct = rng.Chance(0.3);

  c.description = "seed=" + std::to_string(seed) +
                  " entities~" + std::to_string(ds.dict().size()) +
                  " triples=" + std::to_string(ds.size()) +
                  " base=" + std::to_string(where.triples.size()) +
                  " opt=" + std::to_string(where.optionals.size()) +
                  " filters=" + std::to_string(where.filters.size()) +
                  " unions=" + std::to_string(where.unions.size()) +
                  (c.query.distinct ? " distinct" : "");
  return c;
}

/// Runs `q` through the executor on `solver` and returns the sorted rows.
inline std::vector<Row> RunExecutor(const sparql::BgpSolver& solver,
                                    const sparql::SelectQuery& q) {
  sparql::Executor ex(&solver);
  auto r = ex.Execute(q);
  EXPECT_TRUE(r.ok()) << r.message();
  if (!r.ok()) return {};
  std::vector<Row> rows = std::move(r.value().rows);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Drains the streaming-cursor delivery path (producer thread + bounded
/// channel) over the same query and returns the sorted row bag — the
/// differential twin of RunExecutor for streaming mode. Tight capacities
/// (1, 2) keep the producer blocked on backpressure for most of the run,
/// which is exactly the window where delivery bugs hide.
inline std::vector<Row> RunStreamingCursor(const sparql::BgpSolver& solver,
                                           const sparql::SelectQuery& q,
                                           uint32_t channel_capacity) {
  auto prepared = sparql::PrepareSelect(q);
  EXPECT_TRUE(prepared.ok()) << prepared.message();
  if (!prepared.ok()) return {};
  sparql::ExecOptions opts;
  opts.streaming = true;
  opts.channel_capacity = channel_capacity;
  sparql::Cursor cursor = sparql::OpenCursor(solver, prepared.value(), opts);
  std::vector<Row> rows;
  Row row;
  while (cursor.Next(&row)) rows.push_back(row);
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().message();
  EXPECT_LE(cursor.peak_channel_rows(), std::max(channel_capacity, 1u));
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------------
// Aggregation fuzz tier: random GROUP BY / aggregate queries differentially
// checked against a brute-force reference evaluator.
// ---------------------------------------------------------------------------

/// One rendered output row: each cell is the term's N-Triples form, or
/// "UNBOUND". String-level comparison sidesteps TermId spaces (aggregate
/// results live in a per-execution LocalVocab whose ids depend on
/// evaluation order).
using RenderedRow = std::vector<std::string>;

struct AggregateFuzzCase {
  rdf::Dataset ds;
  sparql::SelectQuery query;  ///< the aggregated query under test
  sparql::SelectQuery flat;   ///< same WHERE, SELECT * — the reference input
  std::string description;
};

/// Random aggregated SELECT over a MakeExecutorFuzzCase base: the WHERE
/// clause (with its OPTIONAL / FILTER / UNION decorations) gains a numeric
/// attribute pattern, then GROUP BY over 0-2 base slots, 1-3 aggregates
/// (COUNT(*) / COUNT / SUM / MIN / MAX / AVG, DISTINCT-inside sometimes,
/// over numeric and non-numeric arguments), and sometimes a HAVING
/// constraint — everything the reference evaluator can brute-force.
inline AggregateFuzzCase MakeAggregateFuzzCase(uint64_t seed) {
  ExecutorFuzzCase base = MakeExecutorFuzzCase(seed);
  util::Rng rng(seed ^ 0xA66A66A66ull);
  AggregateFuzzCase c;
  c.ds = std::move(base.ds);
  c.query.where = std::move(base.query.where);
  sparql::GroupPattern& where = c.query.where;
  if (where.triples.empty()) return c;  // degenerate; caller skips

  auto var = [](const std::string& n) { return sparql::PatternTerm::Var(n); };

  // A numeric attribute for SUM/AVG arguments: required or OPTIONAL (the
  // latter mixes unbound values into the aggregation).
  if (auto val_p = c.ds.dict().FindIri(ValPredIri())) {
    std::string slot = "v" + std::to_string(rng.Below(2));
    if (rng.Chance(0.5)) {
      where.triples.push_back({var(slot), ConstIri(c.ds, *val_p), var("w")});
    } else {
      sparql::GroupPattern opt;
      opt.triples.push_back({var(slot), ConstIri(c.ds, *val_p), var("w")});
      where.optionals.push_back(std::move(opt));
    }
  }

  // Candidate argument variables: the numeric attribute, the base slots
  // (IRIs: exercises non-numeric SUM -> unbound), and the sometimes-unbound
  // OPTIONAL variable.
  std::vector<std::string> args{"w", "v0", "v1"};
  if (!where.optionals.empty()) args.push_back("o0");

  // GROUP BY 0 (implicit single group), 1, or 2 slots.
  uint64_t n_keys = rng.Below(3);
  for (uint64_t i = 0; i < n_keys; ++i) c.query.group_by.push_back("v" + std::to_string(i));
  for (const std::string& g : c.query.group_by)
    c.query.select.push_back(sparql::SelectItem::Var(g));

  const uint64_t n_aggs = 1 + rng.Below(3);
  for (uint64_t i = 0; i < n_aggs; ++i) {
    sparql::Aggregate a;
    a.func = static_cast<sparql::Aggregate::Func>(rng.Below(5));
    a.distinct = rng.Chance(0.3);
    if (a.func == sparql::Aggregate::Func::kCount && rng.Chance(0.4)) {
      a.star = true;
    } else {
      a.var = args[rng.Below(args.size())];
    }
    c.query.select.push_back(sparql::SelectItem::Agg(a, "a" + std::to_string(i)));
  }

  if (rng.Chance(0.4)) {
    // HAVING COUNT(*) >= k — kept to a shape the reference can brute-force
    // without a generic expression evaluator.
    sparql::Aggregate count_star;
    count_star.star = true;
    c.query.having.push_back(sparql::FilterExpr::MakeBinary(
        sparql::FilterExpr::Op::kGe, sparql::FilterExpr::MakeAggregate(count_star),
        sparql::FilterExpr::MakeLiteral(rdf::Term::TypedLiteral(
            std::to_string(1 + rng.Below(3)), "http://www.w3.org/2001/XMLSchema#integer"))));
  }
  c.query.distinct = rng.Chance(0.2);

  c.flat.where = c.query.where;  // SELECT * over the same WHERE clause

  c.description = base.description + " group_by=" + std::to_string(n_keys) +
                  " aggs=" + std::to_string(n_aggs) +
                  (c.query.having.empty() ? "" : " having") +
                  (c.query.distinct ? " distinct" : "");
  for (const sparql::SelectItem& s : c.query.select)
    if (s.is_agg) c.description += " " + s.agg.ToString();
  return c;
}

/// Brute-force reference: aggregates the flat WHERE rows (any trusted
/// executor run of `c.flat`) per the documented value semantics —
/// independent loops and maps, sharing only the numeric coercion /
/// rendering helpers so lexical forms compare equal.
inline std::vector<RenderedRow> ReferenceAggregate(const AggregateFuzzCase& c,
                                                   const sparql::ResultSet& flat) {
  using sparql::Aggregate;
  using sparql::Numeric;
  const rdf::Dictionary& dict = c.ds.dict();
  auto col = [&](const std::string& name) -> int {
    for (size_t i = 0; i < flat.var_names.size(); ++i)
      if (flat.var_names[i] == name) return static_cast<int>(i);
    return -1;
  };
  auto render = [&](TermId id) {
    return id == kInvalidId ? std::string("UNBOUND") : dict.term(id).ToNTriples();
  };

  // Partition rows into groups (key = rendered group-by cells), preserving
  // nothing about order — the comparison is sorted-multiset anyway.
  std::vector<int> key_cols;
  for (const std::string& g : c.query.group_by) key_cols.push_back(col(g));
  std::map<std::vector<TermId>, std::vector<const Row*>> groups;
  for (const Row& r : flat.rows) {
    std::vector<TermId> key;
    for (int kc : key_cols) key.push_back(kc >= 0 ? r[kc] : kInvalidId);
    groups[key].push_back(&r);
  }
  if (groups.empty() && c.query.group_by.empty()) groups[{}] = {};  // implicit group

  // Term ordering for MIN/MAX, mirroring sparql::CompareTerms: numeric
  // terms (NaN demoted) rank below non-numeric terms, numerically among
  // themselves (lexical tiebreak); non-numeric terms compare lexically.
  auto term_less = [&](TermId a, TermId b) {
    auto na = dict.term(a).NumericValue(), nb = dict.term(b).NumericValue();
    double va = 0, vb = 0;
    bool ha = na && !std::isnan(*na), hb = nb && !std::isnan(*nb);
    if (ha) va = *na;
    if (hb) vb = *nb;
    if (ha != hb) return ha;
    if (ha && hb && va != vb) return va < vb;
    return dict.term(a).lexical < dict.term(b).lexical;
  };

  std::vector<RenderedRow> out;
  for (const auto& [key, rows] : groups) {
    // HAVING: generated constraints are COUNT(*) >= k only.
    bool keep = true;
    for (const sparql::FilterExpr& h : c.query.having) {
      int64_t threshold = std::strtoll(h.children[1].literal.lexical.c_str(), nullptr, 10);
      if (static_cast<int64_t>(rows.size()) < threshold) keep = false;
    }
    if (!keep) continue;

    RenderedRow rendered;
    for (const sparql::SelectItem& s : c.query.select) {
      if (!s.is_agg) {
        int kc = col(s.name);
        rendered.push_back(render(kc >= 0 && !rows.empty() ? (*rows[0])[kc] : kInvalidId));
        // Rows in one group share the key cells by construction; use the
        // key directly when the group is empty (implicit group).
        if (rows.empty()) rendered.back() = "UNBOUND";
        continue;
      }
      const Aggregate& a = s.agg;
      int ac = a.star ? -1 : col(a.var);
      // Collect the contributing values (bound cells), DISTINCT-deduped.
      std::vector<TermId> values;
      std::set<TermId> seen;
      std::set<Row> seen_rows;
      uint64_t star_count = 0;
      for (const Row* r : rows) {
        if (a.star) {
          if (!a.distinct || seen_rows.insert(*r).second) ++star_count;
          continue;
        }
        TermId v = ac >= 0 ? (*r)[ac] : kInvalidId;
        if (v == kInvalidId) continue;
        if (a.distinct && !seen.insert(v).second) continue;
        values.push_back(v);
      }
      switch (a.func) {
        case Aggregate::Func::kCount: {
          uint64_t n = a.star ? star_count : values.size();
          rendered.push_back(
              sparql::NumericToTerm(Numeric::Int(static_cast<int64_t>(n))).ToNTriples());
          break;
        }
        case Aggregate::Func::kSum:
        case Aggregate::Func::kAvg: {
          Numeric sum = Numeric::Int(0);
          bool error = false;
          uint64_t n = 0;
          for (TermId v : values) {
            auto num = sparql::NumericOfTerm(dict.term(v));
            if (!num) {
              error = true;
              break;
            }
            sum = sparql::NumericAdd(sum, *num);
            ++n;
          }
          if (error) {
            rendered.push_back("UNBOUND");
          } else if (a.func == Aggregate::Func::kSum) {
            rendered.push_back(sparql::NumericToTerm(sum).ToNTriples());
          } else {
            rendered.push_back(sparql::NumericToTerm(
                                   n == 0 ? Numeric::Int(0) : sparql::NumericMean(sum, n))
                                   .ToNTriples());
          }
          break;
        }
        case Aggregate::Func::kMin:
        case Aggregate::Func::kMax: {
          if (values.empty()) {
            rendered.push_back("UNBOUND");
            break;
          }
          TermId best = values[0];
          for (TermId v : values) {
            bool better = a.func == Aggregate::Func::kMin ? term_less(v, best)
                                                          : term_less(best, v);
            if (better) best = v;
          }
          rendered.push_back(render(best));
          break;
        }
      }
    }
    out.push_back(std::move(rendered));
  }
  if (c.query.distinct) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs the aggregated query on `solver` and renders the rows for
/// comparison with ReferenceAggregate (sorted multiset).
inline std::vector<RenderedRow> RunAggregated(const sparql::BgpSolver& solver,
                                              const sparql::SelectQuery& q) {
  sparql::Executor ex(&solver);
  auto r = ex.Execute(q);
  EXPECT_TRUE(r.ok()) << r.message();
  if (!r.ok()) return {};
  const sparql::ResultSet& rs = r.value();
  std::vector<RenderedRow> out;
  for (const Row& row : rs.rows) {
    RenderedRow rendered;
    for (TermId id : row) {
      const rdf::Term* t =
          sparql::ResolveTerm(solver.dict(), rs.local_vocab.get(), id);
      rendered.push_back(t ? t->ToNTriples() : "UNBOUND");
    }
    out.push_back(std::move(rendered));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Streaming twin of RunAggregated: drains a streaming cursor and resolves
/// aggregate values through the cursor's shared LocalVocab while the
/// producer thread may still be interning into it.
inline std::vector<RenderedRow> RunAggregatedStreaming(
    const sparql::BgpSolver& solver, const sparql::SelectQuery& q,
    uint32_t channel_capacity) {
  auto prepared = sparql::PrepareSelect(q);
  EXPECT_TRUE(prepared.ok()) << prepared.message();
  if (!prepared.ok()) return {};
  sparql::ExecOptions opts;
  opts.streaming = true;
  opts.channel_capacity = channel_capacity;
  sparql::Cursor cursor = sparql::OpenCursor(solver, prepared.value(), opts);
  std::vector<RenderedRow> out;
  Row row;
  while (cursor.Next(&row)) {
    RenderedRow rendered;
    for (TermId id : row) {
      const rdf::Term* t =
          sparql::ResolveTerm(solver.dict(), cursor.local_vocab().get(), id);
      rendered.push_back(t ? t->ToNTriples() : "UNBOUND");
    }
    out.push_back(std::move(rendered));
  }
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().message();
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace turbo::testing::crosscheck
