#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <unordered_map>

#include "engine/query_tree.hpp"
#include "util/sorted.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace turbo::engine {

namespace {

using graph::DataGraph;
using graph::Direction;
using graph::QueryEdge;
using graph::QueryGraph;
using graph::QueryVertex;

/// Rows a parallel streaming worker buffers before one FlushPending hands
/// them to the callback. Sequential runs deliver every row directly, so
/// their result order is unaffected.
constexpr size_t kStreamBatch = 32;

// ---------------------------------------------------------------------------
// Compiled query: start vertex, query tree, filter requirements.
// ---------------------------------------------------------------------------

/// One NLF requirement: a candidate must have, in direction `dir`, at least
/// `count` neighbours over edge label `el` (kInvalidId = any) carrying vertex
/// label `vl` (kInvalidId = any). Counts are 1 under homomorphism semantics
/// (§2.2: "at least one neighbor for all distinct labels").
struct Requirement {
  Direction dir;
  EdgeLabelId el;
  LabelId vl;
  uint32_t count;
};

struct Compiled {
  const QueryGraph* q = nullptr;
  uint32_t start_qv = 0;
  std::vector<VertexId> start_list;
  bool single_vertex = false;
  QueryTree tree;
  // Filter metadata indexed by query vertex; built only when the NLF or
  // degree filter is enabled (they default to off: -NLF / -DEG).
  std::vector<std::vector<Requirement>> reqs;
  std::vector<uint32_t> deg_req_out;
  std::vector<uint32_t> deg_req_in;
  /// Per-query-vertex neighborhood-signature requirement: the bits every
  /// admissible candidate's DataGraph::signature must contain. Always built
  /// (one OR-mask per vertex); 0 = no labeled incident edges, filter off.
  std::vector<uint64_t> req_sig;
};

bool HasAllLabels(const DataGraph& g, VertexId v, const std::vector<LabelId>& labels,
                  bool simple) {
  for (LabelId l : labels)
    if (!g.HasLabel(v, l, simple)) return false;
  return true;
}

/// Restores the arena's union-buffer stack on scope exit, so every return
/// path of SubgraphSearch (and of CollectCandidates, which borrows decode
/// scratch from the same pool) releases the buffers it acquired.
struct UnionBufScope {
  explicit UnionBufScope(RegionArena& a) : ar(a), base(a.union_buf_top()) {}
  ~UnionBufScope() { ar.RestoreUnionBufs(base); }
  RegionArena& ar;
  size_t base;
};

// ---------------------------------------------------------------------------
// Context: shared immutable matching helpers (candidate collection, filters,
// ChooseStartQueryVertex).
// ---------------------------------------------------------------------------

class Context {
 public:
  Context(const DataGraph& g, const MatchOptions& opt) : g_(g), opt_(opt) {}

  const DataGraph& g() const { return g_; }
  const MatchOptions& opt() const { return opt_; }

  /// Constraint + degree + NLF admission test (ExploreCandidateRegion
  /// filters; hom variants per §2.2, iso variants classic TurboISO). The
  /// neighborhood signature runs first: one 64-bit AND against precomputed
  /// required bits rejects most mismatches before any adjacency is touched.
  bool PassFilters(const Compiled& c, uint32_t qv, VertexId v,
                   MatchStats* stats = nullptr) const {
    if (uint64_t req = c.req_sig[qv]) {
      if (stats) ++stats->sig_checks;
      if ((g_.signature(v) & req) != req) {
        if (stats) ++stats->sig_prunes;
        return false;
      }
    }
    const QueryVertex& u = c.q->vertex(qv);
    if (u.constraint && !u.constraint(g_, v)) return false;
    if (opt_.use_degree_filter) {
      if (g_.Degree(v, Direction::kOut) < c.deg_req_out[qv]) return false;
      if (g_.Degree(v, Direction::kIn) < c.deg_req_in[qv]) return false;
    }
    if (opt_.use_nlf) {
      for (const Requirement& r : c.reqs[qv])
        if (!PassRequirement(r, v)) return false;
    }
    return true;
  }

  /// Collects candidates for query vertex `qv` adjacent to data vertex `pv`
  /// over an edge labeled `el` (kInvalidId = blank) in direction `dir` (from
  /// pv's point of view). Output is sorted, duplicate-free, and honours the
  /// label set, fixed-ID attribute, constraint, and enabled filters.
  /// `ar` supplies decode scratch for the compressed storage mode (the
  /// uncompressed accessors return zero-copy spans and leave it untouched);
  /// every buffer acquired here is released before returning.
  void CollectCandidates(const Compiled& c, uint32_t qv, VertexId pv, Direction dir,
                         EdgeLabelId el, RegionArena& ar, std::vector<VertexId>* out,
                         MatchStats* stats) const {
    const QueryVertex& u = c.q->vertex(qv);
    out->clear();
    const bool simple = opt_.simple_entailment;
    UnionBufScope decode_scope(ar);
    if (el != kInvalidId) {
      if (u.labels.empty()) {
        auto nbrs = g_.Neighbors(pv, dir, el, ar.PushUnionBuf());
        out->assign(nbrs.begin(), nbrs.end());
      } else if (simple) {
        for (VertexId w : g_.Neighbors(pv, dir, el, ar.PushUnionBuf()))
          if (HasAllLabels(g_, w, u.labels, true)) out->push_back(w);
      } else if (u.labels.size() == 1) {
        auto nbrs = g_.Neighbors(pv, dir, el, u.labels[0], ar.PushUnionBuf());
        out->assign(nbrs.begin(), nbrs.end());
      } else {
        std::vector<std::span<const VertexId>> lists;
        lists.reserve(u.labels.size());
        for (LabelId l : u.labels)
          lists.push_back(g_.Neighbors(pv, dir, el, l, ar.PushUnionBuf()));
        util::IntersectKWay(std::move(lists), out);
      }
    } else {
      // Blank edge label: union across all predicates (§4.2 — "collecting
      // all adjacent vertices which match available information and
      // unioning them").
      if (u.labels.empty() || simple) {
        auto nbrs = g_.UnionNeighbors(pv, dir, ar.PushUnionBuf());
        out->assign(nbrs.begin(), nbrs.end());
        if (!u.labels.empty()) {
          out->erase(std::remove_if(
                         out->begin(), out->end(),
                         [&](VertexId w) { return !HasAllLabels(g_, w, u.labels, true); }),
                     out->end());
        }
      } else {
        std::vector<VertexId>& acc = ar.PushUnionBuf();
        std::vector<VertexId>& per_label = ar.PushUnionBuf();
        for (size_t i = 0; i < u.labels.size(); ++i) {
          auto span = g_.NeighborsWithLabel(pv, dir, u.labels[i], per_label);
          if (i == 0) {
            acc.assign(span.begin(), span.end());
          } else {
            util::IntersectInto(acc, span, out);
            acc.swap(*out);
          }
          if (acc.empty()) break;
        }
        out->assign(acc.begin(), acc.end());
      }
    }
    // ID attribute check of the two-attribute vertex model (§4.1).
    if (u.has_fixed_id()) {
      bool present = std::binary_search(out->begin(), out->end(), u.fixed_id);
      out->clear();
      if (present) out->push_back(u.fixed_id);
    }
    if (u.constraint || opt_.use_nlf || opt_.use_degree_filter || c.req_sig[qv] != 0) {
      out->erase(std::remove_if(out->begin(), out->end(),
                                [&](VertexId w) { return !PassFilters(c, qv, w, stats); }),
                 out->end());
    }
  }

  /// ChooseStartQueryVertex (§2.2): fixed-ID vertices give one candidate
  /// region and win outright; otherwise rank = freq(g, L(u)) / deg(u) and
  /// the top-k are refined with the degree/NLF filters.
  void Compile(const QueryGraph& q, Compiled* c, MatchStats* stats = nullptr) const {
    c->q = &q;
    // Algorithm 1, line 1: the point-shaped fast path requires E = empty
    // (a single vertex with a self loop still needs SubgraphSearch).
    c->single_vertex = q.num_vertices() == 1 && q.num_edges() == 0;
    BuildSignatureRequirements(q, c);
    if (opt_.use_nlf || opt_.use_degree_filter) BuildRequirements(q, c);

    // Fixed-ID vertices give exactly one candidate region; among several,
    // prefer the one whose data vertex has the least fan-out so the region
    // exploration starting there stays small (this is what keeps the
    // ID-anchored LUBM queries fast under the direct transformation, where
    // type objects are high-degree fixed vertices).
    uint32_t best = kInvalidId;
    uint64_t best_fanout = 0;
    bool best_hub = true;
    for (uint32_t u = 0; u < q.num_vertices(); ++u) {
      if (!q.vertex(u).has_fixed_id()) continue;
      VertexId v = q.vertex(u).fixed_id;
      bool hub = q.vertex(u).hub_hint;
      uint64_t fanout = v < g_.num_vertices()
                            ? static_cast<uint64_t>(g_.Degree(v, Direction::kOut)) +
                                  g_.Degree(v, Direction::kIn)
                            : 0;
      if (best == kInvalidId || (!hub && best_hub) ||
          (hub == best_hub && fanout < best_fanout)) {
        best = u;
        best_fanout = fanout;
        best_hub = hub;
      }
    }
    if (best == kInvalidId) {
      std::vector<std::pair<double, uint32_t>> ranked;
      ranked.reserve(q.num_vertices());
      for (uint32_t u = 0; u < q.num_vertices(); ++u) {
        double freq = FreqEstimate(q, u);
        ranked.push_back({freq / std::max<uint32_t>(1, q.degree(u)), u});
      }
      std::sort(ranked.begin(), ranked.end());
      size_t k = std::min<size_t>(3, ranked.size());
      const bool refine = opt_.use_nlf || opt_.use_degree_filter;
      double best_est = -1;
      for (size_t i = 0; i < k; ++i) {
        uint32_t u = ranked[i].second;
        double est = refine ? RefinedEstimate(q, *c, u) : ranked[i].first;
        if (best == kInvalidId || est < best_est) {
          best = u;
          best_est = est;
        }
      }
    }
    c->start_qv = best;
    MaterializeStartList(q, *c, best, &c->start_list, stats);
    if (!c->single_vertex) c->tree = QueryTree::Build(q, best);
  }

 private:
  /// Precomputes each query vertex's required signature bits: every labeled
  /// incident edge contributes its (dir, el) bit plus one (dir, el, vl) bit
  /// per label of the other endpoint. Any data vertex that can embed the
  /// neighborhood has a superset of these bits (signatures are built from
  /// the label-closure group metadata, a superset of the simple-entailment
  /// labels), so the AND-test in PassFilters is false-positive-only.
  /// Blank-labeled query edges contribute nothing — a union over all
  /// predicates admits any vertex with any edge in that direction.
  void BuildSignatureRequirements(const QueryGraph& q, Compiled* c) const {
    c->req_sig.assign(q.num_vertices(), 0);
    for (uint32_t u = 0; u < q.num_vertices(); ++u) {
      uint64_t sig = 0;
      for (const auto& inc : q.incident(u)) {
        const QueryEdge& e = q.edge(inc.edge);
        if (!e.has_label()) continue;
        sig |= DataGraph::SignatureBit(inc.dir, e.label, kInvalidId);
        uint32_t other = inc.dir == Direction::kOut ? e.to : e.from;
        for (LabelId l : q.vertex(other).labels)
          sig |= DataGraph::SignatureBit(inc.dir, e.label, l);
      }
      c->req_sig[u] = sig;
    }
  }
  bool PassRequirement(const Requirement& r, VertexId v) const {
    // Counts only — no neighbor list is materialized, so this path never
    // decodes compressed adjacency.
    if (r.el != kInvalidId && r.vl != kInvalidId)
      return g_.NeighborCount(v, r.dir, r.el, r.vl) >= r.count;
    if (r.el != kInvalidId) return g_.NeighborCount(v, r.dir, r.el) >= r.count;
    if (r.vl != kInvalidId) return g_.NeighborCountWithLabel(v, r.dir, r.vl) >= r.count;
    return g_.Degree(v, r.dir) >= r.count;
  }

  void BuildRequirements(const QueryGraph& q, Compiled* c) const {
    c->reqs.assign(q.num_vertices(), {});
    c->deg_req_out.assign(q.num_vertices(), 0);
    c->deg_req_in.assign(q.num_vertices(), 0);
    const bool iso = opt_.semantics == MatchSemantics::kIsomorphism;
    for (uint32_t u = 0; u < q.num_vertices(); ++u) {
      std::map<std::tuple<int, EdgeLabelId, LabelId>, uint32_t> agg;
      uint32_t inc_out = 0, inc_in = 0;
      for (const auto& inc : q.incident(u)) {
        const QueryEdge& e = q.edge(inc.edge);
        uint32_t other = inc.dir == Direction::kOut ? e.to : e.from;
        (inc.dir == Direction::kOut ? inc_out : inc_in)++;
        const auto& olabels = q.vertex(other).labels;
        if (olabels.empty()) {
          ++agg[{static_cast<int>(inc.dir), e.label, kInvalidId}];
        } else {
          for (LabelId l : olabels) ++agg[{static_cast<int>(inc.dir), e.label, l}];
        }
      }
      for (const auto& [key, cnt] : agg) {
        auto [d, el, vl] = key;
        c->reqs[u].push_back(
            {static_cast<Direction>(d), el, vl, iso ? cnt : 1u});
      }
      if (iso) {
        c->deg_req_out[u] = inc_out;
        c->deg_req_in[u] = inc_in;
      } else {
        // Hom degree filter. The paper phrases it as "at least as many
        // neighbours as distinct labels of the corresponding query
        // vertices"; under homomorphism several same-predicate query edges
        // can map onto one data edge, so the sound count is the number of
        // distinct incident *predicates* (plus one if only variable
        // predicates are present).
        std::set<EdgeLabelId> els_out, els_in;
        bool blank_out = false, blank_in = false;
        for (const auto& inc : q.incident(u)) {
          const QueryEdge& e = q.edge(inc.edge);
          bool out = inc.dir == Direction::kOut;
          if (e.has_label())
            (out ? els_out : els_in).insert(e.label);
          else
            (out ? blank_out : blank_in) = true;
        }
        c->deg_req_out[u] = std::max<uint32_t>(els_out.size(), blank_out ? 1 : 0);
        c->deg_req_in[u] = std::max<uint32_t>(els_in.size(), blank_in ? 1 : 0);
      }
    }
  }

  double FreqEstimate(const QueryGraph& q, uint32_t u) const {
    const QueryVertex& v = q.vertex(u);
    if (v.has_fixed_id()) return 1;
    if (!v.labels.empty()) {
      size_t freq = SIZE_MAX;
      for (LabelId l : v.labels) freq = std::min(freq, g_.VerticesWithLabel(l).size());
      return static_cast<double>(freq);
    }
    // No label / no ID: consult the predicate index (§4.2).
    size_t freq = g_.num_vertices();
    for (const auto& inc : q.incident(u)) {
      const QueryEdge& e = q.edge(inc.edge);
      if (!e.has_label()) continue;
      size_t card = inc.dir == Direction::kOut ? g_.SubjectsOf(e.label).size()
                                               : g_.ObjectsOf(e.label).size();
      freq = std::min(freq, card);
    }
    return static_cast<double>(freq);
  }

  /// Counts (an estimate of) candidate regions for `u` by scanning a prefix
  /// of its base list through the filters and scaling up.
  double RefinedEstimate(const QueryGraph& q, const Compiled& c, uint32_t u) const {
    std::vector<VertexId> base;
    MaterializeBaseList(q, u, &base);
    if (base.empty()) return 0;
    size_t scan = std::min<size_t>(base.size(), 1024);
    size_t pass = 0;
    for (size_t i = 0; i < scan; ++i)
      if (PassFilters(c, u, base[i])) ++pass;
    return static_cast<double>(pass) * base.size() / scan;
  }

  /// Data vertices satisfying labels / ID of `u` (filters not yet applied).
  void MaterializeBaseList(const QueryGraph& q, uint32_t u, std::vector<VertexId>* out) const {
    const QueryVertex& v = q.vertex(u);
    out->clear();
    if (v.has_fixed_id()) {
      if (v.fixed_id < g_.num_vertices() &&
          HasAllLabels(g_, v.fixed_id, v.labels, opt_.simple_entailment))
        out->push_back(v.fixed_id);
      return;
    }
    if (!v.labels.empty()) {
      if (opt_.simple_entailment) {
        // The inverse list indexes the closure; narrow down to L_simple.
        LabelId seed = v.labels[0];
        for (LabelId l : v.labels)
          if (g_.VerticesWithLabel(l).size() < g_.VerticesWithLabel(seed).size()) seed = l;
        for (VertexId w : g_.VerticesWithLabel(seed))
          if (HasAllLabels(g_, w, v.labels, true)) out->push_back(w);
      } else if (v.labels.size() == 1) {
        auto span = g_.VerticesWithLabel(v.labels[0]);
        out->assign(span.begin(), span.end());
      } else {
        std::vector<std::span<const VertexId>> lists;
        for (LabelId l : v.labels) lists.push_back(g_.VerticesWithLabel(l));
        util::IntersectKWay(std::move(lists), out);
      }
      return;
    }
    // Blank vertex: smallest predicate-index list among incident labeled
    // edges; otherwise every data vertex qualifies.
    std::span<const VertexId> bestspan;
    bool found = false;
    for (const auto& inc : q.incident(u)) {
      const QueryEdge& e = q.edge(inc.edge);
      if (!e.has_label()) continue;
      auto span = inc.dir == Direction::kOut ? g_.SubjectsOf(e.label) : g_.ObjectsOf(e.label);
      if (!found || span.size() < bestspan.size()) {
        bestspan = span;
        found = true;
      }
    }
    if (found) {
      out->assign(bestspan.begin(), bestspan.end());
    } else {
      out->resize(g_.num_vertices());
      for (uint32_t i = 0; i < g_.num_vertices(); ++i) (*out)[i] = i;
    }
  }

  void MaterializeStartList(const QueryGraph& q, const Compiled& c, uint32_t u,
                            std::vector<VertexId>* out, MatchStats* stats) const {
    MaterializeBaseList(q, u, out);
    const QueryVertex& v = q.vertex(u);
    if (v.constraint || opt_.use_nlf || opt_.use_degree_filter || c.req_sig[u] != 0) {
      out->erase(std::remove_if(out->begin(), out->end(),
                                [&](VertexId w) { return !PassFilters(c, u, w, stats); }),
                 out->end());
    }
  }

  const DataGraph& g_;
  const MatchOptions& opt_;
};

// ---------------------------------------------------------------------------
// Matching order for one candidate region (DetermineMatchingOrder) and the
// per-position non-tree-edge checks consumed by IsJoinable.
// ---------------------------------------------------------------------------

struct OrderInfo {
  std::vector<uint32_t> node_at;  ///< position -> tree node index
  struct Back {
    uint32_t edge;           ///< query edge
    uint32_t partner_node;   ///< earlier-matched tree node
    Direction partner_dir;   ///< adjacency direction at the partner's match
    bool self_loop;
  };
  std::vector<std::vector<Back>> checks;  ///< per position
  bool ready = false;
};

// ---------------------------------------------------------------------------
// Worker: per-thread state for ExploreCandidateRegion + SubgraphSearch.
// ---------------------------------------------------------------------------

class Worker {
 public:
  /// `stop_all` is the run-wide stop flag shared by every worker: set when
  /// any worker hits the solution limit, when a streaming callback returns
  /// false, or when the external cancel/deadline fires. `stream_mu` (null in
  /// sequential runs) serializes parallel streaming delivery.
  Worker(const Context& ctx, const Compiled& c, bool collect,
         const SolutionCallback* stream, std::atomic<uint64_t>* global_count,
         uint64_t limit, std::atomic<bool>* stop_all, std::mutex* stream_mu,
         RegionArena* arena)
      : ctx_(ctx),
        c_(c),
        q_(*c.q),
        collect_(collect),
        stream_(stream),
        global_count_(global_count),
        limit_(limit),
        stop_all_(stop_all),
        stream_mu_(stream_mu),
        ar_(*arena),
        iso_(ctx.opt().semantics == MatchSemantics::kIsomorphism) {
    const QueryTree& t = c_.tree;
    ar_.PrepareQuery(t.num_nodes());
    ar_.cr_total.assign(t.num_nodes(), 0);
    ar_.m_node.assign(t.num_nodes(), kInvalidId);
    ar_.node_depth.assign(t.num_nodes(), 0);
    for (uint32_t i = 1; i < t.num_nodes(); ++i)
      ar_.node_depth[i] = ar_.node_depth[t.node(i).parent] + 1;
    if (iso_) ar_.EnsureMapped(ctx_.g().num_vertices());
    lap_ = std::chrono::steady_clock::now();
  }

  bool aborted() const { return aborted_; }

  /// True when the caller's cancel token or deadline has fired. The
  /// deadline branch pays a steady_clock read, so callers amortize.
  bool ExternalFired() const {
    const MatchOptions& opt = ctx_.opt();
    if (opt.cancel && opt.cancel->load(std::memory_order_relaxed)) return true;
    return opt.has_deadline() && std::chrono::steady_clock::now() >= opt.deadline;
  }

  /// Stop requested by another worker, the limit, or the caller's cancel
  /// token / deadline. Sets aborted_ (and, for cancel/deadline, propagates
  /// to the shared flag so sibling workers drain too). The cancel token is
  /// checked every call (one relaxed load); the deadline's clock read is
  /// amortized across starts.
  bool ShouldStop() {
    if (aborted_) return true;
    if (stop_all_->load(std::memory_order_relaxed)) {
      aborted_ = true;
      return true;
    }
    const MatchOptions& opt = ctx_.opt();
    bool fired = opt.cancel && opt.cancel->load(std::memory_order_relaxed);
    if (!fired && opt.has_deadline() && (++search_poll_ & 0xFF) == 0)
      fired = std::chrono::steady_clock::now() >= opt.deadline;
    if (fired) {
      aborted_ = true;
      stop_all_->store(true, std::memory_order_relaxed);
    }
    return aborted_;
  }

  void ProcessStart(VertexId vs) {
    if (ShouldStop()) return;
    if (global_count_ && global_count_->load(std::memory_order_relaxed) >= limit_) {
      aborted_ = true;
      return;
    }
    ++stats.num_start_candidates;
    ar_.ResetRegion();
    std::fill(ar_.cr_total.begin(), ar_.cr_total.end(), 0);

    bool ok = ExploreNode(0, vs);
    stats.explore_ms += Lap();
    if (!ok) return;
    ++stats.num_regions;

    if (!order_.ready || !ctx_.opt().reuse_matching_order) ComputeOrder();

    ar_.m_node[0] = vs;
    if (iso_) ar_.mapped[vs] = 1;
    if (SelfLoopsOk(0, vs)) {
      if (c_.tree.num_nodes() == 1)
        Report();
      else
        Search(1);
    }
    if (iso_) ar_.mapped[vs] = 0;
    stats.search_ms += Lap();
  }

  MatchStats stats;
  std::vector<Solution> solutions;

 private:
  /// ExploreCandidateRegion (Algorithm 1, line 9): DFS along the query tree
  /// from data vertex `v` matched to tree node `ni`. Fills CR(child, v) for
  /// every child. Failed / succeeded (node, vertex) pairs are memoized
  /// within a region so shared subtrees are explored once.
  bool ExploreNode(uint32_t ni, VertexId v) {
    const QueryTree::Node& node = c_.tree.node(ni);
    if (node.children.empty()) return true;
    uint64_t key = (static_cast<uint64_t>(ni) << 32) | v;
    if (int hit = ar_.MemoFind(key); hit >= 0) return hit != 0;
    bool ok = true;
    for (uint32_t ci : node.children) {
      const QueryTree::Node& child = c_.tree.node(ci);
      const uint32_t cd = ar_.node_depth[ci];
      std::vector<VertexId>& cands = ar_.explore_scratch[cd];
      ctx_.CollectCandidates(c_, child.qv, v, child.dir_from_parent,
                             q_.edge(child.edge).label, ar_, &cands, &stats);
      // The recursion below only appends to depths > cd, so CR(ci, v) stays
      // the open tail of its depth's pool until EndList.
      ar_.BeginList(ci, cd);
      for (VertexId w : cands)
        if (ExploreNode(ci, w)) ar_.Append(cd, w);
      uint32_t len = ar_.EndList(ci, cd, v);
      ar_.cr_total[ci] += len;
      stats.cr_candidate_vertices += len;
      if (len == 0) {
        ok = false;
        break;
      }
    }
    ar_.MemoPut(key, ok);
    return ok;
  }

  /// DetermineMatchingOrder (Algorithm 1, line 11): order root-to-leaf query
  /// paths by their candidate counts in the current region, then concatenate
  /// unvisited nodes path by path. With +REUSE this runs once per query.
  void ComputeOrder() {
    const QueryTree& tree = c_.tree;
    order_.node_at.clear();
    order_.node_at.reserve(tree.num_nodes());
    std::vector<bool> placed(tree.num_nodes(), false);
    order_.node_at.push_back(0);
    placed[0] = true;

    std::vector<std::pair<uint64_t, const std::vector<uint32_t>*>> ranked;
    ranked.reserve(tree.paths().size());
    for (const auto& p : tree.paths()) ranked.push_back({ar_.cr_total[p.back()], &p});
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [w, path] : ranked)
      for (uint32_t ni : *path)
        if (!placed[ni]) {
          placed[ni] = true;
          order_.node_at.push_back(ni);
        }

    std::vector<uint32_t> pos(tree.num_nodes());
    for (uint32_t i = 0; i < order_.node_at.size(); ++i) pos[order_.node_at[i]] = i;

    order_.checks.assign(tree.num_nodes(), {});
    for (uint32_t e : tree.non_tree_edges()) {
      const QueryEdge& qe = q_.edge(e);
      uint32_t na = tree.node_of(qe.from);
      uint32_t nb = tree.node_of(qe.to);
      if (qe.from == qe.to) {
        order_.checks[pos[na]].push_back({e, na, Direction::kOut, true});
        continue;
      }
      uint32_t later = pos[na] > pos[nb] ? na : nb;
      uint32_t earlier = pos[na] > pos[nb] ? nb : na;
      // Candidates v for `later` must satisfy: if the edge leaves `later`
      // (qe.from == later's qv) then v -> M(partner), i.e. v is an
      // IN-neighbour of the partner's match; otherwise an OUT-neighbour.
      Direction partner_dir =
          qe.from == tree.node(later).qv ? Direction::kIn : Direction::kOut;
      order_.checks[std::max(pos[na], pos[nb])].push_back({e, earlier, partner_dir, false});
    }
    order_.ready = true;
    if (stats.matching_order.empty()) {
      for (uint32_t ni : order_.node_at) stats.matching_order.push_back(tree.node(ni).qv);
    }
    stats.order_ms += Lap();  // the explore lap ended where this began
  }

  /// Milliseconds since the previous lap (or the end of construction),
  /// starting the next: one clock read per phase boundary. The loop between
  /// two starts falls into the next start's explore lap.
  double Lap() {
    const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - lap_).count();
    lap_ = now;
    return ms;
  }

  bool SelfLoopsOk(uint32_t depth, VertexId v) {
    if (order_.checks.empty()) return true;
    for (const auto& back : order_.checks[depth]) {
      if (!back.self_loop) continue;
      const QueryEdge& qe = q_.edge(back.edge);
      if (qe.has_label()) {
        if (!ctx_.g().HasEdge(v, v, qe.label)) return false;
      } else {
        ctx_.g().EdgeLabelsBetween(v, v, &ar_.el_scratch);
        if (ar_.el_scratch.empty()) return false;
      }
    }
    return true;
  }

  /// SubgraphSearch (Algorithm 2). With +INT, all IsJoinable membership
  /// probes at one position collapse into a single k-way intersection of the
  /// candidate list with the relevant adjacency lists (§4.3).
  void Search(uint32_t depth) {
    if (aborted_ || stop_all_->load(std::memory_order_relaxed)) {
      aborted_ = true;
      return;
    }
    // Cancellation must also reach queries dominated by one huge candidate
    // region (a single ProcessStart): poll the external signals inside the
    // search itself, amortized so the clock read stays off the hot path.
    if ((++search_poll_ & 0x3FF) == 0 && ExternalFired()) {
      aborted_ = true;
      stop_all_->store(true, std::memory_order_relaxed);
      return;
    }
    const QueryTree& tree = c_.tree;
    uint32_t ni = order_.node_at[depth];
    const QueryTree::Node& node = tree.node(ni);
    VertexId pv = ar_.m_node[node.parent];
    std::span<const VertexId> cands = ar_.Lookup(ni, ar_.node_depth[ni], pv);
    if (cands.empty()) return;

    SearchScratch& sc = ar_.search_scratch[depth];
    sc.spans.clear();
    UnionBufScope union_scope(ar_);  // releases this depth's blank-edge buffers
    bool has_self = false;
    for (const auto& back : order_.checks[depth]) {
      if (back.self_loop) {
        has_self = true;
        continue;
      }
      VertexId partner_v = ar_.m_node[back.partner_node];
      const QueryEdge& qe = q_.edge(back.edge);
      std::span<const VertexId> span;
      if (qe.has_label()) {
        // Scratch-aware lookup: decodes into a pooled buffer under the
        // compressed storage mode, zero-copy otherwise.
        span = ctx_.g().Neighbors(partner_v, back.partner_dir, qe.label,
                                  ar_.PushUnionBuf());
      } else {
        span = ctx_.g().UnionNeighbors(partner_v, back.partner_dir, ar_.PushUnionBuf());
      }
      if (span.empty()) return;
      sc.spans.push_back(span);
    }

    std::span<const VertexId> iter = cands;
    const bool use_int = ctx_.opt().use_intersection;
    if (use_int && !sc.spans.empty()) {
      if (sc.spans.size() == 1) {
        // Common case (one non-tree edge at this position): a two-way
        // adaptive intersection into the reusable per-depth buffer.
        util::IntersectInto(cands, sc.spans[0], &sc.int_result);
      } else {
        sc.lists.clear();
        sc.lists.push_back(cands);
        for (const auto& s : sc.spans) sc.lists.push_back(s);
        util::IntersectKWay(sc.lists, &sc.int_result);
      }
      ++stats.intersection_ops;
      iter = sc.int_result;
    }

    const bool iso = iso_;
    const bool last = depth + 1 == tree.num_nodes();
    for (VertexId v : iter) {
      if (iso && ar_.mapped[v]) continue;  // injectivity test (disabled for hom)
      if (!use_int && !sc.spans.empty()) {
        bool ok = true;
        for (const auto& s : sc.spans) {
          ++stats.isjoinable_checks;
          if (!util::SortedContains(s, v)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
      }
      if (has_self && !SelfLoopsOk(depth, v)) continue;
      ar_.m_node[ni] = v;
      if (iso) ar_.mapped[v] = 1;
      if (last)
        Report();
      else
        Search(depth + 1);
      if (iso) ar_.mapped[v] = 0;
      if (aborted_) return;
    }
  }

  void Report() {
    if (global_count_) {
      uint64_t n = 1 + global_count_->fetch_add(1, std::memory_order_relaxed);
      if (n >= limit_) {
        aborted_ = true;
        stop_all_->store(true, std::memory_order_relaxed);
      }
      if (n > limit_) return;  // a sibling already delivered the limit-th row
    }
    ++stats.num_solutions;
    if (collect_ || stream_) {
      ar_.sol_buf.assign(q_.num_vertices(), kInvalidId);
      for (uint32_t i = 0; i < c_.tree.num_nodes(); ++i)
        ar_.sol_buf[c_.tree.node(i).qv] = ar_.m_node[i];
      if (stream_) {
        if (stream_mu_) {
          // Per-worker batch handoff: buffer locally and deliver the whole
          // batch under one acquisition of the delivery mutex, amortizing
          // per-solution lock traffic across parallel workers. MatchImpl
          // flushes each worker's tail after the parallel loop joins, so
          // every limit-accounted row still reaches the callback.
          pending_.push_back(ar_.sol_buf);
          if (pending_.size() >= kStreamBatch) FlushPending();
        } else if (!(*stream_)(ar_.sol_buf)) {
          aborted_ = true;
          stop_all_->store(true, std::memory_order_relaxed);
        }
      } else {
        solutions.push_back(ar_.sol_buf);
      }
    }
  }

 public:
  /// Delivers this worker's buffered solutions (parallel streaming only).
  /// A callback asking to stop drops the rest of the batch and trips the
  /// run-wide flag.
  void FlushPending() {
    if (pending_.empty()) return;
    bool keep_going = true;
    {
      std::lock_guard<std::mutex> lock(*stream_mu_);
      for (const Solution& s : pending_) {
        if (!(*stream_)(s)) {
          keep_going = false;
          break;
        }
      }
    }
    pending_.clear();
    if (!keep_going) {
      aborted_ = true;
      stop_all_->store(true, std::memory_order_relaxed);
    }
  }

 private:

  const Context& ctx_;
  const Compiled& c_;
  const QueryGraph& q_;
  const bool collect_;
  const SolutionCallback* stream_ = nullptr;
  std::atomic<uint64_t>* global_count_;
  const uint64_t limit_;
  std::atomic<bool>* stop_all_;
  std::mutex* stream_mu_ = nullptr;
  /// Streaming solutions awaiting a batched FlushPending (parallel only).
  std::vector<Solution> pending_;
  RegionArena& ar_;   // exclusive to this worker until MatchImpl releases it
  const bool iso_;
  bool aborted_ = false;
  uint32_t search_poll_ = 0;
  OrderInfo order_;
  std::chrono::steady_clock::time_point lap_;  ///< the previous phase boundary
};

MatchStats MatchImpl(const DataGraph& g, const MatchOptions& options, const QueryGraph& q,
                     std::vector<Solution>* out, const SolutionCallback* stream,
                     ArenaPool& pool) {
  util::WallTimer total;
  MatchStats stats;
  Context ctx(g, options);
  Compiled c;
  ctx.Compile(q, &c, &stats);
  stats.start_query_vertex = c.start_qv;

  // Check one RegionArena out per worker from the Matcher's pool; it comes
  // back warm from earlier queries and returns there after the run.
  auto acquire_arena = [&]() {
    std::unique_ptr<RegionArena> a = pool.Acquire();
    ++stats.arena_workers;
    if (a->warm) ++stats.arena_warm;
    return a;
  };
  auto release_arena = [&](std::unique_ptr<RegionArena> a) {
    stats.arena_bytes += a->ApproxBytes();
    pool.Release(std::move(a));
  };

  std::atomic<uint64_t> global_count{0};
  std::atomic<uint64_t>* gc =
      options.limit != std::numeric_limits<uint64_t>::max() ? &global_count : nullptr;
  // Run-wide stop flag: solution limit, callback stop, cancel, or deadline.
  std::atomic<bool> stop_all{false};

  auto externally_cancelled = [&]() {
    if (options.cancel && options.cancel->load(std::memory_order_relaxed)) return true;
    return options.has_deadline() && std::chrono::steady_clock::now() >= options.deadline;
  };

  if (c.single_vertex) {
    // Algorithm 1, lines 2-4: every vertex carrying the labels is a solution.
    uint64_t n = std::min<uint64_t>(c.start_list.size(), options.limit);
    stats.num_start_candidates = c.start_list.size();
    if (out) {
      out->reserve(n);
      for (uint64_t i = 0; i < n; ++i) out->push_back({c.start_list[i]});
      stats.num_solutions = n;
    } else if (stream) {
      Solution s(1);
      uint64_t delivered = 0;
      for (uint64_t i = 0; i < n; ++i) {
        if ((i & 0xFF) == 0 && externally_cancelled()) {
          stats.stopped_early = true;
          break;
        }
        s[0] = c.start_list[i];
        ++delivered;
        if (!(*stream)(s)) {
          stats.stopped_early = true;
          break;
        }
      }
      stats.num_solutions = delivered;
    } else {
      stats.num_solutions = n;
    }
    if (n < c.start_list.size()) stats.stopped_early = true;
    stats.total_ms = total.ElapsedMillis();
    return stats;
  }

  uint32_t nthreads = std::max(1u, options.num_threads);
  if (nthreads == 1) {
    std::unique_ptr<RegionArena> arena = acquire_arena();
    {
      Worker w(ctx, c, out != nullptr, stream, gc, options.limit, &stop_all,
               /*stream_mu=*/nullptr, arena.get());
      for (VertexId vs : c.start_list) {
        w.ProcessStart(vs);
        if (w.aborted()) break;
      }
      stats.MergeFrom(w.stats);
      if (w.aborted()) stats.stopped_early = true;
      if (out) *out = std::move(w.solutions);
    }
    release_arena(std::move(arena));
  } else {
    // Parallel streaming delivers from the worker threads, one batch of up
    // to kStreamBatch rows at a time under `stream_mu`; a stop request
    // (callback false, limit, cancel, deadline) flips `stop_all`, which
    // every worker polls in ProcessStart and SubgraphSearch, so the join
    // below is prompt.
    std::mutex stream_mu;
    std::vector<std::unique_ptr<RegionArena>> arenas(nthreads);
    std::vector<std::unique_ptr<Worker>> workers(nthreads);
    for (uint32_t t = 0; t < nthreads; ++t) {
      arenas[t] = acquire_arena();
      workers[t] = std::make_unique<Worker>(ctx, c, out != nullptr, stream, gc,
                                            options.limit, &stop_all, &stream_mu,
                                            arenas[t].get());
    }
    auto body = [&](uint64_t b, uint64_t e, uint32_t tid) {
      Worker& w = *workers[tid];
      for (uint64_t i = b; i < e && !w.aborted(); ++i) w.ProcessStart(c.start_list[i]);
    };
    if (options.dynamic_chunking)
      util::ParallelForDynamic(nthreads, c.start_list.size(), options.chunk_size, body);
    else
      util::ParallelForStatic(nthreads, c.start_list.size(), body);
    // Deliver each worker's buffered tail (batched streaming). Runs after
    // the join, on this thread, so rows that claimed a limit slot in
    // global_count are all handed to the callback exactly once.
    if (stream) {
      for (auto& w : workers) w->FlushPending();
    }
    for (auto& w : workers) {
      stats.MergeFrom(w->stats);
      if (w->aborted()) stats.stopped_early = true;
      if (out)
        out->insert(out->end(), std::make_move_iterator(w->solutions.begin()),
                    std::make_move_iterator(w->solutions.end()));
    }
    workers.clear();  // workers reference the arenas; destroy them first
    for (auto& a : arenas) release_arena(std::move(a));
  }
  if (stats.num_solutions > options.limit) stats.num_solutions = options.limit;
  if (out && out->size() > options.limit) out->resize(options.limit);
  stats.total_ms = total.ElapsedMillis();
  return stats;
}

}  // namespace

MatchStats Matcher::Match(const QueryGraph& q, const SolutionCallback& callback) const {
  if (!callback) return MatchImpl(g_, options_, q, nullptr, nullptr, arena_pool());
  // Solutions stream as they are found in both sequential and parallel runs
  // (parallel delivery is serialized by a mutex inside MatchImpl), so a
  // `false` return stops the enumeration itself, not just the delivery.
  return MatchImpl(g_, options_, q, nullptr, &callback, arena_pool());
}

uint64_t Matcher::Count(const QueryGraph& q, MatchStats* stats) const {
  MatchStats s = MatchImpl(g_, options_, q, nullptr, nullptr, arena_pool());
  if (stats) *stats = s;
  return s.num_solutions;
}

std::vector<Solution> Matcher::FindAll(const QueryGraph& q, MatchStats* stats) const {
  std::vector<Solution> out;
  MatchStats s = MatchImpl(g_, options_, q, &out, nullptr, arena_pool());
  if (stats) *stats = s;
  return out;
}

std::string Matcher::ExplainPlan(const QueryGraph& q) const {
  Context ctx(g_, options_);
  Compiled c;
  ctx.Compile(q, &c);
  std::string out;
  auto vertex_desc = [&](uint32_t u) {
    const QueryVertex& v = q.vertex(u);
    std::string d = "u" + std::to_string(u);
    if (v.has_fixed_id()) d += " [id=" + std::to_string(v.fixed_id) + "]";
    if (!v.labels.empty()) {
      d += " {";
      for (size_t i = 0; i < v.labels.size(); ++i)
        d += (i ? "," : "") + std::to_string(v.labels[i]);
      d += "}";
    }
    return d;
  };
  out += "start: " + vertex_desc(c.start_qv) + " (" +
         std::to_string(c.start_list.size()) + " starting vertices)\n";
  if (c.single_vertex) {
    out += "plan: point-shaped (inverse label list iteration)\n";
    return out;
  }
  out += "query tree (BFS):\n";
  for (uint32_t i = 0; i < c.tree.num_nodes(); ++i) {
    const QueryTree::Node& n = c.tree.node(i);
    out += "  " + vertex_desc(n.qv);
    if (n.parent != kInvalidId) {
      const QueryEdge& e = q.edge(n.edge);
      out += std::string(" <- parent u") + std::to_string(c.tree.node(n.parent).qv) +
             " via " +
             (e.has_label() ? "el" + std::to_string(e.label) : std::string("any")) +
             (n.dir_from_parent == Direction::kOut ? " (outgoing)" : " (incoming)");
    } else {
      out += " (root)";
    }
    out += "\n";
  }
  if (!c.tree.non_tree_edges().empty()) {
    out += "non-tree edges (IsJoinable):\n";
    for (uint32_t ei : c.tree.non_tree_edges()) {
      const QueryEdge& e = q.edge(ei);
      out += "  u" + std::to_string(e.from) + " -> u" + std::to_string(e.to) +
             (e.has_label() ? " via el" + std::to_string(e.label) : " via any") + "\n";
    }
  }
  return out;
}

}  // namespace turbo::engine
