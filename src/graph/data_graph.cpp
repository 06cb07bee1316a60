#include "graph/data_graph.hpp"

#include <algorithm>
#include <cassert>

#include "rdf/vocabulary.hpp"
#include "util/sorted.hpp"

namespace turbo::graph {

namespace {

/// One stable counting-sort pass: reorders `items` by `key` (< num_keys),
/// keeping the relative order of equal keys, through `scratch`. Chained
/// least-significant key first, these passes are an O(n + num_keys) LSD
/// radix sort.
template <typename T, typename KeyFn>
void CountingSortBy(std::vector<T>* items, std::vector<T>* scratch, size_t num_keys,
                    KeyFn key) {
  std::vector<uint32_t> next(num_keys + 1, 0);
  for (const T& x : *items) ++next[key(x) + 1];
  for (size_t k = 1; k < next.size(); ++k) next[k] += next[k - 1];
  scratch->resize(items->size());
  for (const T& x : *items) (*scratch)[next[key(x)]++] = x;
  items->swap(*scratch);
}

/// Builds a CSR (offsets over keys [0, num_keys), values) by a counting
/// scatter. `visit(emit)` must call emit(key, value) for every entry, in
/// the same order both times it runs; values within a key keep that order.
template <typename Visit>
void ScatterCsr(size_t num_keys, Visit visit, std::vector<uint32_t>* offsets,
                std::vector<uint32_t>* values) {
  offsets->assign(num_keys + 1, 0);
  visit([&](uint32_t key, uint32_t) { ++(*offsets)[key + 1]; });
  for (size_t k = 1; k < offsets->size(); ++k) (*offsets)[k] += (*offsets)[k - 1];
  values->resize(offsets->back());
  std::vector<uint32_t> next(offsets->begin(), offsets->end() - 1);
  visit([&](uint32_t key, uint32_t value) { (*values)[next[key]++] = value; });
}

inline LabelId GroupLabel(const DataGraph::ElGroup&) { return kInvalidId; }
inline LabelId GroupLabel(const DataGraph::TypeGroup& grp) { return grp.vl; }

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

GraphBuilder::GraphBuilder(const rdf::Dictionary& dict, TransformMode mode,
                           StorageMode storage)
    : dict_(dict), mode_(mode) {
  g_.mode_ = mode;
  g_.storage_ = storage;
}

void GraphBuilder::ResolveSchemaPredicates() {
  // Lazy per-chunk resolution: the dictionary may still be growing between
  // chunks (incremental use), but by the time a chunk is appended every id
  // it references — including rdf:type if present — is interned.
  if (!type_p_) type_p_ = dict_.Find(rdf::Term::Iri(rdf::vocab::kRdfType));
  if (!subclass_p_) subclass_p_ = dict_.Find(rdf::Term::Iri(rdf::vocab::kRdfsSubClassOf));
}

void GraphBuilder::Append(std::span<const rdf::Triple> chunk, bool inferred) {
  if (chunk.empty()) return;
  ResolveSchemaPredicates();
  DataGraph& g = g_;

  auto vertex_of = [&](TermId t) -> VertexId {
    auto [it, added] = g.term_to_vertex_.try_emplace(
        t, static_cast<VertexId>(g.vertex_terms_.size()));
    if (added) g.vertex_terms_.push_back(t);
    return it->second;
  };
  auto label_of = [&](TermId t) -> LabelId {
    auto [it, added] =
        g.term_to_label_.try_emplace(t, static_cast<LabelId>(g.label_terms_.size()));
    if (added) g.label_terms_.push_back(t);
    return it->second;
  };
  auto el_of = [&](TermId t) -> EdgeLabelId {
    auto [it, added] =
        g.term_to_el_.try_emplace(t, static_cast<EdgeLabelId>(g.el_terms_.size()));
    if (added) g.el_terms_.push_back(t);
    return it->second;
  };

  for (const rdf::Triple& t : chunk) {
    if (mode_ == TransformMode::kTypeAware) {
      if (type_p_ && t.p == *type_p_) {
        VertexId v = vertex_of(t.s);
        LabelId l = label_of(t.o);
        label_pairs_.emplace_back(v, l);
        if (!inferred) simple_label_pairs_.emplace_back(v, l);
        continue;
      }
      if (subclass_p_ && t.p == *subclass_p_) {
        g.schema_subclass_.emplace_back(t.s, t.o);  // folded into labels
        continue;
      }
    }
    edges_.push_back({vertex_of(t.s), el_of(t.p), vertex_of(t.o)});
  }
}

DataGraph GraphBuilder::Finish() {
  DataGraph& g = g_;
  std::vector<EdgeTriple>& edges = edges_;

  // ---- Renumber graph ids into term-id order. ----
  // Append() assigns vertex / label / edge-label ids by first occurrence;
  // term ids are frequency-split (hot head in a dense low band, arrival-
  // order tail — see rdf/dictionary.hpp). Sorting graph ids by term id
  // carries that layout into every adjacency structure: hot vertices
  // cluster in the low id range, shrinking the delta gaps the compressed
  // encodings store, while the tail keeps its run-of-related-entities
  // locality. Pure function of the dictionary's ids — identical across
  // storage modes, thread counts, and append chunking.
  {
    auto renumber = [](auto& terms, auto& term_to_id) {
      using IdVec = std::vector<uint32_t>;
      IdVec order(terms.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
      std::sort(order.begin(), order.end(),
                [&](uint32_t a, uint32_t b) { return terms[a] < terms[b]; });
      IdVec new_id(order.size());
      std::decay_t<decltype(terms)> permuted(terms.size());
      for (size_t r = 0; r < order.size(); ++r) {
        new_id[order[r]] = static_cast<uint32_t>(r);
        permuted[r] = terms[order[r]];
      }
      terms = std::move(permuted);
      for (auto& [t, id] : term_to_id) id = new_id[id];
      return new_id;
    };
    const std::vector<uint32_t> vmap = renumber(g.vertex_terms_, g.term_to_vertex_);
    const std::vector<uint32_t> lmap = renumber(g.label_terms_, g.term_to_label_);
    const std::vector<uint32_t> emap = renumber(g.el_terms_, g.term_to_el_);
    for (EdgeTriple& e : edges) {
      e.s = vmap[e.s];
      e.el = emap[e.el];
      e.o = vmap[e.o];
    }
    for (auto& p : label_pairs_) p = {vmap[p.first], lmap[p.second]};
    for (auto& p : simple_label_pairs_) p = {vmap[p.first], lmap[p.second]};
  }

  const uint32_t n = static_cast<uint32_t>(g.vertex_terms_.size());
  const uint32_t num_labels = static_cast<uint32_t>(g.label_terms_.size());
  const uint32_t num_els = static_cast<uint32_t>(g.el_terms_.size());

  // From here on, every reordering of edges, label pairs or adjacency rows
  // is a stable counting pass over a dense id range, so the rest of the
  // build is O(E + n + labels), and each array is sized exactly before it
  // is filled.

  // ---- Deduplicate edges: LSD passes by o, el, s give (s, el, o) order. ----
  std::vector<EdgeTriple> scratch;
  CountingSortBy(&edges, &scratch, n, [](const EdgeTriple& e) { return e.o; });
  CountingSortBy(&edges, &scratch, num_els, [](const EdgeTriple& e) { return e.el; });
  CountingSortBy(&edges, &scratch, n, [](const EdgeTriple& e) { return e.s; });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const EdgeTriple& a, const EdgeTriple& b) {
                            return a.s == b.s && a.el == b.el && a.o == b.o;
                          }),
              edges.end());
  g.num_edges_ = edges.size();

  // ---- Vertex label CSRs: LSD passes by label, then vertex. ----
  auto build_label_csr = [&](std::vector<std::pair<VertexId, LabelId>>& pairs,
                             std::vector<uint32_t>* offsets, std::vector<LabelId>* flat) {
    std::vector<std::pair<VertexId, LabelId>> tmp;
    CountingSortBy(&pairs, &tmp, num_labels, [](const auto& p) { return p.second; });
    CountingSortBy(&pairs, &tmp, n, [](const auto& p) { return p.first; });
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    ScatterCsr(
        n, [&](auto emit) { for (const auto& [v, l] : pairs) emit(v, l); }, offsets, flat);
  };
  build_label_csr(label_pairs_, &g.label_offsets_, &g.labels_);
  build_label_csr(simple_label_pairs_, &g.simple_label_offsets_, &g.simple_labels_);

  // ---- Inverse vertex-label list: vertices visited ascending. ----
  ScatterCsr(
      num_labels,
      [&](auto emit) {
        for (VertexId v = 0; v < n; ++v)
          for (LabelId l : g.labels(v)) emit(l, v);
      },
      &g.inv_label_offsets_, &g.inv_label_vertices_);

  // ---- Adjacency. ----
  // Out rows are the sorted edges themselves. In rows swap the endpoints;
  // they are then already ordered by neighbour, so stable passes by el and
  // then by vertex give (v, el, nbr) order.
  BuildAdjDir(g, edges, n, &g.out_);
  {
    std::vector<EdgeTriple> in_rows(edges.size());
    for (size_t i = 0; i < edges.size(); ++i)
      in_rows[i] = {edges[i].o, edges[i].el, edges[i].s};
    edges = std::vector<EdgeTriple>();
    CountingSortBy(&in_rows, &scratch, num_els, [](const EdgeTriple& e) { return e.el; });
    CountingSortBy(&in_rows, &scratch, n, [](const EdgeTriple& e) { return e.s; });
    scratch = std::vector<EdgeTriple>();
    BuildAdjDir(g, in_rows, n, &g.in_);
  }

  // ---- Predicate index: each vertex's el-groups are distinct, so visiting
  // vertices ascending yields sorted, duplicate-free lists per edge label. ----
  auto build_pred_index = [&](const DataGraph::AdjDir& a, std::vector<uint32_t>* offsets,
                              std::vector<VertexId>* flat) {
    ScatterCsr(
        num_els,
        [&](auto emit) {
          for (VertexId v = 0; v < n; ++v)
            for (uint32_t k = a.el_group_offsets[v]; k < a.el_group_offsets[v + 1]; ++k)
              emit(a.el_groups[k].el, v);
        },
        offsets, flat);
  };
  build_pred_index(g.out_, &g.pred_subj_offsets_, &g.pred_subjects_);
  build_pred_index(g.in_, &g.pred_obj_offsets_, &g.pred_objects_);

  // Signatures derive from group metadata only, so they are identical across
  // storage modes and must be built before the value arrays are replaced.
  BuildSignatures(g, n);
  if (g.storage_ == StorageMode::kCompressed) {
    CompressAdjDir(&g.out_);
    CompressAdjDir(&g.in_);
  }

  std::sort(g.schema_subclass_.begin(), g.schema_subclass_.end());
  g.schema_subclass_.erase(
      std::unique(g.schema_subclass_.begin(), g.schema_subclass_.end()),
      g.schema_subclass_.end());
  return std::move(g);
}

void GraphBuilder::BuildAdjDir(const DataGraph& g, const std::vector<EdgeTriple>& rows,
                               uint32_t n, DataGraph::AdjDir* dir) {
  // `rows` are (v, el, nbr) = (s, el, o), sorted and duplicate-free.
  auto new_group = [&](size_t i) {
    return i == 0 || rows[i].s != rows[i - 1].s || rows[i].el != rows[i - 1].el;
  };

  // ---- Edge-label groups: count, then fill. ----
  dir->el_group_offsets.assign(n + 1, 0);
  for (size_t i = 0; i < rows.size(); ++i)
    if (new_group(i)) ++dir->el_group_offsets[rows[i].s + 1];
  for (size_t v = 1; v <= n; ++v) dir->el_group_offsets[v] += dir->el_group_offsets[v - 1];
  dir->el_groups.resize(dir->el_group_offsets[n]);
  dir->el_nbrs.resize(rows.size());
  for (size_t i = 0, k = 0; i < rows.size(); ++i) {
    dir->el_nbrs[i] = rows[i].o;
    const uint32_t end = static_cast<uint32_t>(i + 1);
    if (new_group(i))
      dir->el_groups[k++] = {rows[i].el, static_cast<uint32_t>(i), end};
    else
      dir->el_groups[k - 1].end = end;
  }

  // ---- Neighbour-type groups. ----
  // One row per (neighbour, label of neighbour). Within an el-group the
  // neighbours are ascending, so a stable scatter over the group's distinct
  // labels (sorted, usually a handful) yields (vl, nbr) order.
  // `stamp[l]` marks label l as seen in el-group k; `next[l]` counts its
  // rows, then becomes its write cursor.
  const uint32_t num_labels = static_cast<uint32_t>(g.label_terms_.size());
  std::vector<uint32_t> stamp(num_labels, kInvalidId);
  std::vector<uint32_t> next(num_labels);
  dir->type_group_offsets.assign(n + 1, 0);
  size_t num_rows = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (uint32_t k = dir->el_group_offsets[v]; k < dir->el_group_offsets[v + 1]; ++k) {
      const DataGraph::ElGroup& grp = dir->el_groups[k];
      for (uint32_t i = grp.begin; i < grp.end; ++i) {
        std::span<const LabelId> ls = g.labels(dir->el_nbrs[i]);
        num_rows += ls.size();
        for (LabelId l : ls)
          if (stamp[l] != k) {
            stamp[l] = k;
            ++dir->type_group_offsets[v + 1];
          }
      }
    }
  }
  for (size_t v = 1; v <= n; ++v)
    dir->type_group_offsets[v] += dir->type_group_offsets[v - 1];
  dir->type_groups.resize(dir->type_group_offsets[n]);
  dir->type_nbrs.resize(num_rows);

  std::fill(stamp.begin(), stamp.end(), kInvalidId);
  std::vector<LabelId> distinct;
  uint32_t row = 0;
  size_t t = 0;
  for (uint32_t k = 0; k < dir->el_groups.size(); ++k) {
    const DataGraph::ElGroup& grp = dir->el_groups[k];
    distinct.clear();
    for (uint32_t i = grp.begin; i < grp.end; ++i)
      for (LabelId l : g.labels(dir->el_nbrs[i])) {
        if (stamp[l] != k) {
          stamp[l] = k;
          next[l] = 0;
          distinct.push_back(l);
        }
        ++next[l];
      }
    std::sort(distinct.begin(), distinct.end());
    for (LabelId l : distinct) {
      const uint32_t count = next[l];
      dir->type_groups[t++] = {grp.el, l, row, row + count};
      next[l] = row;
      row += count;
    }
    for (uint32_t i = grp.begin; i < grp.end; ++i) {
      const VertexId nbr = dir->el_nbrs[i];
      for (LabelId l : g.labels(nbr)) dir->type_nbrs[next[l]++] = nbr;
    }
  }

#ifndef NDEBUG
  // AllNeighborsRaw spans from a vertex's first el-group begin to its last
  // el-group end, which is only a valid range because the vertex's el-groups
  // cover one contiguous run of el_nbrs; the decoders and lookups rely on
  // groups sorted by el / (el, vl) with strictly ascending neighbours. The
  // count/fill passes above lay the arrays out in (v, el[, vl], nbr) order;
  // any builder that breaks these invariants must fail here, not corrupt
  // reads later.
  auto check_groups = [n](const std::vector<uint32_t>& offsets, const auto& groups,
                          const std::vector<VertexId>& nbrs, auto key) {
    assert(offsets[n] == groups.size());
    uint32_t pos = 0;
    for (uint32_t v = 0; v < n; ++v)
      for (uint32_t k = offsets[v]; k < offsets[v + 1]; ++k) {
        assert(groups[k].begin == pos && groups[k].begin < groups[k].end);
        assert(k == offsets[v] || key(groups[k - 1]) < key(groups[k]));
        for (uint32_t i = groups[k].begin + 1; i < groups[k].end; ++i)
          assert(nbrs[i - 1] < nbrs[i]);
        pos = groups[k].end;
      }
    assert(pos == nbrs.size());
  };
  check_groups(dir->el_group_offsets, dir->el_groups, dir->el_nbrs,
               [](const DataGraph::ElGroup& grp) { return grp.el; });
  check_groups(dir->type_group_offsets, dir->type_groups, dir->type_nbrs,
               [](const DataGraph::TypeGroup& grp) { return std::pair(grp.el, grp.vl); });
#endif
}

void GraphBuilder::BuildSignatures(DataGraph& g, uint32_t n) {
  g.signatures_.assign(n, 0);
  for (Direction d : {Direction::kOut, Direction::kIn}) {
    const DataGraph::AdjDir& a = d == Direction::kOut ? g.out_ : g.in_;
    for (VertexId v = 0; v < n; ++v) {
      uint64_t sig = g.signatures_[v];
      for (uint32_t k = a.el_group_offsets[v]; k < a.el_group_offsets[v + 1]; ++k)
        sig |= DataGraph::SignatureBit(d, a.el_groups[k].el, kInvalidId);
      for (uint32_t k = a.type_group_offsets[v]; k < a.type_group_offsets[v + 1]; ++k)
        sig |= DataGraph::SignatureBit(d, a.type_groups[k].el, a.type_groups[k].vl);
      g.signatures_[v] = sig;
    }
  }
}

void GraphBuilder::CompressAdjDir(DataGraph::AdjDir* dir) {
  DataGraph::PackedDir pd;
  const size_t n = dir->el_group_offsets.size() - 1;
  pd.vertex_begin.reserve(n + 1);
  pd.degree.assign(n, 0);

  // Reused per-section staging: the directory varints can only be emitted
  // once every group's encoded length is known, so values stage in `valbuf`.
  std::vector<uint8_t> dirbuf, valbuf;
  std::vector<SkipEntry> gskips;
  // Groups longer than a block carry skip entries; their absolute offsets are
  // only known when the section lands in `data`, so they stage too.
  std::vector<SkipEntry> pending_skips;
  std::vector<std::pair<uint32_t, uint32_t>> pending;  // (voff, entry count)

  auto emit_section = [&](auto groups, const std::vector<VertexId>& nbrs, bool type_dir) {
    dirbuf.clear();
    valbuf.clear();
    pending_skips.clear();
    pending.clear();
    uint32_t prev_el = 0, prev_vl = 0;
    bool first = true;
    for (const auto& grp : groups) {
      const uint32_t count = grp.end - grp.begin;
      const size_t val_start = valbuf.size();
      gskips.clear();
      EncodeSortedList({nbrs.data() + grp.begin, nbrs.data() + grp.end}, &valbuf,
                       &gskips);
      if (!gskips.empty()) {
        pending.emplace_back(static_cast<uint32_t>(val_start),
                             static_cast<uint32_t>(gskips.size()));
        pending_skips.insert(pending_skips.end(), gskips.begin(), gskips.end());
      }
      if (type_dir) {
        LabelId vl = GroupLabel(grp);
        uint32_t el_delta = first ? grp.el : grp.el - prev_el;
        PutVarint32(&dirbuf, el_delta);
        PutVarint32(&dirbuf, !first && el_delta == 0 ? vl - prev_vl - 1 : vl);
        prev_vl = vl;
      } else {
        PutVarint32(&dirbuf, first ? grp.el : grp.el - prev_el - 1);
      }
      prev_el = grp.el;
      first = false;
      PutVarint32(&dirbuf, count - 1);
      PutVarint32(&dirbuf, static_cast<uint32_t>(valbuf.size() - val_start));
    }
    pd.data.insert(pd.data.end(), dirbuf.begin(), dirbuf.end());
    const size_t vbase = pd.data.size();
    pd.data.insert(pd.data.end(), valbuf.begin(), valbuf.end());
    size_t next_skip = 0;
    for (const auto& [voff, count] : pending) {
      pd.skip_index.emplace_back(static_cast<uint32_t>(vbase + voff),
                                 static_cast<uint32_t>(pd.skips.size()));
      pd.skips.insert(pd.skips.end(), pending_skips.begin() + next_skip,
                      pending_skips.begin() + next_skip + count);
      next_skip += count;
    }
  };

  for (uint32_t v = 0; v < n; ++v) {
    pd.vertex_begin.push_back(static_cast<uint32_t>(pd.data.size()));
    std::span<const DataGraph::ElGroup> egs{
        dir->el_groups.data() + dir->el_group_offsets[v],
        dir->el_groups.data() + dir->el_group_offsets[v + 1]};
    for (const auto& grp : egs) pd.degree[v] += grp.end - grp.begin;
    emit_section(egs, dir->el_nbrs, /*type_dir=*/false);
    emit_section(std::span<const DataGraph::TypeGroup>{
                     dir->type_groups.data() + dir->type_group_offsets[v],
                     dir->type_groups.data() + dir->type_group_offsets[v + 1]},
                 dir->type_nbrs, /*type_dir=*/true);
  }
  // Per-vertex offsets are uint32: one direction's stream past 4GB would
  // need a wider type (and partitioned storage long before that).
  assert(pd.data.size() <= UINT32_MAX - kDecodePad);
  pd.vertex_begin.push_back(static_cast<uint32_t>(pd.data.size()));
  pd.data.insert(pd.data.end(), kDecodePad, 0);
  pd.data.shrink_to_fit();

  dir->packed = std::move(pd);
  dir->el_groups = std::vector<DataGraph::ElGroup>();
  dir->el_nbrs = std::vector<VertexId>();
  dir->type_groups = std::vector<DataGraph::TypeGroup>();
  dir->type_nbrs = std::vector<VertexId>();
}

DataGraph DataGraph::Build(const rdf::Dataset& dataset, TransformMode mode,
                           StorageMode storage) {
  GraphBuilder builder(dataset.dict(), mode, storage);
  const auto& triples = dataset.triples();
  const size_t num_original = dataset.num_original();
  builder.Append({triples.data(), num_original}, /*inferred=*/false);
  builder.Append({triples.data() + num_original, triples.size() - num_original},
                 /*inferred=*/true);
  return builder.Finish();
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

bool DataGraph::HasLabel(VertexId v, LabelId l, bool simple) const {
  auto ls = simple ? simple_labels(v) : labels(v);
  return std::binary_search(ls.begin(), ls.end(), l);
}

namespace {

/// lower_bound over a vertex's el-groups; returns the group's position
/// within the span or npos.
inline size_t FindElGroup(std::span<const DataGraph::ElGroup> groups, EdgeLabelId el) {
  auto it = std::lower_bound(
      groups.begin(), groups.end(), el,
      [](const DataGraph::ElGroup& grp, EdgeLabelId x) { return grp.el < x; });
  if (it == groups.end() || it->el != el) return static_cast<size_t>(-1);
  return static_cast<size_t>(it - groups.begin());
}

inline size_t FindTypeGroup(std::span<const DataGraph::TypeGroup> groups, EdgeLabelId el,
                            LabelId vl) {
  auto it = std::lower_bound(
      groups.begin(), groups.end(), std::make_pair(el, vl),
      [](const DataGraph::TypeGroup& grp, const std::pair<EdgeLabelId, LabelId>& x) {
        return std::tie(grp.el, grp.vl) < std::tie(x.first, x.second);
      });
  if (it == groups.end() || it->el != el || it->vl != vl) return static_cast<size_t>(-1);
  return static_cast<size_t>(it - groups.begin());
}

constexpr size_t kNoGroup = static_cast<size_t>(-1);

// ---- Packed-record walkers (compressed mode). ----
//
// One parsed directory entry. `voff` is the byte offset of the group's value
// encoding relative to its section's value base.
struct PackedGroup {
  EdgeLabelId el;
  LabelId vl;  // kInvalidId in the el directory
  uint32_t count;
  uint32_t voff;
};

/// Walks the el directory starting at `p` (n entries), calling fn(entry) for
/// each. Returns the position one past the directory — the el value base —
/// and leaves the section's total value bytes in *vtotal.
template <typename Fn>
const uint8_t* WalkElDir(const uint8_t* p, uint32_t n, uint32_t* vtotal, Fn&& fn) {
  uint32_t el = 0, voff = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t d, cm1, vb;
    p = GetVarint32(p, &d);
    p = GetVarint32(p, &cm1);
    p = GetVarint32(p, &vb);
    el = i == 0 ? d : el + d + 1;
    fn(PackedGroup{el, kInvalidId, cm1 + 1, voff});
    voff += vb;
  }
  *vtotal = voff;
  return p;
}

template <typename Fn>
const uint8_t* WalkTypeDir(const uint8_t* p, uint32_t n, uint32_t* vtotal, Fn&& fn) {
  uint32_t el = 0, vl = 0, voff = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t d, vd, cm1, vb;
    p = GetVarint32(p, &d);
    p = GetVarint32(p, &vd);
    p = GetVarint32(p, &cm1);
    p = GetVarint32(p, &vb);
    el += d;
    vl = (i != 0 && d == 0) ? vl + vd + 1 : vd;
    fn(PackedGroup{el, vl, cm1 + 1, voff});
    voff += vb;
  }
  *vtotal = voff;
  return p;
}

}  // namespace

uint32_t DataGraph::NumElEntries(const AdjDir& a, VertexId v) {
  return a.el_group_offsets[v + 1] - a.el_group_offsets[v];
}

uint32_t DataGraph::NumTypeEntries(const AdjDir& a, VertexId v) {
  return a.type_group_offsets[v + 1] - a.type_group_offsets[v];
}

/// Membership probe against one encoded group at absolute value offset
/// `abs` in `pd.data`: gallop the (sparse) skip table, decode one block.
bool DataGraph::PackedContains(const PackedDir& pd, size_t abs, uint32_t count,
                               VertexId x) {
  std::span<const SkipEntry> sk{};
  if (count > kSkipBlock) {
    auto it = std::lower_bound(
        pd.skip_index.begin(), pd.skip_index.end(), abs,
        [](const std::pair<uint32_t, uint32_t>& e, size_t off) { return e.first < off; });
    assert(it != pd.skip_index.end() && it->first == abs);
    sk = {pd.skips.data() + it->second, (count - 1) / kSkipBlock};
  }
  return CompressedContains(pd.data.data() + abs, count, sk, x);
}

std::span<const VertexId> DataGraph::Neighbors(VertexId v, Direction d, EdgeLabelId el) const {
  assert(!compressed());
  const AdjDir& a = adj(d);
  auto groups = ElGroups(v, d);
  size_t k = FindElGroup(groups, el);
  if (k == kNoGroup) return {};
  return {a.el_nbrs.data() + groups[k].begin, a.el_nbrs.data() + groups[k].end};
}

std::span<const VertexId> DataGraph::Neighbors(VertexId v, Direction d, EdgeLabelId el,
                                               std::vector<VertexId>& scratch) const {
  const AdjDir& a = adj(d);
  if (!compressed()) return Neighbors(v, d, el);
  const PackedDir& pd = a.packed;
  uint32_t count = 0, voff = 0, vtotal = 0;
  const uint8_t* vbase =
      WalkElDir(pd.data.data() + pd.vertex_begin[v], NumElEntries(a, v), &vtotal,
                [&](const PackedGroup& g) {
                  if (g.el == el) {
                    count = g.count;
                    voff = g.voff;
                  }
                });
  if (count == 0) return {};
  scratch.resize(count);
  DecodeSortedList(vbase + voff, count, scratch.data());
  return {scratch.data(), count};
}

uint32_t DataGraph::NeighborCount(VertexId v, Direction d, EdgeLabelId el) const {
  const AdjDir& a = adj(d);
  if (!compressed()) {
    auto groups = ElGroups(v, d);
    size_t k = FindElGroup(groups, el);
    return k == kNoGroup ? 0 : groups[k].end - groups[k].begin;
  }
  const PackedDir& pd = a.packed;
  uint32_t count = 0, vtotal = 0;
  WalkElDir(pd.data.data() + pd.vertex_begin[v], NumElEntries(a, v), &vtotal,
            [&](const PackedGroup& g) {
              if (g.el == el) count = g.count;
            });
  return count;
}

uint32_t DataGraph::NeighborCount(VertexId v, Direction d, EdgeLabelId el,
                                  LabelId vl) const {
  const AdjDir& a = adj(d);
  if (!compressed()) {
    auto groups = TypeGroups(v, d);
    size_t k = FindTypeGroup(groups, el, vl);
    return k == kNoGroup ? 0 : groups[k].end - groups[k].begin;
  }
  const PackedDir& pd = a.packed;
  uint32_t el_vtotal = 0;
  const uint8_t* el_vbase =
      WalkElDir(pd.data.data() + pd.vertex_begin[v], NumElEntries(a, v), &el_vtotal,
                [](const PackedGroup&) {});
  uint32_t count = 0, t_vtotal = 0;
  WalkTypeDir(el_vbase + el_vtotal, NumTypeEntries(a, v), &t_vtotal,
              [&](const PackedGroup& g) {
                if (g.el == el && g.vl == vl) count = g.count;
              });
  return count;
}

uint32_t DataGraph::NeighborCountWithLabel(VertexId v, Direction d, LabelId vl) const {
  const AdjDir& a = adj(d);
  uint32_t total = 0;
  if (!compressed()) {
    for (const auto& grp : TypeGroups(v, d))
      if (grp.vl == vl) total += grp.end - grp.begin;
    return total;
  }
  const PackedDir& pd = a.packed;
  uint32_t el_vtotal = 0;
  const uint8_t* el_vbase =
      WalkElDir(pd.data.data() + pd.vertex_begin[v], NumElEntries(a, v), &el_vtotal,
                [](const PackedGroup&) {});
  uint32_t t_vtotal = 0;
  WalkTypeDir(el_vbase + el_vtotal, NumTypeEntries(a, v), &t_vtotal,
              [&](const PackedGroup& g) {
                if (g.vl == vl) total += g.count;
              });
  return total;
}

std::span<const VertexId> DataGraph::Neighbors(VertexId v, Direction d, EdgeLabelId el,
                                               LabelId vl,
                                               std::vector<VertexId>& scratch) const {
  const AdjDir& a = adj(d);
  if (!compressed()) return Neighbors(v, d, el, vl);
  const PackedDir& pd = a.packed;
  uint32_t el_vtotal = 0;
  const uint8_t* el_vbase =
      WalkElDir(pd.data.data() + pd.vertex_begin[v], NumElEntries(a, v), &el_vtotal,
                [](const PackedGroup&) {});
  uint32_t count = 0, voff = 0, t_vtotal = 0;
  const uint8_t* t_vbase =
      WalkTypeDir(el_vbase + el_vtotal, NumTypeEntries(a, v), &t_vtotal,
                  [&](const PackedGroup& g) {
                    if (g.el == el && g.vl == vl) {
                      count = g.count;
                      voff = g.voff;
                    }
                  });
  if (count == 0) return {};
  scratch.resize(count);
  DecodeSortedList(t_vbase + voff, count, scratch.data());
  return {scratch.data(), count};
}

std::span<const VertexId> DataGraph::AllNeighbors(VertexId v, Direction d,
                                                  std::vector<VertexId>& scratch) const {
  if (!compressed()) return AllNeighborsRaw(v, d);
  const AdjDir& a = adj(d);
  const PackedDir& pd = a.packed;
  scratch.resize(pd.degree[v]);
  // Two passes: the value base is only known once the directory has been
  // walked, so collect counts first, then decode each group in place.
  size_t pos = 0;
  uint32_t vtotal = 0;
  const uint8_t* vbase =
      WalkElDir(pd.data.data() + pd.vertex_begin[v], NumElEntries(a, v), &vtotal,
                [](const PackedGroup&) {});
  WalkElDir(pd.data.data() + pd.vertex_begin[v], NumElEntries(a, v), &vtotal,
            [&](const PackedGroup& g) {
              DecodeSortedList(vbase + g.voff, g.count, scratch.data() + pos);
              pos += g.count;
            });
  return {scratch.data(), pos};
}

std::span<const VertexId> DataGraph::UnionNeighbors(VertexId v, Direction d,
                                                    std::vector<VertexId>& out) const {
  const AdjDir& a = adj(d);
  if (!compressed()) {
    auto groups = ElGroups(v, d);
    if (groups.empty()) return {};
    if (groups.size() == 1) return GroupNeighbors(d, groups[0]);
    std::vector<std::span<const VertexId>> spans;
    spans.reserve(groups.size());
    for (const auto& grp : groups) spans.push_back(GroupNeighbors(d, grp));
    util::UnionInto(spans, &out);
    return out;
  }
  const uint32_t n_el = NumElEntries(a, v);
  AllNeighbors(v, d, out);
  if (n_el > 1) {
    // Concatenation of a few sorted runs; sort + unique is near-linear here
    // and avoids a second buffer for a k-way merge.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

std::span<const VertexId> DataGraph::NeighborsWithLabel(VertexId v, Direction d,
                                                        LabelId vl,
                                                        std::vector<VertexId>& out) const {
  const AdjDir& a = adj(d);
  if (!compressed()) {
    auto groups = TypeGroups(v, d);
    const TypeGroup* only = nullptr;
    std::vector<std::span<const VertexId>> spans;
    for (const auto& grp : groups) {
      if (grp.vl != vl) continue;
      only = &grp;
      spans.push_back(GroupNeighbors(d, grp));
    }
    if (spans.empty()) return {};
    if (spans.size() == 1) return GroupNeighbors(d, *only);
    util::UnionInto(spans, &out);
    return out;
  }
  const PackedDir& pd = a.packed;
  uint32_t el_vtotal = 0;
  const uint8_t* el_vbase =
      WalkElDir(pd.data.data() + pd.vertex_begin[v], NumElEntries(a, v), &el_vtotal,
                [](const PackedGroup&) {});
  uint32_t total = 0, matches = 0, t_vtotal = 0;
  const uint8_t* t_vbase =
      WalkTypeDir(el_vbase + el_vtotal, NumTypeEntries(a, v), &t_vtotal,
                  [&](const PackedGroup& g) {
                    if (g.vl == vl) {
                      total += g.count;
                      ++matches;
                    }
                  });
  out.resize(total);
  size_t pos = 0;
  WalkTypeDir(el_vbase + el_vtotal, NumTypeEntries(a, v), &t_vtotal,
              [&](const PackedGroup& g) {
                if (g.vl != vl) return;
                DecodeSortedList(t_vbase + g.voff, g.count, out.data() + pos);
                pos += g.count;
              });
  if (matches > 1) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

std::span<const VertexId> DataGraph::Neighbors(VertexId v, Direction d, EdgeLabelId el,
                                               LabelId vl) const {
  assert(!compressed());
  const AdjDir& a = adj(d);
  auto groups = TypeGroups(v, d);
  auto it = std::lower_bound(groups.begin(), groups.end(), std::make_pair(el, vl),
                             [](const TypeGroup& grp, const std::pair<EdgeLabelId, LabelId>& x) {
                               return std::tie(grp.el, grp.vl) < std::tie(x.first, x.second);
                             });
  if (it == groups.end() || it->el != el || it->vl != vl) return {};
  return {a.type_nbrs.data() + it->begin, a.type_nbrs.data() + it->end};
}

bool DataGraph::HasEdge(VertexId from, VertexId to, EdgeLabelId el) const {
  if (!compressed()) {
    auto nbrs = Neighbors(from, Direction::kOut, el);
    return std::binary_search(nbrs.begin(), nbrs.end(), to);
  }
  // Compressed membership: gallop the skip table, decode one block at most.
  const PackedDir& pd = out_.packed;
  uint32_t count = 0, voff = 0, vtotal = 0;
  const uint8_t* vbase =
      WalkElDir(pd.data.data() + pd.vertex_begin[from], NumElEntries(out_, from),
                &vtotal, [&](const PackedGroup& g) {
                  if (g.el == el) {
                    count = g.count;
                    voff = g.voff;
                  }
                });
  if (count == 0) return false;
  return PackedContains(pd, static_cast<size_t>(vbase - pd.data.data()) + voff, count,
                        to);
}

void DataGraph::EdgeLabelsBetween(VertexId from, VertexId to,
                                  std::vector<EdgeLabelId>* out) const {
  out->clear();
  if (!compressed()) {
    for (const ElGroup& grp : ElGroups(from, Direction::kOut)) {
      std::span<const VertexId> nbrs{out_.el_nbrs.data() + grp.begin,
                                     out_.el_nbrs.data() + grp.end};
      if (std::binary_search(nbrs.begin(), nbrs.end(), to)) out->push_back(grp.el);
    }
    return;
  }
  const PackedDir& pd = out_.packed;
  const uint8_t* rec = pd.data.data() + pd.vertex_begin[from];
  const uint32_t n_el = NumElEntries(out_, from);
  uint32_t vtotal = 0;
  const uint8_t* vbase = WalkElDir(rec, n_el, &vtotal, [](const PackedGroup&) {});
  const size_t base = static_cast<size_t>(vbase - pd.data.data());
  WalkElDir(rec, n_el, &vtotal, [&](const PackedGroup& g) {
    if (PackedContains(pd, base + g.voff, g.count, to)) out->push_back(g.el);
  });
}

DataGraph::MemoryBreakdown DataGraph::MemoryUsage() const {
  auto bytes_of = [](const auto& v) { return v.size() * sizeof(v[0]); };
  MemoryBreakdown m;
  m.vertex_labels = bytes_of(label_offsets_) + bytes_of(labels_) +
                    bytes_of(simple_label_offsets_) + bytes_of(simple_labels_);
  m.inverse_label_index = bytes_of(inv_label_offsets_) + bytes_of(inv_label_vertices_);
  for (const AdjDir* a : {&out_, &in_}) {
    m.adjacency_groups += bytes_of(a->el_group_offsets) + bytes_of(a->el_groups) +
                          bytes_of(a->type_group_offsets) + bytes_of(a->type_groups);
    m.adjacency_neighbors += bytes_of(a->el_nbrs) + bytes_of(a->type_nbrs);
    const PackedDir& pd = a->packed;
    m.adjacency_compressed += bytes_of(pd.data) + bytes_of(pd.vertex_begin) +
                              bytes_of(pd.degree) + bytes_of(pd.skip_index);
    m.skip_tables += bytes_of(pd.skips);
  }
  m.signatures = bytes_of(signatures_);
  m.predicate_index = bytes_of(pred_subj_offsets_) + bytes_of(pred_subjects_) +
                      bytes_of(pred_obj_offsets_) + bytes_of(pred_objects_);
  m.schema = bytes_of(schema_subclass_);
  // Hash maps are estimated: per-node payload + two pointers, plus the
  // bucket array. Close enough for the startup report; the gated
  // comparisons only use the exact adjacency fields.
  auto map_bytes = [](const auto& map) {
    using Node = typename std::remove_reference_t<decltype(map)>::value_type;
    return map.size() * (sizeof(Node) + 2 * sizeof(void*)) +
           map.bucket_count() * sizeof(void*);
  };
  m.term_maps = bytes_of(vertex_terms_) + bytes_of(label_terms_) + bytes_of(el_terms_) +
                map_bytes(term_to_vertex_) + map_bytes(term_to_label_) +
                map_bytes(term_to_el_);
  return m;
}

uint32_t DataGraph::Degree(VertexId v, Direction d) const {
  if (compressed()) return adj(d).packed.degree[v];
  auto groups = ElGroups(v, d);
  if (groups.empty()) return 0;
  return groups.back().end - groups.front().begin;
}

std::optional<VertexId> DataGraph::VertexOfTerm(TermId t) const {
  auto it = term_to_vertex_.find(t);
  if (it == term_to_vertex_.end()) return std::nullopt;
  return it->second;
}

std::optional<LabelId> DataGraph::LabelOfTerm(TermId t) const {
  auto it = term_to_label_.find(t);
  if (it == term_to_label_.end()) return std::nullopt;
  return it->second;
}

std::optional<EdgeLabelId> DataGraph::EdgeLabelOfTerm(TermId t) const {
  auto it = term_to_el_.find(t);
  if (it == term_to_el_.end()) return std::nullopt;
  return it->second;
}

}  // namespace turbo::graph
