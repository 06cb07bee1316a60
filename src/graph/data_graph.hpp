// Labeled data graph with the paper's in-memory layout (Figure 9):
//
//  * inverse vertex-label list  — for each vertex label, the sorted list of
//    vertices carrying it (CSR: end offsets + vertex ids);
//  * adjacency lists            — for each vertex and direction, neighbours
//    grouped by *neighbour type*, i.e. the pair (edge label, vertex label),
//    each group sorted by neighbour id; plus edge-label-only groups used for
//    blank-vertex-label lookups and for direct-transformed graphs;
//  * predicate index            — for each edge label, sorted subject ids and
//    sorted object ids (Section 4.2, used when a query vertex has neither
//    label nor ID).
//
// One DataGraph instance is produced per transformation mode:
//  * direct transformation (§3.2): every subject/object becomes a vertex,
//    every triple an edge, vertex label sets are empty (a query vertex that
//    names a constant matches via the ID attribute instead);
//  * type-aware transformation (§4.1, Def. 3): rdf:type / rdfs:subClassOf
//    triples are folded into vertex label sets (two-attribute vertex model),
//    and the corresponding vertices/edges disappear from the graph.
//
// Both the full-entailment label set L(v) (types from original + inferred
// triples) and the simple-entailment set L_simple(v) (original only, §4.2)
// are stored.
#pragma once

#include <cassert>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/compressed_adj.hpp"
#include "rdf/dataset.hpp"
#include "util/common.hpp"
#include "util/status.hpp"

namespace turbo::graph {

/// Edge direction relative to a vertex.
enum class Direction : uint8_t { kOut = 0, kIn = 1 };

inline Direction Reverse(Direction d) {
  return d == Direction::kOut ? Direction::kIn : Direction::kOut;
}

/// Which RDF-to-graph transformation builds the DataGraph.
enum class TransformMode { kDirect, kTypeAware };

/// How neighbor lists are stored. kUncompressed keeps the plain uint32 CSR
/// arrays and group structs (zero-copy spans, the default). kCompressed
/// replaces the group arrays *and* the neighbor arrays with one byte stream
/// per direction: each vertex owns a record holding a varint group directory
/// (edge label, count, encoded length per group) followed by the groups'
/// delta + group-varint value encodings (compressed_adj.hpp), addressed by a
/// single u32 offset per vertex. Accessors decode into caller-provided
/// scratch buffers. Counts, degrees, and the signature index are identical
/// across modes; the zero-copy span accessors are uncompressed-only.
enum class StorageMode { kUncompressed, kCompressed };

/// Data graph statistics (drives Table 1).
struct GraphSizeStats {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t num_vertex_labels = 0;
  uint64_t num_edge_labels = 0;
};

class DataGraph {
 public:
  /// Neighbour-type group: neighbours of a vertex reached over edge label
  /// `el` that carry vertex label `vl`.
  struct TypeGroup {
    EdgeLabelId el;
    LabelId vl;
    uint32_t begin;  ///< range in type_nbrs_
    uint32_t end;
  };
  /// Edge-label-only group.
  struct ElGroup {
    EdgeLabelId el;
    uint32_t begin;  ///< range in el_nbrs_
    uint32_t end;
  };

  /// Per-structure byte accounting (approximate for the hash maps). The
  /// `adjacency_*` fields are the storage-mode comparison surface: in
  /// compressed mode `adjacency_neighbors` is zero and the encoded streams
  /// show up under `adjacency_compressed` + `skip_tables`.
  struct MemoryBreakdown {
    size_t vertex_labels = 0;       ///< label CSRs, full + simple entailment
    size_t inverse_label_index = 0;
    size_t adjacency_groups = 0;    ///< El/TypeGroup arrays + per-vertex offsets
    size_t adjacency_neighbors = 0; ///< plain uint32 neighbor arrays
    size_t adjacency_compressed = 0;///< packed records + per-vertex offsets/degrees
    size_t skip_tables = 0;
    size_t signatures = 0;
    size_t predicate_index = 0;
    size_t term_maps = 0;
    size_t schema = 0;
    /// Adjacency + signature storage — the footprint the compressed mode
    /// is gated on (bench_storage).
    size_t adjacency_total() const {
      return adjacency_groups + adjacency_neighbors + adjacency_compressed +
             skip_tables + signatures;
    }
    size_t total() const {
      return vertex_labels + inverse_label_index + predicate_index + term_maps +
             schema + adjacency_total();
    }
  };

  /// Builds a DataGraph from a dataset under the given transformation.
  static DataGraph Build(const rdf::Dataset& dataset, TransformMode mode,
                         StorageMode storage = StorageMode::kUncompressed);

  // ---- Counts. ----
  uint32_t num_vertices() const { return static_cast<uint32_t>(vertex_terms_.size()); }
  uint64_t num_edges() const { return num_edges_; }
  uint32_t num_vertex_labels() const { return static_cast<uint32_t>(label_terms_.size()); }
  uint32_t num_edge_labels() const { return static_cast<uint32_t>(el_terms_.size()); }
  GraphSizeStats SizeStats() const {
    return {num_vertices(), num_edges(), num_vertex_labels(), num_edge_labels()};
  }
  TransformMode mode() const { return mode_; }
  StorageMode storage_mode() const { return storage_; }
  bool compressed() const { return storage_ == StorageMode::kCompressed; }
  MemoryBreakdown MemoryUsage() const;

  // ---- Vertex labels. ----
  /// Full-entailment label set L(v), sorted ascending.
  std::span<const LabelId> labels(VertexId v) const {
    return {labels_.data() + label_offsets_[v], labels_.data() + label_offsets_[v + 1]};
  }
  /// Simple-entailment label set L_simple(v) (§4.2), sorted ascending.
  std::span<const LabelId> simple_labels(VertexId v) const {
    return {simple_labels_.data() + simple_label_offsets_[v],
            simple_labels_.data() + simple_label_offsets_[v + 1]};
  }
  bool HasLabel(VertexId v, LabelId l, bool simple = false) const;

  /// Inverse vertex-label list: sorted vertices carrying label `l`.
  std::span<const VertexId> VerticesWithLabel(LabelId l) const {
    return {inv_label_vertices_.data() + inv_label_offsets_[l],
            inv_label_vertices_.data() + inv_label_offsets_[l + 1]};
  }

  // ---- Adjacency. ----
  /// All (edge label)-groups of `v` in direction `d`, sorted by edge label.
  /// Zero-copy; valid only in uncompressed mode (compressed graphs have no
  /// materialized group structs — use the decode-aware accessors below).
  std::span<const ElGroup> ElGroups(VertexId v, Direction d) const {
    assert(!compressed());
    const AdjDir& a = adj(d);
    return {a.el_groups.data() + a.el_group_offsets[v],
            a.el_groups.data() + a.el_group_offsets[v + 1]};
  }
  /// All neighbour-type groups of `v` in direction `d`, sorted by (el, vl).
  /// Uncompressed mode only.
  std::span<const TypeGroup> TypeGroups(VertexId v, Direction d) const {
    assert(!compressed());
    const AdjDir& a = adj(d);
    return {a.type_groups.data() + a.type_group_offsets[v],
            a.type_groups.data() + a.type_group_offsets[v + 1]};
  }
  /// Neighbours of `v` over edge label `el` (sorted, duplicate-free).
  /// Zero-copy; valid only in uncompressed mode.
  std::span<const VertexId> Neighbors(VertexId v, Direction d, EdgeLabelId el) const;
  /// Neighbours of `v` over edge label `el` carrying vertex label `vl`
  /// (adj(v, (el, vl)) in Figure 9), sorted. Uncompressed mode only.
  std::span<const VertexId> Neighbors(VertexId v, Direction d, EdgeLabelId el,
                                      LabelId vl) const;

  // Decode-aware variants: work in both storage modes. Uncompressed graphs
  // return the zero-copy span and never touch `scratch`; compressed graphs
  // decode the group into `scratch` and return a span over it, so the span
  // is invalidated by the next decode into the same buffer.
  std::span<const VertexId> Neighbors(VertexId v, Direction d, EdgeLabelId el,
                                      std::vector<VertexId>& scratch) const;
  std::span<const VertexId> Neighbors(VertexId v, Direction d, EdgeLabelId el,
                                      LabelId vl, std::vector<VertexId>& scratch) const;

  /// Size of adj(v, el) / adj(v, (el, vl)) without decoding any values (the
  /// compressed directory stores counts explicitly).
  uint32_t NeighborCount(VertexId v, Direction d, EdgeLabelId el) const;
  uint32_t NeighborCount(VertexId v, Direction d, EdgeLabelId el, LabelId vl) const;
  /// Sum of adj(v, (el, vl)) sizes over all edge labels (a vertex reachable
  /// over several predicates counts once per predicate).
  uint32_t NeighborCountWithLabel(VertexId v, Direction d, LabelId vl) const;

  /// Sorted, duplicate-free union of `v`'s neighbours across every edge
  /// label (blank-predicate queries). Materializes into `out` and returns a
  /// span over it, except in the single-group uncompressed case, which is
  /// zero-copy.
  std::span<const VertexId> UnionNeighbors(VertexId v, Direction d,
                                           std::vector<VertexId>& out) const;
  /// Sorted, duplicate-free union of adj(v, (el, vl)) over all edge labels
  /// `el` (blank-predicate queries against a labeled query vertex).
  std::span<const VertexId> NeighborsWithLabel(VertexId v, Direction d, LabelId vl,
                                               std::vector<VertexId>& out) const;

  /// All neighbours of `v` in direction `d`; may contain a vertex multiple
  /// times when connected by several predicates. Zero-copy, uncompressed
  /// mode only. Relies on a vertex's el-groups covering one contiguous range
  /// of el_nbrs_ — an invariant of GraphBuilder::BuildAdjDir's (v, el, nbr)
  /// row order, debug-asserted there.
  std::span<const VertexId> AllNeighborsRaw(VertexId v, Direction d) const {
    assert(!compressed());
    const AdjDir& a = adj(d);
    uint32_t b = a.el_group_offsets[v] == a.el_group_offsets[v + 1]
                     ? 0
                     : a.el_groups[a.el_group_offsets[v]].begin;
    uint32_t e = a.el_group_offsets[v] == a.el_group_offsets[v + 1]
                     ? 0
                     : a.el_groups[a.el_group_offsets[v + 1] - 1].end;
    return {a.el_nbrs.data() + b, a.el_nbrs.data() + e};
  }
  /// Decode-aware AllNeighborsRaw (same multiplicity caveat).
  std::span<const VertexId> AllNeighbors(VertexId v, Direction d,
                                         std::vector<VertexId>& scratch) const;

  /// Neighbour span of an ElGroup / TypeGroup previously obtained for the
  /// same direction. Zero-copy; uncompressed mode only.
  std::span<const VertexId> GroupNeighbors(Direction d, const ElGroup& grp) const {
    assert(!compressed());
    const AdjDir& a = adj(d);
    return {a.el_nbrs.data() + grp.begin, a.el_nbrs.data() + grp.end};
  }
  std::span<const VertexId> GroupNeighbors(Direction d, const TypeGroup& grp) const {
    assert(!compressed());
    const AdjDir& a = adj(d);
    return {a.type_nbrs.data() + grp.begin, a.type_nbrs.data() + grp.end};
  }

  // ---- Neighborhood signatures. ----
  /// 64-bit hashed incidence bitmap over the vertex's neighbour types: one
  /// bit per (direction, edge label, neighbour vertex label) group and one
  /// per (direction, edge label, *) group. A candidate vertex can only match
  /// a query vertex if its signature contains every bit the query vertex
  /// requires (false positives possible, false negatives not), so a cheap
  /// AND-compare rejects candidates before any adjacency decode.
  uint64_t signature(VertexId v) const { return signatures_[v]; }
  /// The signature bit for one neighbour-type requirement; `vl == kInvalidId`
  /// addresses the label-blind (direction, edge label, *) bit.
  static uint64_t SignatureBit(Direction d, EdgeLabelId el, LabelId vl) {
    uint64_t x = (static_cast<uint64_t>(el) << 33) ^ (static_cast<uint64_t>(vl) << 1) ^
                 static_cast<uint64_t>(d);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return 1ull << (x & 63);
  }

  /// True if edge from -> to with label `el` exists.
  bool HasEdge(VertexId from, VertexId to, EdgeLabelId el) const;
  /// Collects all edge labels on edges from -> to.
  void EdgeLabelsBetween(VertexId from, VertexId to, std::vector<EdgeLabelId>* out) const;

  /// Number of incident edges (with multiplicity per edge label) in `d`.
  uint32_t Degree(VertexId v, Direction d) const;
  /// Number of distinct neighbour types (el, vl) of `v` in `d`.
  uint32_t NumNeighborTypes(VertexId v, Direction d) const {
    const AdjDir& a = adj(d);
    return a.type_group_offsets[v + 1] - a.type_group_offsets[v];
  }
  /// Number of distinct edge labels incident to `v` in `d`.
  uint32_t NumEdgeLabels(VertexId v, Direction d) const {
    const AdjDir& a = adj(d);
    return a.el_group_offsets[v + 1] - a.el_group_offsets[v];
  }

  // ---- Predicate index (§4.2). ----
  std::span<const VertexId> SubjectsOf(EdgeLabelId el) const {
    return {pred_subjects_.data() + pred_subj_offsets_[el],
            pred_subjects_.data() + pred_subj_offsets_[el + 1]};
  }
  std::span<const VertexId> ObjectsOf(EdgeLabelId el) const {
    return {pred_objects_.data() + pred_obj_offsets_[el],
            pred_objects_.data() + pred_obj_offsets_[el + 1]};
  }

  /// rdfs:subClassOf triples dropped by the type-aware transformation
  /// (Definition 3 folds them into labels), retained at term level so the
  /// SPARQL layer can still answer schema patterns. Empty in direct mode.
  std::span<const std::pair<TermId, TermId>> SubclassTriples() const {
    return schema_subclass_;
  }

  // ---- Term mapping tables (Figures 4a/4b, 7a/7b/7c). ----
  TermId VertexTerm(VertexId v) const { return vertex_terms_[v]; }
  TermId LabelTerm(LabelId l) const { return label_terms_[l]; }
  TermId EdgeLabelTerm(EdgeLabelId el) const { return el_terms_[el]; }
  std::optional<VertexId> VertexOfTerm(TermId t) const;
  std::optional<LabelId> LabelOfTerm(TermId t) const;
  std::optional<EdgeLabelId> EdgeLabelOfTerm(TermId t) const;

 private:
  /// Compressed-mode adjacency for one direction. `data` holds one record
  /// per vertex at data[vertex_begin[v], vertex_begin[v+1]):
  ///
  ///   [el directory]   per el-group: varint(el delta), varint(count - 1),
  ///                    varint(encoded byte length)
  ///   [el values]      per-group EncodeSortedList outputs, concatenated
  ///   [type directory] per type-group: varint(el delta), varint(vl [delta]),
  ///                    varint(count - 1), varint(encoded byte length)
  ///   [type values]    concatenated encodings
  ///
  /// First deltas are absolute; el deltas are (el - prev - 1) in the el
  /// directory (strictly ascending) and (el - prev) in the type directory
  /// (ties allowed); vl is (vl - prev - 1) when the el repeats, absolute
  /// otherwise. Entry counts come from el/type_group_offsets, which stay
  /// resident. Groups longer than kSkipBlock register their skip entries in
  /// `skips`, located via `skip_index` (absolute value-byte offset of the
  /// group -> first skip slot; the entry count is derivable from the group
  /// count). `data` ends with kDecodePad zero bytes.
  struct PackedDir {
    std::vector<uint8_t> data;
    std::vector<uint32_t> vertex_begin;  // n+1 (last excludes the pad)
    std::vector<uint32_t> degree;        // n, = sum of el-group counts
    std::vector<SkipEntry> skips;
    std::vector<std::pair<uint32_t, uint32_t>> skip_index;
  };
  struct AdjDir {
    std::vector<uint32_t> el_group_offsets;    // per vertex -> range in el_groups
    std::vector<ElGroup> el_groups;
    std::vector<VertexId> el_nbrs;
    std::vector<uint32_t> type_group_offsets;  // per vertex -> range in type_groups
    std::vector<TypeGroup> type_groups;
    std::vector<VertexId> type_nbrs;
    // Compressed mode: the five arrays above except the offsets are freed
    // and `packed` holds the per-vertex records (offsets still provide the
    // directory entry counts and NumEdgeLabels/NumNeighborTypes).
    PackedDir packed;
  };
  const AdjDir& adj(Direction d) const { return d == Direction::kOut ? out_ : in_; }

  static uint32_t NumElEntries(const AdjDir& a, VertexId v);
  static uint32_t NumTypeEntries(const AdjDir& a, VertexId v);
  static bool PackedContains(const PackedDir& pd, size_t abs, uint32_t count, VertexId x);

  TransformMode mode_ = TransformMode::kTypeAware;
  StorageMode storage_ = StorageMode::kUncompressed;
  uint64_t num_edges_ = 0;

  // Vertex label CSR (full + simple entailment).
  std::vector<uint32_t> label_offsets_;
  std::vector<LabelId> labels_;
  std::vector<uint32_t> simple_label_offsets_;
  std::vector<LabelId> simple_labels_;

  // Inverse vertex-label list.
  std::vector<uint32_t> inv_label_offsets_;
  std::vector<VertexId> inv_label_vertices_;

  AdjDir out_;
  AdjDir in_;

  /// Per-vertex neighborhood signature (see signature()).
  std::vector<uint64_t> signatures_;

  std::vector<std::pair<TermId, TermId>> schema_subclass_;

  // Predicate index.
  std::vector<uint32_t> pred_subj_offsets_;
  std::vector<VertexId> pred_subjects_;
  std::vector<uint32_t> pred_obj_offsets_;
  std::vector<VertexId> pred_objects_;

  // Term maps.
  std::vector<TermId> vertex_terms_;
  std::vector<TermId> label_terms_;
  std::vector<TermId> el_terms_;
  std::unordered_map<TermId, VertexId> term_to_vertex_;
  std::unordered_map<TermId, LabelId> term_to_label_;
  std::unordered_map<TermId, EdgeLabelId> term_to_el_;

  friend class GraphBuilder;
  // Snapshot persistence (graph/graph_snapshot.cpp) reads/writes the raw
  // structures so compressed graphs reload without re-encoding.
  friend void SerializeDataGraph(const DataGraph& g, std::string* out);
  friend util::Result<DataGraph> DeserializeDataGraph(std::string_view payload);
};

/// Incremental DataGraph construction: triples arrive in dataset order as
/// encoded chunks (classification + id assignment happen per chunk, the CSR
/// is built once in Finish). This is what lets the parallel load pipeline fuse
/// graph building into ingestion — each remapped chunk is consumed as soon
/// as it exists instead of re-scanning the finished dataset. The referenced
/// dictionary must already contain every id appearing in a chunk at the
/// time of its Append. DataGraph::Build is the one-shot wrapper.
class GraphBuilder {
 public:
  GraphBuilder(const rdf::Dictionary& dict, TransformMode mode,
               StorageMode storage = StorageMode::kUncompressed);

  /// Consumes one chunk of encoded triples; `inferred` marks the chunk as
  /// part of the inferred region (affects L_simple, §4.2). Chunks must
  /// arrive in dataset order, original before inferred.
  void Append(std::span<const rdf::Triple> chunk, bool inferred);

  /// Finalizes the CSR structures. The builder is spent afterwards.
  ///
  /// O(E) apart from renumbering ids into term-id order (a sort of the
  /// vertex, label and edge-label terms): every array is then sized by a
  /// counting pass and filled by a stable counting scatter, with no
  /// comparison sort over edges or rows. The result is deterministic and
  /// depends only on the set of triples in each region (original /
  /// inferred) and on the dictionary: any input order, duplicate triples
  /// and any split into Append chunks give identical SerializeDataGraph
  /// bytes.
  DataGraph Finish();

 private:
  struct EdgeTriple {
    VertexId s;
    EdgeLabelId el;
    VertexId o;
  };

  void ResolveSchemaPredicates();
  static void BuildAdjDir(const DataGraph& g, const std::vector<EdgeTriple>& rows,
                          uint32_t n, DataGraph::AdjDir* dir);
  static void BuildSignatures(DataGraph& g, uint32_t n);
  static void CompressAdjDir(DataGraph::AdjDir* dir);

  const rdf::Dictionary& dict_;
  TransformMode mode_;
  DataGraph g_;
  std::vector<EdgeTriple> edges_;
  std::vector<std::pair<VertexId, LabelId>> label_pairs_;
  std::vector<std::pair<VertexId, LabelId>> simple_label_pairs_;
  std::optional<TermId> type_p_;
  std::optional<TermId> subclass_p_;
};

}  // namespace turbo::graph
