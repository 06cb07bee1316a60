// Tests for the data-graph layout (Figure 9) and the direct / type-aware
// transformations (Figures 4 and 7, Definition 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/data_graph.hpp"
#include "graph/graph_snapshot.hpp"
#include "rdf/reasoner.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workload/lubm.hpp"

namespace turbo::graph {
namespace {

using testing::MakeDataset;
using testing::Spec;
using testing::TestGraph;

/// The paper's running example: Figure 3 RDF graph.
rdf::Dataset Figure3Dataset() {
  rdf::Dataset ds = MakeDataset({
      {"student1", "type", "GraduateStudent"},
      {"GraduateStudent", "subclass", "Student"},
      {"student1", "undergraduateDegreeFrom", "univ1"},
      {"univ1", "type", "University"},
      {"student1", "memberOf", "dept1.univ1"},
      {"dept1.univ1", "type", "Department"},
      {"dept1.univ1", "subOrganizationOf", "univ1"},
      {"student1", "telephone", "012-345-6789"},
      {"student1", "emailAddress", "john@dept1.univ1.edu"},
  });
  return ds;
}

rdf::Dataset Figure3Closed() {
  rdf::Dataset ds = Figure3Dataset();
  rdf::MaterializeInference(&ds);  // adds (student1 type Student)
  return ds;
}

TEST(DirectTransform, Figure4Counts) {
  TestGraph t(Figure3Dataset(), TransformMode::kDirect);
  // Figure 4a: 9 vertices (incl. type objects); all 9 triples are edges;
  // Figure 4b: 7 edge labels; no vertex labels.
  EXPECT_EQ(t.g().num_vertices(), 9u);
  EXPECT_EQ(t.g().num_edges(), 9u);
  EXPECT_EQ(t.g().num_edge_labels(), 7u);
  EXPECT_EQ(t.g().num_vertex_labels(), 0u);
}

TEST(DirectTransform, TypeObjectsAreVertices) {
  TestGraph t(Figure3Dataset(), TransformMode::kDirect);
  EXPECT_NE(t.vertex("GraduateStudent"), kInvalidId);
  EXPECT_NE(t.vertex("Student"), kInvalidId);
}

TEST(TypeAwareTransform, Figure7Counts) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  // Figure 7: 5 vertices, 5 edges, 4 vertex labels, 5 edge labels.
  EXPECT_EQ(t.g().num_vertices(), 5u);
  EXPECT_EQ(t.g().num_edges(), 5u);
  EXPECT_EQ(t.g().num_vertex_labels(), 4u);
  EXPECT_EQ(t.g().num_edge_labels(), 5u);
}

TEST(TypeAwareTransform, TypeObjectsAreNotVertices) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  EXPECT_EQ(t.vertex("GraduateStudent"), kInvalidId);
  EXPECT_EQ(t.vertex("Student"), kInvalidId);
  EXPECT_NE(t.vertex("student1"), kInvalidId);
}

TEST(TypeAwareTransform, TwoAttributeLabels) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  VertexId s = t.vertex("student1");
  auto ls = t.g().labels(s);
  // L(student1) = {GraduateStudent, Student} after inference.
  EXPECT_EQ(ls.size(), 2u);
  EXPECT_TRUE(t.g().HasLabel(s, t.label("GraduateStudent")));
  EXPECT_TRUE(t.g().HasLabel(s, t.label("Student")));
}

TEST(TypeAwareTransform, SimpleEntailmentLabels) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  VertexId s = t.vertex("student1");
  // L_simple keeps only the asserted type (§4.2).
  EXPECT_EQ(t.g().simple_labels(s).size(), 1u);
  EXPECT_TRUE(t.g().HasLabel(s, t.label("GraduateStudent"), /*simple=*/true));
  EXPECT_FALSE(t.g().HasLabel(s, t.label("Student"), /*simple=*/true));
}

TEST(TypeAwareTransform, LiteralsAreLabellessVertices) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  auto phone_term = t.dataset().dict().FindIri(testing::TestIri("012-345-6789"));
  ASSERT_TRUE(phone_term.has_value());
  auto v = t.g().VertexOfTerm(*phone_term);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(t.g().labels(*v).empty());
}

TEST(InverseLabelList, ListsAreSortedAndComplete) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  auto students = t.g().VerticesWithLabel(t.label("Student"));
  ASSERT_EQ(students.size(), 1u);
  EXPECT_EQ(students[0], t.vertex("student1"));
  auto unis = t.g().VerticesWithLabel(t.label("University"));
  ASSERT_EQ(unis.size(), 1u);
  EXPECT_EQ(unis[0], t.vertex("univ1"));
}

TEST(Adjacency, NeighborsByEdgeLabel) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  auto nbrs = t.g().Neighbors(t.vertex("student1"), Direction::kOut,
                              t.el("undergraduateDegreeFrom"));
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0], t.vertex("univ1"));
}

TEST(Adjacency, NeighborsByNeighborType) {
  // adj(v, (el, vl)) from Figure 9b.
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  auto nbrs = t.g().Neighbors(t.vertex("student1"), Direction::kOut,
                              t.el("undergraduateDegreeFrom"), t.label("University"));
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0], t.vertex("univ1"));
  // Wrong label: empty.
  EXPECT_TRUE(t.g()
                  .Neighbors(t.vertex("student1"), Direction::kOut,
                             t.el("undergraduateDegreeFrom"), t.label("Department"))
                  .empty());
}

TEST(Adjacency, IncomingDirection) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  auto in = t.g().Neighbors(t.vertex("univ1"), Direction::kIn, t.el("subOrganizationOf"),
                            t.label("Department"));
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0], t.vertex("dept1.univ1"));
}

TEST(Adjacency, GroupCounts) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  VertexId s = t.vertex("student1");
  // student1 has 4 outgoing edge labels; only 2 neighbours carry labels
  // (univ1, dept1), so 2 neighbour-type groups. (The paper's Figure 9 keeps
  // explicit (el, _) groups for label-less neighbours; we serve those via
  // the edge-label-only groups — an equivalent lookup path.)
  EXPECT_EQ(t.g().NumEdgeLabels(s, Direction::kOut), 4u);
  EXPECT_EQ(t.g().NumNeighborTypes(s, Direction::kOut), 2u);
  EXPECT_EQ(t.g().Degree(s, Direction::kOut), 4u);
  EXPECT_EQ(t.g().Degree(s, Direction::kIn), 0u);
}

TEST(Adjacency, MultiLabelNeighborAppearsInEachGroup) {
  TestGraph t({{"a", "knows", "b"},
               {"b", "type", "X"},
               {"b", "type", "Y"}},
              TransformMode::kTypeAware);
  auto via_x = t.g().Neighbors(t.vertex("a"), Direction::kOut, t.el("knows"), t.label("X"));
  auto via_y = t.g().Neighbors(t.vertex("a"), Direction::kOut, t.el("knows"), t.label("Y"));
  ASSERT_EQ(via_x.size(), 1u);
  ASSERT_EQ(via_y.size(), 1u);
  EXPECT_EQ(via_x[0], via_y[0]);
  EXPECT_EQ(t.g().NumNeighborTypes(t.vertex("a"), Direction::kOut), 2u);
}

TEST(Adjacency, HasEdgeAndLabelsBetween) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  EXPECT_TRUE(
      t.g().HasEdge(t.vertex("dept1.univ1"), t.vertex("univ1"), t.el("subOrganizationOf")));
  EXPECT_FALSE(
      t.g().HasEdge(t.vertex("univ1"), t.vertex("dept1.univ1"), t.el("subOrganizationOf")));
  std::vector<EdgeLabelId> els;
  t.g().EdgeLabelsBetween(t.vertex("dept1.univ1"), t.vertex("univ1"), &els);
  ASSERT_EQ(els.size(), 1u);
  EXPECT_EQ(els[0], t.el("subOrganizationOf"));
}

TEST(Adjacency, ParallelEdgesListAllLabels) {
  TestGraph t({{"a", "p", "b"}, {"a", "q", "b"}, {"a", "type", "T"}});
  std::vector<EdgeLabelId> els;
  t.g().EdgeLabelsBetween(t.vertex("a"), t.vertex("b"), &els);
  EXPECT_EQ(els.size(), 2u);
}

TEST(Adjacency, AllNeighborsRawSpansEveryEdge) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  auto raw = t.g().AllNeighborsRaw(t.vertex("student1"), Direction::kOut);
  EXPECT_EQ(raw.size(), 4u);
}

TEST(PredicateIndex, SubjectsAndObjects) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  auto subj = t.g().SubjectsOf(t.el("memberOf"));
  ASSERT_EQ(subj.size(), 1u);
  EXPECT_EQ(subj[0], t.vertex("student1"));
  auto obj = t.g().ObjectsOf(t.el("subOrganizationOf"));
  ASSERT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj[0], t.vertex("univ1"));
}

TEST(Build, DuplicateTriplesAreDeduplicated) {
  TestGraph t({{"a", "p", "b"}, {"a", "p", "b"}, {"a", "p", "b"}});
  EXPECT_EQ(t.g().num_edges(), 1u);
  EXPECT_EQ(t.g().Neighbors(t.vertex("a"), Direction::kOut, t.el("p")).size(), 1u);
}

TEST(Build, TypeAwareShrinksEdgeCount) {
  // The Table 1 property: |E| type-aware = |E| direct - (#type + #subclass).
  rdf::Dataset ds = Figure3Closed();
  DataGraph direct = DataGraph::Build(ds, TransformMode::kDirect);
  DataGraph aware = DataGraph::Build(ds, TransformMode::kTypeAware);
  // Closed dataset: 9 original + 1 inferred (student1 type Student) = 10.
  // Type triples: 4 (3 original + 1 inferred); subclass triples: 1.
  EXPECT_EQ(direct.num_edges(), 10u);
  EXPECT_EQ(aware.num_edges(), 5u);
  EXPECT_LT(aware.num_vertices(), direct.num_vertices());
}

TEST(Build, NeighborsAreSorted) {
  TestGraph t({{"a", "p", "z"},
               {"a", "p", "m"},
               {"a", "p", "b"},
               {"z", "type", "T"},
               {"m", "type", "T"},
               {"b", "type", "T"}});
  auto nbrs = t.g().Neighbors(t.vertex("a"), Direction::kOut, t.el("p"));
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  auto typed = t.g().Neighbors(t.vertex("a"), Direction::kOut, t.el("p"), t.label("T"));
  EXPECT_EQ(typed.size(), 3u);
  EXPECT_TRUE(std::is_sorted(typed.begin(), typed.end()));
}

TEST(Build, TermMappingRoundTrip) {
  TestGraph t(Figure3Closed(), TransformMode::kTypeAware);
  VertexId v = t.vertex("univ1");
  TermId term = t.g().VertexTerm(v);
  EXPECT_EQ(t.g().VertexOfTerm(term), v);
  LabelId l = t.label("University");
  EXPECT_EQ(t.g().LabelOfTerm(t.g().LabelTerm(l)), l);
  EdgeLabelId el = t.el("memberOf");
  EXPECT_EQ(t.g().EdgeLabelOfTerm(t.g().EdgeLabelTerm(el)), el);
}

TEST(Build, EmptyDataset) {
  rdf::Dataset ds;
  DataGraph g = DataGraph::Build(ds, TransformMode::kTypeAware);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(QueryGraphBasics, ConnectivityAndComponents) {
  QueryGraph q;
  uint32_t a = q.AddVertex({});
  uint32_t b = q.AddVertex({});
  uint32_t c = q.AddVertex({});
  q.AddEdge({a, b, 0, -1});
  EXPECT_FALSE(q.IsConnected());
  auto comp = q.ComponentIds();
  EXPECT_EQ(comp[a], comp[b]);
  EXPECT_NE(comp[a], comp[c]);
  q.AddEdge({c, a, 0, -1});
  EXPECT_TRUE(q.IsConnected());
}

TEST(QueryGraphBasics, IncidenceDirections) {
  QueryGraph q;
  uint32_t a = q.AddVertex({});
  uint32_t b = q.AddVertex({});
  q.AddEdge({a, b, 7, -1});
  ASSERT_EQ(q.incident(a).size(), 1u);
  EXPECT_EQ(q.incident(a)[0].dir, Direction::kOut);
  ASSERT_EQ(q.incident(b).size(), 1u);
  EXPECT_EQ(q.incident(b)[0].dir, Direction::kIn);
  EXPECT_EQ(q.degree(a), 1u);
}

// ---- Golden graph bytes. ----
//
// The serialized graph is a pure function of the triple set of each region
// (original / inferred) and of the dictionary: these digests pin it for a fixed-seed LUBM-1 so any change to
// GraphBuilder that alters a single byte of any structure (ids, group order,
// neighbour order, offsets, signatures, packed streams) fails here.

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

const rdf::Dataset& GoldenLubm() {
  static const rdf::Dataset ds = [] {
    workload::LubmConfig cfg;
    cfg.num_universities = 1;
    cfg.seed = 7;
    return workload::GenerateLubmClosed(cfg);
  }();
  return ds;
}

uint64_t GraphDigest(const DataGraph& g) {
  std::string bytes;
  SerializeDataGraph(g, &bytes);
  return Fnv1a64(bytes);
}

struct GoldenCase {
  TransformMode mode;
  StorageMode storage;
  uint64_t digest;
};

constexpr GoldenCase kGoldenCases[] = {
    {TransformMode::kDirect, StorageMode::kUncompressed, 0x24fed1c1817cc5e8ULL},
    {TransformMode::kDirect, StorageMode::kCompressed, 0x5d833923955803c7ULL},
    {TransformMode::kTypeAware, StorageMode::kUncompressed, 0xf6188af655099135ULL},
    {TransformMode::kTypeAware, StorageMode::kCompressed, 0xea057abfb06fda8bULL},
};

TEST(GoldenGraph, SerializedBytesMatchDigest) {
  const rdf::Dataset& ds = GoldenLubm();
  ASSERT_GT(ds.size(), 100000u);
  for (const GoldenCase& c : kGoldenCases) {
    DataGraph g = DataGraph::Build(ds, c.mode, c.storage);
    EXPECT_EQ(GraphDigest(g), c.digest)
        << "mode=" << static_cast<int>(c.mode) << " storage=" << static_cast<int>(c.storage)
        << " digest=0x" << std::hex << GraphDigest(g);
  }
}

/// Shuffles `v` in place (Fisher-Yates over the deterministic Rng).
void Shuffle(std::vector<rdf::Triple>* v, util::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
}

/// Builds through GraphBuilder with each region split into `chunks` Appends.
DataGraph BuildChunked(const rdf::Dataset& ds, const std::vector<rdf::Triple>& original,
                       const std::vector<rdf::Triple>& inferred, size_t chunks,
                       TransformMode mode, StorageMode storage) {
  GraphBuilder builder(ds.dict(), mode, storage);
  auto feed = [&](const std::vector<rdf::Triple>& region, bool is_inferred) {
    const size_t step = (region.size() + chunks - 1) / chunks;
    for (size_t b = 0; b < region.size(); b += step)
      builder.Append({region.data() + b, std::min(step, region.size() - b)}, is_inferred);
  };
  feed(original, /*is_inferred=*/false);
  feed(inferred, /*is_inferred=*/true);
  return builder.Finish();
}

TEST(GoldenGraph, BytesIndependentOfInputOrderDuplicatesAndChunking) {
  const rdf::Dataset& ds = GoldenLubm();
  const auto& triples = ds.triples();
  util::Rng rng(20261017);
  // Each region shuffled on its own (the original/inferred boundary decides
  // L_simple), with ~10% of its triples appended again as duplicates.
  auto perturb = [&](size_t begin, size_t end) {
    std::vector<rdf::Triple> region(triples.begin() + begin, triples.begin() + end);
    const size_t n = region.size();
    for (size_t i = 0; i < n; ++i)
      if (rng.Below(10) == 0) region.push_back(region[i]);
    Shuffle(&region, &rng);
    return region;
  };
  const std::vector<rdf::Triple> original = perturb(0, ds.num_original());
  const std::vector<rdf::Triple> inferred = perturb(ds.num_original(), triples.size());
  ASSERT_GT(original.size() + inferred.size(), triples.size());

  for (const GoldenCase& c : kGoldenCases) {
    for (size_t chunks : {1, 7}) {
      DataGraph g = BuildChunked(ds, original, inferred, chunks, c.mode, c.storage);
      EXPECT_EQ(GraphDigest(g), c.digest)
          << "mode=" << static_cast<int>(c.mode)
          << " storage=" << static_cast<int>(c.storage) << " chunks=" << chunks;
    }
  }
}

}  // namespace
}  // namespace turbo::graph
