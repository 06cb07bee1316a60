#include "baseline/triple_index.hpp"

#include <algorithm>
#include <tuple>

namespace turbo::baseline {

namespace {

using Key = std::tuple<TermId, TermId, TermId>;

// Order keys: each projects a triple onto the tuple its order sorts by.
constexpr auto kSpo = [](const rdf::Triple& t) { return Key{t.s, t.p, t.o}; };
constexpr auto kSop = [](const rdf::Triple& t) { return Key{t.s, t.o, t.p}; };
constexpr auto kPso = [](const rdf::Triple& t) { return Key{t.p, t.s, t.o}; };
constexpr auto kPos = [](const rdf::Triple& t) { return Key{t.p, t.o, t.s}; };
constexpr auto kOsp = [](const rdf::Triple& t) { return Key{t.o, t.s, t.p}; };

/// Sorts `v` by the `key` projection.
template <typename KeyFn>
void SortBy(std::vector<rdf::Triple>* v, KeyFn key) {
  std::sort(v->begin(), v->end(), [&](const rdf::Triple& x, const rdf::Triple& y) {
    return key(x) < key(y);
  });
}

// A counting pass zeroes and scans one counter per id up to the largest key;
// past this many ids per triple a comparison sort is cheaper (small delta
// indexes over a large dictionary).
constexpr size_t kCountingIdsPerTriple = 4;

/// `in` (distinct triples, already sorted by the tail of `key` after
/// `component`) sorted by `key`: one stable counting pass by `component`.
template <typename KeyFn>
std::vector<rdf::Triple> DeriveOrder(const std::vector<rdf::Triple>& in,
                                     TermId rdf::Triple::*component, KeyFn key) {
  TermId max_id = 0;
  for (const rdf::Triple& t : in) max_id = std::max(max_id, t.*component);
  const size_t range = in.empty() ? 0 : size_t{max_id} + 1;
  std::vector<rdf::Triple> out;
  if (range > kCountingIdsPerTriple * in.size()) {
    out = in;
    SortBy(&out, key);  // the triples are distinct, so the result is the same
    return out;
  }
  std::vector<size_t> next(range + 1, 0);  // counts, then each id's next slot
  for (const rdf::Triple& t : in) ++next[t.*component + 1];
  for (size_t id = 1; id <= range; ++id) next[id] += next[id - 1];
  out.resize(in.size());
  for (const rdf::Triple& t : in) out[next[t.*component]++] = t;
  return out;
}

/// `prev` (distinct, sorted by `key`) plus `add` minus `remove`, distinct and
/// sorted by `key`. Sorts `add` and `remove` in place.
template <typename KeyFn>
std::vector<rdf::Triple> MergeOrder(std::span<const rdf::Triple> prev,
                                    std::vector<rdf::Triple>* add,
                                    std::vector<rdf::Triple>* remove, KeyFn key) {
  SortBy(add, key);
  SortBy(remove, key);
  std::vector<rdf::Triple> out;
  out.reserve(prev.size() + add->size());
  size_t i = 0, j = 0, k = 0;
  while (i < prev.size() || j < add->size()) {
    const bool from_prev =
        j == add->size() || (i < prev.size() && key(prev[i]) < key((*add)[j]));
    const rdf::Triple t = from_prev ? prev[i++] : (*add)[j++];
    while (k < remove->size() && key((*remove)[k]) < key(t)) ++k;
    if (k < remove->size() && (*remove)[k] == t) continue;
    if (!out.empty() && out.back() == t) continue;
    out.push_back(t);
  }
  return out;
}

/// Binary-search range of triples whose `key` projection has the given
/// prefix (kInvalidId components in `hi`/`lo` act as -inf / +inf).
template <typename KeyFn>
std::span<const rdf::Triple> PrefixRange(const std::vector<rdf::Triple>& v, KeyFn key,
                                         TermId k1, TermId k2, TermId k3) {
  Key lo{k1 == kInvalidId ? 0 : k1, k2 == kInvalidId ? 0 : k2, k3 == kInvalidId ? 0 : k3};
  Key hi{k1 == kInvalidId ? kInvalidId : k1, k2 == kInvalidId ? kInvalidId : k2,
         k3 == kInvalidId ? kInvalidId : k3};
  auto first = std::lower_bound(v.begin(), v.end(), lo, [&](const rdf::Triple& t, const Key& k) {
    return key(t) < k;
  });
  auto last = std::upper_bound(v.begin(), v.end(), hi, [&](const Key& k, const rdf::Triple& t) {
    return k < key(t);
  });
  if (first >= last) return {};
  return {&*first, static_cast<size_t>(last - first)};
}

}  // namespace

TombstoneSet::TombstoneSet(std::vector<rdf::Triple> triples)
    : sorted_(std::move(triples)) {
  std::sort(sorted_.begin(), sorted_.end());
  sorted_.erase(std::unique(sorted_.begin(), sorted_.end()), sorted_.end());
}

TombstoneSet::TombstoneSet(const TombstoneSet& prev, std::vector<rdf::Triple> add,
                           std::vector<rdf::Triple> remove)
    : sorted_(MergeOrder(prev.sorted_, &add, &remove, kSpo)) {}

size_t TombstoneSet::count(const rdf::Triple& t) const {
  return std::binary_search(sorted_.begin(), sorted_.end(), t) ? 1 : 0;
}

TripleIndex::TripleIndex(const rdf::Dataset& dataset)
    : TripleIndex(dataset.triples()) {}

TripleIndex::TripleIndex(std::vector<rdf::Triple> triples) : spo_(std::move(triples)) {
  std::sort(spo_.begin(), spo_.end());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  osp_ = DeriveOrder(spo_, &rdf::Triple::o, kOsp);  // (s, p) tail from spo
  sop_ = DeriveOrder(osp_, &rdf::Triple::s, kSop);  // (o, p) tail from osp
  pso_ = DeriveOrder(spo_, &rdf::Triple::p, kPso);  // (s, o) tail from spo
  pos_ = DeriveOrder(osp_, &rdf::Triple::p, kPos);  // (o, s) tail from osp
}

TripleIndex::TripleIndex(const TripleIndex& prev, std::vector<rdf::Triple> add,
                         std::vector<rdf::Triple> remove)
    : spo_(MergeOrder(prev.spo_, &add, &remove, kSpo)),
      sop_(MergeOrder(prev.sop_, &add, &remove, kSop)),
      pso_(MergeOrder(prev.pso_, &add, &remove, kPso)),
      pos_(MergeOrder(prev.pos_, &add, &remove, kPos)),
      osp_(MergeOrder(prev.osp_, &add, &remove, kOsp)) {}

std::span<const rdf::Triple> TripleIndex::Lookup(TermId s, TermId p, TermId o) const {
  const bool bs = s != kInvalidId, bp = p != kInvalidId, bo = o != kInvalidId;
  if (bs && bp) return PrefixRange(spo_, kSpo, s, p, o);              // s p (o?)
  if (bs && bo) return PrefixRange(sop_, kSop, s, o, kInvalidId);     // s o
  if (bs) return PrefixRange(spo_, kSpo, s, kInvalidId, kInvalidId);  // s
  if (bp && bo) return PrefixRange(pos_, kPos, p, o, kInvalidId);     // p o
  if (bp) return PrefixRange(pso_, kPso, p, kInvalidId, kInvalidId);  // p
  if (bo) return PrefixRange(osp_, kOsp, o, kInvalidId, kInvalidId);  // o
  return {spo_.data(), spo_.size()};                                  // full scan
}

}  // namespace turbo::baseline
