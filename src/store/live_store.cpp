#include "store/live_store.hpp"

#include <unordered_set>
#include <utility>

#include "rdf/loader.hpp"
#include "sparql/parser.hpp"

namespace turbo::store {

LiveStore::LiveStore(rdf::Dataset dataset) : LiveStore(std::move(dataset), Config()) {}

LiveStore::LiveStore(rdf::Dataset dataset, Config config)
    : LiveStore(std::move(dataset), std::move(config), nullptr) {}

LiveStore::LiveStore(rdf::Dataset dataset, Config config,
                     std::unique_ptr<graph::DataGraph> prebuilt)
    : cfg_(std::move(config)) {
  auto engine = std::make_shared<const sparql::QueryEngine>(
      std::move(dataset), cfg_.engine, std::move(prebuilt));
  overlay_ =
      std::make_shared<sparql::LocalVocab>(static_cast<TermId>(engine->dict().size()));
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = 0;
  snap->delta.overlay = overlay_;
  snap->delta.overlay_limit = static_cast<TermId>(engine->dict().size());
  snap->engine = std::move(engine);
  snap_ = std::move(snap);
  if (cfg_.compact_threshold > 0) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
}

LiveStore::~LiveStore() {
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

std::shared_ptr<const LiveStore::Snapshot> LiveStore::snapshot() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return snap_;
}

void LiveStore::Publish(std::shared_ptr<const Snapshot> snap) {
  std::lock_guard<std::mutex> lk(snap_mu_);
  snap_ = std::move(snap);
}

util::Result<sparql::PreparedQuery> LiveStore::Prepare(const std::string& text) const {
  return snapshot()->engine->Prepare(text);
}

util::Result<sparql::Cursor> LiveStore::Open(const sparql::PreparedQuery& prepared,
                                             sparql::ExecOptions opts) const {
  return OpenAt(snapshot(), prepared, std::move(opts));
}

util::Result<sparql::Cursor> LiveStore::Open(const std::string& text,
                                             sparql::ExecOptions opts) const {
  auto prepared = Prepare(text);
  if (!prepared.ok()) return prepared.status();
  return OpenAt(snapshot(), prepared.value(), std::move(opts));
}

util::Result<sparql::Cursor> LiveStore::OpenAt(std::shared_ptr<const Snapshot> snap,
                                               const sparql::PreparedQuery& prepared,
                                               sparql::ExecOptions opts) {
  if (!prepared.valid()) return util::Status::Error("query was not prepared");
  // The cursor's vocab chains to the epoch's overlay: update-introduced term
  // ids resolve like stored ones, cursor-computed values intern above
  // overlay_limit, and VALUES/BIND constants join against overlay terms.
  opts.vocab = std::make_shared<sparql::LocalVocab>(snap->delta.overlay_limit,
                                                    snap->delta.overlay);
  const sparql::BgpSolver& solver = snap->solver();
  opts.pin = std::move(snap);  // cursor keeps the whole epoch alive
  return sparql::OpenCursor(solver, prepared, opts);
}

util::Result<LiveStore::UpdateResult> LiveStore::Apply(
    const sparql::UpdateRequest& request) {
  std::lock_guard<std::mutex> wl(write_mu_);
  std::shared_ptr<const Snapshot> cur = snapshot();
  const rdf::Dictionary& dict = cur->engine->dict();

  // Base membership is needed for dedup on both paths; build the base index
  // lazily (first update after a compaction) and reuse it across batches.
  if (!base_index_) {
    base_index_ =
        std::make_shared<const baseline::TripleIndex>(*cur->engine->dataset());
  }
  auto base_has = [&](const rdf::Triple& t) {
    return !base_index_->Lookup(t.s, t.p, t.o).empty();
  };

  std::unordered_set<rdf::Triple, rdf::TripleHash> adds;
  if (cur->delta.adds)
    adds.insert(cur->delta.adds->triples().begin(), cur->delta.adds->triples().end());
  baseline::TombstoneSet tombs =
      cur->delta.tombstones ? *cur->delta.tombstones : baseline::TombstoneSet{};

  size_t inserted = 0, deleted = 0;

  // DELETE DATA first (SPARQL 1.1 modify order), then INSERT DATA.
  for (const auto& tr : request.delete_triples) {
    TermId ids[3];
    bool known = true;
    for (int i = 0; i < 3 && known; ++i) {
      if (auto id = dict.Find(tr[i])) {
        ids[i] = *id;
      } else if (auto oid = overlay_->FindId(tr[i])) {
        ids[i] = *oid;
      } else {
        known = false;  // term never seen: the triple cannot exist
      }
    }
    if (!known) continue;
    rdf::Triple t{ids[0], ids[1], ids[2]};
    if (adds.erase(t) > 0) {
      ++deleted;
      continue;
    }
    // Tombstones only ever hold base triples (delete-of-add handled above).
    if (base_has(t) && tombs.insert(t).second) ++deleted;
  }
  for (const auto& tr : request.insert_triples) {
    TermId ids[3];
    for (int i = 0; i < 3; ++i) {
      if (auto id = dict.Find(tr[i])) {
        ids[i] = *id;
      } else {
        ids[i] = overlay_->Intern(tr[i]);
      }
    }
    rdf::Triple t{ids[0], ids[1], ids[2]};
    if (tombs.erase(t) > 0) {
      ++inserted;  // resurrected base triple
      continue;
    }
    if (base_has(t)) continue;  // already present
    if (adds.insert(t).second) ++inserted;
  }

  auto snap = std::make_shared<Snapshot>();
  snap->epoch = cur->epoch + 1;
  snap->engine = cur->engine;
  snap->delta.overlay = overlay_;
  snap->delta.overlay_limit = static_cast<TermId>(dict.size() + overlay_->size());
  if (!adds.empty() || !tombs.empty()) {
    snap->base_index = base_index_;
    snap->delta.adds = std::make_shared<const baseline::TripleIndex>(
        std::vector<rdf::Triple>(adds.begin(), adds.end()));
    snap->delta.tombstones =
        std::make_shared<const baseline::TombstoneSet>(std::move(tombs));
    snap->overlay_solver = std::make_shared<const baseline::IndexJoinBgpSolver>(
        *snap->base_index, dict, snap->delta);
  }
  UpdateResult result{snap->epoch, inserted, deleted, snap->delta_adds(),
                      snap->tombstone_count()};
  Publish(std::move(snap));
  updates_applied_.fetch_add(1, std::memory_order_relaxed);

  if (cfg_.compact_threshold > 0 &&
      result.delta_adds + result.tombstones >= cfg_.compact_threshold) {
    {
      std::lock_guard<std::mutex> lk(compact_mu_);
      compact_requested_ = true;
    }
    compact_cv_.notify_one();
  }
  return result;
}

util::Result<LiveStore::UpdateResult> LiveStore::Update(const std::string& text) {
  auto request = sparql::ParseUpdate(text);
  if (!request.ok()) return request.status();
  return Apply(request.value());
}

util::Status LiveStore::Compact() {
  std::lock_guard<std::mutex> wl(write_mu_);
  return CompactLocked();
}

util::Status LiveStore::CompactLocked() {
  std::shared_ptr<const Snapshot> cur = snapshot();
  if (!cur->has_delta() && overlay_->size() == 0) return util::Status::Ok();

  const rdf::Dataset* old = cur->engine->dataset();
  const rdf::Dictionary& odict = old->dict();

  rdf::Dataset merged;
  merged.dict() = odict;  // the dictionary is copyable by design
  // Re-intern overlay terms in id order: GetOrAdd assigns ids sequentially
  // from dict.size(), so every delta triple's term ids carry over verbatim
  // into the merged dataset while it is assembled (the frequency re-rank
  // below rewrites everything in one pass at the end).
  const size_t overlay_terms = overlay_->size();
  for (size_t i = 0; i < overlay_terms; ++i) {
    const rdf::Term* t = overlay_->Find(static_cast<TermId>(odict.size() + i));
    merged.dict().GetOrAdd(*t);
  }

  static const baseline::TombstoneSet kNoTombs;
  const baseline::TombstoneSet& tombs =
      cur->delta.tombstones ? *cur->delta.tombstones : kNoTombs;

  std::vector<rdf::Triple> originals;
  originals.reserve(old->num_original() + cur->delta_adds());
  for (size_t i = 0; i < old->num_original(); ++i) {
    const rdf::Triple& t = old->triples()[i];
    if (tombs.count(t) == 0) originals.push_back(t);
  }
  if (cur->delta.adds)
    originals.insert(originals.end(), cur->delta.adds->triples().begin(),
                     cur->delta.adds->triples().end());
  if (auto st = merged.AppendOriginal(originals); !st.ok()) return st;

  if (cfg_.reinfer_on_compact) {
    rdf::MaterializeInference(&merged, cfg_.reasoner);
  } else {
    // Carry the previous closure (minus tombstoned inferred triples).
    std::vector<rdf::Triple> inferred;
    for (size_t i = old->num_original(); i < old->triples().size(); ++i) {
      const rdf::Triple& t = old->triples()[i];
      if (tombs.count(t) == 0) inferred.push_back(t);
    }
    merged.AppendInferred(inferred);
  }

  // Re-rank the merged dataset into the frequency-split id layout: overlay
  // terms earned real occurrence counts while living in the delta, and
  // compaction is the one point where every triple is rewritten anyway, so
  // hot overlay terms (new predicates, new types, hubs) fold into the dense
  // low-id band instead of accreting at the tail forever. Pinned-epoch
  // readers stay byte-stable — they hold the previous snapshot and its
  // engine, whose ids never move; only the *next* epoch sees the new ids,
  // and its engine and overlay limit are rebuilt below. Prepared plans hold
  // no ids, so they carry over unchanged.
  rdf::RerankDatasetByFrequency(&merged);

  auto engine =
      std::make_shared<const sparql::QueryEngine>(std::move(merged), cfg_.engine);
  overlay_ =
      std::make_shared<sparql::LocalVocab>(static_cast<TermId>(engine->dict().size()));
  base_index_.reset();  // rebuilt lazily on the next update

  auto snap = std::make_shared<Snapshot>();
  snap->epoch = cur->epoch + 1;
  snap->delta.overlay = overlay_;
  snap->delta.overlay_limit = static_cast<TermId>(engine->dict().size());
  snap->engine = std::move(engine);
  Publish(std::move(snap));
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return util::Status::Ok();
}

void LiveStore::CompactorLoop() {
  std::unique_lock<std::mutex> lk(compact_mu_);
  for (;;) {
    compact_cv_.wait(lk, [&] { return stop_ || compact_requested_; });
    if (stop_) return;
    compact_requested_ = false;
    lk.unlock();
    Compact();
    lk.lock();
  }
}

LiveStore::Stats LiveStore::stats() const {
  std::shared_ptr<const Snapshot> snap = snapshot();
  Stats s;
  s.epoch = snap->epoch;
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.delta_adds = snap->delta_adds();
  s.tombstones = snap->tombstone_count();
  s.overlay_terms = snap->delta.overlay ? snap->delta.overlay->size() : 0;
  s.base_triples = snap->engine->dataset()->size();
  return s;
}

}  // namespace turbo::store
