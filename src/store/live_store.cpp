#include "store/live_store.hpp"

#include <exception>
#include <string>
#include <unordered_map>
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
  UpdateResult result;
  Publish(ApplyLocked(*snapshot(), {&request, 1}, &result));
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  // A compaction building off the lock re-homes this request onto its base.
  if (compacting_.load(std::memory_order_relaxed)) replay_log_.push_back(request);

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

namespace {

/// Update requests on top of one epoch's delta. Set semantics are decided by
/// lookups in the base index and the epoch's immutable adds and tombstones,
/// overridden by the changes this batch already made; Finish() then derives
/// the next epoch's sets by one linear merge each, sharing an unchanged set.
class DeltaBatch {
 public:
  DeltaBatch(const rdf::Dictionary& dict, sparql::LocalVocab* overlay,
             const baseline::TripleIndex& base, const baseline::EpochDelta& prev)
      : dict_(dict), overlay_(*overlay), base_(base), prev_(prev) {}

  void Apply(const sparql::UpdateRequest& request) {
    // DELETE DATA first (SPARQL 1.1 modify order), then INSERT DATA.
    for (const auto& tr : request.delete_triples) {
      TermId ids[3];
      bool known = true;
      for (int i = 0; i < 3 && known; ++i) {
        if (auto id = dict_.Find(tr[i])) {
          ids[i] = *id;
        } else if (auto oid = overlay_.FindId(tr[i])) {
          ids[i] = *oid;
        } else {
          known = false;  // term never seen: the triple cannot exist
        }
      }
      if (!known) continue;
      rdf::Triple t{ids[0], ids[1], ids[2]};
      if (InAdds(t)) {
        adds_[t] = false;
        ++deleted;
      } else if (base_.Contains(t) && !InTombstones(t)) {
        // Tombstones only ever hold base triples (delete-of-add handled above).
        tombstones_[t] = true;
        ++deleted;
      }
    }
    for (const auto& tr : request.insert_triples) {
      TermId ids[3];
      for (int i = 0; i < 3; ++i) {
        if (auto id = dict_.Find(tr[i])) {
          ids[i] = *id;
        } else {
          ids[i] = overlay_.Intern(tr[i]);
        }
      }
      rdf::Triple t{ids[0], ids[1], ids[2]};
      if (InTombstones(t)) {
        tombstones_[t] = false;  // resurrected base triple
        ++inserted;
      } else if (!base_.Contains(t) && !InAdds(t)) {
        adds_[t] = true;
        ++inserted;
      }
    }
  }

  /// The next epoch's adds and tombstones; null when empty.
  void Finish(baseline::EpochDelta* next) const {
    next->adds = Next(adds_, prev_.adds);
    next->tombstones = Next(tombstones_, prev_.tombstones);
  }

  size_t inserted = 0, deleted = 0;

 private:
  // Membership a batch set for a triple, overriding the previous epoch's.
  using Changes = std::unordered_map<rdf::Triple, bool, rdf::TripleHash>;

  static bool Has(const baseline::TripleIndex* set, const rdf::Triple& t) {
    return set && set->Contains(t);
  }
  static bool Has(const baseline::TombstoneSet* set, const rdf::Triple& t) {
    return set && set->count(t) > 0;
  }
  template <typename Set>
  static bool In(const Changes& changes, const Set* prev, const rdf::Triple& t) {
    auto it = changes.find(t);
    return it != changes.end() ? it->second : Has(prev, t);
  }
  bool InAdds(const rdf::Triple& t) const { return In(adds_, prev_.adds.get(), t); }
  bool InTombstones(const rdf::Triple& t) const {
    return In(tombstones_, prev_.tombstones.get(), t);
  }

  /// `prev` with `changes` applied, by one merge (shared if unchanged).
  template <typename Set>
  static std::shared_ptr<const Set> Next(const Changes& changes,
                                         const std::shared_ptr<const Set>& prev) {
    std::vector<rdf::Triple> in, out;
    for (const auto& [t, member] : changes) {
      if (member != Has(prev.get(), t)) (member ? in : out).push_back(t);
    }
    if (in.empty() && out.empty()) return prev;
    auto next = prev ? std::make_shared<const Set>(*prev, std::move(in), std::move(out))
                     : std::make_shared<const Set>(std::move(in));
    return next->size() > 0 ? next : nullptr;
  }

  const rdf::Dictionary& dict_;
  sparql::LocalVocab& overlay_;
  const baseline::TripleIndex& base_;
  const baseline::EpochDelta& prev_;
  Changes adds_, tombstones_;
};

}  // namespace

std::shared_ptr<const LiveStore::Snapshot> LiveStore::ApplyLocked(
    const Snapshot& prev, std::span<const sparql::UpdateRequest> requests,
    UpdateResult* result) {
  const rdf::Dictionary& dict = prev.dict();
  // Base membership is needed for dedup; build the base index lazily (the
  // first update or replay over a new base) and reuse it across batches.
  if (!base_index_) {
    base_index_ = std::make_shared<const baseline::TripleIndex>(*prev.engine->dataset());
  }
  DeltaBatch batch(dict, overlay_.get(), *base_index_, prev.delta);
  for (const sparql::UpdateRequest& request : requests) batch.Apply(request);

  auto snap = std::make_shared<Snapshot>();
  snap->epoch = prev.epoch + 1;
  snap->engine = prev.engine;
  snap->delta.overlay = overlay_;
  snap->delta.overlay_limit = static_cast<TermId>(dict.size() + overlay_->size());
  batch.Finish(&snap->delta);
  if (snap->delta.adds || snap->delta.tombstones) {
    snap->base_index = base_index_;
    snap->overlay_solver = std::make_shared<const baseline::IndexJoinBgpSolver>(
        *snap->base_index, dict, snap->delta);
  }
  *result = {snap->epoch, batch.inserted, batch.deleted, snap->delta_adds(),
             snap->tombstone_count()};
  return snap;
}

util::Result<LiveStore::UpdateResult> LiveStore::Update(const std::string& text) {
  auto request = sparql::ParseUpdate(text);
  if (!request.ok()) return request.status();
  return Apply(request.value());
}

util::Status LiveStore::Compact() {
  std::lock_guard<std::mutex> cl(compaction_mu_);
  std::shared_ptr<const Snapshot> pinned;
  {
    std::lock_guard<std::mutex> wl(write_mu_);
    pinned = snapshot();
    if (!pinned->has_delta() && overlay_->size() == 0) return util::Status::Ok();
    compacting_.store(true, std::memory_order_relaxed);
  }

  // The rebuild reads only the pinned epoch, so Apply keeps publishing
  // meanwhile (and logs what it applies). A throw becomes an error status so
  // the swap below still ends the logging.
  auto built = [&]() -> util::Result<std::shared_ptr<const sparql::QueryEngine>> {
    try {
      return BuildCompacted(*pinned);
    } catch (const std::exception& e) {
      return util::Status::Error(std::string("compaction failed: ") + e.what());
    }
  }();
  pinned.reset();
  // The replay needs the new base's index. If updates already arrived,
  // build it here too rather than under the lock; otherwise leave it to the
  // next update, as after any compaction.
  bool replay_pending = false;
  if (built.ok()) {
    std::lock_guard<std::mutex> wl(write_mu_);
    replay_pending = !replay_log_.empty();
  }
  std::shared_ptr<const baseline::TripleIndex> index;
  if (replay_pending)
    index = std::make_shared<const baseline::TripleIndex>(*built.value()->dataset());

  std::lock_guard<std::mutex> wl(write_mu_);
  compacting_.store(false, std::memory_order_relaxed);
  std::vector<sparql::UpdateRequest> suffix = std::move(replay_log_);
  replay_log_.clear();
  if (!built.ok()) return built.status();

  std::shared_ptr<const sparql::QueryEngine> engine = built.take();
  overlay_ =
      std::make_shared<sparql::LocalVocab>(static_cast<TermId>(engine->dict().size()));
  base_index_ = std::move(index);  // if null, built lazily by the replay or next update

  auto base = std::make_shared<Snapshot>();
  base->epoch = snapshot()->epoch;
  base->delta.overlay = overlay_;
  base->delta.overlay_limit = static_cast<TermId>(engine->dict().size());
  base->engine = std::move(engine);
  if (suffix.empty()) {
    ++base->epoch;
    Publish(std::move(base));
  } else {
    // Re-home the updates applied since the pin: the same requests in the
    // same order, over a base holding the pinned content, give the latest
    // content (plus whatever a re-inferring compaction added).
    UpdateResult ignored;
    Publish(ApplyLocked(*base, suffix, &ignored));
  }
  replayed_updates_.store(suffix.size(), std::memory_order_relaxed);
  compactions_.fetch_add(1, std::memory_order_relaxed);
  return util::Status::Ok();
}

util::Result<std::shared_ptr<const sparql::QueryEngine>> LiveStore::BuildCompacted(
    const Snapshot& pinned) const {
  const rdf::Dataset* old = pinned.engine->dataset();
  const rdf::Dictionary& odict = old->dict();

  rdf::Dataset merged;
  merged.dict() = odict;  // the dictionary is copyable by design
  // Re-intern the pinned overlay terms in id order: GetOrAdd assigns ids
  // sequentially from dict.size(), so every delta triple's term ids carry
  // over verbatim into the merged dataset while it is assembled (the
  // frequency re-rank below rewrites everything in one pass at the end).
  // Ids at or above the pinned limit belong to later updates, which the
  // replay re-interns.
  const TermId limit = pinned.delta.overlay_limit;
  for (TermId id = static_cast<TermId>(odict.size()); id < limit; ++id)
    merged.dict().GetOrAdd(*pinned.delta.overlay->Find(id));

  static const baseline::TombstoneSet kNoTombs;
  const baseline::TombstoneSet& tombs =
      pinned.delta.tombstones ? *pinned.delta.tombstones : kNoTombs;

  std::vector<rdf::Triple> originals;
  originals.reserve(old->num_original() + pinned.delta_adds());
  for (size_t i = 0; i < old->num_original(); ++i) {
    const rdf::Triple& t = old->triples()[i];
    if (tombs.count(t) == 0) originals.push_back(t);
  }
  if (pinned.delta.adds)
    originals.insert(originals.end(), pinned.delta.adds->triples().begin(),
                     pinned.delta.adds->triples().end());
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
  // and its engine and overlay limit are rebuilt by Compact. Prepared plans
  // hold no ids, so they carry over unchanged. Terms that no surviving
  // triple uses (every triple naming them was deleted) are dropped here, so
  // a store under steady insert/delete churn keeps a bounded dictionary.
  rdf::RerankDatasetByFrequency(&merged, /*drop_unreferenced=*/true);

  return std::make_shared<const sparql::QueryEngine>(std::move(merged), cfg_.engine);
}

void LiveStore::CompactorLoop() {
  std::unique_lock<std::mutex> lk(compact_mu_);
  for (;;) {
    compact_cv_.wait(lk, [&] { return stop_ || compact_requested_; });
    if (stop_) return;
    compact_requested_ = false;
    lk.unlock();
    // A request raised while a compaction was building may already be
    // folded in; compact only if the delta still crosses the threshold.
    std::shared_ptr<const Snapshot> snap = snapshot();
    if (snap->delta_adds() + snap->tombstone_count() >= cfg_.compact_threshold) Compact();
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
  s.compacting = compacting_.load(std::memory_order_relaxed);
  s.replayed_updates = replayed_updates_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace turbo::store
