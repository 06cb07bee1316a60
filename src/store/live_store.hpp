// LiveStore: the live-update subsystem — SPARQL Update over the otherwise
// immutable engine, with epoch-based MVCC snapshots so readers are never
// blocked and never see a half-applied batch.
//
// Design (differential indexing à la RDF-3X, RCU-style publication):
//
//   * The *base* is a fully built QueryEngine over a compacted Dataset:
//     dictionary, inference closure, transformed graph / triple index. It is
//     immutable for its whole lifetime.
//   * Updates accumulate in a *delta*: the added triples (in their own
//     sorted TripleIndex) plus a sorted *tombstone* set of deleted base
//     triples. Both are immutable per epoch: a batch decides set semantics
//     by lookups in the previous epoch's adds and tombstones plus its own
//     changes, then derives the next ones by one linear merge per sort
//     order, so publishing costs O(batch) lookups and a copy-merge of the
//     delta — never a rebuild. Terms the base dictionary lacks intern into a
//     shared *overlay* (a LocalVocab whose ids start at dict.size()), so
//     update-introduced terms flow through the id-based Row pipeline like
//     stored ones. While the delta is non-empty, reads run on
//     baseline::IndexJoinBgpSolver over the base index plus this delta; an
//     empty delta reads through the engine's own solver.
//   * Every applied batch publishes a new immutable Snapshot under a mutex
//     (epoch N+1). Readers pin the current snapshot at Open(): the cursor
//     holds shared_ptr ownership of everything the execution touches
//     (engine, base and delta indexes, tombstones, overlay), so a cursor
//     opened before an update keeps streaming epoch-N rows byte-for-byte
//     unchanged while epoch N+1 serves new cursors. No reader ever takes the write lock.
//   * Compaction folds the delta into a fresh Dataset (base minus tombstones
//     plus adds, overlay terms re-interned in id order so triple ids carry
//     over verbatim) and rebuilds the engine without holding the write
//     lock: it pins the current epoch, builds from that pinned epoch alone,
//     and meanwhile every Apply logs its request. It then retakes the lock,
//     swaps in the new base and overlay, replays the logged suffix onto
//     them, and publishes one epoch whose content equals the latest, so
//     updates never wait for a rebuild and no reader sees an intermediate
//     state. It runs on a background thread once the delta crosses
//     Config::compact_threshold (or synchronously via Compact()); a
//     separate mutex runs one compaction at a time. Old epochs drain
//     naturally as their cursors close.
//
// Consistency contract: inference is not incremental. Inserted triples are
// visible raw (plus whatever the base closure already entailed); deleting a
// triple does not retract inferences derived from it. Compaction carries the
// base's inferred region (minus tombstoned triples) unless
// Config::reinfer_on_compact re-runs the reasoner over the merged data.
// Within one update request, DELETE DATA applies before INSERT DATA
// (SPARQL 1.1 modify order); across requests, updates serialize.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baseline/solvers.hpp"
#include "rdf/reasoner.hpp"
#include "sparql/query_engine.hpp"

namespace turbo::store {

class LiveStore {
 public:
  struct Config {
    sparql::QueryEngine::Config engine;
    /// Delta size (adds + tombstones) that triggers background compaction;
    /// 0 disables the background compactor (Compact() stays available).
    size_t compact_threshold = 0;
    /// Re-run the forward chainer over the merged data at compaction instead
    /// of carrying the previous closure minus tombstones.
    bool reinfer_on_compact = false;
    rdf::ReasonerOptions reasoner{};
  };

  /// One immutable epoch. Readers pin it via shared_ptr; everything a
  /// cursor can touch is reachable (and kept alive) from here.
  struct Snapshot {
    uint64_t epoch = 0;
    std::shared_ptr<const sparql::QueryEngine> engine;
    /// Base triple index the overlay solver probes; null while the delta is
    /// empty (built lazily by the first update after a compaction, or by the
    /// compaction itself when it has updates to replay).
    std::shared_ptr<const baseline::TripleIndex> base_index;
    /// This epoch's adds, tombstones and term overlay. The overlay is always
    /// set: ids in [engine->dict().size(), delta.overlay_limit) are visible
    /// to this epoch. Adds and tombstones are null while the delta is empty.
    baseline::EpochDelta delta;
    /// Non-null iff the delta is non-empty: the index nested-loop join over
    /// base minus tombstones, union adds, serving this epoch's BGPs. Null
    /// means the engine's native solver serves reads with zero overhead.
    std::shared_ptr<const baseline::IndexJoinBgpSolver> overlay_solver;

    bool has_delta() const { return overlay_solver != nullptr; }
    size_t delta_adds() const { return delta.adds ? delta.adds->size() : 0; }
    size_t tombstone_count() const {
      return delta.tombstones ? delta.tombstones->size() : 0;
    }
    const rdf::Dictionary& dict() const { return engine->dict(); }
    const sparql::BgpSolver& solver() const {
      return has_delta() ? static_cast<const sparql::BgpSolver&>(*overlay_solver)
                         : engine->solver();
    }
  };

  struct UpdateResult {
    uint64_t epoch = 0;      ///< epoch the batch published
    size_t inserted = 0;     ///< triples that became visible (were absent)
    size_t deleted = 0;      ///< triples that became invisible (were present)
    size_t delta_adds = 0;   ///< delta size after the batch
    size_t tombstones = 0;   ///< tombstone count after the batch
  };

  struct Stats {
    uint64_t epoch = 0;
    uint64_t updates_applied = 0;
    uint64_t compactions = 0;
    size_t delta_adds = 0;
    size_t tombstones = 0;
    size_t overlay_terms = 0;
    size_t base_triples = 0;  ///< compacted dataset size (original + inferred)
    bool compacting = false;  ///< a compaction is building off the write lock
    /// Update requests the last compaction re-homed onto its new base (those
    /// applied while it was building).
    uint64_t replayed_updates = 0;
  };

  /// Takes the (not yet inference-closed, unless the caller closed it)
  /// dataset and builds the initial epoch-0 engine.
  explicit LiveStore(rdf::Dataset dataset);
  LiveStore(rdf::Dataset dataset, Config config);
  /// As above, but hands a prebuilt DataGraph (a snapshot's "GRPH" section)
  /// to the epoch-0 engine; see QueryEngine's prebuilt constructor for the
  /// adoption rules. Compactions rebuild from the config as usual.
  LiveStore(rdf::Dataset dataset, Config config,
            std::unique_ptr<graph::DataGraph> prebuilt);
  ~LiveStore();

  LiveStore(const LiveStore&) = delete;
  LiveStore& operator=(const LiveStore&) = delete;

  // ---- Read side (thread-safe, never blocks on writers). ----

  /// Parse + plan once. Plans hold no term ids (constants stay terms until
  /// Open resolves them against the epoch it pins), so a PreparedQuery stays
  /// valid across updates and across compactions that re-rank every id.
  util::Result<sparql::PreparedQuery> Prepare(const std::string& text) const;

  /// Pins the current snapshot and opens a cursor over it. The cursor holds
  /// the snapshot (ExecOptions::pin) until destruction, so concurrent
  /// updates and compactions never invalidate it.
  util::Result<sparql::Cursor> Open(const sparql::PreparedQuery& prepared,
                                    sparql::ExecOptions opts = {}) const;
  util::Result<sparql::Cursor> Open(const std::string& text,
                                    sparql::ExecOptions opts = {}) const;

  /// Opens a cursor over an explicitly pinned snapshot (the HTTP endpoint
  /// pins once per request so the X-Epoch header and row formatting agree).
  static util::Result<sparql::Cursor> OpenAt(std::shared_ptr<const Snapshot> snap,
                                             const sparql::PreparedQuery& prepared,
                                             sparql::ExecOptions opts = {});

  /// The current epoch's snapshot (cheap: one mutex-guarded shared_ptr copy).
  std::shared_ptr<const Snapshot> snapshot() const;
  uint64_t epoch() const { return snapshot()->epoch; }

  // ---- Write side (serialized on an internal write mutex). ----

  /// Applies a parsed update batch atomically and publishes a new epoch.
  /// Set semantics: inserting a present triple or deleting an absent one is
  /// a no-op (counted in neither `inserted` nor `deleted`).
  util::Result<UpdateResult> Apply(const sparql::UpdateRequest& request);

  /// Parses SPARQL Update text (INSERT DATA / DELETE DATA) and applies it.
  util::Result<UpdateResult> Update(const std::string& text);

  /// Folds the delta into a freshly built base engine. The build runs
  /// without the write lock, so updates proceed meanwhile; those are then
  /// replayed onto the new base and one epoch equal to the latest is
  /// published (empty-delta unless updates ran). Returns once published;
  /// no-op when there is nothing to fold. Readers on older epochs are
  /// unaffected.
  util::Status Compact();

  Stats stats() const;

 private:
  void Publish(std::shared_ptr<const Snapshot> snap);
  /// The epoch after `prev` once `requests` are applied to it (caller holds
  /// write_mu_; `prev` is over the current base and overlay).
  std::shared_ptr<const Snapshot> ApplyLocked(
      const Snapshot& prev, std::span<const sparql::UpdateRequest> requests,
      UpdateResult* result);
  /// The compacted engine for a pinned epoch; touches no writer state.
  util::Result<std::shared_ptr<const sparql::QueryEngine>> BuildCompacted(
      const Snapshot& pinned) const;
  void CompactorLoop();

  Config cfg_;

  mutable std::mutex snap_mu_;          // guards snap_ pointer swaps only
  std::shared_ptr<const Snapshot> snap_;

  // Serializes Apply and compaction's pin and swap; never taken by readers.
  std::mutex write_mu_;
  // Mutated only under write_mu_; snapshots hold const views.
  std::shared_ptr<sparql::LocalVocab> overlay_;
  std::shared_ptr<const baseline::TripleIndex> base_index_;  // per base, built on demand
  std::vector<sparql::UpdateRequest> replay_log_;  // applied while compacting_
  std::atomic<bool> compacting_{false};  // written under write_mu_

  std::mutex compaction_mu_;  // one compaction at a time (background or Compact())

  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> replayed_updates_{0};

  std::mutex compact_mu_;  // guards the compactor thread's wake-up flags
  std::condition_variable compact_cv_;
  bool compact_requested_ = false;
  bool stop_ = false;
  std::thread compactor_;
};

}  // namespace turbo::store
