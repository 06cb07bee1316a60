// The staged, parallel dataset-ingestion pipeline. The paper assumes graphs
// are memory-resident and excludes loading from all measurements — which
// makes *getting to* the memory-resident state the slowest step at scale.
// Following RDF-3X / TripleBit, bulk dictionary encoding is an explicit
// offline pipeline here rather than an istream loop:
//
//   1. split the input into newline/statement-aligned chunks and parse them
//      concurrently on a util::ThreadPool, each chunk interning into a
//      private mini-dictionary (zero-copy term scanning, no global locks);
//   2. merge the mini-dictionaries into the global Dictionary via the
//      hash-sharded parallel merge (Dictionary::MergeBatches), then remap
//      each chunk's local-id triples to global ids, id-parallel;
//   3. optionally fuse graph construction in as a final stage: remapped
//      chunks feed GraphBuilder::Append, so load -> DataGraph is one pass.
//
// Chunk boundaries are deterministic (fixed chunk_bytes), and the sharded
// merge assigns ids independent of scheduling, so a load produces the exact
// same Dataset (bit-identical ids) at any thread count. Chunk parsing also
// tallies per-term occurrence counts and role flags (predicate position,
// rdf:type object), which the merge's global ranking turns into the
// frequency-split id layout (see rdf/dictionary.hpp). Parse errors carry
// the same line number and offending line text the sequential parser
// reports, chosen first-error-wins by line.
//
// Turtle keeps a sequential tokenizer (prefix/base directives are stateful)
// but feeds the same parallel encode/merge/remap stages.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "graph/data_graph.hpp"
#include "rdf/dataset.hpp"
#include "util/status.hpp"

namespace turbo::rdf {

struct LoadOptions {
  /// Worker threads for the parallel stages; 0 = hardware concurrency.
  /// Requests beyond the hardware concurrency are clamped (oversubscribing
  /// a CPU-bound pipeline only adds scheduling overhead); the loaded ids
  /// are identical either way — determinism comes from chunking, not from
  /// the worker count.
  uint32_t threads = 0;
  /// Target chunk size for the newline-aligned input split; 0 = auto
  /// (input_bytes / 64, clamped to [2 MiB, 4 MiB] — measured sweet spot:
  /// per-chunk intern tables stay cache-resident and there are enough
  /// chunks for any realistic core count). Chunking depends only on this
  /// value and the input bytes — never on the thread count — which is what
  /// makes parallel loads deterministic. Statement-batch size for Turtle
  /// derives from it.
  size_t chunk_bytes = 0;
  /// What to do with a malformed line: fail the load (reporting the first
  /// error by line number, exactly as the sequential parser would) or skip
  /// the line and count it in LoadStats::skipped_lines. Turtle ignores
  /// kSkip (a tokenizer error loses statement sync) and always fails.
  enum class OnError : uint8_t { kFail, kSkip };
  OnError on_error = OnError::kFail;
  /// Fuse DataGraph construction into the pipeline: remapped chunks feed
  /// GraphBuilder::Append as they are produced and LoadResult::graph is
  /// populated. Use when the input already contains its inference closure
  /// (a reasoner run between load and graph build forces two passes).
  bool build_graph = false;
  /// Transformation for the fused graph build.
  graph::TransformMode transform = graph::TransformMode::kTypeAware;
};

/// Where the time went; the ingest bench reports these.
struct LoadStats {
  uint64_t bytes = 0;
  uint64_t lines = 0;          ///< input lines seen (N-Triples path)
  uint64_t triples = 0;
  uint64_t terms = 0;          ///< distinct terms in the dictionary after load
  uint64_t chunks = 0;
  uint64_t skipped_lines = 0;  ///< malformed lines dropped under OnError::kSkip
  uint32_t threads = 1;
  double read_ms = 0;   ///< file -> buffer (file entry points only)
  double parse_ms = 0;  ///< chunked parse + mini-dictionary interning
  double merge_ms = 0;  ///< sharded dictionary merge
  double remap_ms = 0;  ///< local -> global id rewrite + dataset append
  double graph_ms = 0;  ///< fused GraphBuilder stage (build_graph only)
  double total_ms = 0;
};

struct LoadResult {
  Dataset dataset;
  /// Present iff LoadOptions::build_graph.
  std::unique_ptr<graph::DataGraph> graph;
  LoadStats stats;
};

/// Parses N-Triples text through the parallel pipeline. The text buffer is
/// taken by value: chunks are string_views into it.
util::Result<LoadResult> LoadNTriples(std::string text, const LoadOptions& options = {});
/// Single-read file front end for LoadNTriples.
util::Result<LoadResult> LoadNTriplesFile(const std::string& path,
                                          const LoadOptions& options = {});

/// Tokenizes Turtle sequentially, then runs the parallel encode/merge/remap
/// stages on statement batches.
util::Result<LoadResult> LoadTurtle(std::string text, const LoadOptions& options = {});
util::Result<LoadResult> LoadTurtleFile(const std::string& path,
                                        const LoadOptions& options = {});

/// Dispatches on extension: .ttl/.turtle -> Turtle, everything else
/// N-Triples.
util::Result<LoadResult> LoadRdfFile(const std::string& path,
                                     const LoadOptions& options = {});

/// Re-ranks an *incrementally built* dataset's term ids into the
/// frequency-split layout (the bulk-load pipeline ranks during the merge;
/// datasets built through Dataset::Add — generated workloads, hand-built
/// fixtures — get arrival-order ids and can opt in here). Counts and role
/// flags come from the dataset's own triples; every triple is rewritten
/// through the new id mapping in place. Call before handing ids to anything
/// that stores them (graph build, snapshots, cached TermIds).
/// `drop_unreferenced` also removes the terms no triple uses (LiveStore
/// compaction, where deletes leave such terms behind); bulk loads and the
/// generators keep every term, so their ids never depend on it.
void RerankDatasetByFrequency(Dataset* ds, bool drop_unreferenced = false);

}  // namespace turbo::rdf
