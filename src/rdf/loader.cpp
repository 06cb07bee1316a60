#include "rdf/loader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rdf/ntriples.hpp"
#include "rdf/turtle.hpp"
#include "rdf/vocabulary.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace turbo::rdf {

namespace {

struct ChunkError {
  uint64_t local_line = 0;  ///< 1-based within the chunk
  std::string message;
  std::string line_text;
};

/// Triple over chunk-local mini-dictionary ids.
struct LocalTriple {
  uint32_t s, p, o;
};

/// One parsed chunk: mini-dictionary (key-only batch + flat lookup table
/// over it), encoded triples, and bookkeeping for line attribution / error
/// parity. Terms are never materialized during chunk parsing — only keys;
/// the merge installs Terms for globally-new entries.
struct ParsedChunk {
  TermBatch batch;
  FlatIdMap map;
  std::vector<LocalTriple> triples;
  uint64_t lines = 0;
  uint64_t skipped = 0;
  std::optional<ChunkError> error;
};

uint32_t InternSlice(ParsedChunk* c, const TermSlice& slice) {
  // Fast path: the raw source span IS the canonical key — hash it in place,
  // no key construction, no copies, no Term materialization.
  if (!slice.needs_canonical_key) {
    size_t hash = TermKeyHash{}(slice.raw);
    uint32_t id = c->map.Find(hash, slice.raw);
    if (id != FlatIdMap::kNotFound) return id;
    id = static_cast<uint32_t>(c->batch.size());
    c->batch.AddKeyView(slice.raw, hash);  // the parse buffer outlives us
    c->map.Insert(hash, slice.raw, id);
    return id;
  }
  // Rare path: escapes / raw control characters force re-serialization so
  // the key matches Term::ToNTriples exactly.
  std::string key = MaterializeTerm(slice).ToNTriples();
  size_t hash = TermKeyHash{}(key);
  uint32_t id = c->map.Find(hash, key);
  if (id != FlatIdMap::kNotFound) return id;
  id = static_cast<uint32_t>(c->batch.size());
  std::string_view stable = c->batch.AddOwnedKey(std::move(key), hash);
  c->map.Insert(hash, stable, id);
  return id;
}

/// Interns an already-materialized term (Turtle encode stage; the batch
/// carries the Terms, so the merge moves instead of re-parsing them).
uint32_t InternTerm(ParsedChunk* c, Term term) {
  std::string key = term.ToNTriples();
  size_t hash = TermKeyHash{}(key);
  uint32_t id = c->map.Find(hash, key);
  if (id != FlatIdMap::kNotFound) return id;
  id = static_cast<uint32_t>(c->batch.size());
  c->batch.AddOwned(std::move(term), std::move(key), hash);
  c->map.Insert(hash, c->batch.keys.back(), id);
  return id;
}

/// Fills the chunk batch's occurrence counts and role flags from its encoded
/// triples — the per-shard signal the merge's frequency-split ranking
/// aggregates. One cache-friendly pass over the local triples; the rdf:type
/// predicate is looked up once per chunk by its canonical key.
void AccumulateTermStats(ParsedChunk* c) {
  TermBatch& b = c->batch;
  b.counts.assign(b.size(), 0);
  b.flags.assign(b.size(), 0);
  const std::string type_key = "<" + std::string(vocab::kRdfType) + ">";
  const uint32_t type_id = c->map.Find(TermKeyHash{}(type_key), type_key);
  for (const LocalTriple& t : c->triples) {
    ++b.counts[t.s];
    ++b.counts[t.p];
    ++b.counts[t.o];
    b.flags[t.p] |= kRolePredicate;
    if (t.p == type_id) b.flags[t.o] |= kRoleTypeObject;
  }
}

void SkipSpace(std::string_view line, size_t* pos) {
  while (*pos < line.size() && (line[*pos] == ' ' || line[*pos] == '\t')) ++(*pos);
}

/// Parses one newline-aligned chunk, mirroring ParseNTriples line handling
/// exactly (same accepted inputs, same error messages). Always counts every
/// line in the chunk — even past an error — so downstream chunks' starting
/// line offsets stay exact and first-error-wins selection is correct.
void ParseNTriplesChunk(std::string_view text, LoadOptions::OnError on_error,
                        ParsedChunk* c) {
  c->triples.reserve(text.size() / 48);   // ballpark bytes-per-statement
  c->map = FlatIdMap(text.size() / 200);  // ballpark distinct terms per byte
  size_t pos = 0;
  uint64_t line_no = 0;
  // One-entry memos for the subject / predicate positions: real dumps emit
  // runs of statements about one subject (and repeated predicates), so a
  // bytewise match with the previous line skips the hash + probe entirely.
  std::string_view memo_raw[2];
  uint32_t memo_id[2] = {0, 0};
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    size_t end = eol == std::string_view::npos ? text.size() : eol;
    std::string_view line = text.substr(pos, end - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++line_no;
    if (c->error) continue;  // keep counting lines only

    size_t lp = 0;
    SkipSpace(line, &lp);
    if (lp >= line.size() || line[lp] == '#') continue;
    TermSlice s, p, o;
    std::string err;
    bool ok = ScanTerm(line, &lp, &s, &err) && ScanTerm(line, &lp, &p, &err) &&
              ScanTerm(line, &lp, &o, &err);
    if (ok) {
      SkipSpace(line, &lp);
      if (lp >= line.size() || line[lp] != '.') {
        ok = false;
        err = "missing terminating '.'";
      }
    }
    if (!ok) {
      if (on_error == LoadOptions::OnError::kSkip) {
        ++c->skipped;
        continue;
      }
      c->error = ChunkError{line_no, std::move(err), std::string(line)};
      continue;
    }
    auto intern_memoed = [&](const TermSlice& slice, int which) {
      if (!slice.needs_canonical_key && slice.raw == memo_raw[which])
        return memo_id[which];
      uint32_t id = InternSlice(c, slice);
      if (!slice.needs_canonical_key) {
        memo_raw[which] = slice.raw;
        memo_id[which] = id;
      }
      return id;
    };
    uint32_t si = intern_memoed(s, 0);
    uint32_t pi = intern_memoed(p, 1);
    uint32_t oi = InternSlice(c, o);
    c->triples.push_back({si, pi, oi});
  }
  c->lines = line_no;
  AccumulateTermStats(c);
}

uint32_t ResolveThreads(const LoadOptions& options) {
  uint32_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (options.threads == 0) return hw;
  // Oversubscribing a CPU-bound pipeline only adds scheduling overhead, so
  // requests beyond the hardware are clamped (LoadStats::threads reports
  // what actually ran).
  return std::min(options.threads, hw);
}

/// Stages 2+3, shared by both formats: sharded dictionary merge, id-parallel
/// remap into the dataset's original region, optional fused graph build.
util::Status AssembleChunks(std::vector<ParsedChunk>* chunks, const LoadOptions& options,
                            util::ThreadPool* pool, LoadResult* out) {
  util::WallTimer timer;
  LoadStats& stats = out->stats;
  Dataset& ds = out->dataset;

  // ---- Sharded dictionary merge. No up-front Reserve: a sum of per-batch
  // sizes over-counts shared terms ~2x on skewed inputs, so the merge sizes
  // each shard exactly from its resolved distinct count instead. ----
  std::vector<TermBatch> batches(chunks->size());
  for (size_t i = 0; i < chunks->size(); ++i)
    batches[i] = std::move((*chunks)[i].batch);
  std::vector<std::vector<TermId>> mappings;
  ds.dict().MergeBatches(&batches, &mappings, pool);
  stats.merge_ms = timer.ElapsedMillis();
  timer.Reset();

  // ---- Id-parallel remap into dataset order. ----
  uint64_t total = 0;
  std::vector<uint64_t> offsets(chunks->size() + 1, 0);
  for (size_t i = 0; i < chunks->size(); ++i) {
    offsets[i] = total;
    total += (*chunks)[i].triples.size();
  }
  offsets[chunks->size()] = total;
  std::vector<Triple> encoded(total);
  pool->ParallelFor(chunks->size(), 1, [&](uint64_t begin, uint64_t end, uint32_t) {
    for (uint64_t ci = begin; ci < end; ++ci) {
      const ParsedChunk& chunk = (*chunks)[ci];
      const std::vector<TermId>& map = mappings[ci];
      Triple* slot = encoded.data() + offsets[ci];
      for (const LocalTriple& t : chunk.triples)
        *slot++ = Triple{map[t.s], map[t.p], map[t.o]};
    }
  });
  if (auto st = ds.AppendOriginal(encoded); !st.ok()) return st;
  stats.remap_ms = timer.ElapsedMillis();
  timer.Reset();

  stats.triples = total;
  stats.terms = ds.dict().size();
  stats.chunks = chunks->size();

  // ---- Optional fused graph build: chunks feed the builder in order. ----
  if (options.build_graph) {
    graph::GraphBuilder builder(ds.dict(), options.transform);
    for (size_t i = 0; i < chunks->size(); ++i)
      builder.Append({encoded.data() + offsets[i],
                      static_cast<size_t>(offsets[i + 1] - offsets[i])},
                     /*inferred=*/false);
    out->graph = std::make_unique<graph::DataGraph>(builder.Finish());
    stats.graph_ms = timer.ElapsedMillis();
  }
  return util::Status::Ok();
}

util::Result<LoadResult> ReadFileThen(
    const std::string& path,
    util::Result<LoadResult> (*load)(std::string, const LoadOptions&),
    const LoadOptions& options) {
  util::WallTimer timer;
  // Streamed read (not ftell-sized): also correct for FIFOs, /proc files,
  // and other non-regular inputs whose size cannot be known up front.
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::Error("cannot open " + path);
  std::string text;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
    text.append(buf, static_cast<size_t>(in.gcount()));
  double read_ms = timer.ElapsedMillis();
  auto result = load(std::move(text), options);
  if (result.ok()) {
    result.value().stats.read_ms = read_ms;
    result.value().stats.total_ms += read_ms;
  }
  return result;
}

/// Read-only file mapping: the N-Triples chunk parser works on views, so
/// mapping skips the kernel->user copy an fread would pay for the whole
/// dump. ok() is false when the file cannot be opened OR mapped; the
/// caller falls back to the buffered reader.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return;
    struct stat st;
    // Only regular files map meaningfully; FIFOs / device / proc files
    // must go through the streamed fallback (st_size lies for them).
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
      if (st.st_size > 0) {
        void* p = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ, MAP_PRIVATE,
                         fd, 0);
        if (p != MAP_FAILED) {
          data_ = static_cast<const char*>(p);
          size_ = static_cast<size_t>(st.st_size);
          // One call gives one hint: advice values are not flags
          // (MADV_SEQUENTIAL | MADV_WILLNEED == 2 | 3 == MADV_WILLNEED).
          // Read the whole file ahead.
          ::madvise(p, size_, MADV_WILLNEED);
        }
      } else {
        empty_ok_ = true;
      }
    }
    ::close(fd);
  }
  ~MappedFile() {
    if (data_) ::munmap(const_cast<char*>(data_), size_);
  }
  bool ok() const { return data_ != nullptr || empty_ok_; }
  std::string_view view() const { return {data_, size_}; }

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
  bool empty_ok_ = false;
};

util::Result<LoadResult> LoadNTriplesView(std::string_view text, const LoadOptions& options);

}  // namespace

util::Result<LoadResult> LoadNTriples(std::string text, const LoadOptions& options) {
  return LoadNTriplesView(text, options);
}

namespace {

util::Result<LoadResult> LoadNTriplesView(std::string_view text, const LoadOptions& options) {
  util::WallTimer total_timer;
  util::WallTimer timer;
  LoadResult out;
  out.stats.bytes = text.size();
  uint32_t threads = ResolveThreads(options);
  out.stats.threads = threads;

  // ---- Newline-aligned chunk boundaries (deterministic: they depend only
  // on chunk_bytes and the input, never on the thread count). ----
  size_t chunk_bytes = options.chunk_bytes > 0
                           ? options.chunk_bytes
                           : std::clamp(text.size() / 64, size_t{2} << 20, size_t{4} << 20);
  std::vector<std::pair<size_t, size_t>> bounds;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t target = begin + chunk_bytes;
    size_t end;
    if (target >= text.size()) {
      end = text.size();
    } else {
      size_t nl = text.find('\n', target);
      end = nl == std::string::npos ? text.size() : nl + 1;
    }
    bounds.emplace_back(begin, end);
    begin = end;
  }

  // ---- Stage 1: parallel chunk parse into mini-dictionaries. ----
  util::ThreadPool pool(threads);
  std::vector<ParsedChunk> chunks(bounds.size());
  pool.ParallelFor(bounds.size(), 1, [&](uint64_t b, uint64_t e, uint32_t) {
    for (uint64_t i = b; i < e; ++i)
      ParseNTriplesChunk(
          std::string_view(text).substr(bounds[i].first, bounds[i].second - bounds[i].first),
          options.on_error, &chunks[i]);
  });
  out.stats.parse_ms = timer.ElapsedMillis();
  timer.Reset();

  // ---- Error selection: first error by global line, matching what the
  // sequential parser would have reported. ----
  uint64_t line_offset = 0;
  for (const ParsedChunk& c : chunks) {
    out.stats.lines += c.lines;
    out.stats.skipped_lines += c.skipped;
    if (c.error)
      return MakeParseError(line_offset + c.error->local_line, c.error->message,
                            c.error->line_text);
    line_offset += c.lines;
  }

  if (auto st = AssembleChunks(&chunks, options, &pool, &out); !st.ok()) return st;
  out.stats.total_ms = total_timer.ElapsedMillis();
  return out;
}

}  // namespace

util::Result<LoadResult> LoadTurtle(std::string text, const LoadOptions& options) {
  util::WallTimer total_timer;
  util::WallTimer timer;
  LoadResult out;
  out.stats.bytes = text.size();
  uint32_t threads = ResolveThreads(options);
  out.stats.threads = threads;

  // ---- Stage 1a: sequential tokenization into statement batches (the
  // prefix table is stateful), sized so a batch is comparable to an
  // N-Triples chunk. ----
  const size_t batch_statements =
      std::max<size_t>(1, (options.chunk_bytes > 0 ? options.chunk_bytes : (4u << 20)) / 256);
  std::vector<std::vector<Term>> stmt_batches;  // flat s,p,o runs
  stmt_batches.emplace_back();
  stmt_batches.back().reserve(3 * batch_statements);
  util::Status st = ParseTurtleToSink(std::move(text), [&](Term s, Term p, Term o) {
    std::vector<Term>& batch = stmt_batches.back();
    if (batch.size() >= 3 * batch_statements) {
      stmt_batches.emplace_back();
      stmt_batches.back().reserve(3 * batch_statements);
    }
    stmt_batches.back().push_back(std::move(s));
    stmt_batches.back().push_back(std::move(p));
    stmt_batches.back().push_back(std::move(o));
  });
  if (!st.ok()) return st;

  // ---- Stage 1b: parallel encode of statement batches into
  // mini-dictionaries (the same merge/remap stages as N-Triples follow). ----
  util::ThreadPool pool(threads);
  std::vector<ParsedChunk> chunks(stmt_batches.size());
  pool.ParallelFor(stmt_batches.size(), 1, [&](uint64_t b, uint64_t e, uint32_t) {
    for (uint64_t i = b; i < e; ++i) {
      std::vector<Term>& terms = stmt_batches[i];
      ParsedChunk& c = chunks[i];
      c.triples.reserve(terms.size() / 3);
      for (size_t k = 0; k + 2 < terms.size(); k += 3) {
        uint32_t si = InternTerm(&c, std::move(terms[k]));
        uint32_t pi = InternTerm(&c, std::move(terms[k + 1]));
        uint32_t oi = InternTerm(&c, std::move(terms[k + 2]));
        c.triples.push_back({si, pi, oi});
      }
      terms.clear();
      terms.shrink_to_fit();
      AccumulateTermStats(&c);
    }
  });
  out.stats.parse_ms = timer.ElapsedMillis();

  if (auto ast = AssembleChunks(&chunks, options, &pool, &out); !ast.ok()) return ast;
  out.stats.total_ms = total_timer.ElapsedMillis();
  return out;
}

util::Result<LoadResult> LoadNTriplesFile(const std::string& path,
                                          const LoadOptions& options) {
  util::WallTimer timer;
  // Non-regular inputs (FIFOs, /proc, devices) must not be opened twice —
  // a probe open would consume the stream (or kill its writer) — so route
  // them to the single-open streamed reader up front.
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
    return ReadFileThen(path, &LoadNTriples, options);
  MappedFile mapped(path);
  // Regular file whose mmap was refused: reopening for a buffered read is
  // safe (also reproduces "cannot open" for unopenable paths).
  if (!mapped.ok()) return ReadFileThen(path, &LoadNTriples, options);
  double read_ms = timer.ElapsedMillis();  // page-ins accrue to parse time
  auto result = LoadNTriplesView(mapped.view(), options);
  if (result.ok()) {
    result.value().stats.read_ms = read_ms;
    result.value().stats.total_ms += read_ms;
  }
  return result;
}

util::Result<LoadResult> LoadTurtleFile(const std::string& path, const LoadOptions& options) {
  return ReadFileThen(path, &LoadTurtle, options);
}

util::Result<LoadResult> LoadRdfFile(const std::string& path, const LoadOptions& options) {
  auto dot = path.rfind('.');
  std::string ext = dot == std::string::npos ? "" : path.substr(dot + 1);
  if (ext == "ttl" || ext == "turtle") return LoadTurtleFile(path, options);
  return LoadNTriplesFile(path, options);
}

void RerankDatasetByFrequency(Dataset* ds) {
  Dictionary& dict = ds->dict();
  const size_t n = dict.size();
  if (n == 0) return;
  std::vector<RankInput> items(n);
  for (size_t i = 0; i < n; ++i) items[i].first = i;  // old id = arrival order
  const std::optional<TermId> type_id = dict.Find(Term::Iri(vocab::kRdfType));
  for (const Triple& t : ds->triples()) {
    ++items[t.s].count;
    ++items[t.p].count;
    ++items[t.o].count;
    items[t.p].flags |= kRolePredicate;
    if (type_id && t.p == *type_id) items[t.o].flags |= kRoleTypeObject;
  }
  size_t band = 0;
  const std::vector<uint32_t> order = FrequencySplitOrder(items, &band);
  dict.Permute(order, band);
  std::vector<TermId> new_id(n);
  for (size_t r = 0; r < n; ++r) new_id[order[r]] = static_cast<TermId>(r);
  for (Triple& t : ds->mutable_triples()) {
    t.s = new_id[t.s];
    t.p = new_id[t.p];
    t.o = new_id[t.o];
  }
}

}  // namespace turbo::rdf
