// Streamed SPARQL result encoders: a Header, one fragment per row, and a
// Footer, which the server appends into its one reusable chunk buffer and
// hands to the chunked response writer — a result is encoded row by row as
// the cursor delivers, never materialized.
//
// Two formats: SPARQL 1.1 JSON results (application/sparql-results+json) and
// TSV (text/tab-separated-values). When the stream stops early (deadline,
// row budget, cancel) the footer carries an in-body marker — a "stopped"
// member in JSON, a "# stopped: <cause>" comment line in TSV — because the
// status line and headers are long gone by then.
//
// An encoder serves one response: every call passes the same `vars`.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.hpp"
#include "sparql/local_vocab.hpp"
#include "sparql/solver.hpp"

namespace turbo::server {

class ResultEncoder {
 public:
  virtual ~ResultEncoder() = default;

  virtual const char* content_type() const = 0;
  virtual std::string Header(const std::vector<std::string>& vars) = 0;
  /// Appends one row's fragment, separator included, to `*out`.
  virtual void AppendRow(const std::vector<std::string>& vars, const sparql::Row& row,
                         const rdf::Dictionary& dict, const sparql::LocalVocab* local,
                         std::string* out) = 0;
  /// `cause` is kNone for a clean end of stream.
  virtual std::string Footer(sparql::StopCause cause) = 0;

  /// One row's fragment as a string of its own (AppendRow into a fresh
  /// one, sized from the previous fragment so it is allocated once).
  std::string EncodeRow(const std::vector<std::string>& vars, const sparql::Row& row,
                        const rdf::Dictionary& dict, const sparql::LocalVocab* local) {
    std::string out;
    out.reserve(last_row_bytes_ + last_row_bytes_ / 2);
    AppendRow(vars, row, dict, local, &out);
    last_row_bytes_ = out.size();
    return out;
  }

 private:
  size_t last_row_bytes_ = 0;
};

/// `format` is "json" or "tsv"; anything else returns null.
std::unique_ptr<ResultEncoder> MakeResultEncoder(const std::string& format);

/// Appends `s` escaped for a JSON string literal (no surrounding quotes).
/// Runs of bytes that need no escape are appended in one call each.
void AppendJsonEscaped(std::string_view s, std::string* out);

}  // namespace turbo::server
