#include "server/result_encoder.hpp"

#include <array>

#include "rdf/term.hpp"

namespace turbo::server {
namespace {

using sparql::StopCause;

class JsonEncoder final : public ResultEncoder {
 public:
  const char* content_type() const override {
    return "application/sparql-results+json";
  }

  std::string Header(const std::vector<std::string>& vars) override {
    std::string out = "{\"head\":{\"vars\":[";
    for (size_t i = 0; i < vars.size(); ++i) {
      if (i) out += ',';
      out += '"';
      AppendJsonEscaped(vars[i], &out);
      out += '"';
    }
    out += "]},\"results\":{\"bindings\":[\n";
    return out;
  }

  void AppendRow(const std::vector<std::string>& vars, const sparql::Row& row,
                 const rdf::Dictionary& dict, const sparql::LocalVocab* local,
                 std::string* out) override {
    if (prefixes_.size() != vars.size()) BuildPrefixes(vars);
    if (first_) {
      first_ = false;
      *out += '{';
    } else {
      *out += ",\n{";
    }
    bool any = false;
    for (size_t i = 0; i < vars.size() && i < row.size(); ++i) {
      if (row[i] == kInvalidId) continue;  // unbound: the var is omitted
      const rdf::Term* t = sparql::ResolveTerm(dict, local, row[i]);
      if (!t) continue;
      if (any) *out += ',';
      any = true;
      *out += prefixes_[i][static_cast<size_t>(t->kind)];
      AppendJsonEscaped(t->lexical, out);
      *out += '"';
      if (!t->datatype.empty()) {
        *out += ",\"datatype\":\"";
        AppendJsonEscaped(t->datatype, out);
        *out += '"';
      }
      if (!t->lang.empty()) {
        *out += ",\"xml:lang\":\"";
        AppendJsonEscaped(t->lang, out);
        *out += '"';
      }
      *out += '}';
    }
    *out += '}';
  }

  std::string Footer(StopCause cause) override {
    std::string out = "\n]}";
    if (cause != StopCause::kNone)
      out += ",\"stopped\":\"" + std::string(sparql::ToString(cause)) + '"';
    out += "}\n";
    return out;
  }

 private:
  static constexpr size_t kKinds = 3;  ///< rdf::TermKind values

  /// Escapes each binding's `"name":{"type":"<kind>","value":"` once per
  /// response, one per term kind, so a row appends whole prefixes.
  void BuildPrefixes(const std::vector<std::string>& vars) {
    static constexpr const char* kTypes[kKinds] = {"uri", "literal", "bnode"};
    static_assert(static_cast<size_t>(rdf::TermKind::kIri) == 0 &&
                  static_cast<size_t>(rdf::TermKind::kLiteral) == 1 &&
                  static_cast<size_t>(rdf::TermKind::kBlank) == 2);
    prefixes_.assign(vars.size(), {});
    for (size_t i = 0; i < vars.size(); ++i) {
      std::string name = "\"";
      AppendJsonEscaped(vars[i], &name);
      name += "\":{\"type\":\"";
      for (size_t k = 0; k < kKinds; ++k)
        prefixes_[i][k] = name + kTypes[k] + "\",\"value\":\"";
    }
  }

  bool first_ = true;
  std::vector<std::array<std::string, kKinds>> prefixes_;
};

class TsvEncoder final : public ResultEncoder {
 public:
  const char* content_type() const override { return "text/tab-separated-values"; }

  std::string Header(const std::vector<std::string>& vars) override {
    std::string out;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (i) out += '\t';
      out += '?' + vars[i];
    }
    out += '\n';
    return out;
  }

  void AppendRow(const std::vector<std::string>& vars, const sparql::Row& row,
                 const rdf::Dictionary& dict, const sparql::LocalVocab* local,
                 std::string* out) override {
    for (size_t i = 0; i < vars.size() && i < row.size(); ++i) {
      if (i) *out += '\t';
      if (row[i] == kInvalidId) continue;  // unbound: empty field
      const rdf::Term* t = sparql::ResolveTerm(dict, local, row[i]);
      if (t) *out += t->ToNTriples();
    }
    *out += '\n';
  }

  std::string Footer(StopCause cause) override {
    if (cause == StopCause::kNone) return {};
    return std::string("# stopped: ") + sparql::ToString(cause) + '\n';
  }
};

}  // namespace

void AppendJsonEscaped(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t clean = 0;  // start of the pending run of bytes that need no escape
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + clean, i - clean);
    clean = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(esc, sizeof esc);
      }
    }
  }
  out->append(s.data() + clean, s.size() - clean);
}

std::unique_ptr<ResultEncoder> MakeResultEncoder(const std::string& format) {
  if (format == "json") return std::make_unique<JsonEncoder>();
  if (format == "tsv") return std::make_unique<TsvEncoder>();
  return nullptr;
}

}  // namespace turbo::server
