// Unit tests for the RDF substrate: terms, escaping, dictionary, N-Triples,
// reasoner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "rdf/dataset.hpp"
#include "rdf/dictionary.hpp"
#include "rdf/ntriples.hpp"
#include "rdf/reasoner.hpp"
#include "rdf/term.hpp"
#include "rdf/vocabulary.hpp"
#include "server/result_encoder.hpp"
#include "util/escape_scan.hpp"

namespace turbo::rdf {
namespace {

// ---------------------------------------------------------------------------
// Term
// ---------------------------------------------------------------------------

TEST(Term, IriSerialization) {
  EXPECT_EQ(Term::Iri("http://x/a").ToNTriples(), "<http://x/a>");
}

TEST(Term, BlankSerialization) { EXPECT_EQ(Term::Blank("b1").ToNTriples(), "_:b1"); }

TEST(Term, PlainLiteralSerialization) {
  EXPECT_EQ(Term::Literal("hi").ToNTriples(), "\"hi\"");
}

TEST(Term, LangLiteralSerialization) {
  EXPECT_EQ(Term::LangLiteral("hi", "en").ToNTriples(), "\"hi\"@en");
}

TEST(Term, TypedLiteralSerialization) {
  EXPECT_EQ(Term::TypedLiteral("5", vocab::kXsdInteger).ToNTriples(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(Term, EscapeRoundTrip) {
  std::string nasty = "a\"b\\c\nd\te\rf";
  EXPECT_EQ(UnescapeNTriples(EscapeNTriples(nasty)), nasty);
}

TEST(Term, EscapeRoundTripEcharAndControls) {
  // The full ECHAR set plus C0 controls that only \uXXXX can carry.
  std::string nasty = "g\bh\fi\x01j\x1Fk";
  std::string escaped = EscapeNTriples(nasty);
  EXPECT_EQ(escaped, "g\\bh\\fi\\u0001j\\u001Fk");
  EXPECT_EQ(UnescapeNTriples(escaped), nasty);
}

TEST(Term, UnescapeUcharShortForm) {
  EXPECT_EQ(UnescapeNTriples("\\u0041"), "A");
  // 2-byte and 3-byte UTF-8 encodings.
  EXPECT_EQ(UnescapeNTriples("\\u00E9"), "\xC3\xA9");          // é
  EXPECT_EQ(UnescapeNTriples("caf\\u00E9"), "caf\xC3\xA9");
  EXPECT_EQ(UnescapeNTriples("\\u20AC"), "\xE2\x82\xAC");      // €
}

TEST(Term, UnescapeUcharLongForm) {
  EXPECT_EQ(UnescapeNTriples("\\U00000041"), "A");
  // Astral plane needs the 8-digit form: U+1F600.
  EXPECT_EQ(UnescapeNTriples("\\U0001F600"), "\xF0\x9F\x98\x80");
}

TEST(Term, UnescapeUcharRoundTripsThroughRawUtf8) {
  // Decoding produces raw UTF-8, which Escape leaves untouched; a second
  // decode is a no-op — the lexical form is stable.
  std::string decoded = UnescapeNTriples("snowman \\u2603 and \\U0001F600");
  EXPECT_EQ(decoded, "snowman \xE2\x98\x83 and \xF0\x9F\x98\x80");
  EXPECT_EQ(UnescapeNTriples(EscapeNTriples(decoded)), decoded);
}

TEST(Term, UnescapeMalformedUcharKeptVerbatim) {
  // Truncated or non-hex sequences must not be silently mangled.
  EXPECT_EQ(UnescapeNTriples("\\u00"), "\\u00");
  EXPECT_EQ(UnescapeNTriples("\\u12G4"), "\\u12G4");
  EXPECT_EQ(UnescapeNTriples("\\U0001F6"), "\\U0001F6");
  EXPECT_EQ(UnescapeNTriples("x\\u"), "x\\u");
  // A trailing lone backslash also survives.
  EXPECT_EQ(UnescapeNTriples("x\\"), "x\\");
}

TEST(Term, UnescapeInvalidCodePointsBecomeReplacement) {
  // Lone surrogates and beyond-Unicode values cannot be UTF-8-encoded.
  EXPECT_EQ(UnescapeNTriples("\\uD800"), "\xEF\xBF\xBD");
  EXPECT_EQ(UnescapeNTriples("\\U00110000"), "\xEF\xBF\xBD");
}

TEST(NTriples, UcharEscapesUnifyWithRawUtf8Spelling) {
  // "é" and a raw é are the same literal; both spellings must intern
  // to one dictionary id.
  Dataset ds;
  auto st = ParseNTriplesString(
      "<http://x/s> <http://x/p> \"caf\\u00E9\" .\n"
      "<http://x/t> <http://x/p> \"caf\xC3\xA9\" .\n",
      &ds);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(ds.triples()[0].o, ds.triples()[1].o);
  EXPECT_EQ(ds.dict().term(ds.triples()[0].o).lexical, "caf\xC3\xA9");
}

// ---------------------------------------------------------------------------
// Escaping: the word-at-a-time scan against byte-at-a-time references
// ---------------------------------------------------------------------------

std::string ReferenceJsonEscape(std::string_view s) {
  std::string out;
  char buf[8];
  for (unsigned char c : s) {
    if (c == '"') out += "\\\"";
    else if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else if (c == '\r') out += "\\r";
    else if (c == '\t') out += "\\t";
    else if (c >= 0x20) out += static_cast<char>(c);
    else {
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    }
  }
  return out;
}

std::string ReferenceNTriplesEscape(std::string_view s) {
  std::string out;
  char buf[8];
  for (unsigned char c : s) {
    if (c == '"') out += "\\\"";
    else if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else if (c == '\r') out += "\\r";
    else if (c == '\t') out += "\\t";
    else if (c == '\b') out += "\\b";
    else if (c == '\f') out += "\\f";
    else if (c >= 0x20) out += static_cast<char>(c);
    else {
      std::snprintf(buf, sizeof buf, "\\u%04X", c);
      out += buf;
    }
  }
  return out;
}

// Every byte value at every offset of strings of 1..24 bytes, over fillers
// of clean bytes next to the escape set's edges (0x20, 0x21, '[', ']',
// 0x7F, 0x80, 0xFF), alone and with a second escape at the end: the JSON
// and N-Triples escapers and Term::AppendNTriples must equal the
// byte-at-a-time references, whichever 8-byte word or short tail the byte
// lands in.
TEST(Escape, EveryByteAtEveryOffsetMatchesByteReference) {
  static constexpr unsigned char kFill[] = {'a',  0x20, 0x21, '[', ']',
                                            0x7F, 0x80, 0xFF, 'z'};
  std::string s;
  for (size_t len = 1; len <= 24; ++len) {
    for (bool trailing_quote : {false, true}) {
      for (size_t at = 0; at < len; ++at) {
        for (int b = 0; b < 256; ++b) {
          s.resize(len);
          for (size_t i = 0; i < len; ++i)
            s[i] = static_cast<char>(kFill[i % sizeof kFill]);
          if (trailing_quote) s[len - 1] = '"';
          s[at] = static_cast<char>(b);
          SCOPED_TRACE("byte " + std::to_string(b) + " at " + std::to_string(at) +
                       " of " + std::to_string(len));
          const std::string nt = ReferenceNTriplesEscape(s);
          std::string json = "prefix";
          server::AppendJsonEscaped(s, &json);
          ASSERT_EQ(json, "prefix" + ReferenceJsonEscape(s));
          ASSERT_EQ(EscapeNTriples(s), nt);
          std::string term = "prefix";
          Term::Literal(s).AppendNTriples(&term);
          ASSERT_EQ(term, "prefix\"" + nt + "\"");
          const auto first = std::find_if(s.begin(), s.end(), [](char c) {
            const auto u = static_cast<unsigned char>(c);
            return u < 0x20 || u == '"' || u == '\\';
          });
          ASSERT_EQ(util::FindEscapeByte(s, 0), static_cast<size_t>(first - s.begin()));
        }
      }
    }
  }
}

TEST(Term, NumericValueInteger) {
  EXPECT_EQ(Term::Literal("42").NumericValue(), 42.0);
}

TEST(Term, NumericValueDecimal) {
  EXPECT_EQ(Term::Literal("-3.5").NumericValue(), -3.5);
}

TEST(Term, NumericValueRejectsText) {
  EXPECT_FALSE(Term::Literal("abc").NumericValue().has_value());
  EXPECT_FALSE(Term::Literal("12abc").NumericValue().has_value());
  EXPECT_FALSE(Term::Iri("42").NumericValue().has_value());
}

TEST(Term, EqualityDistinguishesKindAndTags) {
  EXPECT_EQ(Term::Iri("a"), Term::Iri("a"));
  EXPECT_FALSE(Term::Iri("a") == Term::Literal("a"));
  EXPECT_FALSE(Term::LangLiteral("a", "en") == Term::LangLiteral("a", "de"));
  EXPECT_FALSE(Term::TypedLiteral("a", "t1") == Term::TypedLiteral("a", "t2"));
}

// ---------------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------------

TEST(Dictionary, InternIsIdempotent) {
  Dictionary d;
  TermId a = d.GetOrAddIri("http://x/a");
  TermId b = d.GetOrAddIri("http://x/a");
  EXPECT_EQ(a, b);
  EXPECT_EQ(d.size(), 1u);
}

TEST(Dictionary, DistinctTermsGetDistinctIds) {
  Dictionary d;
  TermId a = d.GetOrAddIri("http://x/a");
  TermId b = d.GetOrAdd(Term::Literal("http://x/a"));  // same lexical, other kind
  EXPECT_NE(a, b);
}

TEST(Dictionary, FindMissesUnknown) {
  Dictionary d;
  EXPECT_FALSE(d.Find(Term::Iri("nope")).has_value());
}

TEST(Dictionary, RoundTrip) {
  Dictionary d;
  Term t = Term::LangLiteral("hello", "en");
  TermId id = d.GetOrAdd(t);
  EXPECT_EQ(d.term(id), t);
  EXPECT_EQ(d.Find(t), id);
}

TEST(Dictionary, NumericCache) {
  Dictionary d;
  TermId n = d.GetOrAdd(Term::TypedLiteral("99.5", vocab::kXsdDouble));
  TermId s = d.GetOrAdd(Term::Literal("xyz"));
  EXPECT_EQ(d.NumericValue(n), 99.5);
  EXPECT_FALSE(d.NumericValue(s).has_value());
}

// ---------------------------------------------------------------------------
// N-Triples
// ---------------------------------------------------------------------------

TEST(NTriples, ParsesBasicTriples) {
  Dataset ds;
  auto st = ParseNTriplesString(
      "<http://x/s> <http://x/p> <http://x/o> .\n"
      "# a comment\n"
      "\n"
      "<http://x/s> <http://x/p> \"lit\" .\n",
      &ds);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(ds.size(), 2u);
}

TEST(NTriples, ParsesAllTermKinds) {
  Dataset ds;
  auto st = ParseNTriplesString(
      "_:b1 <http://x/p> \"v\"@en .\n"
      "<http://x/s> <http://x/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
      &ds);
  ASSERT_TRUE(st.ok()) << st.message();
  const Term& subj = ds.dict().term(ds.triples()[0].s);
  EXPECT_TRUE(subj.is_blank());
  const Term& obj0 = ds.dict().term(ds.triples()[0].o);
  EXPECT_EQ(obj0.lang, "en");
  const Term& obj1 = ds.dict().term(ds.triples()[1].o);
  EXPECT_EQ(obj1.datatype, vocab::kXsdInteger);
}

TEST(NTriples, ParsesEscapedLiterals) {
  Dataset ds;
  auto st = ParseNTriplesString("<http://x/s> <http://x/p> \"a\\\"b\\nc\" .\n", &ds);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(ds.dict().term(ds.triples()[0].o).lexical, "a\"b\nc");
}

TEST(NTriples, RejectsMissingDot) {
  Dataset ds;
  auto st = ParseNTriplesString("<http://x/s> <http://x/p> <http://x/o>\n", &ds);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 1"), std::string::npos);
}

TEST(NTriples, RejectsUnterminatedIri) {
  Dataset ds;
  EXPECT_FALSE(ParseNTriplesString("<http://x/s <http://x/p> <http://x/o> .\n", &ds).ok());
}

TEST(NTriples, RejectsUnterminatedLiteral) {
  Dataset ds;
  EXPECT_FALSE(ParseNTriplesString("<http://x/s> <http://x/p> \"oops .\n", &ds).ok());
}

TEST(NTriples, WriteParseRoundTrip) {
  Dataset ds;
  ds.Add(Term::Iri("http://x/s"), Term::Iri("http://x/p"), Term::LangLiteral("héllo\n", "fr"));
  ds.Add(Term::Blank("z"), Term::Iri("http://x/q"), Term::TypedLiteral("1", vocab::kXsdInteger));
  std::ostringstream out;
  WriteNTriples(ds, out);
  Dataset back;
  ASSERT_TRUE(ParseNTriplesString(out.str(), &back).ok());
  ASSERT_EQ(back.size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(back.dict().term(back.triples()[i].s), ds.dict().term(ds.triples()[i].s));
    EXPECT_EQ(back.dict().term(back.triples()[i].o), ds.dict().term(ds.triples()[i].o));
  }
}

// ---------------------------------------------------------------------------
// Reasoner
// ---------------------------------------------------------------------------

class ReasonerTest : public ::testing::Test {
 protected:
  void Add(const std::string& s, const std::string& p, const std::string& o) {
    ds_.AddIri("http://t/" + s,
               p == "type"          ? std::string(vocab::kRdfType)
               : p == "subclass"    ? std::string(vocab::kRdfsSubClassOf)
               : p == "subprop"     ? std::string(vocab::kRdfsSubPropertyOf)
               : p == "domain"      ? std::string(vocab::kRdfsDomain)
               : p == "range"       ? std::string(vocab::kRdfsRange)
               : p == "inverseOf"   ? std::string(vocab::kOwlInverseOf)
                                    : "http://t/" + p,
               o == "TransitiveProperty" ? std::string(vocab::kOwlTransitiveProperty)
                                         : "http://t/" + o);
  }
  bool Has(const std::string& s, const std::string& p, const std::string& o) {
    auto si = ds_.dict().FindIri("http://t/" + s);
    auto pi = p == "type" ? ds_.dict().FindIri(vocab::kRdfType)
                          : ds_.dict().FindIri("http://t/" + p);
    auto oi = ds_.dict().FindIri("http://t/" + o);
    if (!si || !pi || !oi) return false;
    for (const Triple& t : ds_.triples())
      if (t.s == *si && t.p == *pi && t.o == *oi) return true;
    return false;
  }
  Dataset ds_;
};

TEST_F(ReasonerTest, SubclassTransitivity) {
  Add("GradStudent", "subclass", "Student");
  Add("Student", "subclass", "Person");
  Add("alice", "type", "GradStudent");
  MaterializeInference(&ds_);
  EXPECT_TRUE(Has("alice", "type", "Student"));
  EXPECT_TRUE(Has("alice", "type", "Person"));
}

TEST_F(ReasonerTest, SubclassCycleTerminates) {
  Add("A", "subclass", "B");
  Add("B", "subclass", "A");
  Add("x", "type", "A");
  MaterializeInference(&ds_);
  EXPECT_TRUE(Has("x", "type", "B"));
}

TEST_F(ReasonerTest, SubPropertyInheritance) {
  Add("ugDegreeFrom", "subprop", "degreeFrom");
  Add("degreeFrom", "subprop", "relatedTo");
  Add("alice", "ugDegreeFrom", "mit");
  MaterializeInference(&ds_);
  EXPECT_TRUE(Has("alice", "degreeFrom", "mit"));
  EXPECT_TRUE(Has("alice", "relatedTo", "mit"));
}

TEST_F(ReasonerTest, DomainAndRange) {
  Add("teaches", "domain", "Teacher");
  Add("teaches", "range", "Course");
  Add("bob", "teaches", "cs101");
  MaterializeInference(&ds_);
  EXPECT_TRUE(Has("bob", "type", "Teacher"));
  EXPECT_TRUE(Has("cs101", "type", "Course"));
}

TEST_F(ReasonerTest, TransitiveProperty) {
  Add("partOf", "type", "TransitiveProperty");
  Add("a", "partOf", "b");
  Add("b", "partOf", "c");
  Add("c", "partOf", "d");
  MaterializeInference(&ds_);
  EXPECT_TRUE(Has("a", "partOf", "c"));
  EXPECT_TRUE(Has("a", "partOf", "d"));
  EXPECT_TRUE(Has("b", "partOf", "d"));
}

TEST_F(ReasonerTest, InverseProperty) {
  Add("degreeFrom", "inverseOf", "hasAlumnus");
  Add("alice", "degreeFrom", "mit");
  Add("mit", "hasAlumnus", "bob");
  MaterializeInference(&ds_);
  EXPECT_TRUE(Has("mit", "hasAlumnus", "alice"));
  EXPECT_TRUE(Has("bob", "degreeFrom", "mit"));
}

TEST_F(ReasonerTest, ClassRule) {
  Add("carol", "headOf", "deptA");
  ReasonerOptions opt;
  opt.class_rules.push_back(
      {ds_.dict().GetOrAddIri("http://t/headOf"), ds_.dict().GetOrAddIri("http://t/Chair"),
       false});
  MaterializeInference(&ds_, opt);
  EXPECT_TRUE(Has("carol", "type", "Chair"));
}

TEST_F(ReasonerTest, ClassRuleOnObject) {
  Add("u1", "hasDept", "deptA");
  ReasonerOptions opt;
  opt.class_rules.push_back({ds_.dict().GetOrAddIri("http://t/hasDept"),
                             ds_.dict().GetOrAddIri("http://t/Department"), true});
  MaterializeInference(&ds_, opt);
  EXPECT_TRUE(Has("deptA", "type", "Department"));
}

TEST_F(ReasonerTest, ChainedRules) {
  // subPropertyOf then inverseOf then subclass-of-type, like LUBM Q13.
  Add("ugDegreeFrom", "subprop", "degreeFrom");
  Add("degreeFrom", "inverseOf", "hasAlumnus");
  Add("alice", "ugDegreeFrom", "mit");
  MaterializeInference(&ds_);
  EXPECT_TRUE(Has("mit", "hasAlumnus", "alice"));
}

TEST_F(ReasonerTest, MarksInferredBoundary) {
  Add("GradStudent", "subclass", "Student");
  Add("alice", "type", "GradStudent");
  size_t before = ds_.size();
  auto stats = MaterializeInference(&ds_);
  EXPECT_EQ(ds_.num_original(), before);
  EXPECT_EQ(stats.inferred_triples, ds_.size() - before);
  EXPECT_GT(stats.inferred_triples, 0u);
  for (size_t i = before; i < ds_.size(); ++i) EXPECT_TRUE(ds_.IsInferred(i));
}

TEST_F(ReasonerTest, FixpointIsIdempotent) {
  Add("partOf", "type", "TransitiveProperty");
  Add("A", "subclass", "B");
  Add("x", "type", "A");
  Add("a", "partOf", "b");
  Add("b", "partOf", "c");
  MaterializeInference(&ds_);
  size_t after_first = ds_.size();
  auto stats2 = MaterializeInference(&ds_);
  EXPECT_EQ(stats2.inferred_triples, 0u);
  EXPECT_EQ(ds_.size(), after_first);
}

TEST_F(ReasonerTest, NoDuplicateInferences) {
  Add("A", "subclass", "C");
  Add("B", "subclass", "C");
  Add("x", "type", "A");
  Add("x", "type", "B");
  MaterializeInference(&ds_);
  // (x type C) derivable twice; must appear once.
  int count = 0;
  auto xc = ds_.dict().FindIri("http://t/x");
  auto tc = ds_.dict().FindIri(vocab::kRdfType);
  auto cc = ds_.dict().FindIri("http://t/C");
  for (const Triple& t : ds_.triples())
    if (t.s == *xc && t.p == *tc && t.o == *cc) ++count;
  EXPECT_EQ(count, 1);
}

TEST_F(ReasonerTest, DisabledRulesDoNotFire) {
  Add("A", "subclass", "B");
  Add("x", "type", "A");
  ReasonerOptions opt;
  opt.subclass_inheritance = false;
  MaterializeInference(&ds_, opt);
  EXPECT_FALSE(Has("x", "type", "B"));
}

}  // namespace
}  // namespace turbo::rdf
