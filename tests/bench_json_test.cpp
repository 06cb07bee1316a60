// The bench JSON emission layer is itself under CTest: the machine tag must
// carry the keys compare_results.py keys off, and ToJson/FromJson must
// round-trip exactly so checked-in bench/results/ baselines can't drift out
// of parseability unnoticed.
#include "bench/bench_json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace turbo {
namespace {

TEST(MachineTag, CarriesRequiredKeys) {
  auto tag = bench::MachineTag();
  ASSERT_TRUE(tag.count("host"));
  EXPECT_FALSE(tag.at("host").empty());
  ASSERT_TRUE(tag.count("cores"));
  EXPECT_GT(std::stoi(tag.at("cores")), 0);
  ASSERT_TRUE(tag.count("compiler"));
  EXPECT_FALSE(tag.at("compiler").empty());
  ASSERT_TRUE(tag.count("build"));
}

bench::BenchReport SampleReport() {
  bench::BenchReport r;
  r.bench = "bench_table3_lubm";
  r.machine = bench::MachineTag();
  r.config["lubm_scales"] = "2,8";
  r.config["reps"] = "5";
  r.results.push_back({"LUBM2/Q1/TurboHOM++", {{"ms", 0.125}, {"rows", 4}, {"allocs", 123}}});
  r.results.push_back({"LUBM2/Q2/TurboHOM++", {{"ms", 17.5}, {"rows", 0}}});
  r.results.push_back({"LUBM8/Q14/SortMerge(RDF-3X-like)", {{"ms", 1234.5678}}});
  return r;
}

TEST(BenchJson, RoundTripsExactly) {
  bench::BenchReport r = SampleReport();
  std::string json = r.ToJson();
  bench::BenchReport parsed;
  std::string err;
  ASSERT_TRUE(bench::BenchReport::FromJson(json, &parsed, &err)) << err;
  EXPECT_EQ(r, parsed);
  // Serializing the parse yields byte-identical JSON (canonical form).
  EXPECT_EQ(json, parsed.ToJson());
}

TEST(BenchJson, RoundTripsAwkwardStringsAndNumbers) {
  bench::BenchReport r;
  r.bench = "quotes \" backslash \\ newline \n tab \t done";
  r.machine["weird\"key"] = "value with \\ and \"quotes\"";
  r.results.push_back({"q/<http://x/e1>\t", {{"neg", -0.0625}, {"tiny", 1e-9},
                                             {"big", 1.5e12}, {"zero", 0}}});
  bench::BenchReport parsed;
  std::string err;
  ASSERT_TRUE(bench::BenchReport::FromJson(r.ToJson(), &parsed, &err)) << err;
  EXPECT_EQ(r, parsed);
}

TEST(BenchJson, RoundTripsEmptySections) {
  bench::BenchReport r;
  r.bench = "empty";
  bench::BenchReport parsed;
  std::string err;
  ASSERT_TRUE(bench::BenchReport::FromJson(r.ToJson(), &parsed, &err)) << err;
  EXPECT_EQ(r, parsed);
  EXPECT_TRUE(parsed.results.empty());
  EXPECT_TRUE(parsed.machine.empty());
}

TEST(BenchJson, RejectsMalformedInput) {
  bench::BenchReport out;
  std::string err;
  EXPECT_FALSE(bench::BenchReport::FromJson("", &out, &err));
  EXPECT_FALSE(bench::BenchReport::FromJson("{", &out, &err));
  EXPECT_FALSE(bench::BenchReport::FromJson("[]", &out, &err));
  EXPECT_FALSE(bench::BenchReport::FromJson("{\"bench\": \"x\"}", &out, &err))
      << "missing results must be rejected";
  EXPECT_FALSE(bench::BenchReport::FromJson(
      "{\"bench\": \"x\", \"results\": [], \"surprise\": 1}", &out, &err))
      << "unknown keys must be rejected";
  std::string valid = SampleReport().ToJson();
  EXPECT_FALSE(bench::BenchReport::FromJson(valid + "trailing", &out, &err))
      << "trailing garbage must be rejected";
  EXPECT_TRUE(bench::BenchReport::FromJson(valid, &out, &err)) << err;
}

TEST(BenchJson, ParsesMinimalHandwrittenReport) {
  // The schema as a human would type it (whitespace variations, ints).
  const std::string text = R"({
    "bench": "b",
    "results": [ {"name": "a", "metrics": {"ms": 3}} ,
                 {"name": "b", "metrics": {}} ],
    "machine": {"host": "h"},
    "config": {}
  })";
  bench::BenchReport out;
  std::string err;
  ASSERT_TRUE(bench::BenchReport::FromJson(text, &out, &err)) << err;
  EXPECT_EQ(out.bench, "b");
  ASSERT_EQ(out.results.size(), 2u);
  EXPECT_EQ(out.results[0].metrics.at("ms"), 3.0);
  EXPECT_EQ(out.machine.at("host"), "h");
}

}  // namespace
}  // namespace turbo
