// Tests for the shared bench flag parser and CSV path helpers.
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/transport.h"
#include "mac/mac.h"

namespace jtp::bench {
namespace {

ParseResult parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  return parse_args(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
}

TEST(ParseArgs, Defaults) {
  const auto r = parse({});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.options.full);
  EXPECT_EQ(r.options.seed, 1u);
  EXPECT_FALSE(r.options.runs.has_value());
  EXPECT_TRUE(r.options.csv_path.empty());
  EXPECT_EQ(r.options.jobs, 0u);
}

TEST(ParseArgs, AllFlags) {
  const auto r =
      parse({"--full", "--seed", "42", "--runs", "7", "--jobs", "3", "--csv",
             "out.csv"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.options.full);
  EXPECT_EQ(r.options.seed, 42u);
  EXPECT_EQ(r.options.runs, std::optional<std::size_t>(7));
  EXPECT_EQ(r.options.jobs, 3u);
  EXPECT_EQ(r.options.csv_path, "out.csv");
}

TEST(ParseArgs, HelpRequested) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"-h"}).help);
}

TEST(ParseArgs, UnknownFlagIsError) {
  const auto r = parse({"--bogus"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--bogus"), std::string::npos);
  EXPECT_FALSE(parse({"--shards", "2"}).ok());  // no longer a flag
}

TEST(ParseArgs, MissingValueIsError) {
  EXPECT_FALSE(parse({"--seed"}).ok());
  EXPECT_FALSE(parse({"--runs"}).ok());
  EXPECT_FALSE(parse({"--jobs"}).ok());
  EXPECT_FALSE(parse({"--csv"}).ok());
}

TEST(ParseArgs, NonNumericValueIsError) {
  EXPECT_FALSE(parse({"--seed", "abc"}).ok());
  EXPECT_FALSE(parse({"--runs", "3x"}).ok());
  EXPECT_FALSE(parse({"--jobs", ""}).ok());
}

TEST(ParseArgs, NegativeValueIsError) {
  // strtoull would silently wrap "-1" to 2^64-1 (and then e.g.
  // vector(n_runs) aborts); the parser must reject the sign up front.
  EXPECT_FALSE(parse({"--runs", "-1"}).ok());
  EXPECT_FALSE(parse({"--seed", "-7"}).ok());
  EXPECT_FALSE(parse({"--jobs", "-4"}).ok());
  EXPECT_FALSE(parse({"--runs", "+3"}).ok());
  EXPECT_FALSE(parse({"--runs", " 3"}).ok());
}

TEST(ParseArgs, ZeroRunsIsError) {
  EXPECT_FALSE(parse({"--runs", "0"}).ok());
}

TEST(ParseArgs, PositionalArgumentIsError) {
  EXPECT_FALSE(parse({"quick"}).ok());
}

TEST(ParseArgs, ProtoFlagParsesKnownNames) {
  const auto r = parse({"--proto", "atp"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.options.proto.has_value());
  EXPECT_EQ(*r.options.proto, exp::Proto::kAtp);
  EXPECT_FALSE(parse({}).options.proto.has_value());  // default: unset
}

TEST(ParseArgs, ProtoFlagRejectsUnknownNames) {
  const auto r = parse({"--proto", "quic"});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("quic"), std::string::npos);
  EXPECT_FALSE(parse({"--proto"}).ok());  // missing value
}

TEST(ParseArgs, ScenarioFlagValidatesTokens) {
  const auto ok = parse({"--scenario", "net_size=8,loss_good=0.1"});
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.options.scenario, "net_size=8,loss_good=0.1");

  // The flag is named once, not stacked on the spec parser's own prefix.
  EXPECT_EQ(parse({"--scenario", "bogus_key=1"}).error,
            "--scenario: unknown key 'bogus_key'");
  EXPECT_FALSE(parse({"--scenario", "net_size=zero"}).ok());
  EXPECT_FALSE(parse({"--scenario"}).ok());  // missing value
}

TEST(ParseArgs, ScenarioFlagRejectsProtoAndSeedKeys) {
  // proto= would bypass per-bench protocol guards; seed= would be
  // silently overwritten by the per-run seed derivation.
  const auto p = parse({"--scenario", "proto=tcp"});
  EXPECT_FALSE(p.ok());
  EXPECT_NE(p.error.find("--proto"), std::string::npos);
  const auto s = parse({"--scenario", "net_size=5,seed=9"});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error.find("--seed"), std::string::npos);
}

TEST(SweepOr, CollapsesOnlyWhenOverridden) {
  const std::vector<std::size_t> sweep{2, 4, 8};
  EXPECT_EQ(sweep_or<std::size_t>(5, 5, sweep), sweep);  // untouched
  EXPECT_EQ(sweep_or<std::size_t>(12, 5, sweep),
            std::vector<std::size_t>{12});  // override wins
}

// A workload valid at the base net_size but unhostable at a smaller
// sweep point exits 2 with the validation message before any run.
TEST(ValidateSizes, UnhostableSweepPointExitsTwo) {
  const auto parsed = exp::parse_scenario("linear,workload=fan_in,fan_in=3");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  validate_sizes(parsed.spec, {4, 5, 10});  // every point hosts 3 senders
  EXPECT_EXIT(validate_sizes(parsed.spec, {2, 3, 4}),
              ::testing::ExitedWithCode(2),
              "^error: --scenario: fan_in must be at most net_size - 1 "
              "\\(sweep point net_size=2\\)");
}

TEST(Options, ProtoHelpers) {
  Options o;
  const std::vector<exp::Proto> defaults{exp::Proto::kJtp, exp::Proto::kTcp};
  EXPECT_EQ(o.protos_or(defaults), defaults);
  EXPECT_EQ(o.proto_or(exp::Proto::kJtp), exp::Proto::kJtp);
  o.proto = exp::Proto::kAtp;
  EXPECT_EQ(o.protos_or(defaults),
            std::vector<exp::Proto>{exp::Proto::kAtp});
  EXPECT_EQ(o.proto_or(exp::Proto::kJtp), exp::Proto::kAtp);
}

TEST(Options, PickRunsPrecedence) {
  Options o;
  EXPECT_EQ(o.pick_runs(3, 20), 3u);
  o.full = true;
  EXPECT_EQ(o.pick_runs(3, 20), 20u);
  o.runs = 7;
  EXPECT_EQ(o.pick_runs(3, 20), 7u);  // --runs wins over --full
}

// True if `name` appears in `text` as a whole word (so "tdma" inside
// "tdma_reuse" does not count).
bool names_word(const std::string& text, const std::string& name) {
  auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (auto at = text.find(name); at != std::string::npos;
       at = text.find(name, at + 1)) {
    const auto end = at + name.size();
    if ((at == 0 || !is_word(text[at - 1])) &&
        (end == text.size() || !is_word(text[end])))
      return true;
  }
  return false;
}

// The help must name every preset, MAC and protocol the parsers accept.
// Enumerators are probed over the whole underlying range, so a new one
// that becomes CLI-parseable fails here until the help mentions it.
TEST(UsageText, NamesEveryPresetMacAndProto) {
  const std::string help = usage_text();
  for (const auto& p : exp::preset_names())
    EXPECT_TRUE(names_word(help, p)) << "preset " << p;
  for (int v = 0; v < 256; ++v) {
    const auto m = static_cast<mac::Mac>(v);
    if (mac::parse_mac(mac::mac_name(m)) == m) {
      EXPECT_TRUE(names_word(help, mac::mac_name(m))) << "mac " << v;
    }
    const auto p = static_cast<core::Proto>(v);
    if (core::parse_proto(core::proto_name(p)) == p) {
      EXPECT_TRUE(names_word(help, core::proto_name(p))) << "proto " << v;
    }
  }
}

TEST(CsvSectionPath, InsertsBeforeExtension) {
  EXPECT_EQ(csv_section_path("out.csv", "a"), "out.a.csv");
  EXPECT_EQ(csv_section_path("dir/out.csv", "b"), "dir/out.b.csv");
}

TEST(CsvSectionPath, EmptySectionKeepsBase) {
  EXPECT_EQ(csv_section_path("out.csv", ""), "out.csv");
}

TEST(CsvSectionPath, NoExtensionAppends) {
  EXPECT_EQ(csv_section_path("out", "a"), "out.a");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(csv_section_path("some.dir/out", "a"), "some.dir/out.a");
}

}  // namespace
}  // namespace jtp::bench
