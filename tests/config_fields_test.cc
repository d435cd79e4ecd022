// The config-field table: strict per-flag parsing, the tools' flag checks,
// and the repro line. DescribeConfig(c) must parse back through the table to
// a config with the same line and the same simulation results, and a config
// that carries state no flag can set must say so in its line instead of
// naming a different run.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "runtime/config_fields.h"
#include "runtime/experiment.h"
#include "runtime/fuzz.h"
#include "runtime/scenario.h"
#include "tests/result_equality.h"
#include "tools/flags.h"
#include "tools/scenario_cli.h"

namespace hotstuff1 {
namespace {

// Splits a shell command line of plain and single-quoted words (the quoting
// DescribeConfig emits) into its words.
std::vector<std::string> ShellWords(const std::string& line) {
  std::vector<std::string> words;
  std::string word;
  bool in_word = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (ch == ' ') {
      if (in_word) words.push_back(word);
      word.clear();
      in_word = false;
    } else if (ch == '\'') {
      const size_t close = line.find('\'', i + 1);
      EXPECT_NE(close, std::string::npos) << line;
      word += line.substr(i + 1, close - i - 1);
      i = close;
      in_word = true;
    } else if (ch == '\\' && i + 1 < line.size()) {
      word += line[++i];
      in_word = true;
    } else {
      word += ch;
      in_word = true;
    }
  }
  if (in_word) words.push_back(word);
  return words;
}

// Parses a repro line back through the table, the way hs1sim would.
bool ParseReproLine(const std::string& line, ExperimentConfig* config,
                    std::string* error) {
  const std::vector<std::string> words = ShellWords(line);
  EXPECT_FALSE(words.empty());
  EXPECT_EQ(words.front(), "hs1sim");
  std::vector<std::string> storage = words;
  std::vector<char*> argv;
  for (std::string& w : storage) argv.push_back(w.data());
  const tools::Flags flags(static_cast<int>(argv.size()), argv.data());
  if (!flags.positional().empty()) {
    *error = "positional " + flags.positional().front();
    return false;
  }
  return ParseConfigFlags(flags.values(), config, error);
}

TEST(ConfigFieldsTest, EachFlagIsDeclaredOnceAndDefaultsRoundTrip) {
  std::set<std::string> spellings;
  const ExperimentConfig defaults;
  for (const ConfigField& field : ConfigFields()) {
    SCOPED_TRACE(field.flag);
    EXPECT_TRUE(spellings.insert(field.flag).second);
    if (field.alias != nullptr) EXPECT_TRUE(spellings.insert(field.alias).second);
    EXPECT_EQ(FindConfigField(field.flag), &field);
    EXPECT_NE(std::string(field.help), "");
    EXPECT_TRUE(field.in_repro || field.scenario);
    ExperimentConfig parsed;
    std::string error;
    ASSERT_TRUE(field.parse(field.format(defaults), &parsed, &error))
        << error;
    EXPECT_EQ(field.format(parsed), field.format(defaults));
  }
  EXPECT_EQ(FindConfigField("oracl"), nullptr);
  // Results are byte-identical across the executor shape, so it stays out of
  // the repro line (and diagnostics stay identical across it).
  EXPECT_FALSE(FindConfigField("sim-jobs")->in_repro);
  EXPECT_FALSE(FindConfigField("lookahead")->in_repro);
}

TEST(ConfigFieldsTest, ParseRejectsBadValuesWithAFlagError) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"n", "abc"},          {"n", "-3"},           {"n", ""},
      {"n", "0"},            {"n", "4294967296"},   {"n", " 7"},
      {"batch", "1.5"},      {"seed", "18446744073709551616"},
      {"protocol", "HotStuff-1"},                   {"fault", "bogus"},
      {"workload", "bogus"}, {"oracle", "maybe"},   {"no_speculation", "yes"},
      {"duration_ms", "abc"}, {"duration_ms", "-1"}, {"duration_ms", "1e400"},
      {"timer_ms", "10ms"},  {"regions", "0"},      {"regions", "6"},
      {"regions", "custom"}, {"lookahead", "soon"}, {"strategy", "zzz"},
      {"reconfig", "0:0-1"}, {"cert-scheme", "bogus"}, {"arrival", "bogus"},
      {"offered-load", "0"}, {"offered-load", "fast"}, {"client-groups", "0"},
      {"client-groups", "1025"}, {"sim-jobs", "0"}, {"bandwidth_bytes_per_us", "0"},
  };
  for (const auto& [flag, value] : bad) {
    SCOPED_TRACE("--" + flag + "=" + value);
    const ConfigField* field = FindConfigField(flag);
    ASSERT_NE(field, nullptr);
    ExperimentConfig cfg;
    std::string error;
    EXPECT_FALSE(field->parse(value, &cfg, &error));
    EXPECT_EQ(error.rfind("bad --" + std::string(field->flag) + " '" + value + "'", 0),
              0u)
        << error;
  }
}

TEST(ConfigFieldsTest, ParseAppliesFlagsInTableOrder) {
  // regions is sized by n, which the table parses first whatever the
  // command-line order; the old --sim_jobs spelling still works.
  const std::map<std::string, std::string> flags = {
      {"regions", "3"},        {"n", "64"},     {"duration_ms", "1.5"},
      {"sim_jobs", "4"},       {"fault", "rollback"},
      {"no_speculation", "true"}, {"strategy", "0-3:partition=0-7|8-15"},
      {"oracle", "true"},      {"unrelated", "x"},
  };
  ExperimentConfig cfg;
  std::string error;
  ASSERT_TRUE(ParseConfigFlags(flags, &cfg, &error)) << error;
  EXPECT_EQ(cfg.n, 64u);
  EXPECT_EQ(cfg.topology, sim::Topology::Geo(64, 3));
  EXPECT_EQ(cfg.duration, 1500);
  EXPECT_EQ(cfg.sim_jobs, 4u);
  EXPECT_EQ(cfg.fault, Fault::kRollbackAttack);
  EXPECT_FALSE(cfg.speculation_enabled);
  EXPECT_TRUE(cfg.trusted_leader_enabled);
  EXPECT_TRUE(cfg.oracle_enabled);
  EXPECT_EQ(FormatStrategySchedule(cfg.strategy), "0-3:partition=0-7|8-15");
}

// argv-style helper for the tools' flag checks.
tools::Flags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return tools::Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(ConfigFieldsTest, ToolsRejectUnknownAndMisplacedFlags) {
  std::vector<const tools::ToolFlag*> tool_flags = {&tools::kHelpFlag,
                                                    &tools::kScenarioFlag};
  for (const tools::ToolFlag* f : tools::kScenarioRunFlags) tool_flags.push_back(f);
  auto check = [&](std::vector<std::string> args) {
    const tools::Flags flags = MakeFlags(args);
    return tools::CheckFlags(flags, tool_flags, flags.Has("scenario"));
  };
  EXPECT_TRUE(check({"--n=5", "--oracle", "--regions=3"}));
  EXPECT_TRUE(check({"--scenario=x", "--jobs=2", "--oracle", "--sim_jobs=2"}));
  EXPECT_FALSE(check({"--oracl"}));                     // unknown
  EXPECT_FALSE(check({"--scenario=x", "--n=64"}));       // not a scenario override
  EXPECT_FALSE(check({"--jobs=2"}));                    // scenario-only
  EXPECT_FALSE(check({"--scenario=x", "--paper_point"}));  // not this tool's
  EXPECT_TRUE(check({"--scenario=x", "--smoke=false"}));
  EXPECT_FALSE(check({"--scenario=x", "--smoke=maybe"}));  // switch values only
}

TEST(ConfigFieldsTest, ScenarioOptionsCollectValidatedOverrides) {
  ScenarioRunOptions options;
  ASSERT_TRUE(tools::ParseScenarioRunOptions(
      MakeFlags({"--scenario=x", "--sim_jobs=3", "--cert-scheme=aggregate",
                 "--jobs=2", "--format=csv"}),
      &options));
  EXPECT_EQ(options.jobs, 2);
  EXPECT_EQ(options.format, ReportFormat::kCsv);
  ASSERT_EQ(options.overrides.size(), 2u);  // canonical spelling
  EXPECT_EQ(options.overrides[0].flag, "cert-scheme");
  EXPECT_EQ(options.overrides[0].value, "aggregate");
  EXPECT_EQ(options.overrides[1].flag, "sim-jobs");
  EXPECT_EQ(options.overrides[1].value, "3");

  for (const char* bad : {"--arrival=bogus", "--jobs=4x", "--jobs=0", "--jobs=-2",
                          "--repeat=2.5", "--repeat=", "--oracle=false", "--oracle=0"}) {
    SCOPED_TRACE(bad);
    ScenarioRunOptions rejected;
    EXPECT_FALSE(
        tools::ParseScenarioRunOptions(MakeFlags({"--scenario=x", bad}), &rejected));
  }
  ScenarioRunOptions armed;  // a scenario-mode switch can only be set
  ASSERT_TRUE(tools::ParseScenarioRunOptions(
      MakeFlags({"--scenario=x", "--oracle", "--repeat=3"}), &armed));
  EXPECT_EQ(armed.repeat, 3);
  ASSERT_EQ(armed.overrides.size(), 1u);
  EXPECT_EQ(armed.overrides[0].flag, "oracle");
}

TEST(ReproLineTest, FuzzConfigsRoundTripThroughTheTable) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const ExperimentConfig original = FuzzConfigFromSeed(seed);
    const std::string line = DescribeConfig(original);
    SCOPED_TRACE(::testing::Message() << "fuzz seed " << seed << ": " << line);
    EXPECT_EQ(line.find(kUnexpressibleMarker), std::string::npos);
    ExperimentConfig parsed;
    std::string error;
    ASSERT_TRUE(ParseReproLine(line, &parsed, &error)) << error;
    EXPECT_EQ(DescribeConfig(parsed), line);
    // The line reruns the same simulation: a subset pays for the runs. The
    // parsed config has the default executor shape, the original a drawn one.
    if (seed % 4 == 0) ExpectSameResult(RunExperiment(parsed), RunExperiment(original));
  }
}

TEST(ReproLineTest, ShellQuotesScheduleGrammars) {
  ExperimentConfig cfg;
  ASSERT_TRUE(ParseStrategySchedule("0-3:partition=0-7|8-15;gst=120000", &cfg.strategy));
  const std::string line = DescribeConfig(cfg);
  EXPECT_NE(line.find(" --strategy='0-3:partition=0-7|8-15;gst=120000' "),
            std::string::npos)
      << line;
  ExperimentConfig parsed;
  std::string error;
  ASSERT_TRUE(ParseReproLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.strategy, cfg.strategy);
}

TEST(ReproLineTest, GeoTopologiesRoundTripAndCustomOnesRefuse) {
  ExperimentConfig geo;
  geo.n = 10;
  geo.topology = sim::Topology::Geo(10, 4);
  const std::string geo_line = DescribeConfig(geo);
  EXPECT_NE(geo_line.find(" --regions=4 "), std::string::npos) << geo_line;
  ExperimentConfig parsed;
  std::string error;
  ASSERT_TRUE(ParseReproLine(geo_line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.topology, geo.topology);

  ExperimentConfig lan;  // Experiment::Setup fills in Lan(n) before describing
  lan.topology = sim::Topology::Lan(lan.n);
  EXPECT_NE(DescribeConfig(lan).find(" --regions=1 "), std::string::npos);

  ExperimentConfig two;
  two.n = 4;
  two.topology = sim::Topology::TwoRegion(4, 1);
  const std::string custom = DescribeConfig(two);
  EXPECT_NE(custom.find(" --regions=custom "), std::string::npos) << custom;
  EXPECT_FALSE(ParseReproLine(custom, &parsed, &error));
  EXPECT_NE(error.find("--regions"), std::string::npos) << error;
}

TEST(ReproLineTest, StateNoFlagCanSetIsNamedNotDropped) {
  ExperimentConfig cfg;
  EXPECT_EQ(DescribeConfig(cfg).find(kUnexpressibleMarker), std::string::npos);
  cfg.costs.verify_us *= 4;
  cfg.test_break_safety = true;
  const std::string line = DescribeConfig(cfg);
  EXPECT_NE(line.find(std::string(" ") + kUnexpressibleMarker +
                      "costs,test_break_safety"),
            std::string::npos)
      << line;
  ExperimentConfig parsed;
  std::string error;
  EXPECT_FALSE(ParseReproLine(line, &parsed, &error));

  // --arrival and --offered-load set the arrival kind and rate; the shape
  // parameters have no flag.
  ExperimentConfig open;
  open.arrival.kind = ArrivalKind::kFlashCrowd;
  open.arrival.offered_load_tps = 8'000;
  EXPECT_EQ(DescribeConfig(open).find(kUnexpressibleMarker), std::string::npos);
  open.arrival.flash_peak = 3.0;
  EXPECT_NE(DescribeConfig(open).find(std::string(" ") + kUnexpressibleMarker + "arrival"),
            std::string::npos);

  // fig_saturation's smoke (an oracle-armed CI run) compresses the arrival
  // shapes into its window: every point's line must refuse, not rerun the
  // default shapes.
  const ScenarioSpec* saturation = ScenarioRegistry::Instance().Find("fig_saturation");
  ASSERT_NE(saturation, nullptr);
  for (const SweepPoint& point : ExpandScenario(*saturation, /*smoke=*/true)) {
    const std::string point_line = DescribeConfig(point.config);
    EXPECT_NE(point_line.find(std::string(" ") + kUnexpressibleMarker + "arrival"),
              std::string::npos)
        << point_line;
    EXPECT_FALSE(ParseReproLine(point_line, &parsed, &error));
  }
}

}  // namespace
}  // namespace hotstuff1
