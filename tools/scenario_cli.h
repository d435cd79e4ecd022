// Shared CLI plumbing for hs1bench and hs1sim, so the two binaries cannot
// drift on flag checking, usage text, --jobs/--smoke/--format semantics or
// the --list output.

#ifndef HOTSTUFF1_TOOLS_SCENARIO_CLI_H_
#define HOTSTUFF1_TOOLS_SCENARIO_CLI_H_

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/config_fields.h"
#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"
#include "tools/flags.h"

namespace hotstuff1::tools {

/// One axis rendered as `name{label1,label2,...}` (long axes elided), so
/// --list shows exactly what a scenario sweeps — including sim_jobs /
/// lookahead axes — and CI logs record what a gate actually covered.
inline std::string FormatAxis(const std::string& name, const Axis& axis) {
  std::string out = name;
  out += "{";
  constexpr size_t kMaxLabels = 6;
  for (size_t i = 0; i < axis.size() && i < kMaxLabels; ++i) {
    if (i > 0) out += ",";
    out += axis[i].label.empty() ? "-" : axis[i].label;
  }
  if (axis.size() > kMaxLabels) {
    out += ",...+" + std::to_string(axis.size() - kMaxLabels);
  }
  out += "}";
  return out;
}

/// `axes: ...` summary line for one spec (sweep shape + seed count).
inline std::string DescribeAxes(const ScenarioSpec& spec) {
  if (spec.custom_run) return "custom (not a config sweep)";
  std::string out;
  if (!spec.tables.empty()) {
    out += FormatAxis(spec.table_name.empty() ? "table" : spec.table_name,
                      spec.tables);
  }
  if (!spec.rows.empty()) {
    if (!out.empty()) out += " x ";
    out += FormatAxis(spec.row_name, spec.rows);
  }
  if (!spec.cols.empty()) {
    if (!out.empty()) out += " x ";
    out += FormatAxis("", spec.cols);
  }
  if (out.empty()) out = "single point";
  out += ", seeds=" + std::to_string(spec.seeds.empty() ? 1 : spec.seeds.size());
  return out;
}

/// Prints the registered scenario catalog (for --list).
inline int ListScenarios() {
  for (const ScenarioSpec* spec : ScenarioRegistry::Instance().All()) {
    std::printf("%-18s %s\n", spec->name.c_str(), spec->description.c_str());
    std::printf("%-18s   axes: %s\n", "", DescribeAxes(*spec).c_str());
  }
  return 0;
}

// Config flags come from ConfigFields() (runtime/config_fields.h); the few
// flags that steer the tools themselves are declared here, once. Config
// flags apply in single-run mode, and in scenario mode when marked so.
enum class FlagScope { kAnyMode, kScenarioMode, kSingleRunMode };

struct ToolFlag {
  const char* flag;
  const char* arg;  // value syntax; "" for a bare switch
  const char* help;
  FlagScope scope;
};

inline const ToolFlag kHelpFlag{"help", "", "this text", FlagScope::kAnyMode};
inline const ToolFlag kListFlag{"list", "", "enumerate registered scenarios with their axes",
                                FlagScope::kAnyMode};
inline const ToolFlag kScenarioFlag{"scenario", "<name>", "run a registered scenario",
                                    FlagScope::kScenarioMode};
inline const ToolFlag kJobsFlag{
    "jobs", "N", "worker threads across sweep points (default: hardware concurrency)",
    FlagScope::kScenarioMode};
inline const ToolFlag kFormatFlag{"format", "table|csv|json", "output format (default table)",
                                  FlagScope::kScenarioMode};
inline const ToolFlag kSmokeFlag{"smoke", "", "CI-sized points (short windows, axis endpoints)",
                                 FlagScope::kScenarioMode};
inline const ToolFlag kRepeatFlag{
    "repeat", "K", "rerun the scenario K times and report median wall-clock metrics "
    "(deterministic output is byte-identical across reruns by contract)",
    FlagScope::kScenarioMode};
inline const ToolFlag kBenchJsonFlag{
    "bench-json", "PATH", "write the machine-readable perf ledger to PATH (throughput "
    "scenario; see tools/bench_compare.py)", FlagScope::kScenarioMode};

/// The scenario-runner flags both binaries share, in usage order.
inline const std::vector<const ToolFlag*> kScenarioRunFlags = {
    &kJobsFlag, &kFormatFlag, &kSmokeFlag, &kRepeatFlag, &kBenchJsonFlag};

/// One usage entry: "  --flag=<arg>", then `help` word-wrapped in a column.
inline void PrintFlagUsage(std::FILE* out, const std::string& flag, const std::string& arg,
                           const std::string& help) {
  constexpr size_t kColumn = 30, kWidth = 79;
  std::string text = "  --" + flag + (arg.empty() ? "" : "=" + arg);
  text += text.size() < kColumn ? std::string(kColumn - text.size(), ' ')
                                : "\n" + std::string(kColumn, ' ');
  size_t col = kColumn;
  std::istringstream words(help);
  for (std::string word; words >> word; col += word.size()) {
    if (col > kColumn && col + 1 + word.size() > kWidth) {
      text += "\n" + std::string(kColumn, ' ');
      col = kColumn;
    } else if (col > kColumn) {
      text += ' ';
      ++col;
    }
    text += word;
  }
  std::fprintf(out, "%s\n", text.c_str());
}

inline void PrintToolFlags(std::FILE* out, const std::vector<const ToolFlag*>& flags) {
  for (const ToolFlag* f : flags) PrintFlagUsage(out, f->flag, f->arg, f->help);
}

/// Usage entries for the config fields: only the scenario-mode ones when
/// `scenario_only`, else all with those marked and their `defaults` values.
inline void PrintConfigFlags(std::FILE* out, bool scenario_only,
                             const ExperimentConfig* defaults) {
  for (const ConfigField& f : ConfigFields()) {
    if (scenario_only && !f.scenario) continue;
    std::string help = f.help;
    if (defaults != nullptr && !f.format(*defaults).empty()) {
      help += " (default " + f.format(*defaults) + ")";
    }
    if (!scenario_only && f.scenario) help += " [scenario]";
    PrintFlagUsage(out, f.flag, f.arg, help);
  }
}

/// Rejects (after printing why) a flag that is unknown to this tool or does
/// not apply in the chosen mode. Exit code 2 is the caller's.
inline bool CheckFlags(const Flags& flags, const std::vector<const ToolFlag*>& tool_flags,
                       bool scenario_mode) {
  for (const auto& [key, value] : flags.values()) {
    const ConfigField* field = FindConfigField(key);
    const ToolFlag* tool = nullptr;
    for (const ToolFlag* f : tool_flags) tool = key == f->flag ? f : tool;
    const char* problem = nullptr;
    if (field != nullptr) {
      if (scenario_mode && !field->scenario) problem = "does not apply in scenario mode";
    } else if (tool == nullptr) {
      problem = "is unknown (see --help)";
    } else if (tool->scope == FlagScope::kScenarioMode && !scenario_mode) {
      problem = "only applies with --scenario";
    } else if (tool->scope == FlagScope::kSingleRunMode && scenario_mode) {
      problem = "does not apply in scenario mode";
    } else if (tool->arg[0] == '\0' && !Flags::IsSwitchValue(value)) {
      problem = "wants true|false|1|0";
    }
    if (problem != nullptr) {
      std::fprintf(stderr, "flag --%s %s\n", key.c_str(), problem);
      return false;
    }
  }
  return true;
}

/// Parses the scenario-runner flags and the scenario-mode config overrides.
/// Returns false after printing the problem (a flag error, exit code 2).
inline bool ParseScenarioRunOptions(const Flags& flags, ScenarioRunOptions* options) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  options->smoke = flags.GetBool(kSmokeFlag.flag, false);
  options->bench_json = flags.GetString(kBenchJsonFlag.flag, "");
  const std::string format = flags.GetString(kFormatFlag.flag, "table");
  const char* problem =
      !ParseReportFormat(format, &options->format) ? "--format must be table, csv or json"
      : !flags.GetCount(kJobsFlag.flag, hw > 0 ? hw : 1, &options->jobs)
          ? "--jobs must be a positive integer"
      : !flags.GetCount(kRepeatFlag.flag, 1, &options->repeat)
          ? "--repeat must be a positive integer"
          : nullptr;
  if (problem != nullptr) {
    std::fprintf(stderr, "%s\n", problem);
    return false;
  }
  // Overrides are validated here, on a scratch config, so a bad value is a
  // flag error rather than a failure midway through a sweep.
  for (const auto& [key, value] : flags.values()) {
    const ConfigField* field = FindConfigField(key);
    if (field == nullptr || !field->scenario) continue;
    ExperimentConfig scratch;
    std::string error;
    if (!field->parse(value, &scratch, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return false;
    }
    // A scenario-mode switch (--oracle) can only arm: clearing it would
    // disarm the scenarios whose own judges read its verdicts.
    if (field->arg.empty() && (value == "false" || value == "0")) {
      std::fprintf(stderr, "flag --%s=%s: a scenario-mode switch can only be set\n",
                   key.c_str(), value.c_str());
      return false;
    }
    options->overrides.push_back({field->flag, value});
  }
  return true;
}

/// Runs each named scenario with the options in `flags`. Returns the exit
/// code: 2 on a flag error or unknown scenario, else the last failing run's.
inline int RunScenarios(const Flags& flags, const std::vector<std::string>& names) {
  ScenarioRunOptions options;
  if (!ParseScenarioRunOptions(flags, &options)) return 2;
  int exit_code = 0;
  for (const std::string& name : names) {
    const ScenarioSpec* spec = ScenarioRegistry::Instance().Find(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", name.c_str());
      return 2;
    }
    if (const int code = RunScenario(*spec, options); code != 0) exit_code = code;
  }
  return exit_code;
}

}  // namespace hotstuff1::tools

#endif  // HOTSTUFF1_TOOLS_SCENARIO_CLI_H_
