// hs1bench: the registry-driven benchmark harness. Every paper figure and
// ablation is a registered scenario; this binary lists and runs them.
//
// Examples:
//   hs1bench --list
//   hs1bench --scenario=fig8_scalability
//   hs1bench --scenario=fig9_delay --jobs=8 --format=csv
//   hs1bench --scenario=fig8_scalability --smoke --jobs=2   (CI-sized)
//   hs1bench --all --smoke

#include <cstdio>
#include <string>
#include <vector>

#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"
#include "tools/flags.h"
#include "tools/scenario_cli.h"

namespace hotstuff1 {
namespace {

const tools::ToolFlag kAllFlag{"all", "", "run every registered scenario",
                               tools::FlagScope::kScenarioMode};

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "hs1bench - registry-driven benchmark harness\n\n");
  tools::PrintToolFlags(out, {&tools::kListFlag, &tools::kScenarioFlag, &kAllFlag});
  std::fprintf(out, "  (more scenarios may follow as positional arguments)\n");
  tools::PrintToolFlags(out, tools::kScenarioRunFlags);
  tools::PrintToolFlags(out, {&tools::kHelpFlag});
  std::fprintf(out, "\nConfig overrides for every point, ignored (with a note) by a "
                    "scenario\nthat sweeps the field itself:\n");
  tools::PrintConfigFlags(out, /*scenario_only=*/true, /*defaults=*/nullptr);
  std::fprintf(out,
               "\nScenario durations honor the H1_DURATION_MS environment "
               "override.\n");
}

int RunMain(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.Has(tools::kHelpFlag.flag)) {
    PrintUsage(stdout);
    return 0;
  }
  std::vector<const tools::ToolFlag*> tool_flags = tools::kScenarioRunFlags;
  tool_flags.insert(tool_flags.end(),
                    {&tools::kHelpFlag, &tools::kListFlag, &tools::kScenarioFlag, &kAllFlag});
  if (!tools::CheckFlags(flags, tool_flags, /*scenario_mode=*/true)) return 2;
  if (flags.Has(tools::kListFlag.flag)) return tools::ListScenarios();

  std::vector<std::string> names = flags.positional();
  if (flags.Has(tools::kScenarioFlag.flag)) {
    names.push_back(flags.GetString(tools::kScenarioFlag.flag, ""));
  }
  if (flags.GetBool(kAllFlag.flag, false)) {
    for (const ScenarioSpec* spec : ScenarioRegistry::Instance().All()) {
      names.push_back(spec->name);
    }
  }
  if (names.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  return tools::RunScenarios(flags, names);
}

}  // namespace
}  // namespace hotstuff1

int main(int argc, char** argv) { return hotstuff1::RunMain(argc, argv); }
