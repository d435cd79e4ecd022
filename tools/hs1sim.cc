// hs1sim: command-line driver for the HotStuff-1 simulation harness.
//
// Examples:
//   hs1sim --protocol=hotstuff1 --n=32 --batch=100 --duration_ms=2000
//   hs1sim --protocol=slotted --n=31 --fault=slow --faulty=10 --timer_ms=100
//   hs1sim --protocol=hotstuff2 --workload=tpcc --regions=3 --paper_point
//   hs1sim --scenario=fig8_scalability --jobs=4 --format=csv
//
// Prints a one-line machine-friendly summary plus a human-readable block.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "runtime/config_fields.h"
#include "runtime/experiment.h"
#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"
#include "tools/flags.h"
#include "tools/scenario_cli.h"

namespace hotstuff1 {
namespace {

const tools::ToolFlag kPaperPointFlag{"paper_point", "",
                                      "throughput at saturation + light-load latency",
                                      tools::FlagScope::kSingleRunMode};

// hs1sim's defaults: shorter windows than ExperimentConfig's, f rollback
// victims, and WAN-sized timers for a geo deployment. The flags are parsed
// once to learn n and the topology, then again on top of those defaults.
bool ParseConfig(const std::map<std::string, std::string>& values, ExperimentConfig* cfg,
                 std::string* error) {
  cfg->duration = Millis(2000);
  cfg->warmup = Millis(300);
  cfg->delta = Millis(1);
  if (!ParseConfigFlags(values, cfg, error)) return false;
  cfg->rollback_victims = (cfg->n - 1) / 3;
  if (cfg->topology.region_latency.size() > 1) {
    cfg->view_timer = Millis(1200);
    cfg->delta = Millis(160);
  }
  return ParseConfigFlags(values, cfg, error);
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "hs1sim - HotStuff-1 reproduction driver\n\n");
  ExperimentConfig defaults;
  std::string error;
  ParseConfig({}, &defaults, &error);
  tools::PrintConfigFlags(out, /*scenario_only=*/false, &defaults);
  tools::PrintToolFlags(out, {&kPaperPointFlag, &tools::kHelpFlag});
  std::fprintf(out, "\nRegistered scenarios (the hs1bench sweep engine):\n");
  tools::PrintToolFlags(out, {&tools::kListFlag, &tools::kScenarioFlag});
  tools::PrintToolFlags(out, tools::kScenarioRunFlags);
  std::fprintf(out, "  (flags marked [scenario] apply to every scenario point too)\n");
}

int RunMain(int argc, char** argv) {
  tools::Flags flags(argc, argv);
  if (flags.Has(tools::kHelpFlag.flag)) {
    // Explicit --help is a success; exit code 2 stays reserved for flag errors.
    PrintUsage(stdout);
    return 0;
  }
  std::vector<const tools::ToolFlag*> tool_flags = tools::kScenarioRunFlags;
  tool_flags.insert(tool_flags.end(), {&tools::kHelpFlag, &tools::kListFlag,
                                       &tools::kScenarioFlag, &kPaperPointFlag});
  const bool scenario_mode = flags.Has(tools::kScenarioFlag.flag);
  if (!tools::CheckFlags(flags, tool_flags, scenario_mode)) return 2;
  if (!flags.positional().empty()) {
    // Also refuses a repro line's UNEXPRESSIBLE=... token (kUnexpressibleMarker).
    std::fprintf(stderr, "unexpected argument '%s'\n", flags.positional()[0].c_str());
    return 2;
  }
  if (flags.Has(tools::kListFlag.flag)) return tools::ListScenarios();
  if (scenario_mode) {
    return tools::RunScenarios(flags, {flags.GetString(tools::kScenarioFlag.flag, "")});
  }

  ExperimentConfig cfg;
  std::string error;
  if (!ParseConfig(flags.values(), &cfg, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  const ExperimentResult res = flags.GetBool(kPaperPointFlag.flag, false)
                                   ? RunPaperPoint(cfg)
                                   : RunExperiment(cfg);

  // Machine-friendly line first.
  std::printf(
      "RESULT protocol=\"%s\" n=%u batch=%u tput_tps=%.0f lat_avg_ms=%.3f "
      "lat_p50_ms=%.3f lat_p99_ms=%.3f lat_p999_ms=%.3f accepted=%llu spec=%llu "
      "views=%llu slots=%llu timeouts=%llu rollbacks=%llu resub=%llu "
      "backlog=%llu safety=%d cap_hit=%d liveness_violations=%llu "
      "oracle_violations=%llu\n",
      res.protocol.c_str(), cfg.n, cfg.batch_size, res.throughput_tps,
      res.avg_latency_ms, res.p50_latency_ms, res.p99_latency_ms,
      res.p999_latency_ms, static_cast<unsigned long long>(res.accepted),
      static_cast<unsigned long long>(res.accepted_speculative),
      static_cast<unsigned long long>(res.views),
      static_cast<unsigned long long>(res.slots),
      static_cast<unsigned long long>(res.timeouts),
      static_cast<unsigned long long>(res.rollback_events),
      static_cast<unsigned long long>(res.resubmissions),
      static_cast<unsigned long long>(res.backlog), res.safety_ok ? 1 : 0,
      res.event_cap_hit ? 1 : 0,
      static_cast<unsigned long long>(res.liveness_violations),
      static_cast<unsigned long long>(res.oracle_violations));

  std::printf("\n%s, n=%u (f=%u)\n  %s\n", res.protocol.c_str(), cfg.n, (cfg.n - 1) / 3,
              DescribeConfig(cfg).c_str());
  std::printf("  throughput   %10.0f txn/s\n", res.throughput_tps);
  std::printf("  latency      %10.2f ms avg, %.2f ms p99\n", res.avg_latency_ms,
              res.p99_latency_ms);
  std::printf("  speculative  %10llu of %llu accepts\n",
              static_cast<unsigned long long>(res.accepted_speculative),
              static_cast<unsigned long long>(res.accepted));
  std::printf("  safety       %10s\n", res.safety_ok ? "OK" : "VIOLATED");
  if (cfg.oracle_enabled) {
    std::printf("  oracle       %10s\n",
                res.oracle_violations == 0 ? "OK" : "VIOLATED");
    if (res.oracle_violations > 0) {
      std::printf("  %s\n", res.oracle_first_violation.c_str());
    }
    std::printf("  liveness     %10s\n",
                res.liveness_violations == 0 ? "OK" : "VIOLATED");
    if (res.liveness_violations > 0) {
      std::printf("  %s\n", res.liveness_first_violation.c_str());
    }
  }
  if (res.event_cap_hit) {
    std::printf("  WARNING: the simulator stopped at its event cap - this run "
                "was truncated, not drained\n");
  }
  if (res.cap_parallelism_degraded) {
    std::fprintf(stderr,
                 "warning: --event_cap with --sim-jobs > 1 disables windowed "
                 "lookahead; this run fell back to tick-parallel scheduling "
                 "(cap_parallelism_degraded)\n");
  }
  return res.safety_ok && res.oracle_violations == 0 &&
                 res.liveness_violations == 0
             ? 0
             : 1;
}

}  // namespace
}  // namespace hotstuff1

int main(int argc, char** argv) { return hotstuff1::RunMain(argc, argv); }
