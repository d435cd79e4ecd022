// One declaration per experiment knob. A ConfigField names a command-line
// flag, parses a value into an ExperimentConfig and prints the field back in
// the spelling it parses. hs1sim parses and documents its flags from this
// table, both CLIs turn scenario-mode flags into ConfigOverrides that
// SweepRunner applies, and DescribeConfig renders the repro line. Adding a
// knob is one entry in ConfigFields() (config_fields.cc).

#ifndef HOTSTUFF1_RUNTIME_CONFIG_FIELDS_H_
#define HOTSTUFF1_RUNTIME_CONFIG_FIELDS_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace hotstuff1 {

struct ExperimentConfig;  // runtime/experiment.h

struct ConfigField {
  const char* flag;  // spelled --<flag>=<value>
  std::string arg;   // value syntax for usage text; empty for a bare switch
  const char* help;
  // Parses `value` into `config`. A bad value leaves `config` alone, sets
  // `*error` to "bad --<flag> '<value>': <why>" and returns false.
  std::function<bool(const std::string& value, ExperimentConfig* config,
                     std::string* error)>
      parse;
  // The value in the spelling `parse` accepts. Two configs agree on the
  // field exactly when their format strings are equal.
  std::function<std::string(const ExperimentConfig& config)> format;
  bool in_repro = false;        // part of DescribeConfig's repro line
  bool scenario = false;        // accepted as a scenario-mode override
  const char* alias = nullptr;  // second spelling kept for old command lines
};

/// The table, in usage and repro-line order. Fields parse in this order, so
/// one sized by another (the geo topology by n) comes after it.
const std::vector<ConfigField>& ConfigFields();

/// The field spelled `flag` (or its alias); null when there is none.
const ConfigField* FindConfigField(const std::string& flag);

/// Parses every field present in `flags` (flag -> value), in table order.
/// Keys that name no field are left to the caller.
bool ParseConfigFlags(const std::map<std::string, std::string>& flags,
                      ExperimentConfig* config, std::string* error);

/// A scenario-mode override: one field forced onto every point of a sweep
/// unless the scenario sweeps that field itself (see SweepRunner).
struct ConfigOverride {
  std::string flag;
  std::string value;
};

/// Ends a repro line whose config holds state no flag can set (a custom cost
/// model, workload mix or arrival shape, a test-only hook). hs1sim refuses
/// the token, so
/// such a line cannot silently run a different config.
inline constexpr const char* kUnexpressibleMarker = "UNEXPRESSIBLE=";

/// The repro line: "hs1sim --flag=value ..." over every in_repro field, in
/// table order, shell-quoted where needed. The executor shape (sim_jobs,
/// lookahead) stays out: results, and so diagnostics, are identical across
/// it. A custom topology prints as --regions=custom, which hs1sim rejects.
std::string DescribeConfig(const ExperimentConfig& config);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_CONFIG_FIELDS_H_
