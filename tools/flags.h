// Minimal command-line flag parsing for the tools (no external deps).

#ifndef HOTSTUFF1_TOOLS_FLAGS_H_
#define HOTSTUFF1_TOOLS_FLAGS_H_

#include <charconv>
#include <map>
#include <string>
#include <vector>

namespace hotstuff1::tools {

/// Parses `--key=value` and `--flag` arguments; everything else is a
/// positional argument.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          values_[arg.substr(2)] = "true";
        } else {
          values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

  /// Sets `*out` to the value, a positive decimal count, or to `def` when
  /// the flag is absent. False when the value is not such a count.
  bool GetCount(const std::string& key, int def, int* out) const {
    auto it = values_.find(key);
    if (it == values_.end()) return (*out = def, true);
    const std::string& s = it->second;
    const auto res = std::from_chars(s.data(), s.data() + s.size(), *out);
    return res.ec == std::errc() && res.ptr == s.data() + s.size() && *out >= 1;
  }

  /// The values a bare switch accepts (--flag alone means "true").
  static bool IsSwitchValue(const std::string& value) {
    return value == "true" || value == "false" || value == "1" || value == "0";
  }

  bool GetBool(const std::string& key, bool def) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    return it->second != "false" && it->second != "0";
  }

  const std::map<std::string, std::string>& values() const { return values_; }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace hotstuff1::tools

#endif  // HOTSTUFF1_TOOLS_FLAGS_H_
