#include "runtime/config_fields.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <utility>

#include "runtime/adversary.h"
#include "runtime/experiment.h"

namespace hotstuff1 {
namespace {

using C = ExperimentConfig;

// How a field parses and prints, independent of its flag name and help. Its
// parse sets only the reason a value is bad; Field() adds the flag.
struct Codec {
  std::string arg;
  decltype(ConfigField::parse) parse;
  decltype(ConfigField::format) format;
};

// Strict unsigned decimal: digits only, no sign, whitespace or overflow.
bool ParseU64(const std::string& s, uint64_t* out) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), *out);
  return !s.empty() && res.ec == std::errc() && res.ptr == s.data() + s.size();
}

// Strict finite decimal number (no leading whitespace, nothing trailing).
bool ParseFloat(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && !std::isspace(static_cast<unsigned char>(s[0])) &&
         end == s.c_str() + s.size() && std::isfinite(*out);
}

bool ParsePositive(const std::string& s, double* out) {
  return ParseFloat(s, out) && *out > 0;
}

// Shortest fixed-notation text that parses back to exactly `v`.
std::string FormatFloat(double v) {
  char buf[512];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
  return std::string(buf, res.ptr);
}

// A reference to one member, for mutable and const configs alike.
template <typename T>
auto Member(T C::*member) {
  return [member](auto& c) -> auto& { return c.*member; };
}

// A field with its own text form: `parse(text, &value)` and `name(value)`.
// A bad value reports `want` ("want <arg>" by default), or the parse's own
// message when it takes a third `std::string* why` argument.
template <typename Get, typename Parse, typename Name>
Codec Text(std::string arg, Get get, Parse parse, Name name, std::string want = "") {
  if (want.empty()) want = "want " + arg;
  return {arg,
          [=](const std::string& s, C* c, std::string* why) {
            std::remove_reference_t<decltype(get(*c))> v{};
            bool ok = false;
            if constexpr (std::is_invocable_v<Parse, const std::string&, decltype(&v),
                                              std::string*>) {
              ok = parse(s, &v, why);
            } else if (!(ok = parse(s, &v))) {
              *why = want;
            }
            if (ok) get(*c) = std::move(v);
            return ok;
          },
          [=](const C& c) { return std::string(name(get(c))); }};
}

// Unsigned integer member in [lo, hi].
template <typename T>
Codec Uint(T C::*member, uint64_t lo = 0, uint64_t hi = std::numeric_limits<T>::max()) {
  return Text(
      "N", Member(member),
      [=](const std::string& s, T* v) {
        uint64_t u = 0;
        if (!ParseU64(s, &u) || u < lo || u > hi) return false;
        return (*v = static_cast<T>(u), true);
      },
      [](T v) { return std::to_string(v); },
      "want an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

// Virtual time given in (fractional) milliseconds, rounded to the
// simulator's microsecond, so format and parse round-trip exactly.
Codec Ms(SimTime C::*member) {
  return Text(
      "MS", Member(member),
      [](const std::string& s, SimTime* v) {
        double ms = 0;
        if (!ParseFloat(s, &ms) || ms < 0 || ms > 1e12) return false;
        return (*v = std::llround(ms * kMillisecond), true);
      },
      [](SimTime v) { return FormatFloat(ToMillis(v)); },
      "want a non-negative number of milliseconds");
}

// Bare switch (--flag means --flag=true); `negate` for the --no_x spelling
// of an x_enabled member.
Codec Switch(bool C::*member, bool negate = false) {
  return Text(
      "", Member(member),
      [negate](const std::string& s, bool* v) {
        *v = (s == "true" || s == "1") != negate;
        return s == "true" || s == "1" || s == "false" || s == "0";
      },
      [negate](bool v) { return v != negate ? "true" : "false"; }, "want true|false");
}

// Enum whose values 0..N-1 are spelled names[0..N-1]; `get` returns a
// reference to the member.
template <typename Get, size_t N>
Codec Enum(Get get, const char* const (&names)[N]) {
  using E = std::remove_reference_t<decltype(get(std::declval<C&>()))>;
  std::string arg = names[0];
  for (size_t i = 1; i < N; ++i) arg += std::string("|") + names[i];
  return Text(
      arg, get,
      [&names](const std::string& s, E* v) {
        const auto it = std::find(std::begin(names), std::end(names), s);
        if (it == std::end(names)) return false;
        return (*v = static_cast<E>(it - std::begin(names)), true);
      },
      [&names](E v) { return names[static_cast<size_t>(v)]; });
}

constexpr const char* kProtocols[] = {"hotstuff", "hotstuff2", "basic", "hotstuff1",
                                      "slotted"};  // ProtocolKind order
constexpr const char* kWorkloads[] = {"ycsb", "tpcc"};  // WorkloadKind order
constexpr const char* kFaults[] = {"none", "crash", "slow", "tailfork",
                                   "rollback"};  // Fault order

// "auto", "off", or an explicit window in microseconds ("0" is off).
Codec Lookahead() {
  return Text(
      "auto|off|<us>", Member(&C::lookahead),
      [](const std::string& s, LookaheadSpec* v) {
        uint64_t us = 0;
        if (s != "auto" && s != "off" && !ParseU64(s, &us)) return false;
        *v = {s == "auto" ? LookaheadMode::kAuto
              : us == 0   ? LookaheadMode::kOff
                          : LookaheadMode::kWindow,
              static_cast<SimTime>(us)};
        return true;
      },
      [](const LookaheadSpec& v) {
        if (v.mode == LookaheadMode::kWindow) return std::to_string(v.window);
        return std::string(v.mode == LookaheadMode::kAuto ? "auto" : "off");
      });
}

// The paper's geo deployment over its first R regions (R = 1: the LAN
// default). Sized by n, which the table parses first; any other topology
// formats as "custom", which parse rejects.
Codec Regions() {
  constexpr uint32_t kMaxRegions = 5;
  return {"1..5",
          [](const std::string& s, C* c, std::string* why) {
            uint64_t r = 0;
            if (!ParseU64(s, &r) || r < 1 || r > kMaxRegions) {
              return (*why = "want 1..5 (a custom topology has no flag)", false);
            }
            c->topology = r == 1 ? sim::Topology{}
                                 : sim::Topology::Geo(c->n, static_cast<uint32_t>(r));
            return true;
          },
          [](const C& c) {
            // Geo(n, 1) is the LAN that Experiment::Setup fills in.
            for (uint32_t r = 1; r <= kMaxRegions; ++r) {
              if (c.topology.n == 0 || c.topology == sim::Topology::Geo(c.n, r)) {
                return std::to_string(r);
              }
            }
            return std::string("custom");
          }};
}

enum Use : unsigned { kRepro = 1, kScenario = 2, kBoth = kRepro | kScenario };

ConfigField Field(const char* flag, const char* help, Codec codec, unsigned use,
                  const char* alias = nullptr) {
  auto parse = [flag, parse = std::move(codec.parse)](const std::string& value, C* c,
                                                      std::string* error) {
    std::string why;
    if (parse(value, c, &why)) return true;
    return (*error = "bad --" + std::string(flag) + " '" + value + "': " + why, false);
  };
  return {flag, std::move(codec.arg), help, std::move(parse), std::move(codec.format),
          (use & kRepro) != 0, (use & kScenario) != 0, alias};
}

std::vector<ConfigField> BuildFields() {
  auto arrival = [](auto& c) -> auto& { return c.arrival.kind; };
  auto load = [](auto& c) -> auto& { return c.arrival.offered_load_tps; };
  return {
      Field("protocol", "consensus protocol", Enum(Member(&C::protocol), kProtocols), kRepro),
      Field("n", "replicas", Uint(&C::n, 1), kRepro),
      Field("batch", "transactions per block", Uint(&C::batch_size, 1), kRepro),
      Field("duration_ms", "measured virtual time", Ms(&C::duration), kRepro),
      Field("warmup_ms", "virtual time before measuring", Ms(&C::warmup), kRepro),
      Field("timer_ms", "view timer (hs1sim: 1200 if --regions > 1 and not given)",
            Ms(&C::view_timer), kRepro),
      Field("delta_ms", "message-delay bound (hs1sim: 160 if --regions > 1 and not given)",
            Ms(&C::delta), kRepro),
      Field("workload", "transaction mix", Enum(Member(&C::workload), kWorkloads), kRepro),
      Field("regions", "geo deployment over the paper's first R regions", Regions(), kRepro),
      Field("fault", "attack of the --faulty coalition", Enum(Member(&C::fault), kFaults), kRepro),
      Field("faulty", "coalition size", Uint(&C::num_faulty), kRepro),
      Field("victims", "rollback victims (hs1sim: f if not given)",
            Uint(&C::rollback_victims), kRepro),
      Field("strategy", "per-epoch strategy of the --faulty coalition, e.g. "
            "'0-3:withhold;gst=120000' (grammar in runtime/adversary.h)",
            Text("SCHEDULE", Member(&C::strategy), ParseStrategySchedule,
                 FormatStrategySchedule), kBoth),
      Field("reconfig", "committee per epoch, e.g. '0:0-15;4:0-11' shrinks to 12 "
            "members at epoch 4 (grammar in consensus/committee.h)",
            Text("SCHEDULE", Member(&C::reconfig), ParseCommitteeSchedule,
                 FormatCommitteeSchedule), kBoth),
      Field("liveness_k", "liveness oracle: max correct views past GST without a "
            "commit (0 = auto)", Uint(&C::liveness_k), kRepro),
      Field("liveness_grace_ms", "liveness oracle: max commit-free time after GST "
            "(0 = auto)", Ms(&C::liveness_grace), kRepro),
      Field("inject_delay_ms", "Fig. 9 extra one-way delay on the --impaired replicas",
            Ms(&C::inject_delay), kRepro),
      Field("impaired", "replicas (the last k) slowed by --inject_delay_ms",
            Uint(&C::num_impaired), kRepro),
      Field("clients", "client population (0 = 8*batch closed loop, 1M open loop)",
            Uint(&C::num_clients), kRepro),
      Field("client-groups", "client-pool shards (byte-identical results at any value)",
            Uint(&C::client_groups, 1, kMaxClientGroups), kBoth),
      Field("arrival", "traffic model", Enum(arrival, kArrivalKindNames), kBoth),
      Field("offered-load", "open-loop aggregate arrival rate",
            Text("<txn/s>", load, ParsePositive, FormatFloat), kBoth),
      Field("cert-scheme", "authenticator wire encoding (a pure byte-size axis)",
            Text("vector|aggregate|threshold", Member(&C::cert_scheme), ParseCertScheme,
                 CertSchemeName), kBoth),
      Field("max_slots", "slotted: slots per view (0 = adaptive)", Uint(&C::max_slots),
            kRepro),
      Field("no_speculation", "disable speculative responses",
            Switch(&C::speculation_enabled, /*negate=*/true), kRepro),
      Field("no_trusted_leader", "disable the §6.3 fast path",
            Switch(&C::trusted_leader_enabled, /*negate=*/true), kRepro),
      Field("seed", "simulation seed", Uint(&C::seed), kRepro),
      Field("sim-jobs", "event-loop threads per experiment (byte-identical results)",
            Uint(&C::sim_jobs, 1), kScenario, /*alias=*/"sim_jobs"),
      Field("lookahead", "parallel event-loop window (byte-identical results)",
            Lookahead(), kScenario),
      Field("event_cap", "stop a runaway run after N events (0 = unlimited)",
            Uint(&C::event_cap), kRepro),
      Field("oracle", "arm the online safety + liveness oracles", Switch(&C::oracle_enabled),
            kBoth),
      Field("bandwidth_bytes_per_us", "per-node egress bandwidth",
            Text("<bytes/us>", Member(&C::bandwidth_bytes_per_us), ParsePositive,
                 FormatFloat), kRepro),
  };
}

// Single-quotes `value` for a POSIX shell unless every character is one the
// shell passes through verbatim.
std::string ShellQuote(const std::string& value) {
  if (value.find_first_not_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                              "0123456789_-.,:+=/@%") == std::string::npos) {
    return value;
  }
  std::string out = "'";
  for (char ch : value) out += ch == '\'' ? std::string("'\\''") : std::string(1, ch);
  return out + "'";
}

}  // namespace

const std::vector<ConfigField>& ConfigFields() {
  static const std::vector<ConfigField> fields = BuildFields();
  return fields;
}

const ConfigField* FindConfigField(const std::string& flag) {
  for (const ConfigField& f : ConfigFields()) {
    if (flag == f.flag || (f.alias != nullptr && flag == f.alias)) return &f;
  }
  return nullptr;
}

bool ParseConfigFlags(const std::map<std::string, std::string>& flags,
                      ExperimentConfig* config, std::string* error) {
  for (const ConfigField& field : ConfigFields()) {
    auto it = flags.find(field.flag);
    if (it == flags.end() && field.alias != nullptr) it = flags.find(field.alias);
    if (it != flags.end() && !field.parse(it->second, config, error)) return false;
  }
  return true;
}

std::string DescribeConfig(const ExperimentConfig& config) {
  std::string out = "hs1sim";
  for (const ConfigField& f : ConfigFields()) {
    if (f.in_repro) out += " --" + std::string(f.flag) + "=" + ShellQuote(f.format(config));
  }
  // State no flag can set: the line names it instead of describing another run.
  const ExperimentConfig defaults;
  std::string hidden;
  auto hide = [&hidden](bool differs, const char* what) {
    if (differs) hidden += (hidden.empty() ? "" : ",") + std::string(what);
  };
  ArrivalConfig shape = config.arrival;  // --arrival/--offered-load set the rest
  shape.kind = defaults.arrival.kind;
  shape.offered_load_tps = defaults.arrival.offered_load_tps;
  hide(shape != defaults.arrival, "arrival");
  hide(config.costs != defaults.costs, "costs");
  hide(config.ycsb != defaults.ycsb, "ycsb");
  hide(config.tpcc != defaults.tpcc, "tpcc");
  hide(config.client_region != defaults.client_region, "client_region");
  hide(config.test_break_safety, "test_break_safety");
  hide(config.test_break_liveness, "test_break_liveness");
  hide(config.test_break_reconfig, "test_break_reconfig");
  if (!hidden.empty()) out += std::string(" ") + kUnexpressibleMarker + hidden;
  return out;
}

}  // namespace hotstuff1
