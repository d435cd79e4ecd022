// Benchmark program: runs one named workload through the public Experiment
// API (construct + Setup, Run, destroy), timing each call from outside, and
// emits one JSON line per repetition with the host times, the simulated
// (virtual-time) results, the exact per-layer work counts and an output
// digest. In traced mode it additionally records spans around every call it
// makes into the program and times one public function of each layer on
// inputs shaped like the workload (the "probes").
//
//   hs1perf --workload=lan_n128 --seed=1 --seconds=20
//   hs1perf --workload=lan_n128 --seed=1 --seconds=20 --trace-out=spans.json
//
// run.py builds this program, aggregates its lines into per-run values and
// checks the digests; see README.md in this directory.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/certificate.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "ledger/ledger.h"
#include "runtime/adversary.h"
#include "runtime/experiment.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/ycsb.h"

namespace hotstuff1::perf {
namespace {

// --- clocks -------------------------------------------------------------------

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Keeps probe results observable so the compiler cannot elide the timed op.
volatile uint64_t g_sink = 0;

// --- spans --------------------------------------------------------------------

// In-memory span recorder: name, start, end and parent (index into spans_,
// -1 for a root). Spans nest strictly, so the open ones form a stack.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  void Begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), WallNs(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void End() {
    spans_[open_.back()].end_ns = WallNs();
    open_.pop_back();
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_) tracer_->Begin(std::move(name));
  }
  ~ScopedSpan() {
    if (tracer_) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// --- workloads ----------------------------------------------------------------

// Every workload leaves the topology unset, so Setup() uses the default LAN
// (Topology::Lan(n), 0.4 ms one way). On that LAN a closed loop's simulated
// timing would not depend on the seed at all, so the closed-loop workloads
// add the program's own network jitter (the strategy grammar's "jitter=",
// as in hs1sim --strategy=0-:jitter=10): every cross-node delivery takes up
// to 10% longer, drawn from the seed.
constexpr char kLanJitter[] = "0-:jitter=10";

bool MakeConfig(const std::string& name, uint64_t seed, ExperimentConfig* cfg) {
  ExperimentConfig c;
  c.protocol = ProtocolKind::kHotStuff1;
  c.seed = seed;
  c.sim_jobs = 1;
  c.warmup = Millis(100);
  if (name == "lan_n128") {
    c.n = 128;
    c.batch_size = 100;
    c.duration = Millis(150);
    if (!ParseStrategySchedule(kLanJitter, &c.strategy)) return false;
  } else if (name == "lan_n16_b1000") {
    c.n = 16;
    c.batch_size = 1000;
    c.duration = Millis(150);
    if (!ParseStrategySchedule(kLanJitter, &c.strategy)) return false;
  } else if (name == "rollback_open_n16") {
    c.n = 16;
    c.batch_size = 100;
    c.warmup = Millis(300);
    c.duration = Millis(2000);
    c.fault = Fault::kRollbackAttack;
    c.num_faulty = 5;
    c.rollback_victims = 5;
    c.arrival.kind = ArrivalKind::kPoisson;
    c.arrival.offered_load_tps = 8000;
    c.oracle_enabled = true;
  } else {
    return false;
  }
  *cfg = c;
  return true;
}

// --- one repetition -----------------------------------------------------------

// Peak resident set of the process so far. Read right after the first Run()
// of a process, it is the footprint of one fresh run of the workload; later
// repetitions only add allocator fragmentation.
uint64_t PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

uint64_t Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// Digest over every deterministic ExperimentResult field plus each replica's
// committed tip and full KV fingerprint. wall_ms and cap_parallelism_degraded
// are host- or executor-dependent by definition and stay out.
std::string OutputDigest(const ExperimentResult& r, Experiment& exp) {
  Sha256 h;
  h.Update(r.protocol);
  for (double d : {r.throughput_tps, r.avg_latency_ms, r.p50_latency_ms,
                   r.p99_latency_ms, r.p999_latency_ms}) {
    h.UpdateU64(Bits(d));
  }
  for (uint64_t v :
       {r.accepted, r.accepted_speculative, r.resubmissions, r.backlog,
        r.committed_blocks, r.committed_txns, r.views, r.slots, r.timeouts,
        r.rollback_events, r.blocks_rolled_back, r.rejects, r.messages_sent,
        r.bytes_sent, r.committee_changes, uint64_t{r.final_committee_n},
        uint64_t{r.safety_ok}, uint64_t{r.event_cap_hit}, r.events_processed,
        r.oracle_violations, r.liveness_violations}) {
    h.UpdateU64(v);
  }
  h.Update(r.oracle_first_violation);
  h.Update(r.liveness_first_violation);
  for (const auto& replica : exp.replicas()) {
    h.Update(replica->ledger().committed_tip()->hash());
    h.UpdateU64(replica->ledger().state().Fingerprint());
  }
  return h.Finish().ToHex();
}

struct Count {
  const char* name;
  double value;
};

struct Rep {
  double setup_s = 0, run_wall_s = 0, run_cpu_s = 0, teardown_s = 0;
  std::string fail;  // empty = the repetition passed every check
  std::string digest;
  double tput = 0, p50 = 0, p99 = 0;
  uint64_t kv_keys = 0, pending_events = 0, peak_rss_kb = 0;
  std::vector<Count> counts;
};

Rep RunRep(const ExperimentConfig& cfg, Tracer* tracer) {
  Rep rep;
  ScopedSpan rep_span(tracer, "rep");
  std::unique_ptr<Experiment> exp;
  {
    ScopedSpan span(tracer, "runtime.setup");
    const int64_t t0 = WallNs();
    exp = std::make_unique<Experiment>(cfg);
    exp->Setup();
    rep.setup_s = Seconds(WallNs() - t0);
  }
  ExperimentResult r;
  {
    ScopedSpan span(tracer, "runtime.run");
    const int64_t t0 = WallNs();
    const int64_t c0 = CpuNs();
    r = exp->Run();
    rep.run_cpu_s = Seconds(CpuNs() - c0);
    rep.run_wall_s = Seconds(WallNs() - t0);
  }
  rep.peak_rss_kb = PeakRssKb();

  if (!r.safety_ok) rep.fail = "safety";
  if (r.oracle_violations > 0) rep.fail = "oracle: " + r.oracle_first_violation;
  if (r.liveness_violations > 0) rep.fail = "liveness: " + r.liveness_first_violation;
  if (r.event_cap_hit) rep.fail = "event_cap_hit";
  if (r.accepted == 0) rep.fail = "no transaction accepted";

  rep.digest = OutputDigest(r, *exp);
  rep.tput = r.throughput_tps;
  rep.p50 = r.p50_latency_ms;
  rep.p99 = r.p99_latency_ms;
  rep.pending_events = exp->simulator().PendingEvents();

  uint64_t votes = 0, proposals = 0, fetches = 0, speculated = 0, executed = 0,
           blocks_stored = 0;
  for (const auto& replica : exp->replicas()) {
    const ReplicaMetrics& m = replica->metrics();
    votes += m.votes_sent;
    proposals += m.proposals_received;
    fetches += m.fetches;
    speculated += m.blocks_speculated;
    executed += m.txns_committed;
    rep.kv_keys += replica->ledger().state().size();
    blocks_stored += replica->store().size();
  }
  const double accepted = static_cast<double>(r.accepted);
  rep.counts = {
      {"sim.events", static_cast<double>(r.events_processed)},
      {"network.messages", static_cast<double>(r.messages_sent)},
      {"network.bytes", static_cast<double>(r.bytes_sent)},
      {"consensus.views", static_cast<double>(r.views)},
      {"consensus.timeouts", static_cast<double>(r.timeouts)},
      {"consensus.votes", static_cast<double>(votes)},
      {"consensus.proposals_received", static_cast<double>(proposals)},
      {"consensus.fetches", static_cast<double>(fetches)},
      {"core.slots", static_cast<double>(r.slots)},
      {"core.blocks_speculated", static_cast<double>(speculated)},
      {"core.spec_accept_frac",
       accepted > 0 ? static_cast<double>(r.accepted_speculative) / accepted : 0},
      {"ledger.txns_executed", static_cast<double>(executed)},
      {"ledger.kv_keys", static_cast<double>(rep.kv_keys)},
      {"ledger.blocks_stored", static_cast<double>(blocks_stored)},
      {"ledger.blocks_rolled_back", static_cast<double>(r.blocks_rolled_back)},
      {"client.accepted", accepted},
      {"client.resubmit_frac",
       accepted > 0 ? static_cast<double>(r.resubmissions) / accepted : 0},
      {"client.backlog", static_cast<double>(r.backlog)},
      {"runtime.oracle_violations", static_cast<double>(r.oracle_violations)},
      {"runtime.liveness_violations", static_cast<double>(r.liveness_violations)},
  };

  {
    ScopedSpan span(tracer, "runtime.teardown");
    const int64_t t0 = WallNs();
    exp.reset();
    rep.teardown_s = Seconds(WallNs() - t0);
  }
  return rep;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

void PrintRep(const Rep& rep, bool traced) {
  std::printf(
      "{\"type\":\"rep\",\"traced\":%d,\"ok\":%s,\"fail\":\"%s\","
      "\"digest\":\"%s\",\"setup_s\":%.9f,\"run_wall_s\":%.9f,"
      "\"run_cpu_s\":%.9f,\"teardown_s\":%.9f,\"sim_tput_tps\":%.17g,"
      "\"sim_lat_p50_ms\":%.17g,\"sim_lat_p99_ms\":%.17g,"
      "\"pending_events\":%" PRIu64 ",\"peak_rss_kb\":%" PRIu64 ",\"counts\":{",
      traced ? 1 : 0, rep.fail.empty() ? "true" : "false",
      JsonEscape(rep.fail).c_str(), rep.digest.c_str(), rep.setup_s,
      rep.run_wall_s, rep.run_cpu_s, rep.teardown_s, rep.tput, rep.p50, rep.p99,
      rep.pending_events, rep.peak_rss_kb);
  for (size_t i = 0; i < rep.counts.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i ? "," : "", rep.counts[i].name,
                rep.counts[i].value);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- probes -------------------------------------------------------------------

// Runs `timed_op` (which returns the nanoseconds of its own timed section
// and the number of operations it covered) in chunks until `budget_s` is
// spent, and returns the median of the per-chunk ns/op.
double MedianNsPerOp(double budget_s, const std::function<std::pair<int64_t, uint64_t>()>& timed_op) {
  const int64_t deadline = WallNs() + static_cast<int64_t>(budget_s * 1e9);
  const int64_t chunk_ns = std::max<int64_t>(static_cast<int64_t>(budget_s * 1e9) / 15, 1'000'000);
  std::vector<double> per_op;
  do {
    int64_t ns = 0;
    uint64_t ops = 0;
    const int64_t chunk_end = std::min(WallNs() + chunk_ns, deadline);
    do {
      const auto [t, k] = timed_op();
      ns += t;
      ops += k;
    } while (WallNs() < chunk_end);
    if (ops > 0) per_op.push_back(static_cast<double>(ns) / static_cast<double>(ops));
  } while (WallNs() < deadline);
  std::sort(per_op.begin(), per_op.end());
  return per_op.empty() ? 0 : per_op[per_op.size() / 2];
}

std::vector<Transaction> MakeBatch(const YcsbWorkload& workload, Rng* rng,
                                   uint32_t batch, uint64_t first_id) {
  std::vector<Transaction> txns;
  txns.reserve(batch);
  for (uint32_t i = 0; i < batch; ++i) {
    Transaction t = workload.Generate(rng);
    t.id = first_id + i;
    txns.push_back(std::move(t));
  }
  return txns;
}

struct ProbeMessage : sim::NetMessage {
  explicit ProbeMessage(size_t bytes) : bytes(bytes) {}
  size_t WireSize() const override { return bytes; }
  size_t bytes;
};

struct RunShape {
  uint64_t kv_keys = 0;         // Σ KV size over replicas at the end of a run
  uint64_t pending_events = 0;  // simulator queue depth at the end of a run
};

void PrintProbe(const char* name, double value) {
  std::printf("{\"type\":\"probe\",\"name\":\"%s\",\"value\":%.17g}\n", name, value);
  std::fflush(stdout);
}

void RunProbes(const ExperimentConfig& cfg, const RunShape& shape, double budget_s,
               Tracer* tracer) {
  const uint32_t n = cfg.n;
  const uint32_t batch = cfg.batch_size;
  const double each_s = budget_s / 7;
  YcsbWorkload workload(cfg.ycsb);
  Rng rng(cfg.seed * 7919 + 1);
  ScopedSpan root(tracer, "probes");

  {
    ScopedSpan span(tracer, "crypto.cert_verify");
    const uint32_t quorum = n - (n - 1) / 3;
    KeyRegistry registry(n, cfg.seed);
    const Hash256 h = Sha256::Digest("probe-block");
    const BlockId id{5, 1};
    VoteAccumulator acc(CertKind::kPrepare, 5, id, h, quorum);
    for (uint32_t r = 0; r < quorum; ++r) {
      acc.Add(Signer(&registry, r)
                  .Sign(SignDomain::kProposeVote, VoteDigest(CertKind::kPrepare, 5, id, h)));
    }
    const Certificate cert = acc.Build();
    PrintProbe("crypto.cert_verify_ns", MedianNsPerOp(each_s, [&] {
                 const int64_t t0 = WallNs();
                 g_sink = g_sink + cert.Verify(registry, quorum).ok();
                 return std::make_pair(WallNs() - t0, uint64_t{1});
               }));
  }

  const std::vector<Transaction> txns = MakeBatch(workload, &rng, batch, 0);
  size_t proposal_bytes = 0;
  {
    ScopedSpan span(tracer, "crypto.block_hash");
    const Hash256 parent = Block::Genesis()->hash();
    proposal_bytes = Block(BlockId{1, 1}, parent, 1, 0, txns).WireSize();
    PrintProbe("crypto.block_hash_ns", MedianNsPerOp(each_s, [&] {
                 const int64_t t0 = WallNs();
                 auto block = std::make_shared<Block>(BlockId{1, 1}, parent, 1, 0, txns);
                 g_sink = g_sink + block->hash().bytes[0];
                 return std::make_pair(WallNs() - t0, uint64_t{1});
               }));
  }

  {
    // n ledgers, each over a KvState pre-filled to the run's per-replica key
    // count: the real run's maps are that large, so a find misses cache.
    // Like the run, every batch is applied to all n maps in turn, so their
    // nodes interleave in memory.
    std::vector<std::unique_ptr<BlockStore>> stores;
    std::vector<std::unique_ptr<Ledger>> ledgers;
    {
      ScopedSpan span(tracer, "ledger.prefill");
      const uint64_t per_replica = std::min<uint64_t>(
          std::max<uint64_t>(shape.kv_keys / n, 1), cfg.ycsb.num_records);
      std::vector<KvState> states(n);
      for (KvState& state : states) state.Reserve(1 << 16);
      while (states[0].size() < per_replica) {
        for (const Transaction& txn : MakeBatch(workload, &rng, batch, 0)) {
          for (KvState& state : states) state.ApplyTxn(txn, nullptr);
        }
      }
      for (KvState& state : states) {
        stores.push_back(std::make_unique<BlockStore>());
        ledgers.push_back(std::make_unique<Ledger>(stores.back().get(), std::move(state)));
      }
    }
    uint64_t next = 0;
    // Every block carries a fresh batch, so each write hits random keys like
    // the run's clients do. Stored blocks keep their batches alive, so every
    // kBlocksPerStore blocks a ledger moves its KvState into a new ledger
    // over an empty store, which frees the old blocks.
    constexpr size_t kBlocksPerStore = 16;
    auto next_block = [&](uint32_t r, const BlockPtr& parent) {
      auto block = std::make_shared<Block>(BlockId{next + 1, 1}, parent->hash(),
                                           parent->height() + 1, 0,
                                           MakeBatch(workload, &rng, batch, (next + 1) * batch));
      stores[r]->Put(block);
      ++next;
      return block;
    };
    auto recycle = [&](uint32_t r) {
      if (stores[r]->size() <= kBlocksPerStore) return;
      auto store = std::make_unique<BlockStore>();
      ledgers[r] = std::make_unique<Ledger>(store.get(), std::move(ledgers[r]->mutable_state()));
      stores[r] = std::move(store);
    };
    {
      ScopedSpan span(tracer, "ledger.exec_block");
      PrintProbe("ledger.exec_block_ns", MedianNsPerOp(each_s, [&] {
                   const uint32_t r = static_cast<uint32_t>(next % n);
                   recycle(r);
                   const BlockPtr block = next_block(r, ledgers[r]->committed_tip());
                   const int64_t t0 = WallNs();
                   ledgers[r]->Speculate(block);
                   g_sink = g_sink + ledgers[r]->CommitChain(block).size();
                   return std::make_pair(WallNs() - t0, uint64_t{1});
                 }));
    }
    {
      ScopedSpan span(tracer, "ledger.rollback");
      PrintProbe("ledger.rollback_ns", MedianNsPerOp(each_s, [&] {
                   const uint32_t r = static_cast<uint32_t>(next % n);
                   recycle(r);
                   const BlockPtr block = next_block(r, ledgers[r]->spec_tip());
                   ledgers[r]->Speculate(block);
                   const Hash256 tip = ledgers[r]->committed_tip()->hash();
                   const int64_t t0 = WallNs();
                   const size_t undone = ledgers[r]->RollbackTo(tip);
                   return std::make_pair(WallNs() - t0, uint64_t{undone});
                 }));
    }
  }

  {
    // A queue as deep as the run's, kept at constant depth: each timed step
    // schedules one event and executes the earliest.
    ScopedSpan span(tracer, "sim.event");
    sim::Simulator sim;
    uint64_t fired = 0;
    const uint64_t depth = std::max<uint64_t>(shape.pending_events, 1);
    for (uint64_t i = 0; i < depth; ++i) {
      sim.AtShard(1 + static_cast<SimTime>(rng.NextBounded(2000)),
                  static_cast<sim::ShardId>(i % n), [&fired] { ++fired; });
    }
    uint64_t shard = 0;
    PrintProbe("sim.event_ns", MedianNsPerOp(each_s, [&] {
                 constexpr uint64_t kOps = 256;
                 const int64_t t0 = WallNs();
                 for (uint64_t i = 0; i < kOps; ++i) {
                   sim.AtShard(sim.Now() + 1 + static_cast<SimTime>(rng.NextBounded(2000)),
                               static_cast<sim::ShardId>(shard++ % n), [&fired] { ++fired; });
                   sim.Step();
                 }
                 return std::make_pair(WallNs() - t0, kOps);
               }));
    g_sink = g_sink + fired;
  }

  {
    ScopedSpan span(tracer, "network.broadcast");
    sim::Simulator sim;
    sim::Network net(&sim, n);
    uint64_t delivered = 0;
    for (uint32_t r = 0; r < n; ++r) {
      net.SetHandler(r, [&delivered](sim::NodeId, const sim::NetMessagePtr&) { ++delivered; });
    }
    const sim::NetMessagePtr msg = std::make_shared<ProbeMessage>(proposal_bytes);
    uint32_t from = 0;
    PrintProbe("network.broadcast_ns", MedianNsPerOp(each_s, [&] {
                 const uint64_t before = delivered;
                 const int64_t t0 = WallNs();
                 net.Broadcast(from++ % n, msg);
                 sim.Run();
                 return std::make_pair(WallNs() - t0, delivered - before);
               }));
  }

  {
    ScopedSpan span(tracer, "workload.generate");
    PrintProbe("workload.generate_ns", MedianNsPerOp(each_s, [&] {
                 constexpr uint64_t kOps = 64;
                 const int64_t t0 = WallNs();
                 for (uint64_t i = 0; i < kOps; ++i) {
                   g_sink = g_sink + workload.Generate(&rng).ops.size();
                 }
                 return std::make_pair(WallNs() - t0, kOps);
               }));
  }
}

// --- main ---------------------------------------------------------------------

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

constexpr int kSetupSamples = 15;

int Usage() {
  std::fprintf(stderr,
               "usage: hs1perf --workload=<lan_n128|lan_n16_b1000|rollback_open_n16>"
               " --seed=<u64> --seconds=<s> [--min-reps=<k>] [--trace-out=<file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  int min_reps = 3;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag, std::string* out) {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(prefix.size());
      return true;
    };
    std::string v;
    if (value("--workload", &v)) {
      workload = v;
    } else if (value("--seed", &v)) {
      seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (value("--seconds", &v)) {
      seconds = std::atof(v.c_str());
    } else if (value("--min-reps", &v)) {
      min_reps = std::max(1, std::atoi(v.c_str()));
    } else if (value("--trace-out", &v)) {
      trace_out = v;
    } else {
      return Usage();
    }
  }
  ExperimentConfig cfg;
  if (!have_seed || seconds <= 0 || !MakeConfig(workload, seed, &cfg)) return Usage();
  const bool traced = !trace_out.empty();

  // Untraced: repeat the workload until the time budget is spent (at least
  // min_reps times). Traced: half the budget alternates untraced and traced
  // repetitions (their run_cpu_s difference is the tracing overhead), the
  // other half goes to the probes.
  const int64_t start = WallNs();
  const double rep_budget_s = traced ? seconds / 2 : seconds;
  Tracer tracer;
  RunShape shape;
  std::vector<double> rep_wall;
  int reps = 0;
  for (;;) {
    const double elapsed = Seconds(WallNs() - start);
    const double typical = Median(rep_wall);
    if (reps >= min_reps && elapsed + typical > rep_budget_s) break;
    if (reps >= 200) break;
    const bool trace_this = traced && reps % 2 == 1;
    const int64_t t0 = WallNs();
    const Rep rep = RunRep(cfg, trace_this ? &tracer : nullptr);
    rep_wall.push_back(Seconds(WallNs() - t0));
    PrintRep(rep, trace_this);
    shape.kv_keys = rep.kv_keys;
    shape.pending_events = rep.pending_events;
    ++reps;
  }
  // setup_s is small and noisy, so untraced runs top its sample count up
  // with set-up-only cycles (construct + Setup + destroy).
  for (int i = reps; !traced && i < kSetupSamples; ++i) {
    const int64_t t0 = WallNs();
    auto exp = std::make_unique<Experiment>(cfg);
    exp->Setup();
    const double setup_s = Seconds(WallNs() - t0);
    exp.reset();
    std::printf("{\"type\":\"setup\",\"setup_s\":%.9f}\n", setup_s);
  }
  if (traced) {
    const double left = seconds - Seconds(WallNs() - start);
    RunProbes(cfg, shape, std::max(0.7, left), &tracer);
    if (!tracer.WriteJson(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  std::printf(
      "{\"type\":\"end\",\"batch\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\"}\n",
      cfg.batch_size, HS1PERF_BUILD_TYPE, HS1PERF_COMPILER);
  return 0;
}

}  // namespace
}  // namespace hotstuff1::perf

int main(int argc, char** argv) { return hotstuff1::perf::Main(argc, argv); }
