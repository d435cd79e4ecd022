// YCSB-style key-value workload (§7): write operations over a database of
// 600k records, with uniform or zipfian key selection.

#ifndef HOTSTUFF1_WORKLOAD_YCSB_H_
#define HOTSTUFF1_WORKLOAD_YCSB_H_

#include <memory>

#include "workload/workload.h"

namespace hotstuff1 {

struct YcsbConfig {
  uint64_t num_records = 600'000;  // the paper's YCSB database size
  uint32_t ops_per_txn = 1;
  /// Fraction of write ops (rest are reads). The paper uses pure writes.
  double write_fraction = 1.0;
  /// 0 disables zipfian (uniform); typical skew is 0.99.
  double zipf_theta = 0.0;
  /// Extra payload bytes per transaction beyond op encoding (total wire
  /// size ~64 B/txn with the default, matching small KV writes).
  uint32_t payload_bytes = 23;
  bool operator==(const YcsbConfig&) const = default;
};

class YcsbWorkload : public Workload {
 public:
  explicit YcsbWorkload(YcsbConfig config = {});

  const char* Name() const override { return "YCSB"; }
  uint64_t RecordCount() const override { return config_.num_records; }
  void Load(KvState* state) const override;
  Transaction Generate(Rng* rng) const override;

 private:
  uint64_t NextKey(Rng* rng) const;

  YcsbConfig config_;
  std::unique_ptr<ZipfianGenerator> zipf_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_WORKLOAD_YCSB_H_
