// Simplified TPC-C OLTP workload (§7): NewOrder and Payment transactions
// over warehouse / district / customer / stock tables encoded into the
// shared 64-bit keyspace. Sized to the paper's 260k-record database:
// 20 warehouses x (1 + 10 districts + 3000 customers + 10000 stock items)
// = 260,220 records.

#ifndef HOTSTUFF1_WORKLOAD_TPCC_H_
#define HOTSTUFF1_WORKLOAD_TPCC_H_

#include "workload/workload.h"

namespace hotstuff1 {

struct TpccConfig {
  uint32_t num_warehouses = 20;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 300;  // 3000 per warehouse
  uint32_t stock_per_warehouse = 10'000;
  /// Transaction mix: probability of NewOrder (rest: Payment).
  double new_order_fraction = 0.5;
  uint32_t min_order_lines = 5;
  uint32_t max_order_lines = 15;
  bool operator==(const TpccConfig&) const = default;
};

/// Table tags for the key encoding (top byte of the key).
enum class TpccTable : uint8_t {
  kWarehouse = 1,
  kDistrict = 2,
  kCustomer = 3,
  kStock = 4,
  kOrder = 5,      // insert-only rows created by NewOrder
  kOrderLine = 6,  // insert-only rows created by NewOrder
};

/// Packs (table, warehouse, district, index) into a 64-bit key.
uint64_t TpccKey(TpccTable table, uint32_t w, uint32_t d, uint64_t index);

class TpccWorkload : public Workload {
 public:
  explicit TpccWorkload(TpccConfig config = {});

  const char* Name() const override { return "TPC-C"; }
  uint64_t RecordCount() const override;
  void Load(KvState* state) const override;
  Transaction Generate(Rng* rng) const override;

  const TpccConfig& config() const { return config_; }

 private:
  Transaction NewOrder(Rng* rng) const;
  Transaction Payment(Rng* rng) const;

  TpccConfig config_;
};

}  // namespace hotstuff1

#endif  // HOTSTUFF1_WORKLOAD_TPCC_H_
