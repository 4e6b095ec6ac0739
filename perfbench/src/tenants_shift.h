// tenants-shift: a phase-shifting four-tenant churn, defined by the
// benchmark because no workload in src/ drives the span economy and the
// fleet controller together.
//
// Each client core is one tenant with its own size band. Every tenant runs
// the same three phases back to back -- fill its working set, churn it,
// drain it -- but which tenants are hot moves from phase to phase, so the
// adaptive router has skew to follow (client moves) and cold phases leave
// shards below break-even (parks). Tenant 0's first phase holds a working
// set of span-sized blocks larger than its home shard's slice of the heap
// window, so its shard must take spans from the others (donation) and the
// watermark rebalancer must restock and return them afterwards.
#ifndef PERFBENCH_SRC_TENANTS_SHIFT_H_
#define PERFBENCH_SRC_TENANTS_SHIFT_H_

#include <cstdint>

#include "src/workload/workload.h"

namespace perfbench {

struct TenantsShiftConfig {
  // Scales every phase's churn length (total work grows linearly).
  std::uint32_t ops_scale = 1;
};

class TenantsShift : public ngx::Workload {
 public:
  explicit TenantsShift(const TenantsShiftConfig& config = {}) : config_(config) {}

  std::string_view name() const override { return "tenants-shift"; }
  std::vector<std::unique_ptr<ngx::SimThread>> MakeThreads(ngx::Machine& machine,
                                                           ngx::Allocator& alloc,
                                                           const std::vector<int>& cores,
                                                           std::uint64_t seed) override;

 private:
  TenantsShiftConfig config_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TENANTS_SHIFT_H_
