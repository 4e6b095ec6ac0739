#include "perfbench/src/setups.h"

#include "bench/bench_common.h"
#include "perfbench/src/tenants_shift.h"
#include "src/workload/xalanc.h"
#include "src/workload/xmalloc.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"xalanc-t3", "xmalloc-ring", "tenants-shift"};
  return names;
}

std::optional<Setup> MakeSetup(std::string_view workload) {
  Setup s;
  s.name = std::string(workload);
  int clients = 0;
  int shards = 0;
  if (workload == "xalanc-t3") {
    // The paper's Table-3 operating point: one client, one allocator core.
    clients = 1;
    shards = 1;
    s.machine = ngx::bench::Table3Machine();
    s.make_workload = [] {
      return std::make_unique<ngx::XalancLike>(ngx::bench::XalancTable3Config());
    };
    s.guard = "stash hits";
    s.reference = "paper Table 3 (AWS A1, real hardware) +4.51%";
    s.reference_speedup_pct = 4.51;
  } else if (workload == "xmalloc-ring") {
    // Producer->consumer ring: every free is cross-thread and, with two
    // shards, lands on the other shard's free ring.
    clients = 4;
    shards = 2;
    s.machine = ngx::MachineConfig::Default(clients + shards);
    s.make_workload = [] {
      ngx::XmallocConfig c;
      c.ops_per_thread = 200000;
      return std::make_unique<ngx::XmallocLike>(c);
    };
    s.guard = "cross-shard frees and batched doorbells";
  } else if (workload == "tenants-shift") {
    clients = 4;
    shards = 4;
    s.machine = ngx::MachineConfig::Default(clients + shards);
    s.make_workload = [] {
      TenantsShiftConfig c;
      c.ops_scale = 100;
      return std::make_unique<TenantsShift>(c);
    };
    s.guard = "span donation, client moves and parked shards";
  } else {
    return std::nullopt;
  }
  for (int c = 0; c < clients; ++c) {
    s.app_cores.push_back(c);
  }
  for (int c = 0; c < shards; ++c) {
    s.server_cores.push_back(clients + c);
  }

  // The NextGen stack: predictive pipelined stash, segment heap, packed
  // hugepage spans, hugepage-backed fabric metadata, batched remote frees.
  ngx::NgxConfig& n = s.nextgen;
  n = ngx::NgxConfig::PaperPrototype();
  n.num_shards = shards;
  n.prediction = true;
  n.stash_pipeline = true;
  n.stash_refill_mark = 2;
  n.stash_capacity = 14;
  n.heap_kind = ngx::HeapKind::kSegment;
  n.hugepage_spans = true;
  n.hugepage_packing = true;
  n.hugepage_metadata = true;
  n.free_batch = 8;
  if (workload == "tenants-shift") {
    // The span economy and the fleet controller, on a heap window small
    // enough (a 16 MiB slice per shard) that the heavy tenant outgrows its
    // home slice.
    n.heap_window = 64ull << 20;
    n.span_donation = true;
    n.span_low_mark = 16;
    n.span_high_mark = 32;
    n.routing = ngx::RoutingKind::kAdaptive;
    n.adaptive_routing = true;
    n.epoch_cycles = 60000;
    n.park_threshold_ops = 100;
    n.fleet_min_shards = 1;
    n.wake_queue_depth = 64;
  }

  // Like-for-like baseline: Mimalloc on the same page backing (THP on for
  // both when the NextGen spans are hugepage-backed).
  s.baseline.hugepage_backing = n.hugepage_spans;
  return s;
}

}  // namespace perfbench
