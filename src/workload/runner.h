// Binds a machine, an allocator and a workload; runs to completion and
// collects the PMU counters the paper's tables report.
#ifndef NGX_SRC_WORKLOAD_RUNNER_H_
#define NGX_SRC_WORKLOAD_RUNNER_H_

#include <string>
#include <vector>

#include "src/offload/routing.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/workload/workload.h"

namespace ngx {

struct RunResult {
  // Counters summed over the *application* cores (what perf would report
  // for the process; dedicated allocator cores are reported separately).
  PmuCounters app;
  // Wall-clock = the largest application-core cycle count.
  std::uint64_t wall_cycles = 0;
  std::vector<PmuCounters> per_core;
  // One entry per RunOptions::server_cores shard, in the same order.
  std::vector<PmuCounters> per_server;
  std::vector<int> server_cores;
  // Aggregate over per_server (the single-server `server` field, kept
  // backward-compatible: with one shard it is that shard's counters).
  PmuCounters server;
  AllocatorStats alloc_stats;
  // Client-observed sync round-trip latency digest per shard (same order as
  // RunOptions::server_cores), aggregated over ops. Populated only when the
  // machine's telemetry was enabled; units are simulated cycles.
  std::vector<HistogramSummary> shard_sync_latency;
  // Per-tenant sync-latency SLO digests (telemetry-enabled NgxAllocator runs
  // with a configured tenant list only; DESIGN.md §15). Parallel vectors in
  // NgxConfig::tenants order, each digest aggregated across all shards.
  std::vector<std::string> tenant_names;
  std::vector<HistogramSummary> tenant_sync_latency;
  // Elastic-fabric digests (telemetry-enabled runs only, like
  // shard_sync_latency): entries per batched remote-free flush, and the
  // total spans donated between shards.
  HistogramSummary free_flush_occupancy;
  std::uint64_t donated_spans = 0;
  // Watermark rebalancing digests (telemetry-enabled runs only): background
  // transfers performed, recycled spans returned to their home shard, and
  // mallocs that still fell back to inline donation on the critical path.
  std::uint64_t rebalance_moves = 0;
  std::uint64_t returned_spans = 0;
  std::uint64_t inline_donation_fallbacks = 0;
  // Stash pipeline digests (telemetry-enabled runs only; DESIGN.md §9):
  // background refills served, server fill cycles hidden behind client work,
  // half-flips that stalled because the client outran the server, and frees
  // recycled straight into the client's stash (never reached the server).
  std::uint64_t stash_refills = 0;
  std::uint64_t refill_overlap_cycles = 0;
  std::uint64_t stash_starvation_stalls = 0;
  std::uint64_t stash_recycles = 0;
  // Server carve-path digests (telemetry-enabled runs only; DESIGN.md §10):
  // server-core cycles inside the heap's malloc/free/refill handlers, and
  // the segment heap's slab-recycle vs fresh-mapping split (zero for the
  // segregated/aggregated layouts, which have no slab recycling).
  std::uint64_t server_carve_cycles = 0;
  std::uint64_t slab_reuses = 0;
  std::uint64_t fresh_slab_carves = 0;
  // Adaptive routing / elastic fleet digests (DESIGN.md §14). Copied from
  // the allocator's host-side books, so they are present even without
  // telemetry: epochs the controller closed, home-shard reassignments the
  // routing policy made, park transitions taken, simulated core-cycles of
  // capacity released while shards sat parked, and the per-epoch fleet
  // timeline (one entry per closed epoch). All zero/empty when
  // config.adaptive_routing was off.
  std::uint64_t routing_epochs = 0;
  std::uint64_t client_moves = 0;
  std::uint64_t shards_parked = 0;
  std::uint64_t parked_core_cycles = 0;
  std::vector<FleetEpoch> fleet_timeline;
  // Map-waste honesty (DESIGN.md §16), copied from the allocator's host-side
  // books (present without telemetry, NgxAllocator runs only): bytes the
  // shard span providers mapped vs what the heaps actually asked for. With
  // hugepage spans the difference is the partially filled frontier frames
  // of the packed providers.
  std::uint64_t map_mapped_bytes = 0;
  std::uint64_t map_requested_bytes = 0;
  std::uint64_t map_waste_bytes = 0;
  // Hugepage frames the packing ledger still holds at end of run (zero
  // without config.hugepage_spans).
  std::uint64_t hugepage_backed_bytes = 0;
  // Flight-recorder digests (recorder-enabled runs only; DESIGN.md §13):
  // the client x shard traffic matrix, the per-op cycle-attribution totals,
  // every periodic heap snapshot taken during the run, and one on-demand
  // end-of-run snapshot (also appended to `snapshots`). All purely
  // observational; a recorder-on run's sim state is bit-identical to the
  // same run with the recorder off.
  bool recorder_enabled = false;
  TrafficMatrix traffic_matrix;
  CycleAttribution attribution;
  std::vector<HeapSnapshot> snapshots;
  HeapSnapshot final_snapshot;

  // Fraction of application-core cycles spent inside allocator code.
  double MallocTimeShare() const { return app.AllocCycleShare(); }
};

struct RunOptions {
  std::vector<int> cores;          // application cores (threads pinned 1:1)
  std::uint64_t seed = 1;
  std::vector<int> server_cores;   // allocator shard cores; excluded from `app`
  bool flush_at_end = true;
};

RunResult RunWorkload(Machine& machine, Allocator& alloc, Workload& workload,
                      const RunOptions& options);

// Convenience: cores 0..n-1.
std::vector<int> FirstCores(int n);

}  // namespace ngx

#endif  // NGX_SRC_WORKLOAD_RUNNER_H_
