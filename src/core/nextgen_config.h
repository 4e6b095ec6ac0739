// Configuration knobs for NextGen-Malloc, matching the paper's research
// questions one for one:
//  * offload / server core type  -> Sections 3.1.1, 3.2
//  * metadata layout             -> Section 3.1.2 (Figure 2)
//  * remove_atomics              -> Section 3.1.3
//  * async_free                  -> Section 3.1.2 ("free is not on the
//                                   critical path and can run asynchronously")
//  * prediction                  -> Section 3.3.2 (predictive preallocation)
#ifndef NGX_SRC_CORE_NEXTGEN_CONFIG_H_
#define NGX_SRC_CORE_NEXTGEN_CONFIG_H_

#include <cstdint>
#include <vector>

#include "src/core/heap_kind.h"
#include "src/core/tenant_traits.h"
#include "src/offload/routing.h"

namespace ngx {

// Where MakeNgxSystem places shard server cores (and with them the shard's
// mailbox lines, which is what the machine model prices).
enum class PlacementKind {
  // Shards occupy the machine's last num_shards cores (the historical
  // default).
  kContiguous,
  // Each shard's server core is picked inside the cluster holding the
  // majority of the clients it serves under static_by_client routing
  // (requires MachineConfig::cluster_cores > 0), falling back to the lowest
  // free core when the cluster is fully occupied by clients.
  kPerCluster,
};

struct NgxConfig {
  // Run malloc/free on a dedicated core via the offload engine. When false,
  // the allocator runs inline on the application cores (MMT-style ablation).
  bool offload = true;

  // Section 3.1.1's provisioning granularity: how many allocator shards the
  // offload fabric runs, each with its own server core, heap partition and
  // per-(client, shard) channels. 1 = the paper's single-room prototype.
  int num_shards = 1;

  // How mallocs pick a shard (frees always return to the owning shard).
  RoutingKind routing = RoutingKind::kStaticByClient;

  // Frees ride the fire-and-forget ring instead of a round trip.
  bool async_free = true;

  // Which carve path backs each shard's server heap (ServerHeapConfig::
  // heap_kind): kSegregated (the default) keeps segregated metadata in
  // per-class stacks with 16-bit side indices, kAggregated threads intrusive
  // next pointers through the blocks themselves (the Figure-2 ablation), and
  // kSegment selects the segment + slab rewrite (DESIGN.md §10).
  HeapKind heap_kind = HeapKind::kSegregated;

  // Segment heap only (heap_kind = kSegment): fully-recycled segments kept
  // mapped in each shard's empty pool. 0 unmaps immediately, which is what
  // lets the span directory mark a donated segment kRecycled and flow it
  // home through kReturnSpan (ServerHeapConfig::empty_segment_retain).
  std::uint32_t empty_segment_retain = 8;

  // Section 3.1.3: the dedicated core serializes every operation, so the
  // heap's internal lock atomics can be removed. Set to false to keep them
  // (ablation), or when running non-offloaded with multiple threads.
  bool remove_atomics = true;

  // Back spans with 2 MiB hugepages (TLB reach). Hugepage spans are packed
  // (DESIGN.md §16): every shard's provider carves 32 contiguous 64-KiB spans
  // out of each 2-MiB frame, and one fabric-wide ledger keeps a frame backed
  // while any shard still holds a span on it, so maps and donation grants
  // stay span-granular and map waste is only the partially filled frontier
  // frames.
  bool hugepage_spans = true;

  // Retired: unpacked hugepage spans (one 64-KiB span per 2-MiB map) are
  // gone and construction rejects false. The field must stay true; it is
  // deleted together with the benchmark setup line that still assigns it.
  bool hugepage_packing = true;

  // Hugepage-backed fabric metadata (DESIGN.md §16): back the per-(client,
  // shard) channel blocks, the free-batch buffers, the stash cache lines and
  // the segregated metadata window with PageKind::kHuge2M mappings so
  // client-side acquire-reads and server-side carve walks stop taking 4-KiB
  // dTLB walks -- the paper's Table-1 dTLB argument carried into the fabric's
  // own structures. False (the default) keeps every metadata region on 4-KiB
  // pages, bit-identical to pre-knob builds.
  bool hugepage_metadata = false;

  // Section 3.3.2: server-side run prediction + batch preallocation into a
  // per-client stash.
  bool prediction = false;
  std::uint32_t max_predict_batch = 16;
  std::uint32_t stash_capacity = 32;

  // Pipelined stash refills (DESIGN.md §9): the (core, class) stash becomes
  // two halves with a seqlock-style publish word. When the active half drains
  // to its refill point, the client posts a non-blocking kRefillStash on the
  // async ring and keeps popping; the server fills the INACTIVE half during
  // its drain window and publishes with one release-store, so the refill
  // overlaps application work instead of stalling it the way the sync
  // kMallocBatch round trip does. stash_refill_mark is where every stash's
  // refill point STARTS: each starvation stall (the client drained the half
  // before the publish) raises that stash's own lead by one entry, up to the
  // last pop of a full half, so stashes that outrun the server learn to post
  // earlier while stall-free ones keep posting at the mark. Requires
  // offload + prediction; stash_refill_mark = 0 (or stash_pipeline = false)
  // disables the pipeline and the sim is bit-identical to pre-pipeline
  // builds.
  bool stash_pipeline = false;
  std::uint32_t stash_refill_mark = 4;

  // Periodic watermark timer (DESIGN.md §8): when > 0 (and span_low_mark is
  // set), every shard's WatermarkTick also fires each time its server core's
  // clock advances this many cycles, so a starved shard on a busy machine
  // rebalances even when the scheduler's idle-hook window never opens
  // (idle hooks only fire for cores behind the global minimum clock).
  // 0 = idle/post-drain hooks only (the historical behavior, bit-identical).
  std::uint64_t watermark_timer_cycles = 0;

  std::uint32_t ring_capacity = 64;

  // Elastic heap fabric (span-granular ownership; see DESIGN.md §7).
  // Remote frees buffered per (client, shard) and flushed `free_batch`
  // entries per ring doorbell. 1 = unbuffered (byte-for-byte the historical
  // path). Must not exceed ring_capacity.
  std::uint32_t free_batch = 1;
  // A shard whose partition runs dry requests whole free spans from the
  // donor with the most free spans via OffloadOp::kDonateSpan (needs
  // offload and num_shards > 1 to do anything).
  bool span_donation = false;
  // Proactive watermark rebalancing (DESIGN.md §8): each shard checks its
  // free-span count during drain idle time. Below span_low_mark it pulls a
  // refill from the best-stocked donor (OffloadOp::kRequestSpans); above
  // span_high_mark it first returns fully-recycled away spans to their home
  // shard (kReturnSpan) and otherwise offers surplus to a shard sitting
  // below its low mark (kOfferSpans). 0 = disabled (donation stays purely
  // reactive and the sim is bit-identical to span_low_mark-less builds).
  // Requires span_donation; span_high_mark must exceed span_low_mark.
  std::uint64_t span_low_mark = 0;
  std::uint64_t span_high_mark = 0;
  // Adaptive traffic-matrix routing + elastic allocator-core fleet
  // (DESIGN.md §14). When true the fabric tracks a host-side client x shard
  // op matrix; every epoch_cycles cycles of the first server core's clock an
  // epoch controller (a) hands the matrix to the routing policy's Observe
  // hook (the `adaptive` policy re-packs client home shards with
  // hysteresis), and (b) resizes the fleet: a shard whose epoch op count
  // falls below park_threshold_ops drains -- its recycled granted spans are
  // returned home via the span protocol -- and parks, releasing its core
  // from the malloc path; queue-depth pressure wakes parked shards. False
  // (the default) registers no hooks and no tracking: bit-identical to
  // pre-adaptive builds regardless of the other fleet knobs. The §3.1.1
  // break-even economics: an allocator core only earns its room while its op
  // rate covers its cost.
  bool adaptive_routing = false;
  // Epoch length in server-core cycles (the controller rides the same timer
  // tick mechanism as watermark_timer_cycles). Ignored unless
  // adaptive_routing is set.
  std::uint64_t epoch_cycles = 100000;
  // Fleet size bounds: the controller never parks below fleet_min_shards
  // active shards and treats fleet_max_shards (0 = num_shards) as the cap of
  // simultaneously active shards, parking the coldest extras.
  int fleet_min_shards = 1;
  int fleet_max_shards = 0;
  // Break-even threshold: park an active shard whose closing-epoch op count
  // is below this (0 = never park; routing still adapts).
  std::uint64_t park_threshold_ops = 0;
  // Queue-depth pressure that wakes the lowest-id parked shard: either a
  // parked shard's own backlog or the busiest active shard's depth reaching
  // this many entries.
  std::uint64_t wake_queue_depth = 16;
  // Per-tenant traits (DESIGN.md §15): named contracts binding client cores
  // to preset/override knobs -- stash capacity and refill mark, free_batch,
  // watermark spans, home-shard carve layout and cluster placement --
  // resolved at registration instead of every tenant riding the global
  // values above. Empty (the default) keeps the single implicit tenant and
  // is bit-identical to pre-traits builds; so is a list whose every entry
  // inherits everything.
  std::vector<TenantSpec> tenants;
  // QoS lanes where tenants meet (DESIGN.md §15): sync-bound drains serve
  // latency-lane rings first, and a bulk-lane tenant's eager/backpressure
  // drains are admitted at most lane_quantum entries per window, bounding
  // how far a free batch can run the server clock ahead of a latency
  // tenant's next sync request. False = the historical drain-everything
  // admission, bit-identical whatever the tenant lanes say.
  bool qos_lanes = false;
  std::uint32_t lane_quantum = 8;

  // Server-core placement policy used by MakeNgxSystem's placed overload.
  PlacementKind placement = PlacementKind::kContiguous;
  // Total heap window carved into shard slices. 0 = the full kHeapWindow;
  // tests and benches shrink it so partition exhaustion is reachable.
  std::uint64_t heap_window = 0;

  static NgxConfig PaperPrototype() {
    // The 4.2 software prototype: offloaded, synchronous malloc, async free,
    // segregated metadata, no prediction.
    return NgxConfig{};
  }
};

}  // namespace ngx

#endif  // NGX_SRC_CORE_NEXTGEN_CONFIG_H_
