// Performance-monitoring counters mirroring the events the paper reports
// (Tables 1-3): cycles, instructions, LLC load/store misses, dTLB load/store
// misses, plus supporting counters useful for analysis.
#ifndef NGX_SRC_SIM_PMU_H_
#define NGX_SRC_SIM_PMU_H_

#include <array>
#include <cstdint>
#include <string>

namespace ngx {

// Address-range buckets for the per-region dTLB breakdown: which fabric
// structure a data access was translating when it looked up the TLB. The
// machine classifies by the layout.h window an address falls in (DESIGN.md
// §16); everything outside the allocator's windows (workload buffers, stacks)
// lands in kOther.
enum class TlbRegion : std::uint8_t {
  kHeap = 0,     // span/large data windows (kNgxHeapBase)
  kMetadata,     // heap side tables + stash lines (kNgxMetaBase)
  kFreeBuf,      // retired free-buffer window (kNgxFreeBufBase); always 0
  kChannel,      // offload mailboxes/rings (kChannelBase)
  kOther,        // workload buffers and everything unmapped by the fabric
};
inline constexpr int kNumTlbRegions = 5;
const char* TlbRegionName(TlbRegion r);

struct PmuCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;

  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t atomic_rmws = 0;

  std::uint64_t l1d_load_misses = 0;
  std::uint64_t l1d_store_misses = 0;
  std::uint64_t l2_load_misses = 0;
  std::uint64_t l2_store_misses = 0;

  // Accesses that reached the shared LLC and missed (served by DRAM or by a
  // remote core's private cache -- both count, matching how cross-socket/
  // cross-core traffic surfaces in perf's LLC-misses).
  std::uint64_t llc_load_misses = 0;
  std::uint64_t llc_store_misses = 0;
  // Of the LLC misses above, how many were served by a remote private cache.
  std::uint64_t remote_hitm = 0;

  // dTLB misses = accesses that missed both TLB levels and walked the page
  // table (matching perf's dTLB-load-misses / dTLB-store-misses semantics on
  // most cores).
  std::uint64_t dtlb_load_misses = 0;
  std::uint64_t dtlb_store_misses = 0;
  std::uint64_t dtlb_l1_misses = 0;  // missed the first level only

  // Per-region dTLB breakdown (indexed by TlbRegion): TLB lookups issued
  // while translating an address in each fabric window, and how many of them
  // walked the page table. Observational only -- never folded into the
  // determinism hash, so region accounting can evolve without breaking
  // pinned-state replays.
  std::array<std::uint64_t, kNumTlbRegions> dtlb_region_lookups{};
  std::array<std::uint64_t, kNumTlbRegions> dtlb_region_walks{};

  // Cycles/instructions spent inside allocator code on this core (tracked
  // via Env::AllocScope); lets benches report the paper's "only 2% of time
  // is spent on malloc and free" style numbers exactly.
  std::uint64_t alloc_instructions = 0;
  std::uint64_t alloc_cycles = 0;

  std::uint64_t invalidations_sent = 0;
  std::uint64_t invalidations_received = 0;
  std::uint64_t writebacks = 0;
  // Software prefetch instructions issued (Machine::Prefetch, and the
  // allocator's stale stash prefetches). Observational only, like the
  // per-region dTLB arrays: never folded into the determinism hash.
  std::uint64_t sw_prefetches = 0;

  PmuCounters& operator+=(const PmuCounters& o);

  // Misses-per-kilo-instruction helpers (the unit Table 1 uses).
  double LlcLoadMpki() const { return Mpki(llc_load_misses); }
  double LlcStoreMpki() const { return Mpki(llc_store_misses); }
  double DtlbLoadMpki() const { return Mpki(dtlb_load_misses); }
  double DtlbStoreMpki() const { return Mpki(dtlb_store_misses); }
  double AllocCycleShare() const {
    return cycles == 0 ? 0.0 : static_cast<double>(alloc_cycles) / cycles;
  }
  double Ipc() const { return cycles == 0 ? 0.0 : static_cast<double>(instructions) / cycles; }

  double Mpki(std::uint64_t misses) const {
    return instructions == 0 ? 0.0 : 1000.0 * static_cast<double>(misses) / instructions;
  }

  // Multi-line human-readable dump (used by tests and examples).
  std::string ToString() const;
};

PmuCounters operator+(PmuCounters a, const PmuCounters& b);

}  // namespace ngx

#endif  // NGX_SRC_SIM_PMU_H_
