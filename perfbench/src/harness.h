// One simulated run of a benchmark workload on a fresh machine, measured
// from outside through the simulator's public APIs.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/probe.h"
#include "perfbench/src/setups.h"
#include "src/offload/offload_engine.h"
#include "src/workload/runner.h"

namespace perfbench {

// Books read from the NgxAllocator and its fabric after the run (host-side
// accessors; RunWorkload's own copy of them is lost when the allocator is
// wrapped). All zero for the baseline.
struct NextGenBooks {
  std::uint64_t stash_hits = 0;
  std::uint64_t sync_mallocs = 0;
  std::uint64_t stash_refills = 0;
  std::uint64_t starvation_stalls = 0;
  std::uint64_t recycled_frees = 0;
  std::uint64_t refill_overlap_cycles = 0;
  std::uint64_t buffered_frees = 0;
  std::uint64_t free_flushes = 0;
  std::uint64_t donated_spans = 0;
  std::uint64_t returned_spans = 0;
  std::uint64_t rebalance_moves = 0;
  std::uint64_t inline_fallbacks = 0;
  std::uint64_t partition_ooms = 0;
  std::uint64_t mapped_bytes = 0;  // span providers, hugepage round-up included
  std::uint64_t map_waste_bytes = 0;
  std::uint64_t routing_epochs = 0;
  std::uint64_t client_moves = 0;
  std::uint64_t shards_parked = 0;
  std::uint64_t parked_core_cycles = 0;
  ngx::OffloadEngineStats fabric;
};

struct RunOutcome {
  ngx::RunResult result;
  std::uint64_t hash = 0;  // bench SimStateHash of `result`
  double setup_s = 0;      // machine + allocator/fabric + workload threads
  double host_s = 0;       // Scheduler::Run + Flush + DrainAll
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t sim_accesses = 0;  // loads + stores + atomics, every core
  ProbeReport probe;
  NextGenBooks books;
  // Traced runs only.
  std::string spans_json;
  std::array<SpanTotals, kNumSpanKinds> span_totals{};
  std::uint64_t dropped_events = 0;  // telemetry tracer + span log
};

// NextGen stack of `setup` at `seed`. A traced run wraps the same history in
// telemetry, the flight recorder and span recording; its hash must equal the
// untraced run's.
RunOutcome RunNextGen(const Setup& setup, std::uint64_t seed, bool traced);

// Like-for-like Mimalloc baseline on the same app cores, no server cores.
RunOutcome RunBaseline(const Setup& setup, std::uint64_t seed);

// Empty when the mechanism `setup` exists to exercise ran in `ngx`;
// otherwise says what did not run.
std::string GuardFailure(const Setup& setup, const RunOutcome& ngx);

// Builds the NextGen machine, allocator/fabric and workload threads, then
// discards them; returns the host seconds that took.
double SetupSeconds(const Setup& setup, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
