#include "perfbench/src/harness.h"

#include "bench/bench_common.h"
#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"

namespace perfbench {
namespace {

// Spans kept whole for the trace file; later spans only feed the totals.
constexpr std::size_t kKeptSpans = 1 << 16;

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

ngx::RunOptions Options(const Setup& setup, std::uint64_t seed, bool with_servers) {
  ngx::RunOptions opt;
  opt.cores = setup.app_cores;
  opt.seed = seed;
  if (with_servers) {
    opt.server_cores = setup.server_cores;
  }
  return opt;
}

void ReadMachine(const ngx::Machine& machine, RunOutcome& out) {
  out.hash = ngx::bench::SimStateHash(out.result);
  out.dram_reads = machine.memory_reads();
  out.dram_writes = machine.memory_writes();
  for (const ngx::PmuCounters& p : out.result.per_core) {
    out.sim_accesses += p.loads + p.stores + p.atomic_rmws;
  }
}

NextGenBooks ReadBooks(const ngx::NgxSystem& sys) {
  const ngx::NgxAllocator& a = *sys.allocator;
  NextGenBooks b;
  b.stash_hits = a.stash_hits();
  b.sync_mallocs = a.sync_mallocs();
  b.stash_refills = a.stash_refills();
  b.starvation_stalls = a.stash_starvation_stalls();
  b.recycled_frees = a.stash_recycled_frees();
  b.refill_overlap_cycles = a.refill_overlap_cycles();
  b.buffered_frees = a.buffered_frees();
  b.free_flushes = a.free_flushes();
  if (a.directory() != nullptr) {
    b.donated_spans = a.directory()->total_donated();
    b.returned_spans = a.directory()->total_returned();
  }
  b.rebalance_moves = a.rebalance_moves();
  b.inline_fallbacks = a.inline_donation_fallbacks();
  b.partition_ooms = a.partition_oom_failures();
  b.mapped_bytes = a.map_mapped_bytes();
  b.map_waste_bytes = a.map_waste_bytes();
  b.routing_epochs = a.routing_epochs();
  b.client_moves = a.client_moves();
  b.shards_parked = a.shards_parked();
  b.parked_core_cycles = a.parked_core_cycles();
  b.fabric = sys.fabric->TotalStats();
  return b;
}

}  // namespace

RunOutcome RunNextGen(const Setup& setup, std::uint64_t seed, bool traced) {
  RunOutcome out;
  std::unique_ptr<SpanLog> spans;
  if (traced) {
    spans = std::make_unique<SpanLog>(kKeptSpans);
  }
  const std::uint64_t t0 = HostNs();
  ngx::Machine machine(setup.machine);
  if (traced) {
    ngx::TelemetryConfig tc;
    tc.enabled = true;
    tc.recorder = true;
    machine.EnableTelemetry(tc);
  }
  ngx::NgxSystem sys = ngx::MakeNgxSystem(machine, setup.nextgen, setup.server_cores);
  const std::uint64_t t1 = HostNs();
  auto workload = setup.make_workload();
  ProbeAllocator probe(*sys.allocator, sys.allocator.get(), spans.get());
  ProbeWorkload probed_workload(*workload, probe, spans.get());

  const std::uint64_t t2 = HostNs();
  if (spans) {
    spans->Begin(SpanKind::kRunWorkload, MaxClock(machine));
  }
  out.result = ngx::RunWorkload(machine, probe, probed_workload, Options(setup, seed, true));
  if (spans) {
    spans->End(MaxClock(machine));
    spans->Begin(SpanKind::kDrainAll, MaxClock(machine));
  }
  sys.fabric->DrainAll();
  if (spans) {
    spans->End(MaxClock(machine));
  }
  const std::uint64_t t3 = HostNs();

  out.setup_s = Seconds(t1 - t0 + probed_workload.build_ns());
  out.host_s = Seconds(t3 - t2 - probed_workload.build_ns());
  // Every workload frees all it allocates.
  probe.CheckNoLeaks();
  ReadMachine(machine, out);
  out.books = ReadBooks(sys);
  out.probe = probe.TakeReport();
  if (spans) {
    out.spans_json = spans->ToJson();
    for (int k = 0; k < kNumSpanKinds; ++k) {
      out.span_totals[static_cast<std::size_t>(k)] = spans->totals(static_cast<SpanKind>(k));
    }
    out.dropped_events = spans->dropped() + machine.telemetry().tracer().dropped();
  }
  return out;
}

RunOutcome RunBaseline(const Setup& setup, std::uint64_t seed) {
  RunOutcome out;
  const std::uint64_t t0 = HostNs();
  ngx::Machine machine(setup.machine);
  ngx::MiAllocator mi(machine, ngx::kMiHeapBase, setup.baseline);
  const std::uint64_t t1 = HostNs();
  auto workload = setup.make_workload();
  ProbeAllocator probe(mi, nullptr, nullptr);
  ProbeWorkload probed_workload(*workload, probe, nullptr);
  const std::uint64_t t2 = HostNs();
  out.result = ngx::RunWorkload(machine, probe, probed_workload, Options(setup, seed, false));
  const std::uint64_t t3 = HostNs();
  out.setup_s = Seconds(t1 - t0 + probed_workload.build_ns());
  out.host_s = Seconds(t3 - t2 - probed_workload.build_ns());
  // Every workload frees all it allocates.
  probe.CheckNoLeaks();
  ReadMachine(machine, out);
  out.probe = probe.TakeReport();
  return out;
}

std::string GuardFailure(const Setup& setup, const RunOutcome& ngx) {
  const NextGenBooks& b = ngx.books;
  if (setup.name == "xalanc-t3" && b.stash_hits == 0) {
    return "no stash hits";
  }
  if (setup.name == "xmalloc-ring" &&
      (ngx.probe.cross_shard_frees == 0 || b.free_flushes == 0 ||
       b.buffered_frees <= b.free_flushes)) {
    return "no cross-shard frees or no batched doorbells";
  }
  if (setup.name == "tenants-shift" &&
      (b.donated_spans == 0 || b.client_moves == 0 || b.shards_parked == 0)) {
    return "no donated spans, client moves or parked shards";
  }
  return "";
}

double SetupSeconds(const Setup& setup, std::uint64_t seed) {
  const std::uint64_t t0 = HostNs();
  ngx::Machine machine(setup.machine);
  ngx::NgxSystem sys = ngx::MakeNgxSystem(machine, setup.nextgen, setup.server_cores);
  auto workload = setup.make_workload();
  auto threads = workload->MakeThreads(machine, *sys.allocator, setup.app_cores, seed);
  return Seconds(HostNs() - t0);
}

}  // namespace perfbench
