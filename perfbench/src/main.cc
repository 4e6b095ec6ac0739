// Repository benchmark binary: runs one workload with the NextGen stack and
// with the like-for-like Mimalloc baseline on fresh simulated machines,
// verifies every allocator call, and prints the metrics as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from an extra traced run and writes its spans to --out-dir.
// Exit code 0 only when every check passed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/alloc/layout.h"
#include "src/telemetry/json.h"

namespace perfbench {
namespace {

// §4.1 of the paper: offload pays only if it removes at least this many
// misses per malloc/free.
constexpr double kBreakEvenMissesPerOp = 1.25;
// The held-out seed is derived from the run's seed by a fixed offset no
// tuning run used.
constexpr std::uint64_t kHeldOutOffset = 0x5eed0ff5e7ull;
// setup_s: at least this many set-ups, and more until they add up to
// kSetupSampleSeconds (set-up is milliseconds or less on small machines).
constexpr std::size_t kMinSetupSamples = 15;
constexpr int kSetupsPerReplay = 4;
constexpr std::size_t kMaxSetupSamples = 1000;
constexpr double kSetupSampleSeconds = 0.3;
// End-to-end runs pool this many jobs; job j runs at seed + j * stride.
constexpr int kJobs = 3;
constexpr std::uint64_t kJobSeedStride = 0x9e3779b97f4a7c15ull;
constexpr std::size_t kMaxReplays = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        return false;
      }
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double SpeedupPct(const RunOutcome& base, const RunOutcome& ngx) {
  return 100.0 * (static_cast<double>(base.result.wall_cycles) /
                      static_cast<double>(ngx.result.wall_cycles) -
                  1.0);
}

double Mega(std::uint64_t v) { return static_cast<double>(v) / 1e6; }
double Mib(std::uint64_t v) { return static_cast<double>(v) / (1024.0 * 1024.0); }
double Pct(double num, double den) { return den == 0 ? 0 : 100.0 * num / den; }

std::uint64_t Misses(const ngx::PmuCounters& p) {
  return p.llc_load_misses + p.llc_store_misses + p.dtlb_load_misses + p.dtlb_store_misses;
}

// Host nanoseconds per simulated access of one kind, on a fresh machine of
// the workload's configuration (median of five batches).
template <typename Fn>
double HostNsPerAccess(const Setup& setup, std::uint64_t n, Fn fn) {
  ngx::Machine machine(setup.machine);
  ngx::Env e0(machine, 0);
  ngx::Env e1(machine, 1);
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const std::uint64_t start = HostNs();
    for (std::uint64_t i = 0; i < n; ++i) {
      fn(e0, e1, static_cast<std::uint64_t>(b) * n + i);
    }
    batches.push_back(static_cast<double>(HostNs() - start) / static_cast<double>(n));
  }
  return Median(batches);
}

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    ngx::JsonValue m = ngx::JsonValue::Object();
    m.Set("value", ngx::JsonValue(value));
    m.Set("unit", ngx::JsonValue(unit));
    metrics_.Set(name, std::move(m));
  }
  void Note(const std::string& line) { std::cout << "# " << line << "\n"; }
  void Fail(const std::string& why) {
    correct_ = false;
    std::cout << "# CHECK FAILED: " << why << "\n";
  }
  void Ops(const RunOutcome& run) {
    attempted_ += run.probe.malloc_calls + run.probe.free_calls;
    failed_ += run.probe.violations.total();
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  int Print() {
    if (failed_ != 0) {
      correct_ = false;
    }
    ngx::JsonValue root = ngx::JsonValue::Object();
    root.Set("correct", ngx::JsonValue(correct_));
    root.Set("attempted", ngx::JsonValue(attempted_));
    root.Set("failed", ngx::JsonValue(failed_));
    root.Set("metrics", metrics_);
    std::cout << root.Dump() << std::endl;
    return correct_ ? 0 : 1;
  }

 private:
  ngx::JsonValue metrics_ = ngx::JsonValue::Object();
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Verifier results and the exercise guard of one baseline/NextGen pair.
void CheckPair(const Setup& setup, const RunOutcome& base, const RunOutcome& ngx, Report& r) {
  r.Ops(base);
  r.Ops(ngx);
  for (const RunOutcome* run : {&base, &ngx}) {
    const Violations& v = run->probe.violations;
    if (v.total() != 0) {
      r.Fail(std::string(run == &base ? "baseline" : "nextgen") + " verifier: " +
             std::to_string(v.null_mallocs) + " null mallocs, " + std::to_string(v.overlaps) +
             " overlapping blocks, " + std::to_string(v.bad_frees) + " bad frees, " +
             std::to_string(v.leaks) + " leaked blocks");
    }
  }
  const std::string guard = GuardFailure(setup, ngx);
  if (!guard.empty()) {
    r.Fail("exercise guard (" + setup.guard + "): " + guard);
  }
}

// Reference and validity notes printed next to the numbers.
void ValidityNotes(const Setup& setup, double speedup, Report& r) {
  if (!setup.reference.empty()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "speedup_pct %+.3f%% (sim) vs %s; model gap %+.3f pp",
                  speedup, setup.reference.c_str(), speedup - setup.reference_speedup_pct);
    r.Note(buf);
  } else {
    r.Note("speedup_pct " + std::to_string(speedup) +
           "% (sim); the model is unvalidated on this workload: no reference result, no error "
           "figure");
  }
  r.Note("modelled caches and TLBs start empty; every number includes the cold start");
  r.Note("failed_op_pct " +
         std::to_string(Pct(static_cast<double>(r.failed()), static_cast<double>(r.attempted()))) +
         " over " + std::to_string(r.attempted()) + " verified mallocs and frees");
}

int RunEndToEnd(const Setup& setup, const Args& args, Report& r) {
  const std::uint64_t start = HostNs();
  // kJobs independent jobs, each a baseline/NextGen pair at its own seed,
  // pooled: one job's seed-to-seed spread is too wide for the bounds.
  std::uint64_t base_wall = 0;
  std::uint64_t ngx_wall = 0;
  std::uint64_t mapped = 0;
  LatencyHistogram malloc_cycles;
  LatencyHistogram free_cycles;
  std::uint64_t malloc_calls = 0;
  std::uint64_t free_calls = 0;
  std::uint64_t first_hash = 0;
  std::vector<double> setup_s;
  for (int j = 0; j < kJobs; ++j) {
    const std::uint64_t seed = args.seed + static_cast<std::uint64_t>(j) * kJobSeedStride;
    const RunOutcome base = RunBaseline(setup, seed);
    const RunOutcome ngx = RunNextGen(setup, seed, false);
    CheckPair(setup, base, ngx, r);
    base_wall += base.result.wall_cycles;
    ngx_wall += ngx.result.wall_cycles;
    mapped += ngx.books.mapped_bytes;
    for (const auto& [cycles, n] : ngx.probe.malloc_cycles) {
      malloc_cycles[cycles] += n;
    }
    for (const auto& [cycles, n] : ngx.probe.free_cycles) {
      free_cycles[cycles] += n;
    }
    malloc_calls += ngx.probe.malloc_calls;
    free_calls += ngx.probe.free_calls;
    setup_s.push_back(ngx.setup_s);
    if (j == 0) {
      first_hash = ngx.hash;
    }
  }
  const double speedup =
      100.0 * (static_cast<double>(base_wall) / static_cast<double>(ngx_wall) - 1.0);
  ValidityNotes(setup, speedup, r);
  r.Note("pooled over " + std::to_string(kJobs) + " seeds: " +
         std::to_string(malloc_calls) + " malloc and " + std::to_string(free_calls) +
         " free latency samples");
  r.Metric("speedup_pct", speedup, "%");
  r.Metric("wall_mcycles", Mega(ngx_wall) / kJobs, "Mcycle");
  r.Metric("malloc_p50_cycles", static_cast<double>(Percentile(malloc_cycles, 0.5)), "cycle");
  r.Metric("malloc_p999_cycles", static_cast<double>(Percentile(malloc_cycles, 0.999)),
           "cycle");
  r.Metric("free_p999_cycles", static_cast<double>(Percentile(free_cycles, 0.999)), "cycle");
  r.Metric("mapped_mib", Mib(mapped) / kJobs, "MiB");

  // The rest of the time budget replays the first job's NextGen run on
  // fresh machines: each replay must reproduce its simulated history. Set-up
  // samples are taken between replays, spread over the whole run, so a
  // burst of host noise moves few of them.
  const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  std::size_t replays = 0;
  while (replays < kMaxReplays && (replays == 0 || HostNs() - start < budget_ns)) {
    const RunOutcome again = RunNextGen(setup, args.seed, false);
    ++replays;
    setup_s.push_back(again.setup_s);
    if (again.hash != first_hash) {
      r.Fail("replayed run diverged from the first (non-deterministic simulation)");
      break;
    }
    for (int k = 0; k < kSetupsPerReplay; ++k) {
      setup_s.push_back(SetupSeconds(setup, args.seed));
    }
  }
  double setup_total = 0;
  for (const double v : setup_s) {
    setup_total += v;
  }
  while (setup_s.size() < kMaxSetupSamples &&
         (setup_s.size() < kMinSetupSamples || setup_total < kSetupSampleSeconds)) {
    setup_s.push_back(SetupSeconds(setup, args.seed));
    setup_total += setup_s.back();
  }
  r.Note(std::to_string(replays) + " replays reproduced the first run; setup_s is the median of " +
         std::to_string(setup_s.size()) + " set-ups");
  r.Metric("setup_s", Median(setup_s), "s");
  r.Metric("host_rss_mib", PeakRssMib(), "MiB");
  return r.Print();
}

int RunPerLayer(const Setup& setup, const Args& args, Report& r) {
  const RunOutcome base = RunBaseline(setup, args.seed);
  const RunOutcome ngx = RunNextGen(setup, args.seed, false);
  const RunOutcome tr = RunNextGen(setup, args.seed, true);
  CheckPair(setup, base, ngx, r);
  ValidityNotes(setup, SpeedupPct(base, ngx), r);
  const bool hash_equal = tr.hash == ngx.hash;
  if (!hash_equal) {
    r.Fail("traced run diverged from the untraced run (SimStateHash differs)");
  }

  const std::string spans_path =
      args.out_dir + "/spans-" + setup.name + "-" + std::to_string(args.seed) + ".json";
  {
    std::ofstream out(spans_path);
    out << tr.spans_json << "\n";
    if (!out) {
      r.Fail("cannot write " + spans_path);
    }
  }
  r.Note("spans written to " + spans_path);

  // Held-out seed: does the sign of speedup_pct hold?
  const std::uint64_t held = args.seed + kHeldOutOffset;
  const double speedup = SpeedupPct(base, ngx);
  const double held_speedup = SpeedupPct(RunBaseline(setup, held), RunNextGen(setup, held, false));
  const bool sign_holds = (speedup > 0) == (held_speedup > 0);
  r.Note("held-out seed " + std::to_string(held) + ": speedup_pct " +
         std::to_string(held_speedup) + "% -- sign " + (sign_holds ? "holds" : "FLIPS"));

  const ngx::RunResult& res = tr.result;
  const double calls = static_cast<double>(tr.probe.malloc_calls + tr.probe.free_calls);
  const double removed =
      (static_cast<double>(Misses(base.result.app)) - static_cast<double>(Misses(res.app))) /
      calls;
  r.Note("core.misses_removed_per_op " + std::to_string(removed) + " vs the paper's §4.1 " +
         "break-even of " + std::to_string(kBreakEvenMissesPerOp));

  // sim: the machine model.
  auto pmu_group = [&r](const std::string& who, const ngx::PmuCounters& p) {
    r.Metric("sim." + who + "_ipc", p.Ipc(), "instr/cycle");
    r.Metric("sim." + who + "_l2_misses",
             static_cast<double>(p.l2_load_misses + p.l2_store_misses), "count");
    r.Metric("sim." + who + "_llc_misses",
             static_cast<double>(p.llc_load_misses + p.llc_store_misses), "count");
    r.Metric("sim." + who + "_dtlb_walks",
             static_cast<double>(p.dtlb_load_misses + p.dtlb_store_misses), "count");
    r.Metric("sim." + who + "_remote_hitm", static_cast<double>(p.remote_hitm), "count");
    r.Metric("sim." + who + "_invalidations_received",
             static_cast<double>(p.invalidations_received), "count");
  };
  pmu_group("app", res.app);
  pmu_group("server", res.server);
  for (int reg = 0; reg < ngx::kNumTlbRegions; ++reg) {
    std::uint64_t walks = 0;
    for (const ngx::PmuCounters& p : res.per_core) {
      walks += p.dtlb_region_walks[static_cast<std::size_t>(reg)];
    }
    r.Metric(std::string("sim.dtlb_walks.") +
                 ngx::TlbRegionName(static_cast<ngx::TlbRegion>(reg)),
             static_cast<double>(walks), "count");
  }
  r.Metric("sim.host_s", ngx.host_s, "s");
  r.Metric("sim.maccess_per_host_s", static_cast<double>(ngx.sim_accesses) / ngx.host_s, "1/s");
  r.Metric("sim.dram_reads", static_cast<double>(tr.dram_reads), "count");
  r.Metric("sim.dram_writes", static_cast<double>(tr.dram_writes), "count");
  const ngx::Addr probe_base = ngx::kWorkloadBase + (1ull << 40);
  const std::uint64_t llc_lines = setup.machine.llc.size_bytes / 64;
  r.Metric("sim.host_ns_l1_hit",
           HostNsPerAccess(setup, 200000,
                           [&](ngx::Env& e, ngx::Env&, std::uint64_t) {
                             e.TouchRead(probe_base, 8);
                           }),
           "ns");
  r.Metric("sim.host_ns_llc_miss",
           HostNsPerAccess(setup, llc_lines,
                           [&](ngx::Env& e, ngx::Env&, std::uint64_t i) {
                             e.TouchRead(probe_base + 64 * i, 8);
                           }),
           "ns");
  r.Metric("sim.host_ns_hitm",
           HostNsPerAccess(setup, 100000,
                           [&](ngx::Env& e0, ngx::Env& e1, std::uint64_t i) {
                             (i % 2 == 0 ? e0 : e1).TouchWrite(probe_base, 8);
                           }),
           "ns");
  r.Metric("sim.host_ns_atomic",
           HostNsPerAccess(setup, 200000,
                           [&](ngx::Env& e, ngx::Env&, std::uint64_t) {
                             e.AtomicFetchAdd(probe_base, 1);
                           }),
           "ns");

  // alloc: the baseline that anchors speedup_pct.
  r.Metric("alloc.wall_mcycles", Mega(base.result.wall_cycles), "Mcycle");
  r.Metric("alloc.alloc_share_pct", 100.0 * base.result.app.AllocCycleShare(), "%");
  r.Metric("alloc.llc_misses",
           static_cast<double>(base.result.app.llc_load_misses + base.result.app.llc_store_misses),
           "count");
  r.Metric("alloc.dtlb_walks",
           static_cast<double>(base.result.app.dtlb_load_misses +
                               base.result.app.dtlb_store_misses),
           "count");
  r.Metric("alloc.atomics", static_cast<double>(base.result.app.atomic_rmws), "count");
  r.Metric("alloc.host_s", base.host_s, "s");
  r.Metric("alloc.heldout_speedup_pct", held_speedup, "%");
  r.Metric("alloc.heldout_sign_holds", sign_holds ? 1 : 0, "bool");

  // core: the NextGen client path, server heap and span economy.
  const NextGenBooks& b = tr.books;
  const double mallocs = static_cast<double>(tr.probe.malloc_calls);
  const double frees = static_cast<double>(tr.probe.free_calls);
  const double host_alloc_ns = static_cast<double>(tr.probe.host_malloc_ns + tr.probe.host_free_ns);
  r.Metric("core.host_ns_per_malloc", static_cast<double>(tr.probe.host_malloc_ns) / mallocs, "ns");
  r.Metric("core.host_ns_per_free",
           frees == 0 ? 0 : static_cast<double>(tr.probe.host_free_ns) / frees, "ns");
  r.Metric("core.host_alloc_share_pct", Pct(host_alloc_ns, tr.host_s * 1e9), "%");
  r.Metric("core.app_alloc_share_pct", 100.0 * res.app.AllocCycleShare(), "%");
  r.Metric("core.stash_hit_pct", Pct(static_cast<double>(b.stash_hits), mallocs), "%");
  r.Metric("core.sync_mallocs", static_cast<double>(b.sync_mallocs), "count");
  r.Metric("core.stash_refills", static_cast<double>(b.stash_refills), "count");
  r.Metric("core.starvation_stalls", static_cast<double>(b.starvation_stalls), "count");
  r.Metric("core.recycled_frees", static_cast<double>(b.recycled_frees), "count");
  r.Metric("core.refill_overlap_mcycles", Mega(b.refill_overlap_cycles), "Mcycle");
  r.Metric("core.carve_mcycles", Mega(b.fabric.carve_cycles), "Mcycle");
  r.Metric("core.slab_reuse_pct",
           Pct(static_cast<double>(res.slab_reuses),
               static_cast<double>(res.slab_reuses + res.fresh_slab_carves)),
           "%");
  r.Metric("core.donated_spans", static_cast<double>(b.donated_spans), "count");
  r.Metric("core.rebalance_moves", static_cast<double>(b.rebalance_moves), "count");
  r.Metric("core.returned_spans", static_cast<double>(b.returned_spans), "count");
  r.Metric("core.inline_fallbacks", static_cast<double>(b.inline_fallbacks), "count");
  r.Metric("core.partition_ooms", static_cast<double>(b.partition_ooms), "count");
  r.Metric("core.map_waste_mib", Mib(b.map_waste_bytes), "MiB");
  r.Metric("core.mmap_calls", static_cast<double>(res.alloc_stats.mmap_calls), "count");
  r.Metric("core.routing_epochs", static_cast<double>(b.routing_epochs), "count");
  r.Metric("core.client_moves", static_cast<double>(b.client_moves), "count");
  r.Metric("core.shards_parked", static_cast<double>(b.shards_parked), "count");
  r.Metric("core.parked_core_mcycles", Mega(b.parked_core_cycles), "Mcycle");
  r.Metric("core.misses_removed_per_op", removed, "miss/op");

  // offload: rings, doorbells and the flight recorder's cycle buckets.
  const ngx::OffloadEngineStats& f = b.fabric;
  r.Metric("offload.sync_requests", static_cast<double>(f.sync_requests), "count");
  r.Metric("offload.async_ops", static_cast<double>(f.async_ops), "count");
  r.Metric("offload.ring_doorbells", static_cast<double>(f.ring_doorbells), "count");
  r.Metric("offload.ring_full_stalls", static_cast<double>(f.ring_full_stalls), "count");
  r.Metric("offload.server_busy_waits", static_cast<double>(f.server_busy_waits), "count");
  r.Metric("offload.refill_ops", static_cast<double>(f.refill_ops), "count");
  const ngx::CycleAttribution& at = res.attribution;
  r.Metric("offload.client_path_mcycles", Mega(at.client_path()), "Mcycle");
  r.Metric("offload.sync_stall_mcycles", Mega(at.sync_stall), "Mcycle");
  r.Metric("offload.ring_wait_mcycles", Mega(at.ring_wait), "Mcycle");
  r.Metric("offload.server_carve_mcycles", Mega(at.server_carve), "Mcycle");
  r.Metric("offload.server_drain_mcycles", Mega(at.server_drain()), "Mcycle");
  r.Metric("offload.server_busy_pct",
           Pct(static_cast<double>(at.server_busy),
               static_cast<double>(res.wall_cycles) *
                   static_cast<double>(setup.server_cores.size())),
           "%");
  std::uint64_t busiest_count = 0;
  double busiest_p99 = 0;
  for (const ngx::HistogramSummary& h : res.shard_sync_latency) {
    if (h.count > busiest_count) {
      busiest_count = h.count;
      busiest_p99 = static_cast<double>(h.p99);
    }
  }
  r.Metric("offload.busiest_shard_sync_p99_cycles", busiest_p99, "cycle");

  // telemetry: what tracing costs and whether it stayed observational.
  r.Metric("telemetry.trace_host_overhead_pct", 100.0 * (tr.host_s / ngx.host_s - 1.0), "%");
  r.Metric("telemetry.trace_dropped_events", static_cast<double>(tr.dropped_events), "count");
  r.Metric("telemetry.traced_hash_equal", hash_equal ? 1 : 0, "bool");

  // workload: the load offered at the allocator boundary.
  r.Metric("workload.malloc_calls", mallocs, "count");
  r.Metric("workload.free_calls", frees, "count");
  r.Metric("workload.bytes_requested", static_cast<double>(tr.probe.bytes_requested), "B");
  r.Metric("workload.peak_live_mib", Mib(tr.probe.peak_live_bytes), "MiB");
  r.Metric("workload.host_outside_alloc_s", tr.host_s - host_alloc_ns / 1e9, "s");
  r.Metric("workload.failed_op_pct",
           Pct(static_cast<double>(r.failed()), static_cast<double>(r.attempted())), "%");
  return r.Print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifdef __GLIBC__
  // Pin glibc's mmap threshold at its default. Left dynamic, it rises after
  // the first large free, so whether a later set-up maps fresh pages or
  // reuses heap depends on the process's history, and setup_s jumped between
  // two modes (about 45 and 70 ms on xmalloc-ring) from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: " << argv[0]
              << " --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  const std::optional<Setup> setup = MakeSetup(args.workload);
  if (!setup) {
    std::cerr << "unknown workload '" << args.workload << "'; choose one of:";
    for (const std::string& n : WorkloadNames()) {
      std::cerr << " " << n;
    }
    std::cerr << "\n";
    return 2;
  }
  Report report;
  return args.trace ? RunPerLayer(*setup, args, report) : RunEndToEnd(*setup, args, report);
}
