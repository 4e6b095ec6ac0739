// Shared setup for the paper-reproduction bench binaries: the canonical
// workload configs, single-run helpers, and the BenchCli flag parser that
// gives every bench a uniform `--json <path>` / `--trace <path>` interface.
#ifndef NGX_BENCH_BENCH_COMMON_H_
#define NGX_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/alloc/registry.h"
#include "src/core/nextgen_malloc.h"
#include "src/telemetry/json.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/report.h"
#include "src/workload/runner.h"
#include "src/workload/xalanc.h"

namespace ngx {
namespace bench {

// JSON digest of a latency summary ({"count":..,"p50":..,...}; cycles).
inline JsonValue SummaryJson(const HistogramSummary& s) {
  JsonValue o = JsonValue::Object();
  o.Set("count", JsonValue(s.count));
  o.Set("p50", JsonValue(s.p50));
  o.Set("p95", JsonValue(s.p95));
  o.Set("p99", JsonValue(s.p99));
  o.Set("max", JsonValue(s.max));
  return o;
}

// Per-region dTLB breakdown ({"heap":{"lookups":..,"walks":..},...}): which
// fabric window each TLB lookup was translating and how many walked.
inline JsonValue DtlbRegionsJson(const PmuCounters& p) {
  JsonValue o = JsonValue::Object();
  for (int r = 0; r < kNumTlbRegions; ++r) {
    JsonValue region = JsonValue::Object();
    region.Set("lookups", JsonValue(p.dtlb_region_lookups[static_cast<std::size_t>(r)]));
    region.Set("walks", JsonValue(p.dtlb_region_walks[static_cast<std::size_t>(r)]));
    o.Set(TlbRegionName(static_cast<TlbRegion>(r)), std::move(region));
  }
  return o;
}

// JSON digest of the PMU events the paper's tables report.
inline JsonValue PmuJson(const PmuCounters& p) {
  JsonValue o = JsonValue::Object();
  o.Set("cycles", JsonValue(p.cycles));
  o.Set("instructions", JsonValue(p.instructions));
  o.Set("llc_load_misses", JsonValue(p.llc_load_misses));
  o.Set("llc_store_misses", JsonValue(p.llc_store_misses));
  o.Set("dtlb_load_misses", JsonValue(p.dtlb_load_misses));
  o.Set("dtlb_store_misses", JsonValue(p.dtlb_store_misses));
  o.Set("atomic_rmws", JsonValue(p.atomic_rmws));
  o.Set("alloc_cycles", JsonValue(p.alloc_cycles));
  o.Set("sw_prefetches", JsonValue(p.sw_prefetches));
  o.Set("dtlb_regions", DtlbRegionsJson(p));
  return o;
}

// Uniform command line for the bench binaries:
//   --json <path>   write machine-readable results (headline metrics, any
//                   per-row sections the bench adds, and a telemetry digest)
//   --trace <path>  write a Chrome trace_event JSON of the headline run
//                   (open in chrome://tracing or Perfetto)
// Both optional; with neither flag a bench prints its tables exactly as
// before. Telemetry stays strictly observational, so enabling it for the
// JSON/trace output leaves every printed number bit-identical.
class BenchCli {
 public:
  BenchCli(std::string bench, int argc, char** argv) : bench_(std::move(bench)) {
    root_.Set("bench", bench_);
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (arg == "--trace" && i + 1 < argc) {
        trace_path_ = argv[++i];
      } else {
        std::cerr << "usage: " << argv[0] << " [--json <path>] [--trace <path>]\n";
        std::exit(2);
      }
    }
  }

  bool want_json() const { return !json_path_.empty(); }
  bool want_trace() const { return !trace_path_.empty(); }

  // Switches `machine` into recording mode. Metrics and the flight recorder
  // always record (purely observational, host-side); event tracing turns on
  // only when --trace was given, `allow_trace` is set, and no earlier run
  // was captured -- so the first Capture()d tracing machine becomes the
  // exported trace. Benches with several runs pass allow_trace=false on the
  // uninteresting ones.
  void EnableTelemetry(Machine& machine, bool allow_trace = true,
                       std::uint64_t pmu_snapshot_interval = 1000000,
                       std::uint64_t recorder_snapshot_interval = 50000000) {
    TelemetryConfig tc;
    tc.enabled = true;
    tc.trace = allow_trace && want_trace() && !captured_trace_;
    tc.pmu_snapshot_interval = tc.trace ? pmu_snapshot_interval : 0;
    tc.recorder = true;
    tc.recorder_snapshot_interval = recorder_snapshot_interval;
    machine.EnableTelemetry(tc);
  }

  // Snapshots `machine`'s telemetry into the bench output: the metric
  // registry digest (last capture wins) and, on the first tracing machine,
  // the Chrome trace. Call before the machine goes out of scope.
  void Capture(Machine& machine) {
    const Telemetry& t = machine.telemetry();
    if (!t.enabled()) {
      return;
    }
    if (!t.metrics().empty()) {
      telemetry_json_ = t.metrics().ToJson();
    }
    if (t.recording()) {
      recorder_json_ = t.recorder().ToJson();
    }
    if (t.tracing() && !captured_trace_) {
      trace_json_ = t.tracer().ToChromeTraceJson();
      trace_dropped_events_ = t.tracer().dropped();
      captured_trace_ = true;
    }
  }

  // One named headline value under "metrics".
  void Metric(std::string_view key, JsonValue v) { metrics_.Set(key, std::move(v)); }
  void Metric(std::string_view key, double v) { Metric(key, JsonValue(v)); }
  void Metric(std::string_view key, std::uint64_t v) { Metric(key, JsonValue(v)); }
  void Metric(std::string_view key, int v) { Metric(key, JsonValue(v)); }
  // Root-level sections (e.g. an array of per-row objects).
  void Set(std::string_view key, JsonValue v) { root_.Set(key, std::move(v)); }

  // Writes the requested files; returns the process exit code so mains can
  // end with `return cli.Finish();`.
  int Finish() {
    if (want_json()) {
      if (metrics_.kind() == JsonValue::Kind::kObject) {
        root_.Set("metrics", metrics_);
      }
      if (telemetry_json_.kind() == JsonValue::Kind::kObject) {
        root_.Set("telemetry", telemetry_json_);
      }
      if (recorder_json_.kind() == JsonValue::Kind::kObject) {
        root_.Set("flight_recorder", recorder_json_);
      }
      if (captured_trace_) {
        root_.Set("trace_dropped_events", JsonValue(trace_dropped_events_));
      }
      std::ofstream out(json_path_);
      out << root_.Dump(2) << "\n";
      if (!out) {
        std::cerr << "error: cannot write " << json_path_ << "\n";
        return 1;
      }
      std::cerr << "[json] " << json_path_ << "\n";
    }
    if (want_trace()) {
      std::ofstream out(trace_path_);
      if (captured_trace_) {
        out << trace_json_ << "\n";
      } else {
        Tracer empty;
        empty.WriteChromeTrace(out);
        out << "\n";
      }
      if (!out) {
        std::cerr << "error: cannot write " << trace_path_ << "\n";
        return 1;
      }
      std::cerr << "[trace] " << trace_path_ << "\n";
    }
    return 0;
  }

 private:
  std::string bench_;
  std::string json_path_;
  std::string trace_path_;
  JsonValue root_ = JsonValue::Object();
  JsonValue metrics_ = JsonValue::Object();
  JsonValue telemetry_json_;
  JsonValue recorder_json_;
  std::string trace_json_;
  std::uint64_t trace_dropped_events_ = 0;
  bool captured_trace_ = false;
};

// The xalancbmk-scale stand-in used by Figure 1 / Table 1 / Table 3.
inline XalancConfig XalancBenchConfig() {
  XalancConfig cfg;
  cfg.documents = 10;
  cfg.nodes_per_doc = 9000;
  cfg.transform_passes = 3;
  cfg.compute_per_node = 1600;
  cfg.retain_percent = 15;
  cfg.retain_window = 4;
  return cfg;
}

// Table 3's operating point: the paper's xalancbmk spends ~5000 cycles of
// application work per malloc/free pair (0.7e12 cycles / 1.4e8 pairs on its
// A1 run); the denser default config above is used for Table 1 / Figure 1
// where allocation pressure itself is under study.
inline XalancConfig XalancTable3Config() {
  XalancConfig cfg = XalancBenchConfig();
  cfg.compute_per_node = 9000;
  cfg.chase_per_visit = 3;
  return cfg;
}

// The Table 3 machine (shared by bench_table3_nextgen and the determinism
// pins built on its runs): a 2-core A1-like box where client<->server
// mailbox transfers ride a shared cluster L2 and atomics price the weaker
// Arm memory model.
inline MachineConfig Table3Machine() {
  MachineConfig m = MachineConfig::ScaledWorkstation(2);
  m.atomic_rmw_latency = 40;      // weak memory model (4.2)
  m.atomic_remote_extra = 60;
  m.remote_transfer_latency = 28;  // same-cluster transfer ~= A72 L2 hit
  m.invalidate_latency = 15;
  m.count_hitm_as_llc_miss = false;  // transfers ride the cluster L2
  return m;
}

// FNV-1a over the sim-visible outcome of a run: final clocks, every core's
// PMU counters and the allocator's own books. Two runs that agree here went
// through the same simulated history as far as any reported number can
// tell -- the bit-identity oracle behind "the flight recorder is purely
// observational" and every pinned final-state hash.
inline std::uint64_t SimStateHash(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(r.wall_cycles);
  for (const PmuCounters& p : r.per_core) {
    mix(p.cycles);
    mix(p.instructions);
    mix(p.llc_load_misses);
    mix(p.llc_store_misses);
    mix(p.dtlb_load_misses);
    mix(p.dtlb_store_misses);
    mix(p.atomic_rmws);
    mix(p.alloc_cycles);
  }
  mix(r.alloc_stats.mallocs);
  mix(r.alloc_stats.frees);
  mix(r.alloc_stats.bytes_requested);
  mix(r.alloc_stats.bytes_live);
  mix(r.alloc_stats.mapped_bytes);
  mix(r.alloc_stats.mmap_calls);
  mix(r.alloc_stats.munmap_calls);
  mix(r.alloc_stats.oom_failures);
  return h;
}

struct XalancRun {
  RunResult result;
  std::string allocator;
};

// Runs the xalanc-like workload single-threaded on a fresh scaled machine
// with the named baseline allocator. With `cli`, the run records telemetry
// and the first traced run is captured for --trace export.
inline XalancRun RunXalancBaseline(const std::string& allocator_name,
                                   const XalancConfig& wl_cfg, std::uint64_t seed = 7,
                                   BenchCli* cli = nullptr) {
  Machine machine(MachineConfig::ScaledWorkstation(2));
  if (cli != nullptr) {
    cli->EnableTelemetry(machine);
  }
  auto alloc = CreateAllocator(allocator_name, machine);
  XalancLike workload(wl_cfg);
  RunOptions opt;
  opt.cores = {0};
  opt.seed = seed;
  XalancRun out;
  out.result = RunWorkload(machine, *alloc, workload, opt);
  out.allocator = allocator_name;
  if (cli != nullptr) {
    cli->Capture(machine);
  }
  return out;
}

// Runs the same workload with NextGen-Malloc (offloaded; server core 1).
inline XalancRun RunXalancNextGen(const NgxConfig& cfg, const XalancConfig& wl_cfg,
                                  std::uint64_t seed = 7, BenchCli* cli = nullptr) {
  Machine machine(MachineConfig::ScaledWorkstation(2));
  if (cli != nullptr) {
    cli->EnableTelemetry(machine);
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*server_core=*/1);
  XalancLike workload(wl_cfg);
  RunOptions opt;
  opt.cores = {0};
  opt.seed = seed;
  if (cfg.offload) {
    opt.server_cores = {1};
  }
  XalancRun out;
  out.result = RunWorkload(machine, *sys.allocator, workload, opt);
  if (sys.fabric) {
    sys.fabric->DrainAll();
  }
  out.allocator = "nextgen";
  if (cli != nullptr) {
    cli->Capture(machine);
  }
  return out;
}

}  // namespace bench
}  // namespace ngx

#endif  // NGX_BENCH_BENCH_COMMON_H_
