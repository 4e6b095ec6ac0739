// Reproduces Table 3 / Section 4.2: the NextGen-Malloc prototype vs Mimalloc
// on the xalanc-like workload.
//
// The paper prototypes NextGen-Malloc on a 16-core Arm A72 machine (AWS A1):
// malloc is a synchronous two-flag handshake with a spawned thread pinned to
// its own core; free is asynchronous. It reports +4.51% end-to-end cycles
// over Mimalloc, with reduced dTLB-load, LLC-load and LLC-store misses on
// the application core.
//
// Machine note: on AWS A1 the A72 cores sit in clusters sharing an L2, so
// client<->server mailbox transfers are cheap; we model the same-cluster
// placement with a reduced cache-to-cache transfer latency and the weaker
// Arm memory model's cheaper atomics.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/alloc/layout.h"
#include "src/alloc/mimalloc/mi_allocator.h"

// Table3Machine and SimStateHash live in bench_common.h: the tenant-QoS
// ablation and the determinism-sweep tests replay this bench's pipeline run
// and must hash it with byte-for-byte the same recipe.

int main(int argc, char** argv) {
  using namespace ngx;
  using namespace ngx::bench;

  BenchCli cli("table3_nextgen", argc, argv);
  const bool record = cli.want_json() || cli.want_trace();

  std::cout << "=== Table 3: Mimalloc vs NextGen-Malloc (xalanc-like) ===\n\n";

  const XalancConfig wl = XalancTable3Config();

  // Baseline: Mimalloc inline on the application core. The A1 instance ran
  // without transparent hugepages (neither 2019 mimalloc nor the prototype
  // madvised), so heaps sit on 4 KiB pages.
  Machine m_mi(Table3Machine());
  if (record) {
    cli.EnableTelemetry(m_mi, /*allow_trace=*/false);
  }
  MiConfig mi_cfg;
  mi_cfg.hugepage_backing = false;
  auto mi = std::make_unique<MiAllocator>(m_mi, kMiHeapBase, mi_cfg);
  XalancLike wl_mi(wl);
  RunOptions opt_mi;
  opt_mi.cores = {0};
  opt_mi.seed = 7;
  const RunResult r_mi = RunWorkload(m_mi, *mi, wl_mi, opt_mi);
  std::cerr << "[done] mimalloc\n";

  // NextGen-Malloc: offloaded to core 1, async free, segregated metadata,
  // no internal atomics (the 4.2 prototype configuration). This is the run
  // exported by --trace.
  Machine m_ngx(Table3Machine());
  if (record) {
    cli.EnableTelemetry(m_ngx);
  }
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.hugepage_spans = false;  // same no-THP machine
  NgxSystem sys = MakeNgxSystem(m_ngx, cfg, /*server_core=*/1);
  XalancLike wl_ngx(wl);
  RunOptions opt_ngx;
  opt_ngx.cores = {0};
  opt_ngx.seed = 7;
  opt_ngx.server_cores = {1};
  const RunResult r_ngx = RunWorkload(m_ngx, *sys.allocator, wl_ngx, opt_ngx);
  sys.fabric->DrainAll();
  cli.Capture(m_ngx);
  std::cerr << "[done] nextgen\n";

  // The same prototype with Section 3.3.2's predictive preallocation: the
  // server turns same-class runs into batches stashed client-side.
  Machine m_pred(Table3Machine());
  NgxConfig pred_cfg = cfg;
  pred_cfg.prediction = true;
  NgxSystem pred_sys = MakeNgxSystem(m_pred, pred_cfg, /*server_core=*/1);
  XalancLike wl_pred(wl);
  RunOptions opt_pred = opt_ngx;
  const RunResult r_pred = RunWorkload(m_pred, *pred_sys.allocator, wl_pred, opt_pred);
  pred_sys.fabric->DrainAll();
  std::cerr << "[done] nextgen+prediction\n";

  // Prediction plus the pipelined double-buffered stash (DESIGN.md §9): the
  // per-batch sync round trip becomes a background kRefillStash overlapped
  // with application work; only a client that outruns the server stalls.
  Machine m_pipe(Table3Machine());
  NgxConfig pipe_cfg = pred_cfg;
  pipe_cfg.stash_pipeline = true;
  pipe_cfg.stash_refill_mark = 2;
  // Total inventory = the two 7-entry halves, no spill stack: the ablation
  // sweep shows deeper client-side retention loses on this workload (the
  // phased alloc/free structure frees in bursts the spill can't re-serve
  // before the phase ends, and extra stash lines dilute the L1).
  pipe_cfg.stash_capacity = 14;
  NgxSystem pipe_sys = MakeNgxSystem(m_pipe, pipe_cfg, /*server_core=*/1);
  XalancLike wl_pipe(wl);
  RunOptions opt_pipe = opt_ngx;
  const RunResult r_pipe = RunWorkload(m_pipe, *pipe_sys.allocator, wl_pipe, opt_pipe);
  pipe_sys.fabric->DrainAll();
  const std::uint64_t pipe_sync = pipe_sys.allocator->sync_mallocs();
  const std::uint64_t pipe_refills = pipe_sys.allocator->stash_refills();
  const std::uint64_t pipe_stalls = pipe_sys.allocator->stash_starvation_stalls();
  std::cerr << "[done] nextgen+pipeline\n";

  // The prototype with the segment + slab carve path behind the shard
  // (DESIGN.md §10): same protocol, same client behaviour, cheaper server
  // ops. Runs on its own machine AFTER the paper rows so their numbers stay
  // byte-for-byte what the seed produced.
  Machine m_segm(Table3Machine());
  NgxConfig segm_cfg = cfg;
  segm_cfg.heap_kind = HeapKind::kSegment;
  NgxSystem segm_sys = MakeNgxSystem(m_segm, segm_cfg, /*server_core=*/1);
  XalancLike wl_segm(wl);
  RunOptions opt_segm = opt_ngx;
  const RunResult r_segm = RunWorkload(m_segm, *segm_sys.allocator, wl_segm, opt_segm);
  segm_sys.fabric->DrainAll();
  const std::uint64_t segm_carve = segm_sys.fabric->TotalStats().carve_cycles;
  std::cerr << "[done] nextgen+segment-heap\n";

  // The hugepage rung (DESIGN.md §16): the pipeline configuration plus
  // packed hugepage spans and hugepage-backed fabric metadata -- the paper's
  // Table-1 dTLB argument carried into the fabric's own structures, going
  // after the documented Table-3 ceiling gap (EXPERIMENTS.md: +1.06%
  // measured vs ~+1.35% model cap at this operating point).
  Machine m_huge(Table3Machine());
  NgxConfig huge_cfg = pipe_cfg;
  huge_cfg.hugepage_spans = true;
  huge_cfg.hugepage_metadata = true;
  NgxSystem huge_sys = MakeNgxSystem(m_huge, huge_cfg, /*server_core=*/1);
  XalancLike wl_huge(wl);
  const RunResult r_huge = RunWorkload(m_huge, *huge_sys.allocator, wl_huge, opt_pipe);
  huge_sys.fabric->DrainAll();
  const std::uint64_t huge_waste = huge_sys.allocator->map_waste_bytes();
  std::cerr << "[done] nextgen+hugepage (packed spans + metadata)\n";

  // Flight recorder (DESIGN.md §13): rerun the pipeline configuration with
  // the recorder on. This both feeds the cycle-attribution table below and
  // proves the recorder observational: the run must replay the exact same
  // simulated history as the recorder-off run above (same final-state hash).
  Machine m_rec(Table3Machine());
  TelemetryConfig rec_tc;
  rec_tc.enabled = true;
  rec_tc.recorder = true;
  rec_tc.recorder_snapshot_interval = 50'000'000;
  m_rec.EnableTelemetry(rec_tc);
  NgxSystem rec_sys = MakeNgxSystem(m_rec, pipe_cfg, /*server_core=*/1);
  XalancLike wl_rec(wl);
  const RunResult r_rec = RunWorkload(m_rec, *rec_sys.allocator, wl_rec, opt_pipe);
  rec_sys.fabric->DrainAll();
  const std::uint64_t hash_off = SimStateHash(r_pipe);
  const std::uint64_t hash_on = SimStateHash(r_rec);
  const bool bit_identical = hash_on == hash_off;
  std::cerr << "[done] nextgen+pipeline (flight recorder on)\n";

  TextTable t({"counter (app core)", "Mimalloc", "NextGen-Malloc"});
  auto row = [&](const std::string& label, auto getter) {
    t.AddRow({label, FormatSci(static_cast<double>(getter(r_mi.app))),
              FormatSci(static_cast<double>(getter(r_ngx.app)))});
  };
  row("cycles", [](const PmuCounters& p) { return p.cycles; });
  row("instructions", [](const PmuCounters& p) { return p.instructions; });
  row("LLC-load-misses", [](const PmuCounters& p) { return p.llc_load_misses; });
  row("LLC-store-misses", [](const PmuCounters& p) { return p.llc_store_misses; });
  row("dTLB-load-misses", [](const PmuCounters& p) { return p.dtlb_load_misses; });
  row("dTLB-store-misses", [](const PmuCounters& p) { return p.dtlb_store_misses; });
  std::cout << t.ToString() << "\n";

  std::cout << "allocator-core (dedicated) cycles: " << FormatSci(r_ngx.server.cycles)
            << ", LLC-load-misses: " << FormatSci(r_ngx.server.llc_load_misses) << "\n\n";

  const double mi_cycles = static_cast<double>(r_mi.wall_cycles);
  const double ngx_cycles = static_cast<double>(r_ngx.wall_cycles);
  const double pred_cycles = static_cast<double>(r_pred.wall_cycles);
  const double pipe_cycles = static_cast<double>(r_pipe.wall_cycles);
  const double segm_cycles = static_cast<double>(r_segm.wall_cycles);
  const double huge_cycles = static_cast<double>(r_huge.wall_cycles);
  const std::uint64_t base_carve = sys.fabric->TotalStats().carve_cycles;
  TextTable shape({"shape metric", "paper", "measured"});
  shape.AddRow({"NextGen speedup over Mimalloc", "+4.51%",
                FormatFixed(100.0 * (mi_cycles / ngx_cycles - 1.0), 2) + "%"});
  shape.AddRow({"  + 3.3.2 prediction enabled", "(not in paper)",
                FormatFixed(100.0 * (mi_cycles / pred_cycles - 1.0), 2) + "%"});
  shape.AddRow({"  + pipelined stash refills", "(not in paper)",
                FormatFixed(100.0 * (mi_cycles / pipe_cycles - 1.0), 2) + "%"});
  shape.AddRow({"  + segment-heap carve path", "(not in paper)",
                FormatFixed(100.0 * (mi_cycles / segm_cycles - 1.0), 2) + "%"});
  shape.AddRow({"  + packed hugepages (spans+meta)", "(not in paper)",
                FormatFixed(100.0 * (mi_cycles / huge_cycles - 1.0), 2) + "%"});
  shape.AddRow({"dTLB-load misses reduced", "yes",
                r_ngx.app.dtlb_load_misses < r_mi.app.dtlb_load_misses ? "yes" : "NO"});
  shape.AddRow({"LLC-load misses reduced", "yes",
                r_ngx.app.llc_load_misses < r_mi.app.llc_load_misses ? "yes" : "NO"});
  shape.AddRow({"LLC-store misses reduced", "yes",
                r_ngx.app.llc_store_misses < r_mi.app.llc_store_misses ? "yes" : "NO"});
  std::cout << shape.ToString();

  std::cout << "\nserver carve cycles (kMalloc/kFree handler time on the shard core):\n"
            << "  segregated heap: " << FormatSci(static_cast<double>(base_carve))
            << "\n  segment heap:    " << FormatSci(static_cast<double>(segm_carve))
            << " (" << FormatFixed(100.0 * (1.0 - static_cast<double>(segm_carve) /
                                                      static_cast<double>(base_carve)),
                                   2)
            << "% lower)\n";

  // Where the pipeline run's cycles go, per DESIGN.md §13: client-path is
  // allocator code on the application core net of waits; the two wait rows
  // are the client clock jumping to a server; carve vs drain splits the
  // shard core's busy time; flush is the end-of-run teardown, waits
  // included. Rows sum to total exactly by construction.
  const CycleAttribution& at = r_rec.attribution;
  const double at_total = static_cast<double>(at.total());
  auto pct = [at_total](std::uint64_t v) {
    return at_total == 0.0 ? std::string("-")
                           : FormatFixed(100.0 * static_cast<double>(v) / at_total, 2) + "%";
  };
  std::cout << "\ncycle attribution (pipeline config, flight recorder on):\n";
  TextTable att({"bucket", "cycles", "share"});
  att.AddRow({"client path", FormatSci(static_cast<double>(at.client_path())),
              pct(at.client_path())});
  att.AddRow({"sync stall", FormatSci(static_cast<double>(at.sync_stall)), pct(at.sync_stall)});
  att.AddRow({"ring wait", FormatSci(static_cast<double>(at.ring_wait)), pct(at.ring_wait)});
  att.AddRow({"server carve", FormatSci(static_cast<double>(at.server_carve)),
              pct(at.server_carve)});
  att.AddRow({"server drain", FormatSci(static_cast<double>(at.server_drain())),
              pct(at.server_drain())});
  att.AddRow({"flush", FormatSci(static_cast<double>(at.flush)), pct(at.flush)});
  att.AddRow({"total attributed", FormatSci(at_total), pct(at.total())});
  std::cout << att.ToString();
  std::cout << "recorder bit-identity: " << (bit_identical ? "ok" : "FAILED")
            << " (final-state hash " << std::hex << hash_on << std::dec << ")\n";

  cli.Metric("mimalloc_wall_cycles", r_mi.wall_cycles);
  cli.Metric("nextgen_wall_cycles", r_ngx.wall_cycles);
  cli.Metric("nextgen_prediction_wall_cycles", r_pred.wall_cycles);
  cli.Metric("nextgen_pipeline_wall_cycles", r_pipe.wall_cycles);
  cli.Metric("nextgen_speedup_pct", 100.0 * (mi_cycles / ngx_cycles - 1.0));
  cli.Metric("nextgen_prediction_speedup_pct", 100.0 * (mi_cycles / pred_cycles - 1.0));
  cli.Metric("nextgen_pipeline_speedup_pct", 100.0 * (mi_cycles / pipe_cycles - 1.0));
  cli.Metric("pipeline_sync_mallocs", pipe_sync);
  cli.Metric("pipeline_stash_refills", pipe_refills);
  cli.Metric("pipeline_starvation_stalls", pipe_stalls);
  cli.Metric("server_cycles", r_ngx.server.cycles);
  cli.Metric("nextgen_segment_wall_cycles", r_segm.wall_cycles);
  cli.Metric("nextgen_segment_speedup_pct", 100.0 * (mi_cycles / segm_cycles - 1.0));
  cli.Metric("segment_server_cycles", r_segm.server.cycles);
  cli.Metric("segregated_carve_cycles", base_carve);
  cli.Metric("segment_carve_cycles", segm_carve);
  cli.Metric("nextgen_hugepage_wall_cycles", r_huge.wall_cycles);
  cli.Metric("nextgen_hugepage_speedup_pct", 100.0 * (mi_cycles / huge_cycles - 1.0));
  cli.Metric("hugepage_map_waste_bytes", huge_waste);
  cli.Metric("pipeline_dtlb_misses",
             r_pipe.app.dtlb_load_misses + r_pipe.app.dtlb_store_misses +
                 r_pipe.server.dtlb_load_misses + r_pipe.server.dtlb_store_misses);
  cli.Metric("hugepage_dtlb_misses",
             r_huge.app.dtlb_load_misses + r_huge.app.dtlb_store_misses +
                 r_huge.server.dtlb_load_misses + r_huge.server.dtlb_store_misses);
  JsonValue counters = JsonValue::Object();
  counters.Set("mimalloc", PmuJson(r_mi.app));
  counters.Set("nextgen", PmuJson(r_ngx.app));
  counters.Set("nextgen_server", PmuJson(r_ngx.server));
  counters.Set("nextgen_hugepage", PmuJson(r_huge.app));
  counters.Set("nextgen_hugepage_server", PmuJson(r_huge.server));
  cli.Set("app_core_counters", counters);
  // Per-region dTLB rows (machine-wide: app + server core) for the pipeline
  // rung vs the hugepage rung, rendered by report.py's dtlb table.
  JsonValue dtlb_cases = JsonValue::Array();
  {
    JsonValue c = JsonValue::Object();
    c.Set("label", JsonValue("pipeline"));
    c.Set("dtlb_regions", DtlbRegionsJson(r_pipe.app + r_pipe.server));
    dtlb_cases.Push(std::move(c));
  }
  {
    JsonValue c = JsonValue::Object();
    c.Set("label", JsonValue("pipeline+hugepage"));
    c.Set("dtlb_regions", DtlbRegionsJson(r_huge.app + r_huge.server));
    dtlb_cases.Push(std::move(c));
  }
  cli.Set("cases", std::move(dtlb_cases));
  if (!r_ngx.shard_sync_latency.empty()) {
    cli.Metric("sync_latency", SummaryJson(r_ngx.shard_sync_latency[0]));
  }

  // Flight-recorder sections: the attribution buckets (they must sum to the
  // attributed total -- CI asserts this within 0.1%), the bit-identity
  // verdict, and the recorder run's traffic matrix and end-of-run snapshot.
  cli.Set("cycle_attribution", at.ToJson());
  cli.Metric("attribution_total_cycles", at.total());
  cli.Metric("recorder_bit_identical", JsonValue(bit_identical));
  char hash_hex[32];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(hash_on));
  cli.Metric("final_state_hash", JsonValue(hash_hex));
  cli.Set("traffic_matrix", r_rec.traffic_matrix.ToJson());
  if (!r_rec.final_snapshot.shards.empty()) {
    cli.Set("final_heap_snapshot", r_rec.final_snapshot.ToJson());
  }

  if (!bit_identical) {
    std::cerr << "error: recorder-on run diverged from recorder-off run ("
              << std::hex << hash_on << " != " << hash_off << std::dec << ")\n";
    cli.Finish();
    return 1;
  }
  return cli.Finish();
}
