// Ablation: packed hugepage spans + hugepage-backed fabric metadata
// (DESIGN.md §16) on the Table-3 pipeline operating point.
//
// Two dTLB costs the paper's own Table 1 motivates removing: heap spans on
// 4-KiB pages, and every fabric metadata structure (stash lines, channel
// rings, free-batch buffers, heap side tables) on 4-KiB pages. This bench
// runs three rows -- no hugepages, packed hugepage spans, and packed spans
// plus hugepage metadata -- and reports, per row: wall cycles, the Table-3
// delta against BOTH Mimalloc anchors (4-KiB pages, as the paper's A1 ran,
// and THP-backed, the like-for-like comparison for a hugepage-backed
// NextGen), machine-wide dTLB misses, the per-region dTLB breakdown, and
// the providers' map-waste honesty metric.
//
// The no-hugepage row doubles as the bit-identity anchor: it must replay
// the pinned table3 pipeline hash (kTable3PipelineHash's value,
// c341e49c161c6028) -- scripts/claims.py asserts both that and the
// dTLB/speedup/waste claims from the JSON.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/alloc/layout.h"
#include "src/alloc/mimalloc/mi_allocator.h"

namespace {

using namespace ngx;
using namespace ngx::bench;

struct Cell {
  std::string label;
  bool hugepage_spans = true;
  bool metadata = false;
  RunResult result;
  std::uint64_t state_hash = 0;
};

RunResult RunCell(const NgxConfig& cfg) {
  Machine machine(Table3Machine());
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*server_core=*/1);
  XalancLike workload(XalancTable3Config());
  RunOptions opt;
  opt.cores = {0};
  opt.seed = 7;
  opt.server_cores = {1};
  RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  return r;
}

std::uint64_t DtlbMisses(const RunResult& r) {
  return r.app.dtlb_load_misses + r.app.dtlb_store_misses + r.server.dtlb_load_misses +
         r.server.dtlb_store_misses;
}

// Mimalloc anchor for the Table-3 delta, with or without THP backing.
std::uint64_t MimallocWall(bool hugepage_backing) {
  Machine machine(Table3Machine());
  MiConfig cfg;
  cfg.hugepage_backing = hugepage_backing;
  auto mi = std::make_unique<MiAllocator>(machine, kMiHeapBase, cfg);
  XalancLike workload(XalancTable3Config());
  RunOptions opt;
  opt.cores = {0};
  opt.seed = 7;
  return RunWorkload(machine, *mi, workload, opt).wall_cycles;
}

double SpeedupPct(std::uint64_t anchor_wall, const RunResult& r) {
  return 100.0 * (static_cast<double>(anchor_wall) / static_cast<double>(r.wall_cycles) - 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_hugepage", argc, argv);

  std::cout << "=== Ablation: packed hugepage spans + hugepage metadata ===\n\n";

  // Table-3 pipeline operating point (must match bench_table3_nextgen's
  // pipeline rung byte-for-byte so the baseline-row hash pin means something).
  NgxConfig base = NgxConfig::PaperPrototype();
  base.hugepage_spans = false;
  base.prediction = true;
  base.stash_pipeline = true;
  base.stash_refill_mark = 2;
  base.stash_capacity = 14;

  const std::uint64_t mi_wall = MimallocWall(/*hugepage_backing=*/false);
  std::cerr << "[done] mimalloc anchor\n";
  const std::uint64_t mi_thp_wall = MimallocWall(/*hugepage_backing=*/true);
  std::cerr << "[done] mimalloc THP anchor\n";

  std::vector<Cell> cells;
  // Bit-identity anchor: the exact pipeline rung (hugepage_spans off).
  cells.push_back({"baseline (no hugepages)", false, false, {}, 0});
  cells.push_back({"packed spans", true, false, {}, 0});
  cells.push_back({"packed spans+metadata", true, true, {}, 0});

  for (Cell& c : cells) {
    NgxConfig cfg = base;
    cfg.hugepage_spans = c.hugepage_spans;
    cfg.hugepage_metadata = c.metadata;
    c.result = RunCell(cfg);
    c.state_hash = SimStateHash(c.result);
    std::cerr << "[done] " << c.label << "\n";
  }

  const Cell& off = cells[0];
  const Cell& best = cells.back();

  std::cout << "Mimalloc anchors: " << FormatSci(static_cast<double>(mi_wall))
            << " cycles on 4-KiB pages, " << FormatSci(static_cast<double>(mi_thp_wall))
            << " cycles THP-backed\n\n";
  TextTable t({"configuration", "wall cycles", "vs mimalloc", "vs mimalloc (THP)",
               "dTLB misses", "map waste (MiB)", "mmaps"});
  for (const Cell& c : cells) {
    t.AddRow({c.label, FormatSci(static_cast<double>(c.result.wall_cycles)),
              FormatFixed(SpeedupPct(mi_wall, c.result), 2) + "%",
              FormatFixed(SpeedupPct(mi_thp_wall, c.result), 2) + "%",
              FormatSci(static_cast<double>(DtlbMisses(c.result))),
              FormatFixed(static_cast<double>(c.result.map_waste_bytes) / (1 << 20), 1),
              FormatSci(static_cast<double>(c.result.alloc_stats.mmap_calls))});
  }
  std::cout << t.ToString() << "\n";

  std::cout << "per-region dTLB walks (walks/lookups, app + server core):\n";
  TextTable rt({"configuration", "heap", "metadata", "freebuf", "channel"});
  for (const Cell& c : cells) {
    const PmuCounters p = c.result.app + c.result.server;
    auto cell = [&p](TlbRegion r) {
      const auto i = static_cast<std::size_t>(r);
      const std::uint64_t walks = p.dtlb_region_walks[i];
      const std::uint64_t lookups = p.dtlb_region_lookups[i];
      return FormatSci(static_cast<double>(walks)) + "/" +
             FormatSci(static_cast<double>(lookups));
    };
    rt.AddRow({c.label, cell(TlbRegion::kHeap), cell(TlbRegion::kMetadata),
               cell(TlbRegion::kFreeBuf), cell(TlbRegion::kChannel)});
  }
  std::cout << rt.ToString() << "\n";

  char hash_hex[32];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(off.state_hash));
  std::cout << "baseline final-state hash: " << hash_hex
            << " (determinism sweep pins this against the table3 pipeline rung)\n";

  const double off_speedup = SpeedupPct(mi_wall, off.result);
  const double best_speedup = SpeedupPct(mi_wall, best.result);
  const double off_speedup_thp = SpeedupPct(mi_thp_wall, off.result);
  const double best_speedup_thp = SpeedupPct(mi_thp_wall, best.result);
  std::cout << "Table-3 delta with packed hugepage spans + metadata: "
            << FormatFixed(off_speedup, 2) << "% -> " << FormatFixed(best_speedup, 2)
            << "% vs 4-KiB Mimalloc, " << FormatFixed(off_speedup_thp, 2) << "% -> "
            << FormatFixed(best_speedup_thp, 2) << "% vs THP Mimalloc (like for like)\n";

  cli.Metric("mimalloc_wall_cycles", mi_wall);
  cli.Metric("mimalloc_thp_wall_cycles", mi_thp_wall);
  cli.Metric("baseline_state_hash", JsonValue(hash_hex));
  cli.Metric("baseline_speedup_pct", off_speedup);
  cli.Metric("hugepage_speedup_pct", best_speedup);
  cli.Metric("hugepage_speedup_vs_thp_pct", best_speedup_thp);
  cli.Metric("baseline_dtlb_misses", DtlbMisses(off.result));
  cli.Metric("hugepage_dtlb_misses", DtlbMisses(best.result));
  cli.Metric("packed_map_waste_bytes", cells[1].result.map_waste_bytes);

  JsonValue case_rows = JsonValue::Array();
  for (const Cell& c : cells) {
    JsonValue row = JsonValue::Object();
    row.Set("label", JsonValue(c.label));
    row.Set("hugepage_spans", JsonValue(c.hugepage_spans));
    row.Set("hugepage_metadata", JsonValue(c.metadata));
    row.Set("wall_cycles", JsonValue(c.result.wall_cycles));
    row.Set("speedup_vs_mimalloc_pct", JsonValue(SpeedupPct(mi_wall, c.result)));
    row.Set("speedup_vs_mimalloc_thp_pct", JsonValue(SpeedupPct(mi_thp_wall, c.result)));
    row.Set("dtlb_misses", JsonValue(DtlbMisses(c.result)));
    row.Set("dtlb_regions", DtlbRegionsJson(c.result.app + c.result.server));
    row.Set("map_mapped_bytes", JsonValue(c.result.map_mapped_bytes));
    row.Set("map_requested_bytes", JsonValue(c.result.map_requested_bytes));
    row.Set("map_waste_bytes", JsonValue(c.result.map_waste_bytes));
    row.Set("hugepage_backed_bytes", JsonValue(c.result.hugepage_backed_bytes));
    row.Set("mmap_calls", JsonValue(c.result.alloc_stats.mmap_calls));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(c.state_hash));
    row.Set("state_hash", JsonValue(hex));
    case_rows.Push(std::move(row));
  }
  cli.Set("cases", std::move(case_rows));

  return cli.Finish();
}
