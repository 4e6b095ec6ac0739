// offload_explorer: interactive-ish exploration of the paper's research
// questions from the command line. Pick a workload, an allocator-room core
// type, and the NextGen knobs; get the full PMU picture for both sides.
//
//   ./build/examples/offload_explorer [--core=big|inorder|nearmem]
//                                     [--sync-free] [--keep-atomics]
//                                     [--aggregated] [--predict]
//                                     [--workload=xalanc|churn|xmalloc]
#include <cstring>
#include <iostream>
#include <string>

#include "src/core/nextgen_malloc.h"
#include "src/workload/churn.h"
#include "src/workload/report.h"
#include "src/workload/runner.h"
#include "src/workload/xalanc.h"
#include "src/workload/xmalloc.h"

using namespace ngx;

int main(int argc, char** argv) {
  std::string core_type = "big";
  std::string workload_name = "xalanc";
  NgxConfig cfg = NgxConfig::PaperPrototype();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--core=", 0) == 0) {
      core_type = arg.substr(7);
    } else if (arg == "--sync-free") {
      cfg.async_free = false;
    } else if (arg == "--keep-atomics") {
      cfg.remove_atomics = false;
    } else if (arg == "--aggregated") {
      cfg.heap_kind = HeapKind::kAggregated;
    } else if (arg == "--predict") {
      cfg.prediction = true;
    } else if (arg.rfind("--workload=", 0) == 0) {
      workload_name = arg.substr(11);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }

  const int kAppThreads = workload_name == "xalanc" ? 1 : 3;
  MachineConfig mc = MachineConfig::ScaledWorkstation(kAppThreads + 1);
  const int server = kAppThreads;
  if (core_type == "inorder") {
    mc.cores[server] = CoreConfig::InOrder();
  } else if (core_type == "nearmem") {
    mc.cores[server] = CoreConfig::NearMemory();
  }
  Machine machine(mc);
  NgxSystem sys = MakeNgxSystem(machine, cfg, server);

  std::unique_ptr<Workload> workload;
  if (workload_name == "xalanc") {
    XalancConfig c;
    c.documents = 6;
    c.nodes_per_doc = 6000;
    workload = std::make_unique<XalancLike>(c);
  } else if (workload_name == "churn") {
    workload = std::make_unique<Churn>();
  } else if (workload_name == "xmalloc") {
    workload = std::make_unique<XmallocLike>();
  } else {
    std::cerr << "unknown workload: " << workload_name << "\n";
    return 1;
  }

  std::cout << "workload=" << workload->name() << " server-core=" << core_type
            << " async_free=" << cfg.async_free << " segregated=" << (cfg.heap_kind != HeapKind::kAggregated)
            << " atomics_removed=" << cfg.remove_atomics << " prediction=" << cfg.prediction
            << "\n\n";

  RunOptions opt;
  opt.cores = FirstCores(kAppThreads);
  opt.server_cores = {server};
  const RunResult r = RunWorkload(machine, *sys.allocator, *workload, opt);
  sys.fabric->DrainAll();

  std::cout << "application cores (" << kAppThreads << "):\n" << r.app.ToString() << "\n";
  std::cout << "allocator core:\n" << r.server.ToString() << "\n";
  std::cout << "wall cycles: " << FormatSci(static_cast<double>(r.wall_cycles))
            << "   time in alloc stubs: " << FormatFixed(100.0 * r.MallocTimeShare(), 2)
            << "%\n";
  const OffloadEngineStats es = sys.fabric->TotalStats();
  std::cout << "engine: " << es.sync_requests << " round trips, " << es.async_ops
            << " async frees, " << es.ring_full_stalls << " ring-full stalls, "
            << es.server_busy_waits << " queueing waits\n";
  if (cfg.prediction) {
    std::cout << "stash hits: " << sys.allocator->stash_hits() << " vs "
              << sys.allocator->sync_mallocs() << " round trips\n";
  }
  return 0;
}
