// The benchmark's workloads and every configuration knob they use.
//
// MakeSetup is the single place that builds the NextGen stack, the
// like-for-like Mimalloc baseline and the machine for each workload, so a
// later change to the allocator's options edits one function.
#ifndef PERFBENCH_SRC_SETUPS_H_
#define PERFBENCH_SRC_SETUPS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/alloc/mimalloc/mi_allocator.h"
#include "src/core/nextgen_config.h"
#include "src/sim/machine.h"
#include "src/workload/workload.h"

namespace perfbench {

struct Setup {
  std::string name;
  ngx::MachineConfig machine;
  std::vector<int> app_cores;     // one closed-loop client per core
  std::vector<int> server_cores;  // one NextGen shard per core
  ngx::NgxConfig nextgen;
  ngx::MiConfig baseline;  // Mimalloc inline on app_cores, no server cores
  std::function<std::unique_ptr<ngx::Workload>()> make_workload;
  // The mechanism this workload exists to exercise; the run fails when the
  // named counters show it did not run.
  std::string guard;
  // Real-hardware result speedup_pct is printed beside, when one exists.
  std::string reference;
  double reference_speedup_pct = 0;
};

const std::vector<std::string>& WorkloadNames();

// nullopt for an unknown workload name.
std::optional<Setup> MakeSetup(std::string_view workload);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SETUPS_H_
