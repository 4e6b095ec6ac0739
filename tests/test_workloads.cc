// Workload integration tests: every workload x allocator smoke matrix,
// determinism, trace round trips, and report formatting.
#include <sstream>

#include <gtest/gtest.h>

#include "src/alloc/registry.h"
#include "src/core/nextgen_malloc.h"
#include "src/workload/churn.h"
#include "src/workload/false_sharing.h"
#include "src/workload/report.h"
#include "src/workload/runner.h"
#include "src/workload/trace.h"
#include "src/workload/xalanc.h"
#include "src/workload/xmalloc.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "xalanc") {
    XalancConfig c;
    c.documents = 2;
    c.nodes_per_doc = 400;
    return std::make_unique<XalancLike>(c);
  }
  if (name == "xmalloc") {
    XmallocConfig c;
    c.ops_per_thread = 800;
    return std::make_unique<XmallocLike>(c);
  }
  if (name == "churn") {
    ChurnConfig c;
    c.live_blocks = 200;
    c.ops = 1000;
    return std::make_unique<Churn>(c);
  }
  if (name == "larson") {
    LarsonConfig c;
    c.slots_per_thread = 64;
    c.ops = 800;
    return std::make_unique<LarsonLike>(c);
  }
  if (name == "cache-thrash") {
    FalseSharingConfig c;
    c.iterations = 500;
    return std::make_unique<CacheThrash>(c);
  }
  FalseSharingConfig c;
  c.iterations = 500;
  return std::make_unique<CacheScratch>(c);
}

struct MatrixCase {
  std::string workload;
  std::string allocator;
};

class WorkloadMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(WorkloadMatrixTest, RunsCleanAndBalancesAllocs) {
  const MatrixCase& c = GetParam();
  Machine machine(MachineConfig::Default(4));
  std::unique_ptr<Allocator> owned;
  NgxSystem sys;
  Allocator* alloc = nullptr;
  RunOptions opt;
  opt.cores = {0, 1, 2};
  if (c.allocator == "nextgen") {
    sys = MakeNgxSystem(machine, NgxConfig::PaperPrototype(), 3);
    alloc = sys.allocator.get();
    opt.server_cores = {3};
  } else {
    owned = CreateAllocator(c.allocator, machine);
    alloc = owned.get();
  }
  auto workload = MakeWorkload(c.workload);
  const RunResult r = RunWorkload(machine, *alloc, *workload, opt);
  if (sys.fabric) {
    sys.fabric->DrainAll();
  }
  const AllocatorStats s = alloc->stats();
  EXPECT_GT(s.mallocs, 0u);
  EXPECT_EQ(s.mallocs, s.frees) << "workloads free everything they allocate";
  EXPECT_EQ(s.oom_failures, 0u);
  EXPECT_GT(r.wall_cycles, 0u);
  EXPECT_GT(r.app.instructions, 0u);
}

std::vector<MatrixCase> AllCases() {
  std::vector<MatrixCase> cases;
  for (const char* w :
       {"xalanc", "xmalloc", "churn", "larson", "cache-thrash", "cache-scratch"}) {
    for (const char* a :
         {"ptmalloc2", "jemalloc", "tcmalloc", "mimalloc", "nextgen"}) {
      cases.push_back(MatrixCase{w, a});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, WorkloadMatrixTest, ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<MatrixCase>& p) {
                           std::string n = p.param.workload + "_" + p.param.allocator;
                           for (char& ch : n) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return n;
                         });

TEST(Determinism, SameSeedSameCounters) {
  auto run = [] {
    Machine machine(MachineConfig::Default(2));
    auto alloc = CreateAllocator("tcmalloc", machine);
    XmallocConfig c;
    c.ops_per_thread = 500;
    XmallocLike workload(c);
    RunOptions opt;
    opt.cores = {0, 1};
    opt.seed = 99;
    return RunWorkload(machine, *alloc, workload, opt);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.app.cycles, b.app.cycles);
  EXPECT_EQ(a.app.instructions, b.app.instructions);
  EXPECT_EQ(a.app.llc_load_misses, b.app.llc_load_misses);
  EXPECT_EQ(a.wall_cycles, b.wall_cycles);
}

TEST(Determinism, DifferentSeedDifferentStream) {
  auto run = [](std::uint64_t seed) {
    Machine machine(MachineConfig::Default(1));
    auto alloc = CreateAllocator("mimalloc", machine);
    ChurnConfig c;
    c.ops = 500;
    Churn workload(c);
    RunOptions opt;
    opt.cores = {0};
    opt.seed = seed;
    return RunWorkload(machine, *alloc, workload, opt).app.cycles;
  };
  EXPECT_NE(run(1), run(2));
}

TEST(Trace, RecordAndReplayRoundTrip) {
  Machine machine(MachineConfig::Default(2));
  auto inner = CreateAllocator("tcmalloc", machine);
  TraceRecordingAllocator recorder(*inner);
  ChurnConfig c;
  c.live_blocks = 50;
  c.ops = 300;
  Churn workload(c);
  RunOptions opt;
  opt.cores = {0};
  RunWorkload(machine, recorder, workload, opt);
  Trace trace = recorder.TakeTrace();
  EXPECT_GT(trace.ops.size(), 600u);

  // Serialize and parse back.
  std::stringstream ss;
  trace.Save(ss);
  const Trace loaded = Trace::Load(ss);
  ASSERT_EQ(loaded.ops.size(), trace.ops.size());
  EXPECT_EQ(loaded.ops[0].kind, trace.ops[0].kind);
  EXPECT_EQ(loaded.ops[0].size, trace.ops[0].size);

  // Replay against a different allocator.
  Machine machine2(MachineConfig::Default(2));
  auto alloc2 = CreateAllocator("mimalloc", machine2);
  TraceReplay replay(loaded);
  RunOptions opt2;
  opt2.cores = {0};
  RunWorkload(machine2, *alloc2, replay, opt2);
  const AllocatorStats s = alloc2->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_GT(s.mallocs, 300u);
}

TEST(Report, TableAlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.AddRow({"xxxx", "y"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("a     bbbb"), std::string::npos);
  EXPECT_NE(s.find("xxxx  y"), std::string::npos);
}

TEST(Report, Formatters) {
  EXPECT_EQ(FormatSci(1.177e12, 3), "1.177E+12");
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatRatio(1.719, 2), "1.72x");
  EXPECT_EQ(FormatInt(279795405), "279,795,405");
  EXPECT_EQ(FormatInt(5), "5");
  EXPECT_EQ(FormatInt(1234), "1,234");
}

TEST(Workloads, XalancRetentionFreesEverything) {
  Machine machine(MachineConfig::Default(1));
  auto alloc = CreateAllocator("jemalloc", machine);
  XalancConfig c;
  c.documents = 5;
  c.nodes_per_doc = 300;
  c.retain_percent = 30;
  c.retain_window = 2;
  XalancLike workload(c);
  RunOptions opt;
  opt.cores = {0};
  RunWorkload(machine, *alloc, workload, opt);
  const AllocatorStats s = alloc->stats();
  EXPECT_EQ(s.mallocs, s.frees) << "retained pools must drain at the end";
  EXPECT_EQ(s.bytes_live, 0u);
}

TEST(Workloads, XmallocAllFreesAreCrossThread) {
  Machine machine(MachineConfig::Default(2));
  auto alloc = CreateAllocator("mimalloc", machine);
  XmallocConfig c;
  c.ops_per_thread = 400;
  XmallocLike workload(c);
  RunOptions opt;
  opt.cores = {0, 1};
  const RunResult r = RunWorkload(machine, *alloc, workload, opt);
  // Cross-core frees on mimalloc use atomic pushes: visible as RMWs beyond
  // what single-threaded runs issue.
  EXPECT_GT(r.app.atomic_rmws, 700u);
}

}  // namespace
}  // namespace ngx
