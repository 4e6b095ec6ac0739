// Self-tests of the benchmark's own instruments: the verifier catches a
// broken allocator, the probe is observational, and same-seed runs repeat.
#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/tenants_shift.h"
#include "src/alloc/layout.h"
#include "src/alloc/mimalloc/mi_allocator.h"
#include "src/workload/runner.h"
#include "src/workload/xmalloc.h"

namespace perfbench {
namespace {

// Hands out blocks from a bump pointer, but every third malloc returns the
// previous block again, so two live blocks overlap.
class OverlappingAllocator : public ngx::Allocator {
 public:
  std::string_view name() const override { return "overlapping"; }
  ngx::Addr Malloc(ngx::Env&, std::uint64_t size) override {
    ++calls_;
    if (calls_ % 3 == 0 && last_ != ngx::kNullAddr) {
      return last_;
    }
    last_ = next_;
    next_ += (size + 15) & ~std::uint64_t{15};
    return last_;
  }
  void Free(ngx::Env&, ngx::Addr) override {}
  std::uint64_t UsableSize(ngx::Env&, ngx::Addr) override { return 0; }
  ngx::AllocatorStats stats() const override { return {}; }

 private:
  std::uint64_t calls_ = 0;
  ngx::Addr next_ = ngx::kWorkloadBase + (1ull << 40);
  ngx::Addr last_ = ngx::kNullAddr;
};

TEST(Verifier, CatchesOverlappingBlocks) {
  ngx::Machine machine(ngx::MachineConfig::Default(1));
  ngx::Env env(machine, 0);
  OverlappingAllocator bad;
  ProbeAllocator probe(bad, nullptr, nullptr);
  for (int i = 0; i < 9; ++i) {
    probe.Malloc(env, 64);
  }
  EXPECT_EQ(probe.report().violations.overlaps, 3u);
  EXPECT_EQ(probe.report().violations.total(), 3u);
}

TEST(Verifier, CatchesDoubleAndUnknownFrees) {
  ngx::Machine machine(ngx::MachineConfig::Default(1));
  ngx::Env env(machine, 0);
  ngx::MiAllocator mi(machine, ngx::kMiHeapBase);
  ProbeAllocator probe(mi, nullptr, nullptr);
  const ngx::Addr a = probe.Malloc(env, 48);
  probe.Free(env, a);
  probe.Free(env, a);           // double free
  probe.Free(env, a + 4096);    // never allocated
  EXPECT_EQ(probe.report().violations.bad_frees, 2u);
  EXPECT_EQ(probe.report().violations.overlaps, 0u);
  EXPECT_EQ(probe.report().free_calls, 3u);
}

TEST(Verifier, LeakCheckCountsLiveBlocks) {
  ngx::Machine machine(ngx::MachineConfig::Default(1));
  ngx::Env env(machine, 0);
  ngx::MiAllocator mi(machine, ngx::kMiHeapBase);
  ProbeAllocator probe(mi, nullptr, nullptr);
  probe.Malloc(env, 32);
  probe.Free(env, probe.Malloc(env, 32));
  probe.CheckNoLeaks();
  EXPECT_EQ(probe.report().violations.leaks, 1u);
}

TEST(Percentile, NearestRankOverHistogram) {
  const LatencyHistogram h = {{4, 998}, {116, 1}, {126, 1}};
  EXPECT_EQ(Percentile(h, 0.5), 4u);
  EXPECT_EQ(Percentile(h, 0.998), 4u);
  EXPECT_EQ(Percentile(h, 0.999), 116u);
  EXPECT_EQ(Percentile(h, 1.0), 126u);
  EXPECT_EQ(Percentile(LatencyHistogram{}, 0.5), 0u);
}

// A small two-shard ring run, with and without the probe: the probe must
// not change the simulated history.
TEST(Probe, IsObservational) {
  auto setup = MakeSetup("xmalloc-ring");
  ASSERT_TRUE(setup.has_value());
  setup->make_workload = [] {
    ngx::XmallocConfig c;
    c.ops_per_thread = 3000;
    return std::make_unique<ngx::XmallocLike>(c);
  };
  std::uint64_t bare_hash = 0;
  {
    ngx::Machine machine(setup->machine);
    ngx::NgxSystem sys = ngx::MakeNgxSystem(machine, setup->nextgen, setup->server_cores);
    auto workload = setup->make_workload();
    ngx::RunOptions opt;
    opt.cores = setup->app_cores;
    opt.server_cores = setup->server_cores;
    opt.seed = 5;
    bare_hash = ngx::bench::SimStateHash(ngx::RunWorkload(machine, *sys.allocator, *workload, opt));
  }
  const RunOutcome untraced = RunNextGen(*setup, 5, false);
  const RunOutcome traced = RunNextGen(*setup, 5, true);
  EXPECT_EQ(untraced.hash, bare_hash);
  EXPECT_EQ(traced.hash, bare_hash);
  EXPECT_EQ(untraced.probe.violations.total(), 0u);
  EXPECT_EQ(untraced.probe.malloc_calls, 12000u);
  EXPECT_EQ(traced.span_totals[static_cast<std::size_t>(SpanKind::kMalloc)].count, 12000u);
  EXPECT_EQ(traced.span_totals[static_cast<std::size_t>(SpanKind::kSchedulerRun)].count, 1u);
}

TEST(Determinism, SameSeedSameSimMetrics) {
  auto setup = MakeSetup("tenants-shift");
  ASSERT_TRUE(setup.has_value());
  setup->make_workload = [] {
    TenantsShiftConfig c;
    c.ops_scale = 1;
    return std::make_unique<TenantsShift>(c);
  };
  const RunOutcome a = RunNextGen(*setup, 9, false);
  const RunOutcome b = RunNextGen(*setup, 9, false);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.result.wall_cycles, b.result.wall_cycles);
  EXPECT_EQ(a.probe.malloc_cycles, b.probe.malloc_cycles);
  EXPECT_EQ(a.probe.free_cycles, b.probe.free_cycles);
  EXPECT_EQ(a.books.mapped_bytes, b.books.mapped_bytes);
  EXPECT_EQ(a.sim_accesses, b.sim_accesses);
  const RunOutcome base_a = RunBaseline(*setup, 9);
  const RunOutcome base_b = RunBaseline(*setup, 9);
  EXPECT_EQ(base_a.hash, base_b.hash);
}

}  // namespace
}  // namespace perfbench
