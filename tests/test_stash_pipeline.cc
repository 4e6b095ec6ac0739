// Stash pipeline invariant tests (DESIGN.md §9):
//
//  * a randomized malloc/free interleaving matrix -- {1, 2, 4} shards x
//    pipeline {on, off} x seeds, two client cores -- audited by the shadow
//    heap (no double-hand-out, no overlap, live data intact) and by the
//    heap-level balance identity: after Flush has returned every stashed
//    block (both halves, the spill stack, and any unconsumed in-flight
//    refill) and the rings drain, server-heap mallocs == frees;
//  * counter invariants tying the protocol together: every flip consumes at
//    most one refill, refill batches never exceed the single-line half, and
//    a starvation stall implies a flip;
//  * a deterministic spill-stack test: a free burst deeper than the two
//    halves parks blocks in the client-only spill, and Flush still returns
//    every one of them;
//  * the pipeline keeps serving correct class sizes after a Flush cleared
//    the halves (the sync fallback reseeds);
//  * the stall-trained refill lead: a replayed burst stalls less than its
//    first run, no lead passes cap - 1 - mark, a stall-free run leaves
//    every lead at 0, and Flush under raised leads still balances the books;
//  * ring-staged batched frees next to kicked refills: a ring-sized stage
//    never overruns a slot, and Flush publishes every shard's partial stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/nextgen_malloc.h"
#include "src/workload/rng.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

struct PipeCase {
  std::uint64_t seed;
  int shards;
  bool pipeline;
};

NgxConfig PipelineConfig(int shards, bool pipeline) {
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = pipeline;
  cfg.num_shards = shards;
  return cfg;
}

// Asserts the counter relationships any pipeline run must satisfy.
void AuditPipelineCounters(const NgxAllocator& a) {
  // A flip consumes a published refill (or, rarely, a client-owned inactive
  // half); a refill that was never consumed can at most linger once per
  // (core, class), and Flush retires it -- so flips never exceed refills
  // plus the local flips.
  EXPECT_LE(a.stash_flips(), a.stash_refills() + a.stash_local_flips());
  // The server clamps every fill to the single-line half.
  EXPECT_LE(a.refill_blocks(), a.stash_refills() * 7);
  // A stall happens only while waiting out a flip's publish.
  EXPECT_LE(a.stash_starvation_stalls(), a.stash_flips());
}

class StashPipelineMatrixTest : public ::testing::TestWithParam<PipeCase> {};

TEST_P(StashPipelineMatrixTest, RandomInterleavingsKeepTheHeapBalanced) {
  const PipeCase& c = GetParam();
  auto machine = MakeMachine(2 + c.shards);
  NgxSystem sys = MakeNgxSystem(*machine, PipelineConfig(c.shards, c.pipeline),
                                /*first_server_core=*/2);
  ASSERT_EQ(sys.allocator->stash_pipelined(), c.pipeline);
  // Two client cores interleaved in rounds: blocks allocated on one core are
  // frequently freed from the other (the exerciser's live set is shared), so
  // recycled frees land in the freeing core's stash and pop back out there.
  ShadowHeapExerciser ex(*machine, *sys.allocator, c.seed);
  for (int round = 0; round < 3; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 500, 80, 1, 2048);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  ex.FreeAll(0);
  // Flush is per calling core: each client returns its own halves + spill.
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees)
      << "a stashed block was lost (halves, spill, or an in-flight refill)";
  EXPECT_EQ(s.oom_failures, 0u);
  if (c.pipeline) {
    EXPECT_GT(sys.allocator->stash_hits(), 0u);
    AuditPipelineCounters(*sys.allocator);
  } else {
    EXPECT_EQ(sys.allocator->stash_refills(), 0u);
    EXPECT_EQ(sys.allocator->stash_flips(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Interleavings, StashPipelineMatrixTest,
    ::testing::Values(PipeCase{1, 1, true}, PipeCase{1, 1, false},
                      PipeCase{2, 2, true}, PipeCase{2, 2, false},
                      PipeCase{3, 4, true}, PipeCase{3, 4, false},
                      PipeCase{11, 1, true}, PipeCase{12, 2, true},
                      PipeCase{13, 4, true}),
    [](const ::testing::TestParamInfo<PipeCase>& p) {
      const PipeCase& c = p.param;
      return "seed" + std::to_string(c.seed) + "_shards" + std::to_string(c.shards) +
             (c.pipeline ? "_pipe" : "_sync");
    });

// A free burst deeper than the two halves (2 x 7 entries) must park the
// excess in the client-only spill stack -- and Flush must return every spill
// entry to the server, or the heap leaks.
TEST(StashPipelineSpill, FreeBurstSpillsAndFlushReturnsAll) {
  auto machine = MakeMachine(2);
  NgxConfig cfg = PipelineConfig(1, true);
  cfg.stash_capacity = 32;  // 14 in the halves + 18 in the spill stack
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  // Warm the predictor and collect one class worth of blocks.
  std::vector<Addr> blocks;
  for (int i = 0; i < 48; ++i) {
    const Addr a = sys.allocator->Malloc(app, 128);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  std::sort(blocks.begin(), blocks.end());
  ASSERT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end())
      << "a block was handed out twice";
  // Free them all: the first recycles fill the active half, the next 18 the
  // spill stack, the rest ride the ring.
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  EXPECT_GE(sys.allocator->stash_recycled_frees(), 18u)
      << "the spill stack absorbed fewer frees than its depth";
  // Popping again must serve the spilled blocks LIFO without server traffic.
  const std::uint64_t sync_before = sys.allocator->sync_mallocs();
  for (int i = 0; i < 20; ++i) {
    const Addr a = sys.allocator->Malloc(app, 128);
    ASSERT_NE(a, kNullAddr);
    sys.allocator->Free(app, a);
  }
  EXPECT_EQ(sys.allocator->sync_mallocs(), sync_before)
      << "recycled inventory should have served the whole run";
  sys.allocator->Flush(app);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees) << "Flush lost a spilled or stashed block";
  AuditPipelineCounters(*sys.allocator);
}

// After Flush empties the halves, the next malloc takes the sync fallback,
// reseeds the active half, and keeps returning correctly-classed blocks.
TEST(StashPipelineSpill, PipelineRecoversAfterFlush) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, PipelineConfig(1, true), 1);
  Env app(*machine, 0);
  for (int round = 0; round < 3; ++round) {
    std::vector<Addr> blocks;
    for (int i = 0; i < 30; ++i) {
      const Addr a = sys.allocator->Malloc(app, 100);
      ASSERT_NE(a, kNullAddr);
      EXPECT_GE(sys.allocator->UsableSize(app, a), 100u);
      blocks.push_back(a);
    }
    std::sort(blocks.begin(), blocks.end());
    ASSERT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end());
    for (const Addr a : blocks) {
      sys.allocator->Free(app, a);
    }
    sys.allocator->Flush(app);
    sys.fabric->DrainAll();
    const AllocatorStats s = sys.allocator->stats();
    EXPECT_EQ(s.mallocs, s.frees) << "round " << round;
  }
}

// ---- Stall-trained refill lead (StashPipe::lead) ----

NgxConfig LeadConfig(std::uint32_t mark) {
  NgxConfig cfg = PipelineConfig(1, true);
  cfg.stash_refill_mark = mark;
  cfg.stash_capacity = 14;
  return cfg;
}

// One single-class burst: `n` back-to-back mallocs of `size` with `work`
// instructions of application code after each, every block then freed and
// the stash flushed so the next burst starts from the same inventory.
// Returns the starvation stalls the burst took.
std::uint64_t Burst(Machine& machine, NgxSystem& sys, int n, std::uint64_t size,
                    std::uint64_t work) {
  Env app(machine, 0);
  const std::uint64_t before = sys.allocator->stash_starvation_stalls();
  std::vector<Addr> blocks;
  for (int i = 0; i < n; ++i) {
    const Addr a = sys.allocator->Malloc(app, size);
    EXPECT_NE(a, kNullAddr);
    blocks.push_back(a);
    app.Work(work);
  }
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  sys.allocator->Flush(app);
  sys.fabric->DrainAll();
  return sys.allocator->stash_starvation_stalls() - before;
}

// Every lead of every (core, class) stays within cap - 1 - mark.
void ExpectLeadsBounded(const NgxAllocator& a, int cores, std::uint32_t classes) {
  const std::uint32_t cap = std::min(a.config().stash_capacity, NgxAllocator::kPipeHalfCap);
  const std::uint32_t mark = a.config().stash_refill_mark;
  const std::uint32_t room = mark + 1 < cap ? cap - 1 - mark : 0;
  for (int core = 0; core < cores; ++core) {
    for (std::uint32_t cls = 0; cls < classes; ++cls) {
      EXPECT_LE(a.stash_lead(core, cls), room) << "core " << core << " class " << cls;
    }
  }
}

// A burst that outruns refills stalls at the default mark; those stalls
// raise the stash's lead, so the same burst replayed posts its refills
// early enough to stall less.
TEST(StashRefillLead, SecondIdenticalBurstStallsLessThanTheFirst) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, LeadConfig(2), 1);
  const std::uint32_t cls = SizeClasses().ClassOf(128);
  EXPECT_EQ(sys.allocator->stash_lead(0, cls), 0u);
  const std::uint64_t first = Burst(*machine, sys, 300, 128, 50);
  ASSERT_GT(first, 0u) << "the burst must outrun refills posted at the mark";
  EXPECT_GT(sys.allocator->stash_lead(0, cls), 0u) << "stalls must raise the lead";
  const std::uint64_t second = Burst(*machine, sys, 300, 128, 50);
  EXPECT_LT(second, first) << "the trained lead must hide refills the mark did not";
  AuditPipelineCounters(*sys.allocator);
}

// Back-to-back mallocs stall on every flip, so each lead climbs to its cap
// -- the last pop of a full half, cap - 1 - mark above the mark -- and no
// further, whatever the mark and the half's depth.
TEST(StashRefillLead, LeadNeverExceedsCapMinusOneMinusMark) {
  struct Case {
    std::uint32_t capacity;
    std::uint32_t mark;
  };
  for (const Case c : {Case{14, 1}, Case{14, 2}, Case{14, 4}, Case{14, 5}, Case{14, 6},
                       Case{32, 2}, Case{4, 1}, Case{4, 3}}) {
    auto machine = MakeMachine(2);
    NgxConfig cfg = LeadConfig(c.mark);
    cfg.stash_capacity = c.capacity;
    NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
    for (const std::uint64_t size : {32ull, 128ull, 1024ull}) {
      Burst(*machine, sys, 200, size, 0);
    }
    const std::uint32_t cap = std::min(c.capacity, NgxAllocator::kPipeHalfCap);
    const std::uint32_t cls = SizeClasses().ClassOf(128);
    EXPECT_GT(sys.allocator->stash_starvation_stalls(), 0u);
    EXPECT_EQ(sys.allocator->stash_lead(0, cls), cap - 1 - c.mark)
        << "capacity " << c.capacity << " mark " << c.mark;
    ExpectLeadsBounded(*sys.allocator, machine->num_cores(), SizeClasses().num_classes());
  }
}

// Nothing but a stall moves a lead: a run whose refills always publish in
// time ends with every lead where it started, posting exactly at the mark.
TEST(StashRefillLead, StallFreeRunLeavesEveryLeadAtZero) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, LeadConfig(2), 1);
  for (const std::uint64_t size : {32ull, 128ull, 1024ull}) {
    Burst(*machine, sys, 300, size, 3000);
  }
  ASSERT_GT(sys.allocator->stash_refills(), 0u) << "the run must exercise refills";
  ASSERT_EQ(sys.allocator->stash_starvation_stalls(), 0u);
  for (int core = 0; core < machine->num_cores(); ++core) {
    for (std::uint32_t cls = 0; cls < SizeClasses().num_classes(); ++cls) {
      EXPECT_EQ(sys.allocator->stash_lead(core, cls), 0u) << "core " << core << " class " << cls;
    }
  }
}

// Raised leads post refills while more entries remain, so a Flush is likelier
// to find a published-but-unconsumed fill behind the active half: it must
// still return every block, and the heap's books must balance.
TEST(StashRefillLead, FlushWithRaisedLeadsReturnsEveryBlock) {
  auto machine = MakeMachine(3);
  NgxSystem sys = MakeNgxSystem(*machine, LeadConfig(2), 2);
  for (const std::uint64_t size : {48ull, 128ull, 512ull}) {
    Burst(*machine, sys, 120, size, 0);
  }
  ASSERT_GT(sys.allocator->stash_lead(0, SizeClasses().ClassOf(128)), 0u);
  // Interleaved random traffic from two cores on top of the trained leads,
  // shadow-audited, then each core flushes mid-stream.
  ShadowHeapExerciser ex(*machine, *sys.allocator, 5);
  for (int round = 0; round < 3; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 400, 60, 16, 1024);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      Env env(*machine, core);
      sys.allocator->Flush(env);
    }
  }
  ex.FreeAll(0);
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees) << "a block stashed under a raised lead was lost";
  EXPECT_EQ(s.bytes_live, 0u);
  EXPECT_EQ(s.oom_failures, 0u);
  AuditPipelineCounters(*sys.allocator);
  ExpectLeadsBounded(*sys.allocator, machine->num_cores(), SizeClasses().num_classes());
}

// ---- Ring-staged batched frees next to kicked refills (DESIGN.md §7) ----

// free_batch == ring_capacity: a stage can fill the whole ring, so a refill
// kicked behind a full stage must publish the stage on its own doorbell
// first. A consumer core frees a producer's blocks (its stage fills) while
// allocating from its own pipelined stash (its refills kick).
TEST(StagedFreesPipeline, RingSizedStageWithInterleavedRefillsBalancesTheBooks) {
  auto machine = MakeMachine(3);
  NgxConfig cfg = PipelineConfig(1, true);
  cfg.ring_capacity = 8;
  cfg.free_batch = 8;
  cfg.stash_capacity = 14;  // no spill stack: frees past a full half stage
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 2);
  Env producer(*machine, 0);
  Env consumer(*machine, 1);
  // A varying number of frees per consumer malloc, so the stage's fill
  // level at each refill kick does not settle into one phase.
  Rng rng(3);
  std::vector<Addr> held;
  std::uint64_t full_stage_kicks = 0;
  for (int i = 0; i < 400; ++i) {
    for (std::uint64_t k = rng.Range(0, 3); k > 0; --k) {
      const Addr a = sys.allocator->Malloc(producer, 256);
      ASSERT_NE(a, kNullAddr);
      sys.allocator->Free(consumer, a);
    }
    const bool full = sys.fabric->staged_frees(1, 0) == cfg.free_batch;
    const std::uint64_t refills = sys.allocator->stash_refills();
    held.push_back(sys.allocator->Malloc(consumer, 64));
    ASSERT_NE(held.back(), kNullAddr);
    if (full && sys.allocator->stash_refills() > refills) {
      ++full_stage_kicks;
    }
  }
  EXPECT_GT(full_stage_kicks, 0u) << "no refill was kicked behind a full stage";
  std::vector<Addr> sorted = held;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "a block was handed out twice";
  for (const Addr a : held) {
    sys.allocator->Free(consumer, a);
  }
  sys.allocator->Flush(producer);
  sys.allocator->Flush(consumer);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees) << "a staged free was overwritten or lost";
  EXPECT_EQ(s.bytes_live, 0u);
  EXPECT_GT(sys.allocator->buffered_frees(), sys.allocator->free_flushes());
  AuditPipelineCounters(*sys.allocator);
}

// Flush publishes the core's partial stage on every shard before it returns
// the stash: teardown loses no staged free, and each partial stage rides
// its own doorbell rather than a stash return's.
TEST(StagedFreesPipeline, FlushPublishesPartialStagesOnEveryShard) {
  constexpr int kShards = 4;
  auto machine = MakeMachine(2 * kShards);
  NgxConfig cfg = PipelineConfig(kShards, true);
  cfg.free_batch = 8;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, kShards);
  // Large blocks are never stashed or recycled, so every free stages; core c
  // mallocs from shard c under static_by_client routing.
  const std::uint64_t large = SizeClasses().max_size() + 1;
  std::vector<Addr> blocks;
  for (int core = 0; core < kShards; ++core) {
    Env env(*machine, core);
    for (int i = 0; i < 3; ++i) {
      blocks.push_back(sys.allocator->Malloc(env, large));
      ASSERT_NE(blocks.back(), kNullAddr);
    }
  }
  Env app(*machine, 0);
  const Addr small = sys.allocator->Malloc(app, 128);  // seeds core 0's stash
  ASSERT_NE(small, kNullAddr);
  sys.allocator->Free(app, small);
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(sys.fabric->staged_frees(0, s), 3u) << "shard " << s;
  }
  EXPECT_EQ(sys.fabric->TotalStats().async_ops, 0u) << "staged frees reached a server";
  const std::uint64_t flushes0 = sys.allocator->free_flushes();
  sys.allocator->Flush(app);
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(sys.fabric->staged_frees(0, s), 0u) << "shard " << s;
  }
  EXPECT_EQ(sys.allocator->free_flushes() - flushes0, static_cast<std::uint64_t>(kShards));
  for (int core = 1; core < kShards; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees) << "Flush lost a staged free";
  EXPECT_EQ(s.bytes_live, 0u);
}

}  // namespace
}  // namespace ngx
