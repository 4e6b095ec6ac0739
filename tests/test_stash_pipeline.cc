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
//    never overruns a slot, and Flush publishes every shard's partial stage;
//  * the filling half's software prefetch: a flip after a landed prefetch
//    pulls no line from the server, a stale prefetch charges the server and
//    delays the publish, a flip waits for a prefetch still in flight, a
//    half drained by pops alone takes at most two attempts, and Flush with
//    a prefetch outstanding returns every block.
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
  // A prefetched flip consumed a refill with at least one landed prefetch.
  EXPECT_LE(a.stash_prefetched_flips(), a.stash_flips());
  EXPECT_LE(a.stash_prefetched_flips(), a.stash_prefetches_landed());
  // Two prefetch attempts per refill, plus one per recycled free that
  // lifted the active half back above one entry.
  EXPECT_LE(a.stash_prefetches_landed() + a.stash_prefetches_stale(),
            2 * a.stash_refills() + a.stash_recycled_frees());
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

// ---- Prefetch of the filling half (MaybePrefetchFill) ----

// With ample application work between mallocs every refill publishes long
// before its flip, so the prefetch lands and the flip's acquire-read hits
// L1: the flipping malloc moves no line from the server's cache.
TEST(StashPrefetch, FlipAfterALandedPrefetchSendsNoRemoteHitm) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, LeadConfig(2), 1);
  NgxAllocator& a = *sys.allocator;
  Env app(*machine, 0);
  const PmuCounters& client = machine->core(0).pmu();
  std::vector<Addr> blocks;
  std::uint64_t prefetched_flip_mallocs = 0;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t prefetched = a.stash_prefetched_flips();
    const std::uint64_t hitm = client.remote_hitm;
    blocks.push_back(a.Malloc(app, 128));
    ASSERT_NE(blocks.back(), kNullAddr);
    if (a.stash_prefetched_flips() > prefetched) {
      ++prefetched_flip_mallocs;
      EXPECT_EQ(client.remote_hitm, hitm) << "malloc " << i;
    }
    app.Work(3000);
  }
  EXPECT_GT(prefetched_flip_mallocs, 10u);
  EXPECT_EQ(a.stash_prefetched_flips(), a.stash_flips()) << "a flip missed its prefetch";
  EXPECT_EQ(a.stash_prefetches_stale(), 0u);
  EXPECT_GE(client.sw_prefetches, a.stash_prefetches_landed());
  for (const Addr b : blocks) {
    a.Free(app, b);
  }
  a.Flush(app);
  sys.fabric->DrainAll();
  EXPECT_EQ(a.stats().mallocs, a.stats().frees);
  AuditPipelineCounters(a);
}

// Back-to-back mallocs outrun every fill, so the last pops before a flip
// prefetch a line the publish has not written yet. The first such prefetch
// of a refill costs the serving core one store-shaped invalidation, counted
// on both cores, and pushes the refill's publish back by the same cycles; a
// repeat finds the old copy already cached and costs the server nothing
// more. The flip waits for the pushed-back publish.
TEST(StashPrefetch, StalePrefetchChargesTheServerAndDelaysThePublish) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, LeadConfig(2), 1);
  NgxAllocator& a = *sys.allocator;
  Env app(*machine, 0);
  const Core& client = machine->core(0);
  const Core& server = machine->core(1);
  const std::uint32_t cls = SizeClasses().ClassOf(128);
  const std::uint64_t cost = static_cast<std::uint64_t>(
      server.ShapedCycles(AccessType::kStore, machine->config().invalidate_latency));
  ASSERT_GT(cost, 0u);
  std::uint64_t charged_mallocs = 0;
  std::uint64_t repeat_mallocs = 0;
  std::uint64_t flip_mallocs = 0;
  std::uint64_t charged_refill = 0;  // refill whose stale copy is charged
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t stale = a.stash_prefetches_stale();
    const std::uint64_t flips = a.stash_flips();
    const std::uint64_t publish = a.stash_publish_time(0, cls);
    const std::uint64_t sent = server.pmu().invalidations_sent;
    const std::uint64_t received = client.pmu().invalidations_received;
    const std::uint64_t server_clock = server.now();
    ASSERT_NE(a.Malloc(app, 128), kNullAddr);
    if (a.stash_prefetches_stale() > stale) {
      EXPECT_EQ(a.stash_prefetches_stale() - stale, 1u);
      // At most one refill is in flight, so the refill count names it.
      const bool repeat = charged_refill == a.stash_refills();
      charged_refill = a.stash_refills();
      const std::uint64_t charges = repeat ? 0 : 1;
      ++(repeat ? repeat_mallocs : charged_mallocs);
      EXPECT_EQ(a.stash_publish_time(0, cls) - publish, charges * cost) << "malloc " << i;
      EXPECT_EQ(server.pmu().invalidations_sent - sent, charges);
      EXPECT_EQ(client.pmu().invalidations_received - received, charges);
      EXPECT_GE(server.now() - server_clock, charges * cost);
    }
    if (a.stash_flips() > flips) {
      ++flip_mallocs;
      EXPECT_GE(client.now(), publish) << "a flip read the half before its delayed publish";
    }
  }
  EXPECT_GT(charged_mallocs, 10u);
  EXPECT_GT(repeat_mallocs, 0u);
  EXPECT_GT(flip_mallocs, 10u);
  EXPECT_GT(a.stash_starvation_stalls(), 0u);
  AuditPipelineCounters(a);
}

// Bursts of back-to-back mallocs after long pauses: a refill published in
// the pause is prefetched by the burst's last pops before the flip, and the
// flip follows within a few cycles, before the line has landed. The flip
// must wait for the landing time rather than read the line early.
TEST(StashPrefetch, FlipWaitsForALandedPrefetchStillInFlight) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, LeadConfig(2), 1);
  NgxAllocator& a = *sys.allocator;
  Env app(*machine, 0);
  const std::uint32_t cls = SizeClasses().ClassOf(128);
  std::uint64_t waited_flips = 0;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t prefetched = a.stash_prefetched_flips();
    const std::uint64_t land = a.stash_prefetch_land(0, cls);
    const std::uint64_t t0 = app.now();
    ASSERT_NE(a.Malloc(app, 128), kNullAddr);
    if (a.stash_prefetched_flips() > prefetched) {
      EXPECT_GE(app.now(), land) << "malloc " << i << " flipped before its prefetch landed";
      waited_flips += land > t0 ? 1 : 0;
    }
    if (i % 11 == 10) {
      app.Work(20000);
    }
  }
  EXPECT_GT(waited_flips, 5u);
  AuditPipelineCounters(a);
}

// A half drained by pops alone offers two prefetch points -- the pops that
// leave one entry and none -- so each refill takes at most two attempts,
// whatever the pace of the client.
TEST(StashPrefetch, HalfDrainedByPopsTakesAtMostTwoAttemptsPerRefill) {
  for (const std::uint64_t work : {0ull, 200ull, 3000ull}) {
    auto machine = MakeMachine(2);
    NgxSystem sys = MakeNgxSystem(*machine, LeadConfig(2), 1);
    NgxAllocator& a = *sys.allocator;
    Env app(*machine, 0);
    std::uint64_t since_flip = 0;
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t attempts = a.stash_prefetches_landed() + a.stash_prefetches_stale();
      const std::uint64_t flips = a.stash_flips();
      ASSERT_NE(a.Malloc(app, 64), kNullAddr);
      since_flip += a.stash_prefetches_landed() + a.stash_prefetches_stale() - attempts;
      if (a.stash_flips() > flips) {
        EXPECT_LE(since_flip, 2u) << "work " << work << ", malloc " << i;
        since_flip = 0;
      }
      app.Work(work);
    }
    EXPECT_GT(a.stash_flips(), 20u) << "work " << work;
    EXPECT_GE(a.stash_prefetches_landed() + a.stash_prefetches_stale(), a.stash_flips())
        << "work " << work;
    AuditPipelineCounters(a);
  }
}

// Flush while a refill is in flight and its prefetch has landed: every
// block (both halves, the unconsumed fill included) goes back, and the next
// refills after the reseed start with no prefetch on their books.
TEST(StashPrefetch, FlushWithAPrefetchOutstandingReturnsEveryBlock) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, LeadConfig(2), 1);
  NgxAllocator& a = *sys.allocator;
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  bool outstanding = false;
  for (int i = 0; i < 500 && !outstanding; ++i) {
    const std::uint64_t flips = a.stash_flips();
    const std::uint64_t landed = a.stash_prefetches_landed();
    blocks.push_back(a.Malloc(app, 128));
    ASSERT_NE(blocks.back(), kNullAddr);
    app.Work(3000);
    outstanding = a.stash_prefetches_landed() > landed && a.stash_flips() == flips;
  }
  ASSERT_TRUE(outstanding) << "no refill was caught with a landed prefetch";
  a.Flush(app);
  sys.fabric->DrainAll();
  EXPECT_EQ(a.stats().mallocs - a.stats().frees, blocks.size())
      << "Flush lost a stashed or prefetched block";
  // Back-to-back mallocs after the reseed: their refills publish late, so a
  // prefetched flip must be backed by a prefetch landed after the Flush.
  const std::uint64_t landed = a.stash_prefetches_landed();
  const std::uint64_t prefetched = a.stash_prefetched_flips();
  for (int i = 0; i < 100; ++i) {
    blocks.push_back(a.Malloc(app, 128));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  EXPECT_LE(a.stash_prefetched_flips() - prefetched, a.stash_prefetches_landed() - landed);
  std::vector<Addr> sorted = blocks;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "a block was handed out twice";
  for (const Addr b : blocks) {
    a.Free(app, b);
  }
  a.Flush(app);
  sys.fabric->DrainAll();
  EXPECT_EQ(a.stats().mallocs, a.stats().frees);
  EXPECT_EQ(a.stats().bytes_live, 0u);
  AuditPipelineCounters(a);
}

}  // namespace
}  // namespace ngx
