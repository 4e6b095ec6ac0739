// Elastic heap fabric tests: span-directory bookkeeping and its lazy leaves,
// the kDonateSpan protocol end to end (ownership transfer, frees routed
// mid-donation), batched remote-free flushes, and the NGX_CHECK death tests
// that guard double donation.
#include <gtest/gtest.h>

#include <vector>

#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"
#include "src/core/span_directory.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kSpan = 64 * 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

// ---- SpanDirectory bookkeeping units ----

TEST(SpanDirectory, InitialSlicesMatchTheOldDivide) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  EXPECT_EQ(d.num_spans(), 128u);
  EXPECT_EQ(d.free_spans(0), 64u);
  EXPECT_EQ(d.free_spans(1), 64u);
  EXPECT_EQ(d.OwnerOfAddr(kNgxHeapBase), 0);
  EXPECT_EQ(d.OwnerOfAddr(kNgxHeapBase + 4 * kMiB - 1), 0);
  EXPECT_EQ(d.OwnerOfAddr(kNgxHeapBase + 4 * kMiB), 1);
  EXPECT_EQ(d.OwnerOfAddr(kNgxHeapBase + 8 * kMiB - 1), 1);
}

TEST(SpanDirectory, MapUnmapRecycleRoundTrip) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  d.NoteMapped(0, kNgxHeapBase, 2 * kSpan);
  EXPECT_EQ(d.free_spans(0), 62u);
  // Partial unmap coverage must not recycle the still-live span.
  d.NoteUnmapped(0, kNgxHeapBase, kSpan / 2);
  EXPECT_EQ(d.free_spans(0), 62u);
  d.NoteUnmapped(0, kNgxHeapBase, 2 * kSpan);
  EXPECT_EQ(d.free_spans(0), 64u);
  // The recycled run is directly re-grantable.
  EXPECT_EQ(d.TakeRecycled(0, 2), kNgxHeapBase);
  EXPECT_EQ(d.TakeRecycled(0, 1), kNullAddr) << "pool drained";
  EXPECT_EQ(d.free_spans(0), 64u) << "taken spans return to the provider window";
}

TEST(SpanDirectory, TransferMovesOwnershipAndCounts) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  const Addr span5 = kNgxHeapBase + 5 * kSpan;
  d.TransferRange(span5, 3, 0, 1);
  EXPECT_EQ(d.OwnerOfAddr(span5), 1);
  EXPECT_EQ(d.OwnerOfAddr(span5 + 3 * kSpan), 0);
  EXPECT_EQ(d.free_spans(0), 61u);
  EXPECT_EQ(d.free_spans(1), 67u);
  EXPECT_EQ(d.donated_out(0), 3u);
  EXPECT_EQ(d.donated_in(1), 3u);
  EXPECT_EQ(d.total_donated(), 3u);
}

TEST(SpanDirectoryDeath, DonatingAMappedSpanDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  d.NoteMapped(0, kNgxHeapBase, kSpan);
  EXPECT_DEATH_IF_SUPPORTED(d.TransferSpan(0, 0, 1), "still mapped");
}

TEST(SpanDirectoryDeath, DoubleDonationDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  d.TransferSpan(7, 0, 1);
  // Shard 0 no longer owns span 7; donating it again is the double-donation
  // bug the directory exists to catch.
  EXPECT_DEATH_IF_SUPPORTED(d.TransferSpan(7, 0, 1), "double donation");
}

// ---- Lazy leaves ----

TEST(SpanDirectory, FullWindowConstructionAllocatesNoLeaf) {
  SpanDirectory d(kNgxHeapBase, kHeapWindow, kSpan, 8);
  EXPECT_EQ(d.num_spans(), kHeapWindow / kSpan);
  EXPECT_EQ(d.resident_leaves(), 0u);
  // Untouched spans answer arithmetically, and reads never allocate.
  const std::uint64_t per_shard = d.num_spans() / 8;
  for (int shard = 0; shard < 8; ++shard) {
    for (const std::uint64_t s : {shard * per_shard, (shard + 1) * per_shard - 1}) {
      EXPECT_EQ(d.OwnerOfSpan(s), shard);
      EXPECT_EQ(d.HomeOfSpan(s), shard);
      EXPECT_EQ(d.StateOfSpan(s), SpanDirectory::SpanState::kUngranted);
    }
    EXPECT_EQ(d.free_spans(shard), per_shard);
    EXPECT_EQ(d.owned_spans(shard), per_shard);
  }
  EXPECT_EQ(d.resident_leaves(), 0u);
}

TEST(SpanDirectory, FirstWriteAllocatesOnlyItsLeaf) {
  SpanDirectory d(kNgxHeapBase, kHeapWindow, kSpan, 8);
  const std::uint64_t per_shard = d.num_spans() / 8;
  const std::uint64_t leaf = SpanDirectory::kLeafSpans;
  // Shard 2's first span: one leaf, whose other spans keep their defaults.
  d.NoteMapped(2, d.AddrOfSpan(2 * per_shard), kSpan);
  EXPECT_EQ(d.resident_leaves(), 1u);
  EXPECT_EQ(d.StateOfSpan(2 * per_shard), SpanDirectory::SpanState::kGranted);
  EXPECT_EQ(d.StateOfSpan(2 * per_shard + leaf - 1), SpanDirectory::SpanState::kUngranted);
  EXPECT_EQ(d.OwnerOfSpan(2 * per_shard + leaf - 1), 2);
  // A donation straddling a leaf boundary writes both leaves.
  d.TransferRange(d.AddrOfSpan(3 * per_shard + leaf - 1), 2, 3, 4);
  EXPECT_EQ(d.resident_leaves(), 3u);
  EXPECT_EQ(d.OwnerOfSpan(3 * per_shard + leaf - 1), 4);
  EXPECT_EQ(d.OwnerOfSpan(3 * per_shard + leaf), 4);
  EXPECT_EQ(d.HomeOfSpan(3 * per_shard + leaf), 3);
  EXPECT_EQ(d.OwnerOfSpan(3 * per_shard + leaf + 1), 3);
  EXPECT_EQ(d.away_spans(4), 2u);
}

// A short sharded run touches the start of each shard's slice, not the
// window: at most one leaf per shard.
TEST(SpanDirectory, ShortFabricRunKeepsFewLeavesResident) {
  auto machine = MakeMachine(6);
  NgxConfig cfg;
  cfg.num_shards = 2;
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_EQ(sys.allocator->directory()->resident_leaves(), 0u);
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 2000; ++i) {
    blocks.push_back(sys.allocator->Malloc(env, 64 + 48 * static_cast<std::uint64_t>(i % 700)));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  sys.fabric->DrainAll();
  const std::uint64_t leaves = sys.allocator->directory()->resident_leaves();
  EXPECT_GE(leaves, 1u);
  EXPECT_LE(leaves, 2u);
}

// ---- End-to-end donation through the fabric ----

NgxConfig DonationConfig() {
  NgxConfig cfg;  // offloaded, async frees, segregated metadata
  cfg.num_shards = 2;
  cfg.hugepage_spans = false;   // 4-KiB-page spans
  cfg.heap_window = 8 * kMiB;   // 4 MiB (64 spans) per shard
  cfg.span_donation = true;
  return cfg;
}

// Client 0 routes to shard 0 under static_by_client; retaining 16 KiB blocks
// (4 per span) exhausts shard 0's 64-span slice and forces donation.
TEST(SpanDonation, OwnershipTransferVisibleAfterDonation) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationConfig());
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 280 && sys.allocator->directory()->donated_in(0) == 0; ++i) {
    const Addr a = sys.allocator->Malloc(env, 16 * 1024);
    ASSERT_NE(a, kNullAddr) << "donation must keep shard 0 serviceable, alloc " << i;
    blocks.push_back(a);
  }
  const SpanDirectory& d = *sys.allocator->directory();
  ASSERT_GT(d.donated_in(0), 0u) << "shard 0 never ran dry";
  EXPECT_EQ(d.donated_out(1), d.donated_in(0));
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
  // Donated spans sit in shard 1's original slice but are owned by shard 0.
  bool saw_cross_slice = false;
  for (const Addr a : blocks) {
    if (a >= kNgxHeapBase + 4 * kMiB) {
      EXPECT_EQ(sys.allocator->ShardOfAddr(a), 0);
      saw_cross_slice = true;
    }
  }
  EXPECT_TRUE(saw_cross_slice) << "no block was carved from a donated span";
}

TEST(SpanDonation, FreeRoutedMidDonationLandsAtTheNewOwner) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationConfig());
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 280 && sys.allocator->directory()->donated_in(0) == 0; ++i) {
    const Addr a = sys.allocator->Malloc(env, 16 * 1024);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  ASSERT_GT(sys.allocator->directory()->donated_in(0), 0u);
  Addr donated_block = kNullAddr;
  for (const Addr a : blocks) {
    if (a >= kNgxHeapBase + 4 * kMiB) {
      donated_block = a;
    }
  }
  ASSERT_NE(donated_block, kNullAddr);
  // The address lies in shard 1's ORIGINAL slice; the free must go to the
  // span's current owner (shard 0) or the serving heap would corrupt
  // another shard's metadata.
  const std::uint64_t frees_before = sys.allocator->shard_stats(0).frees;
  sys.allocator->Free(env, donated_block);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->shard_stats(0).frees, frees_before + 1);
  EXPECT_EQ(sys.allocator->shard_stats(1).frees, 0u);
}

// Without donation the same skewed load must hit the partition wall (the
// contrast that makes the previous tests meaningful).
TEST(SpanDonation, WithoutDonationTheShardRunsDry) {
  auto machine = MakeMachine(3);
  NgxConfig cfg = DonationConfig();
  cfg.span_donation = false;
  auto sys = MakeNgxSystem(*machine, cfg);
  Env env(*machine, 0);
  bool saw_null = false;
  for (int i = 0; i < 280 && !saw_null; ++i) {
    saw_null = sys.allocator->Malloc(env, 16 * 1024) == kNullAddr;
  }
  EXPECT_TRUE(saw_null);
  EXPECT_GT(sys.allocator->partition_oom_failures(), 0u);
  EXPECT_EQ(sys.allocator->directory()->total_donated(), 0u);
}

// ---- Batched remote frees ----

TEST(BatchedFrees, FlushOnTeardownLosesNoFrees) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.free_batch = 8;
  auto sys = MakeNgxSystem(*machine, cfg);
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 5; ++i) {
    blocks.push_back(sys.allocator->Malloc(env, 256));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  // 5 frees sit in the client-side buffer: nothing has reached the ring.
  EXPECT_EQ(sys.fabric->TotalStats().async_ops, 0u);
  EXPECT_EQ(sys.allocator->buffered_frees(), 5u);
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().frees, 5u) << "teardown flush lost frees";
  EXPECT_EQ(sys.allocator->free_flushes(), 1u) << "one partial batch";
}

TEST(BatchedFrees, OneDoorbellPerBatch) {
  auto run = [](std::uint32_t free_batch) {
    auto machine = MakeMachine(2);
    NgxConfig cfg;
    cfg.free_batch = free_batch;
    auto sys = MakeNgxSystem(*machine, cfg);
    Env env(*machine, 0);
    std::vector<Addr> blocks;
    for (int i = 0; i < 64; ++i) {
      blocks.push_back(sys.allocator->Malloc(env, 256));
    }
    for (const Addr a : blocks) {
      sys.allocator->Free(env, a);
    }
    sys.allocator->Flush(env);
    sys.fabric->DrainAll();
    EXPECT_EQ(sys.allocator->stats().frees, 64u);
    return sys.fabric->TotalStats();
  };
  const OffloadEngineStats unbatched = run(1);
  const OffloadEngineStats batched = run(8);
  EXPECT_EQ(unbatched.ring_doorbells, 64u);
  EXPECT_EQ(batched.ring_doorbells, 8u) << "64 frees / 8 per doorbell";
  EXPECT_EQ(unbatched.async_ops, batched.async_ops) << "same entries, fewer doorbells";
}

// The clamp keeps least_loaded routing sane when drains outrun the fabric's
// own enqueue counter (entries pushed straight on an engine).
TEST(FabricQueueDepth, ClampsAtZeroWhenDrainsOutrunEnqueues) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.num_shards = 2;
  auto sys = MakeNgxSystem(*machine, cfg);
  Env env(*machine, 0);
  const Addr a = sys.allocator->Malloc(env, 256);
  ASSERT_NE(a, kNullAddr);
  // Push the free on the owning engine directly, bypassing the fabric's
  // async_enqueued_ counter, then drain: async_ops now exceeds it.
  const int shard = sys.allocator->ShardOfAddr(a);
  sys.fabric->shard(shard).AsyncRequest(env, OffloadOp::kFree, a);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.fabric->QueueDepth(shard), 0u)
      << "unsigned underflow would report a huge depth";
}

// ---- Cluster-aware placement ----

TEST(Placement, PerClusterPutsServersWithTheirClients) {
  MachineConfig mc = MachineConfig::Default(8);
  mc.cluster_cores = 2;
  Machine machine(mc);
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.placement = PlacementKind::kPerCluster;
  // Clients 0 and 3: static_by_client sends client 0 to shard 0 and client 3
  // to shard 1. Their clusters ({0,1} and {2,3}) each have one free core.
  const std::vector<int> cores = ChooseServerCores(machine, cfg, {0, 3});
  ASSERT_EQ(cores.size(), 2u);
  EXPECT_EQ(cores[0], 1) << "shard 0 lands in client 0's cluster";
  EXPECT_EQ(cores[1], 2) << "shard 1 lands in client 3's cluster";
  cfg.placement = PlacementKind::kContiguous;
  const std::vector<int> tail = ChooseServerCores(machine, cfg, {0, 3});
  EXPECT_EQ(tail, (std::vector<int>{6, 7}));
}

TEST(Placement, PerClusterFallsBackWhenTheClusterIsFull) {
  MachineConfig mc = MachineConfig::Default(4);
  mc.cluster_cores = 2;
  Machine machine(mc);
  NgxConfig cfg;
  cfg.num_shards = 1;
  cfg.placement = PlacementKind::kPerCluster;
  // Both cores of the majority cluster {0,1} are clients; the shard takes
  // the lowest free core elsewhere.
  const std::vector<int> cores = ChooseServerCores(machine, cfg, {0, 1});
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0], 2);
}

TEST(Placement, SameClusterTransfersAreCheaper) {
  MachineConfig mc = MachineConfig::Default(4);
  mc.cluster_cores = 2;
  mc.same_cluster_transfer_latency = 30;
  Machine machine(mc);
  // Core 1 dirties a line; a same-cluster reader (core 0) pays less than a
  // cross-cluster reader (core 2) for the equivalent HITM service.
  const Addr line_a = kWorkloadBase;
  const Addr line_b = kWorkloadBase + 4096;
  machine.address_map().Add(Region{line_a, 4096, PageKind::kSmall4K, "t"});
  machine.address_map().Add(Region{line_b, 4096, PageKind::kSmall4K, "t"});
  Env w1(machine, 1);
  w1.Store<std::uint64_t>(line_a, 1);
  w1.Store<std::uint64_t>(line_b, 1);
  Env near(machine, 0);
  Env far(machine, 2);
  const std::uint64_t t_near0 = near.now();
  near.Load<std::uint64_t>(line_a);
  const std::uint64_t near_cost = near.now() - t_near0;
  const std::uint64_t t_far0 = far.now();
  far.Load<std::uint64_t>(line_b);
  const std::uint64_t far_cost = far.now() - t_far0;
  EXPECT_LT(near_cost, far_cost);
}

}  // namespace
}  // namespace ngx
