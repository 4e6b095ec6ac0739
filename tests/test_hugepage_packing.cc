// Hugepage span packing + hugepage-backed metadata tests (DESIGN.md §16):
//
//  * TLB-geometry regressions pinning the reach difference the whole
//    optimization rests on: 32 packed 64-KiB spans share ONE 2-MiB
//    translation (one walk), while the same spans on 4-KiB pages walk once
//    per page, and every fabric window classifies into its own per-region
//    dTLB counter bucket;
//  * HugepageLedger unit tests: per-frame refcounts, straddling ranges,
//    fresh/emptied accounting;
//  * packed PageProvider behaviour: 32 spans per frame, one mmap syscall
//    per fresh frame and one munmap per emptied frame, map-waste honesty
//    against the unpacked 31/32 burn, donated ranges landing on an
//    already-backed frame without a second charge, and the fabric's mapped
//    total staying on the ledger when the recipient empties a donor frame;
//  * hugepage_metadata flips the channel / free-buffer / metadata regions
//    to 2-MiB backing (and leaves them on 4 KiB when off);
//  * construction rejects the retired unpacked mode (hugepage_packing =
//    false);
//  * a randomized malloc/free fabric stress with packing + donation armed
//    (explicitly and through the NgxConfig{} defaults), audited against the
//    span-directory invariants and single-span grants, with the map-waste
//    bound checked at the end.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "src/alloc/layout.h"
#include "src/alloc/page_provider.h"
#include "src/core/nextgen_malloc.h"
#include "src/core/span_directory.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kSpan = 64 * 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

std::uint64_t RegionWalks(const Machine& m, int core, TlbRegion r) {
  return m.core(core).pmu().dtlb_region_walks[static_cast<std::size_t>(r)];
}

std::uint64_t RegionLookups(const Machine& m, int core, TlbRegion r) {
  return m.core(core).pmu().dtlb_region_lookups[static_cast<std::size_t>(r)];
}

// ---- TLB geometry: the reach numbers the packing claim rests on ----

// 32 spans touched once each: on 4-KiB pages that is 32 distinct
// translations (32 cold walks); packed on one 2-MiB frame it is ONE
// translation (1 cold walk). This ratio IS the optimization -- pin it.
TEST(TlbGeometry, PackedSpansShareOneHugeTranslation) {
  auto run = [](bool packed) -> std::uint64_t {
    Machine machine(MachineConfig::Default(1));
    PageProvider provider(kNgxHeapBase, 64 * kMiB, "test-heap");
    HugepageLedger ledger;
    if (packed) {
      provider.set_hugepage_ledger(&ledger);
    }
    std::vector<Addr> spans;
    for (int i = 0; i < 32; ++i) {
      const Addr a = provider.MapAtStartup(
          machine, kSpan, packed ? PageKind::kHuge2M : PageKind::kSmall4K);
      EXPECT_NE(a, kNullAddr);
      spans.push_back(a);
    }
    Env env(machine, 0);
    for (const Addr a : spans) {
      env.TouchRead(a, 8);
    }
    return RegionWalks(machine, 0, TlbRegion::kHeap);
  };
  EXPECT_EQ(run(/*packed=*/false), 32u) << "one walk per 4-KiB translation";
  EXPECT_EQ(run(/*packed=*/true), 1u)
      << "32 packed spans must share a single 2-MiB translation";
}

// A second pass over a working set that fits the TLB must not walk again,
// for both page sizes (the arrays actually retain translations).
TEST(TlbGeometry, WarmTranslationsDoNotRewalk) {
  Machine machine(MachineConfig::Default(1));
  PageProvider provider(kNgxHeapBase, 64 * kMiB, "test-heap");
  const Addr base = provider.MapAtStartup(machine, 32 * kSmallPageBytes, PageKind::kSmall4K);
  Env env(machine, 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t p = 0; p < 32; ++p) {
      env.TouchRead(base + p * kSmallPageBytes, 8);
    }
  }
  EXPECT_EQ(RegionWalks(machine, 0, TlbRegion::kHeap), 32u)
      << "second pass over 32 warm 4-KiB translations must be walk-free";
  EXPECT_GE(RegionLookups(machine, 0, TlbRegion::kHeap), 64u);
}

// Every fabric window classifies into its own counter bucket, and the
// workload window lands in "other".
TEST(TlbGeometry, FabricWindowsClassifyIntoTheirOwnBuckets) {
  Machine machine(MachineConfig::Default(1));
  const struct {
    Addr base;
    TlbRegion region;
  } probes[] = {
      {kNgxHeapBase, TlbRegion::kHeap},
      {kNgxMetaBase, TlbRegion::kMetadata},
      {kNgxMetaBase + kHeapWindow, TlbRegion::kMetadata},  // stash window
      {kNgxFreeBufBase, TlbRegion::kFreeBuf},
      {kChannelBase, TlbRegion::kChannel},
      {kWorkloadBase, TlbRegion::kOther},
  };
  for (const auto& p : probes) {
    machine.address_map().Add(Region{p.base, kSmallPageBytes, PageKind::kSmall4K, "probe"});
  }
  Env env(machine, 0);
  for (const auto& p : probes) {
    const std::uint64_t before = RegionLookups(machine, 0, p.region);
    env.TouchRead(p.base, 8);
    EXPECT_EQ(RegionLookups(machine, 0, p.region), before + 1)
        << "probe at " << std::hex << p.base << " missed its bucket";
  }
}

// ---- HugepageLedger ----

TEST(HugepageLedger, CountsFreshAndEmptiedFramesOnce) {
  HugepageLedger ledger;
  const Addr frame = kNgxHeapBase;  // hugepage aligned
  EXPECT_EQ(ledger.Acquire(frame, kSpan), 1u) << "first span backs the frame";
  EXPECT_EQ(ledger.Acquire(frame + kSpan, kSpan), 0u) << "frame already backed";
  EXPECT_EQ(ledger.backed_frames(), 1u);
  EXPECT_EQ(ledger.backed_bytes(), kHugePageBytes);
  EXPECT_EQ(ledger.Release(frame + kSpan, kSpan), 0u) << "one mapping remains";
  EXPECT_EQ(ledger.Release(frame, kSpan), 1u) << "last mapping empties the frame";
  EXPECT_EQ(ledger.backed_frames(), 0u);
}

TEST(HugepageLedger, StraddlingRangeReferencesEveryOverlappedFrame) {
  HugepageLedger ledger;
  const Addr base = kNgxHeapBase;
  // [2 MiB - 64 KiB, 2 MiB + 64 KiB): straddles the frame boundary.
  EXPECT_EQ(ledger.Acquire(base + kHugePageBytes - kSpan, 2 * kSpan), 2u);
  EXPECT_EQ(ledger.backed_frames(), 2u);
  // A 4-MiB + one-span range overlaps three frames; two are already backed.
  EXPECT_EQ(ledger.Acquire(base, 2 * kHugePageBytes + kSpan), 1u);
  EXPECT_EQ(ledger.backed_frames(), 3u);
  EXPECT_EQ(ledger.Release(base, 2 * kHugePageBytes + kSpan), 1u)
      << "only the third frame loses its last reference";
  EXPECT_EQ(ledger.Release(base + kHugePageBytes - kSpan, 2 * kSpan), 2u);
  EXPECT_EQ(ledger.backed_frames(), 0u);
}

// ---- Packed PageProvider ----

TEST(PackedProvider, CarvesThirtyTwoSpansPerFrameWithOneSyscall) {
  Machine machine(MachineConfig::Default(1));
  Env env(machine, 0);
  HugepageLedger ledger;
  PageProvider provider(kNgxHeapBase, 8 * kMiB, "test-heap");
  provider.set_hugepage_ledger(&ledger);

  std::vector<Addr> spans;
  for (int i = 0; i < 32; ++i) {
    const Addr a = provider.Map(env, kSpan, PageKind::kHuge2M);
    ASSERT_NE(a, kNullAddr);
    spans.push_back(a);
  }
  // Contiguous 64-KiB carve inside one frame, one mmap for the lot.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i], spans[i - 1] + kSpan);
  }
  EXPECT_EQ(provider.mmap_calls(), 1u);
  EXPECT_EQ(provider.mapped_bytes(), kHugePageBytes);
  EXPECT_EQ(provider.requested_bytes(), kHugePageBytes) << "32 x 64 KiB fills the frame";
  EXPECT_EQ(ledger.backed_frames(), 1u);

  // Only the frame-opening map pays the syscall: maps 2..32 are free.
  const std::uint64_t cycles_before = machine.core(0).pmu().cycles;
  const Addr span33 = provider.Map(env, kSpan, PageKind::kHuge2M);
  ASSERT_NE(span33, kNullAddr);
  EXPECT_EQ(provider.mmap_calls(), 2u) << "span 33 opens the second frame";
  EXPECT_GT(machine.core(0).pmu().cycles, cycles_before) << "fresh frame pays the syscall";
  const std::uint64_t cycles_after_fresh = machine.core(0).pmu().cycles;
  provider.Map(env, kSpan, PageKind::kHuge2M);
  EXPECT_EQ(machine.core(0).pmu().cycles, cycles_after_fresh)
      << "a carve inside a backed frame must charge nothing";

  // Unmaps release the frame only when its last span leaves.
  for (const Addr a : spans) {
    provider.Unmap(env, a, kSpan);
  }
  EXPECT_EQ(provider.munmap_calls(), 1u) << "one munmap when frame 1 empties";
  EXPECT_EQ(provider.mapped_bytes(), kHugePageBytes) << "frame 2 still backed";
  EXPECT_EQ(ledger.backed_frames(), 1u);
}

TEST(PackedProvider, UnpackedHugepageMapsBurnThirtyOneOfThirtyTwo) {
  Machine machine(MachineConfig::Default(1));
  Env env(machine, 0);
  PageProvider provider(kNgxHeapBase, 8 * kMiB, "test-heap");
  ASSERT_FALSE(provider.packed());
  const Addr a = provider.Map(env, kSpan, PageKind::kHuge2M);
  const Addr b = provider.Map(env, kSpan, PageKind::kHuge2M);
  ASSERT_NE(a, kNullAddr);
  ASSERT_NE(b, kNullAddr);
  EXPECT_EQ(b - a, kHugePageBytes) << "each unpacked span burns a whole frame";
  EXPECT_EQ(provider.mapped_bytes(), 2 * kHugePageBytes);
  EXPECT_EQ(provider.requested_bytes(), 2 * kSpan);
  EXPECT_EQ(provider.mapped_bytes() - provider.requested_bytes(),
            2 * (kHugePageBytes - kSpan))
      << "31/32 of every map is the waste packing exists to reclaim";
}

TEST(PackedProvider, DonatedRangeLandsOnTheBackedFrameWithoutASecondCharge) {
  Machine machine(MachineConfig::Default(1));
  Env env(machine, 0);
  HugepageLedger ledger;
  // Donor window: two frames. The donor carves 40 spans (2.5 MiB), backing
  // frame 0 fully and frame 1 partially.
  PageProvider donor(kNgxHeapBase, 4 * kMiB, "donor");
  donor.set_hugepage_ledger(&ledger);
  std::vector<Addr> donor_spans;
  for (int i = 0; i < 40; ++i) {
    donor_spans.push_back(donor.Map(env, kSpan, PageKind::kHuge2M));
    ASSERT_NE(donor_spans.back(), kNullAddr);
  }
  EXPECT_EQ(donor.mmap_calls(), 2u);
  EXPECT_EQ(ledger.backed_frames(), 2u);

  // Donate the unconsumed tail (1 MiB inside the already-backed frame 1)
  // to a recipient sharing the same fabric ledger.
  const Addr tail = donor.TrimTail(1 * kMiB, kSpan);
  ASSERT_NE(tail, kNullAddr);
  EXPECT_EQ(tail, kNgxHeapBase + 3 * kMiB) << "tail lives in frame 1";
  PageProvider recipient(kNgxHeapBase + 4 * kMiB, 0, "recipient");
  recipient.set_hugepage_ledger(&ledger);
  recipient.AddRange(tail, 1 * kMiB);

  const Addr grafted = recipient.Map(env, kSpan, PageKind::kHuge2M);
  ASSERT_EQ(grafted, tail);
  EXPECT_EQ(recipient.mmap_calls(), 0u)
      << "the donor already backed this frame; a second mmap would double-charge";
  EXPECT_EQ(ledger.backed_frames(), 2u);

  // The recipient's unmap must not free the frame while donor spans live on
  // it; the donor's final unmap must.
  recipient.Unmap(env, grafted, kSpan);
  EXPECT_EQ(recipient.munmap_calls(), 0u);
  EXPECT_EQ(ledger.backed_frames(), 2u);
  for (const Addr a : donor_spans) {
    donor.Unmap(env, a, kSpan);
  }
  EXPECT_EQ(ledger.backed_frames(), 0u);
  EXPECT_EQ(donor.munmap_calls(), 2u);
}

// The fabric-wide mapped total under packing is the ledger, not the sum of
// per-provider books: when a donated span lets the recipient's unmap empty a
// frame the donor opened, the recipient's books clamp at zero and the
// donor's keep the frame, so the sum over-counts by a whole frame.
TEST(PackedProvider, CrossProviderReleaseKeepsTheFabricTotalOnTheLedger) {
  auto machine = MakeMachine(4);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = 2;
  cfg.hugepage_spans = true;
  cfg.heap_window = 2 * 4 * kMiB;  // 4 MiB (two frames) per shard
  auto sys = MakeNgxSystem(*machine, cfg);
  NgxAllocator& a = *sys.allocator;
  const HugepageLedger& ledger = *a.hugepage_ledger();
  SpanDirectory& dir = *a.directory();
  PageProvider& donor = a.heap(0).span_provider();
  PageProvider& recipient = a.heap(1).span_provider();
  Env env(*machine, 0);

  // The donor opens a frame with two spans and recycles the second.
  const Addr kept = donor.Map(env, kSpan, PageKind::kHuge2M);
  const Addr given = donor.Map(env, kSpan, PageKind::kHuge2M);
  ASSERT_EQ(given, kept + kSpan);
  donor.Unmap(env, given, kSpan);
  EXPECT_EQ(donor.mapped_bytes(), kHugePageBytes);

  // The recipient exhausts its own slice, then receives the recycled span
  // the way CarveSpans + HandleSpanGraft move it, and maps it on the
  // donor's still-backed frame.
  const Addr own = recipient.Map(env, 4 * kMiB, PageKind::kHuge2M);
  ASSERT_NE(own, kNullAddr);
  const Addr base = dir.TakeRecycled(0, 1);
  ASSERT_EQ(base, given);
  dir.TransferRange(base, 1, 0, 1);
  recipient.AddRange(base, kSpan);
  ASSERT_EQ(recipient.Map(env, kSpan, PageKind::kHuge2M), given);
  EXPECT_EQ(ledger.backed_frames(), 3u);
  EXPECT_EQ(a.map_mapped_bytes(), ledger.backed_bytes());

  // The donor leaves the shared frame first; the recipient's unmap is the
  // one that empties it.
  recipient.Unmap(env, own, 4 * kMiB);
  donor.Unmap(env, kept, kSpan);
  EXPECT_EQ(ledger.backed_frames(), 1u) << "the donated span still holds the frame";
  const std::uint64_t munmaps = recipient.munmap_calls();
  recipient.Unmap(env, given, kSpan);
  EXPECT_EQ(ledger.backed_frames(), 0u);
  EXPECT_EQ(recipient.munmap_calls(), munmaps + 1) << "the recipient emptied the shared frame";
  ASSERT_EQ(donor.mapped_bytes() + recipient.mapped_bytes(), kHugePageBytes)
      << "the per-provider books over-count the frame the recipient emptied";
  EXPECT_EQ(a.map_mapped_bytes(), ledger.backed_bytes());
  EXPECT_EQ(a.map_mapped_bytes(), 0u);
  EXPECT_EQ(a.map_requested_bytes(), 0u);
  EXPECT_EQ(a.map_waste_bytes(), 0u);
}

// Unpacked hugepage spans (one 64-KiB span per 2-MiB map) are retired: the
// only way the fabric backs spans with hugepages is packed onto the ledger.
TEST(PackedProviderDeathTest, UnpackedHugepageSpansAreRetired) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.hugepage_packing = false;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg),
                            "unpacked hugepage spans are retired");
}

// ---- hugepage_metadata backing ----

TEST(HugepageMetadata, KnobFlipsFabricRegionsToHugePages) {
  for (const bool on : {false, true}) {
    auto machine = MakeMachine(3);
    NgxConfig cfg = NgxConfig::PaperPrototype();
    cfg.prediction = true;  // maps the stash window too
    cfg.free_batch = 8;     // maps the free-batch buffers
    cfg.hugepage_metadata = on;
    auto sys = MakeNgxSystem(*machine, cfg, /*first_server_core=*/2);
    const std::uint64_t expect = on ? kHugePageBytes : kSmallPageBytes;
    const AddressMap& map = machine->address_map();
    EXPECT_EQ(map.PageBytesFor(kChannelBase), expect) << "channel block";
    EXPECT_EQ(map.PageBytesFor(kNgxFreeBufBase), expect) << "free-batch buffers";
    EXPECT_EQ(map.PageBytesFor(kNgxMetaBase), expect) << "heap side tables";
    EXPECT_EQ(map.PageBytesFor(kNgxMetaBase + kHeapWindow), expect) << "stash lines";
  }
}

// ---- Packed fabric lifecycle stress ----
//
// The same audit the span-rebalance suite runs, against a fabric whose
// grants/donations/returns all ride packed hugepage spans: every span has
// exactly one owner, recycled runs are disjoint and complete, donation and
// return totals are symmetric.
void AuditDirectory(const SpanDirectory& d) {
  const std::uint64_t n = d.num_spans();
  const int shards = d.num_shards();
  std::vector<std::uint64_t> free_count(static_cast<std::size_t>(shards), 0);
  std::vector<std::uint64_t> away_count(static_cast<std::size_t>(shards), 0);
  std::vector<std::uint64_t> recycled_count(static_cast<std::size_t>(shards), 0);
  for (std::uint64_t s = 0; s < n; ++s) {
    const int owner = d.OwnerOfSpan(s);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, shards) << "span " << s << " has no valid owner";
    const SpanDirectory::SpanState st = d.StateOfSpan(s);
    if (st != SpanDirectory::SpanState::kGranted) {
      ++free_count[static_cast<std::size_t>(owner)];
    }
    if (st == SpanDirectory::SpanState::kRecycled) {
      ++recycled_count[static_cast<std::size_t>(owner)];
    }
    if (d.HomeOfSpan(s) != owner) {
      ++away_count[static_cast<std::size_t>(owner)];
    }
  }
  std::vector<bool> covered(n, false);
  std::uint64_t donated_out_sum = 0;
  std::uint64_t donated_in_sum = 0;
  for (int shard = 0; shard < shards; ++shard) {
    EXPECT_EQ(d.free_spans(shard), free_count[static_cast<std::size_t>(shard)])
        << "free-span tally diverged for shard " << shard;
    EXPECT_EQ(d.away_spans(shard), away_count[static_cast<std::size_t>(shard)])
        << "away-span tally diverged for shard " << shard;
    std::uint64_t in_runs = 0;
    for (const SpanDirectory::SpanRun& r : d.RecycledRuns(shard)) {
      ASSERT_GT(r.count, 0u);
      ASSERT_LE(r.first + r.count, n);
      for (std::uint64_t s = r.first; s < r.first + r.count; ++s) {
        ASSERT_FALSE(covered[s]) << "span " << s << " appears in two recycled runs";
        covered[s] = true;
        ASSERT_EQ(d.OwnerOfSpan(s), shard) << "recycled run holds a foreign span";
        ASSERT_EQ(d.StateOfSpan(s), SpanDirectory::SpanState::kRecycled);
      }
      in_runs += r.count;
    }
    EXPECT_EQ(in_runs, recycled_count[static_cast<std::size_t>(shard)])
        << "recycled pool does not cover every recycled span of shard " << shard;
    donated_out_sum += d.donated_out(shard);
    donated_in_sum += d.donated_in(shard);
  }
  EXPECT_EQ(donated_out_sum, donated_in_sum);
  EXPECT_EQ(d.total_donated(), donated_out_sum);
  EXPECT_LE(d.total_returned(), d.total_donated());
}

// (seed, shards, defaulted): a defaulted run leaves every hugepage knob at
// its NgxConfig{} value, which must already be the packed fabric.
using StressParam = std::tuple<std::uint64_t, int, bool>;

class PackedRebalanceStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(PackedRebalanceStress, PackedGrantDonateReturnKeepsEveryInvariant) {
  const auto [seed, shards, defaulted] = GetParam();
  auto machine = MakeMachine(shards + 2);
  NgxConfig cfg;
  cfg.num_shards = shards;
  if (!defaulted) {
    cfg.hugepage_spans = true;
  }
  cfg.heap_window = static_cast<std::uint64_t>(shards) * 4 * kMiB;
  cfg.span_donation = true;
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_TRUE(sys.allocator->rebalancing());
  ShadowHeapExerciser ex(*machine, *sys.allocator, seed);
  for (int round = 0; round < 2; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 500, 40, 64, 48 * 1024);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  // Every span grant is exactly one 64-KiB span of window: the directory's
  // granted spans cover precisely the bytes the heaps asked their providers
  // for, where a 2-MiB-per-span map would have granted 32 spans per request.
  const SpanDirectory& dir = *sys.allocator->directory();
  std::uint64_t granted = 0;
  for (int s = 0; s < shards; ++s) {
    granted += dir.granted_spans(s);
  }
  EXPECT_EQ(granted * kSpan, sys.allocator->map_requested_bytes());
  EXPECT_GT(dir.total_donated(), 0u) << "the skewed slices must force donations";
  ASSERT_NE(sys.allocator->hugepage_ledger(), nullptr) << "hugepage spans attach the ledger";
  EXPECT_GT(sys.allocator->hugepage_ledger()->backed_bytes(), 0u);
  ex.FreeAll(0);
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  AuditDirectory(*sys.allocator->directory());
  const AllocatorStats stats = sys.allocator->stats();
  EXPECT_EQ(stats.mallocs - stats.oom_failures, stats.frees);
  EXPECT_EQ(stats.bytes_live, 0u);
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
  // Map-waste honesty: packed waste is bounded by partially-filled frontier
  // frames (at most ~2 per shard once donation splits a frame).
  EXPECT_LE(sys.allocator->map_waste_bytes(),
            2 * static_cast<std::uint64_t>(shards) * kHugePageBytes);
  // And the ledger's fabric-wide view agrees with the per-provider books.
  EXPECT_EQ(sys.allocator->hugepage_ledger()->backed_bytes(),
            sys.allocator->map_mapped_bytes())
      << "per-provider mapped bytes must sum to the ledger's backed frames";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, PackedRebalanceStress,
    ::testing::Values(StressParam{1, 2, false}, StressParam{1, 4, false},
                      StressParam{42, 2, false}, StressParam{42, 4, false},
                      StressParam{0xdeadbeef, 2, false}, StressParam{0xdeadbeef, 4, false},
                      StressParam{7, 4, true}),
    [](const ::testing::TestParamInfo<StressParam>& tpi) {
      return "seed" + std::to_string(std::get<0>(tpi.param)) + "_shards" +
             std::to_string(std::get<1>(tpi.param)) +
             (std::get<2>(tpi.param) ? "_defaulted" : "");
    });

}  // namespace
}  // namespace ngx
