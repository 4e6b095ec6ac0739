// Watermark span rebalancing + return protocol tests (DESIGN.md §8):
//
//  * a seeded randomized lifecycle stress harness driving grant / unmap /
//    take / donate / return steps against SpanDirectory with a host-side
//    shadow model and an O(1)-amortized invariant auditor (every span has
//    exactly one owner, recycled runs are disjoint, granted spans are never
//    donated, returns only target fully-recycled away spans), swept over
//    8 seeds x {2, 4, 8} shards, plus slices that straddle the directory's
//    lazy leaves (3 seeds x {3, 6} shards);
//  * the same invariants audited after a randomized malloc/free stress run
//    through the real fabric with watermarks armed;
//  * NGX_CHECK death tests for double-return and returning a mapped span;
//  * unit tests for the kRequestSpans / kOfferSpans / kReturnSpan wire
//    protocol driven directly through the fabric;
//  * end-to-end watermark behaviour: proactive refill keeps the inline
//    kDonateSpan fallback off the malloc path, and the return protocol
//    restores the pre-burst per-shard free-span split;
//  * a regression test pinning TakeRecycled's next-fit cursor to
//    amortized-linear scanning on a fragmented 64Ki-span directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"
#include "src/core/span_directory.h"
#include "src/sim/scheduler.h"
#include "src/workload/rng.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kSpan = 64 * 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

using SpanState = SpanDirectory::SpanState;

// Audits a directory against first principles (no shadow needed): per-shard
// free/away tallies recomputed from the per-span accessors, recycled runs
// disjoint and consistent with the per-span state, and symmetric
// donated/returned totals. Used after fabric-level stress where the span
// traffic is driven by the real allocator.
void AuditDirectoryConsistency(const SpanDirectory& d) {
  const std::uint64_t n = d.num_spans();
  const int shards = d.num_shards();
  std::vector<std::uint64_t> free_count(static_cast<std::size_t>(shards), 0);
  std::vector<std::uint64_t> away_count(static_cast<std::size_t>(shards), 0);
  std::vector<std::uint64_t> recycled_count(static_cast<std::size_t>(shards), 0);
  for (std::uint64_t s = 0; s < n; ++s) {
    const int owner = d.OwnerOfSpan(s);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, shards) << "span " << s << " has no valid owner";
    const SpanState st = d.StateOfSpan(s);
    if (st != SpanState::kGranted) {
      ++free_count[static_cast<std::size_t>(owner)];
    }
    if (st == SpanState::kRecycled) {
      ++recycled_count[static_cast<std::size_t>(owner)];
    }
    if (d.HomeOfSpan(s) != owner) {
      ++away_count[static_cast<std::size_t>(owner)];
    }
  }
  std::vector<bool> covered(n, false);
  std::uint64_t donated_out_sum = 0;
  std::uint64_t donated_in_sum = 0;
  std::uint64_t returned_out_sum = 0;
  std::uint64_t returned_in_sum = 0;
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
        ASSERT_EQ(d.StateOfSpan(s), SpanState::kRecycled)
            << "recycled run holds a non-recycled span";
      }
      in_runs += r.count;
    }
    EXPECT_EQ(in_runs, recycled_count[static_cast<std::size_t>(shard)])
        << "recycled pool does not cover every recycled span of shard " << shard;
    donated_out_sum += d.donated_out(shard);
    donated_in_sum += d.donated_in(shard);
    returned_out_sum += d.returned_out(shard);
    returned_in_sum += d.returned_in(shard);
  }
  EXPECT_EQ(donated_out_sum, donated_in_sum);
  EXPECT_EQ(returned_out_sum, returned_in_sum);
  EXPECT_EQ(d.total_donated(), donated_out_sum);
  EXPECT_EQ(d.total_returned(), returned_out_sum);
  EXPECT_LE(d.total_returned(), d.total_donated())
      << "only spans that left home via donation can be returned";
}

// ---- Randomized lifecycle stress against the bare directory ----
//
// Drives the directory with random lifecycle steps while mirroring every
// move in a host-side dense shadow model (one owner/home/state entry per
// span). The auditor is O(1)-amortized: each step checks the tallies of the
// shards it touched, the spans it touched, and the first and last span of
// every directory leaf and every initial shard slice (where the lazy table's
// arithmetic defaults and its leaf indexing meet); a full O(num_spans) sweep
// runs every kSweepEvery steps plus once at the end.
class DirectoryStress {
 public:
  static constexpr std::uint64_t kSpansPerShard = 96;
  static constexpr std::uint32_t kSweepEvery = 512;

  DirectoryStress(std::uint64_t seed, int shards, std::uint64_t spans_per_shard = kSpansPerShard)
      : rng_(seed),
        shards_(shards),
        d_(kNgxHeapBase, static_cast<std::uint64_t>(shards) * spans_per_shard * kSpan, kSpan,
           shards) {
    const std::uint64_t n = d_.num_spans();
    owner_.resize(n);
    home_.resize(n);
    state_.assign(n, SpanState::kUngranted);
    for (std::uint64_t s = 0; s < n; ++s) {
      owner_[s] = static_cast<int>(s / spans_per_shard);
      home_[s] = owner_[s];
    }
    for (std::uint64_t first = 0; first < n; first += SpanDirectory::kLeafSpans) {
      boundaries_.push_back(first);
      boundaries_.push_back(std::min(first + SpanDirectory::kLeafSpans, n) - 1);
    }
    for (std::uint64_t first = 0; first < n; first += spans_per_shard) {
      boundaries_.push_back(first);
      boundaries_.push_back(first + spans_per_shard - 1);
    }
    free_.assign(static_cast<std::size_t>(shards), spans_per_shard);
    away_.assign(static_cast<std::size_t>(shards), 0);
    donated_out_.assign(static_cast<std::size_t>(shards), 0);
    donated_in_.assign(static_cast<std::size_t>(shards), 0);
    returned_out_.assign(static_cast<std::size_t>(shards), 0);
    returned_in_.assign(static_cast<std::size_t>(shards), 0);
  }

  void Run(std::uint32_t steps) {
    for (std::uint32_t i = 0; i < steps && !::testing::Test::HasFatalFailure(); ++i) {
      touched_.clear();
      Step();
      CheckSpans(touched_);
      CheckSpans(boundaries_);
      if ((i + 1) % kSweepEvery == 0) {
        FullSweep();
      }
    }
    FullSweep();
  }

 private:
  void Step() {
    const int s = static_cast<int>(rng_.Below(static_cast<std::uint64_t>(shards_)));
    const std::uint64_t pick = rng_.Below(100);
    if (pick < 30) {
      StepGrant(s);
    } else if (pick < 55) {
      StepUnmap(s);
    } else if (pick < 70) {
      StepTake(s);
    } else if (pick < 85) {
      StepDonate(s);
    } else {
      StepReturn(s);
    }
  }

  // Finds a run of 1..max_len spans owned by `s` whose every span satisfies
  // `pred`, probing from a random start. Returns {first, 0} when none exists.
  template <typename Pred>
  std::pair<std::uint64_t, std::uint64_t> FindRun(int s, std::uint64_t max_len, Pred pred) {
    const std::uint64_t n = owner_.size();
    const std::uint64_t start = rng_.Below(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint64_t i = start + k < n ? start + k : start + k - n;
      if (owner_[i] != s || !pred(i)) {
        continue;
      }
      std::uint64_t len = 1;
      while (len < max_len && i + len < n && owner_[i + len] == s && pred(i + len)) {
        ++len;
      }
      return {i, len};
    }
    return {0, 0};
  }

  void StepGrant(int s) {
    const auto [first, len] =
        FindRun(s, 1 + rng_.Below(3), [&](std::uint64_t i) { return state_[i] != SpanState::kGranted; });
    if (len == 0) {
      return;
    }
    d_.NoteMapped(s, d_.AddrOfSpan(first), len * kSpan);
    for (std::uint64_t i = first; i < first + len; ++i) {
      state_[i] = SpanState::kGranted;
      touched_.push_back(i);
    }
    free_[static_cast<std::size_t>(s)] -= len;
    AuditShard(s);
  }

  void StepUnmap(int s) {
    const auto [first, len] =
        FindRun(s, 1 + rng_.Below(3), [&](std::uint64_t i) { return state_[i] == SpanState::kGranted; });
    if (len == 0) {
      return;
    }
    d_.NoteUnmapped(s, d_.AddrOfSpan(first), len * kSpan);
    for (std::uint64_t i = first; i < first + len; ++i) {
      state_[i] = SpanState::kRecycled;
      touched_.push_back(i);
    }
    free_[static_cast<std::size_t>(s)] += len;
    AuditShard(s);
  }

  void StepTake(int s) {
    const std::uint64_t n = 1ull << rng_.Below(3);  // 1, 2 or 4 spans
    const Addr base = d_.TakeRecycled(s, n);
    if (base == kNullAddr) {
      return;
    }
    const std::uint64_t first = (base - kNgxHeapBase) / kSpan;
    for (std::uint64_t i = first; i < first + n; ++i) {
      ASSERT_EQ(owner_[i], s) << "TakeRecycled handed out a foreign span";
      ASSERT_EQ(state_[i], SpanState::kRecycled) << "TakeRecycled handed out a live span";
      state_[i] = SpanState::kUngranted;  // back inside the provider window
      touched_.push_back(i);
    }
    AuditShard(s);  // free count must NOT change: the spans stay owned
  }

  void StepDonate(int s) {
    if (shards_ < 2) {
      return;
    }
    int t = static_cast<int>(rng_.Below(static_cast<std::uint64_t>(shards_ - 1)));
    if (t >= s) {
      ++t;
    }
    // Granted spans are never donated: the driver only ever offers free runs,
    // and the death tests below pin the directory's enforcement of the rule.
    const auto [first, len] =
        FindRun(s, 1 + rng_.Below(4), [&](std::uint64_t i) { return state_[i] != SpanState::kGranted; });
    if (len == 0) {
      return;
    }
    d_.TransferRange(d_.AddrOfSpan(first), len, s, t);
    for (std::uint64_t i = first; i < first + len; ++i) {
      state_[i] = SpanState::kUngranted;  // recycled spans are lifted out of the pool
      owner_[i] = t;
      touched_.push_back(i);
      if (home_[i] != s) {
        --away_[static_cast<std::size_t>(s)];
      }
      if (home_[i] != t) {
        ++away_[static_cast<std::size_t>(t)];
      }
    }
    free_[static_cast<std::size_t>(s)] -= len;
    free_[static_cast<std::size_t>(t)] += len;
    donated_out_[static_cast<std::size_t>(s)] += len;
    donated_in_[static_cast<std::size_t>(t)] += len;
    AuditShard(s);
    AuditShard(t);
  }

  void StepReturn(int s) {
    int home = -1;
    std::uint64_t n = 0;
    const Addr base = d_.FindRecycledAwayRun(s, 1 + rng_.Below(4), &home, &n);
    if (base == kNullAddr) {
      return;
    }
    const std::uint64_t first = (base - kNgxHeapBase) / kSpan;
    for (std::uint64_t i = first; i < first + n; ++i) {
      ASSERT_EQ(owner_[i], s) << "returnable run not owned by the holder";
      ASSERT_EQ(state_[i], SpanState::kRecycled) << "return targeted a non-recycled span";
      ASSERT_EQ(home_[i], home) << "returnable run mixes home shards";
      ASSERT_NE(home_[i], s) << "returnable run is already home";
    }
    ASSERT_EQ(d_.ReturnRange(base, n, s), home);
    for (std::uint64_t i = first; i < first + n; ++i) {
      state_[i] = SpanState::kUngranted;
      owner_[i] = home;
      touched_.push_back(i);
    }
    away_[static_cast<std::size_t>(s)] -= n;
    free_[static_cast<std::size_t>(s)] -= n;
    free_[static_cast<std::size_t>(home)] += n;
    returned_out_[static_cast<std::size_t>(s)] += n;
    returned_in_[static_cast<std::size_t>(home)] += n;
    AuditShard(s);
    AuditShard(home);
  }

  // O(1) per-step audit: only the touched shard's tallies.
  void AuditShard(int s) {
    const auto i = static_cast<std::size_t>(s);
    ASSERT_EQ(d_.free_spans(s), free_[i]) << "free-span tally diverged, shard " << s;
    ASSERT_EQ(d_.away_spans(s), away_[i]) << "away-span tally diverged, shard " << s;
    ASSERT_EQ(d_.donated_out(s), donated_out_[i]);
    ASSERT_EQ(d_.donated_in(s), donated_in_[i]);
    ASSERT_EQ(d_.returned_out(s), returned_out_[i]);
    ASSERT_EQ(d_.returned_in(s), returned_in_[i]);
  }

  // Every listed span has exactly the shadow's owner, home and state.
  void CheckSpans(const std::vector<std::uint64_t>& spans) {
    for (const std::uint64_t s : spans) {
      ASSERT_EQ(d_.OwnerOfSpan(s), owner_[s]) << "owner diverged, span " << s;
      ASSERT_EQ(d_.HomeOfSpan(s), home_[s]) << "home must never change, span " << s;
      ASSERT_EQ(d_.StateOfSpan(s), state_[s]) << "state diverged, span " << s;
    }
  }

  // Full O(num_spans) sweep: every span matches the shadow, and every
  // shard's recycled pool covers exactly its recycled spans with disjoint
  // runs.
  void FullSweep() {
    std::vector<std::uint64_t> all(d_.num_spans());
    std::iota(all.begin(), all.end(), 0);
    CheckSpans(all);
    AuditDirectoryConsistency(d_);
    for (int s = 0; s < shards_; ++s) {
      AuditShard(s);
    }
  }

  Rng rng_;
  int shards_;
  SpanDirectory d_;
  // Shadow model.
  std::vector<int> owner_;
  std::vector<int> home_;
  std::vector<SpanState> state_;
  std::vector<std::uint64_t> free_;
  std::vector<std::uint64_t> away_;
  std::vector<std::uint64_t> donated_out_;
  std::vector<std::uint64_t> donated_in_;
  std::vector<std::uint64_t> returned_out_;
  std::vector<std::uint64_t> returned_in_;
  std::vector<std::uint64_t> boundaries_;  // first/last span of every leaf and slice
  std::vector<std::uint64_t> touched_;     // spans the current step wrote
};

std::string SeedShardsName(const ::testing::TestParamInfo<std::tuple<std::uint64_t, int>>& p) {
  return "seed" + std::to_string(std::get<0>(p.param)) + "_shards" +
         std::to_string(std::get<1>(p.param));
}

class SpanRebalanceStress
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(SpanRebalanceStress, RandomLifecycleKeepsEveryInvariant) {
  const auto [seed, shards] = GetParam();
  DirectoryStress stress(seed, shards);
  stress.Run(12000);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, SpanRebalanceStress,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 42, 99, 12345, 0xdeadbeef,
                                                        0xfeedface),
                       ::testing::Values(2, 4, 8)),
    SeedShardsName);

// Slices that are not a multiple of the directory leaf (2900 spans, 3 and 6
// shards): initial slices start and end mid-leaf, the last leaf is partial,
// and runs straddle leaf boundaries.
class SpanRebalanceLeafStress
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(SpanRebalanceLeafStress, RandomLifecycleMatchesTheDenseModel) {
  const auto [seed, shards] = GetParam();
  DirectoryStress stress(seed, shards, /*spans_per_shard=*/2900);
  stress.Run(4000);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, SpanRebalanceLeafStress,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 42, 0xdeadbeef),
                       ::testing::Values(3, 6)),
    SeedShardsName);

// ---- Randomized stress through the real fabric ----

NgxConfig RebalanceConfig(int shards) {
  NgxConfig cfg;  // offloaded, async frees, segregated metadata
  cfg.num_shards = shards;
  cfg.hugepage_spans = false;  // 4-KiB-page spans
  cfg.heap_window = static_cast<std::uint64_t>(shards) * 4 * kMiB;  // 64 spans/shard
  cfg.span_donation = true;
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  return cfg;
}

class SpanRebalanceFabricStress
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

// Two clients hammer a watermarked fabric with a size mix whose large tail
// (> the 32 KiB small-class ceiling) keeps spans mapping and unmapping, so
// refills, offers and returns all fire while the shadow heap checks block
// integrity. At the end, every directory invariant must still hold and the
// allocator must balance its books.
TEST_P(SpanRebalanceFabricStress, RandomMallocFreeChurnKeepsTheDirectoryConsistent) {
  const auto [seed, shards] = GetParam();
  auto machine = MakeMachine(shards + 2);
  auto sys = MakeNgxSystem(*machine, RebalanceConfig(shards));
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
  ex.FreeAll(0);
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  AuditDirectoryConsistency(*sys.allocator->directory());
  const AllocatorStats stats = sys.allocator->stats();
  // Shard-level retries on the inline donation path count a failed attempt
  // in both mallocs and oom_failures; every USER malloc must still balance
  // against a free, and none may have failed outright.
  EXPECT_EQ(stats.mallocs - stats.oom_failures, stats.frees);
  EXPECT_EQ(stats.bytes_live, 0u);
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, SpanRebalanceFabricStress,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 42, 99, 12345, 0xdeadbeef,
                                                        0xfeedface),
                       ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, int>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

// ---- The same stress under heterogeneous per-tenant traits ----
//
// The traits layer (DESIGN.md §15) must not bend a single span-economy
// invariant: with the two clients running OPPOSITE contracts -- client 0
// low-latency (unbatched frees, latency lane) and client 1 throughput
// (deep free batches, bulk lane, its home shard's watermarks widened) --
// plus lane admission on, the directory auditor and the shadow-heap
// exerciser must hold exactly as they do for the homogeneous sweep, and
// the books must still balance after the final flush.

NgxConfig TenantRebalanceConfig(int shards) {
  NgxConfig cfg = RebalanceConfig(shards);
  cfg.qos_lanes = true;
  cfg.lane_quantum = 8;
  TenantSpec fe;
  fe.name = "frontend";
  fe.traits = MakeTenantTraits("low_latency");
  fe.cores = {0};
  TenantSpec an;
  an.name = "analytics";
  an.traits = MakeTenantTraits("throughput");
  an.traits.free_batch = 8;
  // Widen the watermark band of the shard this tenant homes on (its static
  // route, shard 1): heterogeneous per-shard marks must rebalance cleanly
  // against the global band on every other shard.
  an.traits.span_low_mark = 4;
  an.traits.span_high_mark = 24;
  an.cores = {1};
  cfg.tenants = {fe, an};
  return cfg;
}

class TenantSpanRebalanceFabricStress
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(TenantSpanRebalanceFabricStress, HeterogeneousTraitsKeepTheDirectoryConsistent) {
  const auto [seed, shards] = GetParam();
  auto machine = MakeMachine(shards + 2);
  auto sys = MakeNgxSystem(*machine, TenantRebalanceConfig(shards));
  ASSERT_TRUE(sys.allocator->rebalancing());
  ASSERT_EQ(sys.allocator->core_lane(0), QosLane::kLatency);
  ASSERT_EQ(sys.allocator->core_lane(1), QosLane::kBulk);
  ASSERT_EQ(sys.allocator->shard_low_mark(1), 4u);
  ShadowHeapExerciser ex(*machine, *sys.allocator, seed);
  for (int round = 0; round < 2; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 500, 40, 64, 48 * 1024);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  ex.FreeAll(0);
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  AuditDirectoryConsistency(*sys.allocator->directory());
  const AllocatorStats stats = sys.allocator->stats();
  EXPECT_EQ(stats.mallocs - stats.oom_failures, stats.frees);
  EXPECT_EQ(stats.bytes_live, 0u);
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, TenantSpanRebalanceFabricStress,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 42, 99, 12345, 0xdeadbeef,
                                                        0xfeedface),
                       ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, int>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_shards" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Death tests: the return protocol's fatal bookkeeping guards ----

TEST(SpanRebalanceDeath, DoubleReturnDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  const Addr away = d.AddrOfSpan(70);  // shard 1's slice
  d.TransferRange(away, 1, 1, 0);
  d.NoteMapped(0, away, kSpan);
  d.NoteUnmapped(0, away, kSpan);
  EXPECT_EQ(d.ReturnRange(away, 1, 0), 1);
  // Shard 0 no longer owns the span; returning it again is the double-return
  // bug the directory exists to catch.
  EXPECT_DEATH_IF_SUPPORTED(d.ReturnRange(away, 1, 0), "double return");
}

TEST(SpanRebalanceDeath, ReturningAMappedSpanDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  const Addr away = d.AddrOfSpan(70);
  d.TransferRange(away, 1, 1, 0);
  d.NoteMapped(0, away, kSpan);
  // The span still backs live mappings: flowing it home would double-account
  // the address range between two providers.
  EXPECT_DEATH_IF_SUPPORTED(d.ReturnRange(away, 1, 0), "fully-recycled");
}

TEST(SpanRebalanceDeath, ReturningAHomeSpanDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  d.NoteMapped(0, kNgxHeapBase, kSpan);
  d.NoteUnmapped(0, kNgxHeapBase, kSpan);
  EXPECT_DEATH_IF_SUPPORTED(d.ReturnRange(kNgxHeapBase, 1, 0), "already home");
}

// ---- Wire-protocol units: the three new fabric ops driven directly ----

NgxConfig DonationOnlyConfig() {
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.hugepage_spans = false;
  cfg.heap_window = 8 * kMiB;  // 64 spans per shard
  cfg.span_donation = true;    // watermarks off: no hook interference
  return cfg;
}

TEST(SpanRebalanceProtocol, RequestSpansCarvesFromTheDonor) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  Env env(*machine, 0);
  // arg = (want << 8) | requester: shard 0 asks shard 1 for 2 spans.
  const std::uint64_t resp =
      sys.fabric->SyncRequest(env, 1, OffloadOp::kRequestSpans, (2ull << 8) | 0);
  ASSERT_NE(resp, kNullAddr);
  const std::uint64_t got = resp & 0xffff;
  const Addr base = resp & ~0xffffull;
  ASSERT_GE(got, 2u);
  const SpanDirectory& d = *sys.allocator->directory();
  EXPECT_EQ(d.OwnerOfAddr(base), 0) << "carved spans must change owner donor-side";
  EXPECT_EQ(d.HomeOfSpan(d.SpanOfAddr(base)), 1) << "home never moves";
  EXPECT_EQ(d.donated_out(1), got);
  EXPECT_EQ(d.donated_in(0), got);
  EXPECT_EQ(d.away_spans(0), got);
  AuditDirectoryConsistency(d);
}

TEST(SpanRebalanceProtocol, OfferSpansGraftsIntoTheRecipientProvider) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  SpanDirectory& d = *sys.allocator->directory();
  // Sender side of kOfferSpans: carve 2 spans off shard 1's window and move
  // ownership before the message, exactly like TryOfferSurplus does.
  const Addr base = sys.allocator->heap(1).span_provider().TrimTail(2 * kSpan, kSpan);
  ASSERT_NE(base, kNullAddr);
  d.TransferRange(base, 2, 1, 0);
  const std::uint64_t before = sys.allocator->heap(0).span_provider().FreeBytes();
  Env env(*machine, 0);
  // arg = base | nspans: span bases are 64 KiB-aligned, the low 16 bits are free.
  EXPECT_EQ(sys.fabric->SyncRequest(env, 0, OffloadOp::kOfferSpans, base | 2), 1u);
  EXPECT_EQ(sys.allocator->heap(0).span_provider().FreeBytes(), before + 2 * kSpan)
      << "the recipient must graft the offered range onto its provider";
  AuditDirectoryConsistency(d);
}

TEST(SpanRebalanceProtocol, ReturnSpanGraftsAtTheHomeShard) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  SpanDirectory& d = *sys.allocator->directory();
  // Manufacture a recycled away run: 2 of shard 1's spans live at shard 0,
  // get mapped there and fully recycled again.
  const Addr base = sys.allocator->heap(1).span_provider().TrimTail(2 * kSpan, kSpan);
  ASSERT_NE(base, kNullAddr);
  d.TransferRange(base, 2, 1, 0);
  d.NoteMapped(0, base, 2 * kSpan);
  d.NoteUnmapped(0, base, 2 * kSpan);
  int home = -1;
  std::uint64_t n = 0;
  ASSERT_EQ(d.FindRecycledAwayRun(0, 16, &home, &n), base);
  EXPECT_EQ(home, 1);
  EXPECT_EQ(n, 2u);
  // Sender side first (ownership moves before the message), then the wire op
  // grafts the range at home.
  ASSERT_EQ(d.ReturnRange(base, n, 0), home);
  const std::uint64_t before = sys.allocator->heap(1).span_provider().FreeBytes();
  Env env(*machine, 0);
  EXPECT_EQ(sys.fabric->SyncRequest(env, home, OffloadOp::kReturnSpan, base | n), 1u);
  EXPECT_EQ(sys.allocator->heap(1).span_provider().FreeBytes(), before + n * kSpan);
  EXPECT_EQ(d.away_spans(0), 0u);
  EXPECT_EQ(d.returned_out(0), 2u);
  EXPECT_EQ(d.returned_in(1), 2u);
  EXPECT_EQ(d.total_returned(), 2u);
  AuditDirectoryConsistency(d);
}

// ---- End-to-end watermark behaviour ----

// Client 0 routes to shard 0 under static_by_client; a run of 48 KiB blocks
// (one span each, above the small-class ceiling) outgrows shard 0's 64-span
// slice. With watermarks armed the background refill must stay ahead of
// demand: the inline kDonateSpan fallback never fires on the malloc path.
TEST(SpanRebalanceWatermark, ProactiveRefillKeepsTheInlineFallbackIdle) {
  auto machine = MakeMachine(3);
  NgxConfig cfg = DonationOnlyConfig();
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_TRUE(sys.allocator->rebalancing());
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 100; ++i) {
    const Addr a = sys.allocator->Malloc(env, 48 * 1024);
    ASSERT_NE(a, kNullAddr) << "refill must keep shard 0 serviceable, alloc " << i;
    blocks.push_back(a);
  }
  const SpanDirectory& d = *sys.allocator->directory();
  EXPECT_GT(d.donated_in(0), 0u) << "demand never outgrew the slice";
  EXPECT_GT(sys.allocator->rebalance_moves(), 0u);
  EXPECT_EQ(sys.allocator->inline_donation_fallbacks(), 0u)
      << "the watermark refill fell behind and donation hit the malloc path";
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
  // Release the burst. Every donated span that was actually consumed (mapped
  // then unmapped) must flow home; only the refill's unconsumed headroom --
  // kUngranted spans sitting inside shard 0's provider window, bounded by
  // the low mark plus one span -- may legitimately stay away.
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  sys.allocator->Flush(env);
  int home = -1;
  std::uint64_t n = 0;
  for (int i = 0;
       i < 50 && d.FindRecycledAwayRun(0, 16, &home, &n) != kNullAddr; ++i) {
    sys.fabric->DrainAll();
  }
  EXPECT_EQ(d.FindRecycledAwayRun(0, 16, &home, &n), kNullAddr)
      << "returns never drained the recycled away set";
  const std::uint64_t residue = d.away_spans(0);
  EXPECT_LE(residue, cfg.span_low_mark + 1) << "more than refill headroom stayed away";
  for (std::uint64_t s = 0; s < d.num_spans(); ++s) {
    if (d.OwnerOfSpan(s) == 0 && d.HomeOfSpan(s) != 0) {
      EXPECT_EQ(d.StateOfSpan(s), SpanState::kUngranted)
          << "a consumed (recycled) away span failed to return home";
    }
  }
  EXPECT_EQ(d.free_spans(0), 64u + residue);
  EXPECT_EQ(d.free_spans(1), 64u - residue);
  EXPECT_EQ(d.total_returned(), d.total_donated() - residue)
      << "every recycled donated span must flow home";
  AuditDirectoryConsistency(d);
}

// With span_low_mark = 0 the rebalancer must stay completely unwired: same
// burst, inline donation does all the work, and no background moves happen.
TEST(SpanRebalanceWatermark, ZeroLowMarkDisablesTheRebalancer) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  ASSERT_FALSE(sys.allocator->rebalancing());
  Env env(*machine, 0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(sys.allocator->Malloc(env, 48 * 1024), kNullAddr);
  }
  EXPECT_GT(sys.allocator->inline_donation_fallbacks(), 0u)
      << "without watermarks the inline path is the only donation source";
  EXPECT_EQ(sys.allocator->rebalance_moves(), 0u);
  EXPECT_EQ(sys.allocator->directory()->total_returned(), 0u);
}

// A compute-only thread: advances its core's clock through the scheduler
// without ever touching the allocator (an application phase with no malloc
// traffic, so no drains and no post-drain ticks).
class ComputeOnlyThread : public SimThread {
 public:
  ComputeOnlyThread(int core, int steps) : core_(core), steps_(steps) {}
  bool Step(Env& env) override {
    env.Work(64);
    return --steps_ > 0;
  }
  int core_id() const override { return core_; }

 private:
  int core_;
  int steps_;
};

// The periodic timer's reason to exist (config.watermark_timer_cycles): the
// other two tick paths both have a blind spot. Post-drain hooks need fabric
// traffic; idle hooks only fire for cores strictly BEHIND the scheduler's
// front. A shard server that just served a burst sits AHEAD of every
// application core, so on a busy machine neither path reaches it, however
// much background work (returns home, refills for a starved peer) is
// pending. The timer bounds that wait to one period.
//
// Both variants construct the identical pending state with ZERO tick
// activity left over (two spans donated over the wire, then marked consumed
// and recycled host-side -- the protocol tests' idiom), park both shard
// servers far ahead of the lone application core -- the served-a-burst
// posture -- and run a pure-compute tail that only advances virtual time.
// Without the timer the recycled away spans are stuck forever; with it they
// flow home on the passage of time alone.
TEST(SpanRebalanceWatermark, TimerReachesAShardTheIdleWindowCannotReach) {
  constexpr std::uint64_t kPeriod = 50 * 1000;
  auto setup = [](std::uint64_t timer_cycles, std::unique_ptr<Machine>* machine_out,
                  NgxSystem* sys_out) {
    auto machine = MakeMachine(3);
    NgxConfig cfg = DonationOnlyConfig();
    cfg.span_low_mark = 8;
    cfg.span_high_mark = 16;
    cfg.watermark_timer_cycles = timer_cycles;
    NgxSystem sys = MakeNgxSystem(*machine, cfg);
    ASSERT_TRUE(sys.allocator->rebalancing());
    Env env(*machine, 0);
    // Shard 0 pulls two spans from shard 1, maps and fully recycles them:
    // a recycled away run that the return protocol must send home. Both
    // free-span counts stay far from the marks, so the donor-side drain
    // tick inside the SyncRequest has nothing to act on -- the pending
    // return is created entirely after the last tick opportunity.
    const std::uint64_t resp =
        sys.fabric->SyncRequest(env, 1, OffloadOp::kRequestSpans, (2ull << 8) | 0);
    ASSERT_NE(resp, 0u);
    const Addr base = resp & ~0xffffull;
    const std::uint64_t got = resp & 0xffff;
    SpanDirectory& d = *sys.allocator->directory();
    d.NoteMapped(0, base, got * kSpan);
    d.NoteUnmapped(0, base, got * kSpan);
    ASSERT_GT(d.away_spans(0), 0u);
    *machine_out = std::move(machine);
    *sys_out = std::move(sys);
  };
  // Timer hooks only fire from the scheduler, so the burst above is
  // bit-identical in both variants: same pre-tail state to diverge from.
  std::unique_ptr<Machine> m_off;
  NgxSystem sys_off;
  setup(0, &m_off, &sys_off);
  std::unique_ptr<Machine> m_on;
  NgxSystem sys_on;
  setup(kPeriod, &m_on, &sys_on);
  const SpanDirectory& d_off = *sys_off.allocator->directory();
  const SpanDirectory& d_on = *sys_on.allocator->directory();
  ASSERT_EQ(d_off.away_spans(0), d_on.away_spans(0));
  int home = -1;
  std::uint64_t n = 0;
  const Addr stuck = d_on.FindRecycledAwayRun(0, 16, &home, &n);
  ASSERT_NE(stuck, kNullAddr)
      << "returns completed during the burst; nothing left for the tail";
  ASSERT_EQ(d_off.FindRecycledAwayRun(0, 16, &home, &n), stuck);
  const std::uint64_t moves_before = sys_off.allocator->rebalance_moves();
  ASSERT_EQ(moves_before, sys_on.allocator->rebalance_moves());

  // The quiescent tail. Each round re-parks the servers ahead (they are
  // busy serving someone else) and advances the application core by less
  // than the lead, so the idle-hook window never opens: every core the
  // scheduler sees stays behind both servers throughout.
  auto run_tail = [&](Machine& machine, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      const std::uint64_t front = machine.core(0).now();
      machine.core(1).AdvanceTo(front + 40 * kPeriod);
      machine.core(2).AdvanceTo(front + 40 * kPeriod);
      ComputeOnlyThread t(0, 400);
      Scheduler::Run(machine, {&t});
      ASSERT_LT(machine.core(0).now(), machine.core(1).now());
      ASSERT_LT(machine.core(0).now(), machine.core(2).now());
    }
  };
  run_tail(*m_off, 20);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  // Without the timer: not one background move in 20 rounds of pure time.
  EXPECT_EQ(sys_off.allocator->rebalance_moves(), moves_before);
  EXPECT_EQ(d_off.FindRecycledAwayRun(0, 16, &home, &n), stuck);

  run_tail(*m_on, 20);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }
  // With it: the catch-up tick fires each round and the returns converge.
  EXPECT_GT(sys_on.allocator->rebalance_moves(), moves_before);
  EXPECT_EQ(d_on.FindRecycledAwayRun(0, 16, &home, &n), kNullAddr)
      << "timer ticks never finished sending recycled away spans home";
  EXPECT_EQ(d_on.away_spans(0), 0u);
  EXPECT_EQ(d_on.free_spans(0), 64u) << "the home split must be restored";
  EXPECT_EQ(d_on.free_spans(1), 64u);
  AuditDirectoryConsistency(d_on);
}

// ---- TakeRecycled next-fit cursor regression ----

// A fragmented 64Ki-span directory: 2048 single-span runs (which can never
// satisfy a 2-span take) followed by 256 two-span runs. A scan restarting
// from run 0 re-rejects every single-span run per request (~525k probes for
// 256 takes); the next-fit cursor must keep the whole sequence
// amortized-linear.
TEST(SpanRebalanceCursor, FragmentedTakesStayAmortizedLinear) {
  constexpr std::uint64_t kSpans = 64 * 1024;
  SpanDirectory d(kNgxHeapBase, kSpans * kSpan, kSpan, 1);
  d.NoteMapped(0, kNgxHeapBase, kSpans * kSpan);
  // 2048 isolated single-span holes in the low half...
  for (std::uint64_t i = 0; i < 2048; ++i) {
    d.NoteUnmapped(0, d.AddrOfSpan(2 * i), kSpan);
  }
  // ...then 256 isolated two-span holes above them.
  const std::uint64_t pairs_at = 8192;
  for (std::uint64_t i = 0; i < 256; ++i) {
    d.NoteUnmapped(0, d.AddrOfSpan(pairs_at + 4 * i), 2 * kSpan);
  }
  ASSERT_EQ(d.RecycledRuns(0).size(), 2048u + 256u);
  const std::uint64_t steps_before = d.take_scan_steps();
  Addr prev = kNullAddr;
  for (int i = 0; i < 256; ++i) {
    const Addr base = d.TakeRecycled(0, 2);
    ASSERT_NE(base, kNullAddr) << "take " << i << " found no two-span run";
    EXPECT_NE(base, prev) << "the same run was handed out twice";
    prev = base;
  }
  const std::uint64_t scanned = d.take_scan_steps() - steps_before;
  // First take walks past the 2048 singles once; each later take resumes at
  // the cursor and succeeds in O(1). Generous slack, far below the ~525k a
  // restart-from-zero scan costs.
  EXPECT_LT(scanned, 2048u + 10u * 256u + 64u)
      << "next-fit cursor regressed to rescanning the fragmented prefix";
  AuditDirectoryConsistency(d);
}

}  // namespace
}  // namespace ngx
