// Machine-level tests: hierarchy walks, coherence protocol, TLB charging,
// PMU attribution, software prefetch.
#include "src/sim/machine.h"

#include <gtest/gtest.h>

#include "src/sim/env.h"

namespace ngx {
namespace {

TEST(Machine, FirstAccessMissesEverywhereSecondHitsL1) {
  Machine m(MachineConfig::Default(1));
  Env env(m, 0);
  env.Load<std::uint64_t>(0x1000);
  EXPECT_EQ(m.core(0).pmu().llc_load_misses, 1u);
  EXPECT_EQ(m.core(0).pmu().l1d_load_misses, 1u);
  const std::uint64_t misses_before = m.core(0).pmu().l1d_load_misses;
  env.Load<std::uint64_t>(0x1008);  // same line
  EXPECT_EQ(m.core(0).pmu().l1d_load_misses, misses_before);
}

TEST(Machine, MultiLineAccessTouchesEachLine) {
  Machine m(MachineConfig::Default(1));
  Env env(m, 0);
  env.TouchRead(0x1000, 256);  // 4 lines
  EXPECT_EQ(m.core(0).pmu().loads, 4u);
  EXPECT_EQ(m.core(0).pmu().llc_load_misses, 4u);
}

TEST(Machine, StoreMakesCoreOwner) {
  Machine m(MachineConfig::Default(2));
  Env e0(m, 0);
  e0.Store<std::uint64_t>(0x1000, 1);
  EXPECT_EQ(m.OwnerOf(0x1000), 0);
  EXPECT_EQ(m.SharersOf(0x1000), 1u);
}

TEST(Machine, RemoteReadDowngradesOwner) {
  Machine m(MachineConfig::Default(2));
  Env e0(m, 0);
  Env e1(m, 1);
  e0.Store<std::uint64_t>(0x1000, 7);
  e1.Load<std::uint64_t>(0x1000);
  EXPECT_EQ(m.OwnerOf(0x1000), -1);
  EXPECT_EQ(m.SharersOf(0x1000), 0b11u);
  EXPECT_EQ(m.core(1).pmu().remote_hitm, 1u);
  EXPECT_EQ(m.core(1).pmu().llc_load_misses, 1u);
  EXPECT_EQ(e1.Load<std::uint64_t>(0x1000), 7u);  // data visible
}

TEST(Machine, RemoteWriteInvalidatesOwner) {
  Machine m(MachineConfig::Default(2));
  Env e0(m, 0);
  Env e1(m, 1);
  e0.Store<std::uint64_t>(0x1000, 7);
  e1.Store<std::uint64_t>(0x1000, 8);
  EXPECT_EQ(m.OwnerOf(0x1000), 1);
  EXPECT_EQ(m.SharersOf(0x1000), 0b10u);
  EXPECT_EQ(m.core(0).pmu().invalidations_received, 1u);
  EXPECT_EQ(e0.Load<std::uint64_t>(0x1000), 8u);
}

TEST(Machine, WriteToSharedLineInvalidatesSharers) {
  Machine m(MachineConfig::Default(3));
  Env e0(m, 0);
  Env e1(m, 1);
  Env e2(m, 2);
  e0.Load<std::uint64_t>(0x1000);
  e1.Load<std::uint64_t>(0x1000);
  e2.Load<std::uint64_t>(0x1000);
  EXPECT_EQ(m.SharersOf(0x1000), 0b111u);
  e0.Store<std::uint64_t>(0x1000, 1);
  EXPECT_EQ(m.OwnerOf(0x1000), 0);
  EXPECT_EQ(m.SharersOf(0x1000), 0b001u);
  EXPECT_GE(m.core(0).pmu().invalidations_sent, 2u);
}

TEST(Machine, AtMostOneOwnerInvariantUnderRandomTraffic) {
  Machine m(MachineConfig::Default(4));
  std::uint64_t x = 123456789;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int core = static_cast<int>((x >> 33) % 4);
    const Addr addr = 0x1000 + ((x >> 16) % 64) * 64;
    Env env(m, core);
    if ((x >> 40) & 1) {
      env.Store<std::uint64_t>(addr, x);
    } else {
      env.Load<std::uint64_t>(addr);
    }
    const int owner = m.OwnerOf(addr);
    if (owner != -1) {
      EXPECT_EQ(m.SharersOf(addr), 1u << owner) << "owner must be the only sharer";
    }
  }
}

TEST(Machine, CoherentDataUnderRandomTraffic) {
  // The machine model must never lose stores: SimMemory always holds the
  // latest value regardless of which core wrote it.
  Machine m(MachineConfig::Default(4));
  std::uint64_t shadow[16] = {};
  std::uint64_t x = 42;
  for (int i = 0; i < 4000; ++i) {
    x = x * 2862933555777941757ull + 3037000493ull;
    const int core = static_cast<int>(x % 4);
    const std::size_t slot = (x >> 8) % 16;
    const Addr addr = 0x9000 + slot * 64;
    Env env(m, core);
    if ((x >> 20) & 1) {
      shadow[slot] = x;
      env.Store<std::uint64_t>(addr, x);
    } else {
      ASSERT_EQ(env.Load<std::uint64_t>(addr), shadow[slot]);
    }
  }
}

TEST(Machine, AtomicRmwCostsMoreThanPlainStore) {
  Machine ma(MachineConfig::Default(1));
  Machine mb(MachineConfig::Default(1));
  Env ea(ma, 0);
  Env eb(mb, 0);
  // Warm both lines identically.
  ea.Store<std::uint64_t>(0x1000, 1);
  eb.Store<std::uint64_t>(0x1000, 1);
  const std::uint64_t t0a = ma.core(0).now();
  const std::uint64_t t0b = mb.core(0).now();
  ea.Store<std::uint64_t>(0x1000, 2);
  eb.AtomicFetchAdd(0x1000, 1);
  const std::uint64_t store_cost = ma.core(0).now() - t0a;
  const std::uint64_t rmw_cost = mb.core(0).now() - t0b;
  EXPECT_GE(rmw_cost, store_cost + ma.config().atomic_rmw_latency / 2);
}

TEST(Machine, AtomicsPreserveValueSemantics) {
  Machine m(MachineConfig::Default(2));
  Env e0(m, 0);
  Env e1(m, 1);
  EXPECT_EQ(e0.AtomicFetchAdd(0x2000, 5), 0u);
  EXPECT_EQ(e1.AtomicFetchAdd(0x2000, 3), 5u);
  EXPECT_EQ(e0.AtomicExchange(0x2000, 100), 8u);
  EXPECT_TRUE(e1.AtomicCompareExchange(0x2000, 100, 7));
  EXPECT_FALSE(e1.AtomicCompareExchange(0x2000, 100, 9));
  EXPECT_EQ(e0.Load<std::uint64_t>(0x2000), 7u);
}

TEST(Machine, TlbMissChargedOncePerPageStream) {
  Machine m(MachineConfig::Default(1));
  Env env(m, 0);
  // 64 distinct 4 KiB pages: each first touch walks.
  for (int i = 0; i < 64; ++i) {
    env.Load<std::uint64_t>(0x10'0000 + static_cast<Addr>(i) * 4096);
  }
  EXPECT_EQ(m.core(0).pmu().dtlb_load_misses, 64u);
  // Re-touch: all in L1 TLB now.
  const std::uint64_t walks = m.core(0).pmu().dtlb_load_misses;
  for (int i = 0; i < 64; ++i) {
    env.Load<std::uint64_t>(0x10'0000 + static_cast<Addr>(i) * 4096);
  }
  EXPECT_EQ(m.core(0).pmu().dtlb_load_misses, walks);
}

TEST(Machine, HugePagesReduceTlbMisses) {
  MachineConfig cfg = MachineConfig::Default(1);
  Machine m(cfg);
  // Map a huge-page region and a small-page region of equal size.
  m.address_map().Add(Region{0x1000'0000, 64ull << 20, PageKind::kHuge2M, "huge"});
  m.address_map().Add(Region{0x8000'0000, 64ull << 20, PageKind::kSmall4K, "small"});
  Env env(m, 0);
  const int kPages = 512;  // touch one line every 128 KiB over 64 MiB
  for (int i = 0; i < kPages; ++i) {
    env.Load<std::uint64_t>(0x1000'0000 + static_cast<Addr>(i) * 128 * 1024);
  }
  const std::uint64_t huge_walks = m.core(0).pmu().dtlb_load_misses;
  for (int i = 0; i < kPages; ++i) {
    env.Load<std::uint64_t>(0x8000'0000 + static_cast<Addr>(i) * 128 * 1024);
  }
  const std::uint64_t small_walks = m.core(0).pmu().dtlb_load_misses - huge_walks;
  EXPECT_LT(huge_walks, small_walks / 4) << "2 MiB pages must cut walks drastically";
}

TEST(Machine, InOrderCorePaysMoreThanOoO) {
  MachineConfig cfg = MachineConfig::Default(2);
  cfg.cores[1] = CoreConfig::InOrder();
  Machine m(cfg);
  Env ooo(m, 0);
  Env ino(m, 1);
  // Same miss-heavy streaming pattern on both cores (disjoint addresses).
  for (int i = 0; i < 200; ++i) {
    ooo.Load<std::uint64_t>(0x100'0000 + static_cast<Addr>(i) * 64);
    ino.Load<std::uint64_t>(0x200'0000 + static_cast<Addr>(i) * 64);
  }
  EXPECT_LT(m.core(0).now(), m.core(1).now());
}

TEST(Machine, AllocScopeAttributesCycles) {
  Machine m(MachineConfig::Default(1));
  Env env(m, 0);
  env.Work(100);
  {
    AllocScope scope(env);
    env.Work(50);
    env.Load<std::uint64_t>(0x1000);
  }
  env.Work(100);
  const PmuCounters& pmu = m.core(0).pmu();
  EXPECT_EQ(pmu.alloc_instructions, 51u);
  EXPECT_GT(pmu.alloc_cycles, 0u);
  EXPECT_LT(pmu.alloc_cycles, pmu.cycles);
}

TEST(Machine, TotalPmuSumsCores) {
  Machine m(MachineConfig::Default(2));
  Env e0(m, 0);
  Env e1(m, 1);
  e0.Work(10);
  e1.Work(20);
  EXPECT_EQ(m.TotalPmu().instructions, 30u);
}

// ---- Software prefetch (Machine::Prefetch) ----

// Core 0 owns 0x1000 modified (value 7); core 1 then prefetches it.
void OwnLineOnCore0(Machine& m) {
  Env e0(m, 0);
  e0.Store<std::uint64_t>(0x1000, 7);
  ASSERT_EQ(m.OwnerOf(0x1000), 0);
}

TEST(MachinePrefetch, RemoteModifiedLineBecomesSharedWithOneHitm) {
  Machine m(MachineConfig::Default(2));
  OwnLineOnCore0(m);
  m.Prefetch(1, 0x1008);
  EXPECT_EQ(m.OwnerOf(0x1000), -1) << "the remote owner must be downgraded";
  EXPECT_EQ(m.SharersOf(0x1000), 0b11u);
  const PmuCounters& p = m.core(1).pmu();
  EXPECT_EQ(p.remote_hitm, 1u);
  EXPECT_EQ(p.sw_prefetches, 1u);
  EXPECT_EQ(p.loads, 0u) << "a prefetch is not a demand load";
  EXPECT_EQ(m.core(0).pmu().writebacks, 1u);
}

TEST(MachinePrefetch, ClockAdvancesByOneInstructionOnly) {
  Machine prefetched(MachineConfig::Default(2));
  Machine worked(MachineConfig::Default(2));
  OwnLineOnCore0(prefetched);
  OwnLineOnCore0(worked);
  // Three rounds so the fractional cpi accumulator crosses a whole cycle.
  for (int i = 0; i < 3; ++i) {
    prefetched.Prefetch(1, 0x1000);
    worked.Work(1, 1);
    EXPECT_EQ(prefetched.core(1).now(), worked.core(1).now()) << "round " << i;
  }
  EXPECT_EQ(prefetched.core(1).pmu().instructions, 3u);
  EXPECT_GT(prefetched.core(1).pmu().remote_hitm, 0u);
}

TEST(MachinePrefetch, ReturnedDelayEqualsADemandLoadCharge) {
  for (const bool in_order : {false, true}) {
    MachineConfig cfg = MachineConfig::Default(2);
    if (in_order) {
      cfg.cores[1] = CoreConfig::InOrder();
    }
    Machine prefetched(cfg);
    Machine loaded(cfg);
    OwnLineOnCore0(prefetched);
    OwnLineOnCore0(loaded);
    const std::uint64_t delay = prefetched.Prefetch(1, 0x1000);
    Env e1(loaded, 1);
    e1.Load<std::uint64_t>(0x1000);
    EXPECT_EQ(delay, loaded.core(1).now()) << (in_order ? "in-order" : "out-of-order");
    EXPECT_GT(delay, prefetched.config().cores[1].l1d.hit_latency)
        << "a remote-owned line costs a transfer";
  }
}

TEST(MachinePrefetch, LaterLoadHitsL1) {
  Machine m(MachineConfig::Default(2));
  OwnLineOnCore0(m);
  m.Prefetch(1, 0x1000);
  const PmuCounters before = m.core(1).pmu();
  const std::uint64_t t0 = m.core(1).now();
  Env e1(m, 1);
  EXPECT_EQ(e1.Load<std::uint64_t>(0x1000), 7u);
  EXPECT_EQ(m.core(1).pmu().l1d_load_misses, before.l1d_load_misses);
  EXPECT_EQ(m.core(1).pmu().remote_hitm, before.remote_hitm);
  EXPECT_LE(m.core(1).now() - t0, m.config().cores[1].l1d.hit_latency);
  // The same holds for a line that came from DRAM.
  m.Prefetch(1, 0x9000);
  const std::uint64_t misses = m.core(1).pmu().l1d_load_misses;
  e1.Load<std::uint64_t>(0x9000);
  EXPECT_EQ(m.core(1).pmu().l1d_load_misses, misses);
}

TEST(MachinePrefetch, SimMemoryBytesAreUntouched) {
  Machine m(MachineConfig::Default(2));
  OwnLineOnCore0(m);
  const std::size_t pages = m.memory().MappedPageCount();
  m.Prefetch(1, 0x1000);
  m.Prefetch(1, 0x40'0000);  // never written: must not materialize a page
  EXPECT_EQ(m.memory().Read<std::uint64_t>(0x1000), 7u);
  EXPECT_EQ(m.memory().Read<std::uint64_t>(0x40'0000), 0u);
  EXPECT_EQ(m.memory().MappedPageCount(), pages);
}

}  // namespace
}  // namespace ngx
