// Adaptive traffic-matrix routing + elastic allocator-core fleet tests
// (DESIGN.md §14):
//
//  * AdaptiveRoutingPolicy units: greedy packing by descending epoch
//    traffic, hysteresis holding marginally-worse homes and releasing
//    clearly-worse ones, inactive shards excluded from packing and routing,
//    idle clients keeping their placement;
//  * the stale-queue-depth regression: a shard whose ring backlog stopped
//    draining used to repel least_loaded routing forever -- the decayed
//    RoutedQueueDepth signal must forgive the backlog as idle-server slack
//    accumulates;
//  * fleet lifecycle end to end: a shard with no epoch traffic drains and
//    parks (returning its recycled granted spans home first), a parked
//    shard still serves owner-bound frees and wakes on ring backlog, and
//    the allocator's books balance through park/wake cycles;
//  * NGX_CHECK death tests for the fleet-bound knobs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/nextgen_malloc.h"
#include "src/core/span_directory.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kSpan = 64 * 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

// ---- AdaptiveRoutingPolicy units ----

// Builds an epoch whose per-client row totals are `rows` (the policy only
// consumes RowTotal, so the whole row can sit in column 0).
EpochMatrix MakeEpoch(int num_shards, const std::vector<std::uint64_t>& rows,
                      std::vector<std::uint8_t> active = {}) {
  EpochMatrix m;
  m.num_clients = static_cast<int>(rows.size());
  m.num_shards = num_shards;
  m.ops.assign(rows.size() * static_cast<std::size_t>(num_shards), 0);
  m.active = active.empty()
                 ? std::vector<std::uint8_t>(static_cast<std::size_t>(num_shards), 1)
                 : std::move(active);
  for (std::size_t c = 0; c < rows.size(); ++c) {
    m.ops[c * static_cast<std::size_t>(num_shards)] = rows[c];
  }
  return m;
}

std::vector<ShardLoad> ActiveLoads(std::size_t n) { return std::vector<ShardLoad>(n); }

TEST(AdaptiveRouting, UnplacedClientSpreadsOverActiveShards) {
  AdaptiveRoutingPolicy p;
  EXPECT_EQ(p.HomeOf(0), -1);
  auto loads = ActiveLoads(3);
  EXPECT_EQ(p.Route(4, 64, 2, loads), 1) << "client % shards before any epoch";
  loads[0].active = false;
  EXPECT_EQ(p.Route(4, 64, 2, loads), 1) << "4 % 2 active -> first active shard";
  EXPECT_EQ(p.Route(5, 64, 2, loads), 2) << "5 % 2 active -> second active shard";
}

TEST(AdaptiveRouting, ObserveGreedyPacksByDescendingTraffic) {
  AdaptiveRoutingPolicy p;
  p.Observe(MakeEpoch(2, {100, 80, 60, 40}));
  // Placement order 100, 80, 60, 40 onto the least-packed shard:
  // c0->s0 (100|0), c1->s1 (100|80), c2->s1 (100|140), c3->s0 (140|140).
  EXPECT_EQ(p.HomeOf(0), 0);
  EXPECT_EQ(p.HomeOf(1), 1);
  EXPECT_EQ(p.HomeOf(2), 1);
  EXPECT_EQ(p.HomeOf(3), 0);
  EXPECT_EQ(p.client_moves(), 0u) << "first placement is not a move";
  EXPECT_EQ(p.HomeOf(9), -1) << "never-seen client stays unplaced";
  const auto loads = ActiveLoads(2);
  EXPECT_EQ(p.Route(2, 64, 2, loads), 1) << "placed client routes to its home";
}

TEST(AdaptiveRouting, HysteresisHoldsMarginalHomesAndReleasesClearOnes) {
  AdaptiveRoutingPolicy p;  // default 25% hysteresis
  p.Observe(MakeEpoch(2, {100, 100}));
  ASSERT_EQ(p.HomeOf(0), 0);
  ASSERT_EQ(p.HomeOf(1), 1);

  // c1 now dominates and its greedy slot would be s0 (empty-shard tie breaks
  // to the lower id), but s0 is no better than its home -- hysteresis holds.
  p.Observe(MakeEpoch(2, {10, 100}));
  EXPECT_EQ(p.HomeOf(0), 0);
  EXPECT_EQ(p.HomeOf(1), 1);
  EXPECT_EQ(p.client_moves(), 0u);

  // A new heavy client lands on s0 first; staying would cost c0 a 3x taller
  // shard than moving (300 vs 100 > the 25% band), so c0 must move.
  p.Observe(MakeEpoch(2, {100, 100, 200}));
  EXPECT_EQ(p.HomeOf(2), 0);
  EXPECT_EQ(p.HomeOf(0), 1) << "clearly-worse home released";
  EXPECT_EQ(p.HomeOf(1), 1);
  EXPECT_EQ(p.client_moves(), 1u);
}

TEST(AdaptiveRouting, ObserveAndRouteSkipInactiveShards) {
  AdaptiveRoutingPolicy p;
  p.Observe(MakeEpoch(2, {50, 50}, {1, 0}));
  EXPECT_EQ(p.HomeOf(0), 0);
  EXPECT_EQ(p.HomeOf(1), 0) << "packing never targets an inactive shard";

  // A home that goes inactive between epochs stops attracting mallocs.
  AdaptiveRoutingPolicy q;
  q.Observe(MakeEpoch(2, {10, 100}));
  ASSERT_EQ(q.HomeOf(1), 0);
  auto loads = ActiveLoads(2);
  loads[0].active = false;
  EXPECT_EQ(q.Route(1, 64, 2, loads), 1) << "parked home falls back to an active shard";
}

TEST(AdaptiveRouting, IdleClientKeepsItsHome) {
  AdaptiveRoutingPolicy p;
  p.Observe(MakeEpoch(2, {100, 40}));
  ASSERT_EQ(p.HomeOf(1), 1);
  p.Observe(MakeEpoch(2, {100, 0}));
  EXPECT_EQ(p.HomeOf(1), 1) << "an idle client must not churn placement";
  EXPECT_EQ(p.client_moves(), 0u);
}

TEST(AdaptiveRouting, LeastLoadedSkipsInactiveShards) {
  auto p = MakeRoutingPolicy(RoutingKind::kLeastLoaded);
  std::vector<ShardLoad> loads(3);
  loads[0].queue_depth = 0;
  loads[0].active = false;  // shallowest, but parked
  loads[1].queue_depth = 5;
  loads[2].queue_depth = 9;
  EXPECT_EQ(p->Route(0, 64, 2, loads), 1);
}

TEST(AdaptiveRouting, ParseRoundTrips) {
  RoutingKind out;
  ASSERT_TRUE(ParseRoutingKind("adaptive", &out));
  EXPECT_EQ(out, RoutingKind::kAdaptive);
  EXPECT_EQ(RoutingKindName(RoutingKind::kAdaptive), "adaptive");
  EXPECT_EQ(MakeRoutingPolicy(RoutingKind::kAdaptive)->name(), "adaptive");
}

// ---- Stale queue depth regression (least_loaded repulsion) ----

// A shard whose ring backlog stops draining (drains run on the server's own
// request path, and no more sync traffic arrives) used to keep its raw
// QueueDepth forever, repelling least_loaded routing from a shard whose
// server sits idle. RoutedQueueDepth must forgive the backlog as the
// client's clock pulls ahead of the idle server's.
TEST(OffloadFabricStaleness, IdleServerSlackDecaysRoutedQueueDepth) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.routing = RoutingKind::kLeastLoaded;
  auto sys = MakeNgxSystem(*machine, cfg);
  Env app(*machine, 0);

  std::vector<Addr> blocks;
  for (int i = 0; i < 60; ++i) {
    const Addr a = sys.allocator->Malloc(app, 64);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  // Free a burst owned by shard 0, then issue no more requests to it: the
  // backlog stays enqueued (well under the ring capacity, so no stall-drain).
  std::vector<Addr> rest;
  int freed_to_0 = 0;
  for (const Addr a : blocks) {
    if (sys.allocator->ShardOfAddr(a) == 0 && freed_to_0 < 30) {
      sys.allocator->Free(app, a);
      ++freed_to_0;
    } else {
      rest.push_back(a);
    }
  }
  ASSERT_GT(freed_to_0, 0);
  const std::uint64_t raw = sys.fabric->QueueDepth(0);
  ASSERT_GT(raw, 0u);

  // The client computes on while the backlogged server sits idle.
  app.Work((raw + 64) * OffloadFabric::kStaleDepthDecayCycles);
  EXPECT_EQ(sys.fabric->QueueDepth(0), raw) << "the raw counter must not decay";
  EXPECT_EQ(sys.fabric->RoutedQueueDepth(0, machine->core(0).now()), 0u)
      << "idle-server slack must forgive the stale backlog";

  for (const Addr a : rest) {
    sys.allocator->Free(app, a);
  }
  sys.allocator->Flush(app);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
}

// ---- Elastic fleet lifecycle ----

NgxConfig AdaptiveConfig() {
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.routing = RoutingKind::kAdaptive;
  cfg.adaptive_routing = true;
  cfg.epoch_cycles = 4000;
  cfg.park_threshold_ops = 4;
  cfg.wake_queue_depth = 8;
  return cfg;
}

TEST(AdaptiveFleet, ColdShardParksAndBooksStayBalanced) {
  auto machine = MakeMachine(4);  // clients 0-1, shards on cores 2-3
  auto sys = MakeNgxSystem(*machine, AdaptiveConfig());
  ASSERT_TRUE(sys.allocator->adaptive_fleet());
  ASSERT_TRUE(sys.fabric->epoch_tracking());

  // Single-client traffic: every malloc lands on one shard, the other sees
  // zero epoch ops and must fall below the break-even threshold. These tests
  // drive Envs directly (no Scheduler::Run), so the periodic timer front is
  // pumped explicitly -- exactly what the scheduler does before each pick.
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 400; ++i) {
    const Addr a = sys.allocator->Malloc(app, 64);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  machine->RunTimerHooks(machine->core(0).now());
  EXPECT_GT(sys.allocator->routing_epochs(), 0u);
  EXPECT_GE(sys.allocator->shards_parked(), 1u);
  EXPECT_EQ(sys.fabric->num_active_shards(), 1);
  EXPECT_GT(sys.allocator->parked_core_cycles(), 0u)
      << "a parked shard's core is released capacity";
  const std::vector<FleetEpoch>& tl = sys.allocator->fleet_timeline();
  ASSERT_EQ(tl.size(), sys.allocator->routing_epochs());
  EXPECT_EQ(tl.back().active_shards, 1);
  EXPECT_EQ(tl.back().parked_shards, 1);

  // Park/wake must never unbalance the books: every block frees cleanly.
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  sys.allocator->Flush(app);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_EQ(s.bytes_live, 0u);
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
}

TEST(AdaptiveFleet, RingBacklogWakesAParkedShard) {
  auto machine = MakeMachine(4);
  auto sys = MakeNgxSystem(*machine, AdaptiveConfig());
  Env c0(*machine, 0);
  Env c1(*machine, 1);

  // Client 1's unplaced mallocs fall back to shard 1 (1 % 2 active), giving
  // its partition live blocks. Shard 1's core never hosts the epoch timer
  // (that is the first server core), so no epoch closes yet.
  std::vector<Addr> on_shard1;
  for (int i = 0; i < 40; ++i) {
    const Addr a = sys.allocator->Malloc(c1, 64);
    ASSERT_NE(a, kNullAddr);
    ASSERT_EQ(sys.allocator->ShardOfAddr(a), 1);
    on_shard1.push_back(a);
  }

  // Park it, then free its blocks: owner-bound traffic still reaches the
  // parked shard's ring, and the backlog is the wake signal.
  sys.fabric->set_shard_state(1, ShardState::kParked);
  ASSERT_EQ(sys.fabric->num_active_shards(), 1);
  for (const Addr a : on_shard1) {
    sys.allocator->Free(c1, a);
  }
  ASSERT_GE(sys.fabric->QueueDepth(1), AdaptiveConfig().wake_queue_depth);

  // The next epoch close must wake the backlogged parked shard: the timer
  // front passes the due point and pulls the controller core up to it, like
  // a real timer interrupt reaching an idle core.
  c1.Work(2 * AdaptiveConfig().epoch_cycles);
  machine->RunTimerHooks(machine->core(1).now());
  EXPECT_GE(sys.allocator->routing_epochs(), 1u);
  EXPECT_GE(sys.allocator->shards_woken(), 1u);
  EXPECT_EQ(sys.fabric->shard_state(1), ShardState::kActive);

  sys.allocator->Flush(c0);
  sys.allocator->Flush(c1);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_EQ(s.bytes_live, 0u);
}

TEST(AdaptiveFleet, DrainingShardReturnsGrantedSpansHomeBeforeParking) {
  auto machine = MakeMachine(3);  // client 0, shards on cores 1-2
  NgxConfig cfg = AdaptiveConfig();
  cfg.hugepage_spans = false;  // 4-KiB-page spans
  cfg.heap_window = 8 * kMiB;
  cfg.span_donation = true;
  auto sys = MakeNgxSystem(*machine, cfg);
  SpanDirectory& d = *sys.allocator->directory();

  // Manufacture what a once-busy shard leaves behind: two of shard 0's spans
  // granted to shard 1, mapped there, and fully recycled again.
  const Addr base = sys.allocator->heap(0).span_provider().TrimTail(2 * kSpan, kSpan);
  ASSERT_NE(base, kNullAddr);
  d.TransferRange(base, 2, 0, 1);
  d.NoteMapped(1, base, 2 * kSpan);
  d.NoteUnmapped(1, base, 2 * kSpan);
  ASSERT_EQ(d.away_spans(1), 2u);

  // Client-0 traffic fills the epoch; shard 1 (zero ops) drains and parks at
  // the close, and draining must flow the recycled granted run back home.
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 400; ++i) {
    const Addr a = sys.allocator->Malloc(app, 64);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  machine->RunTimerHooks(machine->core(0).now());
  EXPECT_GE(sys.allocator->shards_parked(), 1u);
  EXPECT_EQ(sys.fabric->shard_state(1), ShardState::kParked);
  EXPECT_EQ(d.away_spans(1), 0u) << "nothing granted may stay at a parked shard";
  EXPECT_EQ(d.total_returned(), 2u);
  EXPECT_EQ(d.returned_in(0), 2u);

  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  sys.allocator->Flush(app);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
}

// The epoch controller is ELECTED, not hard-wired to the first server core:
// when the shard hosting the ticker parks, the timer must re-pin to an
// active shard's core and keep closing epochs. Regression for the original
// hard-wiring, under which parking shard 0 silently froze the whole fleet
// (no epochs, no wakes, routing stuck on the last pre-park placement).
TEST(AdaptiveFleet, EpochTickerSurvivesParkingItsOwnShard) {
  auto machine = MakeMachine(4);  // clients 0-1, shards on cores 2-3
  auto sys = MakeNgxSystem(*machine, AdaptiveConfig());
  ASSERT_EQ(sys.allocator->epoch_ticker_shard(), 0) << "ticker starts on shard 0";

  // Client 1's unplaced mallocs fall back to shard 1 (1 % 2 active): shard 0
  // sees zero epoch ops and parks at the close -- taking the original
  // hard-wired ticker core with it.
  Env c1(*machine, 1);
  std::vector<Addr> blocks;
  for (int i = 0; i < 400; ++i) {
    const Addr a = sys.allocator->Malloc(c1, 64);
    ASSERT_NE(a, kNullAddr);
    ASSERT_EQ(sys.allocator->ShardOfAddr(a), 1);
    blocks.push_back(a);
  }
  machine->RunTimerHooks(machine->core(1).now());
  ASSERT_EQ(sys.fabric->shard_state(0), ShardState::kParked);
  EXPECT_EQ(sys.allocator->epoch_ticker_shard(), 1)
      << "the controller must re-elect onto the surviving active shard";
  const std::uint64_t epochs = sys.allocator->routing_epochs();
  ASSERT_GT(epochs, 0u);

  // With shard 0 parked, later epochs must still close on the elected core.
  c1.Work(2 * AdaptiveConfig().epoch_cycles);
  machine->RunTimerHooks(machine->core(1).now());
  EXPECT_GT(sys.allocator->routing_epochs(), epochs)
      << "epoch ticks must keep arriving after the election";
  EXPECT_EQ(sys.fabric->shard_state(1), ShardState::kActive);

  for (const Addr a : blocks) {
    sys.allocator->Free(c1, a);
  }
  sys.allocator->Flush(c1);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_EQ(s.bytes_live, 0u);
}

// ---- Fleet knob guards must abort in every build type ----

TEST(AdaptiveFleetDeath, FleetMinAboveShardCountAborts) {
  auto machine = MakeMachine(4);
  NgxConfig cfg = AdaptiveConfig();
  cfg.fleet_min_shards = 3;  // only 2 shards exist
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg), "fleet_min_shards");
}

TEST(AdaptiveFleetDeath, FleetMaxBelowFleetMinAborts) {
  auto machine = MakeMachine(4);
  NgxConfig cfg = AdaptiveConfig();
  cfg.fleet_min_shards = 2;
  cfg.fleet_max_shards = 1;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg), "fleet_max_shards");
}

TEST(AdaptiveFleetDeath, ZeroEpochLengthAborts) {
  auto machine = MakeMachine(4);
  NgxConfig cfg = AdaptiveConfig();
  cfg.epoch_cycles = 0;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg), "epoch");
}

}  // namespace
}  // namespace ngx
