// Tests for the offload channel protocol and engine timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/offload/channel.h"
#include "src/offload/offload_engine.h"
#include "src/offload/offload_fabric.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr Addr kTestChannelBase = 0x0700'0000'0000ull;

class EchoServer : public OffloadServer {
 public:
  std::uint64_t HandleRequest(Env& env, int client, OffloadOp op,
                              std::uint64_t arg) override {
    env.Work(work_per_request);
    last_client = client;
    last_op = op;
    ops.push_back(op);
    if (op == OffloadOp::kFree) {
      freed.push_back(arg);
      return 0;
    }
    return arg + 2;
  }

  std::uint64_t work_per_request = 50;
  int last_client = -1;
  OffloadOp last_op = OffloadOp::kMalloc;
  std::vector<OffloadOp> ops;  // every handled op, in service order
  std::vector<std::uint64_t> freed;
};

class OffloadEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = MakeMachine(3);
    machine_->address_map().Add(
        Region{kTestChannelBase, kChannelStride * 3, PageKind::kSmall4K, "chan"});
    engine_ = std::make_unique<OffloadEngine>(*machine_, /*server_core=*/2, kTestChannelBase,
                                              /*ring_capacity=*/8);
    engine_->set_server(&server_);
  }

  std::unique_ptr<Machine> machine_;
  std::unique_ptr<OffloadEngine> engine_;
  EchoServer server_;
};

TEST_F(OffloadEngineTest, SyncRequestRoundTrips) {
  Env env(*machine_, 0);
  EXPECT_EQ(engine_->SyncRequest(env, OffloadOp::kMalloc, 40), 42u);
  EXPECT_EQ(server_.last_client, 0);
  EXPECT_EQ(engine_->stats().sync_requests, 1u);
}

TEST_F(OffloadEngineTest, ClientWaitsForServer) {
  Env env(*machine_, 0);
  const std::uint64_t t0 = env.now();
  engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
  // The client must have advanced at least by the server's handler work.
  EXPECT_GE(env.now() - t0, server_.work_per_request);
}

TEST_F(OffloadEngineTest, ServerSerializesClients) {
  // Two clients issuing at the same time: the second must queue behind the
  // first on the server clock.
  Env e0(*machine_, 0);
  Env e1(*machine_, 1);
  server_.work_per_request = 5000;
  engine_->SyncRequest(e0, OffloadOp::kMalloc, 1);
  engine_->SyncRequest(e1, OffloadOp::kMalloc, 2);
  EXPECT_GE(machine_->core(1).now(), machine_->core(2).now() - 10);
  // Two handler invocations of Work(5000) at the server's CPI.
  EXPECT_GE(machine_->core(2).now(),
            static_cast<std::uint64_t>(2 * 5000 *
                                       machine_->core(2).config().cpi));
  EXPECT_GE(engine_->stats().server_busy_waits, 1u);  // ring-poll loads may add a second
}

TEST_F(OffloadEngineTest, AsyncFreeDoesNotBlockClient) {
  Env env(*machine_, 0);
  server_.work_per_request = 100000;
  const std::uint64_t t0 = env.now();
  engine_->AsyncRequest(env, OffloadOp::kFree, 0xabc);
  EXPECT_LT(env.now() - t0, 5000u) << "async free must not pay the server's work";
  EXPECT_TRUE(server_.freed.empty()) << "not processed yet";
  engine_->DrainAll();
  ASSERT_EQ(server_.freed.size(), 1u);
  EXPECT_EQ(server_.freed[0], 0xabcu);
}

TEST_F(OffloadEngineTest, RingOrderPreserved) {
  Env env(*machine_, 0);
  for (std::uint64_t i = 0; i < 6; ++i) {
    engine_->AsyncRequest(env, OffloadOp::kFree, 100 + i);
  }
  engine_->DrainAll();
  ASSERT_EQ(server_.freed.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(server_.freed[i], 100 + i);
  }
}

TEST_F(OffloadEngineTest, DrainAllServesRingsInClientIdOrder) {
  // Client 1 pushes first; the sweep still serves client 0's ring first.
  Env e0(*machine_, 0);
  Env e1(*machine_, 1);
  engine_->AsyncRequest(e1, OffloadOp::kFree, 11);
  engine_->AsyncRequest(e0, OffloadOp::kFree, 10);
  engine_->DrainAll();
  ASSERT_EQ(server_.freed.size(), 2u);
  EXPECT_EQ(server_.freed[0], 10u);
  EXPECT_EQ(server_.freed[1], 11u);
}

// A sync issued just after another client's expensive request is served on
// the server core's real clock: it queues behind that request, and the
// client reads its response no earlier than the server's respond store.
TEST_F(OffloadEngineTest, SyncBehindAnExpensiveRequestWaitsForTheRespondStore) {
  Env e0(*machine_, 0);
  Env e1(*machine_, 1);
  server_.work_per_request = 5000;
  engine_->SyncRequest(e0, OffloadOp::kMalloc, 1);
  server_.work_per_request = 50;
  const std::uint64_t t0 = e1.now();
  EXPECT_EQ(engine_->SyncRequest(e1, OffloadOp::kMalloc, 2), 4u);
  EXPECT_GE(e1.now(), machine_->core(2).now())
      << "the response cannot be read before the server wrote it";
  EXPECT_GT(e1.now() - t0, 2000u) << "the sync queues behind the expensive service";
}

// The engine is deterministic: the same mix of syncs, frees and drains
// replays to the same client and server clocks.
TEST(OffloadEngineReplay, MixedSyncAsyncRunReplaysClockForClock) {
  auto run = [] {
    auto machine = MakeMachine(3);
    machine->address_map().Add(
        Region{kTestChannelBase, kChannelStride * 3, PageKind::kSmall4K, "chan"});
    EchoServer server;
    OffloadEngine engine(*machine, /*server_core=*/2, kTestChannelBase, /*ring_capacity=*/8);
    engine.set_server(&server);
    Env e0(*machine, 0);
    Env e1(*machine, 1);
    for (std::uint64_t i = 0; i < 20; ++i) {
      Env& env = (i % 3 == 0) ? e1 : e0;
      engine.SyncRequest(env, OffloadOp::kMalloc, i);
      engine.AsyncRequest(env, OffloadOp::kFree, i);
    }
    engine.DrainAll();
    return std::vector<std::uint64_t>{e0.now(), e1.now(), machine->core(2).now(),
                                      engine.stats().async_ops, server.freed.size()};
  };
  const std::vector<std::uint64_t> first = run();
  EXPECT_EQ(first[3], 20u);
  EXPECT_EQ(first[4], 20u);
  EXPECT_EQ(run(), first);
}

TEST_F(OffloadEngineTest, RingFullBackpressure) {
  Env env(*machine_, 0);
  for (std::uint64_t i = 0; i < 20; ++i) {  // capacity is 8
    engine_->AsyncRequest(env, OffloadOp::kFree, i);
  }
  EXPECT_GT(engine_->stats().ring_full_stalls, 0u);
  engine_->DrainAll();
  EXPECT_EQ(server_.freed.size(), 20u);
}

TEST_F(OffloadEngineTest, PendingFreesOrderedBeforeSyncRequest) {
  Env env(*machine_, 0);
  engine_->AsyncRequest(env, OffloadOp::kFree, 7);
  engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
  // The free must have been drained before the malloc was served.
  ASSERT_EQ(server_.freed.size(), 1u);
}

TEST_F(OffloadEngineTest, MailboxLinesActuallyTransfer) {
  Env env(*machine_, 0);
  engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
  engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
  // Both sides must show coherence traffic on the mailbox lines.
  EXPECT_GT(machine_->core(0).pmu().remote_hitm + machine_->core(0).pmu().invalidations_sent,
            0u);
  EXPECT_GT(machine_->core(2).pmu().remote_hitm + machine_->core(2).pmu().invalidations_sent,
            0u);
}

// ---- Ring-staged batched frees (DESIGN.md §7) ----

TEST_F(OffloadEngineTest, StagedFreesAreInvisibleUntilPublished) {
  engine_->set_producer_index_cache(true);
  Env env(*machine_, 0);
  for (std::uint64_t i = 0; i < 3; ++i) {
    engine_->StageFree(env, 100 + i, /*batch=*/4);
  }
  EXPECT_EQ(engine_->staged_frees(0), 3u);
  engine_->DrainAll();
  EXPECT_TRUE(server_.freed.empty()) << "the server read past the published head";
  EXPECT_EQ(engine_->stats().ring_doorbells, 0u);
  engine_->PublishStaged(env);
  EXPECT_EQ(engine_->stats().ring_doorbells, 1u) << "one doorbell for the whole stage";
  EXPECT_EQ(engine_->staged_frees(0), 0u);
  engine_->DrainAll();
  EXPECT_EQ(server_.freed, (std::vector<std::uint64_t>{100, 101, 102}));
}

TEST_F(OffloadEngineTest, KickedRefillPublishesStagedFreesAheadOfIt) {
  engine_->set_producer_index_cache(true);
  Env env(*machine_, 0);
  engine_->StageFree(env, 100, /*batch=*/4);
  engine_->StageFree(env, 101, /*batch=*/4);
  engine_->AsyncRequestKicked(env, OffloadOp::kRefillStash, 7);
  EXPECT_EQ(engine_->stats().ring_doorbells, 1u) << "the refill's doorbell carries the stage";
  EXPECT_EQ(engine_->staged_frees(0), 0u);
  EXPECT_EQ(server_.ops, (std::vector<OffloadOp>{OffloadOp::kFree, OffloadOp::kFree,
                                                 OffloadOp::kRefillStash}));
  EXPECT_EQ(server_.freed, (std::vector<std::uint64_t>{100, 101}));
  EXPECT_EQ(engine_->stats().async_ops, 3u);
}

// A stage starts by reserving all its slots: with the ring full of
// unconsumed entries, the first staged free must wait out a drain instead
// of storing over an entry the server has not read.
TEST_F(OffloadEngineTest, StageStartReservesItsSlotsOnAFullRing) {
  engine_->set_producer_index_cache(true);
  Env env(*machine_, 0);
  std::vector<std::uint64_t> want;
  for (std::uint64_t i = 0; i < 8; ++i) {  // capacity is 8
    engine_->AsyncRequest(env, OffloadOp::kFree, 100 + i);
    want.push_back(100 + i);
  }
  EXPECT_EQ(engine_->stats().ring_full_stalls, 0u);
  engine_->StageFree(env, 200, /*batch=*/4);
  EXPECT_EQ(engine_->stats().ring_full_stalls, 1u);
  engine_->PublishStaged(env);
  engine_->DrainAll();
  want.push_back(200);
  EXPECT_EQ(server_.freed, want);
}

// free_batch == ring_capacity: a full stage plus a refill cannot share one
// doorbell without overrunning the ring, so the stage rides its own first.
TEST_F(OffloadEngineTest, FullRingSizedStageRidesItsOwnDoorbellBeforeARefill) {
  engine_->set_producer_index_cache(true);
  Env env(*machine_, 0);
  std::vector<std::uint64_t> want;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      const std::uint64_t addr = 1000 * (round + 1) + i;
      engine_->StageFree(env, addr, /*batch=*/8);
      want.push_back(addr);
    }
    engine_->AsyncRequestKicked(env, OffloadOp::kRefillStash, 7);
  }
  EXPECT_EQ(engine_->stats().ring_doorbells, 6u);
  EXPECT_EQ(server_.freed, want) << "a staged free was overwritten or replayed";
  EXPECT_EQ(engine_->stats().refill_ops, 3u);
  EXPECT_EQ(engine_->stats().async_ops, 27u);
}

// The fabric counts staged frees when a doorbell publishes them: into the
// enqueue counter behind QueueDepth and into the epoch traffic matrix.
TEST(OffloadFabricStaging, DoorbellsCountTheStagedFreesTheyPublish) {
  auto machine = MakeMachine(3);
  OffloadFabric fabric(*machine, {2}, kTestChannelBase, /*ring_capacity=*/8,
                       MakeRoutingPolicy(RoutingKind::kStaticByClient));
  machine->address_map().Add(Region{kTestChannelBase,
                                    OffloadFabric::ChannelRegionBytes(*machine, 1),
                                    PageKind::kSmall4K, "chan"});
  EchoServer server;
  fabric.set_server(0, &server);
  fabric.set_producer_index_cache(true);
  fabric.set_epoch_tracking(true);
  Env env(*machine, 0);
  for (std::uint64_t i = 0; i < 3; ++i) {
    fabric.StageFree(env, 0, 100 + i, /*batch=*/4);
  }
  EXPECT_EQ(fabric.QueueDepth(0), 0u) << "staged frees are not enqueued yet";
  EXPECT_EQ(fabric.EpochShardOps(0), 0u);
  fabric.AsyncRequest(env, 0, OffloadOp::kFree, 103);
  EXPECT_EQ(fabric.QueueDepth(0), 4u);
  EXPECT_EQ(fabric.EpochShardOps(0), 4u);
  fabric.StageFree(env, 0, 104, /*batch=*/4);
  fabric.AsyncRequestKicked(env, 0, OffloadOp::kRefillStash, 7);
  EXPECT_EQ(fabric.EpochShardOps(0), 6u) << "the kick's doorbell published one staged free";
  EXPECT_EQ(fabric.QueueDepth(0), 0u) << "the kick drained everything it counted";
  EXPECT_EQ(fabric.shard_stats(0).async_ops, 6u);
  EXPECT_EQ(fabric.PublishStaged(env, 0), 0u) << "nothing left to publish";
}

TEST(Channel, PayloadIntegrity) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 4);
  Env client(*machine, 0);
  Env server(*machine, 1);
  ch.ClientSend(client, 1, OffloadOp::kUsableSize, 0x1234);
  const Channel::Request req = ch.ServerReadRequest(server);
  EXPECT_EQ(req.seq, 1u);
  EXPECT_EQ(req.op, OffloadOp::kUsableSize);
  EXPECT_EQ(req.arg, 0x1234u);
  ch.ServerRespond(server, 1, 999);
  EXPECT_EQ(ch.ClientReceive(client, 1), 999u);
}

TEST(Channel, RingWrapsAround) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 4);
  Env client(*machine, 0);
  Env server(*machine, 1);
  std::vector<std::uint64_t> got;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_GT(ch.RingSpace(client), 0u);
      ch.RingPush(client, round * 10 + i);
    }
    EXPECT_EQ(ch.RingSpace(client), 0u);
    ch.ServerDrainRing(server, [&](std::uint64_t v) { got.push_back(v); });
  }
  ASSERT_EQ(got.size(), 12u);
  EXPECT_EQ(got[4], 10u);
  EXPECT_EQ(got[11], 23u);
}

}  // namespace
}  // namespace ngx
