#include "src/offload/offload_engine.h"

#include <cassert>
#include <string>

#include "src/sim/check.h"

namespace ngx {

namespace {

// Ops whose handler is the heap's carve/classify path; their server-side
// service time is what OffloadEngineStats::carve_cycles accumulates.
bool IsCarveOp(OffloadOp op) {
  return op == OffloadOp::kMalloc || op == OffloadOp::kMallocBatch ||
         op == OffloadOp::kRefillStash || op == OffloadOp::kFree;
}

const char* OpName(OffloadOp op) {
  switch (op) {
    case OffloadOp::kMalloc:
      return "malloc";
    case OffloadOp::kFree:
      return "free";
    case OffloadOp::kUsableSize:
      return "usable_size";
    case OffloadOp::kFlush:
      return "flush";
    case OffloadOp::kMallocBatch:
      return "malloc_batch";
    case OffloadOp::kDonateSpan:
      return "donate_span";
    case OffloadOp::kRequestSpans:
      return "request_spans";
    case OffloadOp::kOfferSpans:
      return "offer_spans";
    case OffloadOp::kReturnSpan:
      return "return_span";
    case OffloadOp::kRefillStash:
      return "refill_stash";
  }
  return "unknown";
}

}  // namespace

OffloadEngine::OffloadEngine(Machine& machine, int server_core, Addr channel_base,
                             std::uint32_t ring_capacity)
    : machine_(&machine), server_core_(server_core) {
  // Construction-time validation must survive NDEBUG: an out-of-range ring
  // capacity would overrun the kChannelStride-byte channel block into the
  // next client's mailbox, and a bad core id indexes off the core array.
  NGX_CHECK(server_core >= 0 && server_core < machine.num_cores(),
            "offload server core out of range");
  NGX_CHECK(ring_capacity > 0 && ring_capacity <= kMaxRingCapacity,
            "ring capacity must fit inside the channel stride");
  const int n = machine.num_cores();
  channels_.reserve(n);
  for (int c = 0; c < n; ++c) {
    channels_.emplace_back(channel_base + kChannelStride * static_cast<std::uint64_t>(c),
                           ring_capacity);
  }
  seq_.assign(n, 0);
  prod_cache_.assign(static_cast<std::size_t>(n), ProducerIndexCache{});
}

void OffloadEngine::CachedPushReserve(Env& client_env, int client, std::uint32_t n) {
  Channel& ch = channels_[client];
  ProducerIndexCache& pc = prod_cache_[static_cast<std::size_t>(client)];
  if (pc.head - pc.cached_tail + n > ch.ring_capacity()) {
    // The cached tail says the ring is full -- but it only ever lags the
    // real tail, so refresh it (this is the one timed read of the
    // server-written tail line) before concluding backpressure is real.
    pc.cached_tail = ch.RingTail(client_env);
    if (pc.head - pc.cached_tail + n > ch.ring_capacity()) {
      StallOnFullRing(client_env, client);
      // The stall's drain emptied this client's ring; the re-read models the
      // producer's spin loop observing the tail catch up.
      pc.cached_tail = ch.RingTail(client_env);
    }
  }
}

void OffloadEngine::BindInstruments() {
  MetricsRegistry& m = machine_->telemetry().metrics();
  const std::string shard = std::to_string(shard_id_);
  for (const OffloadOp op : {OffloadOp::kMalloc, OffloadOp::kFree, OffloadOp::kUsableSize,
                             OffloadOp::kFlush, OffloadOp::kMallocBatch,
                             OffloadOp::kDonateSpan, OffloadOp::kRequestSpans,
                             OffloadOp::kOfferSpans, OffloadOp::kReturnSpan,
                             OffloadOp::kRefillStash}) {
    h_sync_latency_[static_cast<int>(op)] =
        &m.GetHistogram("offload.sync_latency", {{"shard", shard}, {"op", OpName(op)}});
  }
  h_queue_wait_ = &m.GetHistogram("offload.sync_queue_wait", {{"shard", shard}});
  h_drain_batch_ = &m.GetHistogram("offload.drain_batch", {{"shard", shard}});
  h_ring_occupancy_ = &m.GetHistogram("offload.ring_occupancy", {{"shard", shard}});
  c_sync_requests_ = &m.GetCounter("offload.sync_requests", {{"shard", shard}});
  c_async_ops_ = &m.GetCounter("offload.async_ops", {{"shard", shard}});
  c_ring_full_ = &m.GetCounter("offload.ring_full_stalls", {{"shard", shard}});
  c_carve_cycles_ = &m.GetCounter("ngx.server_carve_cycles", {{"shard", shard}});
  instruments_bound_ = true;
}

void OffloadEngine::DrainRing(Env& server_env, int client) {
  const std::uint64_t t0 = server_env.now();
  const std::uint32_t n =
      channels_[client].ServerDrainRing(server_env, [&](std::uint64_t entry) {
        // Tag 0 = the historical raw-address kFree encoding; other tags carry
        // the op in the top byte (currently only kRefillStash rides tagged).
        const std::uint64_t tag = entry >> 56;
        const std::uint64_t c0 = server_env.now();
        if (tag == 0) {
          server_->HandleRequest(server_env, client, OffloadOp::kFree, entry);
        } else {
          if (static_cast<OffloadOp>(tag) == OffloadOp::kRefillStash) {
            ++stats_.refill_ops;
          }
          server_->HandleRequest(server_env, client, static_cast<OffloadOp>(tag),
                                 entry & kRingArgMask);
        }
        // Every drained entry is a free or a refill, both carve-path work.
        NoteCarveCycles(server_env.now() - c0);
        ++stats_.async_ops;
      });
  if (FlightRecorder* rec = Recorder()) {
    // The whole drain window (including empty polls reaching this far) is
    // server-busy time; the carve handlers inside it were already attributed
    // through NoteCarveCycles, so drain overhead falls out as the difference.
    rec->AddCycles(FlightRecorder::kServerBusy, server_env.now() - t0);
  }
  if (n > 0 && Recording()) {
    h_drain_batch_->Record(n);
    c_async_ops_->Add(n);
    Telemetry& tel = machine_->telemetry();
    if (tel.tracing()) {
      tel.tracer().Complete("drain", server_core_, t0, server_env.now() - t0);
    }
  }
}

std::uint64_t OffloadEngine::SyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg) {
  assert(server_ != nullptr);
  const int client = client_env.core_id();
  assert(client != server_core_ && "the server core cannot issue offload requests");
  Channel& ch = channels_[client];
  const std::uint64_t seq = ++seq_[client];
  const std::uint64_t t0 = client_env.now();
  if (FlightRecorder* rec = Recorder()) {
    rec->matrix().NoteSync(client, shard_id_);
  }

  // Client publishes the request.
  ch.ClientSend(client_env, seq, op, arg);
  const std::uint64_t send_time = client_env.now();

  // The spinning server drains pending async frees during its idle window,
  // starting from its own clock: free processing that fits before the
  // request arrives never delays the malloc (Section 3.1.2's asynchronous
  // free phase). The request itself is then served no earlier than the send
  // and no earlier than the server finishes that backlog.
  Core& server = machine_->core(server_core_);
  Env server_env = ServerEnv();
  DrainRing(server_env, client);
  // Idle-window background work (watermark rebalancing): like the drain, it
  // starts from the server's own clock, so refills that fit before the
  // request arrives never delay the malloc.
  if (post_drain_hook_) {
    post_drain_hook_(server_env);
  }
  // How long the request sat behind the server's backlog (other clients'
  // requests and drained frees) before service could start.
  const std::uint64_t queue_wait = server.now() > send_time ? server.now() - send_time : 0;
  if (queue_wait > 0) {
    ++stats_.server_busy_waits;
  }
  server.AdvanceTo(send_time);
  const std::uint64_t busy0 = server_env.now();
  server_env.Work(poll_work_);

  const std::uint64_t service_start = server_env.now();
  const Channel::Request req = ch.ServerReadRequest(server_env);
  assert(req.seq == seq);
  const std::uint64_t handle_start = server_env.now();
  const std::uint64_t result = server_->HandleRequest(server_env, client, req.op, req.arg);
  if (IsCarveOp(req.op)) {
    NoteCarveCycles(server_env.now() - handle_start);
  }
  ch.ServerRespond(server_env, seq, result);

  if (FlightRecorder* rec = Recorder()) {
    rec->AddCycles(FlightRecorder::kServerBusy, server_env.now() - busy0);
    // What the spin below will cost the client: its clock jump to the
    // server's publish point. Only counted inside a client op so the
    // rebalancer's own control round trips stay out of the table.
    if (rec->InClientOp(client) && server_env.now() > client_env.now()) {
      rec->AddCycles(FlightRecorder::kSyncStall, server_env.now() - client_env.now());
    }
  }
  // Client spins until the response is visible, then reads it.
  machine_->core(client).AdvanceTo(server_env.now());
  const std::uint64_t out = ch.ClientReceive(client_env, seq);
  ++stats_.sync_requests;
  if (Recording()) {
    h_sync_latency_[static_cast<int>(op)]->Record(client_env.now() - t0);
    h_queue_wait_->Record(queue_wait);
    c_sync_requests_->Add();
    Telemetry& tel = machine_->telemetry();
    if (tel.tracing()) {
      tel.tracer().Complete(OpName(op), server_core_, service_start,
                            server_env.now() - service_start);
      tel.tracer().Complete("sync_request", client, t0, client_env.now() - t0);
    }
  }
  return out;
}

std::uint64_t OffloadEngine::Push(Env& client_env, int client,
                                  const std::uint64_t* entries, std::uint32_t n) {
  Channel& ch = channels_[client];
  std::uint64_t occupancy;
  if (producer_cache_) {
    ProducerIndexCache& pc = prod_cache_[static_cast<std::size_t>(client)];
    if (pc.staged + n > ch.ring_capacity()) {
      // Only a full stage at free_batch == ring_capacity gets here: it rides
      // its own doorbell first, so this push never overruns a slot the
      // server has not consumed.
      PublishStaged(client_env);
    }
    CachedPushReserve(client_env, client, pc.staged + n);
    // Occupancy keys the eager-drain policy, which is the SERVER noticing its
    // ring filling during its poll loop: an untimed host read of the true
    // tail stands in for the server's own polling (whose timed reads happen
    // inside DrainRing), not the producer's deliberately stale view.
    occupancy = pc.head - machine_->memory().Read<std::uint64_t>(ch.base() + kRingTailOff);
    for (std::uint32_t i = 0; i < n; ++i) {
      ch.RingStage(client_env, pc.head + pc.staged + i, entries[i]);
    }
    n += pc.staged;
    pc.head += n;
    pc.staged = 0;
    ch.RingPublish(client_env, pc.head);
  } else {
    const std::uint64_t space = ch.RingSpace(client_env);
    occupancy = ch.ring_capacity() - space;
    if (space == 0) {
      StallOnFullRing(client_env, client);
    }
    ch.RingPush(client_env, entries[0]);
  }
  if (FlightRecorder* rec = Recorder()) {
    rec->matrix().NoteAsync(client, shard_id_, n);
  }
  if (Recording()) {
    h_ring_occupancy_->Record(occupancy);
  }
  ++stats_.ring_doorbells;
  return occupancy + n;
}

void OffloadEngine::AsyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg0) {
  assert(server_ != nullptr);
  assert(op == OffloadOp::kFree && "only frees are fire-and-forget");
  const int client = client_env.core_id();
  MaybeEagerDrain(client_env, client, Push(client_env, client, &arg0, 1));
}

void OffloadEngine::StageFree(Env& client_env, std::uint64_t addr, std::uint32_t batch) {
  assert(server_ != nullptr);
  NGX_CHECK(producer_cache_, "staged frees need the producer index cache");
  const int client = client_env.core_id();
  Channel& ch = channels_[client];
  ProducerIndexCache& pc = prod_cache_[static_cast<std::size_t>(client)];
  NGX_CHECK(batch <= ch.ring_capacity() && pc.staged < batch,
            "a full stage must be published before the next free");
  if (pc.staged == 0) {
    // Stage start: reserve every slot the stage can fill, so each staged
    // store lands in a slot the server has already consumed.
    CachedPushReserve(client_env, client, batch);
  }
  ch.RingStage(client_env, pc.head + pc.staged, addr);
  ++pc.staged;
}

void OffloadEngine::PublishStaged(Env& client_env) {
  const int client = client_env.core_id();
  if (staged_frees(client) > 0) {
    MaybeEagerDrain(client_env, client, Push(client_env, client, nullptr, 0));
  }
}

std::uint64_t OffloadEngine::AsyncRequestKicked(Env& client_env, OffloadOp op,
                                                std::uint64_t arg) {
  assert(server_ != nullptr);
  NGX_CHECK((arg & ~kRingArgMask) == 0, "tagged ring arg must leave the top byte free");
  const int client = client_env.core_id();
  const std::uint64_t entry = RingEntryWord(op, arg);
  Push(client_env, client, &entry, 1);
  // The kick: the server consumes the doorbell in its drain window on its
  // own clock. Service starts no earlier than the doorbell store, but the
  // client is NOT advanced to the server's finish -- the whole service
  // overlaps with the client's subsequent work, which is the point of the
  // stash pipeline.
  return ServeDoorbell(client_env, client);
}

std::uint64_t OffloadEngine::ServeDoorbell(Env& client_env, int client) {
  Core& server = machine_->core(server_core_);
  server.AdvanceTo(client_env.now());
  Env server_env = ServerEnv();
  server_env.Work(poll_work_);
  DrainRing(server_env, client);
  if (post_drain_hook_) {
    post_drain_hook_(server_env);
  }
  return server_env.now();
}

void OffloadEngine::StallOnFullRing(Env& client_env, int client) {
  // Backpressure: the server must drain before the client can continue.
  ++stats_.ring_full_stalls;
  if (Recording()) {
    c_ring_full_->Add();
    Telemetry& tel = machine_->telemetry();
    if (tel.tracing()) {
      tel.tracer().Instant("ring_full", client, client_env.now());
    }
  }
  const std::uint64_t drained = ServeDoorbell(client_env, client);
  if (FlightRecorder* rec = Recorder()) {
    // The backpressure cost the client is about to pay: its clock jump to
    // the drain's finish.
    if (rec->InClientOp(client) && drained > client_env.now()) {
      rec->AddCycles(FlightRecorder::kRingWait, drained - client_env.now());
    }
  }
  machine_->core(client).AdvanceTo(drained);
}

void OffloadEngine::DrainAll() {
  Env server_env = ServerEnv();
  for (int c = 0; c < machine_->num_cores(); ++c) {
    if (c == server_core_) {
      continue;
    }
    server_env.Work(poll_work_);
    DrainRing(server_env, c);
  }
  if (post_drain_hook_) {
    post_drain_hook_(server_env);
  }
}

}  // namespace ngx
