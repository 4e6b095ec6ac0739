// OffloadEngine: the allocator's "own room" -- a dedicated core that serves
// malloc/free requests from application cores over simulated shared memory.
//
// Timing model: requests are serialized on the server core's clock. A sync
// request starts service at max(server-free-time, client-send-time); the
// client then waits until the response is published. Async frees ride a
// per-client ring and are drained whenever the server runs (before each sync
// request and on explicit Drain), so clients only stall on a full ring.
// Queueing among multiple clients emerges from the shared server clock
// (Section 3.1.1's granularity concern made concrete).
#ifndef NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_
#define NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/offload/channel.h"

namespace ngx {

// Implemented by the server-side allocator (NgxAllocator's heap).
class OffloadServer {
 public:
  virtual ~OffloadServer() = default;
  // Handles one request on the server core. For kMallocBatch the engine
  // passes the client id in `client`.
  virtual std::uint64_t HandleRequest(Env& server_env, int client, OffloadOp op,
                                      std::uint64_t arg) = 0;
};

struct OffloadEngineStats {
  std::uint64_t sync_requests = 0;
  std::uint64_t async_ops = 0;
  std::uint64_t ring_full_stalls = 0;
  std::uint64_t server_busy_waits = 0;  // requests that queued behind the server
  // Release-stores of a ring head (one per push, however many staged frees
  // it publishes): the cache-line transfers batched frees exist to amortize.
  std::uint64_t ring_doorbells = 0;
  // Tagged kRefillStash entries served out of drained rings (the stash
  // pipeline's background refills; a subset of async_ops).
  std::uint64_t refill_ops = 0;
  // Server-core cycles spent inside the heap's carve/classify handlers
  // (kMalloc / kMallocBatch / kRefillStash / kFree) -- the per-op server
  // cost the segment-heap rewrite targets. Mirrored to the telemetry
  // counter ngx.server_carve_cycles and RunResult::server_carve_cycles.
  std::uint64_t carve_cycles = 0;
};

class OffloadEngine {
 public:
  // `channel_base` must point at num_clients * kChannelStride bytes of
  // simulated memory reserved for mailboxes (one block per core).
  OffloadEngine(Machine& machine, int server_core, Addr channel_base,
                std::uint32_t ring_capacity);

  void set_server(OffloadServer* server) { server_ = server; }
  int server_core() const { return server_core_; }
  Machine& machine() { return *machine_; }

  // Round-trip request from `client_env`'s core. Returns the result word.
  std::uint64_t SyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg);

  // Fire-and-forget (used for free). Stalls only when the ring is full.
  // Its doorbell also publishes the client's staged frees, ahead of it.
  void AsyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg0);

  // Ring-staged batched free (DESIGN.md §7; needs the producer index
  // cache): stores `addr` in the client's next unpublished ring slot, where
  // the server cannot see it until a doorbell publishes it. A stage holds at
  // most `batch` frees; its first free reserves all `batch` slots.
  void StageFree(Env& client_env, std::uint64_t addr, std::uint32_t batch);

  // Publishes the client's staged frees with one doorbell (no-op if none).
  void PublishStaged(Env& client_env);

  // Frees staged on `client`'s ring and not yet published.
  std::uint32_t staged_frees(int client) const {
    return prod_cache_[static_cast<std::size_t>(client)].staged;
  }

  // Non-blocking tagged request (the stash pipeline's kRefillStash): pushes
  // one tagged entry on the client's ring (publishing any staged frees
  // ahead of it), then serves the ring in the server's drain window -- on
  // the server's OWN clock, starting no earlier than the doorbell store,
  // WITHOUT advancing the client to the server's finish. The service
  // overlaps with whatever the client does next; callers observe completion
  // through state the server handler publishes (the stash publish word).
  // Returns the server clock after the drain.
  std::uint64_t AsyncRequestKicked(Env& client_env, OffloadOp op, std::uint64_t arg);

  // Processes every pending async entry of every client on the server core.
  void DrainAll();

  const OffloadEngineStats& stats() const { return stats_; }

  // Per-request instruction overhead of the server's poll loop (dispatch,
  // flag checks). Exposed for the ablation benches.
  void set_poll_work(std::uint32_t n) { poll_work_ = n; }

  // Shard index used to label this engine's telemetry (the fabric sets it;
  // a standalone engine reports as shard 0).
  void set_shard_id(int s) { shard_id_ = s; }
  int shard_id() const { return shard_id_; }

  // Invoked on the server's Env after every ring drain -- the server's idle
  // window, before any pending sync request is served. The watermark
  // rebalancer piggybacks refill/offer/return traffic here so it never rides
  // the malloc critical path. Null (the default) costs nothing.
  void set_post_drain_hook(std::function<void(Env&)> hook) {
    post_drain_hook_ = std::move(hook);
  }

  // Background drain threshold: when > 0 and a RingPush leaves at least this
  // many entries pending, the spinning server drains the ring on its OWN
  // clock (an AsyncRequestKicked-style kick, no client stall) instead of
  // letting it fill to the StallOnFullRing backpressure point. Models the
  // server noticing a filling ring during its poll loop. 0 (default) keeps
  // the historical stall-only behaviour bit-identical.
  void set_eager_drain_at(std::uint32_t n) { eager_drain_at_ = n; }

  // Producer-side index cache (the standard SPSC ring idiom; DESIGN.md §9):
  // each client keeps its own head index plus a cached copy of the server's
  // tail in registers, so a push is just the entry store and the head
  // release-store. The tail line -- which the server rewrites on every drain
  // and would otherwise transfer back on every occupancy check -- is
  // re-read only when the cached copy says the ring is full (at most one
  // stale-full false positive per capacity pushes, since the real tail only
  // ever advances). Owning the head also lets frees stage past it
  // (StageFree). Off by default; the stash pipeline and free_batch > 1
  // enable it, keeping the plain free_batch = 1 protocol the seed's.
  void set_producer_index_cache(bool on) { producer_cache_ = on; }

 private:
  Env ServerEnv() { return Env(*machine_, server_core_); }
  // Drains every pending entry of `client`'s ring on the server clock.
  void DrainRing(Env& server_env, int client);
  // The spinning server picks `client`'s doorbell up in its drain window on
  // its OWN clock, starting no earlier than the client's store; the client
  // is not advanced. Returns the server clock after the drain.
  std::uint64_t ServeDoorbell(Env& client_env, int client);
  // Ring-full backpressure: runs the server's drain for `client` and syncs
  // the client clock to it.
  void StallOnFullRing(Env& client_env, int client);
  // Lazily binds the metric handles (first record after telemetry enable).
  void BindInstruments();
  bool Recording() {
    if (!machine_->telemetry().enabled()) {
      return false;
    }
    if (!instruments_bound_) {
      BindInstruments();
    }
    return true;
  }
  // Flight-recorder handle, or null when the recorder is off. Observational:
  // every use reads clocks/counters and never advances them.
  FlightRecorder* Recorder() {
    Telemetry& tel = machine_->telemetry();
    return tel.recording() ? &tel.recorder() : nullptr;
  }

  // Per-client producer registers (host-side mirrors of simulated state; see
  // set_producer_index_cache). `head` shadows the value the client last
  // release-stored; `cached_tail` lags the server's true tail, which is safe
  // because a stale tail only UNDER-estimates free space, never over.
  // `staged` frees sit in the slots from `head` on, stored but unpublished.
  struct ProducerIndexCache {
    std::uint64_t head = 0;
    std::uint64_t cached_tail = 0;
    std::uint32_t staged = 0;
  };
  // Space check + stale-tail refresh + stall for an n-entry cached push.
  void CachedPushReserve(Env& client_env, int client, std::uint32_t n);
  // The one doorbell every fire-and-forget push rings: appends `n` entries
  // (n <= 1 without the producer index cache) behind the client's staged
  // frees and publishes them all with one head release-store, stalling on
  // a full ring. Returns the ring occupancy after the push.
  std::uint64_t Push(Env& client_env, int client, const std::uint64_t* entries,
                     std::uint32_t n);
  // The eager-drain policy (set_eager_drain_at) after a push left the ring
  // holding `occupancy` entries.
  void MaybeEagerDrain(Env& client_env, int client, std::uint64_t occupancy) {
    if (eager_drain_at_ > 0 && occupancy >= eager_drain_at_) {
      ServeDoorbell(client_env, client);
    }
  }

  // Host-side accounting of server cycles spent in carve-path handlers.
  void NoteCarveCycles(std::uint64_t cycles) {
    stats_.carve_cycles += cycles;
    if (cycles > 0) {
      if (Recording()) {
        c_carve_cycles_->Add(cycles);
      }
      if (FlightRecorder* rec = Recorder()) {
        rec->AddCycles(FlightRecorder::kServerCarve, cycles);
      }
    }
  }

  Machine* machine_;
  int server_core_;
  int shard_id_ = 0;
  OffloadServer* server_ = nullptr;
  std::uint32_t poll_work_ = 6;
  std::uint32_t eager_drain_at_ = 0;
  bool producer_cache_ = false;
  std::vector<ProducerIndexCache> prod_cache_;  // one per client core
  std::vector<Channel> channels_;
  std::vector<std::uint64_t> seq_;  // per-client request sequence numbers
  OffloadEngineStats stats_;
  std::function<void(Env&)> post_drain_hook_;

  // Telemetry handles (host-side observation only; see src/telemetry/).
  // Sync latency is split per op; index = static_cast<int>(OffloadOp).
  bool instruments_bound_ = false;
  Histogram* h_sync_latency_[kOffloadOpCount] = {};
  Histogram* h_queue_wait_ = nullptr;
  Histogram* h_drain_batch_ = nullptr;
  Histogram* h_ring_occupancy_ = nullptr;
  Counter* c_sync_requests_ = nullptr;
  Counter* c_async_ops_ = nullptr;
  Counter* c_ring_full_ = nullptr;
  Counter* c_carve_cycles_ = nullptr;
};

}  // namespace ngx

#endif  // NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_
