// Benchmark-side instruments wrapped around the simulator's public APIs.
//
// ProbeAllocator decorates any Allocator. It never touches simulated memory:
// it reads the calling core's clock around each Malloc/Free (client-observed
// latency in simulated cycles) and keeps a host-side map of live blocks that
// flags overlapping blocks, frees of unknown or already-freed addresses and
// null mallocs. With tracing on it also times every call on the host and
// records spans.
//
// ProbeWorkload decorates a Workload so the boundaries RunWorkload crosses
// internally (thread construction, then Scheduler::Run, then the per-core
// Flush calls) become visible from outside.
#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/core/nextgen_malloc.h"
#include "src/workload/workload.h"

namespace perfbench {

using HostClock = std::chrono::steady_clock;

inline std::uint64_t HostNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        HostClock::now().time_since_epoch())
                                        .count());
}

enum class SpanKind : int {
  kRunWorkload = 0,
  kMakeThreads,
  kSchedulerRun,
  kMalloc,
  kFree,
  kFlush,
  kDrainAll,
  kNumKinds,
};
inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::kNumKinds);
const char* SpanName(SpanKind kind);

// Latest clock over every core of `machine` (simulated cycles).
std::uint64_t MaxClock(const ngx::Machine& machine);

struct SpanRecord {
  SpanKind kind = SpanKind::kRunWorkload;
  std::int64_t parent = -1;  // index into SpanLog::spans(), -1 for a root
  std::uint64_t host_start_ns = 0;
  std::uint64_t host_end_ns = 0;
  std::uint64_t sim_start = 0;
  std::uint64_t sim_end = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t host_ns = 0;
  std::uint64_t child_host_ns = 0;  // self time = host_ns - child_host_ns
  std::uint64_t sim_cycles = 0;
};

// Strictly nested spans kept in memory. Per-kind totals cover every span;
// the first `keep` spans are also kept whole for the trace file (the rest
// are counted in dropped()).
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep) : keep_(keep) {}

  void Begin(SpanKind kind, std::uint64_t sim_now);
  void End(std::uint64_t sim_now);

  const SpanTotals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t dropped() const { return dropped_; }
  // Spans and per-kind totals (with self time) as one JSON document.
  std::string ToJson() const;

 private:
  struct Open {
    SpanRecord rec;
    std::int64_t index = -1;  // position in spans_, -1 when not kept
    std::uint64_t child_ns = 0;
  };
  std::size_t keep_;
  std::vector<SpanRecord> spans_;
  std::vector<Open> stack_;
  std::array<SpanTotals, kNumSpanKinds> totals_{};
  std::uint64_t dropped_ = 0;
};

// What the verifier found. Every field counts toward the failed ops.
struct Violations {
  std::uint64_t null_mallocs = 0;
  std::uint64_t overlaps = 0;
  std::uint64_t bad_frees = 0;  // unknown or already-freed address
  std::uint64_t leaks = 0;      // blocks still live when the workload ended

  std::uint64_t total() const { return null_mallocs + overlaps + bad_frees + leaks; }
};

// Exact latency distribution: a call's cycle count -> calls that took it.
// Latencies take few distinct values, so this stays small.
using LatencyHistogram = std::map<std::uint64_t, std::uint64_t>;

// Nearest-rank percentile (0 < p <= 1) of a histogram; 0 when empty.
std::uint64_t Percentile(const LatencyHistogram& h, double p);

// Everything the probe counted, at the allocator boundary.
struct ProbeReport {
  Violations violations;
  std::uint64_t malloc_calls = 0;
  std::uint64_t free_calls = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t peak_live_bytes = 0;
  std::uint64_t cross_shard_frees = 0;
  // Client-observed latency per call: simulated cycles -> number of calls.
  LatencyHistogram malloc_cycles;
  LatencyHistogram free_cycles;
  // Host time inside the wrapped allocator (tracing only).
  std::uint64_t host_malloc_ns = 0;
  std::uint64_t host_free_ns = 0;
};

class ProbeAllocator : public ngx::Allocator {
 public:
  // `nextgen` (optional) resolves shard ownership host-side for the
  // cross-shard free count; `spans` (optional) turns tracing on.
  ProbeAllocator(ngx::Allocator& inner, const ngx::NgxAllocator* nextgen, SpanLog* spans)
      : inner_(&inner), nextgen_(nextgen), spans_(spans) {}

  std::string_view name() const override { return inner_->name(); }
  ngx::Addr Malloc(ngx::Env& env, std::uint64_t size) override;
  void Free(ngx::Env& env, ngx::Addr addr) override;
  std::uint64_t UsableSize(ngx::Env& env, ngx::Addr addr) override {
    return inner_->UsableSize(env, addr);
  }
  void Flush(ngx::Env& env) override;
  ngx::AllocatorStats stats() const override { return inner_->stats(); }

  // Called by ProbeWorkload once the workload's threads exist: opens the
  // Scheduler::Run span, which the first Flush closes.
  void OnThreadsBuilt(std::uint64_t sim_now);
  // Counts every block still live as a leak.
  void CheckNoLeaks() { report_.violations.leaks += live_.size(); }

  const ProbeReport& report() const { return report_; }
  ProbeReport TakeReport() { return std::move(report_); }

 private:
  ngx::Allocator* inner_;
  const ngx::NgxAllocator* nextgen_;
  SpanLog* spans_;
  std::map<ngx::Addr, std::uint64_t> live_;  // block -> requested size
  std::vector<int> malloc_shard_;  // per core: shard of its latest malloc
  ProbeReport report_;
  std::uint64_t live_bytes_ = 0;
  bool run_open_ = false;
};

class ProbeWorkload : public ngx::Workload {
 public:
  ProbeWorkload(ngx::Workload& inner, ProbeAllocator& probe, SpanLog* spans)
      : inner_(&inner), probe_(&probe), spans_(spans) {}

  std::string_view name() const override { return inner_->name(); }
  std::vector<std::unique_ptr<ngx::SimThread>> MakeThreads(ngx::Machine& machine,
                                                           ngx::Allocator& alloc,
                                                           const std::vector<int>& cores,
                                                           std::uint64_t seed) override;

  // Host time MakeThreads took.
  std::uint64_t build_ns() const { return build_ns_; }

 private:
  ngx::Workload* inner_;
  ProbeAllocator* probe_;
  SpanLog* spans_;
  std::uint64_t build_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
