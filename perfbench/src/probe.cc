#include "perfbench/src/probe.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/telemetry/json.h"

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRunWorkload:
      return "RunWorkload";
    case SpanKind::kMakeThreads:
      return "Workload::MakeThreads";
    case SpanKind::kSchedulerRun:
      return "Scheduler::Run";
    case SpanKind::kMalloc:
      return "Allocator::Malloc";
    case SpanKind::kFree:
      return "Allocator::Free";
    case SpanKind::kFlush:
      return "Allocator::Flush";
    case SpanKind::kDrainAll:
      return "OffloadFabric::DrainAll";
    case SpanKind::kNumKinds:
      break;
  }
  return "?";
}

std::uint64_t MaxClock(const ngx::Machine& machine) {
  std::uint64_t t = 0;
  for (int c = 0; c < machine.num_cores(); ++c) {
    t = std::max(t, machine.core(c).now());
  }
  return t;
}

std::uint64_t Percentile(const LatencyHistogram& h, double p) {
  std::uint64_t total = 0;
  for (const auto& [cycles, n] : h) {
    total += n;
  }
  const auto rank = static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (const auto& [cycles, n] : h) {
    seen += n;
    if (seen >= rank) {
      return cycles;
    }
  }
  return 0;
}

void SpanLog::Begin(SpanKind kind, std::uint64_t sim_now) {
  Open o;
  o.rec.kind = kind;
  o.rec.parent = stack_.empty() ? -1 : stack_.back().index;
  o.rec.sim_start = sim_now;
  if (spans_.size() < keep_) {
    o.index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(o.rec);
  } else {
    ++dropped_;
  }
  o.rec.host_start_ns = HostNs();
  stack_.push_back(o);
}

void SpanLog::End(std::uint64_t sim_now) {
  const std::uint64_t end_ns = HostNs();
  Open o = stack_.back();
  stack_.pop_back();
  o.rec.host_end_ns = end_ns;
  o.rec.sim_end = sim_now;
  const std::uint64_t dur = end_ns - o.rec.host_start_ns;
  SpanTotals& t = totals_[static_cast<std::size_t>(o.rec.kind)];
  ++t.count;
  t.host_ns += dur;
  t.child_host_ns += o.child_ns;
  t.sim_cycles += sim_now >= o.rec.sim_start ? sim_now - o.rec.sim_start : 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (o.index >= 0) {
    spans_[static_cast<std::size_t>(o.index)] = o.rec;
  }
}

std::string SpanLog::ToJson() const {
  using ngx::JsonValue;
  JsonValue root = JsonValue::Object();
  JsonValue totals = JsonValue::Object();
  for (int k = 0; k < kNumSpanKinds; ++k) {
    const SpanTotals& t = totals_[static_cast<std::size_t>(k)];
    JsonValue o = JsonValue::Object();
    o.Set("count", JsonValue(t.count));
    o.Set("host_ns", JsonValue(t.host_ns));
    o.Set("self_host_ns", JsonValue(t.host_ns - std::min(t.host_ns, t.child_host_ns)));
    o.Set("sim_cycles", JsonValue(t.sim_cycles));
    totals.Set(SpanName(static_cast<SpanKind>(k)), std::move(o));
  }
  root.Set("totals", std::move(totals));
  root.Set("dropped_spans", JsonValue(dropped_));
  JsonValue spans = JsonValue::Array();
  for (const SpanRecord& s : spans_) {
    JsonValue o = JsonValue::Object();
    o.Set("name", JsonValue(SpanName(s.kind)));
    o.Set("parent", JsonValue(s.parent));
    o.Set("host_start_ns", JsonValue(s.host_start_ns));
    o.Set("host_end_ns", JsonValue(s.host_end_ns));
    o.Set("sim_start", JsonValue(s.sim_start));
    o.Set("sim_end", JsonValue(s.sim_end));
    spans.Push(std::move(o));
  }
  root.Set("spans", std::move(spans));
  return root.Dump();
}

ngx::Addr ProbeAllocator::Malloc(ngx::Env& env, std::uint64_t size) {
  const std::uint64_t sim_start = env.now();
  std::uint64_t host_start = 0;
  if (spans_ != nullptr) {
    spans_->Begin(SpanKind::kMalloc, sim_start);
    host_start = HostNs();
  }
  const ngx::Addr a = inner_->Malloc(env, size);
  if (spans_ != nullptr) {
    report_.host_malloc_ns += HostNs() - host_start;
    spans_->End(env.now());
  }
  ++report_.malloc_cycles[env.now() - sim_start];
  ++report_.malloc_calls;
  report_.bytes_requested += size;
  if (a == ngx::kNullAddr) {
    ++report_.violations.null_mallocs;
    return a;
  }
  const std::uint64_t len = std::max<std::uint64_t>(size, 1);
  auto next = live_.upper_bound(a);
  const bool hits_next = next != live_.end() && next->first < a + len;
  const bool hits_prev = next != live_.begin() &&
                         std::prev(next)->first + std::prev(next)->second > a;
  if (hits_next || hits_prev) {
    ++report_.violations.overlaps;
    return a;
  }
  live_.emplace_hint(next, a, len);
  if (nextgen_ != nullptr) {
    const auto core = static_cast<std::size_t>(env.core_id());
    if (malloc_shard_.size() <= core) {
      malloc_shard_.resize(core + 1, -1);
    }
    malloc_shard_[core] = nextgen_->ShardOfAddr(a);
  }
  live_bytes_ += len;
  report_.peak_live_bytes = std::max(report_.peak_live_bytes, live_bytes_);
  return a;
}

void ProbeAllocator::Free(ngx::Env& env, ngx::Addr addr) {
  ++report_.free_calls;
  const auto it = live_.find(addr);
  if (it == live_.end()) {
    // Not handed to the allocator: freeing an address it never returned (or
    // returned and already took back) would corrupt its books.
    ++report_.violations.bad_frees;
    return;
  }
  if (nextgen_ != nullptr) {
    // Cross-shard: the block belongs to another shard than the one serving
    // this core's own most recent malloc.
    const auto core = static_cast<std::size_t>(env.core_id());
    if (core < malloc_shard_.size() && malloc_shard_[core] >= 0 &&
        nextgen_->ShardOfAddr(addr) != malloc_shard_[core]) {
      ++report_.cross_shard_frees;
    }
  }
  live_bytes_ -= it->second;
  live_.erase(it);

  const std::uint64_t sim_start = env.now();
  std::uint64_t host_start = 0;
  if (spans_ != nullptr) {
    spans_->Begin(SpanKind::kFree, sim_start);
    host_start = HostNs();
  }
  inner_->Free(env, addr);
  if (spans_ != nullptr) {
    report_.host_free_ns += HostNs() - host_start;
    spans_->End(env.now());
  }
  ++report_.free_cycles[env.now() - sim_start];
}

void ProbeAllocator::OnThreadsBuilt(std::uint64_t sim_now) {
  run_open_ = true;
  if (spans_ != nullptr) {
    spans_->Begin(SpanKind::kSchedulerRun, sim_now);
  }
}

void ProbeAllocator::Flush(ngx::Env& env) {
  if (run_open_) {
    // RunWorkload flushes only after Scheduler::Run returned.
    run_open_ = false;
    if (spans_ != nullptr) {
      spans_->End(MaxClock(env.machine()));
    }
  }
  if (spans_ != nullptr) {
    spans_->Begin(SpanKind::kFlush, env.now());
  }
  inner_->Flush(env);
  if (spans_ != nullptr) {
    spans_->End(env.now());
  }
}

std::vector<std::unique_ptr<ngx::SimThread>> ProbeWorkload::MakeThreads(
    ngx::Machine& machine, ngx::Allocator& alloc, const std::vector<int>& cores,
    std::uint64_t seed) {
  const std::uint64_t start = HostNs();
  if (spans_ != nullptr) {
    spans_->Begin(SpanKind::kMakeThreads, MaxClock(machine));
  }
  auto threads = inner_->MakeThreads(machine, alloc, cores, seed);
  if (spans_ != nullptr) {
    spans_->End(MaxClock(machine));
  }
  build_ns_ = HostNs() - start;
  probe_->OnThreadsBuilt(MaxClock(machine));
  return threads;
}

}  // namespace perfbench
