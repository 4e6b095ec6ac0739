#include "perfbench/src/tenants_shift.h"

#include <utility>

#include "src/workload/alloc_ops.h"
#include "src/workload/rng.h"

namespace perfbench {
namespace {

struct Phase {
  std::uint32_t live_blocks = 0;
  std::uint32_t ops = 0;  // churn replacements after the fill
  std::uint64_t min_size = 0;
  std::uint64_t max_size = 0;
  std::uint32_t work = 0;  // app instructions per churn step
};

// Closed loop: each step issues at most one free and one malloc and waits
// for both. A null malloc ends the tenant (the verifier counts it).
class TenantThread : public ngx::SimThread {
 public:
  TenantThread(std::vector<Phase> phases, ngx::Allocator& alloc, int core, std::uint64_t seed)
      : phases_(std::move(phases)), alloc_(&alloc), core_(core), rng_(seed) {}

  int core_id() const override { return core_; }

  bool Step(ngx::Env& env) override {
    if (phase_ >= phases_.size()) {
      return false;
    }
    const Phase& p = phases_[phase_];
    if (draining_) {
      if (!blocks_.empty()) {
        ngx::TimedFree(env, *alloc_, blocks_.back());
        blocks_.pop_back();
        return true;
      }
      draining_ = false;
      done_ = 0;
      ++phase_;
      return phase_ < phases_.size();
    }
    if (blocks_.size() < p.live_blocks) {
      const ngx::Addr b = ngx::TimedMalloc(env, *alloc_, rng_.Range(p.min_size, p.max_size));
      if (b == ngx::kNullAddr) {
        return false;
      }
      env.TouchWrite(b, 32);
      blocks_.push_back(b);
      return true;
    }
    if (done_ >= p.ops) {
      draining_ = true;
      return true;
    }
    const std::size_t i = rng_.Below(blocks_.size());
    ngx::TimedFree(env, *alloc_, blocks_[i]);
    const ngx::Addr b = ngx::TimedMalloc(env, *alloc_, rng_.Range(p.min_size, p.max_size));
    if (b == ngx::kNullAddr) {
      blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
      return false;
    }
    env.TouchWrite(b, 32);
    env.Work(p.work);
    blocks_[i] = b;
    ++done_;
    return true;
  }

 private:
  std::vector<Phase> phases_;
  ngx::Allocator* alloc_;
  int core_;
  ngx::Rng rng_;
  std::vector<ngx::Addr> blocks_;
  std::size_t phase_ = 0;
  std::uint32_t done_ = 0;
  bool draining_ = false;
};

}  // namespace

std::vector<std::unique_ptr<ngx::SimThread>> TenantsShift::MakeThreads(
    ngx::Machine& machine, ngx::Allocator& alloc, const std::vector<int>& cores,
    std::uint64_t seed) {
  (void)machine;
  const std::uint32_t k = config_.ops_scale;
  // Disjoint size bands, so a shard's slabs stay warm only for the classes
  // of the tenants routed to it.
  struct Band {
    std::uint64_t min_size;
    std::uint64_t max_size;
  };
  const Band bands[4] = {{64, 128}, {512, 768}, {2048, 3072}, {192, 256}};
  auto hot = [&](int t) { return Phase{160, 1200 * k, bands[t].min_size, bands[t].max_size, 30}; };
  auto cold = [&](int t) { return Phase{8, 120 * k, bands[t].min_size, bands[t].max_size, 2000}; };
  // Tenant 0's burst: ~18 MiB of 8-16 KiB blocks, more than one shard's
  // 16 MiB slice of the heap window, yet inside Mimalloc's small-object
  // range, so the baseline serves it from its ordinary pages.
  const Phase burst{1500, 300 * k, 8 * 1024, 16 * 1024, 30};
  const std::vector<std::vector<Phase>> schedules = {
      {burst, hot(0), cold(0)},
      {hot(1), cold(1), cold(1)},
      {cold(2), hot(2), cold(2)},
      {cold(3), cold(3), hot(3)},
  };
  std::vector<std::unique_ptr<ngx::SimThread>> threads;
  threads.reserve(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    threads.push_back(std::make_unique<TenantThread>(schedules[i % schedules.size()], alloc,
                                                     cores[i], seed + 31 * i));
  }
  return threads;
}

}  // namespace perfbench
