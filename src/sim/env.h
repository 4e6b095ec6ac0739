// Env: the per-thread handle through which all simulated code (allocators,
// offload channels, workloads) touches memory.
//
// Every Load/Store both moves real bytes in SimMemory *and* charges time and
// PMU events on the calling core. This is what makes cache pollution, TLB
// pressure and coherence traffic emerge from data-structure layout instead of
// being scripted.
#ifndef NGX_SRC_SIM_ENV_H_
#define NGX_SRC_SIM_ENV_H_

#include <cstring>

#include "src/sim/machine.h"
#include "src/sim/types.h"

namespace ngx {

class Env {
 public:
  Env(Machine& machine, int core_id) : machine_(&machine), core_id_(core_id) {}

  int core_id() const { return core_id_; }
  Machine& machine() { return *machine_; }
  std::uint64_t now() const { return machine_->core(core_id_).now(); }

  // ---- Timed data accesses ----
  template <typename T>
  T Load(Addr a) {
    machine_->Access(core_id_, a, sizeof(T), AccessType::kLoad);
    return machine_->memory().Read<T>(a);
  }

  template <typename T>
  void Store(Addr a, const T& v) {
    machine_->memory().Write<T>(a, v);
    machine_->Access(core_id_, a, sizeof(T), AccessType::kStore);
  }

  void LoadBytes(Addr a, void* dst, std::uint32_t n) {
    machine_->Access(core_id_, a, n, AccessType::kLoad);
    machine_->memory().ReadBytes(a, dst, n);
  }

  void StoreBytes(Addr a, const void* src, std::uint32_t n) {
    machine_->memory().WriteBytes(a, src, n);
    machine_->Access(core_id_, a, n, AccessType::kStore);
  }

  // Touches [a, a+n) with loads (pointer-chase-free streaming read).
  void TouchRead(Addr a, std::uint32_t n) { machine_->Access(core_id_, a, n, AccessType::kLoad); }
  // Touches [a, a+n) with stores without materializing payload bytes.
  void TouchWrite(Addr a, std::uint32_t n) { machine_->Access(core_id_, a, n, AccessType::kStore); }

  // Software prefetch of the line holding `a` (see Machine::Prefetch).
  // Returns the cycles until the line lands.
  std::uint64_t Prefetch(Addr a) { return machine_->Prefetch(core_id_, a); }

  // ---- Atomics (on 64-bit words) ----
  std::uint64_t AtomicFetchAdd(Addr a, std::uint64_t delta) {
    const std::uint64_t old = machine_->memory().Read<std::uint64_t>(a);
    machine_->memory().Write<std::uint64_t>(a, old + delta);
    machine_->Access(core_id_, a, 8, AccessType::kAtomicRmw);
    return old;
  }

  std::uint64_t AtomicExchange(Addr a, std::uint64_t v) {
    const std::uint64_t old = machine_->memory().Read<std::uint64_t>(a);
    machine_->memory().Write<std::uint64_t>(a, v);
    machine_->Access(core_id_, a, 8, AccessType::kAtomicRmw);
    return old;
  }

  // Compare-and-swap; returns true on success (and performs a full RMW
  // either way, as hardware CAS does).
  bool AtomicCompareExchange(Addr a, std::uint64_t expected, std::uint64_t desired) {
    const std::uint64_t old = machine_->memory().Read<std::uint64_t>(a);
    const bool ok = old == expected;
    if (ok) {
      machine_->memory().Write<std::uint64_t>(a, desired);
    }
    machine_->Access(core_id_, a, 8, AccessType::kAtomicRmw);
    return ok;
  }

  // Acquire-load / release-store. On the simulated (weak) machine these cost
  // the same as plain accesses; the distinction is kept for readability and
  // so a fence cost could be added in one place.
  std::uint64_t AtomicLoad(Addr a) { return Load<std::uint64_t>(a); }
  void AtomicStore(Addr a, std::uint64_t v) { Store<std::uint64_t>(a, v); }

  // ---- Non-memory work ----
  void Work(std::uint64_t instructions) { machine_->Work(core_id_, instructions); }

  // ---- Kernel interface ----
  void ChargeSyscall() { machine_->ChargeSyscall(core_id_); }

 private:
  Machine* machine_;
  int core_id_;
};

// RAII marker: cycles/instructions charged on this core while alive are
// attributed to allocator time (PmuCounters::alloc_*).
class AllocScope {
 public:
  explicit AllocScope(Env& env) : core_(&env.machine().core(env.core_id())) {
    core_->EnterAllocScope();
  }
  ~AllocScope() { core_->ExitAllocScope(); }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  Core* core_;
};

}  // namespace ngx

#endif  // NGX_SRC_SIM_ENV_H_
