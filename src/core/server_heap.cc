#include "src/core/server_heap.h"

#include <cassert>

#include "src/alloc/freelist.h"
#include "src/alloc/layout.h"
#include "src/core/segment_heap.h"
#include "src/sim/check.h"

namespace ngx {

namespace {

// ---------------------------------------------------------------------------
// SegregatedHeap
//
// Metadata region layout:
//   +0                    heap lock (optional)
//   +64                   per-class bump cursors: (addr, remaining) pairs
//   +64 + 16*ncls         per-class free stacks (IndexStack)
//   spanmap_off           span class map, ONE u16 PER SPAN (the paper's
//                         "smaller index (16-bit for example)")
//   largemap_off          u64 bytes per span, used only by large mappings
//   overflow_off          per-class overflow stacks (sparse, demand-touched):
//                         frees past stack_capacity grow HERE instead of
//                         leaking; kOverflowMultiple bounds the growth before
//                         the heap fails loudly
// ---------------------------------------------------------------------------
class SegregatedHeap : public ServerHeap {
 public:
  SegregatedHeap(Machine& machine, Addr heap_base, Addr meta_base,
                 const ServerHeapConfig& config)
      : machine_(&machine),
        config_(config),
        classes_(config.small_max),
        span_provider_(heap_base, config.window_bytes ? config.window_bytes : kHeapWindow,
                       "ngx-span"),
        meta_provider_(meta_base,
                       config.meta_window_bytes
                           ? config.meta_window_bytes
                           : (config.window_bytes ? config.window_bytes : kHeapWindow),
                       "ngx-meta"),
        heap_base_(heap_base),
        lock_(0) {
    const std::uint32_t ncls = classes_.num_classes();
    const std::uint64_t max_spans = (32ull << 30) / config.span_bytes;
    cursor_off_ = 64;
    stacks_off_ = cursor_off_ + 16ull * ncls;
    const std::uint64_t stack_stride =
        AlignUp(IndexStack::FootprintBytes(config.stack_capacity), 64);
    spanmap_off_ = AlignUp(stacks_off_ + stack_stride * ncls, kSmallPageBytes);
    largemap_off_ = AlignUp(spanmap_off_ + 2 * max_spans, kSmallPageBytes);
    const std::uint64_t total = AlignUp(largemap_off_ + 8 * max_spans, kSmallPageBytes);
    // Overflow stacks live past the mapped tables as sparse memory: rows are
    // materialized page by page only if a class ever saturates, so the dense
    // layout -- and with it every non-saturated run -- is byte-identical to
    // a build without them.
    overflow_off_ = total;
    overflow_stride_ = AlignUp(
        IndexStack::FootprintBytes(config.stack_capacity * kOverflowMultiple),
        kSmallPageBytes);
    overflow_depth_.assign(ncls, 0);
    // One contiguous table block: hugepage_metadata trades a little tail
    // rounding for 2-MiB TLB reach over the span map the carve path walks.
    meta_base_ = meta_provider_.MapAtStartup(
        machine, total,
        config.hugepage_metadata ? PageKind::kHuge2M : PageKind::kSmall4K);
    stack_stride_ = stack_stride;
    lock_ = SimLock(meta_base_);
  }

  std::string_view name() const override { return "ngx-segregated"; }

  Addr Malloc(Env& env, std::uint64_t size) override {
    ++stats_.mallocs;
    stats_.bytes_requested += size;
    MaybeLock(env);
    Addr r;
    if (size > config_.small_max) {
      r = MallocLarge(env, size);
    } else {
      r = MallocSmall(env, size);
    }
    MaybeUnlock(env);
    return r;
  }

  void Free(Env& env, Addr addr) override {
    if (addr == kNullAddr) {
      return;
    }
    ++stats_.frees;
    MaybeLock(env);
    env.Work(5);
    const std::uint64_t span = SpanIndex(addr);
    const std::uint16_t tag = env.Load<std::uint16_t>(SpanTagAddr(span));
    assert(tag != kTagFree && "free of unallocated address");
    if (tag == kTagLarge) {
      const std::uint64_t bytes = env.Load<std::uint64_t>(LargeBytesAddr(span));
      stats_.bytes_live -= bytes;
      --large_blocks_;
      large_bytes_ -= bytes;
      env.Store<std::uint16_t>(SpanTagAddr(span), kTagFree);
      ++stats_.munmap_calls;
      span_provider_.Unmap(env, addr, bytes);
    } else {
      const std::uint32_t cls = tag - kTagClassBase;
      stats_.bytes_live -= classes_.SizeOf(cls);
      // A saturated dense stack used to drop the block silently -- a
      // permanent leak, since a dropped address can never be reused. Grow
      // into the class's sparse overflow stack instead, and only fail
      // (loudly) when even the grown bound is exhausted. The failed Push
      // performs the same accesses it always did, so runs that never
      // saturate stay bit-identical.
      if (!Stack(cls).Push(env, addr)) {
        NGX_CHECK(OverflowStack(cls).Push(env, addr),
                  "segregated free stack overflow exhausted; raise "
                  "ServerHeapConfig::stack_capacity");
        ++overflow_depth_[cls];
      }
    }
    MaybeUnlock(env);
  }

  std::uint64_t UsableSize(Env& env, Addr addr) override {
    const std::uint64_t span = SpanIndex(addr);
    const std::uint16_t tag = env.Load<std::uint16_t>(SpanTagAddr(span));
    if (tag == kTagLarge) {
      return env.Load<std::uint64_t>(LargeBytesAddr(span));
    }
    return classes_.SizeOf(tag - kTagClassBase);
  }

  std::int64_t ClassifyForRecycle(Env& env, Addr addr) override {
    const std::uint16_t tag = env.Load<std::uint16_t>(SpanTagAddr(SpanIndex(addr)));
    if (tag < kTagClassBase) {
      return -1;
    }
    return static_cast<std::int64_t>(tag - kTagClassBase);
  }

  AllocatorStats stats() const override {
    AllocatorStats s = stats_;
    s.mapped_bytes = span_provider_.mapped_bytes() + meta_provider_.mapped_bytes();
    s.mmap_calls = span_provider_.mmap_calls();
    s.munmap_calls = span_provider_.munmap_calls();
    return s;
  }

  HeapInspection Inspect() const override {
    HeapInspection in;
    in.bytes_live = stats_.bytes_live;
    in.data_mapped_bytes = span_provider_.mapped_bytes();
    in.meta_mapped_bytes = meta_provider_.mapped_bytes();
    // Per-class occupancy from the side tables: the dense stack's count word
    // (untimed read) plus the sparse overflow's host-side depth mirror; the
    // cursor pair's remaining word gives the bump reserve. O(num_classes).
    const SimMemory& mem = machine_->memory();
    for (std::uint32_t cls = 0; cls < classes_.num_classes(); ++cls) {
      const std::uint64_t depth =
          mem.Read<std::uint64_t>(meta_base_ + stacks_off_ + stack_stride_ * cls) +
          overflow_depth_[cls];
      in.free_blocks += depth;
      in.free_block_bytes += depth * classes_.SizeOf(cls);
      in.bump_reserve_bytes += mem.Read<std::uint64_t>(CursorAddr(cls) + 8);
    }
    in.large_blocks = large_blocks_;
    in.large_bytes = large_bytes_;
    return in;
  }

  PageProvider& span_provider() override { return span_provider_; }

 private:
  static constexpr std::uint16_t kTagFree = 0;
  static constexpr std::uint16_t kTagLarge = 1;
  static constexpr std::uint16_t kTagClassBase = 2;
  // Overflow bound: a class may hold this many times stack_capacity extra
  // freed blocks before Free fails loudly.
  static constexpr std::uint32_t kOverflowMultiple = 64;

  std::uint64_t SpanIndex(Addr a) const { return (a - heap_base_) / config_.span_bytes; }
  Addr SpanTagAddr(std::uint64_t span) const { return meta_base_ + spanmap_off_ + 2 * span; }
  Addr LargeBytesAddr(std::uint64_t span) const {
    return meta_base_ + largemap_off_ + 8 * span;
  }
  IndexStack Stack(std::uint32_t cls) const {
    return IndexStack(meta_base_ + stacks_off_ + stack_stride_ * cls, config_.stack_capacity);
  }
  IndexStack OverflowStack(std::uint32_t cls) const {
    return IndexStack(meta_base_ + overflow_off_ + overflow_stride_ * cls,
                      config_.stack_capacity * kOverflowMultiple);
  }
  Addr CursorAddr(std::uint32_t cls) const { return meta_base_ + cursor_off_ + 16ull * cls; }

  void MaybeLock(Env& env) {
    if (config_.use_lock) {
      lock_.Acquire(env);
    }
  }
  void MaybeUnlock(Env& env) {
    if (config_.use_lock) {
      lock_.Release(env);
    }
  }

  Addr MallocSmall(Env& env, std::uint64_t size) {
    env.Work(6);
    const std::uint32_t cls = classes_.ClassOf(size);
    IndexStack stack = Stack(cls);
    std::uint64_t block = 0;
    if (stack.Pop(env, &block)) {
      stats_.bytes_live += classes_.SizeOf(cls);
      return block;
    }
    // Drain any overflowed frees before carving new memory. The host-side
    // depth mirror keeps this free of simulated accesses (and so
    // bit-identical) whenever the class never saturated.
    if (overflow_depth_[cls] > 0) {
      const bool popped = OverflowStack(cls).Pop(env, &block);
      assert(popped);
      (void)popped;
      --overflow_depth_[cls];
      stats_.bytes_live += classes_.SizeOf(cls);
      return block;
    }
    // Bump-carve from the class's current span.
    const std::uint64_t bs = classes_.SizeOf(cls);
    Addr bump = env.Load<Addr>(CursorAddr(cls));
    std::uint64_t remaining = env.Load<std::uint64_t>(CursorAddr(cls) + 8);
    if (remaining < bs) {
      const Addr span = span_provider_.Map(
          env, config_.span_bytes,
          config_.hugepage_spans ? PageKind::kHuge2M : PageKind::kSmall4K,
          config_.span_bytes);
      if (span == kNullAddr) {
        ++stats_.oom_failures;
        return kNullAddr;
      }
      ++stats_.mmap_calls;
      env.Store<std::uint16_t>(SpanTagAddr(SpanIndex(span)),
                               static_cast<std::uint16_t>(kTagClassBase + cls));
      bump = span;
      remaining = config_.span_bytes;
    }
    env.Store<Addr>(CursorAddr(cls), bump + bs);
    env.Store<std::uint64_t>(CursorAddr(cls) + 8, remaining - bs);
    stats_.bytes_live += bs;
    return bump;
  }

  Addr MallocLarge(Env& env, std::uint64_t size) {
    env.Work(8);
    const std::uint64_t bytes = AlignUp(size, config_.span_bytes);
    const Addr addr = span_provider_.Map(
        env, bytes, config_.hugepage_spans ? PageKind::kHuge2M : PageKind::kSmall4K,
        config_.span_bytes);
    if (addr == kNullAddr) {
      ++stats_.oom_failures;
      return kNullAddr;
    }
    ++stats_.mmap_calls;
    const std::uint64_t span = SpanIndex(addr);
    env.Store<std::uint16_t>(SpanTagAddr(span), kTagLarge);
    env.Store<std::uint64_t>(LargeBytesAddr(span), bytes);
    stats_.bytes_live += bytes;
    ++large_blocks_;
    large_bytes_ += bytes;
    return addr;
  }

  Machine* machine_;
  ServerHeapConfig config_;
  SizeClasses classes_;
  PageProvider span_provider_;
  PageProvider meta_provider_;
  Addr heap_base_;
  Addr meta_base_ = 0;
  std::uint64_t cursor_off_ = 0;
  std::uint64_t stacks_off_ = 0;
  std::uint64_t stack_stride_ = 0;
  std::uint64_t spanmap_off_ = 0;
  std::uint64_t largemap_off_ = 0;
  std::uint64_t overflow_off_ = 0;
  std::uint64_t overflow_stride_ = 0;
  std::vector<std::uint64_t> overflow_depth_;  // host mirror, one per class
  std::uint64_t large_blocks_ = 0;  // host mirrors for Inspect()
  std::uint64_t large_bytes_ = 0;
  SimLock lock_;
  AllocatorStats stats_;
};

// ---------------------------------------------------------------------------
// AggregatedHeap
//
// Per-class intrusive free lists; every block carries an 8-byte class header
// directly in front of the user bytes, and free-list links live in the
// blocks themselves.
// ---------------------------------------------------------------------------
class AggregatedHeap : public ServerHeap {
 public:
  AggregatedHeap(Machine& machine, Addr heap_base, Addr meta_base,
                 const ServerHeapConfig& config)
      : machine_(&machine),
        config_(config),
        classes_(config.small_max),
        provider_(heap_base, config.window_bytes ? config.window_bytes : kHeapWindow,
                  "ngx-agg"),
        lock_(0) {
    const std::uint32_t ncls = classes_.num_classes();
    free_count_.assign(ncls, 0);
    meta_provider_ = std::make_unique<PageProvider>(
        meta_base,
        config.meta_window_bytes ? config.meta_window_bytes
                                 : (config.window_bytes ? config.window_bytes : kHeapWindow),
        "ngx-agg-meta");
    meta_base_ = meta_provider_->MapAtStartup(
        machine, AlignUp(64 + 8ull * ncls + 16ull * ncls, kSmallPageBytes),
        config.hugepage_metadata ? PageKind::kHuge2M : PageKind::kSmall4K);
    lock_ = SimLock(meta_base_);
  }

  std::string_view name() const override { return "ngx-aggregated"; }

  Addr Malloc(Env& env, std::uint64_t size) override {
    ++stats_.mallocs;
    stats_.bytes_requested += size;
    MaybeLock(env);
    Addr r;
    if (size > config_.small_max) {
      r = MallocLarge(env, size);
    } else {
      env.Work(6);
      const std::uint32_t cls = classes_.ClassOf(size);
      const std::uint64_t bs = classes_.SizeOf(cls) + 16;  // header keeps 16-alignment
      IntrusiveFreeList list(HeadAddr(cls));
      Addr block = list.Pop(env);  // touches the block's own line
      if (block != kNullAddr) {
        --free_count_[cls];
      }
      if (block == kNullAddr) {
        block = Carve(env, cls, bs);
        if (block != kNullAddr) {
          env.Store<std::uint64_t>(block + 8, cls);  // class tag before user bytes
        }
      }
      if (block != kNullAddr) {
        stats_.bytes_live += bs - 16;
        r = block + 16;
      } else {
        ++stats_.oom_failures;
        r = kNullAddr;
      }
    }
    MaybeUnlock(env);
    return r;
  }

  void Free(Env& env, Addr addr) override {
    if (addr == kNullAddr) {
      return;
    }
    ++stats_.frees;
    MaybeLock(env);
    env.Work(5);
    const std::uint64_t header = env.Load<std::uint64_t>(addr - 8);
    if (header & kLargeFlag) {
      const std::uint64_t bytes = header & ~kLargeFlag;
      stats_.bytes_live -= bytes - kSmallPageBytes;
      --large_blocks_;
      large_bytes_ -= bytes;
      ++stats_.munmap_calls;
      provider_.Unmap(env, addr - kSmallPageBytes, bytes);
    } else {
      const std::uint32_t cls = static_cast<std::uint32_t>(header);
      stats_.bytes_live -= classes_.SizeOf(cls);
      IntrusiveFreeList list(HeadAddr(cls));
      list.Push(env, addr - 16);  // link lives at block+0; class tag at +8 survives
      ++free_count_[cls];
    }
    MaybeUnlock(env);
  }

  std::uint64_t UsableSize(Env& env, Addr addr) override {
    const std::uint64_t header = env.Load<std::uint64_t>(addr - 8);
    if (header & kLargeFlag) {
      return (header & ~kLargeFlag) - kSmallPageBytes;
    }
    return classes_.SizeOf(static_cast<std::uint32_t>(header));
  }

  std::int64_t ClassifyForRecycle(Env& env, Addr addr) override {
    const std::uint64_t header = env.Load<std::uint64_t>(addr - 8);
    if (header & kLargeFlag) {
      return -1;
    }
    return static_cast<std::int64_t>(static_cast<std::uint32_t>(header));
  }

  AllocatorStats stats() const override {
    AllocatorStats s = stats_;
    s.mapped_bytes = provider_.mapped_bytes() + meta_provider_->mapped_bytes();
    s.mmap_calls = provider_.mmap_calls();
    s.munmap_calls = provider_.munmap_calls();
    return s;
  }

  HeapInspection Inspect() const override {
    HeapInspection in;
    in.bytes_live = stats_.bytes_live;
    in.data_mapped_bytes = provider_.mapped_bytes();
    in.meta_mapped_bytes = meta_provider_->mapped_bytes();
    // Intrusive lists are unbounded to walk, so the free depths come from
    // host mirrors kept by Malloc/Free; only the cursor's remaining word is
    // read (untimed) from simulated memory.
    const SimMemory& mem = machine_->memory();
    for (std::uint32_t cls = 0; cls < classes_.num_classes(); ++cls) {
      in.free_blocks += free_count_[cls];
      in.free_block_bytes += free_count_[cls] * (classes_.SizeOf(cls) + 16);
      in.bump_reserve_bytes += mem.Read<std::uint64_t>(CursorAddr(cls) + 8);
    }
    in.large_blocks = large_blocks_;
    in.large_bytes = large_bytes_;
    return in;
  }

  PageProvider& span_provider() override { return provider_; }

 private:
  static constexpr std::uint64_t kLargeFlag = 1ull << 63;

  Addr HeadAddr(std::uint32_t cls) const { return meta_base_ + 64 + 8ull * cls; }
  Addr CursorAddr(std::uint32_t cls) const {
    return meta_base_ + 64 + 8ull * classes_.num_classes() + 16ull * cls;
  }

  void MaybeLock(Env& env) {
    if (config_.use_lock) {
      lock_.Acquire(env);
    }
  }
  void MaybeUnlock(Env& env) {
    if (config_.use_lock) {
      lock_.Release(env);
    }
  }

  Addr Carve(Env& env, std::uint32_t cls, std::uint64_t bs) {
    Addr bump = env.Load<Addr>(CursorAddr(cls));
    std::uint64_t remaining = env.Load<std::uint64_t>(CursorAddr(cls) + 8);
    if (remaining < bs) {
      const Addr span = provider_.Map(
          env, config_.span_bytes,
          config_.hugepage_spans ? PageKind::kHuge2M : PageKind::kSmall4K);
      if (span == kNullAddr) {
        return kNullAddr;
      }
      ++stats_.mmap_calls;
      bump = span;
      remaining = config_.span_bytes;
    }
    env.Store<Addr>(CursorAddr(cls), bump + bs);
    env.Store<std::uint64_t>(CursorAddr(cls) + 8, remaining - bs);
    return bump;
  }

  Addr MallocLarge(Env& env, std::uint64_t size) {
    env.Work(8);
    const std::uint64_t bytes = AlignUp(size, kSmallPageBytes) + kSmallPageBytes;
    const Addr region = provider_.Map(env, bytes, PageKind::kSmall4K);
    if (region == kNullAddr) {
      ++stats_.oom_failures;
      return kNullAddr;
    }
    ++stats_.mmap_calls;
    const Addr addr = region + kSmallPageBytes;
    env.Store<std::uint64_t>(addr - 8, bytes | kLargeFlag);
    stats_.bytes_live += bytes - kSmallPageBytes;
    ++large_blocks_;
    large_bytes_ += bytes;
    return addr;
  }

  Machine* machine_;
  ServerHeapConfig config_;
  SizeClasses classes_;
  PageProvider provider_;
  std::unique_ptr<PageProvider> meta_provider_;
  Addr meta_base_ = 0;
  std::vector<std::uint64_t> free_count_;  // host mirror, one per class
  std::uint64_t large_blocks_ = 0;         // host mirrors for Inspect()
  std::uint64_t large_bytes_ = 0;
  SimLock lock_;
  AllocatorStats stats_;
};

}  // namespace

std::unique_ptr<ServerHeap> MakeServerHeap(Machine& machine, Addr heap_base, Addr meta_base,
                                           const ServerHeapConfig& config) {
  switch (config.heap_kind) {
    case HeapKind::kSegregated:
      return std::make_unique<SegregatedHeap>(machine, heap_base, meta_base, config);
    case HeapKind::kAggregated:
      return std::make_unique<AggregatedHeap>(machine, heap_base, meta_base, config);
    case HeapKind::kSegment:
      return MakeSegmentHeap(machine, heap_base, meta_base, config);
  }
  NGX_CHECK(false, "unknown heap kind");
  return nullptr;
}

}  // namespace ngx
