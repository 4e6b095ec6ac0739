// Simulated kernel memory interface (mmap/munmap).
//
// Virtual ranges are carved by a bump pointer inside the window given at
// construction; each Map registers a Region in the machine's AddressMap with
// the requested page kind (4 KiB or 2 MiB), which is what the TLB model
// consults. Map/Unmap charge a mode-switch syscall cost -- the overhead UMAs
// exist to amortize (Section 2.1).
//
// The window is elastic: AddRange grafts extra address ranges (span
// donations from another shard's window) onto the provider and TrimTail
// carves aligned tail ranges out of it (the donor side). Map bump-carves the
// construction-time window first and falls back to grafted ranges in the
// order they arrived, so a provider that never donates or receives behaves
// exactly like the original fixed window.
//
// Hugepage span packing (DESIGN.md §16): by default a kHuge2M Map rounds the
// request up to a whole 2 MiB hugepage. That 2-MiB grain is what the
// metadata windows (hugepage_metadata), the Jemalloc, TCMalloc and
// THP-backed Mimalloc baselines, and standalone ServerHeaps built without an
// NgxAllocator still use; every NgxAllocator span provider with
// hugepage_spans attaches a HugepageLedger, which switches it into packed
// mode: kHuge2M requests carve at small-page grain (32 spans share one
// hugepage frame, each with its own kHuge2M region so the TLB model sees the
// shared 2-MiB translation), and the mmap/munmap syscall is charged only when
// a carve opens a fresh hugepage frame or an unmap empties one. The ledger is
// shared across every span provider in a fabric so frames straddling a
// donation boundary are never double-counted.
#ifndef NGX_SRC_ALLOC_PAGE_PROVIDER_H_
#define NGX_SRC_ALLOC_PAGE_PROVIDER_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/env.h"

namespace ngx {

// Host-side refcounts of live mappings per 2-MiB hugepage frame. One ledger
// is shared by every packed span provider in a fabric: the OS-level hugepage
// is a machine-wide resource, so a span donated across shards must land on
// the frame the donor already backed without a second charge.
class HugepageLedger {
 public:
  // Adds one reference per frame overlapping [addr, addr+bytes); returns how
  // many of those frames were previously unbacked (fresh mmap work).
  std::uint64_t Acquire(Addr addr, std::uint64_t bytes);
  // Drops one reference per overlapping frame; returns how many frames hit
  // zero references (real munmap work).
  std::uint64_t Release(Addr addr, std::uint64_t bytes);

  std::uint64_t backed_frames() const { return backed_frames_; }
  std::uint64_t backed_bytes() const { return backed_frames_ * kHugePageBytes; }

 private:
  std::unordered_map<Addr, std::uint32_t> refs_;  // frame base -> live mappings
  std::uint64_t backed_frames_ = 0;
};

class PageProvider {
 public:
  // Observes every successful Map/Unmap (host-side bookkeeping such as the
  // span directory; must not touch simulated state).
  using MapObserver = std::function<void(Addr, std::uint64_t bytes, bool is_map)>;

  PageProvider(Addr base, std::uint64_t window, std::string tag);

  // Maps `bytes` (rounded up to the page size of `kind`) and returns the
  // base address, or kNullAddr if the window is exhausted. `alignment`
  // (power of two, 0 = page size) aligns the returned base, e.g. for
  // chunk/segment allocators that locate metadata by masking block addresses.
  Addr Map(Env& env, std::uint64_t bytes, PageKind kind, std::uint64_t alignment = 0);

  // Unmaps a range previously returned by Map (whole mapping only).
  void Unmap(Env& env, Addr addr, std::uint64_t bytes);

  // Startup-time mapping (allocator construction happens before measurement
  // starts): registers the region but charges no time to any core.
  Addr MapAtStartup(Machine& machine, std::uint64_t bytes, PageKind kind,
                    std::uint64_t alignment = 0);

  // Grafts [base, base+bytes) onto the window (a span grant donated by
  // another provider). Adjacent grafts coalesce so repeated tail donations
  // from the same donor form one contiguous range that can serve multi-span
  // mappings. Host-side only: charges nothing.
  void AddRange(Addr base, std::uint64_t bytes);

  // Carves `bytes` off the tail of the window for donation: returns the base
  // of the carved range (aligned to `alignment`), or kNullAddr if no range
  // has an unconsumed, suitably aligned tail of that size. The carved bytes
  // leave this window permanently. Host-side only: charges nothing.
  Addr TrimTail(std::uint64_t bytes, std::uint64_t alignment);

  // Unconsumed bytes across all ranges (the donor-selection signal).
  std::uint64_t FreeBytes() const;

  void set_observer(MapObserver obs) { observer_ = std::move(obs); }

  // Enables hugepage span packing for kHuge2M maps (see the header comment).
  // Must be set before the first Map; the ledger must outlive the provider.
  void set_hugepage_ledger(HugepageLedger* ledger) { ledger_ = ledger; }
  bool packed() const { return ledger_ != nullptr; }

  std::uint64_t mapped_bytes() const { return mapped_bytes_; }
  // What callers actually asked for (4-KiB granular), before any rounding to
  // the backing page size. mapped_bytes - requested_bytes (summed fabric-wide)
  // is the map-waste honesty metric: 31/32 of every hugepage span map without
  // packing, ~one partially filled frontier frame with it.
  std::uint64_t requested_bytes() const { return requested_bytes_; }
  std::uint64_t mmap_calls() const { return mmap_calls_; }
  std::uint64_t munmap_calls() const { return munmap_calls_; }
  Addr base() const { return base_; }
  Addr next() const { return ranges_.front().next; }

 private:
  struct Range {
    Addr next;  // bump cursor (== the range base until first carve)
    Addr end;
  };

  // Bump-carves from the first range that fits; kNullAddr when none does.
  Addr Carve(std::uint64_t bytes, std::uint64_t align);
  // Shared Map/MapAtStartup body; `env` is null for the untimed startup path.
  Addr DoMap(Env* env, Machine& machine, std::uint64_t bytes, PageKind kind,
             std::uint64_t alignment);

  Addr base_;
  std::vector<Range> ranges_;  // [0] = construction window, then grafts
  std::string tag_;
  MapObserver observer_;
  HugepageLedger* ledger_ = nullptr;  // non-null = packed hugepage spans
  std::uint64_t mapped_bytes_ = 0;
  std::uint64_t requested_bytes_ = 0;
  std::uint64_t mmap_calls_ = 0;
  std::uint64_t munmap_calls_ = 0;
};

}  // namespace ngx

#endif  // NGX_SRC_ALLOC_PAGE_PROVIDER_H_
