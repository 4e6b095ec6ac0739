// SpanDirectory: span-granular ownership of the NextGen heap window.
//
// The sharded fabric used to resolve address->shard ownership with a pure
// divide over equal kHeapWindow/num_shards slices, which hard-wires capacity:
// a skewed size-class mix exhausts one shard's slice while its neighbours sit
// on free spans. The directory replaces the divide with a per-span owner
// table so ownership can MOVE: whole free spans are donated between shards
// through the fabric's kDonateSpan message, and frees issued mid-donation
// still land at the current owner because lookup always consults the table.
//
// The table is two-level. The top level holds one pointer per LEAF, a fixed
// block of kLeafSpans consecutive spans (256 MiB of window at 64-KiB spans)
// whose owner and state it stores densely. A leaf is allocated on the first
// write to any of its spans (NoteMapped, NoteUnmapped, TakeRecycled, or an
// ownership move through TransferRange/ReturnRange) and starts out as the
// untouched state it replaces. Until then every span in it answers
// arithmetically: owner = home, state = kUngranted. Reads never allocate, so
// host memory follows the spans a run touches, not the 512-GiB window.
//
// Everything here is host-side bookkeeping, like the routing layer's
// ShardLoad: it models the directory a real implementation would keep in the
// allocator cores' private memory, and charges no simulated time. The
// simulated cost of rebalancing is the kDonateSpan mailbox round trip plus
// the page mappings it unlocks; lookups on the free path stay free exactly
// like the old divide did.
//
// Span lifecycle per shard:
//   kUngranted -- in the owner's unconsumed page-provider window
//   kGranted   -- mapped (or partially covered by a mapping, aggregated
//                 heaps map non-span-multiple large regions)
//   kRecycled  -- unmapped again; directly donatable or locally re-grantable
//
// Besides the current owner, every span has a HOME shard: the shard whose
// initial slice contained it, span / (num_spans / num_shards). Home never
// changes, so it is computed, never stored. Donation moves ownership away
// from home; the return protocol (ReturnRange, fed by FindRecycledAwayRun)
// moves fully recycled spans back, so a burst tenant does not capture its
// peak footprint forever. See DESIGN.md §8.
#ifndef NGX_SRC_CORE_SPAN_DIRECTORY_H_
#define NGX_SRC_CORE_SPAN_DIRECTORY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/types.h"

namespace ngx {

class SpanDirectory {
 public:
  // Span state, exposed for diagnostics and the lifecycle stress auditor.
  enum class SpanState : std::uint8_t { kUngranted, kGranted, kRecycled };
  struct SpanRun {
    std::uint64_t first;
    std::uint64_t count;
  };

  // Spans per leaf of the two-level owner/state table.
  static constexpr std::uint64_t kLeafSpans = 4096;

  // Shard s initially owns spans [s*K, (s+1)*K) with K = spans/num_shards.
  SpanDirectory(Addr heap_base, std::uint64_t window_bytes, std::uint64_t span_bytes,
                int num_shards);

  int num_shards() const { return num_shards_; }
  std::uint64_t span_bytes() const { return span_bytes_; }
  std::uint64_t num_spans() const { return num_spans_; }
  Addr heap_base() const { return heap_base_; }

  std::uint64_t SpanOfAddr(Addr addr) const;
  Addr AddrOfSpan(std::uint64_t span) const { return heap_base_ + span * span_bytes_; }
  int OwnerOfSpan(std::uint64_t span) const;
  int OwnerOfAddr(Addr addr) const { return OwnerOfSpan(SpanOfAddr(addr)); }
  // The shard whose initial slice contained the span (never changes).
  int HomeOfSpan(std::uint64_t span) const;
  SpanState StateOfSpan(std::uint64_t span) const;

  // Page-provider observers for shard `shard`'s heap window (metadata
  // windows are not span-owned and must not be wired here). A mapping may
  // cover spans partially (aggregated heaps); partially covered spans are
  // conservatively granted and never recycled until fully unmapped.
  void NoteMapped(int shard, Addr addr, std::uint64_t bytes);
  void NoteUnmapped(int shard, Addr addr, std::uint64_t bytes);

  // Carves `nspans` contiguous recycled spans out of `shard`'s recycled
  // pool; they revert to kUngranted and the caller grafts them onto a
  // provider window (its own: local reuse; another shard's after
  // TransferRange: donation). Returns kNullAddr if the pool has no run that
  // long. The scan resumes from a per-shard next-fit cursor so repeated
  // refills on a fragmented directory stay amortized-linear instead of
  // rescanning every unsatisfiable run per request.
  Addr TakeRecycled(int shard, std::uint64_t nspans);

  // Moves ownership of `nspans` spans starting at `base` from shard `from`
  // to shard `to`. Every span must be free (not granted) and owned by
  // `from`: donating a span that is still mapped -- or donating the same
  // span twice -- is a fatal bookkeeping error in every build type.
  void TransferRange(Addr base, std::uint64_t nspans, int from, int to);
  void TransferSpan(std::uint64_t span, int from, int to) {
    TransferRange(AddrOfSpan(span), 1, from, to);
  }

  // Return protocol: moves `nspans` spans starting at `base` from the holder
  // `from` back to their (shared) home shard and returns that home. Only
  // fully-recycled away spans may flow back -- an ungranted away span still
  // sits inside the holder's provider window and a granted one is mapped;
  // returning either would double-account address space. Returning a span
  // the holder does not own, or one that is already home, is a fatal
  // bookkeeping error in every build type (double return).
  int ReturnRange(Addr base, std::uint64_t nspans, int from);

  // Finds a recycled run of at most `max_spans` spans owned by `shard`
  // whose spans share one home shard != `shard`. Returns kNullAddr if the
  // shard holds no returnable away spans; otherwise *home and *nspans
  // describe the run for ReturnRange.
  Addr FindRecycledAwayRun(int shard, std::uint64_t max_spans, int* home,
                           std::uint64_t* nspans) const;

  // Free (ungranted + recycled) spans owned by `shard`: the donor-selection
  // signal ("least-loaded donor" = most free spans).
  std::uint64_t free_spans(int shard) const;
  std::uint64_t donated_out(int shard) const;
  std::uint64_t donated_in(int shard) const;
  std::uint64_t total_donated() const;
  std::uint64_t returned_out(int shard) const;
  std::uint64_t returned_in(int shard) const;
  std::uint64_t total_returned() const;
  // Spans owned by `shard` whose home is another shard (any state): the
  // return protocol's "work remaining" signal.
  std::uint64_t away_spans(int shard) const;
  // All spans currently owned by `shard`, whatever their state: the flight
  // recorder's occupancy denominator.
  std::uint64_t owned_spans(int shard) const;
  // Granted (mapped or partially mapped) spans owned by `shard`.
  std::uint64_t granted_spans(int shard) const {
    return owned_spans(shard) - free_spans(shard);
  }
  // Recycled spans owned by `shard` (subset of free).
  std::uint64_t recycled_spans(int shard) const;

  // Recycled runs of `shard` (disjoint; coalesced with the most recently
  // appended run, not globally sorted) -- diagnostics and the lifecycle
  // stress auditor.
  const std::vector<SpanRun>& RecycledRuns(int shard) const {
    return recycled_[static_cast<std::size_t>(shard)];
  }
  // Host-side probe: total recycled runs inspected by TakeRecycled since
  // construction (the next-fit cursor's regression guard).
  std::uint64_t take_scan_steps() const { return take_scan_steps_; }
  // Host-side probe: leaves allocated so far (each holds kLeafSpans spans).
  std::uint64_t resident_leaves() const { return resident_leaves_; }

 private:
  using State = SpanState;

  // Owner and state of kLeafSpans consecutive spans.
  struct Leaf {
    std::int16_t owner[kLeafSpans];
    State state[kLeafSpans];
  };

  int Home(std::uint64_t span) const { return static_cast<int>(span / per_shard_); }
  // The leaf holding `span`, or nullptr while none of its spans was written.
  const Leaf* FindLeaf(std::uint64_t span) const { return leaves_[span / kLeafSpans].get(); }
  // The leaf holding `span`, allocated in its untouched state on first use.
  Leaf& WritableLeaf(std::uint64_t span);

  // Removes [first, first+count) from shard's recycled runs (must be fully
  // recycled there).
  void RemoveRecycledRun(int shard, std::uint64_t first, std::uint64_t count);
  // Same, with the containing run's index already known (next-fit fast path).
  void RemoveRecycledRunAt(int shard, std::size_t index, std::uint64_t first,
                           std::uint64_t count);
  // Ownership move shared by TransferRange (donation) and ReturnRange:
  // validates every span is free and owned by `from`, lifts recycled spans
  // out of `from`'s pool, and adjusts free/away tallies. Counters are the
  // callers' business.
  void MoveFreeRun(std::uint64_t first, std::uint64_t count, int from, int to);

  Addr heap_base_;
  std::uint64_t span_bytes_;
  int num_shards_;
  std::uint64_t num_spans_;
  std::uint64_t per_shard_;                    // spans in each initial slice
  std::vector<std::unique_ptr<Leaf>> leaves_;  // per leaf; null until written
  std::uint64_t resident_leaves_ = 0;
  std::vector<std::vector<SpanRun>> recycled_;  // per shard, coalesced runs
  std::vector<std::size_t> take_cursor_;        // per shard, next-fit resume index
  std::vector<std::uint64_t> free_spans_;
  std::vector<std::uint64_t> away_spans_;
  std::vector<std::uint64_t> owned_spans_;
  std::vector<std::uint64_t> donated_out_;
  std::vector<std::uint64_t> donated_in_;
  std::vector<std::uint64_t> returned_out_;
  std::vector<std::uint64_t> returned_in_;
  std::uint64_t take_scan_steps_ = 0;
};

}  // namespace ngx

#endif  // NGX_SRC_CORE_SPAN_DIRECTORY_H_
