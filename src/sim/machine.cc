#include "src/sim/machine.h"

#include <cassert>

#include "src/alloc/layout.h"

namespace ngx {

namespace {

// Buckets a data address into the fabric window it belongs to (layout.h's
// global carve-up) for the per-region dTLB breakdown. The stash provider
// lives at kNgxMetaBase + kHeapWindow, inside the [kNgxMetaBase,
// kNgxFreeBufBase) range, so stash lines count as metadata.
TlbRegion ClassifyTlbRegion(Addr addr) {
  if (addr < kNgxHeapBase || addr >= kWorkloadBase) {
    return TlbRegion::kOther;
  }
  if (addr < kNgxMetaBase) {
    return TlbRegion::kHeap;
  }
  if (addr < kNgxFreeBufBase) {
    return TlbRegion::kMetadata;
  }
  if (addr < kChannelBase) {
    return TlbRegion::kFreeBuf;
  }
  return TlbRegion::kChannel;
}

}  // namespace

MachineConfig MachineConfig::Default(int num_cores) {
  MachineConfig m;
  m.cores.assign(static_cast<std::size_t>(num_cores), CoreConfig{});
  return m;
}

MachineConfig MachineConfig::ScaledWorkstation(int num_cores) {
  MachineConfig m;
  CoreConfig c;
  c.cpi = 0.3;            // a wide modern core on compute
  c.load_overlap = 0.5;   // pointer-chasing workloads expose latency
  c.l1d.size_bytes = 16 * 1024;
  c.l1d.ways = 4;
  c.l2.size_bytes = 128 * 1024;
  c.tlb.l1_small_entries = 32;
  c.tlb.l1_small_ways = 4;
  c.tlb.l1_huge_entries = 16;
  c.tlb.l2_entries = 256;
  m.cores.assign(static_cast<std::size_t>(num_cores), c);
  m.llc = CacheConfig{1024 * 1024, 16, kCacheLineBytes, ReplacementKind::kLru, 40};
  m.mem_latency = 260;
  return m;
}

MachineConfig MachineConfig::ArmA72Like(int num_cores) {
  MachineConfig m;
  CoreConfig c;
  c.type = CoreType::kOutOfOrder;
  c.cpi = 0.7;             // 3-wide but modest
  c.load_overlap = 0.45;   // smaller OoO window than a server core
  c.store_overlap = 0.75;
  c.l1d.size_bytes = 32 * 1024;
  c.l1d.ways = 2;
  c.l2.size_bytes = 512 * 1024;  // per-core share of the cluster L2
  m.cores.assign(static_cast<std::size_t>(num_cores), c);
  m.llc = CacheConfig{8 * 1024 * 1024, 16, kCacheLineBytes, ReplacementKind::kLru, 35};
  m.atomic_rmw_latency = 40;  // weaker memory model: cheaper RMWs (4.2)
  m.atomic_remote_extra = 110;
  return m;
}

Machine::Machine(const MachineConfig& config)
    : config_(config), llc_(config.llc, "llc") {
  assert(!config.cores.empty());
  cores_.reserve(config.cores.size());
  for (std::size_t i = 0; i < config.cores.size(); ++i) {
    cores_.push_back(std::make_unique<Core>(config.cores[i], static_cast<int>(i)));
  }
}

void Machine::EnableTelemetry(const TelemetryConfig& config) {
  telemetry_.Enable(config);
  pmu_snapshots_ = telemetry_.tracing() && config.pmu_snapshot_interval > 0;
  if (telemetry_.tracing()) {
    for (int c = 0; c < num_cores(); ++c) {
      telemetry_.tracer().SetTrackName(c, "core " + std::to_string(c));
    }
  }
  next_pmu_snapshot_.assign(cores_.size(), 0);
  recorder_snapshots_ = telemetry_.recording() && config.recorder_snapshot_interval > 0;
  next_recorder_snapshot_ = 0;
}

void Machine::MaybePmuSnapshot(int core_id) {
  const Core& c = core(core_id);
  std::uint64_t& next = next_pmu_snapshot_[static_cast<std::size_t>(core_id)];
  if (c.now() < next) {
    return;
  }
  const PmuCounters& p = c.pmu();
  Tracer& tr = telemetry_.tracer();
  const std::string prefix = "core" + std::to_string(core_id) + ".";
  tr.Counter(prefix + "instructions", c.now(), p.instructions);
  tr.Counter(prefix + "llc_misses", c.now(), p.llc_load_misses + p.llc_store_misses);
  tr.Counter(prefix + "dtlb_misses", c.now(), p.dtlb_load_misses + p.dtlb_store_misses);
  tr.Counter(prefix + "alloc_cycles", c.now(), p.alloc_cycles);
  next = c.now() + telemetry_.config().pmu_snapshot_interval;
}

void Machine::MaybeRecorderSnapshot(int core_id) {
  FlightRecorder& rec = telemetry_.recorder();
  if (!rec.has_snapshot_source()) {
    return;
  }
  const Core& c = core(core_id);
  if (c.now() < next_recorder_snapshot_) {
    return;
  }
  next_recorder_snapshot_ = c.now() + telemetry_.config().recorder_snapshot_interval;
  const HeapSnapshot* snap = rec.TakeSnapshot(c.now(), /*on_demand=*/false);
  if (snap == nullptr || !telemetry_.tracing()) {
    return;
  }
  // Counter tracks next to the PMU samples: one time series per shard for
  // the occupancy figures the viewer can plot. Fragmentation goes out in
  // basis points (the counter channel is integer-valued).
  Tracer& tr = telemetry_.tracer();
  for (const HeapShardSnapshot& s : snap->shards) {
    const std::string prefix = "shard" + std::to_string(s.shard) + ".";
    tr.Counter(prefix + "bytes_live", snap->cycle, s.bytes_live);
    tr.Counter(prefix + "data_mapped_bytes", snap->cycle, s.data_mapped_bytes);
    tr.Counter(prefix + "free_spans", snap->cycle, s.free_spans);
    tr.Counter(prefix + "external_frag_bp", snap->cycle,
               static_cast<std::uint64_t>(s.external_frag_pct * 100.0));
  }
}

const Machine::DirEntry* Machine::FindDir(Addr line) const {
  auto it = directory_.find(line);
  return it == directory_.end() ? nullptr : &it->second;
}

int Machine::OwnerOf(Addr line) const {
  const DirEntry* e = FindDir(LineBase(line));
  return e == nullptr ? -1 : e->owner;
}

std::uint32_t Machine::SharersOf(Addr line) const {
  const DirEntry* e = FindDir(LineBase(line));
  return e == nullptr ? 0 : e->sharers;
}

void Machine::ChargeSyscall(int core_id) {
  Core& c = core(core_id);
  c.NoteInstructions(1);
  c.AddCycles(static_cast<double>(config_.mmap_syscall_cycles));
}

PmuCounters Machine::TotalPmu() const {
  PmuCounters total;
  for (const auto& c : cores_) {
    total += c->pmu();
  }
  return total;
}

std::uint64_t Machine::LookupTlb(int core_id, Addr addr, AccessType type) {
  Core& c = core(core_id);
  const std::uint64_t page_bytes = address_map_.PageBytesFor(addr);
  const Tlb::Result r = c.tlb().Lookup(addr, page_bytes);
  if (r.l1_miss) {
    ++c.pmu().dtlb_l1_misses;
  }
  const auto region = static_cast<std::size_t>(ClassifyTlbRegion(addr));
  ++c.pmu().dtlb_region_lookups[region];
  if (r.walk) {
    ++c.pmu().dtlb_region_walks[region];
    if (type == AccessType::kLoad) {
      ++c.pmu().dtlb_load_misses;
    } else {
      ++c.pmu().dtlb_store_misses;
    }
  }
  return r.extra_cycles;
}

std::uint64_t Machine::Access(int core_id, Addr addr, std::uint32_t size, AccessType type) {
  assert(size > 0);
  Core& c = core(core_id);

  const Addr first_line = LineBase(addr);
  const Addr last_line = LineBase(addr + size - 1);

  std::uint64_t raw = 0;
  Addr prev_page = ~0ull;
  for (Addr line = first_line; line <= last_line; line += kCacheLineBytes) {
    // One PMU memory instruction per line touched.
    c.NoteInstructions(1);
    if (type == AccessType::kLoad) {
      ++c.pmu().loads;
    } else {
      ++c.pmu().stores;
      if (type == AccessType::kAtomicRmw) {
        ++c.pmu().atomic_rmws;
        ++c.pmu().loads;  // RMW reads too
      }
    }
    const Addr page = PageBase(line);
    std::uint64_t line_lat = 0;
    if (page != prev_page) {
      line_lat += LookupTlb(core_id, line, type);
      prev_page = page;
    }
    line_lat += AccessLine(core_id, line, type);
    raw += line_lat;
  }
  if (config_.next_line_prefetch) {
    PrefetchLine(core_id, last_line + kCacheLineBytes);
  }

  if (type == AccessType::kAtomicRmw) {
    raw += config_.atomic_rmw_latency;
  }
  c.ChargeAccess(type, raw);
  if (pmu_snapshots_) {
    MaybePmuSnapshot(core_id);
  }
  if (recorder_snapshots_) {
    MaybeRecorderSnapshot(core_id);
  }
  return raw;
}

std::uint64_t Machine::Prefetch(int core_id, Addr addr) {
  Core& c = core(core_id);
  const Addr line = LineBase(addr);
  c.Work(1);
  ++c.pmu().sw_prefetches;
  const std::uint64_t raw =
      LookupTlb(core_id, line, AccessType::kLoad) + AccessLine(core_id, line, AccessType::kLoad);
  return static_cast<std::uint64_t>(c.ShapedCycles(AccessType::kLoad, raw));
}

std::uint64_t Machine::AccessLine(int core_id, Addr line, AccessType type) {
  Core& c = core(core_id);
  const bool is_write = type != AccessType::kLoad;
  const std::uint32_t my_bit = 1u << core_id;
  std::uint64_t lat = c.l1d().config().hit_latency;

  auto upgrade_if_needed = [&]() {
    DirEntry& e = Dir(line);
    if (is_write && (e.owner != core_id || e.sharers != my_bit)) {
      const int dropped = InvalidateOthers(core_id, line);
      if (dropped > 0) {
        lat += config_.invalidate_latency;
        if (type == AccessType::kAtomicRmw) {
          lat += config_.atomic_remote_extra;
        }
      }
      e.owner = core_id;
      e.sharers = my_bit;
    }
  };

  // L1 hit path.
  if (c.l1d().Access(line, is_write)) {
    upgrade_if_needed();
    return lat;
  }
  if (type == AccessType::kLoad) {
    ++c.pmu().l1d_load_misses;
  } else {
    ++c.pmu().l1d_store_misses;
  }

  // L2 hit path.
  if (c.has_l2()) {
    lat += c.l2()->config().hit_latency;
    if (c.l2()->Access(line, false)) {
      upgrade_if_needed();
      FillPrivate(core_id, line, is_write);
      return lat;
    }
    if (type == AccessType::kLoad) {
      ++c.pmu().l2_load_misses;
    } else {
      ++c.pmu().l2_store_misses;
    }
  }

  // Beyond the private hierarchy: consult the directory and the shared LLC.
  DirEntry& e = Dir(line);
  const bool remote_modified = e.owner != -1 && e.owner != core_id;
  if (remote_modified) {
    // Served cache-to-cache from the remote owner (HITM). Counts as an LLC
    // miss, as perf reports it. Transfers inside one core cluster are
    // cheaper when the config models clustered interconnects.
    const bool same_cluster =
        config_.cluster_cores > 0 && config_.same_cluster_transfer_latency > 0 &&
        core_id / config_.cluster_cores == e.owner / config_.cluster_cores;
    lat += same_cluster ? config_.same_cluster_transfer_latency
                        : config_.remote_transfer_latency;
    if (type == AccessType::kAtomicRmw) {
      lat += config_.atomic_remote_extra;
    }
    ++c.pmu().remote_hitm;
    if (type == AccessType::kLoad) {
      if (config_.count_hitm_as_llc_miss) {
        ++c.pmu().llc_load_misses;
      }
      DowngradeOwner(e.owner, line);
      e.owner = -1;
      e.sharers |= my_bit;
    } else {
      if (config_.count_hitm_as_llc_miss) {
        ++c.pmu().llc_store_misses;
      }
      const int old_owner = e.owner;
      if (DropFromPrivate(old_owner, line)) {
        WritebackToLlc(line);
      }
      ++core(old_owner).pmu().invalidations_received;
      ++c.pmu().invalidations_sent;
      e.owner = core_id;
      e.sharers = my_bit;
    }
  } else if (llc_.Access(line, false)) {
    lat += config_.llc.hit_latency;
    if (is_write) {
      const int dropped = InvalidateOthers(core_id, line);
      if (dropped > 0) {
        lat += config_.invalidate_latency;
        if (type == AccessType::kAtomicRmw) {
          lat += config_.atomic_remote_extra;
        }
      }
      Dir(line).owner = core_id;
      Dir(line).sharers = my_bit;
    } else {
      Dir(line).sharers |= my_bit;
    }
  } else {
    // DRAM fill.
    lat += config_.llc.hit_latency;
    const std::uint64_t mem_lat = c.config().mem_latency_override != 0
                                      ? c.config().mem_latency_override
                                      : config_.mem_latency;
    lat += mem_lat;
    ++mem_reads_;
    if (type == AccessType::kLoad) {
      ++c.pmu().llc_load_misses;
    } else {
      ++c.pmu().llc_store_misses;
    }
    HandleLlcEviction(llc_.Insert(line, false));
    DirEntry& e2 = Dir(line);  // directory may have rehashed on eviction
    if (is_write) {
      // Any stale sharers were back-invalidated by inclusion already;
      // whatever remains must be invalidated for ownership.
      InvalidateOthers(core_id, line);
      e2.owner = core_id;
      e2.sharers = my_bit;
    } else {
      e2.sharers |= my_bit;
      e2.owner = -1;
    }
  }

  FillPrivate(core_id, line, is_write);
  return lat;
}

void Machine::PrefetchLine(int core_id, Addr line) {
  Core& c = core(core_id);
  if (c.l1d().Contains(line) || (c.has_l2() && c.l2()->Contains(line))) {
    return;
  }
  const DirEntry* e = FindDir(line);
  if (e != nullptr && e->owner != -1 && e->owner != core_id) {
    return;  // never steal remotely-owned lines speculatively
  }
  if (!llc_.Contains(line)) {
    HandleLlcEviction(llc_.Insert(line, false));
  } else {
    llc_.Access(line, false);
  }
  FillPrivate(core_id, line, false);
  Dir(line).sharers |= 1u << core_id;
}

void Machine::FillPrivate(int core_id, Addr line, bool dirty) {
  Core& c = core(core_id);
  if (c.has_l2()) {
    if (!c.l2()->Contains(line)) {
      HandlePrivateEviction(core_id, c.l2()->Insert(line, false), /*outer_level=*/true);
    }
    if (!c.l1d().Contains(line)) {
      HandlePrivateEviction(core_id, c.l1d().Insert(line, dirty), /*outer_level=*/false);
    } else if (dirty) {
      c.l1d().MarkDirty(line);
    }
  } else {
    if (!c.l1d().Contains(line)) {
      HandlePrivateEviction(core_id, c.l1d().Insert(line, dirty), /*outer_level=*/true);
    } else if (dirty) {
      c.l1d().MarkDirty(line);
    }
  }
  Dir(line).sharers |= 1u << core_id;
}

void Machine::HandlePrivateEviction(int core_id, const Cache::Eviction& ev, bool outer_level) {
  if (!ev.valid) {
    return;
  }
  Core& c = core(core_id);
  if (!outer_level) {
    // L1 eviction under an inclusive L2: merge the dirty bit downward.
    if (ev.dirty) {
      if (c.has_l2() && c.l2()->Contains(ev.line)) {
        c.l2()->MarkDirty(ev.line);
      } else {
        WritebackToLlc(ev.line);
      }
    }
    return;
  }
  // Outer private level evicted: the line leaves this core entirely.
  bool dirty = ev.dirty;
  if (c.has_l2()) {
    bool l1_dirty = false;
    if (c.l1d().Invalidate(ev.line, &l1_dirty)) {
      dirty |= l1_dirty;
    }
  }
  auto it = directory_.find(ev.line);
  if (it != directory_.end()) {
    it->second.sharers &= ~(1u << core_id);
    if (it->second.owner == core_id) {
      it->second.owner = -1;
    }
  }
  if (dirty) {
    ++c.pmu().writebacks;
    WritebackToLlc(ev.line);
  }
  DropDirEntryIfDead(ev.line);
}

bool Machine::DropFromPrivate(int core_id, Addr line) {
  Core& c = core(core_id);
  bool dirty = false;
  bool d = false;
  if (c.l1d().Invalidate(line, &d)) {
    dirty |= d;
  }
  if (c.has_l2() && c.l2()->Invalidate(line, &d)) {
    dirty |= d;
  }
  auto it = directory_.find(line);
  if (it != directory_.end()) {
    it->second.sharers &= ~(1u << core_id);
    if (it->second.owner == core_id) {
      it->second.owner = -1;
    }
  }
  return dirty;
}

void Machine::DowngradeOwner(int owner, Addr line) {
  // The owner keeps a clean shared copy; its dirty data is written back to
  // the LLC so the requester (and others) can read it.
  Core& o = core(owner);
  o.l1d().CleanLine(line);
  if (o.has_l2()) {
    o.l2()->CleanLine(line);
  }
  ++o.pmu().writebacks;
  WritebackToLlc(line);
}

int Machine::InvalidateOthers(int keep_core, Addr line) {
  auto it = directory_.find(line);
  if (it == directory_.end()) {
    return 0;
  }
  int dropped = 0;
  const std::uint32_t keep_bit = 1u << keep_core;
  std::uint32_t others = it->second.sharers & ~keep_bit;
  for (int o = 0; others != 0; ++o, others >>= 1) {
    if ((others & 1u) == 0) {
      continue;
    }
    if (DropFromPrivate(o, line)) {
      WritebackToLlc(line);
    }
    ++core(o).pmu().invalidations_received;
    ++dropped;
  }
  if (dropped > 0) {
    core(keep_core).pmu().invalidations_sent += static_cast<std::uint64_t>(dropped);
    it = directory_.find(line);  // DropFromPrivate may erase nothing, but be safe
    if (it != directory_.end()) {
      it->second.sharers &= keep_bit;
    }
  }
  return dropped;
}

void Machine::WritebackToLlc(Addr line) {
  if (llc_.Contains(line)) {
    llc_.MarkDirty(line);
    return;
  }
  HandleLlcEviction(llc_.Insert(line, true));
}

void Machine::HandleLlcEviction(const Cache::Eviction& ev) {
  if (!ev.valid) {
    return;
  }
  // Inclusive LLC: back-invalidate every private copy of the evicted line.
  bool dirty = ev.dirty;
  auto it = directory_.find(ev.line);
  if (it != directory_.end()) {
    std::uint32_t sharers = it->second.sharers;
    for (int o = 0; sharers != 0; ++o, sharers >>= 1) {
      if ((sharers & 1u) != 0) {
        dirty |= DropFromPrivate(o, ev.line);
        ++core(o).pmu().invalidations_received;
      }
    }
    directory_.erase(ev.line);
  }
  if (dirty) {
    ++mem_writes_;
  }
}

void Machine::DropDirEntryIfDead(Addr line) {
  auto it = directory_.find(line);
  if (it != directory_.end() && it->second.sharers == 0 && it->second.owner == -1 &&
      !llc_.Contains(line)) {
    directory_.erase(it);
  }
}

}  // namespace ngx
