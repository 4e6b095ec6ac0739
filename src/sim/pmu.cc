#include "src/sim/pmu.h"

#include <sstream>

namespace ngx {

const char* TlbRegionName(TlbRegion r) {
  switch (r) {
    case TlbRegion::kHeap:
      return "heap";
    case TlbRegion::kMetadata:
      return "metadata";
    case TlbRegion::kFreeBuf:
      return "freebuf";
    case TlbRegion::kChannel:
      return "channel";
    case TlbRegion::kOther:
      return "other";
  }
  return "?";
}

PmuCounters& PmuCounters::operator+=(const PmuCounters& o) {
  cycles += o.cycles;
  instructions += o.instructions;
  loads += o.loads;
  stores += o.stores;
  atomic_rmws += o.atomic_rmws;
  l1d_load_misses += o.l1d_load_misses;
  l1d_store_misses += o.l1d_store_misses;
  l2_load_misses += o.l2_load_misses;
  l2_store_misses += o.l2_store_misses;
  llc_load_misses += o.llc_load_misses;
  llc_store_misses += o.llc_store_misses;
  remote_hitm += o.remote_hitm;
  dtlb_load_misses += o.dtlb_load_misses;
  dtlb_store_misses += o.dtlb_store_misses;
  dtlb_l1_misses += o.dtlb_l1_misses;
  for (int r = 0; r < kNumTlbRegions; ++r) {
    dtlb_region_lookups[static_cast<std::size_t>(r)] +=
        o.dtlb_region_lookups[static_cast<std::size_t>(r)];
    dtlb_region_walks[static_cast<std::size_t>(r)] +=
        o.dtlb_region_walks[static_cast<std::size_t>(r)];
  }
  alloc_instructions += o.alloc_instructions;
  alloc_cycles += o.alloc_cycles;
  invalidations_sent += o.invalidations_sent;
  invalidations_received += o.invalidations_received;
  writebacks += o.writebacks;
  sw_prefetches += o.sw_prefetches;
  return *this;
}

PmuCounters operator+(PmuCounters a, const PmuCounters& b) {
  a += b;
  return a;
}

std::string PmuCounters::ToString() const {
  std::ostringstream os;
  os << "cycles=" << cycles << " instructions=" << instructions << " ipc=" << Ipc() << "\n"
     << "loads=" << loads << " stores=" << stores << " atomics=" << atomic_rmws << "\n"
     << "LLC-load-misses=" << llc_load_misses << " (" << LlcLoadMpki() << " MPKI)\n"
     << "LLC-store-misses=" << llc_store_misses << " (" << LlcStoreMpki() << " MPKI)\n"
     << "dTLB-load-misses=" << dtlb_load_misses << " (" << DtlbLoadMpki() << " MPKI)\n"
     << "dTLB-store-misses=" << dtlb_store_misses << " (" << DtlbStoreMpki() << " MPKI)\n"
     << "remote-HITM=" << remote_hitm << " invalidations=" << invalidations_sent << "\n";
  return os.str();
}

}  // namespace ngx
