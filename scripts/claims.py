#!/usr/bin/env python3
"""Checks the bench claims against the JSON results of the fast bench subset.

Usage: python3 scripts/claims.py [RESULTS_DIR]

RESULTS_DIR defaults to build/bench_results (where scripts/run_all.sh and CI
write each bench's --json output). Every claim runs even if an earlier one
fails; the exit status is 1 if any failed.

The pinned final-state hash of the Table-3 pipeline rung lives here once
(PIPELINE_HASH); tests/test_determinism_sweep.cc pins the same value as
kTable3PipelineHash, and a deliberate model change re-pins both.
"""
import json
import os
import sys
import traceback

# bench_table3_nextgen's pipeline rung (prediction + pipelined stash, no
# hugepage knobs), replayed by the hugepage ablation's baseline cell.
PIPELINE_HASH = "c341e49c161c6028"


def load(results_dir, name):
    with open(os.path.join(results_dir, name + ".json")) as f:
        return json.load(f)


# The stash-pipeline ablation's two headline claims are cheap to check and
# guard the refill protocol against silent regressions: the sync residue must
# stay below the blocking kMallocBatch baseline, and one flip (= one stash
# line transfer) must publish a whole refill batch.
def stash_pipeline(results_dir):
    m = load(results_dir, "ablation_stash_pipeline")["metrics"]
    assert m["pipeline_sync_residue_pct"] < m["batch_sync_residue_pct"], m
    assert m["pipeline_flips_per_refill"] <= 1.0 + 1e-9, m
    assert m["pipeline_overlap_cycles"] > 0, m
    print("sync residue %.2f%% -> %.2f%%, flips/refill %.3f" % (
        m["batch_sync_residue_pct"], m["pipeline_sync_residue_pct"],
        m["pipeline_flips_per_refill"]))


# The segment-heap claims: the rewritten carve path must serve the quiet
# fabric mix in fewer server cycles than the segregated stacks, its slab
# recycling must actually hit, and no run may leak a block.
def server_carve(results_dir):
    m = load(results_dir, "ablation_server_carve")["metrics"]
    assert m["fabric_segment_quiet_carve_cycles"] < m["fabric_segregated_quiet_carve_cycles"], m
    assert m["fabric_segment_quiet_recycle_hit_rate"] > 0.5, m
    assert m["fabric_segment_donation_recycle_hit_rate"] > 0.5, m
    assert m["fabric_books_balanced"] == 1, m
    t3 = load(results_dir, "table3_nextgen")["metrics"]
    assert t3["segment_carve_cycles"] < t3["segregated_carve_cycles"], t3
    print("quiet fabric carve cycles %d -> %d, table3 carve cycles %d -> %d" % (
        m["fabric_segregated_quiet_carve_cycles"], m["fabric_segment_quiet_carve_cycles"],
        t3["segregated_carve_cycles"], t3["segment_carve_cycles"]))


# Adaptive-routing claims (DESIGN.md §14): on the diurnal skew-shifting mix
# the feedback-driven packer must beat least_loaded on the busiest shard's
# sync p99 at the same shard count, the fleet controller must actually park
# at least one core during the valley, and elasticity must never cost
# correctness (no partition OOMs, every malloc matched by a free across all
# three variants).
def adaptive_routing(results_dir):
    m = load(results_dir, "ablation_adaptive_routing")["metrics"]
    assert m["busiest_sync_p99_adaptive"] < m["busiest_sync_p99_least_loaded"], m
    assert m["shards_parked_adaptive"] >= 1, m
    assert m["routing_epochs_adaptive"] >= 1, m
    assert m["parked_core_cycles_adaptive"] > 0, m
    assert m["partition_ooms_total"] == 0, m
    assert m["books_balanced"] == 1, m
    print("busiest-shard sync p99 %d -> %d, %d shards parked, %d parked kcycles" % (
        m["busiest_sync_p99_least_loaded"], m["busiest_sync_p99_adaptive"],
        m["shards_parked_adaptive"], m["parked_core_cycles_adaptive"] // 1000))


# Hugepage packing + metadata claims (DESIGN.md §16): with hugepage spans
# and metadata off the ablation's baseline cell must replay the pinned
# pipeline hash bit for bit; with the full stack on, the Table-3 delta must
# improve on the pipeline rung and machine-wide dTLB misses must drop. Packed
# spans may waste only partially filled frontier frames: at most one 2-MiB
# frame on the single-shard ablation, and at most one per shard plus one on
# the donation bench's skewed mix, which must also finish without a
# partition OOM.
HUGEPAGE_BYTES = 2 << 20


def hugepage(results_dir):
    m = load(results_dir, "ablation_hugepage")["metrics"]
    assert m["baseline_state_hash"] == PIPELINE_HASH, m
    assert m["hugepage_speedup_pct"] > m["baseline_speedup_pct"], m
    assert m["hugepage_dtlb_misses"] < m["baseline_dtlb_misses"], m
    assert m["packed_map_waste_bytes"] <= HUGEPAGE_BYTES, m
    t3 = load(results_dir, "table3_nextgen")["metrics"]
    assert t3["nextgen_hugepage_speedup_pct"] > t3["nextgen_pipeline_speedup_pct"], t3
    assert t3["hugepage_dtlb_misses"] < t3["pipeline_dtlb_misses"], t3
    doc = load(results_dir, "ablation_span_donation")
    d = doc["metrics"]
    shards = len(doc["sweep"][0]["donated_in_per_shard"])
    assert d["map_waste_packed_bytes"] <= (shards + 1) * HUGEPAGE_BYTES, d
    packed = doc["hugepage_waste"]["packed"]
    assert packed["partition_oom_failures"] == 0, packed
    print("Table-3 delta %.2f%% -> %.2f%% (%.2f%% vs THP Mimalloc), "
          "dTLB misses %d -> %d, packed waste %d / %d bytes; baseline hash %s" % (
              m["baseline_speedup_pct"], m["hugepage_speedup_pct"],
              m["hugepage_speedup_vs_thp_pct"],
              m["baseline_dtlb_misses"], m["hugepage_dtlb_misses"],
              m["packed_map_waste_bytes"], d["map_waste_packed_bytes"],
              m["baseline_state_hash"]))


# Flight-recorder claims (DESIGN.md §13). The recorder is pure observation,
# so table3's recorder-on rerun must replay the identical simulated history
# (the bench hashes both final states), and the cycle attribution must be a
# true decomposition: the six buckets sum to the attributed total within
# 0.1%. Also extracts the introspection snapshots into their own artifact
# (table3_heap_snapshots.json) and validates their schema shape.
def flight_recorder(results_dir):
    doc = load(results_dir, "table3_nextgen")
    m = doc["metrics"]
    assert m["recorder_bit_identical"] is True, m
    at = doc["cycle_attribution"]
    total = at["total_cycles"]
    buckets = (at["client_path_cycles"] + at["sync_stall_cycles"] +
               at["ring_wait_cycles"] + at["server_carve_cycles"] +
               at["server_drain_cycles"] + at["flush_cycles"])
    assert total > 0 and abs(buckets - total) <= 0.001 * total, at
    snaps = doc["flight_recorder"]["snapshots"]
    assert snaps, "no heap snapshots recorded"
    for snap in snaps + [doc["final_heap_snapshot"]]:
        assert isinstance(snap["cycle"], int), snap
        for sh in snap["shards"]:
            for key in ("spans", "bytes_live", "data_mapped_bytes",
                        "internal_frag_pct", "external_frag_pct"):
                assert key in sh, (key, sh)
    with open(os.path.join(results_dir, "table3_heap_snapshots.json"), "w") as f:
        json.dump({"bench": doc["bench"], "snapshots": snaps,
                   "final": doc["final_heap_snapshot"]}, f, indent=2)
    print("bit-identical; %d buckets cycles == total %d; %d snapshots" % (
        buckets, total, len(snaps)))


CLAIMS = (stash_pipeline, server_carve, adaptive_routing, hugepage, flight_recorder)


def main(argv):
    results_dir = argv[1] if len(argv) > 1 else "build/bench_results"
    failed = []
    for claim in CLAIMS:
        print("[claim] %s: " % claim.__name__, end="", flush=True)
        try:
            claim(results_dir)
        except Exception:  # report every claim, then fail once at the end
            print("FAILED")
            traceback.print_exc()
            failed.append(claim.__name__)
    if failed:
        print("failed claims: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    print("all %d claims hold" % len(CLAIMS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
