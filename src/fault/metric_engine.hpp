// FaultMetricEngine: parallel, equivalence-collapsed, baseline-seeded
// evaluation of the fault-tolerance metric (paper §III-A, §IV-B).
//
// Semantics-preserving replacement for the serial loop in
// compute_fault_tolerance / AccessAnalyzer::accessible_under_set.  Four
// stacked optimisations (see DESIGN.md "Fault-metric engine"):
//
//  1. Fault-equivalence collapse: faults are grouped by their static
//     effect site; one representative per class is analysed and its
//     result weighted by the class multiplicity.  This generalises the
//     legacy sa0/sa1 polarity reuse to arbitrary fault-list orders.
//  2. Baseline-seeded masks: the iteration-0 control possibility masks
//     (writable = ∅, no fault) are computed once per engine and patched
//     per fault only inside the fault's effect cone, instead of
//     re-deriving the whole hash-consed pool per fault per iteration.
//     Across iterations, masks are updated by value-driven upward
//     propagation from segments that became writable.  The fixpoint is
//     still the grow-from-∅ least fixpoint — a shrink-from-baseline
//     iteration would compute a *greatest* fixpoint and overapproximate
//     accessibility on mutual-support select cycles.
//  3. Allocation-free inner loop: all per-fault and per-iteration state
//     lives in a per-worker Scratch arena of flat arrays and packed
//     uint64_t bitsets; evaluating a fault performs no heap allocation.
//  4. Deterministic parallelism: class representatives are sharded
//     across a ThreadPool; per-class counts land in indexed slots and
//     the report is folded serially in fault-index order, so every
//     aggregate (including worst_fault_index tie-breaks and double
//     rounding) is bit-identical at any thread count.
//
// The engine performs no SAT solving and keeps no cross-fault solver
// state (PR 2 cone-oracle lessons: persistent solver state is a perf
// trap; all reuse here is pure dataflow over the control pool).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fault/faults.hpp"
#include "fault/metric.hpp"
#include "rsn/rsn.hpp"

namespace ftrsn {

class ThreadPool;
namespace simd {
struct Ops;
}

struct MetricEngineOptions {
  MetricOptions metric;
  /// Worker threads; <= 0 resolves to the hardware concurrency.  Ignored
  /// when `pool` is set.
  int threads = 0;
  /// Shared worker pool (non-owning).  When set, the evaluation's
  /// fault-class parallel_for runs as a nested job on this pool instead of
  /// a private per-call "metric" pool — this is how BatchRunner gets
  /// two-level (network × fault-class) parallelism on one pool.  The pool
  /// may be shared with other engines running concurrently; a single
  /// engine's evaluate calls must still not overlap each other.
  ThreadPool* pool = nullptr;
  /// parallel_for chunk size in fault classes; 0 auto-tunes from the class
  /// and worker counts (the perf default — fixed sizes either starve load
  /// balancing or drown small networks in chunk-claim overhead).
  std::size_t chunk = 0;
  /// Evaluate one representative per fault-equivalence class (bit-identical
  /// either way; off only for benchmarking the lever).
  bool collapse_equivalent = true;
  /// Seed per-fault control masks from the fault-free baseline and patch
  /// only the effect cone (bit-identical either way; off only for
  /// benchmarking the lever).  The packed path always rebases onto the
  /// baseline, so this lever only affects the scalar path.
  bool seed_baseline = true;
  /// Bit-parallel evaluation: 64 fault classes become forced-bit lanes in
  /// one uint64_t word per signal, so a single levelized fixpoint pass
  /// decides 64 faults at once (DESIGN.md §5h).  Bit-identical to the
  /// scalar path at any thread count and any lane occupancy; off only for
  /// differential testing and for benchmarking the lever.
  bool packed = true;
};

struct MetricEngineStats {
  std::size_t faults = 0;
  std::size_t classes = 0;  ///< representatives actually analysed
  std::size_t fixpoint_iterations = 0;
  /// Control-pool mask computations performed (cone patches + incremental
  /// re-evaluations over all analysed faults).
  std::size_t mask_evals = 0;
  /// Control-pool masks served unchanged from the fault-free baseline.
  std::size_t mask_cold_reused = 0;
  /// Packed mode: 64-lane batches evaluated and packed mask words computed
  /// (each packed word eval covers up to 64 fault lanes; in packed mode
  /// mask_evals counts the same events, so mask_evals / packed_words == 1
  /// and the per-lane work is packed_words * 64 * lane_utilization).
  std::size_t packed_batches = 0;
  std::size_t packed_words = 0;
  /// Packed mode: lane-word positions visited by the dense passes that
  /// mask_evals does not count — the per-batch taint sweep (nodes from the
  /// lowest data-fault site on) and, per fixpoint iteration, the forward
  /// and backward reachability passes (every node) and the slot pass
  /// (every segment slot).  Deterministic, like mask_evals.
  std::size_t sweep_words = 0;
  /// Mean lane occupancy of the evaluated batches in (0, 1]; < 1 only for
  /// the partial tail word of the class list.
  double lane_utilization = 0.0;
  /// SIMD kernel the packed path dispatched to ("" when packed unused).
  const char* simd_kernel = "";
  int threads = 1;
  /// parallel_for chunk size actually used (auto-tuned unless pinned; in
  /// packed mode the unit is 64-class blocks, not classes).
  std::size_t chunk = 0;
  double seconds = 0.0;

  double collapse_ratio() const {
    return classes ? static_cast<double>(faults) / static_cast<double>(classes)
                   : 1.0;
  }
};

class FaultMetricEngine {
 public:
  /// Precomputes the packed graph/control-pool arrays and the fault-free
  /// baseline masks.  The engine keeps a reference to `rsn`; the network
  /// must outlive it and stay unmodified.
  explicit FaultMetricEngine(const Rsn& rsn);
  ~FaultMetricEngine();

  FaultMetricEngine(const FaultMetricEngine&) = delete;
  FaultMetricEngine& operator=(const FaultMetricEngine&) = delete;

  /// Metric over the complete single stuck-at fault universe
  /// (bit-identical to compute_fault_tolerance(rsn, options.metric)).
  FaultToleranceReport evaluate(const MetricEngineOptions& options = {}) const;

  /// Metric over an explicit fault list (bit-identical to the legacy
  /// fault-list overload of compute_fault_tolerance).
  FaultToleranceReport evaluate_faults(
      const std::vector<Fault>& faults,
      const MetricEngineOptions& options = {}) const;

  /// Per-worker scratch arena for repeated accessibility queries.
  class Scratch;
  struct ScratchDeleter {
    void operator()(Scratch* s) const;
  };
  using ScratchPtr = std::unique_ptr<Scratch, ScratchDeleter>;
  ScratchPtr make_scratch() const;

  /// Accessible segments under a simultaneous multi-fault set
  /// (bit-identical to AccessAnalyzer::accessible_under_set).
  std::vector<bool> accessible_under_set(const std::vector<Fault>& faults,
                                         Scratch& scratch) const;
  std::vector<bool> accessible_under_set(const std::vector<Fault>& faults) const;
  std::vector<bool> accessible_fault_free() const;

  /// Accessible segments under each single fault of `faults` (at most 64),
  /// decided by one packed batch with fault i on lane i and the stuck values
  /// taken as given (no polarity canonicalization).  Entry i is
  /// bit-identical to accessible_under_set({faults[i]}).
  std::vector<std::vector<bool>> accessible_under_each(
      const std::vector<Fault>& faults, Scratch& scratch) const;

  /// Statistics of the most recent evaluate/evaluate_faults call.  Not
  /// synchronised: read only after the call returns, from the same thread.
  const MetricEngineStats& last_stats() const { return stats_; }

 private:
  struct CountedInfo;
  struct ClassCounts;

  struct BaselineRecorder;
  void eval_fault_set(Scratch& s, const Fault* faults, std::size_t n_faults,
                      bool seed_baseline,
                      BaselineRecorder* recorder = nullptr) const;
  void propagate_masks(Scratch& s) const;
  std::uint8_t compute_mask(const Scratch& s, std::int32_t i) const;

  // Packed (64-lane) path: one fault class per bit of a uint64_t word.
  void init_packed_scratch(Scratch& s) const;
  void eval_fault_batch(Scratch& s, const Fault* faults, std::size_t n_lanes,
                        const simd::Ops& ops) const;
  void propagate_masks_packed(Scratch& s) const;
  void compute_mask_packed(const Scratch& s, std::int32_t i,
                           std::uint64_t& m0, std::uint64_t& m1) const;

  const Rsn* rsn_;
  std::size_t n_nodes_ = 0;
  std::size_t pool_size_ = 0;

  // Packed scan graph (CSR, edge-indexed).
  struct EngineEdge {
    NodeId from, to;
    std::int32_t mux_input;  // -1 for non-mux edges
  };
  std::vector<EngineEdge> edges_;
  std::vector<std::int32_t> out_start_, out_edge_;
  std::vector<std::int32_t> in_start_, in_edge_;
  std::vector<NodeId> topo_;
  std::vector<std::int32_t> topo_pos_;  // node -> index in topo_
  std::vector<NodeId> primary_ins_, primary_outs_;

  // Per-node structure-of-arrays mirrors of the RsnNode fields the inner
  // loop touches (RsnNode carries a std::string and is cache-hostile).
  std::vector<std::uint8_t> is_segment_, has_shadow_;
  std::vector<std::uint8_t> is_primary_in_, is_primary_out_;
  std::vector<std::int32_t> node_sel_, node_cap_, node_upd_, node_addr_;
  std::vector<std::int32_t> node_len_;

  // Control pool structure-of-arrays.
  std::vector<std::uint8_t> pool_op_;
  std::vector<std::int32_t> pool_kid0_, pool_kid1_, pool_kid2_;
  std::vector<std::int32_t> atom_seg_;       // kShadowBit: owning segment
  std::vector<std::uint8_t> atom_reset_mask_;  // kShadowBit: mask when unwritable
  std::vector<std::uint8_t> pool_used_;      // in some queried cone
  std::size_t used_count_ = 0;
  std::vector<std::int32_t> parent_start_, parent_;  // used-node parents (CSR)
  std::vector<std::int32_t> atom_start_, atom_node_;  // per node: used atoms
  // Fault-free baseline trajectory: control masks and writable set at the
  // top of every fixpoint iteration of the fault-free run (index 0 is the
  // cold writable = ∅ state, the last entry is the fixpoint).  Per-fault
  // evaluation rebases each iteration onto the matching snapshot and
  // patches only the diff, which stays small for almost every fault.
  std::vector<std::vector<std::uint8_t>> base_mask_;
  std::vector<std::vector<std::uint64_t>> base_writable_;
  // (seg, bit, replica) -> used kShadowBit pool node, for replica forcings.
  std::unordered_map<std::uint64_t, std::int32_t> replica_atoms_;

  // Select-term metadata, flattened.
  struct TermUse {
    NodeId seg;
    std::int32_t term;
    std::int32_t edge_begin, edge_end;  // into term_edge_
  };
  std::vector<TermUse> terms_;
  std::vector<std::int32_t> term_edge_;
  std::vector<NodeId> term_segs_;  // segments with at least one term
  std::vector<std::uint8_t> has_terms_;

  std::vector<NodeId> segments_;

  // Packed-path precompute.  Segment "slots" are the dense indices of
  // segments_ (ascending node id); the per-iteration lane-word passes run
  // over slot-ordered arrays so the SIMD kernels see contiguous memory.
  std::vector<std::int32_t> seg_slot_;  // node -> slot, -1 for non-segments
  std::vector<std::int32_t> slot_sel_, slot_cap_, slot_upd_;  // ctrl roots
  std::vector<std::int32_t> slot_seg_;        // slot -> node id (int32)
  std::vector<std::uint64_t> slot_shadow_;    // ~0 for shadowed slots
  std::vector<std::int32_t> atom_slot_;       // pool idx -> owning slot, -1
  std::vector<std::int32_t> mux_edges_;       // edge ids with mux_input >= 0

  // Per-worker Scratch arenas, grown on demand and reused across evaluate
  // calls (constructing a Scratch touches every dense array once, which
  // used to dominate small-network evaluations).  Like stats_, this makes
  // concurrent evaluate calls on one engine unsupported; distinct engines
  // sharing one ThreadPool are fine because each indexes its own cache by
  // the pool-wide worker id.
  mutable std::vector<ScratchPtr> scratch_cache_;
  mutable MetricEngineStats stats_;
};

}  // namespace ftrsn
