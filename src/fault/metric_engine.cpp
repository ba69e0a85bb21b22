#include "fault/metric_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/common.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ftrsn {

namespace {

constexpr std::uint8_t kCan0 = 1;
constexpr std::uint8_t kCan1 = 2;
constexpr std::uint8_t kCanBoth = kCan0 | kCan1;
constexpr int kMaxIterations = 256;  // mirrors the legacy fixpoint bound

inline bool bit_test(const std::vector<std::uint64_t>& w, std::size_t i) {
  return (w[i >> 6] >> (i & 63)) & 1;
}
inline void bit_set(std::vector<std::uint64_t>& w, std::size_t i) {
  w[i >> 6] |= std::uint64_t{1} << (i & 63);
}

/// Fault-equivalence class key: the static effect site of a fault.  Two
/// faults with equal keys produce identical analysis inputs (node_dead /
/// mux_pin / dead_mux_input / forced / taint cone), so one representative
/// decides the whole class.  `value` is wildcarded (-1) for
/// polarity-invariant points: a stuck data net carries a constant either
/// way, and the taint cone is determined by the site alone.
struct SiteKey {
  std::uint8_t point;
  NodeId node;
  std::int32_t index;
  CtrlRef ctrl;
  std::int32_t bit;
  std::int8_t value;  // -1 = both polarities equivalent

  bool operator==(const SiteKey& o) const {
    return point == o.point && node == o.node && index == o.index &&
           ctrl == o.ctrl && bit == o.bit && value == o.value;
  }
};

struct SiteKeyHash {
  std::size_t operator()(const SiteKey& k) const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(k.point);
    mix(k.node);
    mix(static_cast<std::uint32_t>(k.index));
    mix(static_cast<std::uint32_t>(k.ctrl));
    mix(static_cast<std::uint32_t>(k.bit));
    mix(static_cast<std::uint8_t>(k.value));
    return static_cast<std::size_t>(h);
  }
};

SiteKey site_key(const Forcing& f) {
  SiteKey k;
  k.point = static_cast<std::uint8_t>(f.point);
  k.node = f.node;
  k.index = f.index;
  k.ctrl = f.ctrl;
  k.bit = f.bit;
  k.value = fault_polarity_invariant(f.point) ? -1 : (f.value ? 1 : 0);
  return k;
}

inline std::uint64_t replica_key(NodeId seg, int bit, int replica) {
  return (static_cast<std::uint64_t>(seg) << 24) |
         (static_cast<std::uint64_t>(bit & 0xffff) << 8) |
         static_cast<std::uint64_t>(replica & 0xff);
}

}  // namespace

// ---------------------------------------------------------------------------
// Scratch arena: every mutable byte a worker needs to evaluate one fault
// set.  Allocated once per worker, reused across faults; per-fault state is
// restored via touched lists (sparse effects) or memset (dense fixpoint
// state), so the steady-state inner loop performs no heap allocation.
// ---------------------------------------------------------------------------
class FaultMetricEngine::Scratch {
 public:
  // Static fault effects (sparse, touched-list reset).
  std::vector<std::uint8_t> node_dead;
  std::vector<NodeId> node_dead_touched;
  std::vector<std::int8_t> mux_pin;  // -1 free, 0/1 pinned
  std::vector<NodeId> mux_pin_touched;
  std::vector<std::uint8_t> dead_mux_in;  // index node*2 + input
  std::vector<std::int32_t> dead_mux_touched;
  std::vector<std::uint8_t> own_in_bad, own_out_bad;
  std::vector<NodeId> own_touched;
  std::vector<std::int8_t> forced;  // per pool node, -1 free
  std::vector<std::int32_t> forced_touched;
  std::vector<std::uint8_t> extra;  // per node: taint mask for its atoms
  std::vector<NodeId> extra_touched;
  std::vector<std::uint8_t> seen;  // taint DFS visited
  std::vector<NodeId> dfs_stack;

  // Control possibility masks, maintained incrementally.  Dirty pool nodes
  // are flagged in `in_prop` and drained by a watermark-bounded linear
  // sweep (pool indices are topological, so low-to-high order re-evaluates
  // kids before parents).
  std::vector<std::uint8_t> mask;
  std::vector<std::uint8_t> in_prop;
  std::size_t prop_lo = 0, prop_hi = 0;  // dirty index range [lo, hi]
  std::size_t prop_count = 0;

  // Per-iteration dataflow state.
  std::vector<std::uint8_t> edge_routable, edge_clean;
  std::vector<std::uint8_t> sel_assert, cap_ok, upd_ok, term_alive;
  std::vector<std::uint8_t> route_fwd, clean_fwd, route_bwd, clean_bwd;

  // Fixpoint state (packed bitsets over nodes).
  std::vector<std::uint64_t> writable, accessible;
  std::vector<NodeId> newly_writable;
  // Used atoms whose mask actually deviates under the fault's taint while
  // their segment is unwritable (precomputed once per fault).
  std::vector<std::int32_t> taint_seed_atoms;

  // --- Packed (64-lane) state; allocated lazily by init_packed_scratch
  // because the scalar paths (accessible_under_set, baseline recording)
  // never touch it. ---
  bool packed_ready = false;
  // Static per-batch fault effects: lane l of each word carries fault l of
  // the batch, restored via touched lists exactly like the scalar arrays.
  std::vector<std::uint64_t> p_node_dead;  // per node
  std::vector<NodeId> p_node_dead_touched;
  std::vector<std::uint64_t> p_mux_pinned, p_mux_pin_val;  // per node
  std::vector<NodeId> p_mux_touched;
  std::vector<std::uint64_t> p_dead_mux_in;  // index node*2 + input
  std::vector<std::int32_t> p_dead_mux_touched;
  std::vector<std::uint64_t> p_own_in_bad, p_own_out_bad;  // per slot
  std::vector<std::int32_t> p_own_touched;
  std::vector<std::uint64_t> p_forced_mask, p_forced_val;  // per pool node
  std::vector<std::int32_t> p_forced_touched;
  std::vector<std::uint64_t> p_extra0, p_extra1;  // per slot: taint lanes
  std::vector<std::int32_t> p_extra_touched;
  // Taint sweep: per node, the stuck-0 / stuck-1 lanes arriving over at
  // least one scan edge.  All-zero between batches (the sweep clears each
  // node as it consumes it).
  std::vector<std::uint64_t> p_taint0, p_taint1;
  // Taint rebase seeds: used atom + the lanes that deviate at reset.
  std::vector<std::int32_t> p_seed_atoms;
  std::vector<std::uint64_t> p_seed_lanes;
  // Control possibility masks as lane words (bit l set = lane l's fault
  // leaves this net able to carry 0 / 1), drained through the same
  // in_prop watermark machinery as the scalar `mask`.
  std::vector<std::uint64_t> p_mask0, p_mask1;
  // Per-iteration dataflow state.
  std::vector<std::uint64_t> p_edge_routable, p_edge_clean;
  std::vector<std::uint64_t> p_route_fwd, p_clean_fwd;
  std::vector<std::uint64_t> p_route_bwd, p_clean_bwd;
  std::vector<std::uint64_t> p_sel_assert, p_cap_ok, p_upd_ok;  // per slot
  std::vector<std::uint64_t> p_gcf, p_grb, p_grf, p_gcb;  // slot gathers
  std::vector<std::uint64_t> p_write_acc, p_read_acc;
  std::vector<std::uint64_t> p_accessible, p_writable;  // per slot

  // Counters folded into MetricEngineStats after a run.
  std::uint64_t iterations = 0;
  std::uint64_t mask_evals = 0;
  std::uint64_t mask_cold_reused = 0;
  std::uint64_t packed_batches = 0;
  std::uint64_t packed_lanes = 0;
  std::uint64_t packed_words = 0;
  std::uint64_t sweep_words = 0;
};

void FaultMetricEngine::ScratchDeleter::operator()(Scratch* s) const {
  delete s;
}

/// Snapshot sink for the fault-free trajectory recording run.
struct FaultMetricEngine::BaselineRecorder {
  std::vector<std::vector<std::uint8_t>>* masks;
  std::vector<std::vector<std::uint64_t>>* writable;
};

FaultMetricEngine::ScratchPtr FaultMetricEngine::make_scratch() const {
  auto* s = new Scratch();
  const std::size_t n = n_nodes_;
  s->node_dead.assign(n, 0);
  s->mux_pin.assign(n, -1);
  s->dead_mux_in.assign(n * 2, 0);
  s->own_in_bad.assign(n, 0);
  s->own_out_bad.assign(n, 0);
  s->forced.assign(pool_size_, -1);
  s->extra.assign(n, 0);
  s->seen.assign(n, 0);
  s->mask.assign(pool_size_, 0);
  s->in_prop.assign(pool_size_, 0);
  s->prop_lo = pool_size_;
  s->edge_routable.assign(edges_.size(), 0);
  s->edge_clean.assign(edges_.size(), 0);
  s->sel_assert.assign(n, 0);
  s->cap_ok.assign(n, 0);
  s->upd_ok.assign(n, 0);
  s->term_alive.assign(n, 0);
  s->route_fwd.assign(n, 0);
  s->clean_fwd.assign(n, 0);
  s->route_bwd.assign(n, 0);
  s->clean_bwd.assign(n, 0);
  const std::size_t words = (n + 63) / 64;
  s->writable.assign(words, 0);
  s->accessible.assign(words, 0);
  return ScratchPtr(s);
}

// ---------------------------------------------------------------------------
// Construction: packed graph + control-pool arrays and fault-free baseline.
// ---------------------------------------------------------------------------
FaultMetricEngine::FaultMetricEngine(const Rsn& rsn) : rsn_(&rsn) {
  n_nodes_ = rsn.num_nodes();
  pool_size_ = rsn.ctrl().size();
  const CtrlPool& pool = rsn.ctrl();

  // Scan graph, mirroring AccessAnalyzer's edge construction.
  std::vector<std::int32_t> out_count(n_nodes_, 0), in_count(n_nodes_, 0);
  for (NodeId id = 0; id < n_nodes_; ++id) {
    const RsnNode& n = rsn.node(id);
    if (n.kind == NodeKind::kSegment || n.kind == NodeKind::kPrimaryOut) {
      edges_.push_back({n.scan_in, id, -1});
    } else if (n.is_mux()) {
      edges_.push_back({n.mux_in[0], id, 0});
      edges_.push_back({n.mux_in[1], id, 1});
    }
  }
  for (const EngineEdge& e : edges_) {
    ++out_count[e.from];
    ++in_count[e.to];
  }
  out_start_.assign(n_nodes_ + 1, 0);
  in_start_.assign(n_nodes_ + 1, 0);
  for (std::size_t i = 0; i < n_nodes_; ++i) {
    out_start_[i + 1] = out_start_[i] + out_count[i];
    in_start_[i + 1] = in_start_[i] + in_count[i];
  }
  out_edge_.resize(edges_.size());
  in_edge_.resize(edges_.size());
  std::vector<std::int32_t> out_fill(out_start_.begin(), out_start_.end() - 1);
  std::vector<std::int32_t> in_fill(in_start_.begin(), in_start_.end() - 1);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    out_edge_[static_cast<std::size_t>(out_fill[edges_[e].from]++)] =
        static_cast<std::int32_t>(e);
    in_edge_[static_cast<std::size_t>(in_fill[edges_[e].to]++)] =
        static_cast<std::int32_t>(e);
  }
  topo_ = rsn.topo_order();
  topo_pos_.assign(n_nodes_, 0);
  for (std::size_t i = 0; i < topo_.size(); ++i)
    topo_pos_[static_cast<std::size_t>(topo_[i])] = static_cast<std::int32_t>(i);
  primary_ins_ = rsn.primary_ins();
  primary_outs_ = rsn.primary_outs();

  // Node structure-of-arrays.
  is_segment_.assign(n_nodes_, 0);
  has_shadow_.assign(n_nodes_, 0);
  is_primary_in_.assign(n_nodes_, 0);
  is_primary_out_.assign(n_nodes_, 0);
  node_sel_.assign(n_nodes_, -1);
  node_cap_.assign(n_nodes_, -1);
  node_upd_.assign(n_nodes_, -1);
  node_addr_.assign(n_nodes_, -1);
  node_len_.assign(n_nodes_, 0);
  for (NodeId id = 0; id < n_nodes_; ++id) {
    const RsnNode& n = rsn.node(id);
    is_primary_in_[id] = n.kind == NodeKind::kPrimaryIn;
    is_primary_out_[id] = n.kind == NodeKind::kPrimaryOut;
    node_len_[id] = n.length;
    if (n.is_segment()) {
      is_segment_[id] = 1;
      has_shadow_[id] = n.has_shadow;
      node_sel_[id] = n.select;
      node_cap_[id] = n.cap_dis;
      node_upd_[id] = n.up_dis;
      segments_.push_back(id);
    } else if (n.is_mux()) {
      node_addr_[id] = n.addr;
    }
  }

  // Control-pool structure-of-arrays + leaf masks.
  pool_op_.assign(pool_size_, 0);
  pool_kid0_.assign(pool_size_, -1);
  pool_kid1_.assign(pool_size_, -1);
  pool_kid2_.assign(pool_size_, -1);
  atom_seg_.assign(pool_size_, -1);
  atom_reset_mask_.assign(pool_size_, 0);
  for (CtrlRef r = 0; static_cast<std::size_t>(r) < pool_size_; ++r) {
    const CtrlNode& c = pool.node(r);
    const auto idx = static_cast<std::size_t>(r);
    pool_op_[idx] = static_cast<std::uint8_t>(c.op);
    const int arity = c.arity();
    if (arity >= 1) pool_kid0_[idx] = c.kid[0];
    if (arity >= 2) pool_kid1_[idx] = c.kid[1];
    if (arity >= 3) pool_kid2_[idx] = c.kid[2];
    switch (c.op) {
      case CtrlOp::kConst:
        atom_reset_mask_[idx] = c.bit ? kCan1 : kCan0;
        break;
      case CtrlOp::kEnable:
        atom_reset_mask_[idx] = kCan1;  // accesses run with the RSN enabled
        break;
      case CtrlOp::kPortSel:
        atom_reset_mask_[idx] = kCanBoth;  // free primary input
        break;
      case CtrlOp::kShadowBit: {
        atom_seg_[idx] = static_cast<std::int32_t>(c.seg);
        const bool v = (rsn.node(c.seg).reset_shadow >> c.bit) & 1;
        atom_reset_mask_[idx] = v ? kCan1 : kCan0;
        break;
      }
      default:
        break;
    }
  }

  // Select-term metadata (term -> matching out-edges of the segment).
  has_terms_.assign(n_nodes_, 0);
  for (const auto& st : rsn.select_terms()) {
    TermUse t;
    t.seg = st.seg;
    t.term = st.term;
    t.edge_begin = static_cast<std::int32_t>(term_edge_.size());
    for (std::int32_t k = out_start_[st.seg]; k < out_start_[st.seg + 1]; ++k) {
      const std::int32_t e = out_edge_[static_cast<std::size_t>(k)];
      if (edges_[static_cast<std::size_t>(e)].to == st.succ)
        term_edge_.push_back(e);
    }
    t.edge_end = static_cast<std::int32_t>(term_edge_.size());
    terms_.push_back(t);
    if (!has_terms_[st.seg]) {
      has_terms_[st.seg] = 1;
      term_segs_.push_back(st.seg);
    }
  }
  std::sort(term_segs_.begin(), term_segs_.end());

  // Mark the pool cone actually queried by the analysis: segment
  // select/capture/update roots, mux address roots, select terms.
  pool_used_.assign(pool_size_, 0);
  std::vector<CtrlRef> stack;
  const auto mark = [&](std::int32_t r) {
    if (r >= 0 && !pool_used_[static_cast<std::size_t>(r)]) {
      pool_used_[static_cast<std::size_t>(r)] = 1;
      stack.push_back(r);
    }
  };
  for (NodeId seg : segments_) {
    mark(node_sel_[seg]);
    mark(node_cap_[seg]);
    mark(node_upd_[seg]);
  }
  for (NodeId id = 0; id < n_nodes_; ++id) mark(node_addr_[id]);
  for (const TermUse& t : terms_) mark(t.term);
  while (!stack.empty()) {
    const auto idx = static_cast<std::size_t>(stack.back());
    stack.pop_back();
    mark(pool_kid0_[idx]);
    mark(pool_kid1_[idx]);
    mark(pool_kid2_[idx]);
  }
  used_count_ = static_cast<std::size_t>(
      std::count(pool_used_.begin(), pool_used_.end(), 1));

  // Parent CSR over used nodes: when a node's mask changes, these are the
  // (queried) nodes that must be re-evaluated.
  std::vector<std::int32_t> parent_count(pool_size_, 0);
  const auto each_used_kid = [&](std::size_t idx, const auto& fn) {
    if (pool_kid0_[idx] >= 0) fn(pool_kid0_[idx]);
    if (pool_kid1_[idx] >= 0) fn(pool_kid1_[idx]);
    if (pool_kid2_[idx] >= 0) fn(pool_kid2_[idx]);
  };
  for (std::size_t idx = 0; idx < pool_size_; ++idx) {
    if (!pool_used_[idx]) continue;
    each_used_kid(idx, [&](std::int32_t k) {
      ++parent_count[static_cast<std::size_t>(k)];
    });
  }
  parent_start_.assign(pool_size_ + 1, 0);
  for (std::size_t i = 0; i < pool_size_; ++i)
    parent_start_[i + 1] = parent_start_[i] + parent_count[i];
  parent_.resize(static_cast<std::size_t>(parent_start_[pool_size_]));
  std::vector<std::int32_t> parent_fill(parent_start_.begin(),
                                        parent_start_.end() - 1);
  for (std::size_t idx = 0; idx < pool_size_; ++idx) {
    if (!pool_used_[idx]) continue;
    each_used_kid(idx, [&](std::int32_t k) {
      parent_[static_cast<std::size_t>(
          parent_fill[static_cast<std::size_t>(k)]++)] =
          static_cast<std::int32_t>(idx);
    });
  }

  // Used shadow atoms grouped by owning segment (for writability-driven
  // mask updates and taint seeding).
  std::vector<std::int32_t> atom_count(n_nodes_, 0);
  for (std::size_t idx = 0; idx < pool_size_; ++idx)
    if (pool_used_[idx] && atom_seg_[idx] >= 0)
      ++atom_count[static_cast<std::size_t>(atom_seg_[idx])];
  atom_start_.assign(n_nodes_ + 1, 0);
  for (std::size_t i = 0; i < n_nodes_; ++i)
    atom_start_[i + 1] = atom_start_[i] + atom_count[i];
  atom_node_.resize(static_cast<std::size_t>(atom_start_[n_nodes_]));
  std::vector<std::int32_t> atom_fill(atom_start_.begin(),
                                      atom_start_.end() - 1);
  for (std::size_t idx = 0; idx < pool_size_; ++idx)
    if (pool_used_[idx] && atom_seg_[idx] >= 0)
      atom_node_[static_cast<std::size_t>(
          atom_fill[static_cast<std::size_t>(atom_seg_[idx])]++)] =
          static_cast<std::int32_t>(idx);

  // Replica lookup for kShadowReplica forcings (hash-consing guarantees at
  // most one pool node per (seg, bit, replica); unused atoms are never
  // queried, so forcing them is a no-op in the legacy engine too).
  for (CtrlRef r = 0; static_cast<std::size_t>(r) < pool_size_; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    if (!pool_used_[idx] || atom_seg_[idx] < 0) continue;
    const CtrlNode& c = pool.node(r);
    replica_atoms_.emplace(replica_key(c.seg, c.bit, c.replica),
                           static_cast<std::int32_t>(r));
  }

  // Record the fault-free baseline trajectory: one cold (non-seeded) run,
  // snapshotting masks and the writable set at the top of every fixpoint
  // iteration.  Per-fault evaluation later rebases onto these snapshots.
  BaselineRecorder recorder{&base_mask_, &base_writable_};
  const ScratchPtr scratch = make_scratch();
  eval_fault_set(*scratch, nullptr, 0, /*seed_baseline=*/false, &recorder);

  // Packed-path precompute: segment slots in segments_ order and the mux
  // edge list (the only edges whose usability varies per lane).
  const std::size_t n_slots = segments_.size();
  seg_slot_.assign(n_nodes_, -1);
  slot_sel_.resize(n_slots);
  slot_cap_.resize(n_slots);
  slot_upd_.resize(n_slots);
  slot_seg_.resize(n_slots);
  slot_shadow_.resize(n_slots);
  for (std::size_t t = 0; t < n_slots; ++t) {
    const NodeId seg = segments_[t];
    seg_slot_[seg] = static_cast<std::int32_t>(t);
    slot_sel_[t] = node_sel_[seg];
    slot_cap_[t] = node_cap_[seg];
    slot_upd_[t] = node_upd_[seg];
    slot_seg_[t] = static_cast<std::int32_t>(seg);
    slot_shadow_[t] = has_shadow_[seg] ? ~std::uint64_t{0} : 0;
  }
  atom_slot_.assign(pool_size_, -1);
  for (std::size_t idx = 0; idx < pool_size_; ++idx)
    if (atom_seg_[idx] >= 0)
      atom_slot_[idx] = seg_slot_[static_cast<std::size_t>(atom_seg_[idx])];
  for (std::size_t e = 0; e < edges_.size(); ++e)
    if (edges_[e].mux_input >= 0)
      mux_edges_.push_back(static_cast<std::int32_t>(e));
}

FaultMetricEngine::~FaultMetricEngine() = default;

// ---------------------------------------------------------------------------
// Incremental control-mask maintenance.
// ---------------------------------------------------------------------------
std::uint8_t FaultMetricEngine::compute_mask(const Scratch& s,
                                             std::int32_t i) const {
  const auto idx = static_cast<std::size_t>(i);
  if (s.forced[idx] >= 0) return s.forced[idx] ? kCan1 : kCan0;
  switch (static_cast<CtrlOp>(pool_op_[idx])) {
    case CtrlOp::kConst:
    case CtrlOp::kEnable:
    case CtrlOp::kPortSel:
      return atom_reset_mask_[idx];
    case CtrlOp::kShadowBit: {
      const auto seg = static_cast<std::size_t>(atom_seg_[idx]);
      if (bit_test(s.writable, seg)) return kCanBoth;
      // A register downstream of a stuck data net can additionally latch
      // the stuck constant by updating on a corrupted path.
      return static_cast<std::uint8_t>(atom_reset_mask_[idx] | s.extra[seg]);
    }
    case CtrlOp::kNot: {
      const std::uint8_t a = s.mask[static_cast<std::size_t>(pool_kid0_[idx])];
      return static_cast<std::uint8_t>(((a & kCan0) ? kCan1 : 0) |
                                       ((a & kCan1) ? kCan0 : 0));
    }
    case CtrlOp::kAnd: {
      const std::uint8_t a = s.mask[static_cast<std::size_t>(pool_kid0_[idx])];
      const std::uint8_t b = s.mask[static_cast<std::size_t>(pool_kid1_[idx])];
      return static_cast<std::uint8_t>(
          (((a & kCan1) && (b & kCan1)) ? kCan1 : 0) |
          (((a & kCan0) || (b & kCan0)) ? kCan0 : 0));
    }
    case CtrlOp::kOr: {
      const std::uint8_t a = s.mask[static_cast<std::size_t>(pool_kid0_[idx])];
      const std::uint8_t b = s.mask[static_cast<std::size_t>(pool_kid1_[idx])];
      return static_cast<std::uint8_t>(
          (((a & kCan1) || (b & kCan1)) ? kCan1 : 0) |
          (((a & kCan0) && (b & kCan0)) ? kCan0 : 0));
    }
    case CtrlOp::kMaj3: {
      int can1 = 0, can0 = 0;
      for (const std::int32_t k :
           {pool_kid0_[idx], pool_kid1_[idx], pool_kid2_[idx]}) {
        const std::uint8_t a = s.mask[static_cast<std::size_t>(k)];
        can1 += (a & kCan1) ? 1 : 0;
        can0 += (a & kCan0) ? 1 : 0;
      }
      return static_cast<std::uint8_t>((can1 >= 2 ? kCan1 : 0) |
                                       (can0 >= 2 ? kCan0 : 0));
    }
  }
  return 0;
}

/// Value-driven upward propagation.  Dirty nodes are visited in increasing
/// pool-index order (topological: kids interned before parents), so when a
/// node is re-evaluated every kid update is already final and each node is
/// evaluated at most once per call.  Propagation stops where the
/// recomputed mask equals the stored one, which is what makes baseline
/// seeding sound: untouched cones keep their fault-free masks because the
/// recomputation would provably reproduce them.  Parents always have a
/// higher index than the node being drained, so flagging them mid-sweep is
/// safe; the hi watermark grows as needed.
void FaultMetricEngine::propagate_masks(Scratch& s) const {
  for (std::size_t i = s.prop_lo; s.prop_count > 0 && i <= s.prop_hi; ++i) {
    if (!s.in_prop[i]) continue;
    s.in_prop[i] = 0;
    --s.prop_count;
    const std::uint8_t m = compute_mask(s, static_cast<std::int32_t>(i));
    ++s.mask_evals;
    if (m == s.mask[i]) continue;
    s.mask[i] = m;
    for (std::int32_t k = parent_start_[i]; k < parent_start_[i + 1]; ++k) {
      const auto p = static_cast<std::size_t>(parent_[static_cast<std::size_t>(k)]);
      if (s.in_prop[p]) continue;
      s.in_prop[p] = 1;
      ++s.prop_count;
      if (p > s.prop_hi) s.prop_hi = p;
    }
  }
  s.prop_lo = pool_size_;
  s.prop_hi = 0;
  s.prop_count = 0;
}

namespace {
inline void prop_push(FaultMetricEngine::Scratch& s, std::int32_t i) {
  const auto idx = static_cast<std::size_t>(i);
  if (s.in_prop[idx]) return;
  s.in_prop[idx] = 1;
  ++s.prop_count;
  if (idx < s.prop_lo) s.prop_lo = idx;
  if (idx > s.prop_hi) s.prop_hi = idx;
}
}  // namespace

void FaultMetricEngine::eval_fault_set(Scratch& s, const Fault* faults,
                                       std::size_t n_faults,
                                       bool seed_baseline,
                                       BaselineRecorder* recorder) const {
  // Restore the arena to its pristine state (previous fault's effects).
  for (const NodeId id : s.node_dead_touched) s.node_dead[id] = 0;
  s.node_dead_touched.clear();
  for (const NodeId id : s.mux_pin_touched) s.mux_pin[id] = -1;
  s.mux_pin_touched.clear();
  for (const std::int32_t k : s.dead_mux_touched)
    s.dead_mux_in[static_cast<std::size_t>(k)] = 0;
  s.dead_mux_touched.clear();
  for (const NodeId id : s.own_touched) {
    s.own_in_bad[id] = 0;
    s.own_out_bad[id] = 0;
  }
  s.own_touched.clear();
  for (const std::int32_t r : s.forced_touched)
    s.forced[static_cast<std::size_t>(r)] = -1;
  s.forced_touched.clear();
  for (const NodeId id : s.extra_touched) s.extra[id] = 0;
  s.extra_touched.clear();
  std::memset(s.writable.data(), 0, s.writable.size() * sizeof(std::uint64_t));
  std::memset(s.accessible.data(), 0,
              s.accessible.size() * sizeof(std::uint64_t));

  // Static fault effects, applied in fault order (later faults override
  // earlier mux pins / forcings exactly like the legacy loop).
  for (std::size_t i = 0; i < n_faults; ++i) {
    const Forcing& f = faults[i].forcing;
    switch (f.point) {
      case Forcing::Point::kSegmentIn:
      case Forcing::Point::kSegmentOut:
        if (!s.node_dead[f.node]) {
          s.node_dead[f.node] = 1;
          s.node_dead_touched.push_back(f.node);
        }
        if (!s.own_in_bad[f.node] && !s.own_out_bad[f.node])
          s.own_touched.push_back(f.node);
        if (f.point == Forcing::Point::kSegmentIn)
          s.own_in_bad[f.node] = 1;
        else
          s.own_out_bad[f.node] = 1;
        break;
      case Forcing::Point::kShadowReplica: {
        const auto it =
            replica_atoms_.find(replica_key(f.node, f.bit, f.index));
        if (it != replica_atoms_.end()) {
          const std::int32_t r = it->second;
          if (s.forced[static_cast<std::size_t>(r)] < 0)
            s.forced_touched.push_back(r);
          s.forced[static_cast<std::size_t>(r)] = f.value ? 1 : 0;
        }
        break;
      }
      case Forcing::Point::kMuxIn: {
        const std::int32_t k =
            static_cast<std::int32_t>(f.node) * 2 + f.index;
        if (!s.dead_mux_in[static_cast<std::size_t>(k)]) {
          s.dead_mux_in[static_cast<std::size_t>(k)] = 1;
          s.dead_mux_touched.push_back(k);
        }
        break;
      }
      case Forcing::Point::kMuxOut:
        if (!s.node_dead[f.node]) {
          s.node_dead[f.node] = 1;
          s.node_dead_touched.push_back(f.node);
        }
        break;
      case Forcing::Point::kMuxAddr:
        if (s.mux_pin[f.node] < 0) s.mux_pin_touched.push_back(f.node);
        s.mux_pin[f.node] = f.value ? 1 : 0;
        break;
      case Forcing::Point::kCtrlNet:
        if (s.forced[static_cast<std::size_t>(f.ctrl)] < 0)
          s.forced_touched.push_back(f.ctrl);
        s.forced[static_cast<std::size_t>(f.ctrl)] = f.value ? 1 : 0;
        break;
      case Forcing::Point::kPrimaryIn:
      case Forcing::Point::kPrimaryOut:
        if (!s.node_dead[f.node]) {
          s.node_dead[f.node] = 1;
          s.node_dead_touched.push_back(f.node);
        }
        break;
    }
  }

  // Taint cones: a data fault taints every segment structurally downstream
  // with the stuck constant (see AccessAnalyzer for the modeling argument).
  for (std::size_t i = 0; i < n_faults; ++i) {
    const Forcing& f = faults[i].forcing;
    const bool starts_at_input = f.point == Forcing::Point::kSegmentIn;
    const bool data_fault = starts_at_input ||
                            f.point == Forcing::Point::kSegmentOut ||
                            f.point == Forcing::Point::kMuxIn ||
                            f.point == Forcing::Point::kMuxOut ||
                            f.point == Forcing::Point::kPrimaryIn;
    if (!data_fault) continue;
    const std::uint8_t bit = f.value ? kCan1 : kCan0;
    std::memset(s.seen.data(), 0, n_nodes_);
    s.dfs_stack.clear();
    s.seen[f.node] = 1;
    s.dfs_stack.push_back(f.node);
    const auto taint = [&](NodeId v) {
      if (!s.extra[v]) s.extra_touched.push_back(v);
      s.extra[v] = static_cast<std::uint8_t>(s.extra[v] | bit);
    };
    if (starts_at_input) taint(f.node);
    while (!s.dfs_stack.empty()) {
      const NodeId v = s.dfs_stack.back();
      s.dfs_stack.pop_back();
      for (std::int32_t k = out_start_[v]; k < out_start_[v + 1]; ++k) {
        const NodeId w =
            edges_[static_cast<std::size_t>(
                       out_edge_[static_cast<std::size_t>(k)])]
                .to;
        if (s.seen[w]) continue;
        s.seen[w] = 1;
        if (is_segment_[w]) taint(w);
        s.dfs_stack.push_back(w);
      }
    }
  }

  // Atoms actually perturbed by taint: only an atom whose reset mask lacks
  // the stuck bit can deviate from the fault-free baseline while its
  // segment is unwritable.  Precomputed once; reused as rebase seeds by
  // every fixpoint iteration below.
  s.taint_seed_atoms.clear();
  for (const NodeId node : s.extra_touched) {
    const std::uint8_t extra = s.extra[node];
    for (std::int32_t k = atom_start_[node]; k < atom_start_[node + 1]; ++k) {
      const std::int32_t a = atom_node_[static_cast<std::size_t>(k)];
      if (!(extra & ~atom_reset_mask_[static_cast<std::size_t>(a)])) continue;
      s.taint_seed_atoms.push_back(a);
    }
  }

  // Iteration-0 masks.  Masks are a pure function of (writable set, forced
  // overrides, taint); both sides start from writable = ∅, so rebasing onto
  // the cold fault-free snapshot and seeding every deviating leaf — forced
  // nodes and taint-perturbed atoms — reproduces the exact cold-start
  // masks while touching only the fault's cone.
  if (seed_baseline) {
    std::memcpy(s.mask.data(), base_mask_[0].data(), pool_size_);
    for (const std::int32_t r : s.forced_touched)
      if (pool_used_[static_cast<std::size_t>(r)]) prop_push(s, r);
    for (const std::int32_t a : s.taint_seed_atoms) prop_push(s, a);
    const std::uint64_t before = s.mask_evals;
    propagate_masks(s);
    s.mask_cold_reused += used_count_ - (s.mask_evals - before);
  } else {
    // Cold start: full bottom-up pass with the fault effects applied.
    for (std::size_t idx = 0; idx < pool_size_; ++idx) {
      if (!pool_used_[idx]) continue;
      s.mask[idx] = compute_mask(s, static_cast<std::int32_t>(idx));
      ++s.mask_evals;
    }
  }

  // Grow-from-∅ least fixpoint over writability, mirroring the legacy
  // iteration structure statement by statement.
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    // The recording run snapshots the state entering every iteration; the
    // snapshot taken when the loop observes no change is the fixpoint.
    if (recorder) {
      recorder->masks->push_back(s.mask);
      recorder->writable->push_back(s.writable);
    }
    ++s.iterations;

    // Edge usability under the current masks.
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      const EngineEdge& edge = edges_[e];
      std::uint8_t routable = 1;
      std::uint8_t clean = 1;
      if (edge.mux_input >= 0) {
        const NodeId m = edge.to;
        if (s.mux_pin[m] >= 0) {
          routable = s.mux_pin[m] == edge.mux_input;
        } else {
          const std::uint8_t mask =
              s.mask[static_cast<std::size_t>(node_addr_[m])];
          const std::uint8_t need = edge.mux_input == 0 ? kCan0 : kCan1;
          routable = (mask & need) != 0;
        }
        // A stuck mux data input corrupts data through this direction but
        // does not prevent routing.
        clean = static_cast<std::uint8_t>(
            routable &&
            !s.dead_mux_in[static_cast<std::size_t>(m) * 2 +
                           static_cast<std::size_t>(edge.mux_input)]);
      }
      s.edge_routable[e] = routable;
      s.edge_clean[e] = clean;
    }

    // Per-segment control conditions.
    for (const NodeId seg : segments_) {
      s.cap_ok[seg] =
          (s.mask[static_cast<std::size_t>(node_cap_[seg])] & kCan0) != 0;
      s.upd_ok[seg] =
          (s.mask[static_cast<std::size_t>(node_upd_[seg])] & kCan0) != 0;
      s.sel_assert[seg] =
          (s.mask[static_cast<std::size_t>(node_sel_[seg])] & kCan1) != 0;
    }
    // Hardened-select direction coupling: with per-successor term metadata
    // the select is assertable iff some direction is routable with a live
    // term (see AccessAnalyzer).
    if (!terms_.empty()) {
      for (const NodeId seg : term_segs_) s.term_alive[seg] = 0;
      for (const TermUse& t : terms_) {
        if (!(s.mask[static_cast<std::size_t>(t.term)] & kCan1)) continue;
        for (std::int32_t k = t.edge_begin; k < t.edge_end; ++k) {
          if (s.edge_routable[static_cast<std::size_t>(
                  term_edge_[static_cast<std::size_t>(k)])]) {
            s.term_alive[t.seg] = 1;
            break;
          }
        }
      }
      for (const NodeId seg : term_segs_) s.sel_assert[seg] = s.term_alive[seg];
    }

    // Forward/backward reachability sweeps in topological order.
    std::memset(s.route_fwd.data(), 0, n_nodes_);
    std::memset(s.clean_fwd.data(), 0, n_nodes_);
    std::memset(s.route_bwd.data(), 0, n_nodes_);
    std::memset(s.clean_bwd.data(), 0, n_nodes_);
    for (const NodeId r : primary_ins_) {
      s.route_fwd[r] = 1;
      s.clean_fwd[r] = !s.node_dead[r];
    }
    for (const NodeId v : topo_) {
      const std::uint8_t rf = s.route_fwd[v];
      const std::uint8_t cf = s.clean_fwd[v];
      if (!rf && !cf) continue;
      const std::uint8_t v_passes = !s.node_dead[v];
      for (std::int32_t k = out_start_[v]; k < out_start_[v + 1]; ++k) {
        const auto e =
            static_cast<std::size_t>(out_edge_[static_cast<std::size_t>(k)]);
        const NodeId w = edges_[e].to;
        if (rf && s.edge_routable[e]) s.route_fwd[w] = 1;
        if (cf && v_passes && s.edge_clean[e]) s.clean_fwd[w] = 1;
      }
    }
    for (const NodeId p : primary_outs_) {
      s.route_bwd[p] = 1;
      s.clean_bwd[p] = !s.node_dead[p];
    }
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const NodeId w = *it;
      const std::uint8_t rb = s.route_bwd[w];
      const std::uint8_t cb = s.clean_bwd[w];
      if (!rb && !cb) continue;
      const std::uint8_t w_passes = is_primary_out_[w] || !s.node_dead[w];
      for (std::int32_t k = in_start_[w]; k < in_start_[w + 1]; ++k) {
        const auto e =
            static_cast<std::size_t>(in_edge_[static_cast<std::size_t>(k)]);
        const NodeId v = edges_[e].from;
        if (rb && s.edge_routable[e]) s.route_bwd[v] = 1;
        if (cb && w_passes && s.edge_clean[e]) s.clean_bwd[v] = 1;
      }
    }

    // Accessibility / writability update.
    bool changed = false;
    s.newly_writable.clear();
    for (const NodeId seg : segments_) {
      const bool write_acc = s.clean_fwd[seg] && s.route_bwd[seg] &&
                             s.sel_assert[seg] && !s.own_in_bad[seg] &&
                             (!has_shadow_[seg] || s.upd_ok[seg]);
      const bool read_acc = s.route_fwd[seg] && s.clean_bwd[seg] &&
                            s.sel_assert[seg] && !s.own_out_bad[seg] &&
                            s.cap_ok[seg];
      if (write_acc && read_acc && !bit_test(s.accessible, seg)) {
        bit_set(s.accessible, seg);
        changed = true;
      }
      if (write_acc && has_shadow_[seg] && !bit_test(s.writable, seg)) {
        bit_set(s.writable, seg);
        changed = true;
        s.newly_writable.push_back(seg);
      }
    }
    if (!changed) break;

    // Prepare next iteration's masks.  A faulty run's writability cascade
    // closely shadows the fault-free one (most faults barely perturb the
    // network), so instead of propagating this fault's newly-writable
    // flips through the huge shared select cones, rebase onto the
    // fault-free snapshot of the *next* iteration and seed only the
    // per-fault deviation: forced nodes, taint-perturbed atoms of
    // segments still unwritable, and atoms of every segment whose
    // writability differs from that snapshot (word-wise XOR scan).  The
    // masks are a pure function of (writable, forced, taint), so seeding
    // every deviating leaf makes the rebase exact; the baseline is fixed
    // per engine, so the result is independent of the worker schedule.
    if (seed_baseline) {
      const std::size_t r = std::min(static_cast<std::size_t>(iter) + 1,
                                     base_mask_.size() - 1);
      std::memcpy(s.mask.data(), base_mask_[r].data(), pool_size_);
      for (const std::int32_t f : s.forced_touched)
        if (pool_used_[static_cast<std::size_t>(f)]) prop_push(s, f);
      for (const std::int32_t a : s.taint_seed_atoms)
        if (!bit_test(s.writable, static_cast<std::size_t>(
                                      atom_seg_[static_cast<std::size_t>(a)])))
          prop_push(s, a);
      const std::vector<std::uint64_t>& bw = base_writable_[r];
      for (std::size_t w = 0; w < s.writable.size(); ++w) {
        std::uint64_t diff = s.writable[w] ^ bw[w];
        while (diff) {
          const std::size_t seg =
              w * 64 + static_cast<std::size_t>(std::countr_zero(diff));
          diff &= diff - 1;
          for (std::int32_t k = atom_start_[seg]; k < atom_start_[seg + 1];
               ++k)
            prop_push(s, atom_node_[static_cast<std::size_t>(k)]);
        }
      }
      const std::uint64_t before = s.mask_evals;
      propagate_masks(s);
      s.mask_cold_reused += used_count_ - (s.mask_evals - before);
    } else {
      // Cold path: propagate the newly-writable flips upward directly.
      for (const NodeId seg : s.newly_writable)
        for (std::int32_t k = atom_start_[seg]; k < atom_start_[seg + 1]; ++k)
          prop_push(s, atom_node_[static_cast<std::size_t>(k)]);
      propagate_masks(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Packed (64-lane) evaluation: one fault class per bit of a uint64_t word.
//
// Every per-fault quantity of the scalar path (node_dead, mux pins, forced
// overrides, taint, masks, reachability, accessibility) becomes a lane
// word, and every combination step is a bitwise formula on those words —
// so lane l's state after iteration i is, by induction, exactly the scalar
// state of fault l after iteration i.  The only semantic deltas are
// harmless: all lanes share the iteration count (a converged lane is a
// fixpoint of the monotone iteration map, so extra iterations leave it
// unchanged — both paths also share the same kMaxIterations bound), and
// unused tail lanes evaluate the fault-free network and are ignored.
// ---------------------------------------------------------------------------
void FaultMetricEngine::init_packed_scratch(Scratch& s) const {
  if (s.packed_ready) return;
  const std::size_t n_slots = segments_.size();
  s.p_node_dead.assign(n_nodes_, 0);
  s.p_mux_pinned.assign(n_nodes_, 0);
  s.p_mux_pin_val.assign(n_nodes_, 0);
  s.p_dead_mux_in.assign(n_nodes_ * 2, 0);
  s.p_own_in_bad.assign(n_slots, 0);
  s.p_own_out_bad.assign(n_slots, 0);
  s.p_forced_mask.assign(pool_size_, 0);
  s.p_forced_val.assign(pool_size_, 0);
  s.p_extra0.assign(n_slots, 0);
  s.p_extra1.assign(n_slots, 0);
  s.p_taint0.assign(n_nodes_, 0);
  s.p_taint1.assign(n_nodes_, 0);
  s.p_mask0.assign(pool_size_, 0);
  s.p_mask1.assign(pool_size_, 0);
  // Non-mux edges are usable in every lane; only mux edge words are
  // rewritten per iteration, so the rest stay all-ones for good.
  s.p_edge_routable.assign(edges_.size(), ~std::uint64_t{0});
  s.p_edge_clean.assign(edges_.size(), ~std::uint64_t{0});
  s.p_route_fwd.assign(n_nodes_, 0);
  s.p_clean_fwd.assign(n_nodes_, 0);
  s.p_route_bwd.assign(n_nodes_, 0);
  s.p_clean_bwd.assign(n_nodes_, 0);
  s.p_sel_assert.assign(n_slots, 0);
  s.p_cap_ok.assign(n_slots, 0);
  s.p_upd_ok.assign(n_slots, 0);
  s.p_gcf.assign(n_slots, 0);
  s.p_grb.assign(n_slots, 0);
  s.p_grf.assign(n_slots, 0);
  s.p_gcb.assign(n_slots, 0);
  s.p_write_acc.assign(n_slots, 0);
  s.p_read_acc.assign(n_slots, 0);
  s.p_accessible.assign(n_slots, 0);
  s.p_writable.assign(n_slots, 0);
  s.packed_ready = true;
}

/// Lane-word transcription of compute_mask (one word eval decides up to 64
/// fault classes).  Per lane: kCan1 lives in m1, kCan0 in m0.
void FaultMetricEngine::compute_mask_packed(const Scratch& s, std::int32_t i,
                                            std::uint64_t& m0,
                                            std::uint64_t& m1) const {
  const auto idx = static_cast<std::size_t>(i);
  m0 = 0;
  m1 = 0;
  switch (static_cast<CtrlOp>(pool_op_[idx])) {
    case CtrlOp::kConst:
    case CtrlOp::kEnable:
    case CtrlOp::kPortSel:
      m0 = (atom_reset_mask_[idx] & kCan0) ? ~std::uint64_t{0} : 0;
      m1 = (atom_reset_mask_[idx] & kCan1) ? ~std::uint64_t{0} : 0;
      break;
    case CtrlOp::kShadowBit: {
      const auto t = static_cast<std::size_t>(atom_slot_[idx]);
      // writable lane -> kCanBoth; unwritable -> reset value plus any
      // taint-latched constant (the extra bits are redundant on writable
      // lanes, so OR-ing them unconditionally is exact).
      const std::uint64_t w = s.p_writable[t];
      m0 = w | ((atom_reset_mask_[idx] & kCan0) ? ~std::uint64_t{0} : 0) |
           s.p_extra0[t];
      m1 = w | ((atom_reset_mask_[idx] & kCan1) ? ~std::uint64_t{0} : 0) |
           s.p_extra1[t];
      break;
    }
    case CtrlOp::kNot: {
      const auto k = static_cast<std::size_t>(pool_kid0_[idx]);
      m0 = s.p_mask1[k];
      m1 = s.p_mask0[k];
      break;
    }
    case CtrlOp::kAnd: {
      const auto a = static_cast<std::size_t>(pool_kid0_[idx]);
      const auto b = static_cast<std::size_t>(pool_kid1_[idx]);
      m1 = s.p_mask1[a] & s.p_mask1[b];
      m0 = s.p_mask0[a] | s.p_mask0[b];
      break;
    }
    case CtrlOp::kOr: {
      const auto a = static_cast<std::size_t>(pool_kid0_[idx]);
      const auto b = static_cast<std::size_t>(pool_kid1_[idx]);
      m1 = s.p_mask1[a] | s.p_mask1[b];
      m0 = s.p_mask0[a] & s.p_mask0[b];
      break;
    }
    case CtrlOp::kMaj3: {
      const auto a = static_cast<std::size_t>(pool_kid0_[idx]);
      const auto b = static_cast<std::size_t>(pool_kid1_[idx]);
      const auto c = static_cast<std::size_t>(pool_kid2_[idx]);
      m1 = (s.p_mask1[a] & s.p_mask1[b]) | (s.p_mask1[a] & s.p_mask1[c]) |
           (s.p_mask1[b] & s.p_mask1[c]);
      m0 = (s.p_mask0[a] & s.p_mask0[b]) | (s.p_mask0[a] & s.p_mask0[c]) |
           (s.p_mask0[b] & s.p_mask0[c]);
      break;
    }
  }
  // Forced lanes override whatever the op computed (the scalar path checks
  // `forced` before the op; masking afterwards is the same function).
  const std::uint64_t fm = s.p_forced_mask[idx];
  if (fm) {
    const std::uint64_t fv = s.p_forced_val[idx];
    m0 = (m0 & ~fm) | (fm & ~fv);
    m1 = (m1 & ~fm) | (fm & fv);
  }
}

/// propagate_masks with lane-word payloads; shares in_prop / the watermark
/// with the scalar drain (both leave it fully cleared).
void FaultMetricEngine::propagate_masks_packed(Scratch& s) const {
  for (std::size_t i = s.prop_lo; s.prop_count > 0 && i <= s.prop_hi; ++i) {
    if (!s.in_prop[i]) continue;
    s.in_prop[i] = 0;
    --s.prop_count;
    std::uint64_t m0, m1;
    compute_mask_packed(s, static_cast<std::int32_t>(i), m0, m1);
    ++s.packed_words;
    ++s.mask_evals;
    if (m0 == s.p_mask0[i] && m1 == s.p_mask1[i]) continue;
    s.p_mask0[i] = m0;
    s.p_mask1[i] = m1;
    for (std::int32_t k = parent_start_[i]; k < parent_start_[i + 1]; ++k) {
      const auto p =
          static_cast<std::size_t>(parent_[static_cast<std::size_t>(k)]);
      if (s.in_prop[p]) continue;
      s.in_prop[p] = 1;
      ++s.prop_count;
      if (p > s.prop_hi) s.prop_hi = p;
    }
  }
  s.prop_lo = pool_size_;
  s.prop_hi = 0;
  s.prop_count = 0;
}

namespace {
/// Expand a byte-mask baseline snapshot into the two lane-word arrays
/// (every lane gets the fault-free value; the seeds patch the deviations).
inline void rebase_packed(FaultMetricEngine::Scratch& s,
                          const std::vector<std::uint8_t>& base,
                          std::size_t pool_size);
}  // namespace

void FaultMetricEngine::eval_fault_batch(Scratch& s, const Fault* faults,
                                         std::size_t n_lanes,
                                         const simd::Ops& ops) const {
  const std::size_t n_slots = segments_.size();

  // Restore the packed arena (previous batch's effects).
  for (const NodeId id : s.p_node_dead_touched) s.p_node_dead[id] = 0;
  s.p_node_dead_touched.clear();
  for (const NodeId id : s.p_mux_touched) {
    s.p_mux_pinned[id] = 0;
    s.p_mux_pin_val[id] = 0;
  }
  s.p_mux_touched.clear();
  for (const std::int32_t k : s.p_dead_mux_touched)
    s.p_dead_mux_in[static_cast<std::size_t>(k)] = 0;
  s.p_dead_mux_touched.clear();
  for (const std::int32_t t : s.p_own_touched) {
    s.p_own_in_bad[static_cast<std::size_t>(t)] = 0;
    s.p_own_out_bad[static_cast<std::size_t>(t)] = 0;
  }
  s.p_own_touched.clear();
  for (const std::int32_t r : s.p_forced_touched) {
    s.p_forced_mask[static_cast<std::size_t>(r)] = 0;
    s.p_forced_val[static_cast<std::size_t>(r)] = 0;
  }
  s.p_forced_touched.clear();
  for (const std::int32_t t : s.p_extra_touched) {
    s.p_extra0[static_cast<std::size_t>(t)] = 0;
    s.p_extra1[static_cast<std::size_t>(t)] = 0;
  }
  s.p_extra_touched.clear();
  std::memset(s.p_accessible.data(), 0, n_slots * sizeof(std::uint64_t));
  std::memset(s.p_writable.data(), 0, n_slots * sizeof(std::uint64_t));

  // Static fault effects, one lane per fault (the scalar later-fault
  // override rule is vacuous with a single fault per lane).
  for (std::size_t l = 0; l < n_lanes; ++l) {
    const Forcing& f = faults[l].forcing;
    const std::uint64_t bit = std::uint64_t{1} << l;
    switch (f.point) {
      case Forcing::Point::kSegmentIn:
      case Forcing::Point::kSegmentOut: {
        if (!s.p_node_dead[f.node]) s.p_node_dead_touched.push_back(f.node);
        s.p_node_dead[f.node] |= bit;
        const std::int32_t slot = seg_slot_[f.node];
        if (slot >= 0) {
          const auto t = static_cast<std::size_t>(slot);
          if (!s.p_own_in_bad[t] && !s.p_own_out_bad[t])
            s.p_own_touched.push_back(slot);
          if (f.point == Forcing::Point::kSegmentIn)
            s.p_own_in_bad[t] |= bit;
          else
            s.p_own_out_bad[t] |= bit;
        }
        break;
      }
      case Forcing::Point::kShadowReplica: {
        const auto it =
            replica_atoms_.find(replica_key(f.node, f.bit, f.index));
        if (it != replica_atoms_.end()) {
          const auto r = static_cast<std::size_t>(it->second);
          if (!s.p_forced_mask[r]) s.p_forced_touched.push_back(it->second);
          s.p_forced_mask[r] |= bit;
          if (f.value) s.p_forced_val[r] |= bit;
        }
        break;
      }
      case Forcing::Point::kMuxIn: {
        const std::size_t k =
            static_cast<std::size_t>(f.node) * 2 +
            static_cast<std::size_t>(f.index);
        if (!s.p_dead_mux_in[k])
          s.p_dead_mux_touched.push_back(static_cast<std::int32_t>(k));
        s.p_dead_mux_in[k] |= bit;
        break;
      }
      case Forcing::Point::kMuxAddr:
        if (!s.p_mux_pinned[f.node]) s.p_mux_touched.push_back(f.node);
        s.p_mux_pinned[f.node] |= bit;
        if (f.value) s.p_mux_pin_val[f.node] |= bit;
        break;
      case Forcing::Point::kCtrlNet: {
        const auto r = static_cast<std::size_t>(f.ctrl);
        if (!s.p_forced_mask[r])
          s.p_forced_touched.push_back(static_cast<std::int32_t>(f.ctrl));
        s.p_forced_mask[r] |= bit;
        if (f.value) s.p_forced_val[r] |= bit;
        break;
      }
      case Forcing::Point::kMuxOut:
      case Forcing::Point::kPrimaryIn:
      case Forcing::Point::kPrimaryOut:
        if (!s.p_node_dead[f.node]) s.p_node_dead_touched.push_back(f.node);
        s.p_node_dead[f.node] |= bit;
        break;
    }
  }

  // Taint cones as one lane-parallel forward sweep.  A data-fault lane is
  // fed into the taint words of its site's successors; visiting nodes in
  // topological order, each node hands its words on to its own successors
  // and is cleared, so the words a node holds when visited are exactly the
  // lanes whose site reaches it over at least one scan edge.  That is the
  // per-lane DFS visited set without the site itself (Rsn::topo_order
  // guarantees a DAG, so no site reaches itself); only a kSegmentIn fault
  // also taints its own segment.  The stuck polarity picks the word.
  const auto taint_slot = [&](std::int32_t slot, std::uint64_t w0,
                              std::uint64_t w1) {
    const auto t = static_cast<std::size_t>(slot);
    if (!s.p_extra0[t] && !s.p_extra1[t]) s.p_extra_touched.push_back(slot);
    s.p_extra0[t] |= w0;
    s.p_extra1[t] |= w1;
  };
  const auto feed_successors = [&](NodeId v, std::uint64_t w0,
                                   std::uint64_t w1) {
    for (std::int32_t k = out_start_[v]; k < out_start_[v + 1]; ++k) {
      const NodeId w = edges_[static_cast<std::size_t>(
                                  out_edge_[static_cast<std::size_t>(k)])]
                           .to;
      s.p_taint0[w] |= w0;
      s.p_taint1[w] |= w1;
    }
  };
  std::size_t sweep_from = topo_.size();
  for (std::size_t l = 0; l < n_lanes; ++l) {
    const Forcing& f = faults[l].forcing;
    const bool starts_at_input = f.point == Forcing::Point::kSegmentIn;
    const bool data_fault = starts_at_input ||
                            f.point == Forcing::Point::kSegmentOut ||
                            f.point == Forcing::Point::kMuxIn ||
                            f.point == Forcing::Point::kMuxOut ||
                            f.point == Forcing::Point::kPrimaryIn;
    if (!data_fault) continue;
    const std::uint64_t bit = std::uint64_t{1} << l;
    const std::uint64_t w0 = f.value ? 0 : bit;
    const std::uint64_t w1 = f.value ? bit : 0;
    if (starts_at_input && seg_slot_[f.node] >= 0)
      taint_slot(seg_slot_[f.node], w0, w1);
    feed_successors(f.node, w0, w1);
    sweep_from = std::min(
        sweep_from, static_cast<std::size_t>(topo_pos_[f.node]) + 1);
  }
  for (std::size_t i = sweep_from; i < topo_.size(); ++i) {
    const NodeId v = topo_[i];
    const std::uint64_t w0 = s.p_taint0[v];
    const std::uint64_t w1 = s.p_taint1[v];
    if (!(w0 | w1)) continue;
    s.p_taint0[v] = 0;
    s.p_taint1[v] = 0;
    if (seg_slot_[v] >= 0) taint_slot(seg_slot_[v], w0, w1);
    feed_successors(v, w0, w1);
  }
  s.sweep_words += topo_.size() - sweep_from;

  // Rebase seeds: used atoms with at least one lane whose taint deviates
  // from the atom's reset value (the packed analogue of taint_seed_atoms).
  s.p_seed_atoms.clear();
  s.p_seed_lanes.clear();
  for (const std::int32_t t : s.p_extra_touched) {
    const auto slot = static_cast<std::size_t>(t);
    const std::uint64_t e0 = s.p_extra0[slot];
    const std::uint64_t e1 = s.p_extra1[slot];
    const auto seg = static_cast<std::size_t>(slot_seg_[slot]);
    for (std::int32_t k = atom_start_[seg]; k < atom_start_[seg + 1]; ++k) {
      const std::int32_t a = atom_node_[static_cast<std::size_t>(k)];
      const std::uint8_t rm = atom_reset_mask_[static_cast<std::size_t>(a)];
      const std::uint64_t dev =
          ((rm & kCan0) ? 0 : e0) | ((rm & kCan1) ? 0 : e1);
      if (!dev) continue;
      s.p_seed_atoms.push_back(a);
      s.p_seed_lanes.push_back(dev);
    }
  }

  // Iteration-0 masks: broadcast the cold fault-free snapshot into every
  // lane and seed the deviating leaves (see the scalar seed_baseline
  // argument; it holds per lane because every op above is bitwise).
  rebase_packed(s, base_mask_[0], pool_size_);
  for (const std::int32_t r : s.p_forced_touched)
    if (pool_used_[static_cast<std::size_t>(r)]) prop_push(s, r);
  for (const std::int32_t a : s.p_seed_atoms) prop_push(s, a);
  std::uint64_t before = s.packed_words;
  propagate_masks_packed(s);
  s.mask_cold_reused += used_count_ - (s.packed_words - before);

  // Grow-from-∅ least fixpoint, all lanes in lock-step.
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    ++s.iterations;

    // Edge usability of the mux edges (every other edge word stays
    // all-ones from init_packed_scratch).
    for (const std::int32_t me : mux_edges_) {
      const auto e = static_cast<std::size_t>(me);
      const EngineEdge& edge = edges_[e];
      const NodeId m = edge.to;
      const auto addr = static_cast<std::size_t>(node_addr_[m]);
      const std::uint64_t pinned = s.p_mux_pinned[m];
      const std::uint64_t want =
          edge.mux_input ? s.p_mux_pin_val[m] : ~s.p_mux_pin_val[m];
      const std::uint64_t maskw =
          edge.mux_input ? s.p_mask1[addr] : s.p_mask0[addr];
      const std::uint64_t routable = (pinned & want) | (~pinned & maskw);
      s.p_edge_routable[e] = routable;
      s.p_edge_clean[e] =
          routable &
          ~s.p_dead_mux_in[static_cast<std::size_t>(m) * 2 +
                           static_cast<std::size_t>(edge.mux_input)];
    }

    // Per-slot control conditions: kCan0 of the capture/update roots,
    // kCan1 of the select root, then the hardened-select term overlay.
    ops.gather(s.p_cap_ok.data(), s.p_mask0.data(), slot_cap_.data(),
               n_slots);
    ops.gather(s.p_upd_ok.data(), s.p_mask0.data(), slot_upd_.data(),
               n_slots);
    ops.gather(s.p_sel_assert.data(), s.p_mask1.data(), slot_sel_.data(),
               n_slots);
    if (!terms_.empty()) {
      for (const NodeId seg : term_segs_)
        s.p_sel_assert[static_cast<std::size_t>(seg_slot_[seg])] = 0;
      for (const TermUse& t : terms_) {
        const std::uint64_t lanes =
            s.p_mask1[static_cast<std::size_t>(t.term)];
        if (!lanes) continue;
        std::uint64_t routable = 0;
        for (std::int32_t k = t.edge_begin; k < t.edge_end; ++k)
          routable |= s.p_edge_routable[static_cast<std::size_t>(
              term_edge_[static_cast<std::size_t>(k)])];
        s.p_sel_assert[static_cast<std::size_t>(seg_slot_[t.seg])] |=
            lanes & routable;
      }
    }

    // Forward/backward reachability in topological order.  Each node pulls
    // from its already-final predecessors (successors, backward) and
    // overwrites its words, so nothing needs clearing between iterations.
    // Same values as pushing along the edges: a node's word is its port
    // seed OR'ed with every neighbour's contribution.
    for (const NodeId v : topo_) {
      std::uint64_t rf = 0, cf = 0;
      if (is_primary_in_[v]) {
        rf = ~std::uint64_t{0};
        cf = ~s.p_node_dead[v];
      }
      for (std::int32_t k = in_start_[v]; k < in_start_[v + 1]; ++k) {
        const auto e =
            static_cast<std::size_t>(in_edge_[static_cast<std::size_t>(k)]);
        const NodeId u = edges_[e].from;
        rf |= s.p_route_fwd[u] & s.p_edge_routable[e];
        cf |= s.p_clean_fwd[u] & ~s.p_node_dead[u] & s.p_edge_clean[e];
      }
      s.p_route_fwd[v] = rf;
      s.p_clean_fwd[v] = cf;
    }
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const NodeId v = *it;
      std::uint64_t rb = 0, cb = 0;
      if (is_primary_out_[v]) {
        rb = ~std::uint64_t{0};
        cb = ~s.p_node_dead[v];
      }
      for (std::int32_t k = out_start_[v]; k < out_start_[v + 1]; ++k) {
        const auto e =
            static_cast<std::size_t>(out_edge_[static_cast<std::size_t>(k)]);
        const NodeId w = edges_[e].to;
        const std::uint64_t w_passes =
            is_primary_out_[w] ? ~std::uint64_t{0} : ~s.p_node_dead[w];
        rb |= s.p_route_bwd[w] & s.p_edge_routable[e];
        cb |= s.p_clean_bwd[w] & w_passes & s.p_edge_clean[e];
      }
      s.p_route_bwd[v] = rb;
      s.p_clean_bwd[v] = cb;
    }

    // Accessibility / writability update over the dense slot arrays — the
    // hot lane-word passes, dispatched to the active SIMD kernel.
    ops.gather(s.p_gcf.data(), s.p_clean_fwd.data(), slot_seg_.data(),
               n_slots);
    ops.gather(s.p_grb.data(), s.p_route_bwd.data(), slot_seg_.data(),
               n_slots);
    ops.gather(s.p_grf.data(), s.p_route_fwd.data(), slot_seg_.data(),
               n_slots);
    ops.gather(s.p_gcb.data(), s.p_clean_bwd.data(), slot_seg_.data(),
               n_slots);
    ops.write_acc(s.p_write_acc.data(), s.p_gcf.data(), s.p_grb.data(),
                  s.p_sel_assert.data(), s.p_own_in_bad.data(),
                  s.p_upd_ok.data(), slot_shadow_.data(), n_slots);
    ops.read_acc(s.p_read_acc.data(), s.p_grf.data(), s.p_gcb.data(),
                 s.p_sel_assert.data(), s.p_own_out_bad.data(),
                 s.p_cap_ok.data(), n_slots);
    std::uint64_t fresh =
        ops.or_and2_new(s.p_accessible.data(), s.p_write_acc.data(),
                        s.p_read_acc.data(), n_slots);
    fresh |= ops.or_and2_new(s.p_writable.data(), s.p_write_acc.data(),
                             slot_shadow_.data(), n_slots);
    s.sweep_words += 2 * topo_.size() + n_slots;
    if (!fresh) break;

    // Rebase onto the next fault-free snapshot and seed the per-lane
    // deviation (the scalar seed_baseline rebase, per lane): forced nodes,
    // taint-perturbed atoms with a still-unwritable deviating lane, and
    // atoms of every slot whose writability word differs from the
    // broadcast baseline bit.
    const std::size_t r = std::min(static_cast<std::size_t>(iter) + 1,
                                   base_mask_.size() - 1);
    rebase_packed(s, base_mask_[r], pool_size_);
    for (const std::int32_t f : s.p_forced_touched)
      if (pool_used_[static_cast<std::size_t>(f)]) prop_push(s, f);
    for (std::size_t i = 0; i < s.p_seed_atoms.size(); ++i) {
      const std::int32_t a = s.p_seed_atoms[i];
      const auto slot =
          static_cast<std::size_t>(atom_slot_[static_cast<std::size_t>(a)]);
      if (s.p_seed_lanes[i] & ~s.p_writable[slot]) prop_push(s, a);
    }
    const std::vector<std::uint64_t>& bw = base_writable_[r];
    for (std::size_t t = 0; t < n_slots; ++t) {
      const auto seg = static_cast<std::size_t>(slot_seg_[t]);
      const std::uint64_t basew = bit_test(bw, seg) ? ~std::uint64_t{0} : 0;
      if (s.p_writable[t] == basew) continue;
      for (std::int32_t k = atom_start_[seg]; k < atom_start_[seg + 1]; ++k)
        prop_push(s, atom_node_[static_cast<std::size_t>(k)]);
    }
    before = s.packed_words;
    propagate_masks_packed(s);
    s.mask_cold_reused += used_count_ - (s.packed_words - before);
  }
}

namespace {
inline void rebase_packed(FaultMetricEngine::Scratch& s,
                          const std::vector<std::uint8_t>& base,
                          std::size_t pool_size) {
  for (std::size_t i = 0; i < pool_size; ++i) {
    const std::uint8_t m = base[i];
    // 0 -> all-zero word, 1 -> all-one word (kCan0 == 1, kCan1 == 2).
    s.p_mask0[i] = -static_cast<std::uint64_t>(m & 1u);
    s.p_mask1[i] = -static_cast<std::uint64_t>((m >> 1) & 1u);
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------
std::vector<bool> FaultMetricEngine::accessible_under_set(
    const std::vector<Fault>& faults, Scratch& scratch) const {
  eval_fault_set(scratch, faults.data(), faults.size(), /*seed_baseline=*/true);
  std::vector<bool> acc(n_nodes_, false);
  for (std::size_t id = 0; id < n_nodes_; ++id)
    if (bit_test(scratch.accessible, id)) acc[id] = true;
  return acc;
}

std::vector<bool> FaultMetricEngine::accessible_under_set(
    const std::vector<Fault>& faults) const {
  ScratchPtr s = make_scratch();
  return accessible_under_set(faults, *s);
}

std::vector<bool> FaultMetricEngine::accessible_fault_free() const {
  return accessible_under_set({});
}

std::vector<std::vector<bool>> FaultMetricEngine::accessible_under_each(
    const std::vector<Fault>& faults, Scratch& scratch) const {
  FTRSN_CHECK_MSG(faults.size() <= 64, "one packed batch holds 64 faults");
  init_packed_scratch(scratch);
  eval_fault_batch(scratch, faults.data(), faults.size(), simd::active_ops());
  std::vector<std::vector<bool>> acc(faults.size(),
                                     std::vector<bool>(n_nodes_, false));
  for (std::size_t t = 0; t < segments_.size(); ++t)
    for (std::size_t l = 0; l < faults.size(); ++l)
      if ((scratch.p_accessible[t] >> l) & 1) acc[l][segments_[t]] = true;
  return acc;
}

FaultToleranceReport FaultMetricEngine::evaluate(
    const MetricEngineOptions& options) const {
  return evaluate_faults(enumerate_faults(*rsn_), options);
}

FaultToleranceReport FaultMetricEngine::evaluate_faults(
    const std::vector<Fault>& faults,
    const MetricEngineOptions& options) const {
  OBS_SPAN("metric.evaluate");
  const auto t0 = std::chrono::steady_clock::now();
  const Rsn& rsn = *rsn_;

  FaultToleranceReport report;
  std::vector<NodeId> counted_ids;
  for (const NodeId seg : segments_) {
    if (!metric_counts_role(rsn.node(seg).role, options.metric)) continue;
    counted_ids.push_back(seg);
    ++report.counted_segments;
    report.counted_bits += node_len_[seg];
  }
  FTRSN_CHECK_MSG(report.counted_segments > 0, "no segments to count");

  // Fault-equivalence collapse: class id per fault, representative = first
  // occurrence (lowest fault index), matching the legacy evaluate-first
  // ordering bit for bit.
  std::vector<std::int32_t> class_of(faults.size());
  std::vector<std::int32_t> rep;
  rep.reserve(faults.size());
  if (options.collapse_equivalent) {
    std::unordered_map<SiteKey, std::int32_t, SiteKeyHash> ids;
    ids.reserve(faults.size() * 2);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const auto [it, inserted] = ids.try_emplace(
          site_key(faults[i].forcing), static_cast<std::int32_t>(rep.size()));
      if (inserted) rep.push_back(static_cast<std::int32_t>(i));
      class_of[i] = it->second;
    }
  } else {
    rep.resize(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      rep[i] = static_cast<std::int32_t>(i);
      class_of[i] = static_cast<std::int32_t>(i);
    }
  }

  // Evaluate one representative per class, sharded across the pool.
  // Results land in per-class slots; nothing downstream depends on the
  // worker schedule.
  struct ClassResult {
    long long segs = 0, bits = 0;
  };
  std::vector<ClassResult> results(rep.size());
  std::optional<ThreadPool> own_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    own_pool.emplace(options.threads, "metric");
    pool = &*own_pool;
  }
  const auto num_workers = static_cast<std::size_t>(pool->num_threads());
  while (scratch_cache_.size() < num_workers)
    scratch_cache_.push_back(make_scratch());
  for (std::size_t w = 0; w < num_workers; ++w) {
    Scratch& s = *scratch_cache_[w];
    s.iterations = 0;
    s.mask_evals = 0;
    s.mask_cold_reused = 0;
    s.packed_batches = 0;
    s.packed_lanes = 0;
    s.packed_words = 0;
    s.sweep_words = 0;
  }

  // Chunk auto-tune: aim for ~16 chunks per worker so uneven fixpoint
  // depths still average out, but cap the chunk count on big fault lists —
  // every claim is a fetch_add on one shared cache line, and the old fixed
  // chunk of 8 cost p93791 ~11k claim round-trips per sweep.  In packed
  // mode the schedulable unit is a 64-class block, not a class.
  const std::size_t n_units =
      options.packed ? (rep.size() + 63) / 64 : rep.size();
  std::size_t chunk = options.chunk;
  if (chunk == 0)
    chunk = std::clamp<std::size_t>(n_units / (num_workers * 16), 1, 128);

  const simd::Ops* simd_ops = options.packed ? &simd::active_ops() : nullptr;
  if (options.packed) {
    // Packed sweep: 64 class representatives per batch, one lane each.
    // Results still land in per-class slots, so the serial fold below is
    // shared with the scalar path and stays bit-identical at any thread
    // count and any lane occupancy.
    OBS_SPAN("metric.packed_sweep");
    std::vector<std::int32_t> counted_slots;
    counted_slots.reserve(counted_ids.size());
    for (const NodeId id : counted_ids)
      counted_slots.push_back(seg_slot_[id]);
    // Levelized lane assignment: batch class representatives whose fault
    // sites are topologically close, so the 64 lanes of one word share
    // effect cones and converge at similar fixpoint depths — a distant
    // straggler lane would drag every early-converged lane through extra
    // rebase + re-derivation iterations.  This only permutes which class
    // rides which lane; results still land in per-class slots, so the
    // serial fold (and every report bit) is unaffected.
    std::vector<std::int32_t> order(rep.size());
    for (std::size_t c = 0; c < order.size(); ++c)
      order[c] = static_cast<std::int32_t>(c);
    const auto site_pos = [&](std::int32_t c) {
      const Forcing& f = faults[static_cast<std::size_t>(rep[c])].forcing;
      return f.point == Forcing::Point::kCtrlNet
                 ? static_cast<std::int32_t>(topo_.size()) + f.ctrl
                 : topo_pos_[static_cast<std::size_t>(f.node)];
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       return site_pos(a) < site_pos(b);
                     });
    pool->parallel_for(
        n_units, chunk,
        [&](int worker, std::size_t begin, std::size_t end) {
          Scratch& s = *scratch_cache_[static_cast<std::size_t>(worker)];
          init_packed_scratch(s);
          std::array<Fault, 64> canon;
          for (std::size_t b = begin; b < end; ++b) {
            const std::size_t lo = b * 64;
            const std::size_t lanes = std::min<std::size_t>(64, rep.size() - lo);
            for (std::size_t l = 0; l < lanes; ++l) {
              // Same stuck-at-0 canonicalization for polarity-invariant
              // sites as the scalar path (fixed convention).
              canon[l] =
                  faults[static_cast<std::size_t>(rep[order[lo + l]])];
              if (fault_polarity_invariant(canon[l].forcing.point))
                canon[l].forcing.value = false;
            }
            {
              // Always-on latency histogram: one 64-lane fixpoint batch.
              static obs::Histogram batch_hist("metric.packed_batch_us");
              obs::ScopedLatency timer(batch_hist);
              eval_fault_batch(s, canon.data(), lanes, *simd_ops);
            }
            ++s.packed_batches;
            s.packed_lanes += lanes;
            // One pass over the counted slots for all lanes: tally each
            // lane's misses (zero bits of the accessible word) and subtract
            // them from the counted totals.
            const std::uint64_t live =
                lanes == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << lanes) - 1;
            std::array<long long, 64> miss_segs{}, miss_bits{};
            for (std::size_t t = 0; t < counted_slots.size(); ++t) {
              std::uint64_t miss =
                  ~s.p_accessible[static_cast<std::size_t>(counted_slots[t])] &
                  live;
              const long long len = node_len_[counted_ids[t]];
              while (miss) {
                const auto l = static_cast<std::size_t>(std::countr_zero(miss));
                miss &= miss - 1;
                ++miss_segs[l];
                miss_bits[l] += len;
              }
            }
            for (std::size_t l = 0; l < lanes; ++l)
              results[static_cast<std::size_t>(order[lo + l])] = {
                  static_cast<long long>(report.counted_segments) -
                      miss_segs[l],
                  report.counted_bits - miss_bits[l]};
          }
        });
  } else {
    pool->parallel_for(
        rep.size(), chunk,
        [&](int worker, std::size_t begin, std::size_t end) {
          Scratch& s = *scratch_cache_[static_cast<std::size_t>(worker)];
          for (std::size_t c = begin; c < end; ++c) {
            // Polarity-invariant sites are assessed under the stuck-at-0
            // polarity (fixed convention, see fault_polarity_invariant), so
            // the result is independent of which twin heads the class.
            Fault canon = faults[static_cast<std::size_t>(rep[c])];
            if (fault_polarity_invariant(canon.forcing.point))
              canon.forcing.value = false;
            {
              // Always-on latency histogram: one scalar class fixpoint.
              static obs::Histogram class_hist("metric.class_eval_us");
              obs::ScopedLatency timer(class_hist);
              eval_fault_set(s, &canon, 1, options.seed_baseline);
            }
            long long segs = 0, bits = 0;
            for (const NodeId id : counted_ids) {
              if (!bit_test(s.accessible, id)) continue;
              ++segs;
              bits += node_len_[id];
            }
            results[c] = {segs, bits};
          }
        });
  }

  // Serial fold in fault-index order: every double operation happens in
  // the same sequence as the legacy loop, so aggregates are bit-identical
  // at any thread count.
  report.num_faults = faults.size();
  double seg_sum = 0.0, bit_sum = 0.0;
  report.seg_worst = 1.0;
  report.bit_worst = 1.0;
  report.seg_fraction.reserve(faults.size());
  report.bit_fraction.reserve(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ClassResult& r = results[static_cast<std::size_t>(class_of[i])];
    const double seg_frac = static_cast<double>(r.segs) /
                            static_cast<double>(report.counted_segments);
    const double bit_frac = static_cast<double>(r.bits) /
                            static_cast<double>(report.counted_bits);
    report.seg_fraction.push_back(seg_frac);
    report.bit_fraction.push_back(bit_frac);
    seg_sum += seg_frac;
    bit_sum += bit_frac;
    if (seg_frac < report.seg_worst ||
        (seg_frac == report.seg_worst && bit_frac < report.bit_worst)) {
      report.worst_fault_index = i;
    }
    report.seg_worst = std::min(report.seg_worst, seg_frac);
    report.bit_worst = std::min(report.bit_worst, bit_frac);
  }
  report.seg_avg = seg_sum / static_cast<double>(faults.size());
  report.bit_avg = bit_sum / static_cast<double>(faults.size());
  if (!options.metric.keep_distribution) {
    report.seg_fraction.clear();
    report.bit_fraction.clear();
  }

  stats_ = MetricEngineStats{};
  stats_.faults = faults.size();
  stats_.classes = rep.size();
  stats_.threads = pool->num_threads();
  stats_.chunk = chunk;
  std::uint64_t lanes_total = 0;
  for (std::size_t w = 0; w < num_workers; ++w) {
    stats_.sweep_words += scratch_cache_[w]->sweep_words;
    stats_.fixpoint_iterations += scratch_cache_[w]->iterations;
    stats_.mask_evals += scratch_cache_[w]->mask_evals;
    stats_.mask_cold_reused += scratch_cache_[w]->mask_cold_reused;
    stats_.packed_batches += scratch_cache_[w]->packed_batches;
    stats_.packed_words += scratch_cache_[w]->packed_words;
    lanes_total += scratch_cache_[w]->packed_lanes;
  }
  if (stats_.packed_batches > 0)
    stats_.lane_utilization =
        static_cast<double>(lanes_total) /
        (64.0 * static_cast<double>(stats_.packed_batches));
  stats_.simd_kernel = simd_ops ? simd_ops->name : "";
  stats_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  obs::count("metric.faults", stats_.faults);
  obs::count("metric.classes", stats_.classes);
  obs::count("metric.fixpoint_iterations", stats_.fixpoint_iterations);
  obs::count("metric.mask_evals", stats_.mask_evals);
  obs::count("metric.mask_cold_reused", stats_.mask_cold_reused);
  if (stats_.packed_batches > 0) {
    obs::count("metric.packed_batches", stats_.packed_batches);
    obs::count("metric.packed_words", stats_.packed_words);
    obs::count("metric.sweep_words", stats_.sweep_words);
    obs::gauge_set("metric.lane_utilization", stats_.lane_utilization);
  }
  return report;
}

}  // namespace ftrsn
