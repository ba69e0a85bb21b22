#include "lint/fix.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "fault/faults.hpp"
#include "fault/metric_engine.hpp"
#include "lint/cone_oracle.hpp"
#include "obs/obs.hpp"
#include "util/common.hpp"

namespace ftrsn::lint {

namespace {

// ---------------------------------------------------------------------------
// Workspace: a mutable copy of the network under repair.  Within one fix
// pass node ids and select-term indices are stable — removal only marks the
// `removed` / `term_removed` masks and rewires mutate fields in place, so
// the pass's diagnostics keep addressing the right nodes.  Between passes
// compact() renumbers into a fresh Rsn and composes the provenance maps.

struct Workspace {
  Rsn rsn;
  std::vector<char> removed;        ///< per node
  std::vector<char> term_removed;   ///< per select term
  std::vector<NodeId> to_orig;      ///< workspace id -> original id
  std::vector<std::size_t> term_to_orig;
  std::vector<CtrlRef> ctrl_to_orig;  ///< pool ref -> original ref

  bool present(NodeId id) const {
    return id != kInvalidNode && id < rsn.num_nodes() && removed[id] == 0;
  }
};

Workspace make_workspace(const Rsn& input) {
  Workspace ws;
  ws.rsn = input;
  ws.removed.assign(input.num_nodes(), 0);
  ws.term_removed.assign(input.select_terms().size(), 0);
  ws.to_orig.resize(input.num_nodes());
  std::iota(ws.to_orig.begin(), ws.to_orig.end(), NodeId{0});
  ws.term_to_orig.resize(input.select_terms().size());
  std::iota(ws.term_to_orig.begin(), ws.term_to_orig.end(), std::size_t{0});
  ws.ctrl_to_orig.resize(input.ctrl().size());
  std::iota(ws.ctrl_to_orig.begin(), ws.ctrl_to_orig.end(), CtrlRef{0});
  return ws;
}

/// Calls `fn(consumer, input)` for every present node whose scan input
/// references `target`; input is -1 for scan_in, 0/1 for mux data inputs.
template <typename Fn>
void for_each_consumer(const Workspace& ws, NodeId target, const Fn& fn) {
  for (NodeId id = 0; id < ws.rsn.num_nodes(); ++id) {
    if (!ws.present(id)) continue;
    const RsnNode& n = ws.rsn.node(id);
    if (n.kind == NodeKind::kSegment || n.kind == NodeKind::kPrimaryOut) {
      if (n.scan_in == target) fn(id, -1);
    } else if (n.is_mux()) {
      if (n.mux_in[0] == target) fn(id, 0);
      if (n.mux_in[1] == target) fn(id, 1);
    }
  }
}

bool has_present_consumer(const Workspace& ws, NodeId target) {
  bool found = false;
  for_each_consumer(ws, target, [&](NodeId, int) { found = true; });
  return found;
}

std::size_t count_present(const Workspace& ws, const std::vector<NodeId>& ids) {
  std::size_t n = 0;
  for (const NodeId id : ids)
    if (ws.present(id)) ++n;
  return n;
}

/// True if any non-removed select term references `node` as its successor
/// direction (bypassing such a mux would silently invalidate hardened-
/// select metadata, so those muxes are left to the human).
bool term_references(const Workspace& ws, NodeId node) {
  const auto& terms = ws.rsn.select_terms();
  for (std::size_t t = 0; t < terms.size(); ++t)
    if (ws.term_removed[t] == 0 &&
        (terms[t].succ == node || terms[t].seg == node))
      return true;
  return false;
}

// ---------------------------------------------------------------------------
// Verification: scan-path guard maps.
//
// For a scan element's input we resolve the chain of muxes in front of it
// into a map {source -> guard}: every non-mux node that can drive the
// element, guarded by the conjunction/disjunction of mux-address conditions
// under which it is forwarded.  The guards are built in a private
// verification pool `vp` (translated from the workspace pool), so guards
// produced from the pre- and post-rewrite networks are directly comparable:
// hash-consing makes syntactic equality a ref comparison, and the residual
// pairs are decided exactly by a ConeOracle query.

constexpr std::uint64_t kSrcDangling = ~std::uint64_t{0};

std::uint64_t cycle_src_key(NodeId id) {
  return (std::uint64_t{1} << 40) | static_cast<std::uint64_t>(id);
}

using GuardMap = std::map<std::uint64_t, CtrlRef>;

/// Translates workspace-pool expressions into the verification pool.  The
/// memo is shared between the pre- and post-rewrite resolutions (the two
/// workspaces share identical pool content within a pass).
class CtrlTranslator {
 public:
  CtrlTranslator(const CtrlPool& src, CtrlPool& dst) : src_(src), dst_(dst) {}

  CtrlRef xlat(CtrlRef r) {
    if (r < 0 || static_cast<std::size_t>(r) >= src_.size())
      return dst_.port_select_input(kUnknownAtom);  // broken ref: opaque atom
    const auto it = memo_.find(r);
    if (it != memo_.end()) return it->second;
    const CtrlNode& n = src_.node(r);
    CtrlRef out = kCtrlFalse;
    switch (n.op) {
      case CtrlOp::kConst: out = dst_.constant(n.bit != 0); break;
      case CtrlOp::kEnable: out = dst_.enable_input(); break;
      case CtrlOp::kPortSel: out = dst_.port_select_input(n.bit); break;
      case CtrlOp::kShadowBit:
        out = dst_.shadow_bit(n.seg, n.bit, n.replica);
        break;
      case CtrlOp::kNot: out = dst_.mk_not(xlat(n.kid[0]), n.bit); break;
      case CtrlOp::kAnd:
        out = dst_.mk_and(xlat(n.kid[0]), xlat(n.kid[1]), n.bit);
        break;
      case CtrlOp::kOr:
        out = dst_.mk_or(xlat(n.kid[0]), xlat(n.kid[1]), n.bit);
        break;
      case CtrlOp::kMaj3:
        out = dst_.mk_maj3(xlat(n.kid[0]), xlat(n.kid[1]), xlat(n.kid[2]),
                           n.bit);
        break;
    }
    memo_.emplace(r, out);
    return out;
  }

  const std::map<CtrlRef, CtrlRef>& memo() const { return memo_; }

 private:
  static constexpr std::uint16_t kUnknownAtom = 0xFFFE;
  const CtrlPool& src_;
  CtrlPool& dst_;
  std::map<CtrlRef, CtrlRef> memo_;
};

/// Light boolean construction with constant folding, so that trivially
/// equal guards compare equal by ref and never reach the solver.
CtrlRef mk_and2(CtrlPool& vp, CtrlRef a, CtrlRef b) {
  if (a == kCtrlTrue) return b;
  if (b == kCtrlTrue) return a;
  if (a == kCtrlFalse || b == kCtrlFalse) return kCtrlFalse;
  return vp.mk_and(a, b);
}
CtrlRef mk_or2(CtrlPool& vp, CtrlRef a, CtrlRef b) {
  if (a == kCtrlFalse) return b;
  if (b == kCtrlFalse) return a;
  if (a == kCtrlTrue || b == kCtrlTrue) return kCtrlTrue;
  return vp.mk_or(a, b);
}
CtrlRef mk_not2(CtrlPool& vp, CtrlRef a) {
  if (a == kCtrlTrue) return kCtrlFalse;
  if (a == kCtrlFalse) return kCtrlTrue;
  return vp.mk_not(a);
}

class PathResolver {
 public:
  PathResolver(const Workspace& ws, CtrlPool& vp, CtrlTranslator& xlat)
      : ws_(ws), vp_(vp), xlat_(xlat), gray_(ws.rsn.num_nodes(), 0) {}

  GuardMap resolve(NodeId driver) {
    bool tainted = false;
    return resolve_rec(driver, &tainted);
  }

 private:
  void merge_into(GuardMap& out, const GuardMap& m, CtrlRef cond) {
    for (const auto& [key, guard] : m) {
      const CtrlRef g = mk_and2(vp_, guard, cond);
      auto [it, fresh] = out.try_emplace(key, g);
      if (!fresh) it->second = mk_or2(vp_, it->second, g);
    }
  }

  GuardMap resolve_rec(NodeId d, bool* tainted) {
    if (!ws_.present(d)) return {{kSrcDangling, kCtrlTrue}};
    const RsnNode& n = ws_.rsn.node(d);
    if (!n.is_mux()) return {{static_cast<std::uint64_t>(d), kCtrlTrue}};
    if (gray_[d] != 0) {
      // Scan cycle: the mux stands in as a pseudo-source for whatever
      // comes around the loop; results touching it are not memoized.
      *tainted = true;
      return {{cycle_src_key(d), kCtrlTrue}};
    }
    const auto it = memo_.find(d);
    if (it != memo_.end()) return it->second;
    gray_[d] = 1;
    bool t = false;
    const CtrlRef addr = xlat_.xlat(n.addr);
    const GuardMap m0 = resolve_rec(n.mux_in[0], &t);
    const GuardMap m1 = resolve_rec(n.mux_in[1], &t);
    gray_[d] = 0;
    GuardMap out;
    merge_into(out, m0, mk_not2(vp_, addr));
    merge_into(out, m1, addr);
    if (t)
      *tainted = true;
    else
      memo_.emplace(d, out);
    return out;
  }

  const Workspace& ws_;
  CtrlPool& vp_;
  CtrlTranslator& xlat_;
  std::vector<char> gray_;
  std::map<NodeId, GuardMap> memo_;
};

/// The full pre/post equivalence check for one candidate rewrite.  Returns
/// an empty string on success, a reason on rejection.
std::string verify_rewrite(const Workspace& before, const Workspace& after) {
  const Rsn& rb = before.rsn;
  const Rsn& ra = after.rsn;
  if (ra.num_nodes() != rb.num_nodes()) return "node table size changed";

  // 1. Structural frame: removal is monotone and survivors keep every
  //    field except their scan inputs.  The fix vocabulary never edits
  //    control expressions, so expression refs must be identical (a
  //    stronger requirement than equivalence, checked for exactly that
  //    reason: any drift here means a broken rewrite primitive).
  for (NodeId id = 0; id < ra.num_nodes(); ++id) {
    if (after.removed[id] != 0) continue;
    if (before.removed[id] != 0) return "rewrite resurrected a removed node";
    const RsnNode& a = ra.node(id);
    const RsnNode& b = rb.node(id);
    if (a.kind != b.kind || a.name != b.name || a.length != b.length ||
        a.has_shadow != b.has_shadow ||
        a.shadow_replicas != b.shadow_replicas ||
        a.reset_shadow != b.reset_shadow || a.role != b.role)
      return strprintf("scalar fields of '%s' changed", b.name.c_str());
    if (a.select != b.select || a.cap_dis != b.cap_dis ||
        a.up_dis != b.up_dis || a.addr != b.addr)
      return strprintf("control expressions of '%s' changed", b.name.c_str());
  }

  // 2. Select terms: surviving terms are untouched and reference surviving
  //    nodes; a term may only disappear together with its segment or its
  //    successor direction.
  const auto& terms = ra.select_terms();
  for (std::size_t t = 0; t < terms.size(); ++t) {
    if (after.term_removed[t] != 0) {
      if (before.term_removed[t] != 0) continue;
      if (after.present(terms[t].seg) && after.present(terms[t].succ))
        return strprintf("select term %zu dropped but both ends survive", t);
      continue;
    }
    if (before.term_removed[t] != 0) return "rewrite resurrected a term";
    if (!after.present(terms[t].seg) || !after.present(terms[t].succ))
      return strprintf("surviving select term %zu references a removed node",
                       t);
  }

  // 3. Shadow closure: no surviving control cone may read a shadow bit of
  //    a removed segment.
  const CtrlPool& pool = rb.ctrl();
  const auto cone_reads_removed = [&](CtrlRef r) -> NodeId {
    if (r < 0 || static_cast<std::size_t>(r) >= pool.size())
      return kInvalidNode;
    for (const CtrlRef q : cone_of(pool, r)) {
      const CtrlNode& n = pool.node(q);
      if (n.op == CtrlOp::kShadowBit && n.seg != kInvalidNode &&
          n.seg < ra.num_nodes() && after.removed[n.seg] != 0)
        return n.seg;
    }
    return kInvalidNode;
  };
  for (NodeId id = 0; id < ra.num_nodes(); ++id) {
    if (after.removed[id] != 0) continue;
    const RsnNode& n = ra.node(id);
    NodeId bad = kInvalidNode;
    if (n.is_segment()) {
      bad = cone_reads_removed(n.select);
      if (bad == kInvalidNode) bad = cone_reads_removed(n.cap_dis);
      if (bad == kInvalidNode) bad = cone_reads_removed(n.up_dis);
    } else if (n.is_mux()) {
      bad = cone_reads_removed(n.addr);
    }
    if (bad != kInvalidNode)
      return strprintf("control of '%s' reads shadow of removed '%s'",
                       n.name.c_str(), rb.node(bad).name.c_str());
  }
  for (std::size_t t = 0; t < terms.size(); ++t) {
    if (after.term_removed[t] != 0) continue;
    const NodeId bad = cone_reads_removed(terms[t].term);
    if (bad != kInvalidNode)
      return strprintf("select term %zu reads shadow of removed '%s'", t,
                       rb.node(bad).name.c_str());
  }

  // 4. Data-path guard maps: for every surviving segment / primary-out,
  //    the set of possible scan-in sources and the address condition
  //    guarding each source must be equivalent.  Syntactically identical
  //    maps (the common case away from the rewrite site) short-circuit;
  //    the rest goes to the oracle.
  CtrlPool vp;
  CtrlTranslator xlat(pool, vp);
  PathResolver res_before(before, vp, xlat);
  PathResolver res_after(after, vp, xlat);
  struct SatCheck {
    CtrlRef diff;
    std::string what;
  };
  std::vector<SatCheck> checks;
  for (NodeId id = 0; id < ra.num_nodes(); ++id) {
    if (after.removed[id] != 0) continue;
    const RsnNode& n = ra.node(id);
    if (n.kind != NodeKind::kSegment && n.kind != NodeKind::kPrimaryOut)
      continue;
    const GuardMap gb = res_before.resolve(rb.node(id).scan_in);
    const GuardMap ga = res_after.resolve(n.scan_in);
    if (gb == ga) continue;
    // Union of source keys; an absent source has guard FALSE.
    std::vector<std::uint64_t> keys;
    for (const auto& [k, g] : gb) keys.push_back(k);
    for (const auto& [k, g] : ga)
      if (gb.find(k) == gb.end()) keys.push_back(k);
    for (const std::uint64_t key : keys) {
      const auto ib = gb.find(key);
      const auto ia = ga.find(key);
      const CtrlRef b = ib == gb.end() ? kCtrlFalse : ib->second;
      const CtrlRef a = ia == ga.end() ? kCtrlFalse : ia->second;
      if (a == b) continue;
      const CtrlRef diff = mk_or2(vp, mk_and2(vp, b, mk_not2(vp, a)),
                                  mk_and2(vp, mk_not2(vp, b), a));
      if (diff == kCtrlFalse) continue;
      std::string src = key == kSrcDangling ? std::string("<dangling>")
                        : (key >> 40) != 0
                            ? strprintf("<cycle via %s>",
                                        rb.node(static_cast<NodeId>(
                                                    key & 0xFFFFFFFFu))
                                            .name.c_str())
                            : rb.node(static_cast<NodeId>(key)).name;
      checks.push_back(
          {diff, strprintf("scan path of '%s': source '%s' guard changed",
                           n.name.c_str(), src.c_str())});
    }
  }
  if (!checks.empty()) {
    static obs::Counter sat_checks("lint.fix.sat_checks");
    ConeOracle oracle(vp);
    for (const SatCheck& c : checks) {
      sat_checks.add();
      if (!oracle.provably_const(c.diff, false)) return c.what;
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Rewrite primitives.  Each applies to a candidate workspace copy; the
// caller verifies the copy against the current workspace before committing.
// All return a skip reason ("" = the rewrite went through) and record
// removed nodes / rewires / dropped terms in original coordinates.

void drop_terms_touching(Workspace& ws, const std::vector<NodeId>& removed,
                         AppliedFix& fix) {
  std::vector<char> gone(ws.rsn.num_nodes(), 0);
  for (const NodeId id : removed) gone[id] = 1;
  const auto& terms = ws.rsn.select_terms();
  for (std::size_t t = 0; t < terms.size(); ++t) {
    if (ws.term_removed[t] != 0) continue;
    if (gone[terms[t].seg] != 0 || gone[terms[t].succ] != 0) {
      ws.term_removed[t] = 1;
      fix.removed_terms.push_back(ws.term_to_orig[t]);
    }
  }
}

/// Rewires every present consumer of `from` to `to` (skipping consumers in
/// `skip`, the nodes the fix removes).  With `miswire` a deliberately
/// wrong target is substituted — the test hook proving that verification
/// rejects broken rewrites.
void rewire_consumers(Workspace& ws, NodeId from, NodeId to,
                      const std::vector<NodeId>& skip, bool miswire,
                      AppliedFix& fix) {
  NodeId target = to;
  if (miswire) {
    for (NodeId id = 0; id < ws.rsn.num_nodes(); ++id) {
      if (!ws.present(id) || id == to || id == from) continue;
      if (ws.rsn.node(id).kind == NodeKind::kPrimaryOut) continue;
      if (std::find(skip.begin(), skip.end(), id) != skip.end()) continue;
      target = id;
      break;
    }
  }
  std::vector<std::pair<NodeId, int>> sites;
  for_each_consumer(ws, from, [&](NodeId c, int input) {
    if (std::find(skip.begin(), skip.end(), c) != skip.end()) return;
    sites.emplace_back(c, input);
  });
  for (const auto& [c, input] : sites) {
    if (input < 0)
      ws.rsn.set_scan_in(c, target);
    else
      ws.rsn.set_mux_in(c, input, target);
    fix.rewires.push_back({ws.to_orig[c], input, ws.to_orig[target]});
  }
}

std::string apply_mux_bypass(Workspace& ws, NodeId m, NodeId keep,
                             bool miswire, AppliedFix& fix) {
  if (!ws.present(m) || !ws.rsn.node(m).is_mux()) return "mux already gone";
  if (keep == m) return "kept: mux forwards itself (degenerate self-loop)";
  if (!ws.present(keep)) return "kept: forwarded input is dangling";
  if (ws.rsn.node(keep).kind == NodeKind::kPrimaryOut)
    return "kept: forwarded input is a primary scan-out";
  if (term_references(ws, m))
    return "kept: referenced by hardened-select terms";
  ws.removed[m] = 1;
  fix.removed.push_back(ws.to_orig[m]);
  rewire_consumers(ws, m, keep, {m}, miswire, fix);
  drop_terms_touching(ws, {m}, fix);
  return {};
}

std::string apply_drop_primary_in(Workspace& ws, NodeId pi, AppliedFix& fix) {
  if (!ws.present(pi)) return "port already gone";
  if (ws.rsn.node(pi).kind != NodeKind::kPrimaryIn) return "not a primary in";
  if (has_present_consumer(ws, pi)) return "kept: port gained consumers";
  if (count_present(ws, ws.rsn.primary_ins()) <= 1)
    return "kept: last primary scan-in";
  if (term_references(ws, pi)) return "kept: referenced by select terms";
  ws.removed[pi] = 1;
  fix.removed.push_back(ws.to_orig[pi]);
  drop_terms_touching(ws, {pi}, fix);
  return {};
}

std::string apply_prune(Workspace& ws, const std::vector<NodeId>& closure,
                        AppliedFix& fix) {
  for (const NodeId id : closure) {
    if (!ws.present(id)) continue;
    ws.removed[id] = 1;
    fix.removed.push_back(ws.to_orig[id]);
  }
  if (fix.removed.empty()) return "cone already gone";
  drop_terms_touching(ws, closure, fix);
  return {};
}

// ---------------------------------------------------------------------------
// Dead-cone candidate set.  The removable set S is the largest subset of
// the flagged nodes that is (a) successor-closed — no surviving node keeps
// a scan reference to a removed one — and (b) shadow-closed — no surviving
// control cone or surviving select term reads a shadow bit of a removed
// segment.  Nodes flagged dead that feed live logic drop out of S and stay
// diagnosed (the engine records a skip with the reason).

std::vector<char> prune_candidate_set(const Workspace& ws,
                                      const std::vector<NodeId>& flagged) {
  const std::size_t n = ws.rsn.num_nodes();
  std::vector<char> cand(n, 0);
  for (const NodeId id : flagged)
    if (ws.present(id)) cand[id] = 1;

  // Never remove the last primary port of either direction.
  const auto keep_one = [&](const std::vector<NodeId>& ports) {
    NodeId survivor = kInvalidNode;
    for (const NodeId p : ports)
      if (ws.present(p) && cand[p] == 0) survivor = p;
    if (survivor != kInvalidNode) return;
    for (const NodeId p : ports)
      if (ws.present(p)) {
        cand[p] = 0;
        return;
      }
  };
  keep_one(ws.rsn.primary_ins());
  keep_one(ws.rsn.primary_outs());

  const CtrlPool& pool = ws.rsn.ctrl();
  bool changed = true;
  while (changed) {
    changed = false;
    // Successor closure.
    for (NodeId id = 0; id < n; ++id) {
      if (cand[id] == 0) continue;
      bool live_consumer = false;
      for_each_consumer(ws, id, [&](NodeId c, int) {
        if (cand[c] == 0) live_consumer = true;
      });
      if (live_consumer) {
        cand[id] = 0;
        changed = true;
      }
    }
    // Shadow closure: shadow bits of candidate segments must not be read
    // by surviving control logic or surviving terms (terms touching a
    // candidate node are dropped with the fix and do not count).
    const auto scan_expr = [&](CtrlRef r) {
      if (r < 0 || static_cast<std::size_t>(r) >= pool.size()) return;
      for (const CtrlRef q : cone_of(pool, r)) {
        const CtrlNode& cn = pool.node(q);
        if (cn.op == CtrlOp::kShadowBit && cn.seg != kInvalidNode &&
            cn.seg < n && cand[cn.seg] != 0) {
          cand[cn.seg] = 0;
          changed = true;
        }
      }
    };
    for (NodeId id = 0; id < n; ++id) {
      if (!ws.present(id) || cand[id] != 0) continue;
      const RsnNode& node = ws.rsn.node(id);
      if (node.is_segment()) {
        scan_expr(node.select);
        scan_expr(node.cap_dis);
        scan_expr(node.up_dis);
      } else if (node.is_mux()) {
        scan_expr(node.addr);
      }
    }
    const auto& terms = ws.rsn.select_terms();
    for (std::size_t t = 0; t < terms.size(); ++t) {
      if (ws.term_removed[t] != 0) continue;
      if (terms[t].seg < n && cand[terms[t].seg] != 0) continue;
      if (terms[t].succ < n && cand[terms[t].succ] != 0) continue;
      scan_expr(terms[t].term);
    }
  }
  return cand;
}

/// Forward closure of `start` within the candidate set: the node plus all
/// transitive present consumers (all inside S by successor-closure), which
/// makes every per-diagnostic prune fix self-contained.
std::vector<NodeId> prune_closure(const Workspace& ws,
                                  const std::vector<char>& cand,
                                  NodeId start) {
  std::vector<NodeId> out;
  if (cand[start] == 0) return out;
  std::vector<char> seen(ws.rsn.num_nodes(), 0);
  std::vector<NodeId> queue{start};
  seen[start] = 1;
  while (!queue.empty()) {
    const NodeId v = queue.back();
    queue.pop_back();
    out.push_back(v);
    for_each_consumer(ws, v, [&](NodeId c, int) {
      if (seen[c] == 0 && cand[c] != 0) {
        seen[c] = 1;
        queue.push_back(c);
      }
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Compaction: renumber the survivors into a fresh Rsn, garbage-collecting
// the control pool (only expressions referenced by survivors are
// translated), and compose the provenance maps.

CtrlRef compact_xlat(const CtrlPool& src, CtrlPool& dst,
                     const std::vector<NodeId>& old2new,
                     std::map<CtrlRef, CtrlRef>& memo, CtrlRef r) {
  if (r < 0 || static_cast<std::size_t>(r) >= src.size()) return kCtrlInvalid;
  const auto it = memo.find(r);
  if (it != memo.end()) return it->second;
  const CtrlNode& n = src.node(r);
  const auto kid = [&](int i) {
    return compact_xlat(src, dst, old2new, memo, n.kid[static_cast<std::size_t>(i)]);
  };
  CtrlRef out = kCtrlInvalid;
  switch (n.op) {
    case CtrlOp::kConst: out = dst.constant(n.bit != 0); break;
    case CtrlOp::kEnable: out = dst.enable_input(); break;
    case CtrlOp::kPortSel: out = dst.port_select_input(n.bit); break;
    case CtrlOp::kShadowBit: {
      // Shadow atoms of removed segments never occur in surviving cones
      // (verified); broken references are preserved as-is numerically only
      // when still in range, otherwise the atom keeps its old coordinate.
      const NodeId seg = (n.seg != kInvalidNode &&
                          n.seg < old2new.size() &&
                          old2new[n.seg] != kInvalidNode)
                             ? old2new[n.seg]
                             : n.seg;
      out = dst.shadow_bit(seg, n.bit, n.replica);
      break;
    }
    case CtrlOp::kNot: out = dst.mk_not(kid(0), n.bit); break;
    case CtrlOp::kAnd: out = dst.mk_and(kid(0), kid(1), n.bit); break;
    case CtrlOp::kOr: out = dst.mk_or(kid(0), kid(1), n.bit); break;
    case CtrlOp::kMaj3:
      out = dst.mk_maj3(kid(0), kid(1), kid(2), n.bit);
      break;
  }
  memo.emplace(r, out);
  return out;
}

void compact(Workspace& ws) {
  const Rsn old = std::move(ws.rsn);
  const std::size_t n = old.num_nodes();
  Rsn nu;
  std::vector<NodeId> old2new(n, kInvalidNode);
  for (NodeId id = 0; id < n; ++id) {
    if (ws.removed[id] != 0) continue;
    const RsnNode& node = old.node(id);
    switch (node.kind) {
      case NodeKind::kPrimaryIn:
        old2new[id] = nu.add_primary_in(node.name);
        break;
      case NodeKind::kPrimaryOut:
        old2new[id] = nu.add_primary_out(node.name, kInvalidNode);
        break;
      case NodeKind::kSegment:
        old2new[id] = nu.add_segment(node.name, node.length, kInvalidNode,
                                     node.has_shadow, node.role);
        break;
      case NodeKind::kMux:
        old2new[id] = nu.add_mux(node.name, kInvalidNode, kInvalidNode,
                                 kCtrlFalse);
        break;
    }
  }
  const auto map_node = [&](NodeId t) {
    return (t != kInvalidNode && t < n && ws.removed[t] == 0) ? old2new[t]
                                                             : kInvalidNode;
  };
  std::map<CtrlRef, CtrlRef> cmemo;
  const auto xlat = [&](CtrlRef r) {
    return compact_xlat(old.ctrl(), nu.ctrl(), old2new, cmemo, r);
  };
  for (NodeId id = 0; id < n; ++id) {
    if (ws.removed[id] != 0) continue;
    const RsnNode& node = old.node(id);
    const NodeId nid = old2new[id];
    nu.set_hier(nid, node.module, node.hier_level);
    switch (node.kind) {
      case NodeKind::kPrimaryIn:
        break;
      case NodeKind::kPrimaryOut:
        nu.node_mut(nid).scan_in = map_node(node.scan_in);
        break;
      case NodeKind::kSegment: {
        RsnNode& dst = nu.node_mut(nid);
        dst.scan_in = map_node(node.scan_in);
        dst.shadow_replicas = node.shadow_replicas;
        dst.reset_shadow = node.reset_shadow;
        dst.select = xlat(node.select);
        dst.cap_dis = xlat(node.cap_dis);
        dst.up_dis = xlat(node.up_dis);
        break;
      }
      case NodeKind::kMux: {
        RsnNode& dst = nu.node_mut(nid);
        dst.mux_in[0] = map_node(node.mux_in[0]);
        dst.mux_in[1] = map_node(node.mux_in[1]);
        dst.addr = xlat(node.addr);
        break;
      }
    }
  }
  std::vector<std::size_t> new_term_to_orig;
  const auto& terms = old.select_terms();
  for (std::size_t t = 0; t < terms.size(); ++t) {
    if (ws.term_removed[t] != 0) continue;
    const NodeId seg = map_node(terms[t].seg);
    const NodeId succ = map_node(terms[t].succ);
    if (seg == kInvalidNode || succ == kInvalidNode) continue;
    nu.add_select_term(seg, succ, xlat(terms[t].term));
    new_term_to_orig.push_back(ws.term_to_orig[t]);
  }
  // Compose the provenance maps through this renumbering.
  std::vector<NodeId> new_to_orig;
  new_to_orig.reserve(nu.num_nodes());
  for (NodeId id = 0; id < n; ++id)
    if (ws.removed[id] == 0) new_to_orig.push_back(ws.to_orig[id]);
  std::vector<CtrlRef> new_ctrl_to_orig(nu.ctrl().size(), kCtrlInvalid);
  new_ctrl_to_orig[kCtrlFalse] = ws.ctrl_to_orig[kCtrlFalse];
  new_ctrl_to_orig[kCtrlTrue] = ws.ctrl_to_orig[kCtrlTrue];
  for (const auto& [o, nw] : cmemo) {
    if (nw == kCtrlInvalid) continue;
    if (o >= 0 && static_cast<std::size_t>(o) < ws.ctrl_to_orig.size())
      new_ctrl_to_orig[nw] = ws.ctrl_to_orig[o];
  }
  ws.rsn = std::move(nu);
  ws.removed.assign(ws.rsn.num_nodes(), 0);
  ws.term_removed.assign(ws.rsn.select_terms().size(), 0);
  ws.to_orig = std::move(new_to_orig);
  ws.term_to_orig = std::move(new_term_to_orig);
  ws.ctrl_to_orig = std::move(new_ctrl_to_orig);
}

// ---------------------------------------------------------------------------
// Pass planning and the engine loop.

struct PassPlan {
  std::vector<NodeId> dedupe;
  std::vector<NodeId> collapse;
  std::vector<NodeId> drop_pi;
  std::vector<NodeId> prune;                 ///< diag order, unique
  std::map<NodeId, std::string> prune_rule;  ///< node -> flagging rule id

  bool empty() const {
    return dedupe.empty() && collapse.empty() && drop_pi.empty() &&
           prune.empty();
  }
};

PassPlan make_plan(const std::vector<Diagnostic>& diags, const Workspace& ws) {
  PassPlan plan;
  for (const Diagnostic& d : diags) {
    if (d.node == kInvalidNode || !ws.present(d.node)) continue;
    if (d.rule == "mux-identical-inputs") {
      plan.dedupe.push_back(d.node);
    } else if (d.rule == "const-mux-addr") {
      plan.collapse.push_back(d.node);
    } else if (d.rule == "unused-primary-in") {
      plan.drop_pi.push_back(d.node);
    } else if (d.rule == "unreachable-scan" || d.rule == "dead-end-scan") {
      if (plan.prune_rule.emplace(d.node, d.rule).second)
        plan.prune.push_back(d.node);
    }
  }
  return plan;
}

struct PassCtx {
  Workspace& ws;
  FixResult& res;
  const FixOptions& opts;
  int pass = 0;
  std::size_t applied_in_pass = 0;
  /// (rule, original node) -> index into res.fixes, so diagnostics retried
  /// across passes update their record instead of duplicating it.
  std::map<std::pair<std::string, NodeId>, std::size_t> index;
};

AppliedFix& record_fix(PassCtx& pc, FixKind kind, const std::string& rule,
                       NodeId ws_node) {
  const NodeId orig = pc.ws.to_orig[ws_node];
  const auto key = std::make_pair(rule, orig);
  const auto it = pc.index.find(key);
  std::size_t idx = 0;
  if (it == pc.index.end()) {
    idx = pc.res.fixes.size();
    pc.res.fixes.push_back({});
    pc.index.emplace(key, idx);
  } else {
    idx = it->second;
  }
  AppliedFix& f = pc.res.fixes[idx];
  f.kind = kind;
  f.rule = rule;
  f.node = orig;
  f.pass = pc.pass;
  f.status = FixStatus::kSkipped;
  f.note.clear();
  f.removed.clear();
  f.rewires.clear();
  f.removed_terms.clear();
  return f;
}

/// Applies one candidate rewrite: verifies the mutated copy against the
/// current workspace and commits or discards it.
void commit_or_reject(PassCtx& pc, Workspace&& cand, AppliedFix& fix) {
  static obs::Counter c_applied("lint.fix.applied");
  static obs::Counter c_verified("lint.fix.verified");
  static obs::Counter c_rejected("lint.fix.rejected");
  if (pc.opts.verify != FixVerify::kOff) {
    OBS_SPAN("lint.fix.verify");
    const std::string err = verify_rewrite(pc.ws, cand);
    if (!err.empty()) {
      fix.status = FixStatus::kRejected;
      fix.note = "verification rejected the rewrite: " + err;
      c_rejected.add();
      return;
    }
    c_verified.add();
  }
  pc.ws = std::move(cand);
  fix.status = FixStatus::kApplied;
  ++pc.applied_in_pass;
  c_applied.add();
}

/// Re-derives the stuck value of a mux address (the lint rule's exact
/// query, not a parse of its message).
int const_mux_stuck(const Workspace& ws, ConeOracle& oracle, NodeId m) {
  const RsnNode& n = ws.rsn.node(m);
  if (n.addr < 0 || static_cast<std::size_t>(n.addr) >= ws.rsn.ctrl().size())
    return -1;
  if (n.addr == kCtrlFalse) return 0;
  if (n.addr == kCtrlTrue) return 1;
  if (oracle.provably_const(n.addr, false)) return 0;
  if (oracle.provably_const(n.addr, true)) return 1;
  return -1;
}

void run_pass(PassCtx& pc, const PassPlan& plan) {
  ConeOracle oracle(pc.ws.rsn.ctrl());
  const bool miswire = pc.opts.debug_miswire != 0;

  for (const NodeId m : plan.dedupe) {
    AppliedFix& fix =
        record_fix(pc, FixKind::kDedupeMuxInputs, "mux-identical-inputs", m);
    if (!pc.ws.present(m) || !pc.ws.rsn.node(m).is_mux()) {
      fix.status = FixStatus::kApplied;  // removed by an earlier fix
      fix.note = "already removed by an earlier fix";
      continue;
    }
    const RsnNode& n = pc.ws.rsn.node(m);
    if (n.mux_in[0] == kInvalidNode || n.mux_in[0] != n.mux_in[1]) {
      fix.note = "kept: inputs no longer identical";
      continue;
    }
    Workspace cand = pc.ws;
    fix.note = strprintf("bypass mux '%s' onto its single input '%s'",
                         n.name.c_str(),
                         pc.ws.present(n.mux_in[0])
                             ? pc.ws.rsn.node(n.mux_in[0]).name.c_str()
                             : "?");
    const std::string skip =
        apply_mux_bypass(cand, m, n.mux_in[0], miswire, fix);
    if (!skip.empty()) {
      fix.note = skip;
      continue;
    }
    commit_or_reject(pc, std::move(cand), fix);
  }

  for (const NodeId m : plan.collapse) {
    AppliedFix& fix =
        record_fix(pc, FixKind::kCollapseConstMux, "const-mux-addr", m);
    if (!pc.ws.present(m) || !pc.ws.rsn.node(m).is_mux()) {
      fix.status = FixStatus::kApplied;
      fix.note = "already removed by an earlier fix";
      continue;
    }
    const int stuck = const_mux_stuck(pc.ws, oracle, m);
    if (stuck < 0) {
      fix.note = "kept: address no longer provably constant";
      continue;
    }
    const RsnNode& n = pc.ws.rsn.node(m);
    const NodeId keep = n.mux_in[static_cast<std::size_t>(stuck)];
    Workspace cand = pc.ws;
    fix.note = strprintf(
        "collapse constant-address mux '%s' onto forwarded input '%s'",
        n.name.c_str(),
        pc.ws.present(keep) ? pc.ws.rsn.node(keep).name.c_str() : "?");
    const std::string skip = apply_mux_bypass(cand, m, keep, miswire, fix);
    if (!skip.empty()) {
      fix.note = skip;
      continue;
    }
    commit_or_reject(pc, std::move(cand), fix);
  }

  for (const NodeId pi : plan.drop_pi) {
    AppliedFix& fix =
        record_fix(pc, FixKind::kDropUnusedPrimaryIn, "unused-primary-in", pi);
    if (!pc.ws.present(pi)) {
      fix.status = FixStatus::kApplied;
      fix.note = "already removed by an earlier fix";
      continue;
    }
    Workspace cand = pc.ws;
    fix.note = strprintf("remove unused primary scan-in '%s'",
                         pc.ws.rsn.node(pi).name.c_str());
    const std::string skip = apply_drop_primary_in(cand, pi, fix);
    if (!skip.empty()) {
      fix.note = skip;
      continue;
    }
    commit_or_reject(pc, std::move(cand), fix);
  }

  if (!plan.prune.empty()) {
    const std::vector<char> cand_set = prune_candidate_set(pc.ws, plan.prune);
    for (const NodeId v : plan.prune) {
      AppliedFix& fix = record_fix(pc, FixKind::kPruneDeadScan,
                                   plan.prune_rule.at(v), v);
      if (!pc.ws.present(v)) {
        fix.status = FixStatus::kApplied;
        fix.note = "already removed by an earlier fix";
        continue;
      }
      if (cand_set[v] == 0) {
        fix.note = "kept: feeds surviving logic (scan or shadow readers)";
        continue;
      }
      const std::vector<NodeId> closure = prune_closure(pc.ws, cand_set, v);
      Workspace cand = pc.ws;
      fix.note = strprintf("prune dead scan cone of '%s' (%zu node(s))",
                           pc.ws.rsn.node(v).name.c_str(), closure.size());
      const std::string skip = apply_prune(cand, closure, fix);
      if (!skip.empty()) {
        fix.note = skip;
        continue;
      }
      commit_or_reject(pc, std::move(cand), fix);
    }
  }
}

}  // namespace

const char* fix_kind_name(FixKind kind) {
  switch (kind) {
    case FixKind::kDropUnusedPrimaryIn: return "drop-unused-primary-in";
    case FixKind::kDedupeMuxInputs: return "dedupe-mux-inputs";
    case FixKind::kCollapseConstMux: return "collapse-const-mux";
    case FixKind::kPruneDeadScan: return "prune-dead-scan";
  }
  return "?";
}

const std::vector<std::string>& FixEngine::fixable_rules() {
  static const std::vector<std::string> kRules = {
      "mux-identical-inputs", "const-mux-addr", "unused-primary-in",
      "unreachable-scan", "dead-end-scan"};
  return kRules;
}

bool FixEngine::fixable_rule(const std::string& rule) {
  const auto& rules = fixable_rules();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

FixResult FixEngine::run(const Rsn& input) const {
  OBS_SPAN("lint.fix");
  FixResult res;
  const LintRunner runner(options_.lint);
  res.initial = runner.run(input);
  Workspace ws = make_workspace(input);
  std::vector<Diagnostic> diags = res.initial;
  // (rule, original node) -> record index, carried across passes so a
  // diagnostic retried in a later pass updates its record in place.
  std::map<std::pair<std::string, NodeId>, std::size_t> fix_index;
  for (int pass = 1; pass <= options_.max_passes; ++pass) {
    const PassPlan plan = make_plan(diags, ws);
    if (plan.empty()) break;
    PassCtx pc{ws, res, options_, pass, 0, std::move(fix_index)};
    {
      OBS_SPAN("lint.fix.pass");
      run_pass(pc, plan);
    }
    fix_index = std::move(pc.index);
    if (pc.applied_in_pass == 0) break;
    res.passes = pass;
    compact(ws);
    diags = runner.run(ws.rsn);
  }
  res.residual = std::move(diags);
  for (const AppliedFix& f : res.fixes) {
    if (f.status == FixStatus::kApplied && !f.removed.empty()) ++res.applied;
    if (f.status == FixStatus::kRejected) ++res.rejected;
  }
  res.changed = false;
  for (const AppliedFix& f : res.fixes)
    if (f.status == FixStatus::kApplied) res.changed = true;
  res.node_map.assign(input.num_nodes(), kInvalidNode);
  for (NodeId id = 0; id < ws.rsn.num_nodes(); ++id)
    res.node_map[ws.to_orig[id]] = id;
  res.ctrl_map = std::move(ws.ctrl_to_orig);
  res.rsn = std::move(ws.rsn);

  if (options_.verify == FixVerify::kMetric && res.changed) {
    bool ran = false;
    res.metric_check_ok = metric_differential_check(
        input, res, &res.metric_check_note, options_.metric_max_nodes,
        options_.metric_max_faults, &ran);
    res.metric_check_ran = ran;
    if (ran && !res.metric_check_ok) {
      // Belt-and-braces rollback: the per-rewrite SAT proofs should make
      // this unreachable, and the randomized soak asserts exactly that.
      static obs::Counter c_rejected("lint.fix.rejected");
      for (AppliedFix& f : res.fixes) {
        if (f.status != FixStatus::kApplied) continue;
        f.status = FixStatus::kRejected;
        f.note = "differential fault-metric check failed: " +
                 res.metric_check_note;
        c_rejected.add();
      }
      res.rsn = input;
      res.changed = false;
      res.applied = 0;
      res.rejected = res.fixes.size();
      res.residual = res.initial;
      res.node_map.resize(input.num_nodes());
      std::iota(res.node_map.begin(), res.node_map.end(), NodeId{0});
      res.ctrl_map.resize(input.ctrl().size());
      std::iota(res.ctrl_map.begin(), res.ctrl_map.end(), CtrlRef{0});
    }
  }
  return res;
}

FixResult fix_rsn(const Rsn& rsn, const FixOptions& options) {
  return FixEngine(options).run(rsn);
}

// ---------------------------------------------------------------------------
// Differential fault-metric check (FixVerify::kMetric).

bool metric_differential_check(const Rsn& original, const FixResult& result,
                               std::string* why, std::size_t max_nodes,
                               std::size_t max_faults, bool* ran) {
  const auto note = [&](const std::string& s) {
    if (why) *why = s;
  };
  if (ran) *ran = false;
  if (result.rsn.num_nodes() > max_nodes ||
      original.num_nodes() > max_nodes) {
    note("skipped: network above metric_max_nodes");
    return true;
  }
  try {
    const FaultMetricEngine orig_engine(original);
    const FaultMetricEngine fixed_engine(result.rsn);
    const auto orig_scratch = orig_engine.make_scratch();
    const auto fixed_scratch = fixed_engine.make_scratch();

    // Map the repaired network's fault universe back onto the original.
    std::vector<NodeId> new2orig(result.rsn.num_nodes(), kInvalidNode);
    for (NodeId o = 0; o < result.node_map.size(); ++o)
      if (result.node_map[o] != kInvalidNode) new2orig[result.node_map[o]] = o;
    std::vector<Fault> fixed_faults = enumerate_faults(result.rsn);
    if (fixed_faults.size() > max_faults && max_faults > 0) {
      std::vector<Fault> sampled;
      sampled.reserve(max_faults);
      const std::size_t stride = fixed_faults.size() / max_faults + 1;
      for (std::size_t i = 0; i < fixed_faults.size(); i += stride)
        sampled.push_back(fixed_faults[i]);
      fixed_faults = std::move(sampled);
    }
    std::vector<Fault> orig_faults;
    std::vector<Fault> kept_fixed;
    orig_faults.reserve(fixed_faults.size());
    kept_fixed.reserve(fixed_faults.size());
    for (const Fault& f : fixed_faults) {
      Fault o = f;
      if (o.forcing.node != kInvalidNode) {
        if (o.forcing.node >= new2orig.size() ||
            new2orig[o.forcing.node] == kInvalidNode)
          continue;  // no original counterpart (does not happen in practice)
        o.forcing.node = new2orig[o.forcing.node];
      }
      if (o.forcing.ctrl != kCtrlInvalid) {
        if (o.forcing.ctrl < 0 ||
            static_cast<std::size_t>(o.forcing.ctrl) >=
                result.ctrl_map.size() ||
            result.ctrl_map[o.forcing.ctrl] == kCtrlInvalid)
          continue;
        o.forcing.ctrl = result.ctrl_map[o.forcing.ctrl];
      }
      orig_faults.push_back(o);
      kept_fixed.push_back(f);
    }

    // Surviving segments, in original/fixed coordinate pairs.
    std::vector<std::pair<NodeId, NodeId>> segs;
    for (NodeId o = 0; o < original.num_nodes(); ++o) {
      if (!original.node(o).is_segment()) continue;
      if (result.node_map[o] != kInvalidNode)
        segs.emplace_back(o, result.node_map[o]);
    }

    // Pruned segments must already be inaccessible in the original.
    const std::vector<bool> orig_free = orig_engine.accessible_fault_free();
    const std::vector<bool> fixed_free = fixed_engine.accessible_fault_free();
    for (NodeId o = 0; o < original.num_nodes(); ++o) {
      if (!original.node(o).is_segment()) continue;
      if (result.node_map[o] == kInvalidNode && orig_free[o]) {
        note(strprintf("pruned segment '%s' was accessible in the original",
                       original.node(o).name.c_str()));
        if (ran) *ran = true;
        return false;
      }
    }
    for (const auto& [o, f] : segs) {
      if (orig_free[o] != fixed_free[f]) {
        note(strprintf("fault-free accessibility of '%s' changed",
                       original.node(o).name.c_str()));
        if (ran) *ran = true;
        return false;
      }
    }

    // Per-fault accessibility of every surviving segment, plus the shared
    // aggregates folded on both sides in identical order.
    const double counted = static_cast<double>(segs.size());
    double orig_sum = 0.0;
    double orig_worst = 1.0;
    double fixed_sum = 0.0;
    double fixed_worst = 1.0;
    for (std::size_t i = 0; i < kept_fixed.size(); ++i) {
      const std::vector<bool> ao =
          orig_engine.accessible_under_set({orig_faults[i]}, *orig_scratch);
      const std::vector<bool> af = fixed_engine.accessible_under_set(
          {kept_fixed[i]}, *fixed_scratch);
      std::size_t no = 0;
      std::size_t nf = 0;
      for (const auto& [o, f] : segs) {
        if (ao[o] != af[f]) {
          note(strprintf(
              "fault %zu (%s): accessibility of '%s' diverges "
              "(original=%d, repaired=%d)",
              i, kept_fixed[i].describe(result.rsn).c_str(),
              original.node(o).name.c_str(), int(ao[o]), int(af[f])));
          if (ran) *ran = true;
          return false;
        }
        no += ao[o] ? 1 : 0;
        nf += af[f] ? 1 : 0;
      }
      const double fo = counted > 0 ? static_cast<double>(no) / counted : 1.0;
      const double ff = counted > 0 ? static_cast<double>(nf) / counted : 1.0;
      orig_sum += fo;
      fixed_sum += ff;
      orig_worst = std::min(orig_worst, fo);
      fixed_worst = std::min(fixed_worst, ff);
    }
    if (orig_sum != fixed_sum || orig_worst != fixed_worst) {
      note("aggregate fold diverged");
      if (ran) *ran = true;
      return false;
    }
    if (ran) *ran = true;
    note(strprintf("compared %zu fault(s) over %zu surviving segment(s)",
                   kept_fixed.size(), segs.size()));
    return true;
  } catch (const std::exception& e) {
    // Networks the metric engine cannot analyze (cycles, dangling refs
    // outside the repaired cone) are skipped, not failed.
    note(std::string("skipped: ") + e.what());
    return true;
  }
}

// ---------------------------------------------------------------------------
// SARIF fix records: whole-line textual edits of the original source.

namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

/// Replaces the value of the ` key=` token on an element line; values are
/// whitespace-free names, and '=' never occurs inside expressions, so a
/// plain token scan is exact.
bool substitute_key_value(std::string& line, const std::string& key,
                          const std::string& value) {
  const std::string pat = " " + key + "=";
  const std::size_t p = line.find(pat);
  if (p == std::string::npos) return false;
  const std::size_t vstart = p + pat.size();
  std::size_t vend = line.find(' ', vstart);
  if (vend == std::string::npos) vend = line.size();
  line.replace(vstart, vend - vstart, value);
  return true;
}

}  // namespace

std::map<std::size_t, SarifFix> sarif_fix_records(
    const FixResult& result, const Rsn& original,
    const std::string& source_text, const RsnSourceMap& src_map) {
  std::map<std::size_t, SarifFix> out;
  const std::vector<std::string> lines = split_lines(source_text);
  const auto line_ok = [&](int ln) {
    return ln >= 1 && static_cast<std::size_t>(ln) <= lines.size();
  };
  const auto node_line = [&](const std::vector<int>& map, NodeId id) {
    return id < map.size() ? map[id] : 0;
  };
  std::vector<char> diag_used(result.initial.size(), 0);
  for (const AppliedFix& fix : result.fixes) {
    if (fix.status != FixStatus::kApplied) continue;
    if (fix.removed.empty() && fix.rewires.empty() &&
        fix.removed_terms.empty())
      continue;
    // Match the fix to its initial diagnostic (original coordinates);
    // later-pass fixes of nodes that were clean initially have none.
    std::size_t di = result.initial.size();
    for (std::size_t i = 0; i < result.initial.size(); ++i) {
      if (diag_used[i] != 0) continue;
      if (result.initial[i].rule == fix.rule &&
          result.initial[i].node == fix.node) {
        di = i;
        break;
      }
    }
    if (di == result.initial.size()) continue;

    SarifFix record;
    record.description = fix.note;
    std::map<int, std::string> edited;  ///< line -> replacement text
    std::vector<int> deleted;
    bool renderable = true;
    for (const NodeId id : fix.removed) {
      const int decl = node_line(src_map.decl_line, id);
      const int elem = node_line(src_map.elem_line, id);
      if (!line_ok(decl)) {
        renderable = false;  // node has no source declaration to delete
        break;
      }
      deleted.push_back(decl);
      if (line_ok(elem)) deleted.push_back(elem);
    }
    for (const std::size_t t : fix.removed_terms) {
      const int ln = t < src_map.term_line.size() ? src_map.term_line[t] : 0;
      if (!line_ok(ln)) {
        renderable = false;
        break;
      }
      deleted.push_back(ln);
    }
    if (renderable) {
      const std::vector<std::string> names = original.node_names();
      for (const FixRewire& rw : fix.rewires) {
        const int ln = node_line(src_map.elem_line, rw.consumer);
        if (!line_ok(ln) || rw.new_driver >= names.size()) {
          renderable = false;
          break;
        }
        auto [it, fresh] = edited.try_emplace(
            ln, lines[static_cast<std::size_t>(ln - 1)]);
        const std::string key =
            rw.input < 0 ? "in" : (rw.input == 0 ? "in0" : "in1");
        if (!substitute_key_value(it->second, key, names[rw.new_driver])) {
          renderable = false;
          break;
        }
      }
    }
    if (!renderable) continue;
    std::sort(deleted.begin(), deleted.end());
    deleted.erase(std::unique(deleted.begin(), deleted.end()), deleted.end());
    for (const int ln : deleted)
      record.replacements.push_back({ln, true, {}});
    for (const auto& [ln, text] : edited)
      record.replacements.push_back({ln, false, text});
    std::sort(record.replacements.begin(), record.replacements.end(),
              [](const SarifReplacement& a, const SarifReplacement& b) {
                return a.line < b.line;
              });
    diag_used[di] = 1;
    out.emplace(di, std::move(record));
  }
  return out;
}

}  // namespace ftrsn::lint
