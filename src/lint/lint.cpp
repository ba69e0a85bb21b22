#include "lint/lint.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "lint/cone_oracle.hpp"
#include "obs/obs.hpp"

// Rules build Diagnostics with designated initializers that deliberately
// leave the trailing members (rule id, severity) default-initialized — the
// runner stamps them from the rule catalog afterwards.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace ftrsn::lint {

namespace {

// ---------------------------------------------------------------------------
// Shared per-run context: guarded adjacency (tolerates dangling/out-of-range
// references, unlike Rsn::successors()) and reachability closures.

struct Ctx {
  const Rsn& rsn;
  const CtrlPool& pool;
  std::vector<std::string> names;
  std::vector<std::vector<NodeId>> succ;
  std::vector<std::vector<NodeId>> pred;
  std::vector<char> reach;    ///< reachable from some primary scan-in
  std::vector<char> coreach;  ///< reaches some primary scan-out
  bool refs_ok = true;        ///< every scan reference is in range
  /// Exact control-cone analysis, shared across all cone-based rules of one
  /// run so identical queries (e.g. a select expression reused by several
  /// segments) hit the memo cache.
  std::unique_ptr<ConeOracle> oracle;
};

bool node_ok(const Ctx& c, NodeId id) {
  return id != kInvalidNode && id < c.rsn.num_nodes();
}

bool ctrl_ok(const Ctx& c, CtrlRef r) {
  return r >= 0 && static_cast<std::size_t>(r) < c.pool.size();
}

Ctx make_ctx(const Rsn& rsn, const LintOptions& opts) {
  Ctx c{rsn, rsn.ctrl(), rsn.node_names(), {}, {}, {}, {}, true, nullptr};
  c.oracle = std::make_unique<ConeOracle>(c.pool);
  const std::size_t n = rsn.num_nodes();
  c.succ.resize(n);
  c.pred.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    const RsnNode& node = rsn.node(id);
    const auto link = [&](NodeId from) {
      if (node_ok(c, from)) {
        c.succ[from].push_back(id);
        c.pred[id].push_back(from);
      } else {
        c.refs_ok = false;
      }
    };
    if (node.kind == NodeKind::kSegment || node.kind == NodeKind::kPrimaryOut)
      link(node.scan_in);
    if (node.kind == NodeKind::kMux)
      for (NodeId in : node.mux_in) link(in);
  }
  const auto bfs = [&](const std::vector<NodeId>& seeds,
                       const std::vector<std::vector<NodeId>>& adj) {
    std::vector<char> seen(n, 0);
    std::vector<NodeId> queue;
    for (NodeId s : seeds)
      if (s < n && !seen[s]) {
        seen[s] = 1;
        queue.push_back(s);
      }
    while (!queue.empty()) {
      const NodeId v = queue.back();
      queue.pop_back();
      for (NodeId w : adj[v])
        if (!seen[w]) {
          seen[w] = 1;
          queue.push_back(w);
        }
    }
    return seen;
  };
  c.reach = bfs(rsn.primary_ins(), c.succ);
  c.coreach = bfs(rsn.primary_outs(), c.pred);
  return c;
}

// Cone queries (provably-constant / satisfiable / forced-value, exact for
// cones of any size) go through Ctx::oracle — see lint/cone_oracle.hpp.

// ---------------------------------------------------------------------------
// Rsn rules.  A rule pushes bare diagnostics (node/ctrl/message/hint/
// witness); the runner stamps rule id and severity afterwards.

using RsnRuleFn = void (*)(const Ctx&, std::vector<Diagnostic>&);

void rule_no_primary_in(const Ctx& c, std::vector<Diagnostic>& out) {
  if (c.rsn.primary_ins().empty())
    out.push_back({.message = "RSN has no primary scan-in port",
                   .hint = "add a primary scan-in as the dataflow root"});
}

void rule_no_primary_out(const Ctx& c, std::vector<Diagnostic>& out) {
  if (c.rsn.primary_outs().empty())
    out.push_back({.message = "RSN has no primary scan-out port",
                   .hint = "add a primary scan-out as the dataflow sink"});
}

void rule_dangling_scan_in(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (n.kind != NodeKind::kSegment && n.kind != NodeKind::kPrimaryOut)
      continue;
    if (!node_ok(c, n.scan_in))
      out.push_back(
          {.node = id,
           .message = n.scan_in == kInvalidNode
                          ? "node has no scan-in driver"
                          : strprintf("scan-in reference %u is out of range",
                                      n.scan_in),
           .hint = "wire the scan-in to an existing upstream element"});
  }
}

void rule_dangling_mux_input(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (!n.is_mux()) continue;
    for (int k = 0; k < 2; ++k) {
      const NodeId in = n.mux_in[static_cast<std::size_t>(k)];
      if (!node_ok(c, in))
        out.push_back(
            {.node = id,
             .message = in == kInvalidNode
                            ? strprintf("mux input %d is dangling", k)
                            : strprintf("mux input %d reference %u is out of "
                                        "range",
                                        k, in),
             .hint = "wire both mux data inputs"});
    }
  }
}

void rule_primary_out_drives(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    for (NodeId from : c.pred[id]) {
      if (c.rsn.node(from).kind == NodeKind::kPrimaryOut)
        out.push_back({.node = id,
                       .message = strprintf(
                           "driven by primary scan-out '%s' (scan-outs are "
                           "dataflow sinks)",
                           c.names[from].c_str()),
                       .hint = "tap the scan-out's driver instead",
                       .witness = {from}});
    }
  }
}

void rule_mux_identical_inputs(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (n.is_mux() && n.mux_in[0] != kInvalidNode &&
        n.mux_in[0] == n.mux_in[1])
      out.push_back({.node = id,
                     .message = "both mux inputs are the same node; the mux "
                                "adds no routing redundancy",
                     .hint = "drop the mux or wire a distinct second input"});
  }
}

void rule_scan_cycle(const Ctx& c, std::vector<Diagnostic>& out) {
  // Iterative DFS with cycle reconstruction (cf. DataflowGraph::find_cycle)
  // over the guarded successor lists.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  const std::size_t n = c.rsn.num_nodes();
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<NodeId> parent(n, kInvalidNode);
  for (NodeId start = 0; start < n; ++start) {
    if (color[start] != kWhite) continue;
    std::vector<std::pair<NodeId, std::size_t>> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      auto& [v, i] = stack.back();
      if (i < c.succ[v].size()) {
        const NodeId s = c.succ[v][i++];
        if (color[s] == kGray) {
          std::vector<NodeId> cycle{s};
          for (NodeId u = v; u != s; u = parent[u]) cycle.push_back(u);
          std::reverse(cycle.begin() + 1, cycle.end());
          out.push_back(
              {.node = s,
               .message = strprintf("scan interconnect cycle through %zu "
                                    "node(s); the scan dataflow must be a DAG",
                                    cycle.size()),
               .hint = "re-route one interconnect of the witness cycle",
               .witness = std::move(cycle)});
          return;  // one witness is enough; fixing it may dissolve the rest
        }
        if (color[s] == kWhite) {
          color[s] = kGray;
          parent[s] = v;
          stack.push_back({s, 0});
        }
      } else {
        color[v] = kBlack;
        stack.pop_back();
      }
    }
  }
}

void rule_unreachable_scan(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    if (c.rsn.node(id).kind == NodeKind::kPrimaryIn) continue;
    if (!c.reach[id])
      out.push_back({.node = id,
                     .message = "dead scan element: not reachable from any "
                                "primary scan-in",
                     .hint = "connect it to the scan dataflow or remove it"});
  }
}

void rule_dead_end_scan(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    if (c.rsn.node(id).kind == NodeKind::kPrimaryOut) continue;
    if (!c.coreach[id])
      out.push_back({.node = id,
                     .message = "scan data through this element never reaches "
                                "a primary scan-out",
                     .hint = "route the element (transitively) into a sink"});
  }
}

void rule_unused_primary_in(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id : c.rsn.primary_ins()) {
    if (c.succ[id].empty())
      out.push_back({.node = id,
                     .message = "primary scan-in drives nothing",
                     .hint = "remove the port or attach consumers"});
  }
}

void rule_invalid_ctrl_ref(const Ctx& c, std::vector<Diagnostic>& out) {
  const auto check = [&](NodeId id, CtrlRef r, const char* what) {
    if (!ctrl_ok(c, r))
      out.push_back({.node = id,
                     .ctrl = r,
                     .message = strprintf("%s references control expression "
                                          "%d outside the pool",
                                          what, r)});
  };
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (n.is_segment()) {
      check(id, n.select, "select");
      check(id, n.cap_dis, "capture-disable");
      check(id, n.up_dis, "update-disable");
    }
    if (n.is_mux()) check(id, n.addr, "mux address");
  }
}

void rule_shadow_ref_no_shadow(const Ctx& c, std::vector<Diagnostic>& out) {
  for (CtrlRef r = 0; static_cast<std::size_t>(r) < c.pool.size(); ++r) {
    const CtrlNode& n = c.pool.node(r);
    if (n.op != CtrlOp::kShadowBit) continue;
    if (!node_ok(c, n.seg)) {
      out.push_back({.ctrl = r,
                     .message = strprintf("shadow-bit atom references node %u "
                                          "outside the netlist",
                                          n.seg)});
    } else if (!c.rsn.node(n.seg).is_segment()) {
      out.push_back({.node = n.seg,
                     .ctrl = r,
                     .message = "shadow-bit atom references a non-segment "
                                "node (only segments own shadow registers)"});
    } else if (!c.rsn.node(n.seg).has_shadow) {
      out.push_back({.node = n.seg,
                     .ctrl = r,
                     .message = "control logic reads the shadow register of "
                                "a segment that has none",
                     .hint = "declare the segment with a shadow register"});
    }
  }
}

void rule_shadow_ref_out_of_range(const Ctx& c, std::vector<Diagnostic>& out) {
  for (CtrlRef r = 0; static_cast<std::size_t>(r) < c.pool.size(); ++r) {
    const CtrlNode& n = c.pool.node(r);
    if (n.op != CtrlOp::kShadowBit || !node_ok(c, n.seg)) continue;
    const RsnNode& seg = c.rsn.node(n.seg);
    if (!seg.is_segment() || !seg.has_shadow) continue;
    if (n.bit >= seg.length)
      out.push_back(
          {.node = n.seg,
           .ctrl = r,
           .message = strprintf("control reads shadow bit %d of the %d-bit "
                                "segment",
                                static_cast<int>(n.bit), seg.length)});
    if (n.replica >= seg.shadow_replicas)
      out.push_back(
          {.node = n.seg,
           .ctrl = r,
           .message = strprintf("control reads shadow replica %d but the "
                                "segment has %d replica(s)",
                                static_cast<int>(n.replica),
                                seg.shadow_replicas),
           .hint = "triplicate the shadow latches (set_shadow_replicas)"});
  }
}

void rule_const_false_select(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (!n.is_segment() || !ctrl_ok(c, n.select)) continue;
    std::string how;
    if (n.select == kCtrlFalse) {
      how = "is the constant FALSE";
    } else if (c.oracle->provably_const(n.select, false)) {
      how = "evaluates to FALSE under every control assignment";
    }
    if (!how.empty())
      out.push_back({.node = id,
                     .ctrl = n.select,
                     .message = "select predicate " + how +
                                ": the segment can never capture or update "
                                "on any scan path",
                     .hint = "derive the select from reachable control "
                             "state"});
  }
}

void rule_select_self_loop(const Ctx& c, std::vector<Diagnostic>& out) {
  // Every shadow atom of each segment that the pool holds.  Forcing all of
  // them to the reset value asks exactly what forcing only the in-cone
  // ones asks (atoms outside the cone cannot move the select), so the
  // common satisfiable case needs no cone walk.
  std::vector<std::vector<CtrlRef>> own(c.rsn.num_nodes());
  for (CtrlRef r = 0; static_cast<std::size_t>(r) < c.pool.size(); ++r) {
    const CtrlNode& a = c.pool.node(r);
    if (a.op == CtrlOp::kShadowBit && a.seg < own.size() && a.bit < 64)
      own[a.seg].push_back(r);
  }
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (!n.is_segment() || !n.has_shadow || !ctrl_ok(c, n.select)) continue;
    if (own[id].empty()) continue;  // the pool never reads its shadow
    std::map<CtrlRef, int> forced;
    for (const CtrlRef r : own[id])
      forced[r] = static_cast<int>((n.reset_shadow >> c.pool.node(r).bit) & 1);
    if (c.oracle->satisfiable(n.select, true, forced)) continue;
    // FALSE at reset: a finding only if the select reads its own shadow
    // at all (otherwise const-false-select reports it).
    const auto cone = cone_of(c.pool, n.select);
    if (std::none_of(cone.begin(), cone.end(), [&](CtrlRef r) {
          return std::binary_search(own[id].begin(), own[id].end(), r);
        }))
      continue;
    out.push_back(
        {.node = id,
         .ctrl = n.select,
         .message = "select depends on the segment's own shadow register "
                    "and is FALSE in the reset configuration: the segment "
                    "can never bootstrap its own select (§III-E "
                    "bootstrap deadlock)",
         .hint = "seed reset_shadow so the select is asserted, or gate "
                 "the select with independent control"});
  }
}

void rule_const_mux_addr(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (!n.is_mux() || !ctrl_ok(c, n.addr)) continue;
    int stuck = -1;
    if (n.addr == kCtrlFalse || n.addr == kCtrlTrue) {
      stuck = n.addr == kCtrlTrue ? 1 : 0;
    } else if (c.oracle->provably_const(n.addr, false)) {
      stuck = 0;
    } else if (c.oracle->provably_const(n.addr, true)) {
      stuck = 1;
    }
    if (stuck >= 0)
      out.push_back(
          {.node = id,
           .ctrl = n.addr,
           .message = strprintf("mux address is constant %d: input %d is "
                                "never forwarded (its cone may be dead)",
                                stuck, 1 - stuck),
           .hint = "steer the address from a writable shadow register"});
  }
}

void rule_const_true_disable(const Ctx& c, std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (!n.is_segment()) continue;
    const auto check = [&](CtrlRef r, const char* what) {
      if (!ctrl_ok(c, r) || r == kCtrlFalse) return;  // kCtrlFalse = inactive
      std::string how;
      if (r == kCtrlTrue) {
        how = "is the constant TRUE";
      } else if (c.oracle->provably_const(r, true)) {
        how = "evaluates to TRUE under every control assignment";
      }
      if (!how.empty())
        out.push_back({.node = id,
                       .ctrl = r,
                       .message = strprintf("%s-disable ", what) + how +
                                  ": the segment's system register is "
                                  "permanently cut off from that operation",
                       .hint = "derive the disable from configurable control "
                               "state (or drop it)"});
    };
    check(n.cap_dis, "capture");
    check(n.up_dis, "update");
  }
}

void rule_tmr_voter_shape(const Ctx& c, std::vector<Diagnostic>& out) {
  for (CtrlRef r = 0; static_cast<std::size_t>(r) < c.pool.size(); ++r) {
    const CtrlNode& n = c.pool.node(r);
    if (n.op != CtrlOp::kMaj3) continue;
    if (n.kid[0] == n.kid[1] || n.kid[0] == n.kid[2] ||
        n.kid[1] == n.kid[2]) {
      out.push_back({.ctrl = r,
                     .message = "TMR voter inputs are not pairwise distinct; "
                                "a single fault flips the majority",
                     .hint = "vote three physically distinct replicas"});
      continue;
    }
    bool all_shadow = true;
    for (CtrlRef k : n.kid)
      all_shadow = all_shadow && ctrl_ok(c, k) &&
                   c.pool.node(k).op == CtrlOp::kShadowBit;
    if (!all_shadow) continue;
    const CtrlNode& a = c.pool.node(n.kid[0]);
    const CtrlNode& b = c.pool.node(n.kid[1]);
    const CtrlNode& d = c.pool.node(n.kid[2]);
    if (a.seg != b.seg || a.seg != d.seg || a.bit != b.bit || a.bit != d.bit)
      out.push_back({.node = node_ok(c, a.seg) ? a.seg : kInvalidNode,
                     .ctrl = r,
                     .message = "TMR voter mixes shadow bits of different "
                                "registers/bits instead of voting three "
                                "replicas of one address bit (§III-E-3)",
                     .hint = "vote replicas 0/1/2 of the same shadow bit"});
  }
}

void rule_tmr_voter_shared(const Ctx& c, std::vector<Diagnostic>& out) {
  std::map<CtrlRef, std::vector<NodeId>> users;
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (n.is_mux() && ctrl_ok(c, n.addr) &&
        c.pool.node(n.addr).op == CtrlOp::kMaj3)
      users[n.addr].push_back(id);
  }
  for (const auto& [voter, muxes] : users) {
    if (muxes.size() < 2) continue;
    out.push_back(
        {.node = muxes[0],
         .ctrl = voter,
         .message = strprintf("one TMR voter drives %zu mux addresses; the "
                              "voter output becomes a shared single point "
                              "of failure",
                              muxes.size()),
         .hint = "instantiate one voter per driven mux (salted interning)",
         .witness = muxes});
  }
}

void rule_select_term_stale(const Ctx& c, std::vector<Diagnostic>& out) {
  for (const Rsn::SelectTerm& t : c.rsn.select_terms()) {
    if (!node_ok(c, t.seg) || !c.rsn.node(t.seg).is_segment()) {
      out.push_back({.node = t.seg,
                     .message = "hardened-select term attached to a node "
                                "that is not a segment"});
      continue;
    }
    if (!ctrl_ok(c, t.term))
      out.push_back({.node = t.seg,
                     .ctrl = t.term,
                     .message = "hardened-select term expression is outside "
                                "the control pool"});
    if (!node_ok(c, t.succ) ||
        std::find(c.succ[t.seg].begin(), c.succ[t.seg].end(), t.succ) ==
            c.succ[t.seg].end())
      out.push_back(
          {.node = t.seg,
           .message = strprintf("hardened-select term asserts successor "
                                "direction '%s' which is not a scan-fanout "
                                "successor of the segment",
                                node_ok(c, t.succ) ? c.names[t.succ].c_str()
                                                   : "?"),
           .hint = "regenerate the select metadata after editing the "
                   "netlist",
           .witness = {t.succ}});
  }
}

void rule_select_term_coverage(const Ctx& c, std::vector<Diagnostic>& out) {
  if (c.rsn.select_terms().empty()) return;  // not a hardened RSN
  std::map<NodeId, std::set<NodeId>> covered;
  for (const Rsn::SelectTerm& t : c.rsn.select_terms())
    if (node_ok(c, t.seg)) covered[t.seg].insert(t.succ);
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    if (!c.rsn.node(id).is_segment() || c.succ[id].empty()) continue;
    const auto it = covered.find(id);
    std::vector<NodeId> missing;
    for (NodeId s : c.succ[id])
      if (it == covered.end() || !it->second.count(s)) missing.push_back(s);
    if (!missing.empty())
      out.push_back(
          {.node = id,
           .message = strprintf("hardened select covers only %zu of %zu "
                                "scan-fanout directions; uncovered detours "
                                "cannot be fault-analyzed (§IV-C)",
                                c.succ[id].size() - missing.size(),
                                c.succ[id].size()),
           .hint = "emit one OR-term per successor direction",
           .witness = std::move(missing)});
  }
}

void rule_select_term_unsat(const Ctx& c, std::vector<Diagnostic>& out) {
  for (const Rsn::SelectTerm& t : c.rsn.select_terms()) {
    if (!ctrl_ok(c, t.term)) continue;  // select-term-stale reports it
    std::string how;
    if (t.term == kCtrlFalse) {
      how = "is the constant FALSE";
    } else if (c.oracle->provably_const(t.term, false)) {
      how = "is unsatisfiable";
    }
    if (!how.empty())
      out.push_back(
          {.node = t.seg,
           .ctrl = t.term,
           .message = strprintf("hardened-select term for direction '%s' ",
                                node_ok(c, t.succ) ? c.names[t.succ].c_str()
                                                   : "?") +
                      how +
                      ": that detour can never be activated (§III-E-2)",
           .hint = "regenerate the hardened select terms",
           .witness = {t.succ}});
  }
}

// --- post-synthesis (fault-tolerance profile) rules ------------------------

void rule_ft_single_scan_port(const Ctx& c, std::vector<Diagnostic>& out) {
  if (c.rsn.primary_ins().size() < 2)
    out.push_back({.message = "only one primary scan-in: a fault near the "
                              "root can lock out the whole network "
                              "(§III-E-4 expects duplicated ports)",
                   .hint = "synthesize with duplicate_ports enabled"});
  if (c.rsn.primary_outs().size() < 2)
    out.push_back({.message = "only one primary scan-out: a fault in the "
                              "final mux cascade blinds all observation "
                              "(§III-E-4 expects duplicated ports)",
                   .hint = "synthesize with duplicate_ports enabled"});
}

void rule_ft_untriplicated_address(const Ctx& c,
                                   std::vector<Diagnostic>& out) {
  for (NodeId id = 0; id < c.rsn.num_nodes(); ++id) {
    const RsnNode& n = c.rsn.node(id);
    if (!n.is_mux() || !ctrl_ok(c, n.addr)) continue;
    if (c.pool.node(n.addr).op == CtrlOp::kShadowBit)
      out.push_back(
          {.node = id,
           .ctrl = n.addr,
           .message = "mux address is a bare shadow bit without a TMR "
                      "voter; a single stuck-at locks the route "
                      "(§III-E-3)",
           .hint = "triplicate the shadow latches and vote per mux"});
  }
}

void rule_ft_spof(const Ctx& c, std::vector<Diagnostic>& out) {
  // Menger audit (paper §III-C) of the netlist's *abstract* dataflow graph:
  // scan muxes are contracted away (an address fault still forwards one of
  // the two data inputs, so a mux is not a total-failure vertex in the
  // paper's fault model), and so are the address registers the synthesis
  // splices in series (accepted local single points of failure by
  // construction).  On the contracted graph the mux redundancy shows up as
  // in-degree >= 2 and connectivity_violations() means what §III-C means.
  if (!c.refs_ok) return;
  const std::size_t n = c.rsn.num_nodes();
  const auto exempt = [&](NodeId v) {
    const RsnNode& node = c.rsn.node(v);
    return node.is_mux() ||
           (node.is_segment() && node.role == SegRole::kAddressRegister);
  };
  // expand(v): the non-exempt vertices feeding v through exempt chains.
  std::vector<std::vector<NodeId>> memo(n);
  std::vector<std::uint8_t> state(n, 0);  // 0 = new, 1 = visiting, 2 = done
  const std::function<const std::vector<NodeId>&(NodeId)> expand =
      [&](NodeId v) -> const std::vector<NodeId>& {
    if (state[v] == 2) return memo[v];
    if (state[v] == 1) return memo[v];  // cycle: scan-cycle reports it
    state[v] = 1;
    std::vector<NodeId> srcs;
    if (!exempt(v)) {
      srcs.push_back(v);
    } else {
      for (NodeId d : c.pred[v])
        for (NodeId s : expand(d)) srcs.push_back(s);
      std::sort(srcs.begin(), srcs.end());
      srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
    }
    memo[v] = std::move(srcs);
    state[v] = 2;
    return memo[v];
  };
  std::vector<DfEdge> edges;
  for (NodeId v = 0; v < n; ++v) {
    if (exempt(v)) continue;
    for (NodeId d : c.pred[v])
      for (NodeId s : expand(d)) edges.push_back({s, v});
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const DataflowGraph g = DataflowGraph::from_edges(
      n, std::move(edges), c.rsn.primary_ins(), c.rsn.primary_outs());
  if (g.has_cycle()) return;  // already reported by scan-cycle
  for (NodeId v : g.connectivity_violations()) {
    if (exempt(v) || !c.rsn.node(v).is_segment()) continue;
    out.push_back(
        {.node = v,
         .message = "segment lacks two vertex-disjoint root->v and v->sink "
                    "paths: one element fault can disconnect it (§III-C)",
         .hint = "augment connectivity around this segment"});
  }
}

struct RsnRule {
  RuleInfo info;
  RsnRuleFn fn;
};

const std::vector<RsnRule>& rsn_rule_table() {
  static const std::vector<RsnRule> kRules = {
      {{"no-primary-in", "RSN must have a primary scan-in root",
        Severity::kError, RuleStage::kStructure, "SII-A"},
       rule_no_primary_in},
      {{"no-primary-out", "RSN must have a primary scan-out sink",
        Severity::kError, RuleStage::kStructure, "SII-A"},
       rule_no_primary_out},
      {{"dangling-scan-in", "segments and scan-outs need a scan-in driver",
        Severity::kError, RuleStage::kStructure, "SII-A"},
       rule_dangling_scan_in},
      {{"dangling-mux-input", "scan muxes need two wired data inputs",
        Severity::kError, RuleStage::kStructure, "SII-A"},
       rule_dangling_mux_input},
      {{"primary-out-drives", "primary scan-outs are sinks, not drivers",
        Severity::kError, RuleStage::kStructure, "SII-A"},
       rule_primary_out_drives},
      {{"mux-identical-inputs", "mux data inputs must be distinct",
        Severity::kError, RuleStage::kStructure, "SIII-D"},
       rule_mux_identical_inputs},
      {{"scan-cycle", "scan interconnect must be a DAG (cycle witness)",
        Severity::kError, RuleStage::kStructure, "SIII-B"},
       rule_scan_cycle},
      {{"unreachable-scan", "dead scan segment: unreachable from scan-in",
        Severity::kWarning, RuleStage::kStructure, "SIII-B"},
       rule_unreachable_scan},
      {{"dead-end-scan", "element never reaches a primary scan-out",
        Severity::kWarning, RuleStage::kStructure, "SIII-B"},
       rule_dead_end_scan},
      {{"unused-primary-in", "primary scan-in without consumers",
        Severity::kWarning, RuleStage::kStructure, "SII-A"},
       rule_unused_primary_in},
      {{"invalid-ctrl-ref", "control references must stay inside the pool",
        Severity::kError, RuleStage::kControl, "SII-A"},
       rule_invalid_ctrl_ref},
      {{"shadow-ref-no-shadow", "control may only read existing shadows",
        Severity::kError, RuleStage::kControl, "SII-A"},
       rule_shadow_ref_no_shadow},
      {{"shadow-ref-out-of-range", "shadow bit/replica indices in range",
        Severity::kError, RuleStage::kControl, "SII-A"},
       rule_shadow_ref_out_of_range},
      {{"const-false-select", "select predicates must be satisfiable",
        Severity::kWarning, RuleStage::kControl, "SII-B"},
       rule_const_false_select},
      {{"select-self-loop", "select must not deadlock on its own shadow",
        Severity::kWarning, RuleStage::kControl, "SIII-E"},
       rule_select_self_loop},
      {{"const-mux-addr", "mux addresses must be steerable",
        Severity::kWarning, RuleStage::kControl, "SII-B"},
       rule_const_mux_addr},
      {{"const-true-disable", "capture/update disables must be escapable",
        Severity::kWarning, RuleStage::kControl, "SII-B"},
       rule_const_true_disable},
      {{"tmr-voter-shape", "Maj3 voters vote three distinct replicas",
        Severity::kError, RuleStage::kSynthesis, "SIII-E-3"},
       rule_tmr_voter_shape},
      {{"tmr-voter-shared", "one voter instance per driven mux",
        Severity::kWarning, RuleStage::kSynthesis, "SIII-E-3"},
       rule_tmr_voter_shared},
      {{"select-term-stale", "hardened-select terms must match the netlist",
        Severity::kError, RuleStage::kSynthesis, "SIII-E-2"},
       rule_select_term_stale},
      {{"select-term-coverage", "hardened select covers every direction",
        Severity::kWarning, RuleStage::kSynthesis, "SIV-C"},
       rule_select_term_coverage},
      {{"select-term-unsat", "hardened-select terms must be satisfiable",
        Severity::kWarning, RuleStage::kSynthesis, "SIII-E-2"},
       rule_select_term_unsat},
      {{"ft-single-scan-port", "fault-tolerant RSNs duplicate scan ports",
        Severity::kWarning, RuleStage::kFaultTolerance, "SIII-E-4"},
       rule_ft_single_scan_port},
      {{"ft-untriplicated-address", "mux addresses voted under TMR",
        Severity::kWarning, RuleStage::kFaultTolerance, "SIII-E-3"},
       rule_ft_untriplicated_address},
      {{"ft-spof", "segments keep two vertex-disjoint access paths",
        Severity::kWarning, RuleStage::kFaultTolerance, "SIII-C"},
       rule_ft_spof},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// DataflowGraph rules.

using GraphRuleFn = void (*)(const DataflowGraph&, std::vector<Diagnostic>&);

void rule_df_no_root(const DataflowGraph& g, std::vector<Diagnostic>& out) {
  if (g.roots().empty())
    out.push_back({.message = "dataflow graph has no root vertex"});
}

void rule_df_no_sink(const DataflowGraph& g, std::vector<Diagnostic>& out) {
  if (g.sinks().empty())
    out.push_back({.message = "dataflow graph has no sink vertex"});
}

void rule_df_cycle(const DataflowGraph& g, std::vector<Diagnostic>& out) {
  auto cycle = g.find_cycle();
  if (!cycle.empty())
    out.push_back({.node = cycle.front(),
                   .message = strprintf("dataflow graph contains a cycle "
                                        "through %zu vertices",
                                        cycle.size()),
                   .witness = std::move(cycle)});
}

void rule_df_root_in_edges(const DataflowGraph& g,
                           std::vector<Diagnostic>& out) {
  for (NodeId r : g.roots())
    if (r < g.num_vertices() && !g.predecessors(r).empty())
      out.push_back({.node = r,
                     .message = "root vertex has incoming edges",
                     .hint = "roots model primary scan-ins (in-degree 0)"});
}

void rule_df_sink_out_edges(const DataflowGraph& g,
                            std::vector<Diagnostic>& out) {
  for (NodeId s : g.sinks())
    if (s < g.num_vertices() && !g.successors(s).empty())
      out.push_back({.node = s,
                     .message = "sink vertex has outgoing edges",
                     .hint = "sinks model primary scan-outs (out-degree 0)"});
}

void rule_df_unreachable(const DataflowGraph& g,
                         std::vector<Diagnostic>& out) {
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<NodeId> queue;
  for (NodeId r : g.roots())
    if (r < g.num_vertices() && !seen[r]) {
      seen[r] = 1;
      queue.push_back(r);
    }
  while (!queue.empty()) {
    const NodeId v = queue.back();
    queue.pop_back();
    for (NodeId s : g.successors(v))
      if (!seen[s]) {
        seen[s] = 1;
        queue.push_back(s);
      }
  }
  for (NodeId v = 0; v < g.num_vertices(); ++v)
    if (!seen[v])
      out.push_back({.node = v,
                     .message = "vertex unreachable from every root"});
}

struct GraphRule {
  RuleInfo info;
  GraphRuleFn fn;
};

const std::vector<GraphRule>& graph_rule_table() {
  static const std::vector<GraphRule> kRules = {
      {{"df-no-root", "dataflow graph needs a root", Severity::kError,
        RuleStage::kDataflow, "SIII-B"},
       rule_df_no_root},
      {{"df-no-sink", "dataflow graph needs a sink", Severity::kError,
        RuleStage::kDataflow, "SIII-B"},
       rule_df_no_sink},
      {{"df-cycle", "dataflow graph must be acyclic", Severity::kError,
        RuleStage::kDataflow, "SIII-B"},
       rule_df_cycle},
      {{"df-root-in-edges", "roots have in-degree 0", Severity::kWarning,
        RuleStage::kDataflow, "SIII-B"},
       rule_df_root_in_edges},
      {{"df-sink-out-edges", "sinks have out-degree 0", Severity::kWarning,
        RuleStage::kDataflow, "SIII-B"},
       rule_df_sink_out_edges},
      {{"df-unreachable", "all vertices reachable from roots",
        Severity::kWarning, RuleStage::kDataflow, "SIII-B"},
       rule_df_unreachable},
  };
  return kRules;
}

const std::vector<RuleInfo>& augment_rule_infos() {
  static const std::vector<RuleInfo> kInfos = {
      {"aug-edge-range", "augmenting edges stay inside the vertex set",
       Severity::kError, RuleStage::kAugment, "SIII-D"},
      {"aug-cycle", "the augmented graph stays acyclic", Severity::kError,
       RuleStage::kAugment, "SIII-D (eq. 5)"},
      {"aug-level-backward", "augmenting edges run level-forward",
       Severity::kWarning, RuleStage::kAugment, "SIII-D"},
      {"aug-low-in-degree", "in-degree >= 2 where satisfiable",
       Severity::kWarning, RuleStage::kAugment, "SIII-D (eq. 3)"},
      {"aug-low-out-degree", "out-degree >= 2 where satisfiable",
       Severity::kWarning, RuleStage::kAugment, "SIII-D (eq. 4)"},
  };
  return kInfos;
}

const RuleInfo& augment_info(const char* id) {
  for (const RuleInfo& info : augment_rule_infos())
    if (info.id == id) return info;
  FTRSN_CHECK_MSG(false, strprintf("unknown augment rule '%s'", id));
}

void stamp(std::vector<Diagnostic>& out, std::size_t from,
           const RuleInfo& info, Severity severity) {
  for (std::size_t i = from; i < out.size(); ++i) {
    out[i].rule = info.id;
    out[i].severity = severity;
  }
}

}  // namespace

const std::vector<RuleInfo>& LintRunner::rules() {
  static const std::vector<RuleInfo> kAll = [] {
    std::vector<RuleInfo> all;
    for (const RsnRule& r : rsn_rule_table()) all.push_back(r.info);
    for (const GraphRule& r : graph_rule_table()) all.push_back(r.info);
    for (const RuleInfo& r : augment_rule_infos()) all.push_back(r);
    return all;
  }();
  return kAll;
}

namespace {

bool rule_enabled(const LintOptions& opts, const RuleInfo& info) {
  const auto it = opts.enabled.find(info.id);
  if (it != opts.enabled.end()) return it->second;
  if (info.stage == RuleStage::kFaultTolerance) return opts.ft_rules;
  return true;
}

Severity rule_severity(const LintOptions& opts, const RuleInfo& info) {
  const auto it = opts.severity.find(info.id);
  return it != opts.severity.end() ? it->second : info.severity;
}

/// "lint.rule.<id>" span names, parallel to `table`, built once so an
/// untraced run allocates nothing for them.
template <typename Rule>
const std::vector<std::string>& rule_spans(const std::vector<Rule>& table) {
  static const std::vector<std::string> kSpans = [&] {
    std::vector<std::string> spans;
    for (const Rule& rule : table) spans.push_back("lint.rule." + rule.info.id);
    return spans;
  }();
  return kSpans;
}

}  // namespace

std::vector<Diagnostic> LintRunner::run(const Rsn& rsn) const {
  const Ctx ctx = make_ctx(rsn, options_);
  const std::vector<RsnRule>& table = rsn_rule_table();
  const std::vector<std::string>& spans = rule_spans(table);
  std::vector<Diagnostic> out;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const RsnRule& rule = table[i];
    if (!rule_enabled(options_, rule.info)) continue;
    OBS_SPAN(spans[i]);
    const std::size_t from = out.size();
    rule.fn(ctx, out);
    stamp(out, from, rule.info, rule_severity(options_, rule.info));
  }
  return out;
}

std::vector<Diagnostic> LintRunner::run(const DataflowGraph& g) const {
  const std::vector<GraphRule>& table = graph_rule_table();
  const std::vector<std::string>& spans = rule_spans(table);
  std::vector<Diagnostic> out;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const GraphRule& rule = table[i];
    if (!rule_enabled(options_, rule.info)) continue;
    OBS_SPAN(spans[i]);
    const std::size_t from = out.size();
    rule.fn(g, out);
    stamp(out, from, rule.info, rule_severity(options_, rule.info));
  }
  return out;
}

std::vector<Diagnostic> lint_rsn(const Rsn& rsn, const LintOptions& opts) {
  OBS_SPAN("lint.rsn");
  return LintRunner(opts).run(rsn);
}

std::vector<Diagnostic> lint_dataflow(const DataflowGraph& g,
                                      const LintOptions& opts) {
  return LintRunner(opts).run(g);
}

std::vector<Diagnostic> lint_augmentation(
    const DataflowGraph& g, const std::vector<DfEdge>& added,
    const std::vector<bool>& target_allowed) {
  detail::count_full_recompute();  // AugmentLintCache is the incremental path
  std::vector<Diagnostic> out;
  const std::size_t n = g.num_vertices();

  // aug-edge-range: aggregate every out-of-range endpoint.
  std::vector<DfEdge> valid;
  {
    const std::size_t from = out.size();
    for (std::size_t i = 0; i < added.size(); ++i) {
      const DfEdge& e = added[i];
      if (e.from >= n || e.to >= n) {
        out.push_back({.message = strprintf(
                           "augmenting edge #%zu (%u -> %u) leaves the "
                           "%zu-vertex graph",
                           i, e.from, e.to, n)});
      } else {
        valid.push_back(e);
      }
    }
    const RuleInfo& info = augment_info("aug-edge-range");
    stamp(out, from, info, info.severity);
  }

  std::vector<DfEdge> combined = g.edges();
  combined.insert(combined.end(), valid.begin(), valid.end());
  const DataflowGraph augmented = DataflowGraph::from_edges(
      n, std::move(combined), g.roots(), g.sinks());

  {
    const std::size_t from = out.size();
    auto cycle = augmented.find_cycle();
    if (!cycle.empty())
      out.push_back({.node = cycle.front(),
                     .message = strprintf("augmenting edges close a cycle "
                                          "through %zu vertices (eq. 5 "
                                          "violated)",
                                          cycle.size()),
                     .hint = "drop or re-anchor one edge of the witness",
                     .witness = std::move(cycle)});
    const RuleInfo& info = augment_info("aug-cycle");
    stamp(out, from, info, info.severity);
  }

  if (g.has_cycle()) return out;  // level structure undefined below
  const std::vector<int> level = g.levels();

  {
    const std::size_t from = out.size();
    for (const DfEdge& e : valid)
      if (level[e.to] < level[e.from])
        out.push_back(
            {.node = e.from,
             .message = strprintf("augmenting edge %u -> %u runs level-"
                                  "backward (%d -> %d); potential edges "
                                  "must satisfy level(j) >= level(i)",
                                  e.from, e.to, level[e.from], level[e.to]),
             .witness = {e.from, e.to}});
    const RuleInfo& info = augment_info("aug-level-backward");
    stamp(out, from, info, info.severity);
  }

  // Degree targets (eqs. 3-4): required degree is capped by what the level
  // structure (and the target policy) makes satisfiable in principle.
  std::vector<char> is_root(n, 0), is_sink(n, 0);
  for (NodeId r : g.roots()) is_root[r] = 1;
  for (NodeId s : g.sinks()) is_sink[s] = 1;
  const auto allowed = [&](NodeId v) {
    return target_allowed.empty() ||
           (v < target_allowed.size() && target_allowed[v]);
  };
  {
    const std::size_t from = out.size();
    for (NodeId v = 0; v < n; ++v) {
      if (is_root[v] || !allowed(v)) continue;
      int possible = 0;
      for (NodeId u = 0; u < n && possible < 2; ++u)
        if (u != v && !is_sink[u] && level[u] <= level[v]) ++possible;
      const int indeg = static_cast<int>(augmented.predecessors(v).size());
      if (indeg < std::min(2, possible))
        out.push_back(
            {.node = v,
             .message = strprintf("in-degree %d after augmentation (eq. 3 "
                                  "requires 2; %d source(s) available)",
                                  indeg, possible)});
    }
    const RuleInfo& info = augment_info("aug-low-in-degree");
    stamp(out, from, info, info.severity);
  }
  {
    const std::size_t from = out.size();
    for (NodeId v = 0; v < n; ++v) {
      if (is_sink[v]) continue;
      int possible = 0;
      for (NodeId u = 0; u < n && possible < 2; ++u)
        if (u != v && !is_root[u] && level[u] >= level[v] &&
            (allowed(u) || std::find(g.successors(v).begin(),
                                     g.successors(v).end(),
                                     u) != g.successors(v).end()))
          ++possible;
      const int outdeg = static_cast<int>(augmented.successors(v).size());
      if (outdeg < std::min(2, possible))
        out.push_back(
            {.node = v,
             .message = strprintf("out-degree %d after augmentation (eq. 4 "
                                  "requires 2; %d target(s) available)",
                                  outdeg, possible)});
    }
    const RuleInfo& info = augment_info("aug-low-out-degree");
    stamp(out, from, info, info.severity);
  }
  return out;
}

}  // namespace ftrsn::lint
