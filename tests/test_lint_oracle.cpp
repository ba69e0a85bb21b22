// Differential tests of the exact cone-analysis and incremental-lint
// machinery.  Two properties are exercised at random:
//
//  * The ConeOracle engine agrees with two independent references: a
//    brute-force evaluation over every atom assignment (small cones) and a
//    direct SAT call on the Tseitin-encoded cone with none of the engine's
//    simulation, screening or probe steps.  For hundreds of random control
//    cones all three return the same const-0 / const-1 / satisfiable
//    verdicts, with and without forced atoms.
//
//  * AugmentLintCache tracks lint_augmentation: over randomized
//    add/remove/assign sequences on random DAGs, the incrementally
//    maintained diagnostics must equal the from-scratch analysis byte for
//    byte (rule, node, message, hint, witness).
//
// Iteration counts scale with the FTRSN_ORACLE_ITERS environment variable
// (a multiplier in percent; 100 = default counts) so CI can run deeper
// soaks without a recompile.  These tests are labeled `oracle` in ctest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <vector>

#include "augment/augment.hpp"
#include "graph/dataflow.hpp"
#include "lint/augment_cache.hpp"
#include "lint/cone_oracle.hpp"
#include "lint/lint.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "util/common.hpp"

namespace ftrsn {
namespace {

using lint::ConeOracle;
using lint::Diagnostic;

std::size_t scaled(std::size_t base) {
  const char* env = std::getenv("FTRSN_ORACLE_ITERS");
  if (env == nullptr || *env == '\0') return base;
  const long pct = std::strtol(env, nullptr, 10);
  if (pct <= 0) return base;
  return base * static_cast<std::size_t>(pct) / 100;
}

// --- random cones -----------------------------------------------------------

/// A random expression over `num_atoms` port-select atoms: starts from the
/// atoms and the constants, then stacks random gates whose operands are
/// drawn from everything built so far (so sharing/reconvergence is common).
CtrlRef random_cone(CtrlPool& pool, Rng& rng, int num_atoms, int num_gates) {
  std::vector<CtrlRef> refs{kCtrlFalse, kCtrlTrue};
  for (int i = 0; i < num_atoms; ++i)
    refs.push_back(pool.port_select_input(static_cast<std::uint16_t>(i)));
  const auto any = [&] {
    return refs[static_cast<std::size_t>(rng.next_below(refs.size()))];
  };
  for (int i = 0; i < num_gates; ++i) {
    CtrlRef r = kCtrlInvalid;
    switch (rng.next_below(4)) {
      case 0: r = pool.mk_not(any()); break;
      case 1: r = pool.mk_and(any(), any()); break;
      case 2: r = pool.mk_or(any(), any()); break;
      case 3: r = pool.mk_maj3(any(), any(), any()); break;
    }
    refs.push_back(r);
  }
  return refs.back();
}

constexpr int kTristateX = 2;  ///< three-valued "unknown"

/// Three-valued bottom-up evaluation over `cone` (ascending ref order);
/// atoms not in `forced` evaluate to unknown.  Returns 0, 1 or kTristateX.
int tristate_eval(const CtrlPool& pool, const std::vector<CtrlRef>& cone,
                  CtrlRef root, const std::map<CtrlRef, int>& forced) {
  std::map<CtrlRef, int> val;
  for (CtrlRef r : cone) {
    const CtrlNode& n = pool.node(r);
    const auto kid = [&](int i) { return val.at(n.kid[i]); };
    int v = kTristateX;
    switch (n.op) {
      case CtrlOp::kConst:
        v = n.bit ? 1 : 0;
        break;
      case CtrlOp::kEnable:
      case CtrlOp::kPortSel:
      case CtrlOp::kShadowBit: {
        const auto it = forced.find(r);
        v = it == forced.end() ? kTristateX : it->second;
        break;
      }
      case CtrlOp::kNot: {
        const int a = kid(0);
        v = a == kTristateX ? kTristateX : 1 - a;
        break;
      }
      case CtrlOp::kAnd: {
        const int a = kid(0), b = kid(1);
        v = (a == 0 || b == 0) ? 0 : (a == 1 && b == 1) ? 1 : kTristateX;
        break;
      }
      case CtrlOp::kOr: {
        const int a = kid(0), b = kid(1);
        v = (a == 1 || b == 1) ? 1 : (a == 0 && b == 0) ? 0 : kTristateX;
        break;
      }
      case CtrlOp::kMaj3: {
        int ones = 0, zeros = 0;
        for (int i = 0; i < 3; ++i) {
          if (kid(i) == 1) ++ones;
          if (kid(i) == 0) ++zeros;
        }
        v = ones >= 2 ? 1 : zeros >= 2 ? 0 : kTristateX;
        break;
      }
    }
    val[r] = v;
  }
  return val.at(root);
}

/// Brute force over every assignment of the cone's unforced atoms via
/// tristate_eval with a fully forced atom map — the simplest possible
/// reference.
bool brute_satisfiable(const CtrlPool& pool, CtrlRef root, bool value,
                       const std::map<CtrlRef, int>& forced = {}) {
  const std::vector<CtrlRef> cone = lint::cone_of(pool, root);
  std::vector<CtrlRef> atoms;
  for (CtrlRef r : cone)
    if (lint::is_ctrl_atom(pool.node(r).op) && forced.count(r) == 0)
      atoms.push_back(r);
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << atoms.size()); ++m) {
    std::map<CtrlRef, int> full = forced;
    for (std::size_t i = 0; i < atoms.size(); ++i)
      full[atoms[i]] = static_cast<int>((m >> i) & 1);
    if (tristate_eval(pool, cone, root, full) == (value ? 1 : 0)) return true;
  }
  return false;
}

/// One SAT call on the Tseitin-encoded cone, with none of the engine's
/// simulation, screening or probe steps in front of it.
bool sat_reference(const CtrlPool& pool, CtrlRef root, bool value,
                   const std::map<CtrlRef, int>& forced = {}) {
  sat::Solver solver;
  sat::CnfEncoder encoder(pool, solver);
  const sat::Lit root_lit = encoder.encode(root);
  for (const auto& [atom, v] : forced) {
    const sat::Lit a = encoder.encode(atom);
    solver.add_clause({v ? a : ~a});
  }
  solver.add_clause({value ? root_lit : ~root_lit});
  return solver.solve() == sat::SolveResult::kSat;
}

TEST(LintOracle, BackendsAgreeOnRandomCones) {
  Rng rng(0x5eed0001);
  const std::size_t iters = scaled(500);
  for (std::size_t it = 0; it < iters; ++it) {
    CtrlPool pool;
    const int num_atoms = static_cast<int>(rng.next_range(1, 10));
    const int num_gates = static_cast<int>(rng.next_range(1, 24));
    const CtrlRef root = random_cone(pool, rng, num_atoms, num_gates);

    ConeOracle oracle(pool);
    for (const bool value : {false, true}) {
      const bool expect = brute_satisfiable(pool, root, value);
      EXPECT_EQ(sat_reference(pool, root, value), expect)
          << "SAT reference disagrees with brute force (iter " << it << ")";
      EXPECT_EQ(oracle.satisfiable(root, value), expect)
          << "engine disagrees with brute force (iter " << it << ")";
      // The derived const verdict is the complement of the other value's
      // satisfiability.
      EXPECT_EQ(oracle.provably_const(root, !value), !expect);
    }
  }
}

TEST(LintOracle, BackendsAgreeUnderForcedAtoms) {
  Rng rng(0x5eed0002);
  const std::size_t iters = scaled(200);
  for (std::size_t it = 0; it < iters; ++it) {
    CtrlPool pool;
    const int num_atoms = static_cast<int>(rng.next_range(2, 8));
    const CtrlRef root = random_cone(pool, rng, num_atoms,
                                     static_cast<int>(rng.next_range(1, 16)));
    // Force a random subset of the atoms, as the select-bootstrap deadlock
    // check does with a segment's own reset-time shadow bits.
    std::map<CtrlRef, int> forced;
    for (int i = 0; i < num_atoms; ++i)
      if (rng.next_bool())
        forced[pool.port_select_input(static_cast<std::uint16_t>(i))] =
            static_cast<int>(rng.next_below(2));

    ConeOracle oracle(pool);
    for (const bool value : {false, true}) {
      const bool expect = sat_reference(pool, root, value, forced);
      EXPECT_EQ(brute_satisfiable(pool, root, value, forced), expect)
          << "brute force vs SAT reference under forced atoms (iter " << it
          << ")";
      EXPECT_EQ(oracle.satisfiable(root, value, forced), expect)
          << "engine vs SAT reference under forced atoms (iter " << it << ")";
    }
  }
}

// --- simulation stage soundness ----------------------------------------------

/// A random pool over shadow atoms with TMR replicas (3 replicas of each
/// (segment, bit)), port selects and majority voters over replica triples,
/// like a hardened select pool.  Returns every node built, atoms first.
std::vector<CtrlRef> random_replicated_pool(CtrlPool& pool, Rng& rng,
                                            std::vector<CtrlRef>& atoms) {
  std::vector<CtrlRef> refs{kCtrlFalse, kCtrlTrue};
  const int segs = static_cast<int>(rng.next_range(1, 4));
  for (int s = 0; s < segs; ++s) {
    const int bits = static_cast<int>(rng.next_range(1, 2));
    for (int b = 0; b < bits; ++b) {
      std::vector<CtrlRef> rep;
      for (int k = 0; k < 3; ++k)
        rep.push_back(pool.shadow_bit(static_cast<NodeId>(s),
                                      static_cast<std::uint16_t>(b),
                                      static_cast<std::uint8_t>(k)));
      atoms.insert(atoms.end(), rep.begin(), rep.end());
      refs.insert(refs.end(), rep.begin(), rep.end());
      refs.push_back(pool.mk_maj3(rep[0], rep[1], rep[2],
                                  static_cast<std::uint16_t>(s * 8 + b)));
    }
  }
  for (int i = static_cast<int>(rng.next_range(0, 2)); i > 0; --i) {
    atoms.push_back(pool.port_select_input(static_cast<std::uint16_t>(i)));
    refs.push_back(atoms.back());
  }
  const auto any = [&] {
    return refs[static_cast<std::size_t>(rng.next_below(refs.size()))];
  };
  const int gates = static_cast<int>(rng.next_range(1, 30));
  for (int i = 0; i < gates; ++i) {
    switch (rng.next_below(5)) {
      case 0: refs.push_back(pool.mk_not(any())); break;
      case 1: refs.push_back(pool.mk_and(any(), any())); break;
      case 2: refs.push_back(pool.mk_or(any(), any())); break;
      case 3: refs.push_back(pool.mk_maj3(any(), any(), any())); break;
      case 4:  // a wide AND: rarely true, so simulation often misses it
        refs.push_back(pool.mk_and(pool.mk_and(any(), any()),
                                   pool.mk_and(any(), any())));
        break;
    }
  }
  return refs;
}

/// Concrete value of `root` in simulation lane `lane` of `oracle`: every
/// atom takes its own pattern bit, the gates are evaluated here from the
/// pool's definition, independently of the oracle's word arithmetic.
bool replay_lane(const CtrlPool& pool, ConeOracle& oracle, CtrlRef root,
                 std::size_t lane) {
  const std::vector<CtrlRef> cone = lint::cone_of(pool, root);
  std::map<CtrlRef, int> val;
  for (const CtrlRef r : cone)
    if (lint::is_ctrl_atom(pool.node(r).op))
      val[r] = static_cast<int>(
          (oracle.sim_word(r, lane / 64) >> (lane % 64)) & 1);
  return tristate_eval(pool, cone, root, val) == 1;
}

TEST(LintOracle, SimulationWitnessesAreSoundAndAutoMatchesExact) {
  Rng rng(0x5eed0007);
  const std::size_t iters = scaled(300);
  const std::size_t lanes = ConeOracle::kSimWords * 64;
  std::size_t witnessed = 0, exact_sat = 0, unsat = 0;
  for (std::size_t it = 0; it < iters; ++it) {
    CtrlPool pool;
    std::vector<CtrlRef> atoms;
    const std::vector<CtrlRef> refs = random_replicated_pool(pool, rng, atoms);
    ConeOracle aut(pool);

    // Replicas of one shadow bit share their pattern words.
    for (const CtrlRef a : atoms)
      for (const CtrlRef b : atoms) {
        const CtrlNode& x = pool.node(a);
        const CtrlNode& y = pool.node(b);
        if (x.op == CtrlOp::kShadowBit && y.op == CtrlOp::kShadowBit &&
            x.seg == y.seg && x.bit == y.bit)
          for (std::size_t w = 0; w < ConeOracle::kSimWords; ++w)
            ASSERT_EQ(aut.sim_word(a, w), aut.sim_word(b, w));
      }

    for (int q = 0; q < 8; ++q) {
      const CtrlRef root =
          refs[static_cast<std::size_t>(rng.next_below(refs.size()))];
      const bool value = rng.next_bool();
      // Random forcing: usually consistent across replicas (a reset
      // value), sometimes not, sometimes none.
      std::map<CtrlRef, int> forced;
      const int mode = static_cast<int>(rng.next_below(4));
      for (const CtrlRef a : atoms) {
        if (mode == 0 || rng.next_below(3) != 0) continue;
        const CtrlNode& n = pool.node(a);
        forced[a] = mode == 3 ? static_cast<int>(rng.next_below(2))
                              : static_cast<int>((n.seg + n.bit + mode) & 1);
      }

      // Every witness lane, replayed concretely, honours the query.
      bool has_witness = false;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const auto bit = [&](CtrlRef r) {
          return static_cast<int>(
              (aut.sim_word(r, lane / 64) >> (lane % 64)) & 1);
        };
        bool ok = bit(root) == static_cast<int>(value);
        for (const auto& [a, v] : forced) ok = ok && bit(a) == v;
        has_witness = has_witness || ok;
        if (ok)
          ASSERT_EQ(replay_lane(pool, aut, root, lane), value)
              << "simulated lane " << lane << " is not a real witness (iter "
              << it << ")";
      }

      const bool expect = sat_reference(pool, root, value, forced);
      EXPECT_EQ(aut.satisfiable(root, value, forced), expect)
          << "engine vs SAT reference (iter " << it << ", query " << q
          << ")";
      (has_witness ? witnessed : expect ? exact_sat : unsat) += 1;
    }
  }
  // Every path was taken: simulation witnesses, satisfiable queries only
  // the later steps could prove (wide ANDs), and unsatisfiable ones.
  EXPECT_GT(witnessed, 0u);
  EXPECT_GT(exact_sat, 0u);
  EXPECT_GT(unsat, 0u);
}

// --- which step decides ----------------------------------------------------

TEST(LintOracle, ProbeDecidesTreeConesWithoutSat) {
  // Random tree-shaped cones (every atom and gate read once) built from
  // wide ANDs, so simulation rarely witnesses the rare value, with a few
  // atoms forced so that some subtrees are definite.  No unknown node is
  // shared, so the probe's desires never conflict: screening or the probe
  // decides every query and SAT is never called.
  Rng rng(0x5eed0008);
  const std::size_t iters = scaled(100);
  lint::reset_lint_stats();
  for (std::size_t it = 0; it < iters; ++it) {
    CtrlPool pool;
    std::uint16_t next_atom = 0;
    const auto atom = [&] { return pool.port_select_input(next_atom++); };
    std::vector<CtrlRef> frontier;
    const int leaves = static_cast<int>(rng.next_range(2, 6));
    for (int i = 0; i < leaves; ++i) {
      CtrlRef wide = atom();
      for (int k = static_cast<int>(rng.next_range(8, 14)); k > 0; --k)
        wide = pool.mk_and(wide, atom());
      frontier.push_back(rng.next_bool() ? wide : pool.mk_not(wide));
    }
    while (frontier.size() > 1) {
      const CtrlRef a = frontier.back();
      frontier.pop_back();
      const CtrlRef b = frontier.back();
      frontier.pop_back();
      CtrlRef g = kCtrlInvalid;
      switch (rng.next_below(3)) {
        case 0: g = pool.mk_and(a, b); break;
        case 1: g = pool.mk_or(a, b); break;
        case 2: g = pool.mk_maj3(a, b, atom()); break;
      }
      frontier.insert(frontier.begin(), rng.next_bool() ? g : pool.mk_not(g));
    }
    const CtrlRef root = frontier.front();
    std::map<CtrlRef, int> forced;
    for (std::uint16_t i = 0; i < next_atom; ++i)
      if (rng.next_below(8) == 0)
        forced[pool.port_select_input(i)] = static_cast<int>(rng.next_below(2));
    ConeOracle oracle(pool);
    for (const bool value : {false, true})
      EXPECT_EQ(oracle.satisfiable(root, value, forced),
                sat_reference(pool, root, value, forced))
          << "iter " << it;
  }
  const lint::LintStats s = lint::lint_stats();
  EXPECT_EQ(s.cones_solved_sat, 0u);
  EXPECT_GT(s.cones_solved_tristate, 0u)
      << "simulation witnessed every query; the probe was never exercised";
}

TEST(LintOracle, ReconvergentUnsatisfiableConeReachesSat) {
  // x AND NOT x over a shared subterm: screening leaves the root unknown
  // and the probe's desires for x conflict, so only SAT can refute it.
  CtrlPool pool;
  const CtrlRef x =
      pool.mk_or(pool.port_select_input(0), pool.port_select_input(1));
  const CtrlRef root = pool.mk_and(x, pool.mk_not(x));
  lint::reset_lint_stats();
  ConeOracle oracle(pool);
  EXPECT_FALSE(oracle.satisfiable(root, true));
  EXPECT_TRUE(oracle.provably_const(root, false));  // memo hit
  const lint::LintStats s = lint::lint_stats();
  EXPECT_EQ(s.cones_solved_sat, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
}

// --- cone_of ----------------------------------------------------------------

TEST(LintOracle, ConeOfExactLimitIsReturnedInFull) {
  CtrlPool pool;
  // AND(p0, NOT(p1)) plus the two atoms: exactly 4 cone nodes, returned
  // complete and in ascending ref order.
  const CtrlRef p0 = pool.port_select_input(0);
  const CtrlRef p1 = pool.port_select_input(1);
  const CtrlRef np1 = pool.mk_not(p1);
  const CtrlRef root = pool.mk_and(p0, np1);
  std::vector<CtrlRef> expect{p0, p1, np1, root};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(lint::cone_of(pool, root), expect);
  EXPECT_EQ(lint::cone_of(pool, p0), std::vector<CtrlRef>{p0});
}

// --- incremental augmentation lint ------------------------------------------

/// A random base graph: mostly forward (acyclic) edges from a root chain,
/// occasionally a deliberate back edge so the cyclic-base path is covered.
DataflowGraph random_graph(Rng& rng, std::size_t n, bool allow_cyclic) {
  std::vector<DfEdge> edges;
  // A spine keeps every vertex reachable-ish and levels interesting.
  for (NodeId v = 0; v + 1 < n; ++v)
    edges.push_back({v, static_cast<NodeId>(v + 1)});
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j)
      if (rng.next_below(100) < 15) edges.push_back({i, j});
  if (allow_cyclic && rng.next_below(100) < 20 && n > 2)
    edges.push_back({static_cast<NodeId>(n - 2), 1});
  return DataflowGraph::from_edges(n, edges, {0},
                                   {static_cast<NodeId>(n - 1)});
}

bool same_diags(const std::vector<Diagnostic>& a,
                const std::vector<Diagnostic>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].rule != b[i].rule || a[i].severity != b[i].severity ||
        a[i].node != b[i].node || a[i].ctrl != b[i].ctrl ||
        a[i].message != b[i].message || a[i].hint != b[i].hint ||
        a[i].witness != b[i].witness)
      return false;
  return true;
}

TEST(LintOracle, AugmentCacheMatchesFromScratchLint) {
  Rng rng(0x5eed0003);
  const std::size_t sequences = scaled(100);
  for (std::size_t seq = 0; seq < sequences; ++seq) {
    const std::size_t n = static_cast<std::size_t>(rng.next_range(4, 12));
    const DataflowGraph g = random_graph(rng, n, /*allow_cyclic=*/true);
    std::vector<bool> allowed;
    if (rng.next_bool()) {
      allowed.resize(n);
      for (std::size_t v = 0; v < n; ++v) allowed[v] = rng.next_bool();
    }

    lint::AugmentLintCache cache(g, allowed);
    std::vector<DfEdge> mirror;
    const auto random_edge = [&] {
      // Mostly in-range (level-forward and not), sometimes out of range so
      // the aug-edge-range path is exercised.
      const NodeId hi = static_cast<NodeId>(n + (rng.next_below(8) == 0));
      return DfEdge{static_cast<NodeId>(rng.next_below(hi + 1)),
                    static_cast<NodeId>(rng.next_below(hi + 1))};
    };

    const std::size_t steps = static_cast<std::size_t>(rng.next_range(5, 20));
    for (std::size_t s = 0; s < steps; ++s) {
      switch (rng.next_below(3)) {
        case 0:
          cache.add_edge(random_edge());
          break;
        case 1: {
          if (cache.added().empty()) {
            cache.add_edge(random_edge());
            break;
          }
          const std::size_t i = static_cast<std::size_t>(
              rng.next_below(cache.added().size()));
          cache.remove_edge(cache.added()[i]);
          break;
        }
        case 2: {
          std::vector<DfEdge> target;
          const std::size_t m =
              static_cast<std::size_t>(rng.next_below(6));
          for (std::size_t i = 0; i < m; ++i) target.push_back(random_edge());
          cache.assign(target);
          break;
        }
      }
      mirror = cache.added();
      const std::vector<Diagnostic> incr = cache.diagnostics();
      const std::vector<Diagnostic> full =
          lint::lint_augmentation(g, mirror, allowed);
      ASSERT_TRUE(same_diags(incr, full))
          << "incremental lint diverges (sequence " << seq << ", step " << s
          << ")\nincremental: " << lint::to_json(incr)
          << "\nfrom-scratch: " << lint::to_json(full);
    }
  }
}

TEST(LintOracle, AugmentCacheCheckingOracleAccepts) {
  // The retained from-scratch path: with check_with_full_recompute the
  // cache re-runs lint_augmentation on every diagnostics() call and aborts
  // on any divergence — a smoke test that the flag itself works.
  Rng rng(0x5eed0004);
  const DataflowGraph g = random_graph(rng, 8, /*allow_cyclic=*/false);
  lint::AugmentLintCache cache(g, {}, /*check_with_full_recompute=*/true);
  cache.add_edge({0, 5});
  cache.add_edge({3, 3});   // same-level: exercises the cycle DFS
  cache.add_edge({6, 2});   // level-backward
  EXPECT_NO_THROW(cache.diagnostics());
  cache.remove_edge({3, 3});
  EXPECT_NO_THROW(cache.diagnostics());
}

// --- perf counters ----------------------------------------------------------

TEST(LintOracle, FiftyEdgeSearchDoesOneFullRecompute) {
  Rng rng(0x5eed0005);
  const std::size_t n = 30;
  const DataflowGraph g = random_graph(rng, n, /*allow_cyclic=*/false);

  lint::reset_lint_stats();
  lint::AugmentLintCache cache(g);
  for (int i = 0; i < 50; ++i) {
    const NodeId from = static_cast<NodeId>(rng.next_below(n));
    const NodeId to = static_cast<NodeId>(rng.next_below(n));
    cache.add_edge({from, to});
    cache.same_level_cycle();  // what the engines poll per candidate flip
  }
  cache.diagnostics();
  const lint::LintStats& s = lint::lint_stats();
  EXPECT_LE(s.full_recomputes, 1u)
      << "a 50-edge search must not fall back to from-scratch lint";
  EXPECT_GE(s.incremental_updates, 50u);
}

TEST(LintOracle, AugmentEngineUsesIncrementalCycleChecks) {
  // End to end: the flow engine's candidate search maintains one
  // AugmentLintCache (one full recompute) and feeds every edge flip
  // through it, rather than re-linting from scratch per probe.
  Rng rng(0x5eed0006);
  const DataflowGraph g = random_graph(rng, 16, /*allow_cyclic=*/false);
  lint::reset_lint_stats();
  const AugmentResult r = augment_connectivity(g);
  const lint::LintStats& s = lint::lint_stats();
  EXPECT_FALSE(r.added_edges.empty());
  EXPECT_LE(s.full_recomputes, 2u);  // engine cache + final audit
}

}  // namespace
}  // namespace ftrsn
