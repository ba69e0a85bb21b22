// Exact control-cone analysis for the lint rules.
//
// The cone-based rules (const-false-select, const-mux-addr, the disable
// rules, select-term satisfiability and the select-bootstrap deadlock
// check) ask the same three questions about a control expression:
//
//   * is it provably constant 0/1 under every atom assignment?
//   * is it satisfiable (some assignment makes it 0/1)?
//   * given forced values for some atoms (e.g. a segment's own shadow bits
//     at reset), is it provably constant for every completion?
//
// The ConeOracle answers them *exactly for cones of any size* with one
// chain of deciders (DESIGN.md §5c): a memo, a simulation witness (one
// bottom-up pass evaluates the whole pool under a fixed set of random
// patterns; a pattern in which the root takes the asked value and the
// forced atoms theirs proves "satisfiable"), a tristate screening sweep
// whose definite root decides the query, a directed satisfiability probe,
// and finally the CDCL SAT solver on the Tseitin-encoded cone (sat/cnf.hpp,
// the same substrate the paper uses for scan-path existence).  Only SAT
// ever answers "unsatisfiable" for a root the screening leaves unknown.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "rsn/ctrl.hpp"

namespace ftrsn::lint {

/// Counters of the analysis machinery, for `rsn-lint --lint-stats` and the
/// perf-regression tests.  Since the obs subsystem landed these are a
/// *snapshot* of the process-wide `lint.*` obs counters (obs/obs.hpp), so
/// the same numbers appear in the run report; reset explicitly between
/// measurements.
struct LintStats {
  std::uint64_t cones_solved_sat = 0;       ///< oracle queries decided by SAT
  /// ... by the screening sweep or the directed probe, without SAT.  (The
  /// name predates the removal of the exhaustive enumerator; e2ebench's
  /// `lint.cones_solved` and the obs baseline read it as is.)
  std::uint64_t cones_solved_tristate = 0;
  std::uint64_t cones_sim_witnessed = 0;    ///< ... by a simulation witness
  std::uint64_t cache_hits = 0;             ///< oracle memo-cache hits
  std::uint64_t incremental_updates = 0;    ///< AugmentLintCache edge deltas
  std::uint64_t full_recomputes = 0;        ///< from-scratch augment analyses
};

/// Snapshot of the `lint.*` obs counters.
LintStats lint_stats();
/// Zeroes exactly the counters reported by `lint_stats()`.
void reset_lint_stats();

namespace detail {
/// Increment hooks for the AugmentLintCache / lint driver (the counter
/// handles live in cone_oracle.cpp).
void count_incremental_update();
void count_full_recompute();
}  // namespace detail

/// The expression cone of `r` (all transitively reachable pool nodes,
/// `r` included) in ascending ref order — a valid bottom-up evaluation
/// order, since interning appends parents after their children.
std::vector<CtrlRef> cone_of(const CtrlPool& pool, CtrlRef r);

/// True for the leaf ops the oracle treats as free variables.
bool is_ctrl_atom(CtrlOp op);

class ConeOracle {
 public:
  explicit ConeOracle(const CtrlPool& pool) : pool_(pool) {}

  /// Exists an assignment of the unforced atoms, extending `forced`
  /// (CtrlRef -> 0/1), under which the expression evaluates to `value`?
  bool satisfiable(CtrlRef root, bool value,
                   const std::map<CtrlRef, int>& forced = {});

  /// Does the expression evaluate to `want` under *every* assignment
  /// extending `forced`?
  bool provably_const(CtrlRef root, bool want,
                      const std::map<CtrlRef, int>& forced = {}) {
    return !satisfiable(root, !want, forced);
  }

  /// Simulation patterns per pool node: 4 words of 64 lanes.
  static constexpr std::size_t kSimWords = 4;

  /// Simulation word `w` of pool node `r` (bit k = its value in pattern
  /// 64w+k), simulating first if needed; the tests replay witness lanes.
  std::uint64_t sim_word(CtrlRef r, std::size_t w);

 private:
  /// Extends the simulation words to every pool node not simulated yet:
  /// the whole pool on the first query, nodes interned since on later ones.
  void simulate();
  /// Some simulated lane honours `forced` and gives `root` the value
  /// `value`: a concrete assignment, hence a proof of satisfiability.
  bool sim_witness(CtrlRef root, bool value,
                   const std::map<CtrlRef, int>& forced);
  /// Directed probe over `cone` (positions in `pos_`), whose screened
  /// tristate values `val` leave `root` unknown: picks atom values aimed
  /// at `value` and checks the pick by one concrete evaluation.  True is a
  /// proof of satisfiability; false proves nothing.
  bool probe(const std::vector<CtrlRef>& cone, std::vector<std::int8_t> val,
             CtrlRef root, bool value) const;
  bool solve_sat(CtrlRef root, bool value,
                 const std::map<CtrlRef, int>& forced) const;

  const CtrlPool& pool_;

  /// Pool-indexed scratch: position of each ref in the current query's
  /// cone, -1 outside it.  Reused across queries (entries are reset on
  /// exit) so cone membership and kid lookups are O(1) instead of a
  /// per-access binary search — the rules fire thousands of queries whose
  /// cones cover most of a many-thousand-node pool.
  mutable std::vector<std::int32_t> pos_;

  /// kSimWords words per pool node, node-major; replicas of one shadow
  /// bit share their words, so TMR voters see agreeing inputs.
  std::vector<std::uint64_t> sim_;

  /// Memo per (root, wanted value, forced assignment).
  using Key = std::pair<std::pair<CtrlRef, bool>,
                        std::vector<std::pair<CtrlRef, int>>>;
  std::map<Key, bool> cache_;
};

}  // namespace ftrsn::lint
