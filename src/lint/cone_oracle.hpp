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
// Historically these were answered best-effort by exhaustive tristate
// enumeration that gave up above 10 cone atoms — exactly the large
// ITC'02-derived networks of the paper's Table I got "cone too large;
// skip".  The ConeOracle answers them *exactly for cones of any size*: it
// keeps the cheap exhaustive enumerator for small cones and switches to
// the CDCL SAT solver (via the sat/cnf.hpp Tseitin encoder, the same
// substrate the paper uses for scan-path existence) above a configurable
// atom threshold.  Results are memoized per pool and query.
//
// The default kAuto backend puts a simulation stage in front of all that:
// one bottom-up pass evaluates the whole pool under a fixed set of random
// patterns, and a query whose root takes the asked value in some pattern
// that also honours `forced` is answered "satisfiable" from that witness
// alone.  Only queries without a witness reach the exact engines; the
// simulation never answers "unsatisfiable" (DESIGN.md §5c).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "rsn/ctrl.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace ftrsn::lint {

/// How cone queries are decided.
enum class ConeBackend : std::uint8_t {
  kTristate,  ///< exhaustive enumeration, whatever the cone size
  kSat,       ///< CDCL SAT on the Tseitin-encoded cone, always
  kAuto,      ///< simulation witnesses first; for the rest, enumeration
              ///< up to `max_atoms` free atoms, SAT above
};

/// Counters of the analysis machinery, for `rsn-lint --lint-stats` and the
/// perf-regression tests.  Since the obs subsystem landed these are a
/// *snapshot* of the process-wide `lint.*` obs counters (obs/obs.hpp), so
/// the same numbers appear in the run report; reset explicitly between
/// measurements.
struct LintStats {
  std::uint64_t cones_solved_sat = 0;       ///< oracle queries decided by SAT
  std::uint64_t cones_solved_tristate = 0;  ///< ... by exhaustive enumeration
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
/// order, since interning appends parents after their children.  Returns
/// empty when the cone has *more* than `max_nodes` nodes; a cone of
/// exactly `max_nodes` is returned in full (boundary pinned by tests).
std::vector<CtrlRef> cone_of(const CtrlPool& pool, CtrlRef r,
                             std::size_t max_nodes = static_cast<std::size_t>(-1));

/// True for the leaf ops the oracle treats as free variables.
bool is_ctrl_atom(CtrlOp op);

constexpr int kTristateX = 2;  ///< three-valued "unknown"

/// Three-valued bottom-up evaluation over `cone` (ascending ref order);
/// atoms not in `forced` evaluate to unknown.  Returns 0, 1 or kTristateX.
int tristate_eval(const CtrlPool& pool, const std::vector<CtrlRef>& cone,
                  CtrlRef root, const std::map<CtrlRef, int>& forced);

class ConeOracle {
 public:
  explicit ConeOracle(const CtrlPool& pool,
                      ConeBackend backend = ConeBackend::kAuto,
                      std::size_t max_atoms = 10)
      : pool_(pool), backend_(backend), max_atoms_(max_atoms) {}

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

  ConeBackend backend() const { return backend_; }
  std::size_t max_atoms() const { return max_atoms_; }

  /// Simulation patterns per pool node (kAuto only): 4 words of 64 lanes.
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
  /// `screened` holds the per-position tristate values of the screening
  /// pass; enumeration re-evaluates only its X positions.
  bool solve_enum(const std::vector<CtrlRef>& cone,
                  const std::vector<std::int8_t>& screened, CtrlRef root,
                  bool value) const;
  bool solve_sat(CtrlRef root, bool value,
                 const std::map<CtrlRef, int>& forced) const;

  const CtrlPool& pool_;
  ConeBackend backend_;
  std::size_t max_atoms_;

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
