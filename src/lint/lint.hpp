// ftrsn_lint — rule-based static analysis of reconfigurable scan networks.
//
// The analyzer checks the structural invariants the synthesis flow (paper
// §III–IV) silently assumes — DAG-ness of the scan interconnect, unique
// drivers, reachable/co-reachable scan elements, well-formed control
// expressions, TMR voter shape, hardened-select term coverage — and reports
// *all* violations as a list of Diagnostics instead of aborting on the
// first one.  Three entry points cover the three core IRs:
//
//   * lint_rsn(rsn)          — structural Rsn + its hash-consed ctrl pool;
//                              also covers post-synthesis output when
//                              LintOptions::ft_rules is set (§III-E checks);
//   * lint_dataflow(g)       — DataflowGraph sanity (roots, sinks, cycles);
//   * lint_augmentation(...) — augmentation postconditions (paper eqs. 2-5):
//                              acyclicity, level-forward edges, in/out-
//                              degree >= 2 where satisfiable.
//
// Rules are registered in a fixed order and iterate nodes in id order, so
// the diagnostic list is deterministic for a given input.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "graph/dataflow.hpp"
#include "lint/diagnostic.hpp"
#include "rsn/rsn.hpp"

namespace ftrsn::lint {

/// Which IR a rule inspects (used to group the catalog in reports).
enum class RuleStage : std::uint8_t {
  kStructure,  ///< scan interconnect netlist
  kControl,    ///< hash-consed control expression pool
  kSynthesis,  ///< TMR voters / hardened-select metadata
  kFaultTolerance,  ///< post-synthesis §III-E requirements (opt-in)
  kDataflow,   ///< DataflowGraph invariants
  kAugment,    ///< augmentation postconditions
};

struct RuleInfo {
  std::string id;          ///< stable kebab-case rule id, e.g. "scan-cycle"
  std::string summary;     ///< one-line description
  Severity severity;       ///< default severity
  RuleStage stage;
  std::string paper_ref;   ///< paper section motivating the rule
};

struct LintOptions {
  /// Enable the post-synthesis fault-tolerance rules (stage
  /// kFaultTolerance): duplicated ports, TMR address coverage, residual
  /// single points of failure.  Off by default — they are meaningless (or
  /// expensive) on pre-synthesis networks.
  bool ft_rules = false;

  /// Per-rule enable override (id -> on/off); unknown ids are ignored.
  std::map<std::string, bool> enabled;

  /// Per-rule severity override (id -> severity).
  std::map<std::string, Severity> severity;
};

class LintRunner {
 public:
  LintRunner() = default;
  explicit LintRunner(LintOptions options) : options_(std::move(options)) {}

  /// The full rule catalog (all stages), in execution order.
  static const std::vector<RuleInfo>& rules();

  /// Runs all enabled Rsn rules; deterministic diagnostic order.
  std::vector<Diagnostic> run(const Rsn& rsn) const;

  /// Runs the DataflowGraph rules.
  std::vector<Diagnostic> run(const DataflowGraph& g) const;

  const LintOptions& options() const { return options_; }

 private:
  LintOptions options_;
};

/// Convenience wrappers around LintRunner.
std::vector<Diagnostic> lint_rsn(const Rsn& rsn, const LintOptions& opts = {});
std::vector<Diagnostic> lint_dataflow(const DataflowGraph& g,
                                      const LintOptions& opts = {});

/// Checks the result of connectivity augmentation: the augmented graph
/// (g + added) must stay acyclic, every added edge must run level-forward
/// w.r.t. the *original* levels, and every vertex must reach in/out-degree
/// >= 2 where the level structure (and `target_allowed`, if non-empty)
/// makes that satisfiable in principle.
std::vector<Diagnostic> lint_augmentation(
    const DataflowGraph& g, const std::vector<DfEdge>& added,
    const std::vector<bool>& target_allowed = {});

}  // namespace ftrsn::lint
