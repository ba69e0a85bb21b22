// Tests of the ftrsn_lint static analyzer: one deliberately broken fixture
// per rule (asserting the exact rule id fires), clean networks with zero
// findings, the diagnostic emitters, and the runner configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "graph/dataflow.hpp"
#include "io/rsn_text.hpp"
#include "itc02/itc02.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "synth/synth.hpp"

namespace ftrsn {
namespace {

using lint::Diagnostic;
using lint::Severity;

bool fires(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

const Diagnostic& find(const std::vector<Diagnostic>& diags,
                       const std::string& rule) {
  for (const Diagnostic& d : diags)
    if (d.rule == rule) return d;
  throw std::logic_error("rule '" + rule + "' did not fire");
}

/// SI -> seg a -> seg b -> SO, both segments with shadows.
struct Net {
  Rsn rsn;
  NodeId si, a, b, so;
  Net() {
    si = rsn.add_primary_in("SI");
    a = rsn.add_segment("a", 2, si, /*has_shadow=*/true);
    b = rsn.add_segment("b", 2, a, /*has_shadow=*/true);
    so = rsn.add_primary_out("SO", b);
  }
};

// --- structure rules --------------------------------------------------------

TEST(Lint, NoPrimaryInAndOut) {
  Rsn rsn;
  rsn.add_segment("s", 1, kInvalidNode);
  const auto diags = lint::lint_rsn(rsn);
  EXPECT_TRUE(fires(diags, "no-primary-in"));
  EXPECT_TRUE(fires(diags, "no-primary-out"));
}

TEST(Lint, DanglingScanIn) {
  Net net;
  net.rsn.set_scan_in(net.b, kInvalidNode);
  const auto diags = lint::lint_rsn(net.rsn);
  EXPECT_EQ(find(diags, "dangling-scan-in").node, net.b);
  EXPECT_EQ(find(diags, "dangling-scan-in").severity, Severity::kError);
}

TEST(Lint, OutOfRangeScanIn) {
  Net net;
  net.rsn.set_scan_in(net.b, 999);
  EXPECT_TRUE(fires(lint::lint_rsn(net.rsn), "dangling-scan-in"));
}

TEST(Lint, DanglingMuxInput) {
  Net net;
  const NodeId m =
      net.rsn.add_mux("m", net.a, kInvalidNode, net.rsn.ctrl().enable_input());
  net.rsn.set_scan_in(net.so, m);
  EXPECT_EQ(find(lint::lint_rsn(net.rsn), "dangling-mux-input").node, m);
}

TEST(Lint, PrimaryOutDrives) {
  Net net;
  const NodeId tail = net.rsn.add_segment("tail", 1, net.so);
  const auto d = find(lint::lint_rsn(net.rsn), "primary-out-drives");
  EXPECT_EQ(d.node, tail);
  EXPECT_EQ(d.witness, std::vector<NodeId>{net.so});
}

TEST(Lint, MuxIdenticalInputs) {
  Net net;
  const NodeId m =
      net.rsn.add_mux("m", net.a, net.a, net.rsn.ctrl().enable_input());
  net.rsn.set_scan_in(net.so, m);
  EXPECT_EQ(find(lint::lint_rsn(net.rsn), "mux-identical-inputs").node, m);
}

TEST(Lint, ScanCycleWithWitness) {
  Net net;
  net.rsn.set_scan_in(net.a, net.b);  // a <- b while b <- a
  const auto d = find(lint::lint_rsn(net.rsn), "scan-cycle");
  EXPECT_EQ(d.severity, Severity::kError);
  // The witness walks the actual cycle: both segments, nothing else.
  EXPECT_EQ(d.witness.size(), 2u);
  EXPECT_TRUE(std::count(d.witness.begin(), d.witness.end(), net.a));
  EXPECT_TRUE(std::count(d.witness.begin(), d.witness.end(), net.b));
}

TEST(Lint, UnreachableAndDeadEnd) {
  Net net;
  // Island: x (dangling driver) -> y, never reaching SI or SO.
  const NodeId x = net.rsn.add_segment("x", 1, kInvalidNode);
  const NodeId y = net.rsn.add_segment("y", 1, x);
  const auto diags = lint::lint_rsn(net.rsn);
  EXPECT_TRUE(fires(diags, "unreachable-scan"));
  EXPECT_EQ(find(diags, "unreachable-scan").severity, Severity::kWarning);
  EXPECT_TRUE(fires(diags, "dead-end-scan"));
  const auto hit = [&](const std::string& rule, NodeId node) {
    return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
      return d.rule == rule && d.node == node;
    });
  };
  EXPECT_TRUE(hit("unreachable-scan", x));
  EXPECT_TRUE(hit("unreachable-scan", y));
  EXPECT_TRUE(hit("dead-end-scan", y));
}

TEST(Lint, UnusedPrimaryIn) {
  Net net;
  const NodeId si2 = net.rsn.add_primary_in("SI2");
  EXPECT_EQ(find(lint::lint_rsn(net.rsn), "unused-primary-in").node, si2);
}

// --- control rules ----------------------------------------------------------

TEST(Lint, InvalidCtrlRef) {
  Net net;
  net.rsn.set_select(net.a, 12345);
  const auto d = find(lint::lint_rsn(net.rsn), "invalid-ctrl-ref");
  EXPECT_EQ(d.node, net.a);
  EXPECT_EQ(d.ctrl, 12345);
}

TEST(Lint, ShadowRefNoShadow) {
  Net net;
  const NodeId plain = net.rsn.add_segment("plain", 1, net.b);
  net.rsn.set_scan_in(net.so, plain);
  net.rsn.set_select(plain, net.rsn.ctrl().shadow_bit(plain, 0));
  EXPECT_EQ(find(lint::lint_rsn(net.rsn), "shadow-ref-no-shadow").node, plain);
}

TEST(Lint, ShadowRefOutOfRange) {
  Net net;
  // Bit 7 of a 2-bit shadow register.
  net.rsn.set_select(net.b, net.rsn.ctrl().shadow_bit(net.a, 7));
  EXPECT_EQ(find(lint::lint_rsn(net.rsn), "shadow-ref-out-of-range").node,
            net.a);
  // Replica 2 while the segment has only one shadow copy.
  Net net2;
  net2.rsn.set_select(net2.b, net2.rsn.ctrl().shadow_bit(net2.a, 0, 2));
  EXPECT_TRUE(fires(lint::lint_rsn(net2.rsn), "shadow-ref-out-of-range"));
}

TEST(Lint, ConstFalseSelect) {
  Net net;
  CtrlPool& ctrl = net.rsn.ctrl();
  // EN & !EN is not folded by the pool's local rules; only exhaustive
  // evaluation over the cone proves it false.
  const CtrlRef en = ctrl.enable_input();
  net.rsn.set_select(net.a, ctrl.mk_and(en, ctrl.mk_not(en)));
  const auto d = find(lint::lint_rsn(net.rsn), "const-false-select");
  EXPECT_EQ(d.node, net.a);
  EXPECT_EQ(d.severity, Severity::kWarning);
  // The trivial constant is also caught.
  Net net2;
  net2.rsn.set_select(net2.a, kCtrlFalse);
  EXPECT_TRUE(fires(lint::lint_rsn(net2.rsn), "const-false-select"));
}

TEST(Lint, ConstFalseSelectLargeConeIsFlagged) {
  // 12 free atoms — beyond the historical 10-atom enumeration cutoff that
  // used to yield "cone too large; skip".  OR of per-atom contradictions
  // is provably false and must be flagged.
  Net net;
  CtrlPool& ctrl = net.rsn.ctrl();
  CtrlRef sel = kCtrlFalse;
  for (std::uint16_t i = 0; i < 12; ++i) {
    const CtrlRef p = ctrl.port_select_input(i);
    sel = ctrl.mk_or(sel, ctrl.mk_and(p, ctrl.mk_not(p)));
  }
  net.rsn.set_select(net.a, sel);
  const auto diags = lint::lint_rsn(net.rsn);
  EXPECT_EQ(find(diags, "const-false-select").node, net.a);
}

TEST(Lint, SatisfiableLargeConeIsNotFlagged) {
  // 13 atoms, every adjacent pair shared between two OR terms — a
  // reconvergent cone the old enumerator skipped and a naive tree argument
  // cannot decide.  It is satisfiable (all atoms 1), so const-false-select
  // must not fire.
  Net net;
  CtrlPool& ctrl = net.rsn.ctrl();
  CtrlRef sel = kCtrlTrue;
  for (std::uint16_t i = 0; i < 12; ++i)
    sel = ctrl.mk_and(sel, ctrl.mk_or(ctrl.port_select_input(i),
                                      ctrl.port_select_input(i + 1)));
  net.rsn.set_select(net.a, sel);
  EXPECT_FALSE(fires(lint::lint_rsn(net.rsn), "const-false-select"));
}

TEST(Lint, SelectSelfLoopDeadlock) {
  Net net;
  // Select of `a` requires a's own shadow bit, but reset seeds it to 0: the
  // segment can never be put on a scan path to flip its own bit.
  net.rsn.set_select(net.a, net.rsn.ctrl().shadow_bit(net.a, 0));
  EXPECT_EQ(find(lint::lint_rsn(net.rsn), "select-self-loop").node, net.a);
}

TEST(Lint, SelectSelfLoopSatisfiedByReset) {
  Net net;
  // Same dependency, but the reset value asserts the select: fine.
  net.rsn.set_select(net.a, net.rsn.ctrl().shadow_bit(net.a, 0));
  net.rsn.set_reset_shadow(net.a, 1);
  EXPECT_FALSE(fires(lint::lint_rsn(net.rsn), "select-self-loop"));
}

TEST(Lint, ConstMuxAddr) {
  Net net;
  const NodeId m = net.rsn.add_mux("m", net.a, net.b, kCtrlTrue);
  net.rsn.set_scan_in(net.so, m);
  const auto d = find(lint::lint_rsn(net.rsn), "const-mux-addr");
  EXPECT_EQ(d.node, m);
}

TEST(Lint, ConstTrueDisable) {
  Net net;
  CtrlPool& ctrl = net.rsn.ctrl();
  // EN | !EN is not folded by the pool; only cone analysis proves it true.
  const CtrlRef en = ctrl.enable_input();
  net.rsn.set_cap_dis(net.a, ctrl.mk_or(en, ctrl.mk_not(en)));
  const auto d = find(lint::lint_rsn(net.rsn), "const-true-disable");
  EXPECT_EQ(d.node, net.a);
  EXPECT_EQ(d.severity, Severity::kWarning);
  // The trivial constant fires too; an escapable disable does not.
  Net net2;
  net2.rsn.set_up_dis(net2.b, kCtrlTrue);
  EXPECT_TRUE(fires(lint::lint_rsn(net2.rsn), "const-true-disable"));
  Net net3;
  net3.rsn.set_cap_dis(net3.a, net3.rsn.ctrl().enable_input());
  EXPECT_FALSE(fires(lint::lint_rsn(net3.rsn), "const-true-disable"));
}

TEST(Lint, SelectTermUnsat) {
  Net net;
  CtrlPool& ctrl = net.rsn.ctrl();
  const CtrlRef en = ctrl.enable_input();
  net.rsn.add_select_term(net.a, net.b, ctrl.mk_and(en, ctrl.mk_not(en)));
  const auto d = find(lint::lint_rsn(net.rsn), "select-term-unsat");
  EXPECT_EQ(d.node, net.a);
  EXPECT_EQ(d.witness, std::vector<NodeId>{net.b});
  // A satisfiable term is fine.
  Net net2;
  net2.rsn.add_select_term(net2.a, net2.b, net2.rsn.ctrl().enable_input());
  EXPECT_FALSE(fires(lint::lint_rsn(net2.rsn), "select-term-unsat"));
}

// --- synthesis-metadata rules ----------------------------------------------

TEST(Lint, TmrVoterShape) {
  Net net;
  CtrlPool& ctrl = net.rsn.ctrl();
  net.rsn.set_shadow_replicas(net.a, 3);
  // Voter with a duplicated replica input.
  const CtrlRef r0 = ctrl.shadow_bit(net.a, 0, 0);
  const CtrlRef r1 = ctrl.shadow_bit(net.a, 0, 1);
  net.rsn.set_select(net.a, ctrl.mk_maj3(r0, r0, r1));
  EXPECT_TRUE(fires(lint::lint_rsn(net.rsn), "tmr-voter-shape"));
  // Voter mixing two different registers.
  Net net2;
  CtrlPool& c2 = net2.rsn.ctrl();
  net2.rsn.set_shadow_replicas(net2.a, 3);
  net2.rsn.set_shadow_replicas(net2.b, 3);
  net2.rsn.set_select(net2.a, c2.mk_maj3(c2.shadow_bit(net2.a, 0, 0),
                                         c2.shadow_bit(net2.a, 0, 1),
                                         c2.shadow_bit(net2.b, 0, 2)));
  EXPECT_TRUE(fires(lint::lint_rsn(net2.rsn), "tmr-voter-shape"));
}

TEST(Lint, TmrVoterShared) {
  Net net;
  CtrlPool& ctrl = net.rsn.ctrl();
  net.rsn.set_shadow_replicas(net.a, 3);
  const CtrlRef voter =
      ctrl.mk_maj3(ctrl.shadow_bit(net.a, 0, 0), ctrl.shadow_bit(net.a, 0, 1),
                   ctrl.shadow_bit(net.a, 0, 2));
  const NodeId m1 = net.rsn.add_mux("m1", net.si, net.a, voter);
  const NodeId m2 = net.rsn.add_mux("m2", net.a, m1, voter);
  net.rsn.set_scan_in(net.so, m2);
  const auto d = find(lint::lint_rsn(net.rsn), "tmr-voter-shared");
  EXPECT_EQ(d.witness, (std::vector<NodeId>{m1, m2}));
}

TEST(Lint, SelectTermStale) {
  Net net;
  // Term claims successor direction b -> a, but the edge runs a -> b.
  net.rsn.add_select_term(net.b, net.a, kCtrlTrue);
  EXPECT_EQ(find(lint::lint_rsn(net.rsn), "select-term-stale").node, net.b);
}

TEST(Lint, SelectTermCoverage) {
  Net net;
  // a fans out to b and a mux, but only the b direction has a term.
  const NodeId m = net.rsn.add_mux("m", net.a, net.b,
                                   net.rsn.ctrl().enable_input());
  net.rsn.set_scan_in(net.so, m);
  net.rsn.add_select_term(net.a, net.b, kCtrlTrue);
  const auto d = find(lint::lint_rsn(net.rsn), "select-term-coverage");
  EXPECT_EQ(d.node, net.a);
  EXPECT_EQ(d.witness, std::vector<NodeId>{m});
}

// --- fault-tolerance profile (opt-in) ---------------------------------------

TEST(Lint, FtRulesAreOptIn) {
  const Rsn chain = make_chain_rsn(3, 4);
  EXPECT_TRUE(lint::lint_rsn(chain).empty());
  lint::LintOptions ft;
  ft.ft_rules = true;
  const auto diags = lint::lint_rsn(chain, ft);
  EXPECT_TRUE(fires(diags, "ft-single-scan-port"));
  EXPECT_TRUE(fires(diags, "ft-spof"));  // every chain segment is a SPOF
  EXPECT_FALSE(lint::has_errors(diags));  // FT findings are warnings
}

TEST(Lint, FtUntriplicatedAddress) {
  Net net;
  const NodeId m = net.rsn.add_mux("m", net.a, net.b,
                                   net.rsn.ctrl().shadow_bit(net.a, 0));
  net.rsn.set_scan_in(net.so, m);
  lint::LintOptions ft;
  ft.ft_rules = true;
  EXPECT_EQ(find(lint::lint_rsn(net.rsn, ft), "ft-untriplicated-address").node,
            m);
  EXPECT_FALSE(fires(lint::lint_rsn(net.rsn), "ft-untriplicated-address"));
}

TEST(Lint, FtProfileCleanOnSynthesizedNetwork) {
  const SynthResult r = synthesize_fault_tolerant(make_example_rsn());
  lint::LintOptions ft;
  ft.ft_rules = true;
  const auto diags = lint::lint_rsn(r.rsn, ft);
  EXPECT_FALSE(fires(diags, "ft-single-scan-port"));
  EXPECT_FALSE(fires(diags, "ft-untriplicated-address"));
  EXPECT_FALSE(fires(diags, "ft-spof"));
  EXPECT_FALSE(lint::has_errors(diags));
}

// --- dataflow rules ---------------------------------------------------------

TEST(Lint, DataflowRules) {
  // 0 -> 1 -> 0 cycle, no roots or sinks, vertex 2 unreachable.
  const auto g = DataflowGraph::from_edges(3, {{0, 1}, {1, 0}}, {}, {});
  const auto diags = lint::lint_dataflow(g);
  EXPECT_TRUE(fires(diags, "df-no-root"));
  EXPECT_TRUE(fires(diags, "df-no-sink"));
  EXPECT_TRUE(fires(diags, "df-cycle"));
  EXPECT_TRUE(fires(diags, "df-unreachable"));
  EXPECT_FALSE(find(diags, "df-cycle").witness.empty());
}

TEST(Lint, DataflowRootSinkDegrees) {
  const auto g = DataflowGraph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}},
                                           {0}, {2});
  const auto diags = lint::lint_dataflow(g);
  EXPECT_TRUE(fires(diags, "df-root-in-edges"));
  EXPECT_TRUE(fires(diags, "df-sink-out-edges"));
}

TEST(Lint, DataflowCleanGraph) {
  const auto g =
      DataflowGraph::from_edges(3, {{0, 1}, {1, 2}}, {0}, {2});
  EXPECT_TRUE(lint::lint_dataflow(g).empty());
}

TEST(Lint, FromEdgesRejectsOutOfRangeIds) {
  EXPECT_THROW(DataflowGraph::from_edges(3, {{0, 7}}, {0}, {2}),
               std::invalid_argument);
  EXPECT_THROW(DataflowGraph::from_edges(3, {{0, 1}}, {5}, {2}),
               std::invalid_argument);
  EXPECT_THROW(DataflowGraph::from_edges(3, {{0, 1}}, {0}, {9}),
               std::invalid_argument);
  // The message aggregates all offenders, not just the first.
  try {
    DataflowGraph::from_edges(2, {{0, 5}, {6, 1}}, {0}, {1});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("edge #0"), std::string::npos);
    EXPECT_NE(what.find("edge #1"), std::string::npos);
  }
}

// --- augmentation postconditions --------------------------------------------

TEST(Lint, AugmentEdgeRangeAndCycle) {
  const auto g =
      DataflowGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}, {0}, {3});
  const auto diags =
      lint::lint_augmentation(g, {{2, 99}, {2, 1}});
  EXPECT_TRUE(fires(diags, "aug-edge-range"));
  EXPECT_TRUE(fires(diags, "aug-cycle"));
  EXPECT_TRUE(fires(diags, "aug-level-backward"));
  EXPECT_TRUE(lint::has_errors(diags));
}

TEST(Lint, AugmentLowDegrees) {
  const auto g =
      DataflowGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}, {0}, {3});
  const auto none = lint::lint_augmentation(g, {});
  EXPECT_TRUE(fires(none, "aug-low-in-degree"));   // vertex 2: indeg 1
  EXPECT_TRUE(fires(none, "aug-low-out-degree"));  // vertex 1: outdeg 1
  const auto fixed = lint::lint_augmentation(g, {{0, 2}, {1, 3}});
  EXPECT_FALSE(fires(fixed, "aug-low-in-degree"));
  EXPECT_FALSE(fires(fixed, "aug-low-out-degree"));
  EXPECT_TRUE(fixed.empty());
}

TEST(Lint, SynthesisResultCarriesLintReport) {
  const SynthResult r = synthesize_fault_tolerant(make_example_rsn());
  EXPECT_FALSE(lint::has_errors(r.lint));
}

// --- clean networks: zero findings ------------------------------------------

TEST(Lint, CleanNetworksHaveZeroFindings) {
  EXPECT_TRUE(lint::lint_rsn(make_example_rsn()).empty());
  EXPECT_TRUE(lint::lint_rsn(make_chain_rsn(5, 8)).empty());
}

TEST(Lint, CleanSibNetworkHasZeroFindings) {
  const auto soc = itc02::find_soc("g1023");
  ASSERT_TRUE(soc.has_value());
  EXPECT_TRUE(lint::lint_rsn(itc02::generate_sib_rsn(*soc)).empty());
}

// --- validate() aggregation -------------------------------------------------

TEST(Lint, ValidateAggregatesAllViolations) {
  Net net;
  net.rsn.set_scan_in(net.b, kInvalidNode);
  const NodeId m =
      net.rsn.add_mux("m", net.a, net.a, net.rsn.ctrl().enable_input());
  net.rsn.set_scan_in(net.so, m);
  const auto diags = net.rsn.validate();
  EXPECT_TRUE(fires(diags, "dangling-scan-in"));
  EXPECT_TRUE(fires(diags, "mux-identical-inputs"));
  // validate_or_die reports every error in one exception.
  try {
    net.rsn.validate_or_die();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dangling-scan-in"), std::string::npos);
    EXPECT_NE(what.find("mux-identical-inputs"), std::string::npos);
  }
}

// --- emitters ---------------------------------------------------------------

TEST(Lint, TextAndJsonEmitters) {
  Net net;
  net.rsn.set_scan_in(net.a, net.b);  // cycle
  const auto diags = lint::lint_rsn(net.rsn);
  const auto names = net.rsn.node_names();
  const std::string text = lint::to_text(diags, names);
  EXPECT_NE(text.find("error[scan-cycle]"), std::string::npos);
  EXPECT_NE(text.find(" -> "), std::string::npos);  // witness rendering
  const std::string json = lint::to_json(diags, names);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"rule\":\"scan-cycle\""), std::string::npos);
  EXPECT_NE(json.find("\"witness\":["), std::string::npos);
  EXPECT_NE(json.find("\"errors\":"), std::string::npos);
}

TEST(Lint, SarifEmitterGoldenFile) {
  // Deterministic fixture: a scan cycle (error with witness) plus a
  // const-false select (warning with ctrl ref), rendered via --sarif and
  // compared byte-for-byte against the checked-in golden log.
  Net net;
  net.rsn.set_scan_in(net.a, net.b);  // cycle
  net.rsn.set_select(net.b, kCtrlFalse);
  const auto diags = lint::lint_rsn(net.rsn);
  ASSERT_TRUE(fires(diags, "scan-cycle"));
  const std::string sarif =
      lint::to_sarif(
          {{"tests/data/broken.rsn", diags, net.rsn.node_names(), {}}});

  // Structural sanity independent of the golden file.
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"rsn-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"scan-cycle\""), std::string::npos);
  EXPECT_EQ(sarif.back(), '\n');

  const std::string path =
      std::string(FTRSN_TEST_DATA_DIR) + "/lint_golden.sarif";
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "missing golden file " << path;
  std::string golden;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    golden.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(sarif, golden);
}

TEST(Lint, SarifEmitterEmptyAndMultiArtifact) {
  // No findings: still a valid log with an empty results array.
  const std::string empty = lint::to_sarif({});
  EXPECT_NE(empty.find("\"results\": []"), std::string::npos);
  // Two artifacts: results carry their own artifact index.
  Net net;
  net.rsn.set_scan_in(net.b, kInvalidNode);
  const auto diags = lint::lint_rsn(net.rsn);
  const std::string two = lint::to_sarif(
      {{"a.rsn", {}, {}, {}}, {"b.rsn", diags, net.rsn.node_names(), {}}});
  EXPECT_NE(two.find("\"uri\": \"a.rsn\""), std::string::npos);
  EXPECT_NE(two.find("\"uri\": \"b.rsn\", \"index\": 1"), std::string::npos);
}

TEST(Lint, JsonEscapesSpecials) {
  const std::vector<Diagnostic> diags = {
      {"r", Severity::kInfo, kInvalidNode, kCtrlInvalid,
       "quote \" backslash \\ newline \n", "", {}}};
  const std::string json = lint::to_json(diags);
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n"),
            std::string::npos);
  EXPECT_NE(json.find("\"infos\":1"), std::string::npos);
}

// --- runner configuration ---------------------------------------------------

TEST(Lint, RunnerDisableAndSeverityOverride) {
  Net net;
  net.rsn.set_scan_in(net.a, net.b);  // cycle
  lint::LintOptions opts;
  opts.enabled["scan-cycle"] = false;
  EXPECT_FALSE(fires(lint::lint_rsn(net.rsn, opts), "scan-cycle"));

  Net net2;
  net2.rsn.set_select(net2.a, kCtrlFalse);
  lint::LintOptions promote;
  promote.severity["const-false-select"] = Severity::kError;
  const auto diags = lint::lint_rsn(net2.rsn, promote);
  EXPECT_EQ(find(diags, "const-false-select").severity, Severity::kError);
  EXPECT_TRUE(lint::has_errors(diags));
}

TEST(Lint, RuleCatalogIsWellFormed) {
  const auto& rules = lint::LintRunner::rules();
  EXPECT_GE(rules.size(), 30u);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_FALSE(rules[i].id.empty());
    EXPECT_FALSE(rules[i].summary.empty());
    EXPECT_FALSE(rules[i].paper_ref.empty());
    for (std::size_t j = i + 1; j < rules.size(); ++j)
      EXPECT_NE(rules[i].id, rules[j].id) << "duplicate rule id";
  }
}

TEST(Lint, DeterministicOrdering) {
  Net net;
  net.rsn.set_scan_in(net.b, kInvalidNode);
  net.rsn.add_primary_in("SI2");
  const auto a = lint::lint_rsn(net.rsn);
  const auto b = lint::lint_rsn(net.rsn);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].node, b[i].node);
  }
}

// --- parse without validation (the rsn-lint CLI path) -----------------------

TEST(Lint, ParseWithoutValidationLoadsBrokenNetwork) {
  // b's scan-in references a nonexistent node only resolvable as a cycle:
  // a <- b and b <- a.  With validation the parse would throw; without it
  // the lint rules get to see the broken structure.
  Rsn net = make_example_rsn();
  const std::string text = write_rsn_text(net);
  EXPECT_NO_THROW(parse_rsn_text(text));  // round-trip stays valid
  Rsn broken = parse_rsn_text(text, /*validate=*/false);
  broken.set_scan_in(broken.primary_out(), kInvalidNode);
  EXPECT_TRUE(fires(lint::lint_rsn(broken), "dangling-scan-in"));
}

}  // namespace
}  // namespace ftrsn
