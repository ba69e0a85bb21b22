// SHA-pinned post-synthesis lint diagnostics (ctest -L lint).
//
// The default `lint_rsn` run on every hardened ITC'02 SoC is rendered as
// canonical JSON (lint::to_json with node names) and digested with
// SHA-256.  The digests in tests/data/lint_pins.sha256 were generated with
// the exact-only cone oracle (tristate screening, probe, enumeration and
// SAT, no simulation stage), so any drift of the simulation-first default
// backend shows up as a one-line mismatch naming the network.
//
// Clean hardened networks lint 0/0/0, which would make the pins blind to a
// wrong verdict on a *failing* query.  Deterministic perturbations of two
// networks therefore add real findings whose queries have no simulation
// witness and must take the exact path:
//
//   <soc>-ft-reset50   reset_shadow inverted on every 50th shadowed segment
//                      (forced own-shadow values that differ from the
//                      synthesized reset; no finding, the selects stay
//                      reachable through other control)
//   <soc>-ft-self50    select s replaced by s AND own shadow bit 0, with
//                      that bit cleared at reset, on every 50th shadowed
//                      segment (a real select-self-loop bootstrap deadlock)
//   <soc>-ft-unsat50   select s replaced by s AND NOT s on every 50th
//                      segment (const-false-select on a reconvergent cone
//                      the tristate screen cannot decide)
//
// FTRSN_REGOLD=1 regenerates the manifest (like tests/test_corpus.cpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "itc02/itc02.hpp"
#include "lint/lint.hpp"
#include "synth/synth.hpp"
#include "util/common.hpp"
#include "util/sha256.hpp"

namespace ftrsn {
namespace {

const char* manifest_path() { return FTRSN_TEST_DATA_DIR "/lint_pins.sha256"; }

Rsn flip_reset_every_50th(Rsn rsn) {
  int seen = 0;
  for (NodeId id = 0; id < rsn.num_nodes(); ++id) {
    const RsnNode& n = rsn.node(id);
    if (!n.is_segment() || !n.has_shadow) continue;
    if (seen++ % 50 != 0) continue;
    const int bits = n.length < 64 ? n.length : 64;
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    rsn.set_reset_shadow(id, n.reset_shadow ^ mask);
  }
  return rsn;
}

Rsn self_gate_every_50th(Rsn rsn) {
  int seen = 0;
  for (NodeId id = 0; id < rsn.num_nodes(); ++id) {
    const RsnNode& n = rsn.node(id);
    if (!n.is_segment() || !n.has_shadow || n.select <= kCtrlTrue) continue;
    if (seen++ % 50 != 0) continue;
    CtrlPool& pool = rsn.ctrl();
    const CtrlRef s = n.select;
    rsn.set_reset_shadow(id, n.reset_shadow & ~std::uint64_t{1});
    rsn.set_select(id, pool.mk_and(s, pool.shadow_bit(id, 0, 0)));
  }
  return rsn;
}

Rsn unsat_select_every_50th(Rsn rsn) {
  int seen = 0;
  for (NodeId id = 0; id < rsn.num_nodes(); ++id) {
    const RsnNode& n = rsn.node(id);
    if (!n.is_segment() || n.select <= kCtrlTrue) continue;
    if (seen++ % 50 != 0) continue;
    CtrlPool& pool = rsn.ctrl();
    const CtrlRef s = n.select;
    rsn.set_select(id, pool.mk_and(s, pool.mk_not(s)));
  }
  return rsn;
}

struct PinNetwork {
  std::string name;
  Rsn rsn;
};

std::vector<PinNetwork> build_networks() {
  const std::set<std::string> perturbed = {"d695", "p34392"};
  std::vector<PinNetwork> out;
  for (const auto& soc : itc02::socs()) {
    const Rsn ft =
        synthesize_fault_tolerant(itc02::generate_sib_rsn(soc)).rsn;
    if (perturbed.count(soc.name)) {
      out.push_back({soc.name + "-ft-reset50", flip_reset_every_50th(ft)});
      out.push_back({soc.name + "-ft-self50", self_gate_every_50th(ft)});
      out.push_back({soc.name + "-ft-unsat50", unsat_select_every_50th(ft)});
    }
    out.push_back({soc.name + "-ft", ft});
  }
  return out;
}

TEST(LintPins, PostSynthesisDiagnosticsMatchPinnedManifest) {
  const bool regold =
      std::getenv("FTRSN_REGOLD") && std::atoi(std::getenv("FTRSN_REGOLD"));
  std::map<std::string, std::string> manifest;
  if (!regold) {
    std::ifstream in(manifest_path());
    ASSERT_TRUE(in.good()) << "missing " << manifest_path()
                           << " — run with FTRSN_REGOLD=1 to generate it";
    std::string line;
    while (std::getline(in, line)) {
      const std::string_view t = trim(line);
      if (t.empty() || t[0] == '#') continue;
      const auto sp = t.find_first_of(" \t");
      ASSERT_NE(sp, std::string_view::npos) << "malformed line: " << line;
      manifest[std::string(trim(t.substr(sp)))] =
          std::string(t.substr(0, sp));
    }
  }

  std::map<std::string, std::string> fresh;
  std::size_t findings = 0;
  for (const PinNetwork& net : build_networks()) {
    const std::vector<lint::Diagnostic> diags = lint::lint_rsn(net.rsn);
    std::map<std::string, int> per_rule;
    for (const lint::Diagnostic& d : diags) ++per_rule[d.rule];
    std::string summary;
    for (const auto& [rule, k] : per_rule)
      summary += strprintf(" %s=%d", rule.c_str(), k);
    std::printf("%-20s %zu finding(s)%s\n", net.name.c_str(), diags.size(),
                summary.c_str());
    findings += diags.size();
    const std::string digest =
        sha256_hex(lint::to_json(diags, net.rsn.node_names()));
    fresh[net.name] = digest;
    if (!regold) {
      const auto it = manifest.find(net.name);
      ASSERT_NE(it, manifest.end()) << net.name << " not pinned in "
                                    << manifest_path()
                                    << " — run with FTRSN_REGOLD=1";
      EXPECT_EQ(digest, it->second) << net.name << " diagnostics drift";
    }
  }
  std::printf("%zu finding(s) over %zu network(s)\n", findings, fresh.size());

  if (regold) {
    std::ofstream out(manifest_path());
    ASSERT_TRUE(out.good()) << "cannot write " << manifest_path();
    out << "# SHA-256 of the canonical JSON diagnostics of lint_rsn on each\n"
           "# hardened ITC'02 SoC (tests/test_lint_pins.cpp).  Regenerate "
           "with\n#   FTRSN_REGOLD=1 ctest -R LintPins\n";
    for (const auto& [name, hex] : fresh) out << hex << "  " << name << "\n";
    std::printf("regolded %zu networks -> %s\n", fresh.size(),
                manifest_path());
  } else {
    for (const auto& [name, hex] : manifest)
      EXPECT_TRUE(fresh.count(name)) << name << " pinned but not replayed";
  }
}

}  // namespace
}  // namespace ftrsn
