// SHA-pinned differential golden corpus (ctest -L corpus).
//
// Full fault-metric sweeps — every ITC'02 SoC (original + fault-tolerant
// synthesis), fixed-seed random RSNs and two fixed-seed gen::scale_soc
// networks — are serialized to a canonical text form (counts, hexfloat
// aggregates, the full per-fault distribution) and digested with SHA-256.
// The digests are pinned in tests/data/corpus/manifest.sha256, so any
// semantic drift in the metric — packed lanes, SIMD kernels, equivalence
// collapse, parallel fold — shows up as a one-line digest mismatch naming
// the network, and replaying the whole corpus takes seconds instead of the
// hours a legacy-loop differential sweep would need.
//
//   FTRSN_REGOLD=1            regenerate the manifest from the scalar
//                             engine, then verify the packed engine
//                             reproduces it (the regold itself is judged)
//   FTRSN_CORPUS_SOCS=a,b     network subset by base name (u226, rand0,
//                             scale-u226, ...; sanitizer runs)
//   FTRSN_CORPUS_SCALAR=0|1   force the packed-vs-scalar cross-check off /
//                             on for every network (default: the two
//                             smallest SoCs and the random networks)
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fault/metric.hpp"
#include "fault/metric_engine.hpp"
#include "gen/scale.hpp"
#include "itc02/itc02.hpp"
#include "synth/synth.hpp"
#include "util/common.hpp"

namespace ftrsn {
namespace {

const char* manifest_path() {
  return FTRSN_TEST_DATA_DIR "/corpus/manifest.sha256";
}

/// Canonical digest of one full metric sweep: the shared library routine
/// (fault/metric.hpp report_digest), which the serve metric responses also
/// embed — judge and server are pinned to the same bytes by construction.
std::string digest_report(const std::string& name,
                          const FaultToleranceReport& r) {
  return report_digest(name, r);
}

/// Same deterministic SoC fuzzer shape as test_metric_engine.cpp, with
/// pinned seeds so the corpus networks never drift.
itc02::Soc random_soc(Rng& rng, int max_modules) {
  itc02::Soc soc;
  soc.name = strprintf("fuzz%llu",
                       static_cast<unsigned long long>(rng.next_u64() % 1000));
  const int modules = 1 + static_cast<int>(rng.next_below(
                              static_cast<std::uint64_t>(max_modules)));
  for (int i = 0; i < modules; ++i) {
    itc02::Module m;
    m.name = strprintf("m%d", i);
    m.parent = (i > 0 && rng.next_below(3) == 0)
                   ? static_cast<int>(
                         rng.next_below(static_cast<std::uint64_t>(i)))
                   : -1;
    const int chains = 1 + static_cast<int>(rng.next_below(4));
    for (int c = 0; c < chains; ++c)
      m.chain_bits.push_back(1 + static_cast<int>(rng.next_below(20)));
    soc.modules.push_back(std::move(m));
  }
  return soc;
}

struct CorpusNetwork {
  std::string name;  ///< manifest key, e.g. "d695-ft" or "rand1-orig"
  Rsn rsn;
  bool cross_check_scalar = false;
};

std::set<std::string> env_soc_filter() {
  std::set<std::string> out;
  if (const char* env = std::getenv("FTRSN_CORPUS_SOCS"))
    for (const std::string& t : split(env, ','))
      out.insert(std::string(trim(t)));
  return out;
}

/// The corpus population: 13 ITC'02 SoCs x {orig, ft} + 3 fixed-seed
/// random RSNs x {orig, ft} + 2 fixed-seed scale_soc originals.  The
/// packed-vs-scalar cross-check defaults to the cheap networks so the
/// full-corpus replay stays fast; FTRSN_REGOLD and FTRSN_CORPUS_SCALAR
/// widen it.
std::vector<CorpusNetwork> build_corpus() {
  const std::set<std::string> filter = env_soc_filter();
  const bool want = !filter.empty();
  const char* scalar_env = std::getenv("FTRSN_CORPUS_SCALAR");
  const int scalar_mode = scalar_env ? std::atoi(scalar_env) : -1;
  const std::set<std::string> cheap = {"u226", "d695", "h953", "g1023"};

  std::vector<CorpusNetwork> out;
  const auto add = [&](const std::string& base, const Rsn& orig,
                       bool cheap_soc) {
    const bool scalar =
        scalar_mode >= 0 ? scalar_mode != 0 : cheap_soc;
    out.push_back({base + "-orig", orig, scalar});
    out.push_back(
        {base + "-ft", synthesize_fault_tolerant(orig).rsn, scalar});
  };
  for (const auto& soc : itc02::socs()) {
    if (want && !filter.count(soc.name)) continue;
    add(soc.name, itc02::generate_sib_rsn(soc), cheap.count(soc.name) > 0);
  }
  Rng rng(0xC0FFEED1CEull);
  for (int i = 0; i < 3; ++i) {
    const std::string base = strprintf("rand%d", i);
    if (want && !filter.count(base)) continue;
    add(base, itc02::generate_sib_rsn(random_soc(rng, 5)), true);
  }
  // Replicated ITC'02 templates at ~2k scan elements: deeper hierarchies
  // and far wider fault batches than any single SoC.  Originals only —
  // hardening them would dominate the replay.
  for (const char* tmpl : {"u226", "p93791"}) {
    const std::string base = std::string("scale-") + tmpl;
    if (want && !filter.count(base)) continue;
    gen::ScaleOptions so;
    so.base = tmpl;
    so.target_elements = 2000;
    so.seed = 0x5CA1E;
    out.push_back({base + "-orig",
                   itc02::generate_sib_rsn(gen::scale_soc(so).soc),
                   scalar_mode > 0});
  }
  return out;
}

void read_manifest_into(std::map<std::string, std::string>& out) {
  std::ifstream in(manifest_path());
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const auto sp = t.find_first_of(" \t");
    ASSERT_NE(sp, std::string_view::npos)
        << "malformed manifest line: " << line;
    out[std::string(trim(t.substr(sp)))] = std::string(t.substr(0, sp));
  }
}

FaultToleranceReport sweep(const FaultMetricEngine& engine, bool packed,
                           int threads) {
  MetricEngineOptions eo;
  eo.metric.keep_distribution = true;
  eo.packed = packed;
  eo.threads = threads;
  return engine.evaluate(eo);
}

TEST(Corpus, PackedSweepsMatchPinnedManifest) {
  const bool regold =
      std::getenv("FTRSN_REGOLD") && std::atoi(std::getenv("FTRSN_REGOLD"));
  std::map<std::string, std::string> manifest;
  if (!regold) {
    std::ifstream probe(manifest_path());
    ASSERT_TRUE(probe.good())
        << "missing " << manifest_path()
        << " — run with FTRSN_REGOLD=1 to generate it";
    read_manifest_into(manifest);
  }

  std::map<std::string, std::string> fresh;
  for (const CorpusNetwork& net : build_corpus()) {
    const FaultMetricEngine engine(net.rsn);
    // Packed digests at 1/2/8 threads must agree with each other (the
    // deterministic-parallelism contract) before anything is compared to
    // the pin.
    std::string packed_digest;
    for (const int threads : {1, 2, 8}) {
      const std::string d =
          digest_report(net.name, sweep(engine, true, threads));
      if (packed_digest.empty())
        packed_digest = d;
      else
        EXPECT_EQ(d, packed_digest)
            << net.name << " packed digest drifts at threads=" << threads;
    }
    // Differential judge: the scalar engine must reproduce the packed
    // digest exactly (every network under regold, the cheap ones in a
    // normal replay).
    if (regold || net.cross_check_scalar) {
      const std::string scalar_digest =
          digest_report(net.name, sweep(engine, false, 1));
      EXPECT_EQ(packed_digest, scalar_digest)
          << net.name << " packed vs scalar engine";
    }
    fresh[net.name] = packed_digest;
    if (!regold) {
      const auto it = manifest.find(net.name);
      ASSERT_NE(it, manifest.end())
          << net.name << " not pinned in " << manifest_path()
          << " — run with FTRSN_REGOLD=1";
      EXPECT_EQ(packed_digest, it->second) << net.name << " digest mismatch";
    }
  }

  if (regold) {
    std::ofstream out(manifest_path());
    ASSERT_TRUE(out.good()) << "cannot write " << manifest_path();
    out << "# SHA-256 digests of canonical full-sweep metric reports\n"
           "# (tests/test_corpus.cpp digest_report).  Regenerate with\n"
           "#   FTRSN_REGOLD=1 ctest -L corpus\n";
    for (const auto& [name, hex] : fresh) out << hex << "  " << name << "\n";
    std::printf("regolded %zu networks -> %s\n", fresh.size(),
                manifest_path());
  } else {
    // Every pinned network must have been replayed (a silently shrinking
    // corpus would hollow the judge out) unless a subset was requested.
    if (env_soc_filter().empty())
      for (const auto& [name, hex] : manifest)
        EXPECT_TRUE(fresh.count(name)) << name << " pinned but not replayed";
  }
}

}  // namespace
}  // namespace ftrsn
