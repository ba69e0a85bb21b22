// Equivalence suite for FaultMetricEngine (ctest -L metric): the engine
// must reproduce the legacy serial metric loop bit for bit — every
// aggregate, the full per-fault distribution, and the worst-fault
// tie-break — on all 13 ITC'02 SoCs (original and fault-tolerant), on
// random hierarchical RSNs, and at every thread count.  Also covers the
// order-independent polarity pairing of the legacy fault-list overload,
// multi-fault set equivalence against AccessAnalyzer, the packed taint
// sweep on a replicated scale_soc network, and the ThreadPool.
//
// FTRSN_METRIC_ITERS=N scales the sampled fault counts and random trials
// (default 1; CI soaks run higher).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "fault/accessibility.hpp"
#include "fault/metric.hpp"
#include "fault/metric_engine.hpp"
#include "gen/scale.hpp"
#include "itc02/itc02.hpp"
#include "synth/synth.hpp"
#include "util/common.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ftrsn {
namespace {

int metric_iters() {
  const char* env = std::getenv("FTRSN_METRIC_ITERS");
  const int n = env ? std::atoi(env) : 1;
  return n > 0 ? n : 1;
}

/// Deterministic sample of `limit` faults (the whole list if it fits),
/// preserving enumeration order so polarity pairs stay adjacent in some
/// samples and split in others.
std::vector<Fault> sample_faults(const std::vector<Fault>& all,
                                 std::size_t limit, std::uint64_t seed) {
  if (all.size() <= limit) return all;
  Rng rng(seed);
  std::vector<std::size_t> picks(all.size());
  std::iota(picks.begin(), picks.end(), std::size_t{0});
  for (std::size_t i = 0; i < limit; ++i) {
    const std::size_t j = i + rng.next_below(picks.size() - i);
    std::swap(picks[i], picks[j]);
  }
  picks.resize(limit);
  std::sort(picks.begin(), picks.end());
  std::vector<Fault> out;
  out.reserve(limit);
  for (const std::size_t i : picks) out.push_back(all[i]);
  return out;
}

void expect_identical(const FaultToleranceReport& legacy,
                      const FaultToleranceReport& engine,
                      const std::string& what) {
  EXPECT_EQ(engine.num_faults, legacy.num_faults) << what;
  EXPECT_EQ(engine.counted_segments, legacy.counted_segments) << what;
  EXPECT_EQ(engine.counted_bits, legacy.counted_bits) << what;
  EXPECT_EQ(engine.seg_worst, legacy.seg_worst) << what;
  EXPECT_EQ(engine.seg_avg, legacy.seg_avg) << what;
  EXPECT_EQ(engine.bit_worst, legacy.bit_worst) << what;
  EXPECT_EQ(engine.bit_avg, legacy.bit_avg) << what;
  EXPECT_EQ(engine.worst_fault_index, legacy.worst_fault_index) << what;
  ASSERT_EQ(engine.seg_fraction.size(), legacy.seg_fraction.size()) << what;
  EXPECT_EQ(engine.seg_fraction, legacy.seg_fraction) << what;
  EXPECT_EQ(engine.bit_fraction, legacy.bit_fraction) << what;
}

/// Legacy fault-list loop vs engine at 1/2/8 threads, full distributions.
void check_equivalence(const Rsn& rsn, const std::vector<Fault>& faults,
                       const std::string& what) {
  MetricOptions mo;
  mo.keep_distribution = true;
  const FaultToleranceReport legacy = compute_fault_tolerance(rsn, faults, mo);
  const FaultMetricEngine engine(rsn);
  MetricEngineOptions eo;
  eo.metric = mo;
  for (const int threads : {1, 2, 8}) {
    eo.threads = threads;
    const FaultToleranceReport rep = engine.evaluate_faults(faults, eo);
    expect_identical(legacy, rep,
                     what + " threads=" + std::to_string(threads));
    EXPECT_EQ(engine.last_stats().threads, threads) << what;
    EXPECT_EQ(engine.last_stats().faults, faults.size()) << what;
  }
}

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

// --- engine vs legacy, ITC'02 -----------------------------------------------

TEST(MetricEngine, AllSocsOriginalBitIdentical) {
  const std::size_t limit = 1500 * static_cast<std::size_t>(metric_iters());
  for (const auto& soc : itc02::socs()) {
    const Rsn rsn = itc02::generate_sib_rsn(soc);
    const auto faults =
        sample_faults(enumerate_faults(rsn), limit, 0xC0FFEE);
    check_equivalence(rsn, faults, soc.name + "-orig");
  }
}

TEST(MetricEngine, AllSocsFaultTolerantBitIdentical) {
  const std::size_t limit = 300 * static_cast<std::size_t>(metric_iters());
  for (const auto& soc : itc02::socs()) {
    const Rsn rsn = itc02::generate_sib_rsn(soc);
    const Rsn ft = synthesize_fault_tolerant(rsn).rsn;
    const auto faults = sample_faults(enumerate_faults(ft), limit, 0xFEED);
    check_equivalence(ft, faults, soc.name + "-ft");
  }
}

TEST(MetricEngine, FullUniverseSmallSocs) {
  // Complete (unsampled) universes, original and hardened, including the
  // evaluate() convenience entry point.
  for (const char* name : {"u226", "d281"}) {
    const auto soc = itc02::find_soc(name);
    ASSERT_TRUE(soc.has_value());
    const Rsn rsn = itc02::generate_sib_rsn(*soc);
    check_equivalence(rsn, enumerate_faults(rsn), std::string(name) + "-orig");

    MetricOptions mo;
    mo.keep_distribution = true;
    const FaultToleranceReport legacy = compute_fault_tolerance(rsn, mo);
    const FaultMetricEngine engine(rsn);
    MetricEngineOptions eo;
    eo.metric = mo;
    expect_identical(legacy, engine.evaluate(eo),
                     std::string(name) + "-evaluate");
  }
}

TEST(MetricEngine, RandomRsnsBitIdentical) {
  Rng rng(20260805);
  const int trials = 4 * metric_iters();
  for (int trial = 0; trial < trials; ++trial) {
    const Rsn rsn = itc02::generate_sib_rsn(random_soc(rng, 5));
    check_equivalence(rsn, enumerate_faults(rsn),
                      strprintf("random-orig-%d", trial));
    const Rsn ft = synthesize_fault_tolerant(rsn).rsn;
    const auto faults = sample_faults(enumerate_faults(ft), 600,
                                      0xABBA + static_cast<std::uint64_t>(trial));
    check_equivalence(ft, faults, strprintf("random-ft-%d", trial));
  }
}

// --- order-independent polarity pairing (legacy fault-list overload) --------

TEST(MetricEngine, ReorderedFaultListKeepsPerFaultFractions) {
  // Regression for the polarity-pair reuse: the legacy loop used to assume
  // the sa0 twin of a pairable fault sat at index i-1, which silently
  // mis-paired any reordered or sampled list.  Pairing is now keyed by the
  // exact fault site, so a permuted list must yield the permuted fractions.
  const Rsn rsn = make_example_rsn();
  const auto faults = enumerate_faults(rsn);
  MetricOptions mo;
  mo.keep_distribution = true;
  const FaultToleranceReport canonical =
      compute_fault_tolerance(rsn, faults, mo);

  Rng rng(99);
  std::vector<std::size_t> perm(faults.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  std::vector<Fault> shuffled;
  shuffled.reserve(faults.size());
  for (const std::size_t i : perm) shuffled.push_back(faults[i]);

  const FaultToleranceReport rep = compute_fault_tolerance(rsn, shuffled, mo);
  ASSERT_EQ(rep.seg_fraction.size(), faults.size());
  for (std::size_t k = 0; k < perm.size(); ++k) {
    EXPECT_EQ(rep.seg_fraction[k], canonical.seg_fraction[perm[k]]) << k;
    EXPECT_EQ(rep.bit_fraction[k], canonical.bit_fraction[perm[k]]) << k;
  }

  // The engine agrees on the shuffled list too.
  const FaultMetricEngine engine(rsn);
  MetricEngineOptions eo;
  eo.metric = mo;
  expect_identical(rep, engine.evaluate_faults(shuffled, eo), "shuffled");
}

// --- multi-fault sets and fault-free ----------------------------------------

TEST(MetricEngine, MultiFaultSetsMatchAccessAnalyzer) {
  Rng rng(0xD0B1E);
  const Rsn original = make_example_rsn();
  const Rsn ft = synthesize_fault_tolerant(original).rsn;
  for (const Rsn* rsn : {&original, &ft}) {
    const AccessAnalyzer analyzer(*rsn);
    const FaultMetricEngine engine(*rsn);
    const auto scratch = engine.make_scratch();
    const auto faults = enumerate_faults(*rsn);
    for (int k = 0; k < 40 * metric_iters(); ++k) {
      std::vector<Fault> set;
      const std::size_t n = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < n; ++i)
        set.push_back(faults[rng.next_below(faults.size())]);
      EXPECT_EQ(engine.accessible_under_set(set, *scratch),
                analyzer.accessible_under_set(set))
          << "set " << k;
    }
  }
}

TEST(MetricEngine, FaultFreeMatchesAccessAnalyzer) {
  const Rsn rsn = make_example_rsn();
  const Rsn ft = synthesize_fault_tolerant(rsn).rsn;
  for (const Rsn* net : {&rsn, &ft}) {
    const AccessAnalyzer analyzer(*net);
    const FaultMetricEngine engine(*net);
    EXPECT_EQ(engine.accessible_fault_free(), analyzer.accessible_fault_free());
  }
}

// --- collapse and seeding levers --------------------------------------------

TEST(MetricEngine, CollapseAndSeedingAreBitExactLevers) {
  const auto soc = itc02::find_soc("u226");
  ASSERT_TRUE(soc.has_value());
  const Rsn rsn = itc02::generate_sib_rsn(*soc);
  MetricEngineOptions eo;
  eo.metric.keep_distribution = true;
  const FaultMetricEngine engine(rsn);
  const FaultToleranceReport base = engine.evaluate(eo);
  const MetricEngineStats st = engine.last_stats();
  EXPECT_LT(st.classes, st.faults);       // sa0/sa1 pairs collapse at least
  EXPECT_GT(st.collapse_ratio(), 1.0);
  EXPECT_GT(st.mask_cold_reused, 0u);     // baseline seeding actually reuses

  MetricEngineOptions no_collapse = eo;
  no_collapse.collapse_equivalent = false;
  expect_identical(base, engine.evaluate(no_collapse), "no-collapse");
  EXPECT_EQ(engine.last_stats().classes, engine.last_stats().faults);

  MetricEngineOptions no_seed = eo;
  no_seed.seed_baseline = false;
  expect_identical(base, engine.evaluate(no_seed), "no-seed");

  MetricEngineOptions no_pack = eo;
  no_pack.packed = false;
  expect_identical(base, engine.evaluate(no_pack), "no-pack");
  EXPECT_EQ(engine.last_stats().packed_batches, 0u);
}

// --- packed 64-lane mode ----------------------------------------------------

/// Scalar engine vs packed engine at 1/2/8 threads, full distributions,
/// plus the packed lane-accounting invariants.
void check_packed_vs_scalar(const FaultMetricEngine& engine,
                            const std::vector<Fault>& faults, bool collapse,
                            const std::string& what) {
  MetricEngineOptions eo;
  eo.metric.keep_distribution = true;
  eo.collapse_equivalent = collapse;
  eo.packed = false;
  const FaultToleranceReport scalar = engine.evaluate_faults(faults, eo);
  EXPECT_EQ(engine.last_stats().packed_batches, 0u) << what;
  EXPECT_STREQ(engine.last_stats().simd_kernel, "") << what;

  eo.packed = true;
  for (const int threads : {1, 2, 8}) {
    eo.threads = threads;
    const FaultToleranceReport rep = engine.evaluate_faults(faults, eo);
    expect_identical(scalar, rep,
                     what + " packed threads=" + std::to_string(threads));
    const MetricEngineStats st = engine.last_stats();
    EXPECT_GT(st.packed_batches, 0u) << what;
    // In packed mode every mask eval is a packed word eval.
    EXPECT_EQ(st.packed_words, st.mask_evals) << what;
    // Batches cover the class list exactly: ceil(classes / 64) blocks and
    // the mean occupancy that implies (only the tail word is partial).
    EXPECT_EQ(st.packed_batches, (st.classes + 63) / 64) << what;
    EXPECT_DOUBLE_EQ(
        st.lane_utilization,
        static_cast<double>(st.classes) /
            (64.0 * static_cast<double>(st.packed_batches)))
        << what;
    EXPECT_STREQ(st.simd_kernel, simd::active_ops().name) << what;
  }
}

TEST(MetricEnginePacked, LaneBoundariesBitIdentical) {
  // Class counts straddling every lane boundary: a single lane, a full
  // word minus one, exactly one word, one spilled lane, and a long list
  // with a partial tail word.  Collapse is off so the class count equals
  // the fault-list length exactly.
  const auto soc = itc02::find_soc("d695");
  ASSERT_TRUE(soc.has_value());
  const Rsn rsn = itc02::generate_sib_rsn(*soc);
  const auto all = enumerate_faults(rsn);
  ASSERT_GE(all.size(), 1000u);
  const FaultMetricEngine engine(rsn);
  for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{1000}}) {
    const std::vector<Fault> faults(all.begin(),
                                    all.begin() + static_cast<long>(n));
    check_packed_vs_scalar(engine, faults, /*collapse=*/false,
                           strprintf("d695-lanes-%zu", n));
    EXPECT_EQ(engine.last_stats().classes, n);
  }
}

TEST(MetricEnginePacked, EquivalenceCollapseInteraction) {
  // With collapse on, lane assignment happens per *class* representative;
  // the weighted expansion back to fault indices must stay bit-identical
  // to the scalar engine on polarity-paired and sampled lists alike.
  const auto soc = itc02::find_soc("u226");
  ASSERT_TRUE(soc.has_value());
  const Rsn rsn = itc02::generate_sib_rsn(*soc);
  const FaultMetricEngine engine(rsn);
  const auto all = enumerate_faults(rsn);
  check_packed_vs_scalar(engine, all, /*collapse=*/true, "u226-collapse");
  check_packed_vs_scalar(engine, sample_faults(all, 333, 0xBEEF),
                         /*collapse=*/true, "u226-collapse-sampled");

  const Rsn ft = synthesize_fault_tolerant(rsn).rsn;
  const FaultMetricEngine ft_engine(ft);
  check_packed_vs_scalar(ft_engine, enumerate_faults(ft), /*collapse=*/true,
                         "u226-ft-collapse");
}

TEST(MetricEnginePacked, RandomizedSoakBitIdentical) {
  // FTRSN_METRIC_ITERS-scaled soak over random RSNs with random fault
  // sample sizes (biased toward lane boundaries).
  Rng rng(0x9ACC3D);
  const int trials = 3 * metric_iters();
  for (int trial = 0; trial < trials; ++trial) {
    const Rsn rsn = itc02::generate_sib_rsn(random_soc(rng, 4));
    const Rsn ft = synthesize_fault_tolerant(rsn).rsn;
    for (const Rsn* net : {&rsn, &ft}) {
      const auto all = enumerate_faults(*net);
      std::size_t n = 1 + rng.next_below(all.size());
      if (rng.next_bool())  // snap to a lane boundary +/- 1
        n = std::min<std::size_t>(
            all.size(), 64 * (1 + rng.next_below(4)) + rng.next_below(3) - 1);
      if (n == 0) n = 1;
      const FaultMetricEngine engine(*net);
      check_packed_vs_scalar(
          engine, sample_faults(all, n, 0x50AC + trial),
          /*collapse=*/rng.next_bool(),
          strprintf("soak-%d-%s", trial, net == &rsn ? "orig" : "ft"));
    }
  }
}

TEST(MetricEnginePacked, EveryKernelProducesIdenticalReports) {
  // Force each runnable SIMD kernel and require byte-identical reports and
  // identical packed-word counts — the kernels are interchangeable down to
  // the counter level, not just in aggregate.
  const Rsn rsn = make_example_rsn();
  const Rsn ft = synthesize_fault_tolerant(rsn).rsn;
  const FaultMetricEngine engine(ft);
  MetricEngineOptions eo;
  eo.metric.keep_distribution = true;

  simd::set_kernel(simd::Kernel::kScalar);
  const FaultToleranceReport base = engine.evaluate(eo);
  const std::size_t base_words = engine.last_stats().packed_words;
  EXPECT_GT(base_words, 0u);
  for (const simd::Kernel k : simd::available()) {
    simd::set_kernel(k);
    expect_identical(base, engine.evaluate(eo),
                     std::string("kernel=") + simd::kernel_name(k));
    EXPECT_EQ(engine.last_stats().packed_words, base_words)
        << simd::kernel_name(k);
    EXPECT_STREQ(engine.last_stats().simd_kernel, simd::kernel_name(k));
  }
  simd::reset_kernel();
}

// --- packed taint sweep on a scale network ----------------------------------

/// Replicas of the u226 template (~1.5k elements by default): deeper scan
/// hierarchies and wider data-fault cones than any single ITC'02 SoC.
Rsn scale_network(long long elements = 1500) {
  gen::ScaleOptions so;
  so.base = "u226";
  so.target_elements = elements;
  so.seed = 0x7A1;
  return itc02::generate_sib_rsn(gen::scale_soc(so).soc);
}

bool is_data_fault(Forcing::Point p) {
  return p == Forcing::Point::kSegmentIn || p == Forcing::Point::kSegmentOut ||
         p == Forcing::Point::kMuxIn || p == Forcing::Point::kMuxOut ||
         p == Forcing::Point::kPrimaryIn;
}

/// Scan-graph predecessors of `id` (the inverse of Rsn::successors).
std::vector<NodeId> scan_preds(const Rsn& rsn, NodeId id) {
  const RsnNode& n = rsn.node(id);
  if (n.is_mux()) return {n.mux_in[0], n.mux_in[1]};
  if (n.is_segment() || n.kind == NodeKind::kPrimaryOut) return {n.scan_in};
  return {};
}

/// Nodes with a scan path to `id`, `id` included.
std::set<NodeId> ancestors_of(const Rsn& rsn, NodeId id) {
  std::set<NodeId> seen{id};
  std::vector<NodeId> stack{id};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const NodeId u : scan_preds(rsn, v))
      if (seen.insert(u).second) stack.push_back(u);
  }
  return seen;
}

TEST(MetricEnginePacked, TaintSweepScaleSocEveryFaultPoint) {
  // Sampled list over every Forcing::Point at both stuck values, judged
  // against the scalar engine (check_packed_vs_scalar, 1/2/8 threads).
  // enumerate_faults never emits kShadowReplica, so replica forcings of
  // shadowed segments are added by hand.
  const Rsn rsn = scale_network();
  const auto all = enumerate_faults(rsn);
  std::vector<Fault> faults =
      sample_faults(all, 900 * static_cast<std::size_t>(metric_iters()),
                    0x5EED);
  std::set<std::pair<int, bool>> covered;
  for (const Fault& f : faults)
    covered.insert({static_cast<int>(f.forcing.point), f.forcing.value});
  for (const Fault& f : all)
    if (covered.insert({static_cast<int>(f.forcing.point), f.forcing.value})
            .second)
      faults.push_back(f);
  int replicas = 0;
  for (NodeId id = 0; id < rsn.num_nodes() && replicas < 40; ++id) {
    if (!rsn.node(id).is_segment() || !rsn.node(id).has_shadow) continue;
    Fault f;
    f.forcing.point = Forcing::Point::kShadowReplica;
    f.forcing.node = id;
    f.forcing.value = (replicas++ % 2) != 0;
    faults.push_back(f);
    covered.insert({static_cast<int>(f.forcing.point), f.forcing.value});
  }
  EXPECT_EQ(covered.size(), 18u) << "9 fault points x 2 stuck values";

  const FaultMetricEngine engine(rsn);
  check_packed_vs_scalar(engine, faults, /*collapse=*/false, "scale-sampled");
  check_packed_vs_scalar(engine, faults, /*collapse=*/true,
                         "scale-sampled-collapse");
  EXPECT_GT(engine.last_stats().sweep_words, 0u);
}

TEST(MetricEnginePacked, TaintSweepNestedOverlappingMixedPolarityBatch) {
  // One hand-built 64-lane batch of data faults, all on scan ancestors of
  // the topologically last segment, so every cone reaches it and the cones
  // overlap there.  Lanes come in pairs on one site (SegmentIn/SegmentOut,
  // MuxIn/MuxOut: equal cones, different self-taint) with opposite stuck
  // values, and the pairs are spread from the top of the network to the
  // bottom, so upstream cones contain the downstream ones of the other
  // polarity.  accessible_under_each keeps the given polarities, so the
  // stuck-1 taint words are exercised too; every lane must match the
  // scalar single-fault evaluation and the legacy analyzer.  The batch runs
  // again with every polarity flipped on the same scratch, which catches
  // taint words leaking from one batch into the next.
  const Rsn rsn = scale_network();
  const std::vector<NodeId> topo = rsn.topo_order();
  NodeId deep = kInvalidNode;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it)
    if (rsn.node(*it).is_segment()) {
      deep = *it;
      break;
    }
  ASSERT_NE(deep, kInvalidNode);
  const std::set<NodeId> upstream = ancestors_of(rsn, deep);

  std::vector<Fault> sites;  // enumeration order keeps a site's points adjacent
  for (const Fault& f : enumerate_faults(rsn))
    if (is_data_fault(f.forcing.point) && !f.forcing.value &&
        upstream.count(f.forcing.node))
      sites.push_back(f);
  ASSERT_GE(sites.size(), 64u);
  std::vector<Fault> lanes;
  for (std::size_t p = 0; p < 32; ++p) {
    const std::size_t i = p * (sites.size() - 1) / 32;
    for (std::size_t k = 0; k < 2; ++k) {
      Fault f = sites[i + k];
      f.forcing.value = k != 0;
      lanes.push_back(f);
    }
  }
  bool shared_site = false, nested_opposite = false;
  for (std::size_t a = 0; a < lanes.size(); ++a) {
    const std::set<NodeId> above_a = ancestors_of(rsn, lanes[a].forcing.node);
    for (std::size_t b = 0; b < lanes.size(); ++b) {
      const NodeId na = lanes[a].forcing.node, nb = lanes[b].forcing.node;
      if (a != b && na == nb &&
          lanes[a].forcing.point != lanes[b].forcing.point)
        shared_site = true;
      if (na != nb && above_a.count(nb) &&
          lanes[a].forcing.value != lanes[b].forcing.value)
        nested_opposite = true;
    }
  }
  EXPECT_TRUE(shared_site);
  EXPECT_TRUE(nested_opposite);

  const FaultMetricEngine engine(rsn);
  const AccessAnalyzer analyzer(rsn);
  const auto scratch = engine.make_scratch();
  for (int round = 0; round < 2; ++round) {
    const std::vector<std::vector<bool>> packed =
        engine.accessible_under_each(lanes, *scratch);
    ASSERT_EQ(packed.size(), lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const std::vector<Fault> one{lanes[l]};
      EXPECT_EQ(packed[l], engine.accessible_under_set(one, *scratch))
          << "round " << round << " lane " << l;
      EXPECT_EQ(packed[l], analyzer.accessible_under_set(one))
          << "round " << round << " lane " << l;
    }
    for (Fault& f : lanes) f.forcing.value = !f.forcing.value;
  }
}

TEST(MetricEnginePacked, ScaleSocDigestsThreadInvariant) {
  // Full-universe packed sweep of the scale network: the canonical report
  // digest must not depend on the worker count.
  const Rsn rsn = scale_network();
  const FaultMetricEngine engine(rsn);
  MetricEngineOptions eo;
  eo.metric.keep_distribution = true;
  std::string first;
  std::size_t sweep_words = 0;
  for (const int threads : {1, 2, 4}) {
    eo.threads = threads;
    const std::string d = report_digest("scale", engine.evaluate(eo));
    if (first.empty()) {
      first = d;
      sweep_words = engine.last_stats().sweep_words;
      continue;
    }
    EXPECT_EQ(d, first) << "threads=" << threads;
    EXPECT_EQ(engine.last_stats().sweep_words, sweep_words)
        << "threads=" << threads;
  }
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(3), 3);
  EXPECT_GE(ThreadPool::resolve_threads(-5), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(n, 7, [&](int worker, std::size_t begin,
                                std::size_t end) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, threads);
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, 3, [&](int, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u) << round;
  }
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(64, 1,
                        [&](int, std::size_t begin, std::size_t) {
                          if (begin == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<int> ran{0};
  pool.parallel_for(8, 1,
                    [&](int, std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ZeroAndNegativeThreadsNormalize) {
  // threads <= 0 resolves to hardware concurrency, never below 1, and the
  // pool is immediately usable at the resolved size.
  for (const int requested : {0, -1, -100}) {
    ThreadPool pool(requested);
    EXPECT_GE(pool.num_threads(), 1) << requested;
    EXPECT_EQ(pool.num_threads(), ThreadPool::resolve_threads(requested));
    std::atomic<int> ran{0};
    pool.parallel_for(16, 2,
                      [&](int, std::size_t b, std::size_t e) {
                        ran.fetch_add(static_cast<int>(e - b));
                      });
    EXPECT_EQ(ran.load(), 16) << requested;
  }
}

TEST(ThreadPool, AttemptsEveryChunkDespiteException) {
  // Exception contract: a throwing chunk does not abort the job — all of
  // [0, n) is still attempted exactly once, then the error is rethrown.
  ThreadPool pool(4);
  const std::size_t n = 256;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  EXPECT_THROW(
      pool.parallel_for(n, 4,
                        [&](int, std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                            hits[i].fetch_add(1);
                          if (begin == 8) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SerialPathMatchesExceptionContract) {
  // The serial fast path (1 thread) follows the same rules as the threaded
  // path: every chunk attempted, *first* exception rethrown.
  ThreadPool pool(1);
  std::vector<int> hits(20, 0);
  try {
    pool.parallel_for(20, 2, [&](int, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
      if (begin == 4) throw std::runtime_error("first");
      if (begin == 12) throw std::runtime_error("second");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");  // chunks run in order when serial
  }
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, EmptyAndSerialFastPath) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, 8, [&](int, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n <= chunk runs inline on the caller.
  pool.parallel_for(5, 8, [&](int worker, std::size_t begin, std::size_t end) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace ftrsn
