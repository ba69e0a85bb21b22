// scale_metric: the front half of the flow at gen::scale_soc sizes.
//
// Set-up builds two scale_soc networks from the u226 template, at 10k and
// 20k scan elements, with the workload seed as the jitter seed.  The timed
// part takes each network through write_rsn_text, parse_rsn_text (which
// validates, i.e. lints the input), DataflowGraph::from_rsn,
// augment_connectivity with default options, and the fault metric of the
// original network on an nproc pool.  Full synthesis is left out: it does
// not finish at these sizes yet.
//
// Checks: the parsed network hashes like the generated one, the
// augmentation passes lint_augmentation, the metric report repeats
// bit-for-bit on every pass and covers the whole fault universe, and its
// worst fault, re-evaluated by the legacy accessibility fixpoint, gives
// the reported worst-case accessibility.
#include <cmath>
#include <stdexcept>

#include "augment/augment.hpp"
#include "fault/metric.hpp"
#include "fault/metric_engine.hpp"
#include "gen/scale.hpp"
#include "graph/dataflow.hpp"
#include "io/rsn_text.hpp"
#include "lint/lint.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ftrsn;

constexpr long long kSizes[] = {10000, 20000};
constexpr int kSetupReps = 31;

struct Net {
  long long target = 0;
  Rsn rsn;
  std::string content_hash;
};

struct NetOutcome {
  double seconds = 0.0;
  std::string digest;
  FaultToleranceReport report;
  Counters counters;
  double lane_utilization = 0.0;
  std::size_t packed_batches = 0;
};

struct Pass {
  double wall_s = 0.0;
  std::vector<NetOutcome> nets;
  Counters counters;
};

NetOutcome run_network(const Net& net, ThreadPool& pool, Tracer& tracer,
                       long long id, Result& result) {
  NetOutcome out;
  const Counters c0 = counters_now();
  const auto t0 = Clock::now();
  Tracer::Span root(tracer, 0, "scale.network", id);
  std::string text;
  {
    Tracer::Span s(tracer, 0, "io.write", id);
    text = write_rsn_text(net.rsn);
  }
  // parse_rsn_text(text) is this parse followed by validate_or_die().
  Rsn rsn = [&] {
    Tracer::Span s(tracer, 0, "io.parse", id);
    return parse_rsn_text(text, /*validate=*/false);
  }();
  {
    Tracer::Span s(tracer, 0, "lint.pre", id);
    rsn.validate_or_die();
  }
  const DataflowGraph graph = [&] {
    Tracer::Span s(tracer, 0, "graph.build", id);
    return DataflowGraph::from_rsn(rsn);
  }();
  const AugmentResult augmented = [&] {
    Tracer::Span s(tracer, 0, "augment", id);
    return augment_connectivity(graph);
  }();
  {
    Tracer::Span s(tracer, 0, "fault.metric", id);
    const FaultMetricEngine engine(rsn);
    MetricEngineOptions options;
    options.pool = &pool;
    out.report = engine.evaluate(options);
    out.lane_utilization = engine.last_stats().lane_utilization;
    out.packed_batches = engine.last_stats().packed_batches;
  }
  out.seconds = seconds_since(t0);
  out.counters = delta(c0, counters_now());

  const std::string name = "scale" + std::to_string(net.target);
  if (rsn.content_hash() != net.content_hash)
    result.fail(name + ": parsed network differs from the written one",
                false);
  if (lint::has_errors(lint::lint_augmentation(graph, augmented.added_edges)))
    result.fail(name + ": augmentation fails lint_augmentation", false);
  out.digest = report_digest(name, out.report);
  return out;
}

Pass run_pass(const std::vector<Net>& nets, ThreadPool& pool, Tracer& tracer,
              Result& result) {
  Pass pass;
  const Counters c0 = counters_now();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < nets.size(); ++i) {
    ++result.attempted;
    try {
      pass.nets.push_back(run_network(nets[i], pool, tracer,
                                      static_cast<long long>(i), result));
    } catch (const std::exception& e) {
      result.fail("scale" + std::to_string(nets[i].target) +
                  ": threw: " + e.what());
      pass.nets.emplace_back();
    }
  }
  pass.wall_s = seconds_since(t0);
  pass.counters = delta(c0, counters_now());
  return pass;
}

/// Output checks shared by both run modes: every pass reproduces the
/// first pass's report bit for bit, the report covers the whole fault
/// universe, and the legacy fixpoint agrees on the worst fault.
void check_reports(const std::vector<Net>& nets,
                   const std::vector<Pass>& passes, Result& result) {
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const NetOutcome& first = passes.front().nets[i];
    const std::string name = "scale" + std::to_string(nets[i].target);
    if (first.digest.empty()) continue;  // the network threw; counted
    for (const Pass& p : passes)
      if (p.nets[i].digest != first.digest)
        result.fail(name + ": metric report changed between passes", false);
    const std::vector<Fault> faults = enumerate_faults(nets[i].rsn);
    const FaultToleranceReport& r = first.report;
    if (r.num_faults != faults.size() ||
        r.worst_fault_index >= faults.size()) {
      result.fail(name + ": metric report misses part of the fault universe",
                  false);
      continue;
    }
    const FaultToleranceReport legacy = compute_fault_tolerance(
        nets[i].rsn, std::vector<Fault>{faults[r.worst_fault_index]});
    if (legacy.seg_worst != r.seg_worst || legacy.bit_worst != r.bit_worst)
      result.fail(name + ": worst fault disagrees with the legacy fixpoint",
                  false);
  }
}

double growth(const Pass& p, const char* a, const char* b = nullptr) {
  const auto work = [&](const NetOutcome& n) {
    return static_cast<double>(get(n.counters, a) + (b ? get(n.counters, b) : 0));
  };
  const double small = work(p.nets.front()), large = work(p.nets.back());
  return small > 0 && large > 0 ? std::log2(large / small) : 0.0;
}

}  // namespace

Result run_scale_metric(const Config& config) {
  Result result;
  std::vector<Net> nets;
  std::unique_ptr<ThreadPool> pool;
  const double setup_s = timed_setup(
      kSetupReps,
      [&] {
        pool.reset();
        nets.clear();
      },
      [&](int) {
        pool = std::make_unique<ThreadPool>(config.threads, "metric");
        for (const long long target : kSizes) {
          gen::ScaleOptions options;
          options.base = "u226";
          options.target_elements = target;
          options.seed = config.seed;
          nets.push_back({target,
                          itc02::generate_sib_rsn(gen::scale_soc(options).soc),
                          {}});
        }
      });
  result.add("setup_s", setup_s, "s");
  for (Net& n : nets) n.content_hash = n.rsn.content_hash();

  if (!config.trace) {
    Tracer untraced(false, 1);
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    do {
      passes.push_back(run_pass(nets, *pool, untraced, result));
    } while (seconds_since(t0) < config.seconds);
    check_reports(nets, passes, result);
    result.counters = passes.front().counters;
    for (const Pass& p : passes)
      for (const std::string& m : counter_mismatches(passes.front().counters,
                                                     p.counters))
        result.fail("counter differs between two passes: " + m, false);

    // One time per network (the median over passes), as in itc02_flow.
    std::vector<double> walls, per_net_s, per_net_ms;
    for (const Pass& p : passes) walls.push_back(p.wall_s);
    for (std::size_t i = 0; i < nets.size(); ++i) {
      std::vector<double> t;
      for (const Pass& p : passes) t.push_back(p.nets[i].seconds);
      per_net_s.push_back(median(t));
      per_net_ms.push_back(per_net_s.back() * 1e3);
    }
    const double wall_s = median(walls);
    result.add("wall_s", wall_s, "s");
    result.add("flow_geomean_ms", geomean(per_net_ms), "ms");
    result.add("req_p50_us", percentile(per_net_s, 0.50) * 1e6, "us");
    result.add("req_p99_us", percentile(per_net_s, 0.99) * 1e6, "us");
    result.add("req_per_s", static_cast<double>(nets.size()) / wall_s, "1/s");
    // This workload hardens nothing, so the two quality guards take their
    // neutral value: no area overhead, no accessibility to lose.
    result.add("area_ratio_geomean", 1.0, "ratio");
    result.add("ft_seg_worst_min", 1.0, "ratio");
    return result;
  }

  // Traced run: one pass with spans around each layer call.
  Tracer tracer(true, 1);
  const std::vector<Pass> passes{run_pass(nets, *pool, tracer, result)};
  check_reports(nets, passes, result);
  const Pass& traced = passes.front();
  result.counters = traced.counters;

  double bytes = 0.0;
  for (const Net& n : nets) bytes += static_cast<double>(write_rsn_text(n.rsn).size());
  const double parse_s = tracer.total_s("io.parse");
  const double metric_s = tracer.total_s("fault.metric");
  const double evals =
      static_cast<double>(get(traced.counters, "metric.mask_evals"));
  double lanes = 0.0, batches = 0.0;
  for (const NetOutcome& n : traced.nets) {
    lanes += n.lane_utilization * static_cast<double>(n.packed_batches);
    batches += static_cast<double>(n.packed_batches);
  }
  result.add("io.parse_s", parse_s, "s");
  result.add("io.parse_mb_per_s", bytes / parse_s * 1e-6, "MB/s");
  result.add("lint.pre_s", tracer.total_s("lint.pre"), "s");
  result.add("graph.build_s", tracer.total_s("graph.build"), "s");
  result.add("augment.s", tracer.total_s("augment"), "s");
  result.add("augment.added_edges",
             static_cast<double>(get(traced.counters, "augment.added_edges")),
             "count");
  result.add("ilp.flow_work",
             static_cast<double>(get(traced.counters, "ilp.flow_pushes") +
                                 get(traced.counters, "ilp.flow_relabels")),
             "count");
  result.add("ilp.flow_work_growth",
             growth(traced, "ilp.flow_pushes", "ilp.flow_relabels"), "log2");
  result.add("fault.metric_s", metric_s, "s");
  result.add("fault.mask_evals", evals, "count");
  result.add("fault.mask_evals_per_us", evals / (metric_s * 1e6), "1/us");
  result.add("fault.lane_utilization", batches > 0 ? lanes / batches : 0.0,
             "ratio");
  result.add("fault.mask_evals_growth", growth(traced, "metric.mask_evals"),
             "log2");
  result.add("trace.wall_s", traced.wall_s, "s");
  tracer.write_chrome(config.out_dir + "/trace-scale_metric-seed" +
                      std::to_string(config.seed) + ".json");
  return result;
}

}  // namespace e2e
