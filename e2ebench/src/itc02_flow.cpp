// itc02_flow: the paper's Table I set through the product flow.
//
// Set-up writes each of the 13 ITC'02 SoCs to .rsn text.  The timed part
// is a closed loop with one caller: per network, parse_rsn_text (which
// validates, i.e. lints the input) and run_flow (augment, synthesis,
// post-synthesis lint, the metric of the original and the hardened network
// on one shared nproc pool, area).  Every metric report is checked against
// its SHA-256 pin in tests/data/corpus/manifest.sha256.
//
// The traced run makes one traced pass in which each hardened network is
// linted again right after its flow, then lints every hardened network once
// per rule, to attribute the post-synthesis lint time that run_flow spends
// inside synthesis.
#include <algorithm>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/flow.hpp"
#include "io/rsn_text.hpp"
#include "itc02/itc02.hpp"
#include "lint/lint.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ftrsn;

constexpr const char* kManifest = "tests/data/corpus/manifest.sha256";
constexpr int kSetupReps = 31;
/// Networks with fewer nodes (u226 ... g1023, 73-225 nodes) are "small":
/// each flow takes well under a second, so the untraced run repeats them.
/// The larger ones (from p34392, 349 nodes) run once.
constexpr std::size_t kSmallNodes = 300;

struct Net {
  std::string soc;
  std::string text;
  bool small = false;
};

struct Pass {
  double wall_s = 0.0;
  /// Median flow time per network, in `nets` order.
  std::vector<double> flow_s;
  std::vector<double> area_ratio;
  double ft_seg_worst_min = 1.0;
  double synth_s = 0.0;
  double metric_s = 0.0;
  long long added_muxes = 0;
  std::vector<Rsn> hardened;  // kept for the traced rule probes
  /// Counter deltas of the first run of every network.
  Counters counters;
  /// Obs counters of the traced post-synthesis lint re-runs.
  Counters lint_post_counters;
};

std::map<std::string, std::string> load_pins() {
  std::ifstream in(kManifest);
  if (!in) throw std::runtime_error(std::string("cannot read ") + kManifest);
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string digest, name;
    if (fields >> digest >> name) pins[name] = digest;
  }
  return pins;
}

std::vector<Net> build_nets(std::uint64_t seed) {
  std::vector<Net> nets;
  for (const itc02::Soc& soc : itc02::socs()) {
    const Rsn rsn = itc02::generate_sib_rsn(soc);
    nets.push_back(
        {soc.name, write_rsn_text(rsn), rsn.num_nodes() < kSmallNodes});
  }
  // The seed fixes the order in which the caller submits the networks.
  for (std::size_t i = nets.size(); i > 1; --i)
    std::swap(nets[i - 1], nets[mix(seed + i) % i]);
  return nets;
}

void check_digest(const std::map<std::string, std::string>& pins,
                  const std::string& name, const FaultToleranceReport* report,
                  bool& ok, Result& result) {
  const auto pin = pins.find(name);
  if (!report || pin == pins.end() ||
      report_digest(name, *report) != pin->second) {
    ok = false;
    result.fail(name + ": metric report does not match its corpus pin",
                false);
  }
}

/// One flow of one network: parse_rsn_text (validating) and run_flow,
/// checked against the corpus pins.  The first repetition of a network
/// records its outputs and counters into `pass`.  Returns the wall time.
double run_network(const Net& net, long long id, const FlowOptions& options,
                   const std::map<std::string, std::string>& pins,
                   Tracer& tracer, bool first, Pass& pass, Result& result) {
  ++result.attempted;
  const Counters c0 = counters_now();
  const auto t0 = Clock::now();
  try {
    Tracer::Span root(tracer, 0, "itc02.network", id);
    // parse_rsn_text(text) is this parse followed by validate_or_die().
    Rsn rsn = [&] {
      Tracer::Span s(tracer, 0, "io.parse", id);
      return parse_rsn_text(net.text, /*validate=*/false);
    }();
    {
      Tracer::Span s(tracer, 0, "lint.pre", id);
      rsn.validate_or_die();
    }
    FlowResult flow;
    {
      Tracer::Span s(tracer, 0, "core.flow", id);
      flow = run_flow(rsn, options);
    }
    const double seconds = seconds_since(t0);
    bool ok = true;
    check_digest(pins, net.soc + "-orig",
                 flow.original_metric ? &*flow.original_metric : nullptr, ok,
                 result);
    check_digest(pins, net.soc + "-ft",
                 flow.hardened_metric ? &*flow.hardened_metric : nullptr, ok,
                 result);
    if (!ok) ++result.failed;
    if (first) {
      for (const auto& [name, n] : delta(c0, counters_now()))
        pass.counters[name] += n;
      pass.area_ratio.push_back(flow.overhead.area);
      if (flow.hardened_metric)
        pass.ft_seg_worst_min =
            std::min(pass.ft_seg_worst_min, flow.hardened_metric->seg_worst);
      pass.synth_s += flow.synth_seconds;
      pass.metric_s += flow.metric_seconds;
      pass.added_muxes += flow.synth_stats.added_muxes;
      if (tracer.on()) {
        // The post-synthesis lint again, alone and right after the flow
        // that ran it inside synthesis, so that lint.post_s and synth.s are
        // taken in the same phase of the host.  It counts its cone work in
        // its own obs context, outside the flow's counters.
        obs::ObsContext lint_ctx;
        {
          obs::ContextScope scope(lint_ctx);
          Tracer::Span s(tracer, 0, "lint.post", id);
          if (lint::has_errors(lint::lint_rsn(flow.hardened)))
            result.fail(net.soc + ": post-synthesis lint reports errors",
                        false);
        }
        for (const auto& [name, n] : lint_ctx.counters())
          pass.lint_post_counters[name] += n;
        pass.hardened.push_back(std::move(flow.hardened));
      }
    }
    return seconds;
  } catch (const std::exception& e) {
    result.fail(net.soc + ": flow threw: " + e.what());
    return seconds_since(t0);
  }
}

/// One closed-loop pass over the networks, in the seed's order.  With
/// `repeat`, every large network is followed by one more run of each small
/// network, and a network's time is the median of its runs.  The small
/// networks' runs are thus spread over the whole pass: on a shared 4-vCPU
/// VM, speed was seen to drift by a third over a few seconds, and a median
/// over one second of runs would sample one such phase, where a large
/// network's single long run averages over many.  The schedule depends only on the networks, not
/// on how fast they run.
Pass run_pass(const std::vector<Net>& nets, ThreadPool& pool,
              const std::map<std::string, std::string>& pins, Tracer& tracer,
              bool repeat, Result& result) {
  Pass pass;
  FlowOptions options;
  options.metric_pool = &pool;
  // The corpus pins digest the full per-fault distribution.
  options.metric.keep_distribution = true;
  std::vector<std::vector<double>> runs(nets.size());
  const auto run = [&](std::size_t i) {
    runs[i].push_back(run_network(nets[i], static_cast<long long>(i), options,
                                  pins, tracer, runs[i].empty(), pass,
                                  result));
  };
  const auto t_pass = Clock::now();
  for (std::size_t i = 0; i < nets.size(); ++i) {
    run(i);
    if (repeat && !nets[i].small)
      for (std::size_t j = 0; j < nets.size(); ++j)
        if (nets[j].small) run(j);
  }
  pass.wall_s = seconds_since(t_pass);
  for (const std::vector<double>& r : runs) pass.flow_s.push_back(median(r));
  return pass;
}

/// Post-synthesis lint of the hardened networks rule by rule, after the
/// pass: two single-threaded probes side by side on trace lanes 1-2, the
/// select-self-loop rule, and the other two named rules followed by every
/// remaining rule.
void rule_probes(const std::vector<Rsn>& hardened, Tracer& tracer,
                 Result& result) {
  static const char* const kRules[] = {"select-self-loop", "select-term-unsat",
                                       "const-false-select"};
  static const char* const kRuleSpans[] = {"lint.rule.select-self-loop",
                                           "lint.rule.select-term-unsat",
                                           "lint.rule.const-false-select"};
  const auto only = [](const std::string& keep, bool rest) {
    lint::LintOptions options;
    for (const lint::RuleInfo& rule : lint::LintRunner::rules()) {
      bool named = false;
      for (const char* id : kRules) named = named || rule.id == id;
      options.enabled[rule.id] = rest ? !named : rule.id == keep;
    }
    return options;
  };
  const auto each = [&](int lane, const char* span,
                        const lint::LintOptions& options) {
    for (std::size_t i = 0; i < hardened.size(); ++i) {
      Tracer::Span s(tracer, lane, span, static_cast<long long>(i));
      lint::lint_rsn(hardened[i], options);
    }
  };
  try {
    auto self_loop = std::async(std::launch::async, [&] {
      each(1, kRuleSpans[0], only(kRules[0], false));
    });
    auto others = std::async(std::launch::async, [&] {
      each(2, kRuleSpans[1], only(kRules[1], false));
      each(2, kRuleSpans[2], only(kRules[2], false));
      each(2, "lint.rule.rest", only("", true));
    });
    self_loop.get();
    others.get();
  } catch (const std::exception& e) {
    result.fail(std::string("lint probe threw: ") + e.what(), false);
  }
  for (const char* span : kRuleSpans)
    result.add(std::string(span) + "_s", tracer.total_s(span), "s");
  result.add("lint.rule.rest_s", tracer.total_s("lint.rule.rest"), "s");
}

}  // namespace

Result run_itc02_flow(const Config& config) {
  Result result;
  const auto pins = load_pins();
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
        nets = build_nets(config.seed);
      });
  result.add("setup_s", setup_s, "s");

  if (!config.trace) {
    Tracer untraced(false, 1);
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    do {
      passes.push_back(
          run_pass(nets, *pool, pins, untraced, /*repeat=*/true, result));
    } while (seconds_since(t0) < config.seconds);
    result.counters = passes.front().counters;

    // One time per network (the median over its runs); a pass is their sum.
    std::vector<double> per_net_s, per_net_ms;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      std::vector<double> t;
      for (const Pass& p : passes) t.push_back(p.flow_s[i]);
      per_net_s.push_back(median(t));
      per_net_ms.push_back(per_net_s.back() * 1e3);
    }
    double wall_s = 0.0;
    for (const double t : per_net_s) wall_s += t;
    const Pass& last = passes.back();
    result.add("wall_s", wall_s, "s");
    result.add("flow_geomean_ms", geomean(per_net_ms), "ms");
    result.add("req_p50_us", percentile(per_net_s, 0.50) * 1e6, "us");
    result.add("req_p99_us", percentile(per_net_s, 0.99) * 1e6, "us");
    result.add("req_per_s", static_cast<double>(nets.size()) / wall_s, "1/s");
    result.add("area_ratio_geomean", geomean(last.area_ratio), "ratio");
    result.add("ft_seg_worst_min", last.ft_seg_worst_min, "ratio");
    return result;
  }

  // Traced run: one pass with spans around each layer call, then the rule
  // probes.  The spans sit outside run_flow, so the per-network flow times
  // are those of an untraced flow.
  Tracer tracer(true, 3);
  const Pass traced =
      run_pass(nets, *pool, pins, tracer, /*repeat=*/false, result);
  result.counters = traced.counters;
  if (traced.hardened.size() == nets.size())
    rule_probes(traced.hardened, tracer, result);
  const double lint_post_s = tracer.total_s("lint.post");
  const Counters& lint_work = traced.lint_post_counters;
  const double solved =
      static_cast<double>(get(lint_work, "lint.cones_solved_sat") +
                          get(lint_work, "lint.cones_solved_tristate"));
  const double hits = static_cast<double>(get(lint_work, "lint.cache_hits"));
  result.add("lint.post_s", lint_post_s, "s");
  result.add("lint.cones_solved", solved, "count");
  result.add("lint.cache_hit_ratio",
             hits + solved > 0 ? hits / (hits + solved) : 0.0, "ratio");

  for (std::size_t i = 0; i < nets.size(); ++i)
    result.add("flow." + nets[i].soc + "_s", traced.flow_s[i], "s");
  const double parse_s = tracer.total_s("io.parse");
  double bytes = 0.0;
  for (const Net& n : nets) bytes += static_cast<double>(n.text.size());
  result.add("io.parse_s", parse_s, "s");
  result.add("io.parse_mb_per_s", bytes / parse_s * 1e-6, "MB/s");
  result.add("lint.pre_s", tracer.total_s("lint.pre"), "s");
  const double evals =
      static_cast<double>(get(traced.counters, "metric.mask_evals"));
  const double batches =
      static_cast<double>(get(traced.counters, "metric.packed_batches"));
  result.add("fault.metric_s", traced.metric_s, "s");
  result.add("fault.mask_evals", evals, "count");
  result.add("fault.mask_evals_per_us", evals / (traced.metric_s * 1e6),
             "1/us");
  result.add("fault.lane_utilization",
             batches > 0 ? static_cast<double>(get(traced.counters,
                                                   "metric.classes")) /
                               (64.0 * batches)
                         : 0.0,
             "ratio");
  result.add("synth.s", traced.synth_s, "s");
  result.add("synth.self_s", traced.synth_s - lint_post_s, "s");
  result.add("synth.added_muxes", static_cast<double>(traced.added_muxes),
             "count");
  result.add("augment.added_edges",
             static_cast<double>(get(traced.counters, "augment.added_edges")),
             "count");
  result.add("ilp.flow_work",
             static_cast<double>(get(traced.counters, "ilp.flow_pushes") +
                                 get(traced.counters, "ilp.flow_relabels")),
             "count");
  // The sum of the flow times, like the untraced wall_s: the pass's own
  // wall time also holds the lint re-runs.
  double flows_s = 0.0;
  for (const double t : traced.flow_s) flows_s += t;
  result.add("trace.wall_s", flows_s, "s");
  tracer.write_chrome(config.out_dir + "/trace-itc02_flow-seed" +
                      std::to_string(config.seed) + ".json");
  return result;
}

}  // namespace e2e
