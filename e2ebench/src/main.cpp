// e2ebench — the repository's end-to-end benchmark binary.
//
//   e2ebench --spec BENCHMARK.json --workload <name> --seed <n>
//            --seconds <s> --trace <0|1> [--out <dir>]
//
// Runs one workload (workloads.hpp), prints every metric of the run mode
// by name with its unit, and ends with one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
// --trace 1 its per_layer list.  A per-layer metric of a layer the workload
// does not run reads 0.  Run from the repository root (the corpus pins are
// read from tests/data/corpus/manifest.sha256).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using e2e::Metric;

struct Spec {
  std::vector<Metric> end_to_end, per_layer;
  std::vector<std::string> workloads;
};

Spec load_spec(const std::string& path) {
  std::string error;
  const auto doc = ftrsn::json::parse_file(path, &error);
  if (!doc) throw std::runtime_error("cannot read " + path + ": " + error);
  Spec spec;
  const auto list = [&](const char* key, std::vector<Metric>& out) {
    const ftrsn::json::Value* v = doc->find(key);
    if (!v || !v->is_array()) throw std::runtime_error(path + ": no " + key);
    for (const auto& m : v->items) {
      const auto* name = m.find("name");
      const auto* unit = m.find("unit");
      if (!name || !unit) throw std::runtime_error(path + ": bad metric");
      out.push_back({name->text, 0.0, unit->text});
    }
  };
  list("end_to_end", spec.end_to_end);
  list("per_layer", spec.per_layer);
  if (const auto* w = doc->find("workloads"))
    for (const auto& item : w->items)
      if (const auto* name = item.find("name"))
        spec.workloads.push_back(name->text);
  return spec;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --spec BENCHMARK.json "
               "--workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Config config;
  config.threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  config.out_dir = ".";
  std::string spec_path = "BENCHMARK.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") config.workload = value;
    else if (key == "--seed") config.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") config.seconds = std::atof(value.c_str());
    else if (key == "--trace") config.trace = value != "0";
    else if (key == "--out") config.out_dir = value;
    else if (key == "--spec") spec_path = value;
    else return usage(("unknown option " + key).c_str());
  }
  if (argc % 2 == 0) return usage("options take one value each");

  try {
    const Spec spec = load_spec(spec_path);
    bool known = false;
    for (const auto& w : spec.workloads) known = known || w == config.workload;
    if (!known) return usage(("unknown workload " + config.workload).c_str());
    std::filesystem::create_directories(config.out_dir);

    e2e::Result result;
    if (config.workload == "itc02_flow") result = e2e::run_itc02_flow(config);
    else if (config.workload == "scale_metric") result = e2e::run_scale_metric(config);
    else if (config.workload == "serve_mix") result = e2e::run_serve_mix(config);
    else return usage(("workload without an implementation: " + config.workload).c_str());

    // A workload may report its own peak, taken at a fixed point of its run.
    bool has_rss = false;
    for (const Metric& m : result.metrics)
      has_rss = has_rss || m.name == "peak_rss_mb";
    if (!has_rss) result.add("peak_rss_mb", e2e::peak_rss_mb(), "MB");
    result.add("failed_frac",
               result.attempted > 0 ? static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted)
                                    : 1.0,
               "ratio");
    const std::string counters_path =
        config.out_dir + "/counters-" + config.workload + "-seed" +
        std::to_string(config.seed) + (config.trace ? "-trace" : "") + ".json";
    e2e::write_counters(counters_path, result.counters);

    // Fill the mode's metric list from the run; every end-to-end metric is
    // required, a per-layer metric of a layer not on this workload is 0.
    for (const Metric& r : result.metrics) {
      bool listed = false;
      for (const auto* list : {&spec.end_to_end, &spec.per_layer})
        for (const Metric& m : *list) listed = listed || m.name == r.name;
      if (!listed) throw std::logic_error("metric not in the spec: " + r.name);
    }
    std::vector<Metric> out = config.trace ? spec.per_layer : spec.end_to_end;
    for (Metric& m : out) {
      bool found = false;
      for (const Metric& r : result.metrics) {
        if (r.name != m.name) continue;
        if (r.unit != m.unit)
          throw std::logic_error(m.name + ": unit " + r.unit +
                                 " differs from the spec's " + m.unit);
        if (!std::isfinite(r.value))
          throw std::logic_error(m.name + " is not a finite number");
        m.value = r.value;
        found = true;
      }
      if (!found && !config.trace)
        throw std::logic_error("end-to-end metric not measured: " + m.name);
    }

    for (const std::string& e : result.errors)
      std::printf("check failed: %s\n", e.c_str());
    std::printf("workload %s seed %llu threads %d trace %d: %lld attempted, "
                "%lld failed; counters in %s\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.threads,
                config.trace ? 1 : 0, result.attempted, result.failed,
                counters_path.c_str());
    for (const Metric& m : out)
      std::printf("  %-36s %16s %s\n", m.name.c_str(),
                  ftrsn::obs::detail::format_double(m.value).c_str(),
                  m.unit.c_str());

    std::string line = "{\"correct\": ";
    line += result.correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i) line += ", ";
      line += "\"" + out[i].name + "\": {\"value\": " +
              ftrsn::obs::detail::format_double(out[i].value) +
              ", \"unit\": \"" + out[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 3;
  }
}
