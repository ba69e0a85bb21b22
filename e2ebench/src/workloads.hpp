// The benchmark's workloads.  Each drives the library's public entry
// points, checks every output, and fills `Result` with its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run).  The
// metric names and units are those of BENCHMARK.json; README.md gives the
// reasons for each workload.
#pragma once

#include "harness.hpp"

namespace e2e {

/// The 13 ITC'02 SoCs of Table I through parse + run_flow, one caller.
Result run_itc02_flow(const Config& config);

/// scale_soc networks at 10k and 20k elements through parse, pre-lint,
/// dataflow graph, augmentation and the original network's fault metric.
Result run_scale_metric(const Config& config);

/// A ServeServer on a Unix socket under a closed loop of `threads` client
/// connections: a warmed Zipf hot set plus a few percent of cold uploads.
Result run_serve_mix(const Config& config);

}  // namespace e2e
