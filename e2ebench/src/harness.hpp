// Shared pieces of the end-to-end benchmark: run configuration, result
// and metric records, the in-memory span recorder used by traced runs,
// obs counter deltas, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  /// Minimum measured time of the timed loop; a workload always completes
  /// at least one full pass over its inputs.
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads for pools and serve clients: nproc.
  int threads = 1;
  /// Directory for span traces and counter dumps (inside the checkout).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one benchmark invocation.  `attempted` / `failed` count the
/// workload's operations (network flows or serve requests); an operation
/// whose output fails its check counts as failed.  `errors` keeps the first
/// few messages of every failed check, run-level checks included.
struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Obs counter deltas of one pass over the workload's inputs.
  std::map<std::string, std::uint64_t> counters;

  /// Records a failed check.  Run-level checks pass `op_failed = false`:
  /// they flip `correct()` without adding to the operation counts.
  void fail(const std::string& message, bool op_failed = true);
  bool correct() const { return errors.empty(); }
  void add(std::string name, double value, std::string unit);
};

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder for the traced run.  Spans are recorded only
/// from the benchmark's own code, around its calls into each library
/// layer.  Each thread records into its own lane (no locking); a span's
/// parent is the innermost span open on the same lane, and spans that
/// belong to one request share its trace id.  Written out once, at the
/// end of the run, as Chrome trace-event JSON.
class Tracer {
 public:
  Tracer(bool on, int lanes);

  bool on() const { return on_; }

  class Span {
   public:
    Span(Tracer& tracer, int lane, const char* name, long long trace_id = -1);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    Tracer* tracer_ = nullptr;
    int lane_ = 0;
    std::size_t index_ = 0;
  };

  /// Sum of the durations of every span named `name`, in seconds.
  double total_s(std::string_view name) const;
  bool write_chrome(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    long long trace_id;
    long long parent;  // index in the same lane, -1 for a root span
    std::uint64_t t0_ns, t1_ns;
  };
  struct Lane {
    std::vector<Rec> spans;
    std::vector<std::size_t> open;
  };
  std::uint64_t now_ns() const;

  bool on_;
  Clock::time_point epoch_;
  std::vector<Lane> lanes_;
};

// --- obs counters ------------------------------------------------------------

using Counters = std::map<std::string, std::uint64_t>;

/// Snapshot of the process-default obs context's always-on counters.
Counters counters_now();
/// after - before, per counter (counters only grow within a run).
Counters delta(const Counters& before, const Counters& after);
/// Counters whose value depends on thread timing rather than on the
/// inputs: pool chunk claims and single-flight coalescing.
bool timing_dependent(std::string_view counter);
/// Names of the deterministic counters on which `a` and `b` disagree.
std::vector<std::string> counter_mismatches(const Counters& a,
                                            const Counters& b);
std::uint64_t get(const Counters& c, const std::string& name);
/// Writes the counters as {"deterministic": {...}, "timing_dependent":
/// {...}}.
bool write_counters(const std::string& path, const Counters& c);

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double peak_rss_mb();

/// Runs `setup` `reps` times and returns the median wall time in seconds.
/// `teardown` runs untimed before each repetition, so that freeing the
/// previous repetition's state is not counted as set-up.
template <typename T, typename F>
double timed_setup(int reps, T&& teardown, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    teardown();
    const auto t0 = Clock::now();
    setup(i);
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

/// splitmix64: derives independent, reproducible streams from the seed.
std::uint64_t mix(std::uint64_t x);

}  // namespace e2e
