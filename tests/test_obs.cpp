// ftrsn_obs test suite (ctest -L obs).
//
// Each TEST runs as its own ctest entry (gtest_discover_tests), i.e. in a
// fresh process, so the process-wide obs registry starts empty: counter
// registration, thread-lane numbering and golden-file output are
// deterministic per test.
//
// The golden-file tests pin the exported trace-event and run-report JSON
// byte for byte under a fake clock (detail::set_clock_for_test) and with
// machine-dependent report fields disabled.  Regenerate the goldens after
// an intentional format change with:
//
//   FTRSN_REGOLD=1 ./ftrsn_obs_tests --gtest_filter='ObsGolden.*'
#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "itc02/itc02.hpp"
#include "lint/lint.hpp"
#include "obs/diff.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ftrsn {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(FTRSN_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_matches_golden(const std::string& got, const std::string& file) {
  const std::string path = golden_path(file);
  if (std::getenv("FTRSN_REGOLD") != nullptr) {
    ASSERT_TRUE(obs::write_file(path, got)) << path;
    return;
  }
  EXPECT_EQ(got, read_file(path)) << "golden mismatch: " << path;
}

// Fake clock: every call advances time by 100 us, starting at 0.
std::atomic<std::uint64_t> fake_ticks{0};
std::uint64_t fake_clock() { return fake_ticks.fetch_add(1) * 100; }

struct FakeClockScope {
  FakeClockScope() {
    fake_ticks.store(0);
    obs::reset();
    obs::detail::set_clock_for_test(&fake_clock);
  }
  ~FakeClockScope() {
    obs::detail::set_clock_for_test(nullptr);
    obs::enable(false);
    obs::reset();
  }
};

// --- golden files (declared first; fresh process per test regardless) -------

TEST(ObsGolden, TraceJson) {
  FakeClockScope clock;
  obs::enable(true);
  {
    OBS_SPAN("parse");
    { OBS_SPAN("solve"); }
  }
  { OBS_SPAN("emit"); }
  expect_matches_golden(obs::trace_json(), "obs_golden_trace.json");
}

TEST(ObsGolden, ReportJson) {
  FakeClockScope clock;
  obs::enable(true);
  obs::Counter items("golden.items");
  items.add(3);
  obs::count("golden.retries");
  obs::gauge_set("golden.ratio", 0.5);
  obs::gauge_max("golden.ratio", 0.25);  // keeps the max (0.5)
  {
    OBS_SPAN("parse");
    { OBS_SPAN("solve"); }
  }
  { OBS_SPAN("emit"); }
  { OBS_SPAN("emit"); }  // aggregated: stage "emit" count 2
  obs::ReportOptions opt;
  opt.include_machine = false;  // byte-stable across machines
  expect_matches_golden(obs::report_json(opt), "obs_golden_report.json");
}

// --- counters ---------------------------------------------------------------

TEST(Obs, CountersAlwaysOnAndDeterministic) {
  obs::reset();
  ASSERT_FALSE(obs::enabled());  // counters must not depend on tracing
  obs::Counter hits("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) hits.add();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(hits.value(), kThreads * kPerThread);
  EXPECT_EQ(obs::counter_value("test.hits"), kThreads * kPerThread);
  EXPECT_EQ(obs::counters_snapshot().at("test.hits"), kThreads * kPerThread);
  hits.reset();
  EXPECT_EQ(hits.value(), 0u);
}

TEST(Obs, GaugeSetAndMax) {
  obs::reset();
  obs::gauge_set("test.g", 2.0);
  obs::gauge_max("test.g", 1.0);
  EXPECT_DOUBLE_EQ(obs::gauges_snapshot().at("test.g"), 2.0);
  obs::gauge_max("test.g", 5.0);
  EXPECT_DOUBLE_EQ(obs::gauges_snapshot().at("test.g"), 5.0);
}

// --- spans ------------------------------------------------------------------

TEST(Obs, DisabledSpansRecordNothing) {
  obs::reset();
  ASSERT_FALSE(obs::enabled());
  { OBS_SPAN("invisible"); }
  obs::enable(true);
  { OBS_SPAN("visible"); }
  obs::enable(false);
  const std::string trace = obs::trace_json();
  EXPECT_EQ(trace.find("invisible"), std::string::npos);
  EXPECT_NE(trace.find("visible"), std::string::npos);
}

TEST(Obs, SpanNestingAcrossThreads) {
  obs::reset();
  obs::enable(true);
  {
    OBS_SPAN("outer");
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t)
      workers.emplace_back([t] {
        obs::set_thread_name("nest-w" + std::to_string(t));
        OBS_SPAN("worker.outer");
        { OBS_SPAN("worker.inner"); }
      });
    for (auto& w : workers) w.join();
  }
  obs::enable(false);
  const std::string trace = obs::trace_json();
  // Every thread got its own named lane and both nesting levels landed.
  for (int t = 0; t < 3; ++t)
    EXPECT_NE(trace.find("nest-w" + std::to_string(t)), std::string::npos);
  EXPECT_NE(trace.find("\"worker.inner\", \"args\": {\"depth\": 1}"),
            std::string::npos);
  EXPECT_NE(trace.find("\"worker.outer\", \"args\": {\"depth\": 0}"),
            std::string::npos);
  EXPECT_NE(trace.find("\"outer\", \"args\": {\"depth\": 0}"),
            std::string::npos);
}

TEST(Obs, ThreadPoolWorkersGetNamedLanes) {
  obs::reset();
  obs::enable(true);
  {
    ThreadPool pool(4, "metric");
    pool.parallel_for(64, 1, [](int, std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  obs::enable(false);
  const std::string trace = obs::trace_json();
  EXPECT_NE(trace.find("metric.lane"), std::string::npos);
  EXPECT_NE(trace.find("metric-w1"), std::string::npos);
  EXPECT_GE(obs::counter_value("pool.chunks"), 64u);
}

TEST(Obs, ReportStagesSumMatchesDepthZeroSpans) {
  obs::reset();
  obs::enable(true);
  {
    OBS_SPAN("stage.a");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    OBS_SPAN("stage.b");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  obs::enable(false);
  const std::string report = obs::report_json();
  EXPECT_NE(report.find("\"schema\": \"ftrsn-run-report\""),
            std::string::npos);
  EXPECT_NE(report.find("stage.a"), std::string::npos);
  EXPECT_NE(report.find("stage.b"), std::string::npos);
  EXPECT_NE(report.find("\"stages_total_seconds\""), std::string::npos);
  EXPECT_NE(report.find("\"peak_rss_kb\""), std::string::npos);
}

TEST(Obs, TracedLintReportsOneSpanFamilyPerEnabledRule) {
  const Rsn rsn = itc02::generate_sib_rsn(itc02::socs().front());
  lint::LintOptions opts;
  opts.ft_rules = true;
  opts.enabled["scan-cycle"] = false;
  std::set<std::string> want;
  for (const lint::RuleInfo& r : lint::LintRunner::rules())
    if (r.stage != lint::RuleStage::kDataflow &&
        r.stage != lint::RuleStage::kAugment && r.id != "scan-cycle")
      want.insert("lint.rule." + r.id);

  obs::reset();
  obs::enable(true);
  lint::lint_rsn(rsn, opts);
  obs::enable(false);
  std::set<std::string> got;
  for (const auto& [name, h] : obs::histograms_snapshot())
    if (name.rfind("lint.rule.", 0) == 0) {
      got.insert(name);
      EXPECT_EQ(h.count, 1u) << name;
    }
  EXPECT_EQ(got, want);
  obs::reset();
}

TEST(Obs, DisabledModeOverheadSmoke) {
  obs::reset();
  ASSERT_FALSE(obs::enabled());
  // 10M disabled span constructions must be near-free (an atomic load and
  // a branch each).  The bound is ~100x slack over the expected cost so the
  // test only catches catastrophic regressions (e.g. a clock read or an
  // allocation sneaking into the disabled path).
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10'000'000; ++i) {
    OBS_SPAN("never.recorded");
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 2.0);
  EXPECT_EQ(obs::trace_json().find("never.recorded"), std::string::npos);
}

// --- environment wiring -----------------------------------------------------

TEST(Obs, InitFromEnvSemantics) {
  unsetenv("FTRSN_TRACE");
  unsetenv("FTRSN_REPORT");
  obs::enable(false);
  EXPECT_FALSE(obs::init_from_env("tool").any());
  EXPECT_FALSE(obs::enabled());

  setenv("FTRSN_TRACE", "0", 1);
  EXPECT_FALSE(obs::init_from_env("tool").any());

  setenv("FTRSN_TRACE", "1", 1);
  obs::EnvConfig cfg = obs::init_from_env("tool");
  EXPECT_EQ(cfg.trace_path, "tool_trace.json");
  EXPECT_TRUE(cfg.report_path.empty());
  EXPECT_TRUE(obs::enabled());

  obs::enable(false);
  setenv("FTRSN_TRACE", "/tmp/custom.json", 1);
  setenv("FTRSN_REPORT", "1", 1);
  cfg = obs::init_from_env("tool");
  EXPECT_EQ(cfg.trace_path, "/tmp/custom.json");
  EXPECT_EQ(cfg.report_path, "tool_report.json");
  EXPECT_TRUE(obs::enabled());

  unsetenv("FTRSN_TRACE");
  unsetenv("FTRSN_REPORT");
  obs::enable(false);
  obs::reset();
}

TEST(Obs, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "obs_roundtrip.json";
  ASSERT_TRUE(obs::write_file(path, "{\"x\": 1}\n"));
  EXPECT_EQ(read_file(path), "{\"x\": 1}\n");
  std::remove(path.c_str());
}

// --- streaming trace export --------------------------------------------------

// A streamed single-lane trace is byte-identical to trace_json() of the
// same workload, even when the tiny buffer threshold forces many
// incremental flushes along the way.
TEST(ObsStream, StreamedFileMatchesTraceJsonByteForByte) {
  const std::string path = ::testing::TempDir() + "obs_stream.json";
  const auto workload = [] {
    for (int i = 0; i < 20; ++i) {
      OBS_SPAN("stream.outer");
      { OBS_SPAN("stream.inner"); }
    }
  };
  std::string expected;
  {
    FakeClockScope clock;
    obs::enable(true);
    workload();
    expected = obs::trace_json();
  }
  {
    FakeClockScope clock;
    obs::enable(true);
    ASSERT_TRUE(obs::stream_trace_to(path, 4));
    EXPECT_TRUE(obs::trace_streaming());
    workload();
    ASSERT_TRUE(obs::close_trace_stream());
    EXPECT_FALSE(obs::trace_streaming());
  }
  EXPECT_EQ(read_file(path), expected);
  std::remove(path.c_str());
}

// Flush-on-threshold bounds the in-memory event buffer: after every span
// the buffered count stays at (threshold + concurrent slack); with a
// single thread the bound is exact.
TEST(ObsStream, FlushBoundsBufferedEvents) {
  const std::string path = ::testing::TempDir() + "obs_stream_bound.json";
  FakeClockScope clock;
  obs::enable(true);
  constexpr std::size_t kThreshold = 8;
  ASSERT_TRUE(obs::stream_trace_to(path, kThreshold));
  for (int i = 0; i < 100; ++i) {
    { OBS_SPAN("bound.span"); }
    EXPECT_LT(obs::detail::buffered_span_events(), kThreshold) << i;
  }
  ASSERT_TRUE(obs::close_trace_stream());
  EXPECT_EQ(obs::detail::buffered_span_events(), 0u);
  // All 100 events reached the file despite the 8-event buffer.
  const std::string trace = read_file(path);
  std::size_t events = 0;
  for (std::size_t pos = trace.find("bound.span"); pos != std::string::npos;
       pos = trace.find("bound.span", pos + 1))
    ++events;
  EXPECT_EQ(events, 100u);
  EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n");
  std::remove(path.c_str());
}

// write_trace() on the active stream path finalizes the stream instead of
// re-dumping from (already drained) memory.
TEST(ObsStream, WriteTraceFinalizesActiveStream) {
  const std::string path = ::testing::TempDir() + "obs_stream_wt.json";
  FakeClockScope clock;
  obs::enable(true);
  ASSERT_TRUE(obs::stream_trace_to(path, 2));
  for (int i = 0; i < 10; ++i) {
    OBS_SPAN("wt.span");
  }
  ASSERT_TRUE(obs::write_trace(path));
  EXPECT_FALSE(obs::trace_streaming());
  const std::string trace = read_file(path);
  EXPECT_NE(trace.find("wt.span"), std::string::npos);
  EXPECT_EQ(trace.substr(trace.size() - 4), "\n]}\n");
  std::remove(path.c_str());
}

// The run report stays complete under streaming: spans flushed out of
// memory still appear in span aggregates and depth-0 stages.
TEST(ObsStream, ReportCompleteAfterFlushes) {
  const std::string path = ::testing::TempDir() + "obs_stream_rep.json";
  FakeClockScope clock;
  obs::enable(true);
  ASSERT_TRUE(obs::stream_trace_to(path, 3));
  for (int i = 0; i < 25; ++i) {
    OBS_SPAN("rep.stage");
  }
  ASSERT_TRUE(obs::close_trace_stream());
  obs::ReportOptions opt;
  opt.include_machine = false;
  const std::string report = obs::report_json(opt);
  EXPECT_NE(report.find("{\"name\": \"rep.stage\", \"count\": 25, "),
            std::string::npos)
      << report;
  std::remove(path.c_str());
}

// --- histograms --------------------------------------------------------------

TEST(ObsHist, BucketBoundaries) {
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  for (std::size_t k = 1; k < 64; ++k) {
    EXPECT_EQ(obs::histogram_bucket((std::uint64_t{1} << k) - 1), k) << k;
    EXPECT_EQ(obs::histogram_bucket(std::uint64_t{1} << k), k + 1) << k;
  }
  for (std::size_t k = 1; k < 63; ++k)
    EXPECT_EQ(obs::histogram_bucket((std::uint64_t{1} << k) + 1), k + 1) << k;
  EXPECT_EQ(obs::histogram_bucket(UINT64_MAX), 64u);
}

TEST(ObsHist, SnapshotBucketPlacement) {
  obs::reset();
  obs::Histogram h("hist.place");
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        (std::uint64_t{1} << 40) - 1, std::uint64_t{1} << 40, UINT64_MAX})
    h.record(v);
  const auto snap = obs::histograms_snapshot().at("hist.place");
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.max, UINT64_MAX);
  EXPECT_EQ(snap.buckets[0], 1u);   // 0
  EXPECT_EQ(snap.buckets[1], 1u);   // 1
  EXPECT_EQ(snap.buckets[2], 2u);   // 2, 3
  EXPECT_EQ(snap.buckets[40], 1u);  // 2^40 - 1
  EXPECT_EQ(snap.buckets[41], 1u);  // 2^40
  EXPECT_EQ(snap.buckets[64], 1u);  // UINT64_MAX
  std::uint64_t total = 0;
  for (const std::uint64_t b : snap.buckets) total += b;
  EXPECT_EQ(total, snap.count);
  obs::reset();
}

TEST(ObsHist, QuantilesMonotoneAndClampedToMax) {
  EXPECT_EQ(obs::HistogramSnapshot{}.quantile(0.5), 0.0);  // empty
  obs::reset();
  obs::Histogram h("hist.quant");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto snap = obs::histograms_snapshot().at("hist.quant");
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  EXPECT_EQ(snap.max, 1000u);
  double prev = -1.0;
  for (int i = 0; i <= 200; ++i) {
    const double q = i / 200.0;
    const double v = snap.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_LE(v, static_cast<double>(snap.max)) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(snap.p50(), snap.p90());
  EXPECT_LE(snap.p90(), snap.p99());
  // p50 of 1..1000 lands in bucket [512, 1024); the interpolated value
  // must stay in that decade (coarse by design, never wildly off).
  EXPECT_GE(snap.p50(), 256.0);
  EXPECT_LE(snap.p50(), 1000.0);
  obs::reset();
}

// Bucket totals are exact sums of relaxed atomic increments, so the
// concurrent histogram must equal N serial copies of the same value
// stream, bucket for bucket.
TEST(ObsHist, ConcurrentRecordingDeterministicBucketTotals) {
  obs::reset();
  constexpr int kThreads = 8;
  const auto value_stream = [](obs::Histogram& h) {
    for (std::uint64_t j = 0; j < 20000; ++j) h.record((j * 37) % 4096);
    h.record(std::uint64_t{1} << 50);
  };
  obs::Histogram baseline("hist.conc.baseline");
  value_stream(baseline);
  obs::Histogram conc("hist.conc");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] { value_stream(conc); });
  for (auto& w : workers) w.join();
  const auto snaps = obs::histograms_snapshot();
  const auto& base = snaps.at("hist.conc.baseline");
  const auto& got = snaps.at("hist.conc");
  EXPECT_EQ(got.count, kThreads * base.count);
  EXPECT_EQ(got.sum, kThreads * base.sum);
  EXPECT_EQ(got.max, base.max);
  for (std::size_t b = 0; b < got.buckets.size(); ++b)
    EXPECT_EQ(got.buckets[b], kThreads * base.buckets[b]) << "bucket " << b;
  obs::reset();
}

// --- scoped contexts ---------------------------------------------------------

TEST(ObsContextScoping, ScopeIsolatesAggregationFromDefault) {
  obs::reset();
  obs::Counter c("ctx.iso");
  c.add(1);  // default context
  {
    obs::ObsContext child;
    obs::ContextScope scope(child);
    c.add(41);
    obs::histogram_record("ctx.iso.h", 5);
    EXPECT_EQ(c.value(), 41u);  // value() reads the *current* context
    EXPECT_EQ(child.counters().at("ctx.iso"), 41u);
    EXPECT_EQ(obs::histograms_snapshot().at("ctx.iso.h").count, 1u);
  }
  // Back in the default context: the child's updates never leaked.
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(obs::histograms_snapshot().count("ctx.iso.h"), 0u);
  obs::reset();
}

TEST(ObsContextScoping, MergeFoldsChildIntoParent) {
  obs::reset();
  obs::ObsContext parent;
  obs::ObsContext child;
  {
    obs::ContextScope scope(child);
    obs::count("merge.c", 5);
    obs::histogram_record("merge.h", 10);
    obs::histogram_record("merge.h", 1000);
    obs::gauge_max("merge.g", 2.5);
  }
  {
    obs::ContextScope scope(parent);
    obs::count("merge.c", 7);
    obs::histogram_record("merge.h", 10);
    obs::gauge_max("merge.g", 1.0);
  }
  child.merge_into(parent);
  EXPECT_EQ(parent.counters().at("merge.c"), 12u);
  EXPECT_DOUBLE_EQ(parent.gauges().at("merge.g"), 2.5);  // max-merge
  {
    obs::ContextScope scope(parent);
    const auto snap = obs::histograms_snapshot().at("merge.h");
    EXPECT_EQ(snap.count, 3u);
    EXPECT_EQ(snap.sum, 1020u);
    EXPECT_EQ(snap.max, 1000u);
    EXPECT_EQ(snap.buckets[4], 2u);   // two 10s: [8, 16)
    EXPECT_EQ(snap.buckets[10], 1u);  // 1000: [512, 1024)
  }
  // The default context saw none of it.
  EXPECT_EQ(obs::counter_value("merge.c"), 0u);
  obs::reset();
}

// Re-attaching the context that is already current must keep the span
// depth base: the nested span stays a context-depth-1 span (a span
// aggregate but not a stage), exactly as if the inner scope were absent.
TEST(ObsContextScoping, ReattachKeepsStageDepth) {
  FakeClockScope clock;
  obs::enable(true);
  obs::ObsContext ctx;
  {
    obs::ContextScope outer(ctx);
    obs::Span stage("ctx.stage");
    {
      obs::ContextScope inner(ctx);  // re-attach: must be a no-op
      obs::Span nested("ctx.inner");
    }
  }
  std::string report;
  {
    obs::ContextScope scope(ctx);
    obs::ReportOptions opt;
    opt.include_machine = false;
    report = obs::report_json(opt);
  }
  const auto doc = json::parse(report);
  ASSERT_TRUE(doc.has_value()) << report;
  std::vector<std::string> stages;
  if (const json::Value* arr = doc->find("stages"))
    for (const json::Value& s : arr->items)
      if (const json::Value* name = s.find("name")) stages.push_back(name->text);
  EXPECT_EQ(stages, std::vector<std::string>{"ctx.stage"});
  EXPECT_NE(report.find("\"name\": \"ctx.inner\", \"count\": 1"),
            std::string::npos)
      << report;  // still a span aggregate
}

TEST(ObsContextScoping, PoolJobsFoldIntoSubmitterContext) {
  obs::reset();
  obs::Counter work("ctx.pool.work");
  ThreadPool pool(4, "ctxpool");
  obs::ObsContext ctx;
  {
    obs::ContextScope scope(ctx);
    pool.parallel_for(256, 1, [&](int, std::size_t b, std::size_t e) {
      work.add(e - b);
    });
  }
  // Every chunk ran under the submitter's context, no matter which worker
  // thread picked it up.
  EXPECT_EQ(ctx.counters().at("ctx.pool.work"), 256u);
  EXPECT_GE(ctx.counters().at("pool.chunks"), 256u);
  EXPECT_EQ(work.value(), 0u);
  EXPECT_EQ(obs::counter_value("pool.chunks"), 0u);
  obs::reset();
}

// --- batch per-flow reports --------------------------------------------------

TEST(ObsBatch, PerFlowReportPathInsertsLabel) {
  EXPECT_EQ(per_flow_report_path("reports/run.json", "u226"),
            "reports/run.u226.json");
  EXPECT_EQ(per_flow_report_path("run", "d281"), "run.d281.json");
}

// The ISSUE acceptance gate: a traced batch run yields one report per
// network plus a merged parent whose counters are the sums of the
// children.  pool.* scheduling counters are excluded — the outer
// network-level chunks fold into the parent's own context by design.
TEST(ObsBatch, ParentCountersEqualSumOfChildren) {
  obs::reset();
  const std::string report_path = ::testing::TempDir() + "obs_batch_report.json";
  BatchOptions options;
  options.threads = 2;
  options.report_path = report_path;
  BatchRunner runner(options);
  const BatchResult result = runner.run_soc_flows({"u226", "d281"});
  obs::enable(false);

  ASSERT_EQ(result.flow_reports.size(), 2u);
  ASSERT_EQ(result.flow_labels, (std::vector<std::string>{"u226", "d281"}));

  // The per-network report files mirror BatchResult::flow_reports.
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string path =
        per_flow_report_path(report_path, result.flow_labels[i]);
    EXPECT_EQ(read_file(path), result.flow_reports[i]) << path;
  }

  // Sum the children's counters.
  std::map<std::string, double> sums;
  for (const std::string& child_report : result.flow_reports) {
    const auto child = json::parse(child_report);
    ASSERT_TRUE(child.has_value());
    const json::Value* counters = child->find("counters");
    ASSERT_NE(counters, nullptr);
    for (const auto& [name, v] : counters->members) sums[name] += v.number;
  }
  EXPECT_GT(sums.at("metric.mask_evals"), 0.0);

  // Every non-pool counter of the merged parent equals the child sum, and
  // no summed counter is missing from the parent.
  const auto parent = json::parse_file(report_path);
  ASSERT_TRUE(parent.has_value());
  const json::Value* parent_counters = parent->find("counters");
  ASSERT_NE(parent_counters, nullptr);
  std::map<std::string, double> parent_vals;
  for (const auto& [name, v] : parent_counters->members)
    parent_vals[name] = v.number;
  for (const auto& [name, v] : parent_vals) {
    if (name.rfind("pool.", 0) == 0) continue;
    const auto it = sums.find(name);
    EXPECT_DOUBLE_EQ(v, it == sums.end() ? 0.0 : it->second) << name;
  }
  for (const auto& [name, v] : sums) {
    if (name.rfind("pool.", 0) == 0) continue;
    EXPECT_EQ(parent_vals.count(name), 1u) << name;
  }

  std::remove(report_path.c_str());
  for (const std::string& label : result.flow_labels)
    std::remove(per_flow_report_path(report_path, label).c_str());
  obs::reset();
}

// --- reset vs streaming ------------------------------------------------------

// reset() mid-stream must flush the tail and write the trailer (a
// complete, loadable trace of everything before the reset), and the
// streaming machinery must come back cleanly: a fresh stream after the
// reset is byte-identical to a buffered trace of the same workload.
TEST(ObsStream, ResetMidStreamFinalizesAndRecovers) {
  const std::string aborted = ::testing::TempDir() + "obs_reset_aborted.json";
  const std::string recovered = ::testing::TempDir() + "obs_reset_rec.json";
  const auto workload = [] {
    for (int i = 0; i < 12; ++i) {
      OBS_SPAN("recover.outer");
      { OBS_SPAN("recover.inner"); }
    }
  };
  std::string expected;
  {
    FakeClockScope clock;
    obs::enable(true);
    workload();
    expected = obs::trace_json();
  }
  FakeClockScope clock;
  obs::enable(true);
  ASSERT_TRUE(obs::stream_trace_to(aborted, 4));
  for (int i = 0; i < 10; ++i) {
    OBS_SPAN("doomed.span");
  }
  obs::reset();  // mid-stream: flush + trailer + close
  EXPECT_FALSE(obs::trace_streaming());
  const std::string aborted_trace = read_file(aborted);
  EXPECT_NE(aborted_trace.find("doomed.span"), std::string::npos);
  EXPECT_EQ(aborted_trace.substr(aborted_trace.size() - 4), "\n]}\n");
  // Recovery: same workload through a fresh stream, byte-compared against
  // the buffered reference.
  fake_ticks.store(0);
  obs::enable(true);  // same epoch warm-up tick as the reference run
  ASSERT_TRUE(obs::stream_trace_to(recovered, 4));
  workload();
  ASSERT_TRUE(obs::close_trace_stream());
  EXPECT_EQ(read_file(recovered), expected);
  std::remove(aborted.c_str());
  std::remove(recovered.c_str());
}

// --- float formatting --------------------------------------------------------

// Report floats use shortest-round-trip formatting: locale-independent,
// byte-stable (golden safe), and exact under re-parse.
TEST(Obs, FormatDoubleShortestRoundTrip) {
  EXPECT_EQ(obs::detail::format_double(0.0), "0");
  EXPECT_EQ(obs::detail::format_double(1.0), "1");
  EXPECT_EQ(obs::detail::format_double(0.5), "0.5");
  EXPECT_EQ(obs::detail::format_double(0.0009), "9e-04");
  EXPECT_EQ(obs::detail::format_double(NAN), "0");
  EXPECT_EQ(obs::detail::format_double(INFINITY), "0");
  for (const double v : {1.0 / 3.0, 1e-9, 123456.789, 0.1, 2.5e17,
                         0.30000000000000004}) {
    const std::string s = obs::detail::format_double(v);
    double back = 0.0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), back);
    ASSERT_EQ(ec, std::errc()) << s;
    ASSERT_EQ(p, s.data() + s.size()) << s;
    EXPECT_EQ(back, v) << s;  // bit-exact round trip
  }
}

// --- json reader -------------------------------------------------------------

TEST(ObsJson, ParsesObjectsInOrderWithEscapes) {
  const auto doc = json::parse(
      "{\"b\": 1, \"a\": [true, null, \"x\\n\\u0041\"], \"n\": -2.5e1}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->members.size(), 3u);
  EXPECT_EQ(doc->members[0].first, "b");  // source order kept
  EXPECT_EQ(doc->members[0].second.text, "1");  // number source text kept
  const json::Value* arr = doc->find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items.size(), 3u);
  EXPECT_TRUE(arr->items[0].boolean);
  EXPECT_TRUE(arr->items[1].is_null());
  EXPECT_EQ(arr->items[2].text, "x\nA");
  EXPECT_DOUBLE_EQ(doc->num_or("n", 0.0), -25.0);
  EXPECT_DOUBLE_EQ(doc->num_or("missing", 7.0), 7.0);
}

TEST(ObsJson, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(json::parse("{\"a\": 1} garbage", &error).has_value());
  EXPECT_NE(error.find("trailing garbage"), std::string::npos);
  EXPECT_FALSE(json::parse("{\"a\": }").has_value());
  EXPECT_FALSE(json::parse("\"dangling\\").has_value());
  EXPECT_FALSE(json::parse("{\"a\": 1").has_value());
  EXPECT_FALSE(json::parse("tru").has_value());
  EXPECT_FALSE(json::parse("\"raw\x01control\"").has_value());
  // Depth cap: 100 nested arrays exceed kMaxDepth.
  EXPECT_FALSE(
      json::parse(std::string(100, '[') + std::string(100, ']')).has_value());
  EXPECT_TRUE(
      json::parse(std::string(60, '[') + std::string(60, ']')).has_value());
  EXPECT_FALSE(json::parse_file("/nonexistent/x.json", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// --- diff engine -------------------------------------------------------------

TEST(ObsDiff, GlobMatch) {
  EXPECT_TRUE(obs::glob_match("*", ""));
  EXPECT_TRUE(obs::glob_match("*", "anything"));
  EXPECT_TRUE(obs::glob_match("ilp.flow_*", "ilp.flow_pushes"));
  EXPECT_FALSE(obs::glob_match("ilp.flow_*", "ilp.lp_solves"));
  EXPECT_TRUE(obs::glob_match("a*b*c", "aXXbYYc"));
  EXPECT_TRUE(obs::glob_match("a*b", "ab"));
  EXPECT_FALSE(obs::glob_match("a*b", "ac"));
  EXPECT_TRUE(obs::glob_match("exact", "exact"));
  EXPECT_FALSE(obs::glob_match("exact", "exactly"));
  EXPECT_TRUE(obs::matches_any({}, "anything"));  // empty list = match all
  EXPECT_TRUE(obs::matches_any({"x.*", "metric.*"}, "metric.mask_evals"));
  EXPECT_FALSE(obs::matches_any({"x.*"}, "metric.mask_evals"));
}

TEST(ObsDiff, CounterGateExactByDefault) {
  obs::RunDoc a, b;
  a.source = "a";
  b.source = "b";
  a.counters = {{"metric.mask_evals", 64832}, {"pool.chunks", 100}};
  b.counters = {{"metric.mask_evals", 64832}, {"pool.chunks", 250}};
  obs::DiffOptions options;
  options.counter_filters = {"metric.*"};
  EXPECT_TRUE(obs::diff_docs(a, b, options).ok());  // pool.* filtered out

  b.counters["metric.mask_evals"] = 64831;
  const auto result = obs::diff_docs(a, b, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.compared, 1u);
  EXPECT_EQ(result.mismatches, 1u);
  EXPECT_NE(result.table(a, b).find("MISMATCH"), std::string::npos);
  // The machine verdict parses and carries the failure.
  const auto verdict = json::parse(result.verdict_json(a, b));
  ASSERT_TRUE(verdict.has_value());
  const json::Value* match = verdict->find("match");
  ASSERT_NE(match, nullptr);
  EXPECT_FALSE(match->boolean);

  // A counter missing on one side compares against 0 (a silently dropped
  // family is a regression, not a skip).
  b.counters["metric.mask_evals"] = 64832;
  b.counters.erase("metric.mask_evals");
  EXPECT_FALSE(obs::diff_docs(a, b, options).ok());

  // Relative tolerance admits drift when asked.
  obs::DiffOptions loose;
  loose.counter_filters = {"pool.*"};
  loose.counter_rel_tol = 0.75;
  EXPECT_TRUE(obs::diff_docs(a, b, loose).ok());  // 100 vs 250 within 75%
  loose.counter_rel_tol = 0.1;
  EXPECT_FALSE(obs::diff_docs(a, b, loose).ok());
}

TEST(ObsDiff, LoadsRunReportAndBenchEnvelope) {
  // The checked-in v2 golden doubles as a loader fixture.
  std::string error;
  const auto report =
      obs::load_run_doc(golden_path("obs_golden_report.json"), &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->schema, "ftrsn-run-report");
  EXPECT_EQ(report->version, 2);
  EXPECT_DOUBLE_EQ(report->counters.at("golden.items"), 3.0);
  EXPECT_DOUBLE_EQ(report->histograms.at("parse").p50, 300.0);
  EXPECT_DOUBLE_EQ(report->spans.at("emit").count, 2.0);

  const std::string bench_path = ::testing::TempDir() + "obs_diff_bench.json";
  ASSERT_TRUE(obs::write_file(
      bench_path,
      "{\"schema\": \"ftrsn-bench-1\", \"bench\": \"x\",\n"
      " \"obs_counters\": {\"metric.mask_evals\": 9}, \"histograms\":\n"
      " {\"h\": {\"count\": 2, \"sum\": 10, \"max\": 8, \"p50\": 4,\n"
      "  \"p90\": 8, \"p99\": 8}}}\n"));
  const auto bench = obs::load_run_doc(bench_path, &error);
  ASSERT_TRUE(bench.has_value()) << error;
  EXPECT_EQ(bench->schema, "ftrsn-bench-1");
  EXPECT_DOUBLE_EQ(bench->counters.at("metric.mask_evals"), 9.0);
  EXPECT_DOUBLE_EQ(bench->histograms.at("h").p90, 8.0);
  std::remove(bench_path.c_str());

  EXPECT_FALSE(obs::load_run_doc("/nonexistent/r.json", &error).has_value());
}

}  // namespace
}  // namespace ftrsn
