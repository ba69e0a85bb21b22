#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/obs.hpp"

namespace e2e {

void Result::fail(const std::string& message, bool op_failed) {
  if (op_failed) ++failed;
  if (errors.size() < 20) errors.push_back(message);
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

// --- tracing -----------------------------------------------------------------

Tracer::Tracer(bool on, int lanes)
    : on_(on), epoch_(Clock::now()), lanes_(static_cast<std::size_t>(lanes)) {}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

Tracer::Span::Span(Tracer& tracer, int lane, const char* name,
                   long long trace_id) {
  if (!tracer.on_) return;
  tracer_ = &tracer;
  lane_ = lane;
  Lane& l = tracer.lanes_[static_cast<std::size_t>(lane)];
  const long long parent =
      l.open.empty() ? -1 : static_cast<long long>(l.open.back());
  index_ = l.spans.size();
  l.spans.push_back({name, trace_id, parent, tracer.now_ns(), 0});
  l.open.push_back(index_);
}

Tracer::Span::~Span() {
  if (!tracer_) return;
  Lane& l = tracer_->lanes_[static_cast<std::size_t>(lane_)];
  l.spans[index_].t1_ns = tracer_->now_ns();
  l.open.pop_back();
}

double Tracer::total_s(std::string_view name) const {
  std::uint64_t ns = 0;
  for (const Lane& l : lanes_)
    for (const Rec& r : l.spans)
      if (name == r.name) ns += r.t1_ns - r.t0_ns;
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (const Rec& r : lanes_[lane].spans) {
      out << (first ? "\n" : ",\n");
      first = false;
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"trace_id\":%lld,\"parent\":%lld}}",
                    r.name, lane, static_cast<double>(r.t0_ns) * 1e-3,
                    static_cast<double>(r.t1_ns - r.t0_ns) * 1e-3, r.trace_id,
                    r.parent);
      out << buf;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- obs counters ------------------------------------------------------------

Counters counters_now() { return ftrsn::obs::counters_snapshot(); }

Counters delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) out[name] = value - base;
  }
  return out;
}

bool timing_dependent(std::string_view counter) {
  return counter == "pool.chunks" || counter == "serve.coalesced";
}

std::vector<std::string> counter_mismatches(const Counters& a,
                                            const Counters& b) {
  std::vector<std::string> out;
  Counters all = a;
  all.insert(b.begin(), b.end());
  for (const auto& entry : all) {
    const std::string& name = entry.first;
    if (timing_dependent(name)) continue;
    if (get(a, name) != get(b, name))
      out.push_back(name + " " + std::to_string(get(a, name)) + " vs " +
                    std::to_string(get(b, name)));
  }
  return out;
}

std::uint64_t get(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

bool write_counters(const std::string& path, const Counters& c) {
  std::ofstream out(path);
  if (!out) return false;
  for (const bool timing : {false, true}) {
    out << (timing ? ",\n  \"timing_dependent\": {" : "{\n  \"deterministic\": {");
    bool first = true;
    for (const auto& [name, value] : c) {
      if (timing_dependent(name) != timing) continue;
      out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
      first = false;
    }
    out << "\n  }";
  }
  out << "\n}\n";
  return static_cast<bool>(out);
}

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace e2e
