// serve_mix: an in-process ServeServer on a Unix socket under a closed
// loop of nproc client connections.
//
// The request sequence is a pure function of the seed.  Each round of
// kRoundRequests has the same exact mix, in a seed-shuffled order.  Most
// requests draw from a Zipf-weighted hot set (parse, lint,
// access, metric and synth over the u226, d695 and g1023 originals and the
// hardened u226), warmed during set-up, so they are cache hits.  A fixed
// share are cold: a fresh scale_soc network of 89 elements derived
// from the seed and the request index, with the op cycling through lint,
// metric and synth, so they miss the cache, compute and insert.  Cold uploads
// also churn the service's 32-entry ingest memo.
//
// The timed part runs rounds of kRoundRequests requests; a client sends
// its next request only when the previous answer arrived.  Request lines
// are built outside the timing: the hot ones once in set-up, a round's
// cold ones before the round starts, so the timed loop only sends and
// reads.  Every response must be ok, every hot combo must answer the same
// blob each time, and every distinct blob must be byte-equal to the same
// request answered by a fresh ServeService after the loop.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "gen/scale.hpp"
#include "io/rsn_text.hpp"
#include "itc02/itc02.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "synth/synth.hpp"
#include "util/json.hpp"
#include "util/sha256.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ftrsn;
using namespace ftrsn::serve;

constexpr int kSetupReps = 3;
constexpr long long kRoundRequests = 1000;
/// The untraced run makes at least this many rounds, and its peak_rss_mb
/// is the peak after the last of them: the service's cache grows with every
/// cold answer, so a peak taken at the end of the run would grow with the
/// number of rounds, i.e. with the host's speed.
constexpr std::size_t kRssRounds = 3;
/// Cold requests per round, a third of them synth.  A cold synth costs
/// about a thousand hits and is the slowest class, so with 2% synth the
/// p99 falls in the middle of the synth class: inside the cold class, away
/// from its boundary with the hits.
constexpr long long kColdPerRound = 60;
constexpr const char* kColdOps[] = {"lint", "metric", "synth"};

struct Combo {
  std::string op;
  std::string network;  // key into Inputs::texts
  std::string options;
};

struct Inputs {
  std::map<std::string, std::string> texts;
  std::vector<Combo> combos;
  /// The request line of each combo, with a fixed id (hits are not
  /// tracked by id; only in-flight misses are, for the cancel op).
  std::vector<std::string> hot_lines;
  /// Hot requests per round for each combo: Zipf 1/rank shares.
  std::vector<long long> hot_counts;
};

std::string request_line(const std::string& id, const std::string& op,
                         const std::string& text, const std::string& options) {
  std::string line = "{\"id\":\"" + id + "\",\"op\":\"" + op + "\"";
  line += ",\"rsn\":\"" + obs::detail::json_escape(text) + "\"";
  if (!options.empty()) line += ",\"options\":" + options;
  return line + "}";
}

std::string first_segment(const Rsn& rsn) {
  for (NodeId id = 0; id < rsn.num_nodes(); ++id)
    if (rsn.node(id).is_segment()) return rsn.node(id).name;
  throw std::logic_error("network has no segment");
}

Inputs build_inputs() {
  Inputs in;
  std::map<std::string, std::string> targets;
  for (const char* name : {"u226", "d695", "g1023"}) {
    const Rsn rsn = itc02::generate_sib_rsn(*itc02::find_soc(name));
    in.texts[name] = write_rsn_text(rsn);
    targets[name] = first_segment(rsn);
    if (std::string(name) == "u226") {
      const Rsn ft = synthesize_fault_tolerant(rsn).rsn;
      in.texts["u226-ft"] = write_rsn_text(ft);
      targets["u226-ft"] = first_segment(ft);
    }
  }
  // Rank order = popularity: cheap ops first, as an editor or CI client
  // mixing lint-on-save with occasional metric and synth runs would send.
  // The hardened u226 is not synthesized again: re-hardening a hardened
  // network runs for minutes and is not a request a user makes.
  for (const char* op : {"parse", "lint", "access", "metric", "synth"}) {
    for (const char* net : {"u226", "d695", "g1023", "u226-ft"}) {
      if (std::string(op) == "synth" && std::string(net) == "u226-ft") continue;
      const std::string options =
          std::string(op) == "access"
              ? "{\"target\":\"" + targets[net] + "\"}"
              : "";
      in.combos.push_back({op, net, options});
      in.hot_lines.push_back(request_line("h" + std::to_string(in.combos.size()),
                                          op, in.texts.at(net), options));
    }
  }
  // Largest-remainder rounding keeps every round's mix exact.
  double total = 0.0;
  for (std::size_t r = 0; r < in.combos.size(); ++r)
    total += 1.0 / static_cast<double>(r + 1);
  const long long hot = kRoundRequests - kColdPerRound;
  std::vector<std::pair<double, std::size_t>> remainders;
  long long assigned = 0;
  for (std::size_t r = 0; r < in.combos.size(); ++r) {
    const double share =
        static_cast<double>(hot) / static_cast<double>(r + 1) / total;
    in.hot_counts.push_back(static_cast<long long>(share));
    assigned += in.hot_counts.back();
    remainders.push_back({share - std::floor(share), r});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& x, const auto& y) { return x.first > y.first; });
  for (std::size_t k = 0; assigned < hot; ++k, ++assigned)
    ++in.hot_counts[remainders[k].second];
  return in;
}

/// The request kinds of round `round`: exact counts per class, in an order
/// shuffled by the seed.  Entry k >= 0 is hot combo k; entry -1 - j is a
/// cold request with op kColdOps[j].
std::vector<int> round_plan(const Inputs& in, std::uint64_t seed,
                            long long round) {
  std::vector<int> plan;
  for (long long k = 0; k < kColdPerRound; ++k)
    plan.push_back(-1 - static_cast<int>(k % 3));
  for (std::size_t c = 0; c < in.hot_counts.size(); ++c)
    plan.insert(plan.end(), static_cast<std::size_t>(in.hot_counts[c]),
                static_cast<int>(c));
  std::uint64_t state = mix(seed ^ mix(static_cast<std::uint64_t>(round)));
  for (std::size_t i = plan.size(); i > 1; --i) {
    state = mix(state);
    std::swap(plan[i - 1], plan[state % i]);
  }
  return plan;
}

const char* cold_op(int entry) { return kColdOps[-1 - entry]; }

std::uint64_t cold_hash(std::uint64_t seed, long long index) {
  return mix(seed * 0x2545F4914F6CDD1DULL ^ static_cast<std::uint64_t>(index));
}

/// The request line of cold request `index`, plan entry `entry`: a fresh
/// network of one jittered u226 replica, 89 scan elements (targets of
/// 100-130 all round to one replica).
std::string cold_line(std::uint64_t seed, long long index, int entry) {
  const std::uint64_t h = cold_hash(seed, index);
  gen::ScaleOptions options;
  options.base = "u226";
  options.target_elements = 100 + static_cast<long long>(h % 31);
  options.seed = h;
  return request_line(
      "r" + std::to_string(index), cold_op(entry),
      write_rsn_text(itc02::generate_sib_rsn(gen::scale_soc(options).soc)), "");
}

std::string result_blob(const std::string& response) {
  const std::string open = "\"result\":";
  const std::string close = ",\"result_sha256\":";
  const auto a = response.find(open);
  const auto b = response.rfind(close);
  if (a == std::string::npos || b == std::string::npos || b <= a) return {};
  return response.substr(a + open.size(), b - a - open.size());
}

double number_after(const std::string& text, const std::string& key,
                    std::size_t from = 0) {
  const auto at = text.find("\"" + key + "\":", from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + path);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { ::close(fd_); }

  std::string call(const std::string& line) {
    const std::string out = line + "\n";
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string response = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return response;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// One service + server + connected clients, warmed with the hot set.
/// Members are destroyed clients first, then the server (which joins its
/// threads), then the service.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (!socket_path.empty()) std::filesystem::remove(socket_path);
  }

  std::string socket_path;
  std::unique_ptr<ServeService> service;
  std::unique_ptr<ServeServer> server;
  std::vector<std::unique_ptr<Client>> clients;
};

std::unique_ptr<Stack> make_stack(const Config& config, const Inputs& in,
                                  int rep, Result& result) {
  auto stack = std::make_unique<Stack>();
  stack->socket_path = config.out_dir + "/serve-" +
                       std::to_string(::getpid()) + "-" +
                       std::to_string(rep) + ".sock";
  std::filesystem::remove(stack->socket_path);
  ServiceOptions options;
  options.threads = config.threads;
  stack->service = std::make_unique<ServeService>(options);
  ServerOptions server_options;
  server_options.unix_path = stack->socket_path;
  stack->server = std::make_unique<ServeServer>(*stack->service, server_options);
  std::string error;
  if (!stack->server->start(&error))
    throw std::runtime_error("serve server: " + error);
  for (int c = 0; c < config.threads; ++c)
    stack->clients.push_back(std::make_unique<Client>(stack->socket_path));
  for (std::size_t k = 0; k < in.combos.size(); ++k) {
    const Combo& combo = in.combos[k];
    const std::string response = stack->clients[0]->call(in.hot_lines[k]);
    if (response.find("\"ok\":true") == std::string::npos)
      result.fail("warm-up " + combo.op + "/" + combo.network +
                      " failed: " + response.substr(0, 200),
                  false);
  }
  return stack;
}

struct Sample {
  int entry = 0;  // round_plan entry: hot combo, or cold op
  bool cached = false;
  double latency_us = 0.0;
  double server_us = 0.0;
};

struct Round {
  double wall_s = 0.0;
  std::vector<Sample> samples;
  Counters counters;
  /// Blobs to verify: hot combo -> blob, cold request index -> (plan
  /// entry, blob).
  std::map<int, std::string> hot_blobs;
  std::map<long long, std::pair<int, std::string>> cold_blobs;
};

Round run_round(Stack& stack, const Inputs& in, std::uint64_t seed,
                long long round_no, Tracer& tracer, Result& result) {
  struct Lane {
    std::vector<Sample> samples;
    std::map<int, std::string> hot;
    std::map<long long, std::pair<int, std::string>> cold;
    std::vector<std::string> errors;
    long long attempted = 0;
  };
  const std::vector<int> plan = round_plan(in, seed, round_no);
  const long long first = round_no * kRoundRequests;
  const int n = static_cast<int>(stack.clients.size());
  std::vector<Lane> lanes(static_cast<std::size_t>(n));
  std::vector<std::string> cold_lines;
  cold_lines.reserve(static_cast<std::size_t>(kColdPerRound));
  std::vector<const std::string*> lines;
  for (long long i = first; i < first + kRoundRequests; ++i) {
    const int entry = plan[static_cast<std::size_t>(i - first)];
    if (entry >= 0) {
      lines.push_back(&in.hot_lines[static_cast<std::size_t>(entry)]);
    } else {
      cold_lines.push_back(cold_line(seed, i, entry));
      lines.push_back(&cold_lines.back());
    }
  }

  const Counters c0 = counters_now();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Lane& out = lanes[static_cast<std::size_t>(c)];
      Client& client = *stack.clients[static_cast<std::size_t>(c)];
      for (long long i = first + c; i < first + kRoundRequests; i += n) {
        ++out.attempted;
        Sample s;
        s.entry = plan[static_cast<std::size_t>(i - first)];
        std::string response;
        const auto t_req = Clock::now();
        try {
          Tracer::Span span(tracer, c, "serve.request", i);
          response = client.call(*lines[static_cast<std::size_t>(i - first)]);
        } catch (const std::exception& e) {
          out.errors.push_back(std::string("request failed: ") + e.what());
          continue;
        }
        s.latency_us = seconds_since(t_req) * 1e6;
        if (response.find("\"ok\":true") == std::string::npos) {
          out.errors.push_back("not ok: " + response.substr(0, 200));
          continue;
        }
        s.cached = response.find("\"cached\":true") != std::string::npos;
        s.server_us = number_after(response, "micros", response.rfind(",\""));
        std::string blob = result_blob(response);
        if (s.entry < 0) {
          out.cold.emplace(i, std::make_pair(s.entry, std::move(blob)));
        } else if (const auto [it, inserted] = out.hot.emplace(s.entry, blob);
                   !inserted && it->second != blob) {
          out.errors.push_back("hot combo answered two different blobs");
          continue;
        }
        out.samples.push_back(s);
      }
    });
  }
  for (auto& t : threads) t.join();

  Round round;
  round.wall_s = seconds_since(t0);
  round.counters = delta(c0, counters_now());
  for (Lane& lane : lanes) {
    round.samples.insert(round.samples.end(), lane.samples.begin(),
                         lane.samples.end());
    for (const auto& [k, blob] : lane.hot) {
      const auto [it, inserted] = round.hot_blobs.emplace(k, blob);
      if (!inserted && it->second != blob)
        result.fail("hot combo answered two different blobs", false);
    }
    round.cold_blobs.merge(lane.cold);
    result.attempted += lane.attempted;
    for (const std::string& e : lane.errors) result.fail(e);
  }
  return round;
}

/// Replays every distinct answer on fresh services (one single-threaded
/// ServeService per verifier thread); each must be byte-equal.  Mismatches
/// count as failed requests.
void verify(const Config& config, const Inputs& in, std::uint64_t seed,
            const std::vector<Round>& rounds, Result& result) {
  struct Item {
    int entry;        // round_plan entry
    long long index;  // cold requests: the request index
    const std::string* blob;
  };
  std::vector<Item> work;
  std::map<int, const std::string*> hot;
  for (const Round& r : rounds) {
    for (const auto& [k, blob] : r.hot_blobs) {
      auto [it, inserted] = hot.emplace(k, &blob);
      if (!inserted && *it->second != blob)
        result.fail("hot combo answered two different blobs across rounds",
                    false);
    }
    for (const auto& [i, answer] : r.cold_blobs)
      work.push_back({answer.first, i, &answer.second});
  }
  for (const auto& [k, blob] : hot) work.push_back({k, 0, blob});

  const auto n = static_cast<std::size_t>(config.threads);
  std::vector<long long> mismatches(n, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ServiceOptions options;
      options.threads = 1;
      ServeService fresh(options);
      for (std::size_t w = c; w < work.size(); w += n) {
        const Item& item = work[w];
        const std::string line =
            item.entry >= 0
                ? in.hot_lines[static_cast<std::size_t>(item.entry)]
                : cold_line(seed, item.index, item.entry);
        if (result_blob(fresh.handle_line(line)) != *item.blob)
          ++mismatches[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const long long m : mismatches)
    for (long long k = 0; k < m; ++k)
      result.fail("answer differs from a fresh service's");
}

/// Quality guards over the distinct answers: synth area overhead, and the
/// worst-case segment accessibility of the hardened network's metric.
void quality(const Inputs& in, const std::vector<Round>& rounds,
             Result& result) {
  const auto area_ratio = [](const std::string& blob) {
    return number_after(blob, "area", blob.find("\"overhead\":"));
  };
  std::vector<double> area;
  double seg_worst_min = 1.0;
  // Hot answers repeat across rounds (verified), so the first round has
  // them all.
  for (const auto& [k, blob] : rounds.front().hot_blobs) {
    const Combo& combo = in.combos[static_cast<std::size_t>(k)];
    if (combo.op == "synth") area.push_back(area_ratio(blob));
    if (combo.op == "metric" && combo.network == "u226-ft")
      seg_worst_min = std::min(seg_worst_min, number_after(blob, "seg_worst"));
  }
  for (const Round& r : rounds)
    for (const auto& [i, answer] : r.cold_blobs)
      if (std::string(cold_op(answer.first)) == "synth")
        area.push_back(area_ratio(answer.second));
  result.add("area_ratio_geomean", geomean(area), "ratio");
  result.add("ft_seg_worst_min", seg_worst_min, "ratio");
}

/// MB/s of json::parse and sha256_hex over the hot request lines.
void util_probes(const Inputs& in, Tracer& tracer, Result& result) {
  const std::vector<std::string>& lines = in.hot_lines;
  double bytes = 0.0;
  for (const std::string& l : lines) bytes += static_cast<double>(l.size());
  constexpr int kReps = 20;
  std::size_t sink = 0;
  {
    Tracer::Span s(tracer, 0, "util.json_parse");
    for (int r = 0; r < kReps; ++r)
      for (const std::string& l : lines)
        if (const auto doc = json::parse(l)) sink += doc->members.size();
  }
  {
    Tracer::Span s(tracer, 0, "util.sha256");
    for (int r = 0; r < kReps; ++r)
      for (const std::string& l : lines) sink += sha256_hex(l).size();
  }
  if (sink == 0) result.fail("util probe produced nothing", false);
  result.add("util.json_parse_mb_per_s",
             kReps * bytes / tracer.total_s("util.json_parse") * 1e-6, "MB/s");
  result.add("util.sha256_mb_per_s",
             kReps * bytes / tracer.total_s("util.sha256") * 1e-6, "MB/s");
}

}  // namespace

Result run_serve_mix(const Config& config) {
  Result result;
  std::unique_ptr<Stack> current;
  Inputs in;
  const double setup_s = timed_setup(
      kSetupReps, [&] { current.reset(); },
      [&](int rep) {
        in = build_inputs();
        current = make_stack(config, in, rep, result);
      });
  result.add("setup_s", setup_s, "s");

  Stack& stack = *current;
  std::vector<Round> rounds;
  if (!config.trace) {
    Tracer untraced(false, config.threads);
    const auto t0 = Clock::now();
    double rss_mb = 0.0;
    do {
      rounds.push_back(run_round(stack, in, config.seed,
                                 static_cast<long long>(rounds.size()),
                                 untraced, result));
      if (rounds.size() == kRssRounds) rss_mb = peak_rss_mb();
    } while (seconds_since(t0) < config.seconds || rounds.size() < kRssRounds);
    result.add("peak_rss_mb", rss_mb, "MB");
    verify(config, in, config.seed, rounds, result);
    result.counters = rounds.front().counters;

    // Medians over rounds of the per-round values, except the p99: a tail
    // estimate needs every sample of the run (ten per round lie beyond it).
    std::vector<double> walls, p50, geo, rate, all_us;
    for (const Round& r : rounds) {
      std::vector<double> us, ms;
      for (const Sample& x : r.samples) {
        us.push_back(x.latency_us);
        ms.push_back(x.latency_us * 1e-3);
      }
      all_us.insert(all_us.end(), us.begin(), us.end());
      walls.push_back(r.wall_s);
      p50.push_back(percentile(us, 0.50));
      geo.push_back(geomean(ms));
      rate.push_back(static_cast<double>(us.size()) / r.wall_s);
    }
    result.add("wall_s", median(walls), "s");
    result.add("flow_geomean_ms", median(geo), "ms");
    result.add("req_p50_us", median(p50), "us");
    result.add("req_p99_us", percentile(all_us, 0.99), "us");
    result.add("req_per_s", median(rate), "1/s");
    quality(in, rounds, result);
    return result;
  }

  // Traced run: one round with a span around each request.
  Tracer tracer(true, config.threads);
  rounds.push_back(run_round(stack, in, config.seed, 0, tracer, result));
  verify(config, in, config.seed, rounds, result);
  const Round& traced = rounds.front();
  result.counters = traced.counters;

  std::vector<double> hit_us, miss_ms, transport_us;
  for (const Sample& s : traced.samples) {
    (s.cached ? hit_us : miss_ms)
        .push_back(s.cached ? s.latency_us : s.latency_us * 1e-3);
    transport_us.push_back(s.latency_us - s.server_us);
  }
  const auto ratio = [&](const char* hits, const char* misses) {
    const double h = static_cast<double>(get(traced.counters, hits));
    const double m = static_cast<double>(get(traced.counters, misses));
    return h + m > 0 ? h / (h + m) : 0.0;
  };
  result.add("serve.hit_p50_us", percentile(hit_us, 0.50), "us");
  result.add("serve.hit_p99_us", percentile(hit_us, 0.99), "us");
  result.add("serve.miss_p50_ms", percentile(miss_ms, 0.50), "ms");
  result.add("serve.transport_us", median(transport_us), "us");
  result.add("serve.hit_rate", ratio("serve.cache_hits", "serve.cache_misses"),
             "ratio");
  result.add("serve.ingest_hit_ratio",
             ratio("serve.ingest_hits", "serve.ingest_misses"), "ratio");
  util_probes(in, tracer, result);
  result.add("trace.wall_s", traced.wall_s, "s");
  tracer.write_chrome(config.out_dir + "/trace-serve_mix-seed" +
                      std::to_string(config.seed) + ".json");
  return result;
}

}  // namespace e2e
