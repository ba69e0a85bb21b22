// rsn-lint — static analysis of .rsn networks from the command line.
//
//   example_rsn_lint [options] <in.rsn> [<in2.rsn> ...]
//
//   --json               machine-readable report (one JSON object per file)
//   --sarif              SARIF 2.1.0 log over all files (for code hosts)
//   --ft                 enable the post-synthesis fault-tolerance rules
//   --disable=ID         turn a rule off (repeatable)
//   --severity=ID:LEVEL  override a rule's severity (error|warning|info)
//   --fix                auto-repair fixable findings, rewrite the file
//   --fix-dry-run        run the repair engine, report, write nothing
//   --fix-out=PATH       write the repaired network to PATH (one input file)
//   --fix-verify=V       rewrite verification: sat (default) | metric | off
//   --lint-stats         print analysis counters per file (to stderr)
//   --list-rules         print the rule catalog and exit
//   --trace=PATH         write a Chrome trace-event JSON of the run
//   --report=PATH        write the obs run-report JSON of the run
//
// FTRSN_TRACE / FTRSN_REPORT provide the same outputs from the environment
// ("1" selects the default rsn_lint_{trace,report}.json names).
//
// In fix mode the text/JSON reports cover the *residual* diagnostics of the
// repaired network; --sarif reports the *initial* diagnostics with SARIF
// `fix` objects attached to the repaired ones, which is the format code
// hosts expect.  --fix only rewrites a file when at least one fix applied.
//
// Exit status: 0 = no error-severity findings (after repair, in fix mode),
// 1 = at least one error, 2 = usage or file/parse failure.  Files are
// loaded without the structural validation gate (load_rsn(path, false)) so
// deliberately broken networks can be analyzed instead of aborting the
// parse.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/rsn_text.hpp"
#include "lint/cone_oracle.hpp"
#include "lint/fix.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "obs/obs.hpp"

using namespace ftrsn;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rsn_lint [--json] [--sarif] [--ft] [--disable=ID]\n"
               "                [--severity=ID:error|warning|info]\n"
               "                [--lint-stats]\n"
               "                [--fix | --fix-dry-run] [--fix-out=PATH]\n"
               "                [--fix-verify=sat|metric|off]\n"
               "                [--trace=PATH] [--report=PATH]\n"
               "                [--list-rules] <in.rsn> [...]\n");
  return 2;
}

const char* stage_name(lint::RuleStage s) {
  switch (s) {
    case lint::RuleStage::kStructure: return "structure";
    case lint::RuleStage::kControl: return "control";
    case lint::RuleStage::kSynthesis: return "synthesis";
    case lint::RuleStage::kFaultTolerance: return "fault-tolerance";
    case lint::RuleStage::kDataflow: return "dataflow";
    case lint::RuleStage::kAugment: return "augment";
  }
  return "?";
}

int list_rules() {
  for (const lint::RuleInfo& r : lint::LintRunner::rules())
    std::printf("%-26s %-8s %-15s %-16s %s\n", r.id.c_str(),
                lint::severity_name(r.severity), stage_name(r.stage),
                r.paper_ref.c_str(), r.summary.c_str());
  return 0;
}

bool parse_severity(const std::string& spec, lint::LintOptions& opts) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) return false;
  const std::string id = spec.substr(0, colon);
  const std::string level = spec.substr(colon + 1);
  if (level == "error")
    opts.severity[id] = lint::Severity::kError;
  else if (level == "warning")
    opts.severity[id] = lint::Severity::kWarning;
  else if (level == "info")
    opts.severity[id] = lint::Severity::kInfo;
  else
    return false;
  return true;
}

bool parse_fix_verify(const std::string& name, lint::FixVerify& out) {
  if (name == "sat")
    out = lint::FixVerify::kSat;
  else if (name == "metric")
    out = lint::FixVerify::kMetric;
  else if (name == "off")
    out = lint::FixVerify::kOff;
  else
    return false;
  return true;
}

/// True if the writer can serialize the network: every node reference the
/// text format prints by name must resolve (write_rsn_text has no spelling
/// for a dangling reference, so such networks are reported, not written).
bool writable(const Rsn& rsn) {
  for (NodeId id = 0; id < rsn.num_nodes(); ++id) {
    const RsnNode& n = rsn.node(id);
    if (n.kind == NodeKind::kSegment || n.kind == NodeKind::kPrimaryOut) {
      if (n.scan_in == kInvalidNode) return false;
    } else if (n.is_mux()) {
      if (n.mux_in[0] == kInvalidNode || n.mux_in[1] == kInvalidNode)
        return false;
    }
  }
  return true;
}

const char* fix_status_name(lint::FixStatus s) {
  switch (s) {
    case lint::FixStatus::kApplied: return "applied";
    case lint::FixStatus::kRejected: return "rejected";
    case lint::FixStatus::kSkipped: return "skipped";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  lint::LintOptions opts;
  bool json = false;
  bool sarif = false;
  bool stats = false;
  bool fix = false;
  bool fix_dry = false;
  std::string fix_out;
  lint::FixVerify fix_verify = lint::FixVerify::kSat;
  obs::EnvConfig obs_cfg = obs::init_from_env("rsn_lint");
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--ft") {
      opts.ft_rules = true;
    } else if (arg == "--list-rules") {
      return list_rules();
    } else if (arg.rfind("--disable=", 0) == 0) {
      opts.enabled[arg.substr(10)] = false;
    } else if (arg.rfind("--severity=", 0) == 0) {
      if (!parse_severity(arg.substr(11), opts)) return usage();
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--fix-dry-run") {
      fix_dry = true;
    } else if (arg.rfind("--fix-out=", 0) == 0) {
      fix_out = arg.substr(10);
    } else if (arg.rfind("--fix-verify=", 0) == 0) {
      if (!parse_fix_verify(arg.substr(13), fix_verify)) return usage();
    } else if (arg == "--lint-stats") {
      stats = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      obs_cfg.trace_path = arg.substr(8);
      obs::enable(true);
    } else if (arg.rfind("--report=", 0) == 0) {
      obs_cfg.report_path = arg.substr(9);
      obs::enable(true);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage();
  const bool fix_mode = fix || fix_dry || !fix_out.empty();
  if (fix && fix_dry) return usage();
  if (!fix_out.empty() && files.size() != 1) {
    std::fprintf(stderr, "rsn_lint: --fix-out takes exactly one input file\n");
    return 2;
  }

  bool any_errors = false;
  std::vector<lint::SarifArtifact> sarif_artifacts;
  for (const std::string& path : files) {
    Rsn rsn;
    std::string source_text;
    RsnSourceMap src_map;
    try {
      if (fix_mode) {
        std::ifstream in(path, std::ios::binary);
        if (!in) throw std::runtime_error("cannot open file");
        std::ostringstream buf;
        buf << in.rdbuf();
        source_text = buf.str();
        rsn = parse_rsn_text(source_text, /*validate=*/false, &src_map);
      } else {
        rsn = load_rsn(path, /*validate=*/false);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: cannot load: %s\n", path.c_str(), e.what());
      return 2;
    }

    if (fix_mode) {
      lint::FixOptions fopts;
      fopts.lint = opts;
      fopts.verify = fix_verify;
      const lint::FixResult result = lint::fix_rsn(rsn, fopts);
      for (const lint::AppliedFix& f : result.fixes)
        std::fprintf(stderr, "%s: fix[%s] %s '%s': %s\n", path.c_str(),
                     fix_status_name(f.status), f.rule.c_str(),
                     f.node < rsn.num_nodes() ? rsn.node(f.node).name.c_str()
                                              : "?",
                     f.note.c_str());
      if (result.metric_check_ran)
        std::fprintf(stderr, "%s: fix: metric differential check %s (%s)\n",
                     path.c_str(), result.metric_check_ok ? "passed" : "FAILED",
                     result.metric_check_note.c_str());
      std::fprintf(stderr, "%s: fix: %zu applied, %zu rejected, %d pass(es)\n",
                   path.c_str(), result.applied, result.rejected,
                   result.passes);
      const auto res_names = result.rsn.node_names();
      const auto res_counts = lint::count_by_severity(result.residual);
      if (sarif) {
        sarif_artifacts.push_back(
            {path, result.initial, rsn.node_names(),
             lint::sarif_fix_records(result, rsn, source_text, src_map)});
      } else if (json) {
        std::printf("%s\n",
                    lint::to_json(result.residual, res_names).c_str());
      } else {
        std::fputs(lint::to_text(result.residual, res_names).c_str(), stdout);
        std::printf("%s: after fix: %d error(s), %d warning(s), %d info(s)\n",
                    path.c_str(),
                    res_counts[static_cast<int>(lint::Severity::kError)],
                    res_counts[static_cast<int>(lint::Severity::kWarning)],
                    res_counts[static_cast<int>(lint::Severity::kInfo)]);
      }
      if (!fix_dry && result.changed) {
        if (!writable(result.rsn)) {
          std::fprintf(stderr,
                       "%s: fix: repaired network retains dangling references "
                       "(broken input); refusing to write\n",
                       path.c_str());
          return 2;
        }
        const std::string out_path = fix_out.empty() ? path : fix_out;
        save_rsn(result.rsn, out_path);
        std::fprintf(stderr, "%s: fix: wrote %s\n", path.c_str(),
                     out_path.c_str());
      } else if (!fix_dry && !fix_out.empty()) {
        // Nothing changed but an explicit output was requested: emit the
        // (identical) network so downstream steps always find the file.
        if (!writable(result.rsn)) {
          std::fprintf(stderr, "%s: fix: network not serializable\n",
                       path.c_str());
          return 2;
        }
        save_rsn(result.rsn, fix_out);
      }
      any_errors = any_errors || lint::has_errors(result.residual);
      continue;
    }

    if (stats) lint::reset_lint_stats();
    const auto diags = lint::lint_rsn(rsn, opts);
    if (stats) {
      const lint::LintStats& s = lint::lint_stats();
      std::fprintf(stderr,
                   "%s: lint-stats: sim-witnessed=%llu sat=%llu "
                   "tristate=%llu cache-hits=%llu "
                   "incremental-updates=%llu full-recomputes=%llu\n",
                   path.c_str(),
                   static_cast<unsigned long long>(s.cones_sim_witnessed),
                   static_cast<unsigned long long>(s.cones_solved_sat),
                   static_cast<unsigned long long>(s.cones_solved_tristate),
                   static_cast<unsigned long long>(s.cache_hits),
                   static_cast<unsigned long long>(s.incremental_updates),
                   static_cast<unsigned long long>(s.full_recomputes));
    }
    const auto counts = lint::count_by_severity(diags);
    const auto names = rsn.node_names();
    if (sarif) {
      sarif_artifacts.push_back({path, diags, names, {}});
    } else if (json) {
      std::printf("%s\n", lint::to_json(diags, names).c_str());
    } else {
      std::fputs(lint::to_text(diags, names).c_str(), stdout);
      std::printf("%s: %d error(s), %d warning(s), %d info(s)\n",
                  path.c_str(),
                  counts[static_cast<int>(lint::Severity::kError)],
                  counts[static_cast<int>(lint::Severity::kWarning)],
                  counts[static_cast<int>(lint::Severity::kInfo)]);
    }
    any_errors = any_errors || lint::has_errors(diags);
  }
  if (sarif) std::fputs(lint::to_sarif(sarif_artifacts).c_str(), stdout);
  if (!obs_cfg.trace_path.empty()) obs::write_trace(obs_cfg.trace_path);
  if (!obs_cfg.report_path.empty()) obs::write_report(obs_cfg.report_path);
  return any_errors ? 1 : 0;
}
