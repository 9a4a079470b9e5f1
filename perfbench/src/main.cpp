// perfbench: end-to-end benchmark of the dragonfly simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out FILE] [--source-digest HEX] [--git-commit SHA]
//
// Prints one JSON line of provenance, counts and check results, then the
// result line {"correct", "attempted", "failed", "metrics"} last. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones from the traced rounds. Normally run through
// perfbench/run.py, which builds this program first.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/simd.hpp"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: perfbench --workload <paper-advc|paper-scale-advc|"
    "service-explore|jobs-churn> --seed <n> --seconds <s> --trace <0|1> "
    "[--trace-out FILE] [--source-digest HEX] [--git-commit SHA]\n";

const std::map<std::string, void (*)(Context&)>& workloads() {
  static const std::map<std::string, void (*)(Context&)> table = {
      {"paper-advc", run_paper_advc},
      {"paper-scale-advc", run_paper_scale_advc},
      {"service-explore", run_service_explore},
      {"jobs-churn", run_jobs_churn},
  };
  return table;
}

std::string number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + number(v);
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  std::string trace_out;
  std::string source_digest = "unknown";
  std::string git_commit = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        ctx.opt.workload = value;
      } else if (arg == "--seed") {
        ctx.opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        ctx.opt.seconds = std::stod(value);
        have_seconds = ctx.opt.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
        ctx.opt.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else if (arg == "--source-digest") {
        source_digest = value;
      } else if (arg == "--git-commit") {
        git_commit = value;
      } else {
        throw std::invalid_argument("unknown option " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n" << kUsage;
    return 2;
  }
  const auto workload = workloads().find(ctx.opt.workload);
  if (workload == workloads().end() || !have_seed || !have_seconds ||
      !have_trace) {
    std::cerr << kUsage;
    return 2;
  }
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#endif
  if (!release) {
    std::cerr << "perfbench: refusing to time a non-Release build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  ctx.cpus = usable_cpus();
  ctx.tracer.set_enabled(ctx.opt.trace);
  Report& rep = ctx.report;
  const char* force_scalar = std::getenv("SIMSPEED_FORCE_SCALAR");
  rep.info["workload"] = json_string(ctx.opt.workload);
  rep.info["seed"] = std::to_string(ctx.opt.seed);
  rep.info["seconds"] = number(ctx.opt.seconds);
  rep.info["trace"] = ctx.opt.trace ? "true" : "false";
  rep.info["simd_backend"] = json_string(dragonfly::simd::active_backend());
  rep.info["simspeed_force_scalar"] =
      force_scalar ? json_string(force_scalar) : "null";
  rep.info["nproc"] = std::to_string(ctx.cpus);
  rep.info["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  rep.info["cpu_model"] = json_string(cpu_model());
  rep.info["build_type"] = json_string(PERFBENCH_BUILD_TYPE);
  rep.info["compiler"] = json_string(__VERSION__);
  rep.info["source_digest"] = json_string(source_digest);
  rep.info["git_commit"] = json_string(git_commit);

  try {
    workload->second(ctx);
  } catch (const std::exception& e) {
    // Timed operations that throw are counted failed where they run; one
    // that throws anywhere else leaves no figure to vouch for, so the run
    // prints no result.
    std::cerr << "perfbench: " << ctx.opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  if (ctx.opt.trace && !trace_out.empty()) {
    std::ofstream(trace_out) << ctx.tracer.to_json();
  }

  std::string detail = "{";
  for (const auto& [k, v] : rep.info) {
    detail += json_string(k) + ":" + v + ",";
  }
  detail += "\"sessions\":[";
  for (std::size_t i = 0; i < rep.sessions.size(); ++i) {
    detail += std::string(i ? "," : "") + "{\"label\":" +
              json_string(rep.sessions[i].first) + ",\"canonical_hash\":" +
              json_string(rep.sessions[i].second) + "}";
  }
  detail += "],\"counts\":" + object(rep.counts) +
            ",\"detail\":" + object(rep.detail);
  if (ctx.opt.trace) detail += ",\"self_ms\":" + object(ctx.tracer.self_ms());
  detail += ",\"failures\":[";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    detail += std::string(i ? "," : "") + json_string(rep.failures[i]);
  }
  detail += "]}";
  for (const std::string& f : rep.failures) {
    std::cerr << "perfbench: check failed: " << f << "\n";
  }

  std::string metrics = "{";
  for (const auto& [name, vu] : rep.metrics) {
    if (metrics.size() > 1) metrics += ",";
    metrics += json_string(name) + ":{\"value\":" + number(vu.first) +
               ",\"unit\":" + json_string(vu.second) + "}";
  }
  metrics += "}";
  std::cout << detail << "\n"
            << "{\"correct\":" << (rep.failures.empty() ? "true" : "false")
            << ",\"attempted\":" << rep.attempted
            << ",\"failed\":" << rep.failed << ",\"metrics\":" << metrics
            << "}" << std::endl;
  return 0;
}
