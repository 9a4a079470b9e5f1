#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "workload/workload.hpp"

namespace perfbench {

using dragonfly::Cycle;
using dragonfly::Session;
using dragonfly::SessionPhase;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
  return ok;
}

bool Report::attempt(const std::string& what, std::int64_t ops,
                     const std::function<void()>& op) {
  attempted += ops;
  try {
    op();
    return true;
  } catch (const std::exception& e) {
    failed += ops;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(), e.what());
    return false;
  }
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image. ru_maxrss is not:
  // Linux carries it across exec, so a harness started from a larger
  // process (python3 run.py) would report its launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model = model.c_str();  // drop trailing NULs
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fnv64(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

Rounds run_rounds(Context& ctx, const std::function<double()>& setup,
                  const std::function<double(int)>& body) {
  Rounds rounds;
  const auto timed_setup = [&] { rounds.setup_s.push_back(setup()); };
  for (int i = 0; i < 5; ++i) timed_setup();
  const int min_rounds = ctx.opt.trace ? 2 : 1;
  const std::int64_t start = now_ns();
  for (int i = 0;; ++i) {
    const bool traced = ctx.opt.trace && i % 2 == 1;
    ctx.tracer.set_enabled(traced);
    ctx.tracer.set_round(i);
    timed_setup();
    const double s = body(i);
    (traced ? rounds.traced_s : rounds.plain_s).push_back(s);
    if (rounds.count() >= min_rounds && seconds_since(start) >= ctx.opt.seconds) {
      break;
    }
  }
  ctx.tracer.set_enabled(ctx.opt.trace);
  ctx.tracer.set_round(-1);
  return rounds;
}

ExperimentSpec parse_spec(Context& ctx, const std::vector<std::string>& lines) {
  SpanScope span(ctx.tracer, "core.spec_parse");
  ExperimentSpec spec;
  for (const std::string& line : lines) spec.apply_kv_line(line);
  spec.finalize();
  return spec;
}

std::string hash_config(Context& ctx, const std::string& label,
                        const SimConfig& cfg) {
  std::string hash;
  {
    SpanScope span(ctx.tracer, "config.canonical_hash");
    hash = cfg.canonical_hash();
  }
  {
    SpanScope span(ctx.tracer, "config.warm_hash");
    (void)cfg.warm_hash();
  }
  auto& sessions = ctx.report.sessions;
  const bool seen = std::any_of(sessions.begin(), sessions.end(),
                                [&](const auto& s) { return s.first == label; });
  if (!seen) sessions.emplace_back(label, hash);
  return hash;
}

std::string render_row(Context& ctx, const std::string& label,
                       const AveragedResult& result) {
  SpanScope span(ctx.tracer, "core.csv_row");
  return dragonfly::ResultWriter::csv_row(label, result);
}

std::shared_ptr<const Topology> build_topology(Context& ctx,
                                               const SimConfig& cfg) {
  SpanScope span(ctx.tracer, "topology.build");
  return dragonfly::make_topology(cfg);
}

namespace {

/// h/(a*p): MIN's throughput cap under ADVc traffic on a dragonfly.
double advc_min_cap(const SimConfig& cfg) {
  return static_cast<double>(cfg.topo.h) / (cfg.topo.a * cfg.topo.p);
}

}  // namespace

std::string step_span(const SimConfig& cfg) {
  return cfg.load < advc_min_cap(cfg) ? "sim.step.low_load"
                                      : "sim.step.saturated";
}

SessionRun run_session(Context& ctx, const SimConfig& cfg,
                       std::shared_ptr<const Topology> topo,
                       const std::string& step_name, Cycle chunk,
                       bool checkpoint_at_measure) {
  SessionRun out;
  std::unique_ptr<Session> session;
  {
    SpanScope span(ctx.tracer, "sim.session_build");
    session = std::make_unique<Session>(cfg, topo);
  }
  bool checkpointed = !checkpoint_at_measure;
  while (session->phase() != SessionPhase::kDone) {
    if (!checkpointed && session->now() >= cfg.warmup_cycles) {
      std::stringstream stream;
      {
        SpanScope span(ctx.tracer, "sim.checkpoint");
        session->checkpoint(stream);
        span.set_work(static_cast<std::int64_t>(stream.tellp()));
      }
      SpanScope span(ctx.tracer, "sim.restore");
      session = Session::restore(stream, 0, nullptr, topo);
      checkpointed = true;
    }
    Cycle n = chunk;
    if (!checkpointed) n = std::min(n, cfg.warmup_cycles - session->now());
    dragonfly::Network& net = session->network();
    const Cycle c0 = session->now();
    const std::int64_t e0 = net.dispatched_events();
    const std::int64_t t0 = now_ns();
    session->step(n);
    const std::int64_t t1 = now_ns();
    const Cycle stepped = session->now() - c0;
    const std::int64_t events = net.dispatched_events() - e0;
    ctx.tracer.add(step_name, t0, t1, stepped, events);
    out.cycles += stepped;
    out.events += events;
    out.step_ns += static_cast<double>(t1 - t0);
    out.chunk_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (const auto* driver = net.workload()) {
      out.max_live_jobs =
          std::max(out.max_live_jobs, static_cast<int>(driver->live_jobs()));
    }
  }
  {
    SpanScope span(ctx.tracer, "metrics.collect");
    out.result = session->collect();
  }
  dragonfly::Network& net = session->network();
  out.generated = net.generated_packets_total();
  out.delivered_total = net.collector().delivered_packets_total();
  out.live = static_cast<std::int64_t>(net.packets().live());
  return out;
}

namespace {

/// PoolRunner behind a CallbackRunner that stamps every job's start and
/// end; spans are added from the calling thread once the jobs joined.
class JobTimer {
 public:
  explicit JobTimer(int workers)
      : pool_(workers),
        runner_(
            [this](std::size_t n, const std::function<void(std::size_t)>& body) {
              const std::size_t base = start_.size();
              start_.resize(base + n);
              end_.resize(base + n);
              pool_.run(n, [&](std::size_t i) {
                start_[base + i] = now_ns();
                body(i);
                end_[base + i] = now_ns();
              });
            },
            workers) {}

  dragonfly::ParallelRunner& runner() { return runner_; }

  /// Job times in seconds, spanned as core.job under the open span.
  std::vector<double> finish(Tracer& tracer) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < start_.size(); ++i) {
      tracer.add("core.job", start_[i], end_[i]);
      out.push_back(static_cast<double>(end_[i] - start_[i]) / 1e9);
    }
    return out;
  }

 private:
  dragonfly::PoolRunner pool_;
  dragonfly::CallbackRunner runner_;
  std::vector<std::int64_t> start_;
  std::vector<std::int64_t> end_;
};

}  // namespace

TimedSweep run_configs_timed(Context& ctx,
                             const std::vector<SimConfig>& configs, int seeds,
                             int workers) {
  TimedSweep out;
  JobTimer timer(workers);
  const int id = ctx.tracer.open("core.run_configs");
  out.results = dragonfly::run_configs(configs, seeds, timer.runner());
  out.job_s = timer.finish(ctx.tracer);
  ctx.tracer.close(id, workers);
  return out;
}

AveragedResult run_averaged_timed(Context& ctx, const SimConfig& cfg,
                                  int seeds, int workers) {
  JobTimer timer(std::min(workers, seeds));
  const int id = ctx.tracer.open("core.run_configs");
  AveragedResult result = dragonfly::run_averaged(cfg, seeds, timer.runner());
  timer.finish(ctx.tracer);
  ctx.tracer.close(id, std::min(workers, seeds));
  return result;
}

void emit_end_to_end(Context& ctx, const Rounds& rounds, double cycles_per_s,
                     const std::vector<double>& op_s) {
  Report& r = ctx.report;
  const double setup_s = median(rounds.setup_s);
  const double round_s = median(rounds.plain_s);
  if (ctx.opt.trace) {
    // The contract line of a traced run carries the per-layer metrics;
    // the end-to-end figures of its untraced rounds go to the detail.
    r.detail["setup_s"] = setup_s;
    r.detail["round_s"] = round_s;
    r.detail["round_s.traced"] = median(rounds.traced_s);
    return;
  }
  r.metric("setup_s", setup_s, "s");
  r.metric("round_s", round_s, "s");
  r.metric("cycles_per_s", cycles_per_s, "1/s");
  r.metric("op_p50_ms", median(op_s) * 1e3, "ms");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

namespace {

/// Short-window copy of `cfg` for probes.
SimConfig probe_config(const SimConfig& cfg) {
  SimConfig probe = cfg;
  probe.warmup_cycles = 200;
  probe.measure_cycles = 400;
  probe.stop = {};
  probe.drain_max_cycles = 0;
  return probe;
}

double ns_per_cycle(const SessionRun& run) {
  return run.cycles > 0 ? run.step_ns / static_cast<double>(run.cycles) : 0.0;
}

}  // namespace

void probe_missing_layers(Context& ctx, const SimConfig& cfg) {
  Tracer& t = ctx.tracer;
  const SimConfig probe = probe_config(cfg);
  std::shared_ptr<const Topology> topo = t.has("topology.build")
                                             ? dragonfly::make_topology(probe)
                                             : build_topology(ctx, probe);
  const double cap = advc_min_cap(probe);
  SessionRun last;
  if (!t.has("sim.step.low_load")) {
    SimConfig low = probe;
    low.load = cap / 2.0;
    last = run_session(ctx, low, topo, "sim.step.low_load", 100,
                       !t.has("sim.checkpoint"));
    ctx.report.attempted += 1;
  }
  if (!t.has("sim.step.saturated")) {
    SimConfig sat = probe;
    sat.load = std::max(probe.load, std::min(1.0, 2.0 * cap));
    last = run_session(ctx, sat, topo, "sim.step.saturated", 100,
                       !t.has("sim.checkpoint"));
    ctx.report.attempted += 1;
  }
  if (!t.has("sim.checkpoint")) {
    last = run_session(ctx, probe, topo, "sim.step.probe", 100, true);
    ctx.report.attempted += 1;
  }
  if (!t.has("core.job")) {
    run_configs_timed(ctx, {probe}, 1, 1);
    ctx.report.attempted += 1;
  }
  if (!t.has("service.protocol")) {
    dragonfly::PointReport point;
    point.label = "probe";
    point.offered_load = probe.load;
    point.hash = dragonfly::SweepService::point_hash(probe, 1);
    point.result = dragonfly::average_results(std::span(&last.result, 1));
    dragonfly::RequestReport report;
    report.points.push_back(point);
    std::string line = "RUN";
    for (const auto& [key, value] : probe.canonical_kv()) {
      line += " " + key + "=" + value + ";";
    }
    SpanScope span(t, "service.protocol");
    const auto request = dragonfly::protocol::parse_request(line);
    const std::string result = dragonfly::protocol::format_result(point);
    const std::string done = dragonfly::protocol::format_done(report);
    ctx.report.check(request.verb == dragonfly::protocol::Verb::kRun &&
                         result.rfind("RESULT ", 0) == 0 &&
                         done == "DONE 1 hits=0 warm=0",
                     "protocol probe: round trip failed: " + request.error);
  }
  // Ratios the workload does not measure itself compare two probe
  // sessions; where both sides are the same config they read ~1.
  auto ratio_probe = [&](const char* name, SimConfig a, SimConfig b) {
    if (ctx.report.detail.count(name) != 0) return;
    const SessionRun ra = run_session(ctx, a, topo, "sim.step.probe", 100, false);
    const SessionRun rb = run_session(ctx, b, topo, "sim.step.probe", 100, false);
    ctx.report.attempted += 2;
    ctx.report.detail[name] = ns_per_cycle(ra) / ns_per_cycle(rb);
  };
  SimConfig serial = probe;
  serial.shards = 1;
  ratio_probe("sim.shard_speedup", serial, probe);
  SimConfig driver_off = probe;
  driver_off.workload = {};
  ratio_probe("workload.driver_ratio", probe, driver_off);
}

void emit_per_layer(Context& ctx, const Rounds& rounds) {
  const Tracer& t = ctx.tracer;
  Report& r = ctx.report;
  const auto med = [&](const char* name, double scale) {
    return median(t.durations_ns(name)) / scale;
  };
  const auto per_cycle = [&](std::initializer_list<const char*> names) {
    double ns = 0.0;
    double cycles = 0.0;
    for (const char* n : names) {
      ns += t.total_ns(n);
      cycles += static_cast<double>(t.total_work(n));
    }
    return cycles > 0.0 ? ns / cycles : 0.0;
  };
  const auto count = [&](const char* name) {
    const auto it = r.counts.find(name);
    return it == r.counts.end() ? 0.0 : it->second;
  };
  const auto detail = [&](const char* name) {
    const auto it = r.detail.find(name);
    return it == r.detail.end() ? 0.0 : it->second;
  };

  r.metric("topology.build_ms", med("topology.build", 1e6), "ms");
  r.metric("sim.session_build_ms", med("sim.session_build", 1e6), "ms");
  r.metric("sim.step_ns_per_cycle",
           per_cycle({"sim.step.low_load", "sim.step.saturated"}), "ns");
  r.metric("sim.step_ns_per_cycle.low_load", per_cycle({"sim.step.low_load"}),
           "ns");
  r.metric("sim.step_ns_per_cycle.saturated",
           per_cycle({"sim.step.saturated"}), "ns");
  const double events = static_cast<double>(
      t.total_events("sim.step.low_load") + t.total_events("sim.step.saturated"));
  r.metric("sim.ns_per_event",
           events > 0.0 ? (t.total_ns("sim.step.low_load") +
                           t.total_ns("sim.step.saturated")) / events
                        : 0.0,
           "ns");
  r.metric("sim.shard_speedup", detail("sim.shard_speedup"), "x");
  r.metric("sim.checkpoint_ms", med("sim.checkpoint", 1e6), "ms");
  r.metric("sim.restore_ms", med("sim.restore", 1e6), "ms");
  double bytes = 0.0;
  for (const Span& s : t.spans()) {
    if (s.name == "sim.checkpoint") {
      bytes = static_cast<double>(s.work);
      break;
    }
  }
  r.metric("sim.checkpoint_bytes", bytes, "bytes");
  r.metric("metrics.collect_us", med("metrics.collect", 1e3), "us");

  std::vector<double> jobs = t.durations_ns("core.job");
  r.metric("core.job_ms.max",
           jobs.empty() ? 0.0 : *std::max_element(jobs.begin(), jobs.end()) / 1e6,
           "ms");
  double capacity_ns = 0.0;
  for (const Span& s : t.spans()) {
    if (s.name == "core.run_configs") capacity_ns += s.ns() * static_cast<double>(s.work);
  }
  r.metric("core.worker_busy",
           capacity_ns > 0.0 ? t.total_ns("core.job") / capacity_ns : 0.0,
           "ratio");
  r.metric("core.spec_parse_us", med("core.spec_parse", 1e3), "us");
  r.metric("core.csv_row_us", med("core.csv_row", 1e3), "us");
  r.metric("config.canonical_hash_us", med("config.canonical_hash", 1e3), "us");
  r.metric("config.warm_hash_us", med("config.warm_hash", 1e3), "us");
  r.metric("service.protocol_us", med("service.protocol", 1e3), "us");
  r.metric("service.cycles_per_miss", count("service.cycles_per_miss"),
           "cycles");
  r.metric("service.cycles_per_warm", count("service.cycles_per_warm"),
           "cycles");
  r.metric("workload.driver_ratio", detail("workload.driver_ratio"), "x");
  for (const char* name :
       {"sim.events_per_cycle", "sim.packets_delivered", "service.hits",
        "service.warm_starts", "service.cold_runs", "topology.cache_hits",
        "workload.jobs_completed"}) {
    r.metric(name, count(name), "count");
  }
  const double plain = median(rounds.plain_s);
  r.metric("trace.overhead",
           plain > 0.0 ? median(rounds.traced_s) / plain - 1.0 : 0.0, "ratio");
}

}  // namespace perfbench
