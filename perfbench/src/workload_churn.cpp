// jobs-churn: multi-tenant job churn on an h=4 dragonfly, the one
// workload where the serial WorkloadDriver runs every cycle.
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"

namespace perfbench {

void run_jobs_churn(Context& ctx) {
  Report& rep = ctx.report;
  rep.info["shards"] = "1";
  // Jobs of three groups each (96 nodes) arrive every ~10 cycles while
  // fewer than four are live and live ~300, so the machine holds three or
  // four tenants with different mixes nearly all the time and dozens of
  // jobs start and end inside the 3,000-cycle window. A nearly full
  // machine keeps a scenario's step cost close to that of any other seed;
  // with arrivals every ~200 cycles and lifetimes of ~800 it varied by a
  // factor of 2 to 3.
  const std::vector<std::string> lines = {
      "label = jobs-churn",
      "h = 4",
      "routing = par-mm",
      "traffic = uniform",
      "load = 0.5",
      "workload.mode = churn",
      "workload.jobs = 4",
      "workload.arrival_cycles = 10",
      "workload.job_cycles = 300",
      "workload.job_routers = 24",
      "workload.placement = contiguous",
      "workload.mix = uniform,shift,hotspot,ring",
      "warmup_cycles = 1000",
      "measure_cycles = 3000",
      "seed = " + std::to_string(ctx.opt.seed)};

  // Job arrivals and lifetimes change one scenario's step cost by a factor
  // of 3 to 5 from one seed to the next, so a round simulates a fixed set
  // of kScenarios scenarios (seeds derived from --seed): every round, and
  // so every commit timed for the same --seconds, does the same work.
  constexpr int kScenarios = 8;
  std::vector<SimConfig> scenarios;
  std::shared_ptr<const Topology> topo;
  const auto setup = [&] {
    const std::int64_t t0 = now_ns();
    const SimConfig cfg = parse_spec(ctx, lines).base;
    hash_config(ctx, "jobs-churn base", cfg);
    topo = build_topology(ctx, cfg);
    {
      SpanScope span(ctx.tracer, "sim.session_build");
      dragonfly::Session session(cfg, topo);
    }
    scenarios.clear();
    for (int k = 0; k < kScenarios; ++k) {
      SimConfig c = cfg;
      c.seed = dragonfly::derive_seed(cfg.seed, static_cast<std::uint64_t>(k));
      scenarios.push_back(c);
    }
    return seconds_since(t0);
  };

  std::vector<SessionRun> first;
  std::vector<double> chunk_s;
  std::vector<double> rates;
  const Rounds rounds = run_rounds(ctx, setup, [&](int round) {
    const std::int64_t t0 = now_ns();
    std::vector<SessionRun> runs(scenarios.size());
    std::vector<bool> ok(scenarios.size());
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
      if (round == 0) {
        hash_config(ctx, "jobs-churn scenario " + std::to_string(k), scenarios[k]);
      }
      ok[k] = rep.attempt(
          "round " + std::to_string(round) + " scenario " + std::to_string(k), 1,
          [&] {
            runs[k] = run_session(ctx, scenarios[k], topo,
                                  step_span(scenarios[k]), 100, false);
          });
    }
    const double wall = seconds_since(t0);
    std::int64_t cycles = 0;
    double step_ns = 0.0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      if (!ok[k]) continue;
      const SessionRun& run = runs[k];
      const SimConfig& c = scenarios[k];
      cycles += run.cycles;
      step_ns += run.step_ns;
      chunk_s.insert(chunk_s.end(), run.chunk_s.begin(), run.chunk_s.end());
      const std::string where = "round " + std::to_string(round) +
                                " scenario " + std::to_string(k) + ": ";
      for (const std::string& f :
           checks::conservation(run.generated, run.delivered_total, run.live)) {
        rep.check(false, where + f);
      }
      for (const std::string& f :
           checks::churn(run.result, c.warmup_cycles,
                         c.warmup_cycles + c.measure_cycles, run.max_live_jobs)) {
        rep.check(false, where + f);
      }
      if (!first.empty() && first[k].cycles > 0) {
        const std::string d = checks::diff_results(first[k].result, run.result);
        rep.check(d.empty(), where + "differs from the first round in " + d);
      }
    }
    if (step_ns > 0.0) rates.push_back(static_cast<double>(cycles) / (step_ns / 1e9));
    if (first.empty()) first = std::move(runs);
    return wall;
  });
  if (rates.empty()) throw std::runtime_error("no churn session completed");

  std::string rows;
  int completed = 0;
  std::int64_t events = 0;
  std::int64_t cycles = 0;
  double delivered = 0.0;
  for (std::size_t k = 0; k < first.size(); ++k) {
    rows += render_row(ctx, "jobs-churn/" + std::to_string(k),
                       dragonfly::average_results(std::span(&first[k].result, 1))) +
            "\n";
    for (const dragonfly::JobResult& job : first[k].result.jobs) {
      if (job.end >= 0) ++completed;
    }
    events += first[k].events;
    cycles += first[k].cycles;
    delivered += static_cast<double>(first[k].result.delivered_packets);
  }
  rep.info["results_digest"] = json_string(fnv64(rows));
  rep.counts["workload.jobs_completed"] = completed;
  rep.counts["sim.events_per_cycle"] =
      cycles > 0 ? static_cast<double>(events) / static_cast<double>(cycles) : 0.0;
  rep.counts["sim.packets_delivered"] = delivered;

  if (ctx.opt.trace) {
    // A checkpoint + restore at the Measure boundary must not change the
    // result; the same shape and load without the WorkloadDriver gives its
    // share of the step time.
    const SimConfig& c0 = scenarios.front();
    const SessionRun restored =
        run_session(ctx, c0, topo, step_span(c0), 100, true);
    const std::string d =
        checks::diff_results(first.front().result, restored.result);
    rep.check(d.empty(), "checkpoint round trip changed the result in " + d);
    SimConfig off = c0;
    off.workload = {};
    const SessionRun plain =
        run_session(ctx, off, topo, "sim.step.driver_off", 100, false);
    rep.attempted += 2;
    rep.detail["workload.driver_ratio"] =
        (restored.step_ns / static_cast<double>(restored.cycles)) /
        (plain.step_ns / static_cast<double>(plain.cycles));
    probe_missing_layers(ctx, c0);
  }
  emit_end_to_end(ctx, rounds, median(rates), chunk_s);
  if (ctx.opt.trace) emit_per_layer(ctx, rounds);
}

}  // namespace perfbench
