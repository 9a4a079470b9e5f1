// The paper's own outputs: the Fig. 2c ADVc sweep with the Table II/III
// fairness points at reduced scale (paper-advc), and one paper-scale
// h=6 ADVc session stepped on sim.shards (paper-scale-advc).
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using dragonfly::Cycle;

// --- paper-advc ---------------------------------------------------------------

/// Offered loads of the reduced Fig. 2c sweep: one below MIN's ADVc cap
/// h/(a*p) = 1/6 at h=3, the Table II/III operating point (past MIN's
/// saturation), and one past the oblivious routings' saturation too.
const std::vector<double> kAdvcLoads = {0.1, 0.3, 0.6};
/// Table II/III operating point at h=3 (the paper uses 0.4 at h=6; the
/// reduced shape saturates earlier, see bench/bench_util.hpp).
constexpr double kFairnessLoad = 0.3;

struct SweepPoint {
  std::string routing;
  bool priority = true;
  SimConfig cfg;
};

std::vector<std::string> advc_lines(std::uint64_t seed,
                                    const std::string& routing,
                                    const std::string& loads, bool priority) {
  return {"label = " + routing + (priority ? "" : "/no-priority"),
          "h = 3",
          "traffic = advc",
          "routing = " + routing,
          "loads = " + loads,
          "seeds = 1",
          "warmup_cycles = 2000",
          "measure_cycles = 4000",
          "transit_priority = " + std::string(priority ? "1" : "0"),
          "seed = " + std::to_string(seed)};
}

/// Fig. 2c: MIN plus the paper's seven routings over kAdvcLoads with
/// transit priority (its 0.3 points are Table II); Table III: the three
/// in-transit routings at the fairness load without priority.
std::vector<SweepPoint> advc_points(Context& ctx) {
  std::string loads;
  for (const double l : kAdvcLoads) {
    loads += (loads.empty() ? "" : ",") + std::to_string(l);
  }
  std::vector<std::string> routings{"min"};
  for (const std::string& r : dragonfly::paper_routing_names()) {
    routings.push_back(r);
  }
  std::vector<SweepPoint> points;
  const auto add = [&](const std::string& routing, const std::string& l,
                       bool priority) {
    const ExperimentSpec spec =
        parse_spec(ctx, advc_lines(ctx.opt.seed, routing, l, priority));
    for (const double load : spec.effective_loads()) {
      SimConfig cfg = spec.base;
      cfg.load = load;
      hash_config(ctx, spec.label + "@" + std::to_string(load), cfg);
      points.push_back({routing, priority, cfg});
    }
  };
  for (const std::string& r : routings) add(r, loads, true);
  for (const std::string& r : routings) {
    if (r.rfind("par-", 0) == 0) add(r, std::to_string(kFairnessLoad), false);
  }
  // Heaviest first: points past saturation cost up to 40x a low-load one,
  // and queued last they would set the sweep's makespan by where they
  // happen to fall.
  std::stable_sort(points.begin(), points.end(),
                   [](const SweepPoint& x, const SweepPoint& y) {
                     return x.cfg.load > y.cfg.load;
                   });
  return points;
}

}  // namespace

void run_paper_advc(Context& ctx) {
  Report& rep = ctx.report;
  const int workers = std::max(1, ctx.cpus);
  rep.info["workers"] = std::to_string(workers);
  rep.info["shards"] = "1";

  // Set-up: expand the specs into configs and build the h=3 topology and
  // one session on it (what a sweep does before its first point).
  std::vector<SweepPoint> points;
  std::vector<SimConfig> configs;
  std::int64_t cycles_per_round = 0;
  const auto setup = [&] {
    const std::int64_t t0 = now_ns();
    points = advc_points(ctx);
    auto topo = build_topology(ctx, points.front().cfg);
    {
      SpanScope span(ctx.tracer, "sim.session_build");
      dragonfly::Session session(points.front().cfg, topo);
    }
    configs.clear();
    cycles_per_round = 0;
    for (const SweepPoint& p : points) {
      configs.push_back(p.cfg);
      cycles_per_round += p.cfg.warmup_cycles + p.cfg.measure_cycles;
    }
    return seconds_since(t0);
  };

  std::vector<std::string> first_rows;
  std::vector<AveragedResult> first_results;
  std::vector<double> job_s;
  std::vector<double> rates;
  const Rounds rounds = run_rounds(ctx, setup, [&](int round) {
    const std::int64_t t0 = now_ns();
    TimedSweep sweep;
    std::vector<std::string> rows;
    const bool ok = rep.attempt(
        "sweep round " + std::to_string(round),
        static_cast<std::int64_t>(configs.size()), [&] {
          sweep = run_configs_timed(ctx, configs, 1,
                                    std::min<int>(workers, configs.size()));
          for (std::size_t i = 0; i < sweep.results.size(); ++i) {
            rows.push_back(render_row(ctx, points[i].cfg.routing_name,
                                      sweep.results[i]));
          }
        });
    const double wall = seconds_since(t0);
    if (!ok) return wall;
    job_s.insert(job_s.end(), sweep.job_s.begin(), sweep.job_s.end());
    rates.push_back(static_cast<double>(cycles_per_round) / wall);
    if (first_rows.empty()) {
      first_rows = rows;
      first_results = sweep.results;
    } else {
      rep.check(rows == first_rows,
                "round " + std::to_string(round) +
                    " rows differ from the first round (same inputs)");
    }
    return wall;
  });
  if (first_results.empty()) throw std::runtime_error("no sweep round completed");

  std::vector<checks::AdvcPoint> check_points;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const AveragedResult& r = first_results[i];
    check_points.push_back({points[i].routing, points[i].cfg.load,
                            points[i].priority, r.accepted_load,
                            r.avg_global_hops, r.fairness.cov,
                            r.fairness.min_injections});
  }
  const SimConfig& c0 = points.front().cfg;
  for (const std::string& f : checks::advc_sweep(
           check_points, {c0.topo.p, c0.topo.a, c0.topo.h}, kFairnessLoad)) {
    rep.check(false, f);
  }
  std::string all_rows;
  for (const std::string& row : first_rows) all_rows += row + "\n";
  rep.info["results_digest"] = json_string(fnv64(all_rows));
  rep.counts["sweep.points"] = static_cast<double>(points.size());
  rep.counts["sweep.cycles"] = static_cast<double>(cycles_per_round);

  if (ctx.opt.trace) {
    // Step the Table II in-transit point and its low-load twin directly,
    // with the replica seed run_configs derives, so the experiment layer's
    // result can be checked against a session driven by hand.
    std::shared_ptr<const Topology> topo = dragonfly::make_topology(c0);
    double delivered = 0.0;
    for (const double load : {kAdvcLoads.front(), kFairnessLoad}) {
      std::size_t idx = 0;
      while (!(points[idx].routing == "par-mm" && points[idx].priority &&
               points[idx].cfg.load == load)) {
        ++idx;
      }
      SimConfig cfg = points[idx].cfg;
      cfg.seed = dragonfly::derive_seed(cfg.seed, 0);
      const SessionRun run = run_session(ctx, cfg, topo, step_span(cfg), 500,
                                         load == kFairnessLoad);
      rep.attempted += 1;
      const AveragedResult direct =
          dragonfly::average_results(std::span(&run.result, 1));
      rep.check(dragonfly::ResultWriter::csv_row("x", direct) ==
                    dragonfly::ResultWriter::csv_row("x", first_results[idx]),
                "par-mm@" + std::to_string(load) +
                    ": direct session differs from run_configs");
      for (const std::string& f :
           checks::conservation(run.generated, run.delivered_total, run.live)) {
        rep.check(false, f);
      }
      delivered += static_cast<double>(run.result.delivered_packets);
      if (load == kFairnessLoad) {
        rep.counts["sim.events_per_cycle"] =
            static_cast<double>(run.events) / static_cast<double>(run.cycles);
      }
    }
    rep.counts["sim.packets_delivered"] = delivered;
    probe_missing_layers(ctx, c0);
  }
  emit_end_to_end(ctx, rounds, median(rates), job_s);
  if (ctx.opt.trace) emit_per_layer(ctx, rounds);
}

// --- paper-scale-advc -------------------------------------------------------------

void run_paper_scale_advc(Context& ctx) {
  Report& rep = ctx.report;
  // The timed rounds step serially: on a shared 4-vCPU host sharded
  // stepping swung by 2x between runs (barrier waits on preempted
  // shards), which no bound could hold. The traced run steps the same
  // session on `shards` shards and reports sim.shard_speedup.
  const int shards = std::clamp(ctx.cpus, 1, 4);
  rep.info["shards"] = "1";
  rep.info["traced_shards"] = std::to_string(shards);
  const std::vector<std::string> lines = {
      "label = paper-scale-advc", "h = 6",     "routing = par-mm",
      "traffic = advc",           "load = 0.4", "warmup_cycles = 400",
      "measure_cycles = 800",     "sim.shards = 1",
      "seed = " + std::to_string(ctx.opt.seed)};

  SimConfig cfg;
  std::shared_ptr<const Topology> topo;
  const auto setup = [&] {
    const std::int64_t t0 = now_ns();
    cfg = parse_spec(ctx, lines).base;
    hash_config(ctx, "paper-scale-advc", cfg);
    topo = build_topology(ctx, cfg);
    {
      SpanScope span(ctx.tracer, "sim.session_build");
      dragonfly::Session session(cfg, topo);
    }
    return seconds_since(t0);
  };

  SessionRun first;
  std::vector<double> chunk_s;
  std::vector<double> rates;
  bool have_first = false;
  const Rounds rounds = run_rounds(ctx, setup, [&](int round) {
    const std::int64_t t0 = now_ns();
    SessionRun run;
    const bool ok = rep.attempt("session round " + std::to_string(round), 1, [&] {
      run = run_session(ctx, cfg, topo, step_span(cfg), 100, false);
    });
    const double wall = seconds_since(t0);
    if (!ok) return wall;
    chunk_s.insert(chunk_s.end(), run.chunk_s.begin(), run.chunk_s.end());
    rates.push_back(static_cast<double>(run.cycles) / (run.step_ns / 1e9));
    for (const std::string& f :
         checks::conservation(run.generated, run.delivered_total, run.live)) {
      rep.check(false, f);
    }
    if (!have_first) {
      have_first = true;
      for (const std::string& f : checks::point_bounds(
               run.result.offered_load, run.result.accepted_load,
               run.result.avg_global_hops)) {
        rep.check(false, f);
      }
      first = std::move(run);
    } else {
      const std::string d = checks::diff_results(first.result, run.result);
      rep.check(d.empty(), "round " + std::to_string(round) +
                               " differs from the first round in " + d);
    }
    return wall;
  });
  if (!have_first) throw std::runtime_error("no session round completed");

  const std::string row = render_row(
      ctx, "paper-scale-advc",
      dragonfly::average_results(std::span(&first.result, 1)));
  rep.info["results_digest"] = json_string(fnv64(row));
  rep.counts["sim.events_per_cycle"] =
      static_cast<double>(first.events) / static_cast<double>(first.cycles);
  rep.counts["sim.packets_delivered"] =
      static_cast<double>(first.result.delivered_packets);

  if (ctx.opt.trace) {
    // The same session on `shards` shards, checkpointed and restored at
    // the Measure boundary, must reproduce the serial result field for
    // field.
    SimConfig sharded = cfg;
    sharded.shards = shards;
    hash_config(ctx, "paper-scale-advc sharded", sharded);
    const SessionRun run =
        run_session(ctx, sharded, topo, "sim.step.sharded", 100, true);
    rep.attempted += 1;
    const std::string d = checks::diff_results(first.result, run.result);
    rep.check(d.empty(), "sim.shards=" + std::to_string(shards) +
                             " result differs from sim.shards=1 in " + d);
    rep.detail["sim.shard_speedup"] =
        (1e9 / median(rates)) / (run.step_ns / static_cast<double>(run.cycles));
    probe_missing_layers(ctx, cfg);
  }
  emit_end_to_end(ctx, rounds, median(rates), chunk_s);
  if (ctx.opt.trace) emit_per_layer(ctx, rounds);
}

}  // namespace perfbench
