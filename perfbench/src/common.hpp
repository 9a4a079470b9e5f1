// Shared plumbing of the benchmark harness: options, the run report,
// round timing, and the traced helpers every workload uses to call into
// the simulator's layers (spans are recorded here, in the benchmark's
// own code, never inside the simulator).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "trace.hpp"

namespace perfbench {

using dragonfly::AveragedResult;
using dragonfly::ExperimentSpec;
using dragonfly::SimConfig;
using dragonfly::SimResult;
using dragonfly::Topology;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything a run prints: the contract line (correct / attempted /
/// failed / metrics) plus provenance, deterministic counts and figures
/// that are not contract metrics.
/// Operations are simulation points, sessions and service requests. One
/// that throws or that the service answers with ERR counts as failed and
/// the run goes on; the output checks speak of the operations that did
/// not fail.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< output-check failures
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, double> counts;  ///< deterministic work counts
  std::map<std::string, double> detail;  ///< extra timings (not contract)
  std::map<std::string, std::string> info;  ///< provenance, JSON-encoded
  std::vector<std::pair<std::string, std::string>> sessions;  ///< label, hash

  void metric(const std::string& name, double value, const std::string& unit);
  /// Record an output check; a false `ok` makes the run incorrect.
  bool check(bool ok, const std::string& what);
  /// Attempt `ops` operations run by `op`; if it throws they all count as
  /// failed (reported on stderr under `what`). Returns whether it succeeded.
  bool attempt(const std::string& what, std::int64_t ops,
               const std::function<void()>& op);
};

struct Context {
  Options opt;
  int cpus = 1;  ///< CPUs this process may run on (threads never exceed it)
  Tracer tracer;
  Report report;
};

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> v);
/// Quantile by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);
double peak_rss_mb();
std::string cpu_model();
int usable_cpus();
std::string json_string(const std::string& s);
/// FNV-1a 64 over `text`, as 16 hex digits (result digests).
std::string fnv64(const std::string& text);

// --- rounds -------------------------------------------------------------------

/// Wall times of the timed rounds and set-ups. In a traced run rounds
/// alternate untraced / traced so the two medians give the tracing
/// overhead.
struct Rounds {
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<double> setup_s;
  int count() const { return static_cast<int>(plain_s.size() + traced_s.size()); }
};

/// Run `setup` a few times back to back, then run whole rounds until
/// `seconds` have elapsed (at least one round; two in a traced run),
/// running `setup` again before each: set-up samples spread over the run
/// keep a burst of slow thread wake-ups from setting setup_s. `setup`
/// returns its set-up time and `body(i)` runs round i and returns its
/// round time, both in seconds.
Rounds run_rounds(Context& ctx, const std::function<double()>& setup,
                  const std::function<double(int)>& body);

/// Seconds elapsed since `start_ns` (a now_ns() reading).
double seconds_since(std::int64_t start_ns);

// --- traced calls into the layers ----------------------------------------------

/// Parse "key = value" lines through ExperimentSpec (core.spec_parse).
ExperimentSpec parse_spec(Context& ctx, const std::vector<std::string>& lines);
/// canonical_hash + warm_hash of a config (config.*); records the
/// session's hash for the provenance block under `label`.
std::string hash_config(Context& ctx, const std::string& label,
                        const SimConfig& cfg);
/// ResultWriter::csv_row (core.csv_row).
std::string render_row(Context& ctx, const std::string& label,
                       const AveragedResult& result);
/// make_topology (topology.build).
std::shared_ptr<const Topology> build_topology(Context& ctx,
                                               const SimConfig& cfg);

/// Span name of a step under `cfg`: "sim.step.low_load" below the ADVc
/// MIN cap, "sim.step.saturated" at or past it.
std::string step_span(const SimConfig& cfg);

/// One Session driven to Done on the calling thread with every layer
/// call spanned: construction, step chunks, an optional checkpoint +
/// restore at the Measure boundary, and collect.
struct SessionRun {
  SimResult result;
  std::int64_t cycles = 0;
  double step_ns = 0.0;  ///< time inside Session::step
  std::vector<double> chunk_s;  ///< one entry per step(chunk) call
  std::int64_t events = 0;
  std::int64_t generated = 0;
  std::int64_t delivered_total = 0;
  std::int64_t live = 0;
  int max_live_jobs = 0;
};
SessionRun run_session(Context& ctx, const SimConfig& cfg,
                       std::shared_ptr<const Topology> topo,
                       const std::string& step_name, dragonfly::Cycle chunk,
                       bool checkpoint_at_measure);

/// run_configs through a CallbackRunner over a PoolRunner that times
/// every job (core.job spans, core.run_configs around the call).
struct TimedSweep {
  std::vector<AveragedResult> results;
  std::vector<double> job_s;
};
TimedSweep run_configs_timed(Context& ctx,
                             const std::vector<SimConfig>& configs, int seeds,
                             int workers);
/// run_averaged through the same timing runner.
AveragedResult run_averaged_timed(Context& ctx, const SimConfig& cfg,
                                  int seeds, int workers);

// --- metrics --------------------------------------------------------------------

/// setup_s, round_s, cycles_per_s, op_p50_ms and peak_rss_mb.
void emit_end_to_end(Context& ctx, const Rounds& rounds, double cycles_per_s,
                     const std::vector<double>& op_s);

/// Fill per-layer spans a workload does not produce itself by calling the
/// layer on the workload's own config (see README, "Probes").
void probe_missing_layers(Context& ctx, const SimConfig& cfg);

/// Every per-layer metric, from the spans and the deterministic counts.
void emit_per_layer(Context& ctx, const Rounds& rounds);

// --- workloads --------------------------------------------------------------------

void run_paper_advc(Context& ctx);
void run_paper_scale_advc(Context& ctx);
void run_service_explore(Context& ctx);
void run_jobs_churn(Context& ctx);

}  // namespace perfbench
