// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around calls into the
// simulator's layers (topology, sim, metrics, core, config, service,
// workload); nothing inside the simulator is instrumented. A disabled
// tracer records nothing and reads no clock, so the untraced rounds pay
// only one branch per would-be span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int round = -1;   ///< round the span belongs to (spans of one round share it)
  std::int64_t work = 0;    ///< cycles stepped, bytes written, ... (per name)
  std::int64_t events = 0;  ///< link events dispatched inside a step span

  double ns() const { return static_cast<double>(end_ns - start_ns); }
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_round(int round) { round_ = round; }

  /// Open a span under the innermost open one; -1 when disabled.
  int open(const std::string& name);
  void close(int id, std::int64_t work = 0, std::int64_t events = 0);
  /// Record an already finished span (timed on another thread) under the
  /// innermost open span.
  void add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t work = 0, std::int64_t events = 0);

  const std::vector<Span>& spans() const { return spans_; }
  bool has(const std::string& name) const;
  std::vector<double> durations_ns(const std::string& name) const;
  double total_ns(const std::string& name) const;
  std::int64_t total_work(const std::string& name) const;
  std::int64_t total_events(const std::string& name) const;

  /// Per-name self time: duration minus the part covered by child spans.
  std::map<std::string, double> self_ms() const;
  /// Spans as a JSON array (written next to the build when a run ends).
  std::string to_json() const;

 private:
  bool enabled_ = false;
  int round_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled at construction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~SpanScope() { tracer_.close(id_, work_, events_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_work(std::int64_t work) { work_ = work; }
  void set_events(std::int64_t events) { events_ = events; }

 private:
  Tracer& tracer_;
  int id_;
  std::int64_t work_ = 0;
  std::int64_t events_ = 0;
};

}  // namespace perfbench
