#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench::checks {
namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string where(const AdvcPoint& p) {
  return p.routing + "@" + fmt(p.offered) +
         (p.transit_priority ? "" : "/no-priority");
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool same(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

std::vector<std::string> advc_sweep(const std::vector<AdvcPoint>& points,
                                    const Shape& shape, double fairness_load) {
  std::vector<std::string> out;
  const double cap = static_cast<double>(shape.h) / (shape.a * shape.p);
  double max_oblivious_cov = -1.0;
  double min_in_transit_cov = -1.0;
  bool any_table3 = false;

  for (const AdvcPoint& p : points) {
    for (const std::string& v : point_bounds(p.offered, p.accepted,
                                             p.global_hops)) {
      out.push_back(where(p) + ": " + v);
    }
    if (p.routing == "min") {
      if (p.accepted >= cap * 1.1) {
        out.push_back(where(p) + ": MIN accepted " + fmt(p.accepted) +
                      " >= ADVc cap h/(a*p)=" + fmt(cap) + " +10%");
      }
      if (std::fabs(p.global_hops - 1.0) > 1e-12) {
        out.push_back(where(p) + ": MIN global hops " + fmt(p.global_hops) +
                      " != 1");
      }
    }
    if (starts_with(p.routing, "val-") && p.accepted >= 0.5) {
      out.push_back(where(p) + ": Valiant accepted " + fmt(p.accepted) +
                    " >= 0.5");
    }
    if (p.offered < cap &&
        std::fabs(p.accepted - p.offered) > kLoadSlack * p.offered) {
      out.push_back(where(p) + ": below the MIN cap but accepted " +
                    fmt(p.accepted) + " of " + fmt(p.offered));
    }
    if (p.offered == fairness_load && p.transit_priority) {
      if (starts_with(p.routing, "val-")) {
        max_oblivious_cov = std::max(max_oblivious_cov, p.cov);
      }
      if (starts_with(p.routing, "par-")) {
        min_in_transit_cov = min_in_transit_cov < 0.0
                                 ? p.cov
                                 : std::min(min_in_transit_cov, p.cov);
      }
    }
    if (p.offered == fairness_load && !p.transit_priority &&
        starts_with(p.routing, "par-")) {
      any_table3 = true;
      bool paired = false;
      for (const AdvcPoint& q : points) {
        if (q.routing != p.routing || q.offered != p.offered ||
            !q.transit_priority) {
          continue;
        }
        paired = true;
        if (!(p.min_injections > q.min_injections)) {
          out.push_back(where(p) + ": removing transit priority did not raise "
                        "min injection (" + fmt(p.min_injections) + " vs " +
                        fmt(q.min_injections) + ")");
        }
      }
      if (!paired) out.push_back(where(p) + ": no priority-on twin");
    }
  }
  if (max_oblivious_cov < 0.0 || min_in_transit_cov < 0.0) {
    out.push_back("Table II: sweep lacks oblivious or in-transit points at "
                  "the fairness load");
  } else if (!(min_in_transit_cov > 2.0 * max_oblivious_cov)) {
    out.push_back("Table II: in-transit CoV " + fmt(min_in_transit_cov) +
                  " not above 2x oblivious CoV " + fmt(max_oblivious_cov));
  }
  if (!any_table3) out.push_back("Table III: no priority-off points");
  return out;
}

std::vector<std::string> point_bounds(double offered, double accepted,
                                      double global_hops) {
  std::vector<std::string> out;
  if (!(accepted <= offered * (1.0 + kLoadSlack))) {
    out.push_back("accepted " + fmt(accepted) + " > offered " + fmt(offered));
  }
  if (!(global_hops >= 1.0 && global_hops <= 2.0)) {
    out.push_back("global hops " + fmt(global_hops) + " outside [1, 2]");
  }
  return out;
}

std::vector<std::string> conservation(std::int64_t generated,
                                      std::int64_t delivered,
                                      std::int64_t live) {
  if (generated == delivered + live) return {};
  return {"conservation: generated " + std::to_string(generated) +
          " != delivered " + std::to_string(delivered) + " + live " +
          std::to_string(live)};
}

std::string diff_results(const dragonfly::SimResult& a,
                         const dragonfly::SimResult& b) {
#define PB_SAME(field) \
  if (!same(a.field, b.field)) return #field
  PB_SAME(offered_load);
  PB_SAME(accepted_load);
  PB_SAME(avg_latency);
  PB_SAME(p50_latency);
  PB_SAME(p99_latency);
  PB_SAME(max_latency);
  PB_SAME(components.base);
  PB_SAME(components.misroute);
  PB_SAME(components.local_queue);
  PB_SAME(components.global_queue);
  PB_SAME(components.injection_queue);
  PB_SAME(avg_local_hops);
  PB_SAME(avg_global_hops);
  PB_SAME(fairness.min_injections);
  PB_SAME(fairness.max_injections);
  PB_SAME(fairness.max_over_min);
  PB_SAME(fairness.cov);
  PB_SAME(fairness.jain);
  PB_SAME(fairness.mean);
  PB_SAME(p999_latency);
  PB_SAME(saturation_margin);
  PB_SAME(jain_jobs);
  PB_SAME(jain_groups);
#undef PB_SAME
  if (a.delivered_packets != b.delivered_packets) return "delivered_packets";
  if (a.generated_packets != b.generated_packets) return "generated_packets";
  if (a.measured_cycles != b.measured_cycles) return "measured_cycles";
  if (a.converged != b.converged) return "converged";
  if (a.injections_per_router != b.injections_per_router) {
    return "injections_per_router";
  }
  if (a.jobs.size() != b.jobs.size()) return "jobs";
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& x = a.jobs[i];
    const auto& y = b.jobs[i];
    if (x.id != y.id || x.label != y.label || x.nodes != y.nodes ||
        x.start != y.start || x.end != y.end ||
        x.delivered_packets != y.delivered_packets ||
        !same(x.accepted_load, y.accepted_load) ||
        !same(x.avg_latency, y.avg_latency) ||
        !same(x.p99_latency, y.p99_latency) ||
        !same(x.max_latency, y.max_latency) || x.iterations != y.iterations ||
        !same(x.mean_iteration_cycles, y.mean_iteration_cycles)) {
      return "jobs[" + std::to_string(i) + "]";
    }
  }
  return "";
}

std::vector<std::string> churn(const dragonfly::SimResult& r,
                               dragonfly::Cycle window_begin,
                               dragonfly::Cycle window_end,
                               int max_live_jobs) {
  std::vector<std::string> out;
  std::int64_t job_delivered = 0;
  bool lived_inside = false;
  for (const dragonfly::JobResult& job : r.jobs) {
    job_delivered += job.delivered_packets;
    if (job.start >= window_begin && job.end >= job.start &&
        job.end <= window_end && job.delivered_packets > 0) {
      lived_inside = true;
    }
  }
  if (job_delivered > r.delivered_packets) {
    out.push_back("per-job deliveries " + std::to_string(job_delivered) +
                  " exceed the window's " +
                  std::to_string(r.delivered_packets));
  }
  if (!(r.jain_jobs > 0.0 && r.jain_jobs <= 1.0)) {
    out.push_back("jain_jobs " + fmt(r.jain_jobs) + " outside (0, 1]");
  }
  if (!lived_inside) {
    out.push_back("no job arrived, ran and departed inside the window");
  }
  if (max_live_jobs < 2) {
    out.push_back("never two tenants live at once (max " +
                  std::to_string(max_live_jobs) + ")");
  }
  return out;
}

bool parse_result(const std::string& line, Reply& out) {
  std::istringstream is(line);
  std::string verb;
  if (!(is >> verb >> out.hash >> out.source) || verb != "RESULT") {
    return false;
  }
  if (is.get() != ' ') return false;
  std::getline(is, out.row);
  return !out.hash.empty() && !out.row.empty() &&
         (out.source == "miss" || out.source == "warm" ||
          out.source == "hit" || out.source == "coalesced");
}

bool parse_done(const std::string& line, int& points) {
  std::istringstream is(line);
  std::string verb;
  std::string hits;
  std::string warm;
  return (is >> verb >> points >> hits >> warm) && verb == "DONE" &&
         starts_with(hits, "hits=") && starts_with(warm, "warm=");
}

std::vector<std::string> service_reply(const std::string& line,
                                       const ExpectedReply& expected) {
  Reply got;
  if (!parse_result(line, got)) return {"unparsable reply: " + line};
  Reply want;
  if (!parse_result(expected.reference, want)) {
    return {"unparsable reference: " + expected.reference};
  }
  std::vector<std::string> out;
  if (got.source != expected.source) {
    out.push_back("source " + got.source + ", expected " + expected.source);
  }
  if (got.hash != want.hash) {
    out.push_back("hash " + got.hash + " != reference " + want.hash);
  }
  if (got.row != want.row) {
    out.push_back("row differs from run_averaged reference: " + got.row +
                  " vs " + want.row);
  }
  return out;
}

}  // namespace perfbench::checks
