// Output checks of the four workloads. Each check is computed apart from
// the simulator (analytic bounds, conservation, comparison with an
// independent computation of the same result) or is a property the
// method must have; none compares with a stored copy of earlier output.
// Every function returns the list of violations (empty = pass), so the
// self-tests can feed it a deliberately wrong result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/session.hpp"

namespace perfbench::checks {

/// Relative slack on "accepted <= offered" and "accepts its offered
/// load": Bernoulli generation over a finite window fluctuates by well
/// under 1% on the windows used here, so 5% is a > 5-sigma allowance.
inline constexpr double kLoadSlack = 0.05;

struct Shape {
  int p = 0;
  int a = 0;
  int h = 0;
};

/// One point of the Fig. 2c / Table II / Table III ADVc sweep.
struct AdvcPoint {
  std::string routing;  ///< registry name: min, val-*, pb-*, par-*
  double offered = 0.0;
  bool transit_priority = true;
  double accepted = 0.0;
  double global_hops = 0.0;
  double cov = 0.0;
  double min_injections = 0.0;
};

/// Fig. 2c, Table II and Table III properties over the sweep at
/// `fairness_load` (the Table II/III operating point).
std::vector<std::string> advc_sweep(const std::vector<AdvcPoint>& points,
                                    const Shape& shape, double fairness_load);

/// Accepted <= offered (within kLoadSlack) and global hops in [1, 2].
std::vector<std::string> point_bounds(double offered, double accepted,
                                      double global_hops);

/// generated == delivered + live.
std::vector<std::string> conservation(std::int64_t generated,
                                      std::int64_t delivered,
                                      std::int64_t live);

/// Field-for-field equality of two results ("" when equal, else the
/// first field that differs).
std::string diff_results(const dragonfly::SimResult& a,
                         const dragonfly::SimResult& b);

/// Job-churn properties of one result whose measurement window is
/// [window_begin, window_end): per-job deliveries sum to no more than
/// the window's, jain_jobs in (0, 1], at least one job arrives, runs and
/// departs inside the window, and at least two tenants were live at once.
std::vector<std::string> churn(const dragonfly::SimResult& result,
                               dragonfly::Cycle window_begin,
                               dragonfly::Cycle window_end,
                               int max_live_jobs);

/// A "RESULT <hash> <source> <csv row>" reply line.
struct Reply {
  std::string hash;
  std::string source;
  std::string row;
};
/// Parse a RESULT line; false when it does not have that form.
bool parse_result(const std::string& line, Reply& out);
/// Parse a "DONE <points> hits=<n> warm=<n>" trailer.
bool parse_done(const std::string& line, int& points);

/// One service request as sent, with what it must produce.
struct ExpectedReply {
  std::string source;     ///< miss, warm or hit
  std::string reference;  ///< the RESULT line computed outside the service
};
/// Compare one reply with what the request must produce: the source tag
/// and, apart from the tag, the bytes of the reference line.
std::vector<std::string> service_reply(const std::string& line,
                                       const ExpectedReply& expected);

}  // namespace perfbench::checks
