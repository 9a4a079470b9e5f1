// Self-tests of the benchmark's output checks: every check passes a
// consistent result and rejects a deliberately wrong one.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

using namespace perfbench::checks;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void expect_pass(const std::vector<std::string>& v, const std::string& what) {
  expect(v.empty(), what + " (got: " + (v.empty() ? "" : v.front()) + ")");
}

void expect_reject(const std::vector<std::string>& v, const std::string& what) {
  expect(!v.empty(), what + " was not rejected");
}

// --- paper-advc ---------------------------------------------------------------

const Shape kH3{3, 6, 3};  // p, a, h: MIN's ADVc cap is 1/6

std::vector<AdvcPoint> good_sweep() {
  // routing, offered, priority, accepted, global hops, cov, min injections
  return {
      {"min", 0.1, true, 0.1, 1.0, 0.08, 800},
      {"min", 0.3, true, 0.143, 1.0, 0.52, 300},
      {"val-rrg", 0.1, true, 0.1, 1.89, 0.08, 800},
      {"val-rrg", 0.3, true, 0.3, 1.89, 0.056, 2300},
      {"val-rrg", 0.8, true, 0.29, 1.89, 0.7, 900},
      {"par-mm", 0.1, true, 0.1, 1.006, 0.08, 800},
      {"par-mm", 0.3, true, 0.273, 1.44, 0.246, 900},
      {"par-mm", 0.3, false, 0.28, 1.45, 0.05, 2100},
  };
}

void advc_case(const std::string& what,
               const std::function<void(std::vector<AdvcPoint>&)>& mutate) {
  std::vector<AdvcPoint> points = good_sweep();
  mutate(points);
  expect_reject(advc_sweep(points, kH3, 0.3), what);
}

void test_advc_sweep() {
  expect_pass(advc_sweep(good_sweep(), kH3, 0.3), "consistent ADVc sweep");
  advc_case("accepted above offered",
            [](auto& p) { p[5].accepted = 0.2; });
  advc_case("MIN above the ADVc cap", [](auto& p) { p[1].accepted = 0.19; });
  advc_case("Valiant at 0.5", [](auto& p) { p[4].accepted = 0.5; });
  advc_case("below-cap point not accepting its load",
            [](auto& p) { p[2].accepted = 0.09; });
  advc_case("MIN global hops != 1", [](auto& p) { p[0].global_hops = 1.01; });
  advc_case("global hops above 2", [](auto& p) { p[6].global_hops = 2.1; });
  advc_case("global hops below 1", [](auto& p) { p[3].global_hops = 0.9; });
  advc_case("Table II: in-transit CoV not above 2x oblivious",
            [](auto& p) { p[6].cov = 0.1; });
  advc_case("Table II: points missing", [](auto& p) {
    p.erase(p.begin() + 6);
  });
  advc_case("Table III: priority removal lowers min injection",
            [](auto& p) { p[7].min_injections = 800; });
  advc_case("Table III: points missing", [](auto& p) { p.pop_back(); });
}

// --- bounds, conservation, equality ---------------------------------------------

void test_point_bounds() {
  expect_pass(point_bounds(0.4, 0.36, 1.8), "bounded point");
  expect_pass(point_bounds(0.1, 0.1004, 1.0), "accepted within slack");
  expect_reject(point_bounds(0.4, 0.5, 1.8), "accepted above offered");
  expect_reject(point_bounds(0.4, 0.36, 0.0), "global hops 0");
  expect_reject(point_bounds(0.4, 0.36, 2.5), "global hops 2.5");
}

void test_conservation() {
  expect_pass(conservation(100, 90, 10), "conserved packets");
  expect_reject(conservation(100, 90, 9), "a lost packet");
  expect_reject(conservation(100, 91, 10), "a duplicated packet");
}

dragonfly::SimResult sample_result() {
  dragonfly::SimResult r;
  r.offered_load = 0.5;
  r.accepted_load = 0.2;
  r.delivered_packets = 1000;
  r.generated_packets = 1100;
  r.injections_per_router = {1, 2, 3};
  r.jain_jobs = 0.8;
  for (int i = 0; i < 3; ++i) {
    dragonfly::JobResult job;
    job.id = i;
    job.start = 1200 + 500 * i;
    job.end = i == 2 ? -1 : 2500 + 500 * i;
    job.delivered_packets = 200;
    r.jobs.push_back(job);
  }
  return r;
}

void test_diff_results() {
  const dragonfly::SimResult a = sample_result();
  expect(diff_results(a, a).empty(), "equal results compare equal");
  dragonfly::SimResult b = a;
  b.accepted_load = 0.2000000001;
  expect(diff_results(a, b) == "accepted_load", "accepted_load difference");
  b = a;
  b.injections_per_router[1] = 5;
  expect(diff_results(a, b) == "injections_per_router",
         "injections_per_router difference");
  b = a;
  b.jobs[1].delivered_packets += 1;
  expect(diff_results(a, b) == "jobs[1]", "per-job difference");
  b = a;
  b.fairness.cov = 0.1;
  expect(diff_results(a, b) == "fairness.cov", "fairness difference");
}

// --- jobs-churn -------------------------------------------------------------------

void test_churn() {
  const dragonfly::SimResult good = sample_result();
  expect_pass(churn(good, 1000, 5000, 3), "consistent churn result");
  dragonfly::SimResult r = good;
  r.jobs[0].delivered_packets = 900;
  expect_reject(churn(r, 1000, 5000, 3), "per-job deliveries above window's");
  r = good;
  r.jain_jobs = 0.0;
  expect_reject(churn(r, 1000, 5000, 3), "jain_jobs 0");
  r.jain_jobs = 1.2;
  expect_reject(churn(r, 1000, 5000, 3), "jain_jobs above 1");
  r = good;
  for (auto& job : r.jobs) job.end = -1;
  expect_reject(churn(r, 1000, 5000, 3), "no job departing in the window");
  r = good;
  for (auto& job : r.jobs) job.start = 0;
  expect_reject(churn(r, 1000, 5000, 3), "no job arriving in the window");
  expect_reject(churn(good, 1000, 5000, 1), "a single tenant");
}

// --- service-explore -------------------------------------------------------------

void test_service() {
  const std::string ref = "RESULT abc:s1 miss p0,0.1,0.1,123";
  Reply reply;
  expect(parse_result(ref, reply) && reply.hash == "abc:s1" &&
             reply.source == "miss" && reply.row == "p0,0.1,0.1,123",
         "RESULT line parses");
  expect(!parse_result("RESULT abc:s1 miss", reply), "RESULT without a row");
  expect(!parse_result("ERR bad key", reply), "ERR is not a RESULT");
  expect(!parse_result("RESULT abc:s1 cold p0,1", reply), "unknown source tag");
  int points = 0;
  expect(parse_done("DONE 1 hits=0 warm=1", points) && points == 1,
         "DONE trailer parses");
  expect(!parse_done("DONE x", points), "malformed DONE");

  expect_pass(service_reply(ref, {"miss", ref}), "miss equal to reference");
  expect_pass(service_reply("RESULT abc:s1 hit p0,0.1,0.1,123", {"hit", ref}),
              "hit equal to reference");
  expect_reject(service_reply("RESULT abc:s1 miss p0,0.1,0.1,123", {"hit", ref}),
                "a miss where a hit was due");
  expect_reject(service_reply("RESULT abd:s1 hit p0,0.1,0.1,123", {"hit", ref}),
                "a reply with another hash");
  expect_reject(service_reply("RESULT abc:s1 warm p0,0.1,0.1,124", {"warm", ref}),
                "a row that differs from run_averaged");
  expect_reject(service_reply("garbage", {"miss", ref}), "an unparsable reply");
}

}  // namespace

int main() {
  test_advc_sweep();
  test_point_bounds();
  test_conservation();
  test_diff_results();
  test_churn();
  test_service();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check self-test(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all check self-tests passed\n");
  return 0;
}
