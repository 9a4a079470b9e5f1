// service-explore: one client in a closed loop against an in-process
// SweepServer over loopback, speaking the line protocol. Each round
// starts a fresh service (empty caches) and replays the same seeded
// script of cold points (misses), re-requests (hits) and measurement-
// window refinements (warm starts).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace perfbench {
namespace {

namespace protocol = dragonfly::protocol;

constexpr int kPoints = 8;         ///< cold points per script
constexpr int kHitsPerResult = 3;  ///< re-requests of every cold and warm result

/// Blocking line client; every reply ends with DONE/ERR (RUN) or is one
/// line (STATS, PING, QUIT).
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client: socket() failed");
    timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("client: connect() failed");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// now_ns() when the last request's first reply line arrived.
  std::int64_t first_line_ns() const { return first_line_ns_; }

  std::vector<std::string> request(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("client: send() failed");
      sent += static_cast<std::size_t>(n);
    }
    std::vector<std::string> lines;
    const bool multi = line.rfind("RUN", 0) == 0;
    while (true) {
      lines.push_back(read_line());
      if (lines.size() == 1) first_line_ns_ = now_ns();
      const std::string& last = lines.back();
      if (!multi || last.rfind("DONE", 0) == 0 || last.rfind("ERR", 0) == 0) {
        return lines;
      }
    }
  }

 private:
  std::string read_line() {
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("client: connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buf_;
  std::int64_t first_line_ns_ = 0;
};

std::map<std::string, std::int64_t> parse_stats(const std::string& line) {
  std::map<std::string, std::int64_t> out;
  std::istringstream is(line);
  std::string tok;
  is >> tok;
  if (tok != "STATS") throw std::runtime_error("bad STATS reply: " + line);
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) out[tok.substr(0, eq)] = std::stoll(tok.substr(eq + 1));
  }
  return out;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum class Kind { kMiss, kWarm, kHitCold, kHitWarm };

struct Op {
  int point = 0;
  Kind kind = Kind::kMiss;
};

struct Point {
  std::string cold;  ///< request items, cold window (warmup:measure = 2:3)
  std::string warm;  ///< the same point with the measured window doubled
  std::string cold_reference;  ///< RESULT lines computed outside the service
  std::string warm_reference;
};

/// Cold points: every routing once, six on h=2 and two light ones on h=3.
/// The seed permutes them and draws each point's simulation seed (so no
/// two cold requests share a canonical hash); the set of shapes, routings,
/// traffics and loads stays the same, and so does the work of a script.
std::vector<Point> make_points(std::uint64_t seed) {
  struct Shape {
    const char* h;
    const char* routing;
    const char* traffic;
    const char* load;
  };
  static const Shape kShapes[kPoints] = {
      {"2", "min", "advc", "0.1"},        {"2", "val-rrg", "uniform", "0.2"},
      {"2", "val-crg", "advc", "0.3"},    {"2", "pb-rrg", "uniform", "0.4"},
      {"2", "pb-crg", "advc", "0.2"},     {"2", "par-rrg", "uniform", "0.3"},
      {"3", "par-crg", "advc", "0.1"},    {"3", "par-mm", "uniform", "0.1"}};
  std::uint64_t state = seed;
  std::vector<int> order(kPoints);
  for (int i = 0; i < kPoints; ++i) order[i] = i;
  for (int i = kPoints - 1; i > 0; --i) {
    std::swap(order[i], order[splitmix(state) % static_cast<std::uint64_t>(i + 1)]);
  }
  std::vector<Point> points;
  for (int i = 0; i < kPoints; ++i) {
    const Shape& shape = kShapes[order[i]];
    const std::string common =
        "label=p" + std::to_string(i) + "; h=" + shape.h +
        "; routing=" + shape.routing + "; traffic=" + shape.traffic +
        "; load=" + shape.load + "; seeds=1; seed=" +
        std::to_string(splitmix(state) % 1000000007u) +
        "; warmup_cycles=4000; measure_cycles=";
    points.push_back({common + "6000", common + "12000", "", ""});
  }
  return points;
}

/// Seeded interleaving: a point's miss precedes its refinement and its
/// re-requests, and the refinement precedes its own re-requests.
std::vector<Op> make_script(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5eed5eed5eed5eedull;
  std::vector<Op> ready;
  for (int i = 0; i < kPoints; ++i) ready.push_back({i, Kind::kMiss});
  std::vector<Op> script;
  while (!ready.empty()) {
    const std::size_t pick = splitmix(state) % ready.size();
    const Op op = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    script.push_back(op);
    if (op.kind == Kind::kMiss) {
      ready.push_back({op.point, Kind::kWarm});
      for (int h = 0; h < kHitsPerResult; ++h) {
        ready.push_back({op.point, Kind::kHitCold});
      }
    } else if (op.kind == Kind::kWarm) {
      for (int h = 0; h < kHitsPerResult; ++h) {
        ready.push_back({op.point, Kind::kHitWarm});
      }
    }
  }
  return script;
}

const char* expected_source(Kind kind) {
  switch (kind) {
    case Kind::kMiss: return "miss";
    case Kind::kWarm: return "warm";
    default: return "hit";
  }
}

}  // namespace

void run_service_explore(Context& ctx) {
  Report& rep = ctx.report;
  dragonfly::ServiceOptions opts;
  // The server adds an accept thread and one handler per connection.
  opts.workers = std::max(1, ctx.cpus - 2);
  rep.info["workers"] = std::to_string(opts.workers);
  rep.info["connections"] = "1";
  rep.info["shards"] = "1";

  std::vector<Point> points = make_points(ctx.opt.seed);
  const std::vector<Op> script = make_script(ctx.opt.seed);
  const auto line_of = [&](const Op& op) {
    const Point& p = points[static_cast<std::size_t>(op.point)];
    const bool warm = op.kind == Kind::kWarm || op.kind == Kind::kHitWarm;
    return "RUN " + (warm ? p.warm : p.cold);
  };

  // The service's one point of a single-load request.
  const auto point_config = [](const ExperimentSpec& spec) {
    SimConfig cfg = spec.base;
    cfg.load = spec.effective_loads().at(0);
    return cfg;
  };

  // Set-up: the client validates its script (every request through the
  // spec grammar and canonical hashing, as the service will), then starts
  // the service and its server, connects and PINGs. The QUIT and shutdown
  // after it are not set-up time.
  const auto setup = [&] {
    const std::int64_t t0 = now_ns();
    for (const Point& p : points) {
      for (const bool warm : {false, true}) {
        const ExperimentSpec spec =
            parse_spec(ctx, protocol::split_items(warm ? p.warm : p.cold));
        hash_config(ctx, spec.label + (warm ? "/warm" : ""), point_config(spec));
      }
    }
    dragonfly::SweepService service(opts);
    dragonfly::SweepServer server(service, 0);
    Client client(server.port());
    rep.check(client.request("PING") == std::vector<std::string>{"PONG"},
              "PING did not answer PONG");
    const double setup_s = seconds_since(t0);
    rep.check(client.request("QUIT") == std::vector<std::string>{"BYE"},
              "QUIT did not answer BYE");
    rep.attempted += 2;
    return setup_s;
  };
  // Request times run from sending a request to its first reply line
  // (the RESULT of a RUN). The server writes the DONE trailer with a
  // send() of its own on a socket without TCP_NODELAY, so the trailer
  // waits out the client's delayed ACK (~40 ms on Linux loopback); round_s
  // keeps that wait, as a user sees it, while op_p50_ms and cycles_per_s
  // leave it out so they follow the request path itself. cycles_per_s
  // divides the cycles of all rounds by their summed request time, since
  // one round's few short simulations give too noisy a rate of their own.
  std::vector<double> hit_s;
  std::vector<double> miss_s;
  std::vector<double> warm_s;
  std::vector<double> reply_s;  ///< every RUN, trailer included
  double cycles_total = 0.0;  ///< over every round, with request_total
  double request_total = 0.0;
  std::vector<std::vector<std::vector<std::string>>> replies;
  std::map<std::string, std::int64_t> first_stats;
  const Rounds rounds = run_rounds(ctx, setup, [&](int round) {
    dragonfly::SweepService service(opts);
    dragonfly::SweepServer server(service, 0);
    Client client(server.port());
    const std::int64_t t1 = now_ns();

    std::vector<std::vector<std::string>> round_replies;
    std::int64_t cycles_before = 0;
    double request_s = 0.0;
    const auto stats_request = [&] {
      const std::int64_t r0 = now_ns();
      const auto stats = parse_stats(client.request("STATS").at(0));
      request_s += seconds_since(r0);
      ++rep.attempted;
      return stats;
    };
    for (const Op& op : script) {
      const std::string line = line_of(op);
      {
        SpanScope span(ctx.tracer, "service.protocol");
        rep.check(protocol::parse_request(line).verb == protocol::Verb::kRun,
                  "request does not parse: " + line);
      }
      const std::int64_t r0 = now_ns();
      round_replies.push_back(client.request(line));
      reply_s.push_back(seconds_since(r0));
      const double dt =
          static_cast<double>(client.first_line_ns() - r0) / 1e9;
      request_s += dt;
      ++rep.attempted;
      if (round_replies.back().back().rfind("ERR", 0) == 0) ++rep.failed;
      if (op.kind == Kind::kMiss || op.kind == Kind::kWarm) {
        (op.kind == Kind::kMiss ? miss_s : warm_s).push_back(dt);
        const auto stats = stats_request();
        const std::int64_t cycles = stats.at("cycles_simulated");
        if (round == 0) {
          rep.counts[op.kind == Kind::kMiss ? "service.cycles_per_miss"
                                            : "service.cycles_per_warm"] =
              static_cast<double>(cycles - cycles_before);
        }
        cycles_before = cycles;
      } else {
        hit_s.push_back(dt);
      }
    }
    const auto stats = stats_request();
    rep.check(client.request("QUIT") == std::vector<std::string>{"BYE"},
              "QUIT did not answer BYE");
    ++rep.attempted;
    const double script_s = seconds_since(t1);
    server.stop();
    cycles_total += static_cast<double>(stats.at("cycles_simulated"));
    request_total += request_s;
    if (round == 0) first_stats = stats;
    replies.push_back(std::move(round_replies));
    return script_s;
  });

  // References computed outside the service: the same items through
  // ExperimentSpec, the point hash, run_averaged, and the protocol's own
  // RESULT formatting.
  const int workers = std::max(1, ctx.cpus);
  for (Point& p : points) {
    for (const bool warm : {false, true}) {
      const ExperimentSpec spec =
          parse_spec(ctx, protocol::split_items(warm ? p.warm : p.cold));
      const SimConfig cfg = point_config(spec);
      dragonfly::PointReport point;
      point.label = spec.label;
      point.offered_load = cfg.load;
      point.hash = hash_config(ctx, spec.label + (warm ? "/warm" : ""), cfg) +
                   ":s" + std::to_string(spec.seeds);
      if (!rep.attempt("reference run of " + point.hash, 1, [&] {
            point.result = run_averaged_timed(ctx, cfg, spec.seeds, workers);
          })) {
        continue;  // an empty reference: replies of this point go unchecked
      }
      std::string& reference = warm ? p.warm_reference : p.cold_reference;
      {
        SpanScope span(ctx.tracer, "service.protocol");
        reference = protocol::format_result(point);
      }
      rep.check(reference == "RESULT " + point.hash + " miss " +
                                 render_row(ctx, point.label, point.result),
                "format_result differs from ResultWriter::csv_row");
      rep.check(point.hash == dragonfly::SweepService::point_hash(cfg, spec.seeds),
                "point hash differs from SweepService::point_hash");
    }
  }

  std::string digest_text;
  for (std::size_t r = 0; r < replies.size(); ++r) {
    std::vector<std::string> miss_rows(points.size());
    std::vector<std::string> warm_rows(points.size());
    for (std::size_t i = 0; i < script.size(); ++i) {
      const Op& op = script[i];
      const Point& p = points[static_cast<std::size_t>(op.point)];
      const auto& lines = replies[r][i];
      const bool warm = op.kind == Kind::kWarm || op.kind == Kind::kHitWarm;
      const std::string& reference = warm ? p.warm_reference : p.cold_reference;
      if (r == 0) digest_text += lines[0] + "\n";
      if (lines.back().rfind("ERR", 0) == 0 || reference.empty()) continue;
      const std::string where = "round " + std::to_string(r) + " request " +
                                std::to_string(i) + ": ";
      int done_points = 0;
      if (!rep.check(lines.size() == 2 &&
                         checks::parse_done(lines[1], done_points) &&
                         done_points == 1,
                     where + "reply is not one RESULT line and a DONE trailer")) {
        continue;
      }
      for (const std::string& f : checks::service_reply(
               lines[0], {expected_source(op.kind), reference})) {
        rep.check(false, where + f);
      }
      checks::Reply reply;
      checks::parse_result(lines[0], reply);
      std::string& first = (warm ? warm_rows : miss_rows)[static_cast<std::size_t>(op.point)];
      if (op.kind == Kind::kMiss || op.kind == Kind::kWarm) {
        first = reply.hash + " " + reply.row;
      } else if (!first.empty()) {
        rep.check(reply.hash + " " + reply.row == first,
                  where + "hit is not byte-identical to its first reply");
      }
    }
  }
  rep.info["results_digest"] = json_string(fnv64(digest_text));
  rep.counts["service.hits"] = static_cast<double>(first_stats["result_hits"]);
  rep.counts["service.warm_starts"] =
      static_cast<double>(first_stats["warm_starts"]);
  rep.counts["service.cold_runs"] = static_cast<double>(first_stats["cold_runs"]);
  rep.counts["topology.cache_hits"] =
      static_cast<double>(first_stats["topology_hits"]);
  rep.counts["service.requests_per_round"] =
      static_cast<double>(first_stats["requests"]);

  rep.detail["hit_p50_us"] = median(hit_s) * 1e6;
  rep.detail["hit_p99_us"] = quantile(hit_s, 0.99) * 1e6;
  rep.detail["hit_samples"] = static_cast<double>(hit_s.size());
  rep.detail["miss_p50_ms"] = median(miss_s) * 1e3;
  rep.detail["warm_p50_ms"] = median(warm_s) * 1e3;
  rep.detail["reply_p50_ms"] = median(reply_s) * 1e3;

  if (ctx.opt.trace) {
    // Base config for probes: the first cold point's shape.
    probe_missing_layers(
        ctx, point_config(parse_spec(ctx, protocol::split_items(points.front().cold))));
  }
  emit_end_to_end(ctx, rounds, cycles_total / request_total, hit_s);
  if (ctx.opt.trace) emit_per_layer(ctx, rounds);
}

}  // namespace perfbench
