#include "trace.hpp"

#include <chrono>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.round = round_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id, std::int64_t work, std::int64_t events) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  span.work = work;
  span.events = events;
  // Spans close in LIFO order; tolerate a caller closing an outer span
  // first by dropping everything above it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::add(const std::string& name, std::int64_t start_ns,
                 std::int64_t end_ns, std::int64_t work,
                 std::int64_t events) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.round = round_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.work = work;
  span.events = events;
  spans_.push_back(std::move(span));
}

bool Tracer::has(const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return true;
  }
  return false;
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ns());
  }
  return out;
}

double Tracer::total_ns(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.ns();
  }
  return total;
}

std::int64_t Tracer::total_work(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.work;
  }
  return total;
}

std::int64_t Tracer::total_events(const std::string& name) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.events;
  }
  return total;
}

std::map<std::string, double> Tracer::self_ms() const {
  // Children of one span do not overlap except job spans recorded from
  // parallel workers, whose union (not sum) is what the parent waited
  // on; clip the subtraction so self time never goes negative.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.ns();
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double self = spans_[i].ns() - child_ns[i];
    by_name[spans_[i].name] += (self > 0.0 ? self : 0.0) / 1e6;
  }
  return by_name;
}

std::string Tracer::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
           "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"round\":" + std::to_string(s.round) +
           ",\"work\":" + std::to_string(s.work) +
           ",\"events\":" + std::to_string(s.events) + "}";
  }
  out += "]\n";
  return out;
}

}  // namespace perfbench
