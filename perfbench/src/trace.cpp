#include "trace.hpp"

#include <unordered_map>

namespace perfbench {

SpanLog::SpanLog() : epoch_(SteadyClock::now()) {}

std::int64_t SpanLog::since_epoch(SteadyClock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::uint64_t SpanLog::current_parent() const {
  return open_.empty() ? 0 : spans_[open_.back()].id;
}

SpanLog::Scope SpanLog::open(const char* name, const char* layer, std::uint64_t job) {
  if (!enabled_) return Scope(nullptr, 0);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = current_parent();
  s.job = job;
  s.name = name;
  s.layer = layer;
  s.start_ns = since_epoch(SteadyClock::now());
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_ns = since_epoch(SteadyClock::now());
  // Scopes end in reverse order of opening (they are stack objects).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::size_t SpanLog::bytes() const {
  std::size_t n = spans_.capacity() * sizeof(Span) + open_.capacity() * sizeof(std::size_t);
  for (const Span& s : spans_) {
    // Heap storage only past the small-string buffer.
    if (s.name.capacity() > 15) n += s.name.capacity() + 1;
    if (s.layer.capacity() > 15) n += s.layer.capacity() + 1;
  }
  return n;
}

wavetune::util::Json SpanLog::chrome_trace() const {
  using wavetune::util::Json;
  using wavetune::util::JsonArray;
  using wavetune::util::JsonObject;
  JsonArray events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    JsonObject e;
    e["name"] = Json(s.name);
    e["cat"] = Json(s.layer);
    e["ph"] = Json("X");
    e["ts"] = Json(static_cast<double>(s.start_ns) / 1e3);
    e["dur"] = Json(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    e["pid"] = Json(1);
    e["tid"] = Json(1);
    JsonObject args;
    args["id"] = Json(static_cast<std::size_t>(s.id));
    args["parent"] = Json(static_cast<std::size_t>(s.parent));
    args["job"] = Json(static_cast<std::size_t>(s.job));
    e["args"] = Json(std::move(args));
    events.push_back(Json(std::move(e)));
  }
  JsonObject root;
  root["traceEvents"] = Json(std::move(events));
  root["displayTimeUnit"] = Json("ms");
  return Json(std::move(root));
}

bool spans_nest(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) return false;
    if (s.parent != 0) {
      const auto it = by_id.find(s.parent);
      if (it == by_id.end()) return false;
      const Span& p = *it->second;
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
    }
    by_id.emplace(s.id, &s);
  }
  return true;
}

}  // namespace perfbench
