// In-memory span log of the traced run.
//
// Spans are recorded at the benchmark's own call sites into each layer of
// the program (compile, run, submit_batch, estimate, ...), on the client thread
// only, so the log needs no lock. Each span has a name, a layer, a start
// and end on the steady clock, the span that caused it, and the job it
// belongs to. The log is written out as Chrome trace-event JSON when the
// benchmark ends. When disabled, opening a span costs one branch.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< id of the enclosing span, 0 for a root
  std::uint64_t job = 0;     ///< job the span belongs to, 0 for none
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;  ///< steady clock, relative to the log's epoch
  std::int64_t end_ns = 0;
};

class SpanLog {
public:
  SpanLog();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open span, closed when the scope ends. Nests under the innermost
  /// open span.
  class Scope {
  public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }

  private:
    friend class SpanLog;
    Scope(SpanLog* log, std::size_t index) : log_(log), index_(index) {}
    SpanLog* log_;
    std::size_t index_;
  };

  [[nodiscard]] Scope open(const char* name, const char* layer, std::uint64_t job = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Approximate heap bytes the log holds (the tracing memory overhead).
  std::size_t bytes() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), readable
  /// by chrome://tracing and Perfetto.
  wavetune::util::Json chrome_trace() const;

private:
  std::int64_t since_epoch(SteadyClock::time_point t) const;
  std::uint64_t current_parent() const;
  void close(std::size_t index);

  bool enabled_ = false;
  SteadyClock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_ of open spans
};

/// True when every span's parent exists, precedes it in the log, and its
/// interval contains the child's, and every span ends no earlier than it
/// starts.
bool spans_nest(const std::vector<Span>& spans);

}  // namespace perfbench
