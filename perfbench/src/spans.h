// In-memory span log for the traced run. A span records its name, start and
// end, the span open around it (its parent) and an operation id (node index,
// torture seed or task-set index). Spans are kept in memory and written out
// once, when the run ends; self time is a span's duration minus the time its
// direct children cover.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions, not from inside the libraries.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;  // seconds since the log was created
    double end = 0.0;
    int parent = -1;
    int64_t op = -1;
    double children = 0.0;  // summed duration of direct children

    double duration() const { return end - start; }
    double self() const { return duration() - children; }
  };

  SpanLog();

  // Single-threaded: spans nest strictly (Begin/End in stack order).
  int Begin(const char* name, int64_t op);
  void End(int id);

  const Span& at(int id) const { return spans_[static_cast<size_t>(id)]; }
  // Durations of every span with this name, in record order, and their sum.
  std::vector<double> Durations(const char* name) const;
  double Total(const char* name) const;

  // name,start_s,end_s,parent,op — one row per span.
  bool WriteCsv(const std::string& path) const;
  // Per-name count, total and self seconds, to stdout.
  void PrintSummary() const;

 private:
  double origin_ = 0.0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log records nothing, so untraced code paths share the
// traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t op = -1)
      : log_(log), id_(log != nullptr ? log->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Runs `fn` inside a span of `log` (which must not be null) and returns the
// closed span, for its duration() or self().
template <typename Fn>
SpanLog::Span Timed(SpanLog* log, const char* name, int64_t op, Fn&& fn) {
  int id = -1;
  {
    ScopedSpan span(log, name, op);
    id = span.id();
    fn();
  }
  return log->at(id);
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
