#include "perfbench/src/spans.h"

#include <cstdio>
#include <cstring>
#include <map>

#include "perfbench/src/common.h"

namespace perfbench {

SpanLog::SpanLog() : origin_(NowSeconds()) { spans_.reserve(1 << 16); }

int SpanLog::Begin(const char* name, int64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = NowSeconds() - origin_;
  spans_.push_back(span);
  int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = NowSeconds() - origin_;
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].children += span.duration();
  }
}

std::vector<double> SpanLog::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(s.duration());
    }
  }
  return out;
}

double SpanLog::Total(const char* name) const {
  double sum = 0.0;
  for (double d : Durations(name)) {
    sum += d;
  }
  return sum;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name,start_s,end_s,parent,op\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%.9f,%.9f,%d,%lld\n", s.name, s.start, s.end, s.parent,
                 static_cast<long long>(s.op));
  }
  return std::fclose(f) == 0;
}

void SpanLog::PrintSummary() const {
  struct Row {
    int count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.name];
    ++r.count;
    r.total += s.duration();
    r.self += s.self();
  }
  std::printf("# spans: %zu\n# %-34s %8s %12s %12s\n", spans_.size(), "name", "count",
              "total_s", "self_s");
  for (const auto& [name, r] : rows) {
    std::printf("# %-34s %8d %12.6f %12.6f\n", name.c_str(), r.count, r.total, r.self);
  }
}

}  // namespace perfbench
