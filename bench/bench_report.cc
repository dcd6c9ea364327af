#include "bench/bench_report.h"

#include <cstdlib>

#include "src/base/file.h"

namespace emeralds {
namespace {

void AppendStats(std::string* out, const char* indent, const CsdSearchStats& stats) {
  *out += "{\n";
  auto field = [&](const char* name, int64_t v, bool last) {
    *out += indent;
    *out += "  \"";
    *out += name;
    *out += "\": ";
    JsonAppendInt(out, v);
    *out += last ? "\n" : ",\n";
  };
  field("full_evals", stats.full_evals, false);
  field("cache_hits", stats.cache_hits, false);
  field("pruned", stats.pruned, false);
  field("considered", stats.considered, false);
  field("bound_evals", stats.bound_evals, true);
  *out += indent;
  *out += "}";
}

}  // namespace

bool WriteBenchReport(const BenchReport& report, const std::string& path) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"emeralds.bench.breakdown/1\",\n";
  out += "  \"figure\": ";
  JsonAppendEscaped(&out, report.figure);
  out += ",\n  \"divide\": ";
  JsonAppendInt(&out, report.divide);
  out += ",\n  \"workloads_per_point\": ";
  JsonAppendInt(&out, report.workloads_per_point);
  out += ",\n  \"points\": [";
  for (size_t i = 0; i < report.points.size(); ++i) {
    const BenchPoint& p = report.points[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n      \"n\": ";
    JsonAppendInt(&out, p.n);
    out += ",\n      \"wall_seconds\": ";
    JsonAppendNumber(&out, p.wall_seconds);
    out += ",\n      \"workloads_per_sec\": ";
    JsonAppendNumber(&out, p.workloads_per_sec);
    out += ",\n      \"avg_breakdown_pct\": {";
    for (size_t k = 0; k < p.avg_breakdown_pct.size(); ++k) {
      out += k == 0 ? "" : ", ";
      JsonAppendEscaped(&out, p.avg_breakdown_pct[k].first);
      out += ": ";
      JsonAppendNumber(&out, p.avg_breakdown_pct[k].second);
    }
    out += "},\n      \"evals\": ";
    AppendStats(&out, "      ", p.evals);
    out += ",\n      \"reference_sample\": ";
    JsonAppendInt(&out, p.reference_sample);
    out += ",\n      \"reference_evals\": ";
    AppendStats(&out, "      ", p.reference_evals);
    out += ",\n      \"reference_wall_seconds\": ";
    JsonAppendNumber(&out, p.reference_wall_seconds);
    out += ",\n      \"eval_reduction\": ";
    JsonAppendNumber(&out, p.eval_reduction);
    out += ",\n      \"reference_mismatches\": ";
    JsonAppendInt(&out, p.reference_mismatches);
    out += "\n    }";
  }
  out += "\n  ]\n}\n";
  return WriteTextFile(path, out);
}

std::string BenchJsonPath(const char* fallback) {
  const char* env = std::getenv("EMERALDS_BENCH_JSON");
  return env != nullptr && env[0] != '\0' ? env : fallback;
}

}  // namespace emeralds
