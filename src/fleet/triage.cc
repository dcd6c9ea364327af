#include "src/fleet/triage.h"

#include <algorithm>

#include "src/obs/alerts.h"
#include "src/obs/json_writer.h"

namespace emeralds {
namespace fleet {
namespace {

TriageMetric BuildMetric(const char* name, const std::vector<uint64_t>& values, int top_k) {
  TriageMetric m;
  m.name = name;

  // Robust statistics shared with the alert engine's fleet outlier rule
  // (src/obs/alerts.h) — the online and post-mortem outlier definitions are
  // the same code. When the median is zero the quarter-median guard is
  // vacuous, so any nonzero value on a clean metric is flagged — exactly the
  // injected-outlier case.
  m.median = obs::RobustMedian(values);
  m.mad = obs::RobustMad(values, m.median);

  std::vector<int> order;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] > 0) {
      order.push_back(static_cast<int>(i));
    }
  }
  std::sort(order.begin(), order.end(), [&values](int a, int b) {
    uint64_t va = values[static_cast<size_t>(a)];
    uint64_t vb = values[static_cast<size_t>(b)];
    if (va != vb) {
      return va > vb;
    }
    return a < b;
  });

  for (int node : order) {
    uint64_t v = values[static_cast<size_t>(node)];
    bool outlier = obs::IsRobustOutlier(v, m.median, m.mad);
    if (outlier) {
      ++m.outliers;
    }
    if (static_cast<int>(m.top.size()) < top_k) {
      m.top.push_back(TriageEntry{node, v, outlier});
    }
  }
  return m;
}

}  // namespace

FleetTriage ComputeFleetTriage(const FleetResult& fleet, int top_k) {
  FleetTriage triage;
  size_t n = fleet.nodes.size();
  if (n == 0 || top_k <= 0) {
    return triage;
  }

  struct MetricSource {
    const char* name;
    uint64_t (*get)(const NodeResult&);
  };
  static const MetricSource kSources[] = {
      {"anomaly_score", [](const NodeResult& r) { return r.anomaly_score; }},
      {"deadline_misses", [](const NodeResult& r) { return r.telemetry.deadline_misses; }},
      {"chain_overruns", [](const NodeResult& r) { return r.telemetry.chain_overruns; }},
      {"headroom_low_events",
       [](const NodeResult& r) { return r.telemetry.headroom_low_events; }},
      {"trace_dropped", [](const NodeResult& r) { return r.telemetry.trace_dropped; }},
      {"blamed_tardiness_us",
       [](const NodeResult& r) {
         return static_cast<uint64_t>(r.blame.tardiness_ns / 1000);
       }},
      {"response_p99_us",
       [](const NodeResult& r) {
         return static_cast<uint64_t>(r.telemetry.response.PercentileBound(0.99).micros());
       }},
  };

  std::vector<uint64_t> values(n);
  for (const MetricSource& src : kSources) {
    for (size_t i = 0; i < n; ++i) {
      values[i] = src.get(fleet.nodes[i]);
    }
    triage.metrics.push_back(BuildMetric(src.name, values, top_k));
  }

  // Union of flagged nodes, worst anomaly_score first. Re-run the flagging
  // per metric so membership matches the per-metric `outlier` bits exactly.
  std::vector<bool> flagged(n, false);
  for (const TriageMetric& m : triage.metrics) {
    uint64_t threshold = std::max(5 * m.mad, m.median / 4);
    const MetricSource* src = nullptr;
    for (const MetricSource& s : kSources) {
      if (m.name == s.name) {
        src = &s;
        break;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = src->get(fleet.nodes[i]);
      if (v > m.median && (v - m.median) > threshold) {
        flagged[i] = true;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (flagged[i]) {
      triage.outlier_nodes.push_back(static_cast<int>(i));
    }
  }
  std::sort(triage.outlier_nodes.begin(), triage.outlier_nodes.end(),
            [&fleet](int a, int b) {
              uint64_t sa = fleet.nodes[static_cast<size_t>(a)].anomaly_score;
              uint64_t sb = fleet.nodes[static_cast<size_t>(b)].anomaly_score;
              if (sa != sb) {
                return sa > sb;
              }
              return a < b;
            });

  // Top blamed preemptor / lock from the merged postmortem tables (maps are
  // id-ordered, so `>` picks the lowest id on a tie deterministically).
  for (const auto& [tid, ns] : fleet.blame.preemptor_ns) {
    if (ns > triage.top_preemptor_ns) {
      triage.top_preemptor_ns = ns;
      triage.top_preemptor = tid;
    }
  }
  for (const auto& [sem, ns] : fleet.blame.lock_ns) {
    if (ns > triage.top_lock_ns) {
      triage.top_lock_ns = ns;
      triage.top_lock = sem;
    }
  }
  return triage;
}

void AppendFleetTriageSection(obs::Json& j, const FleetTriage& triage) {
  j.OpenObject();
  j.Key("metrics");
  j.OpenArray();
  for (const TriageMetric& m : triage.metrics) {
    j.OpenObject();
    j.String("name", m.name);
    j.Int("median", static_cast<int64_t>(m.median));
    j.Int("mad", static_cast<int64_t>(m.mad));
    j.Int("outliers", m.outliers);
    j.Key("top");
    j.OpenArray();
    for (const TriageEntry& e : m.top) {
      j.OpenObject();
      j.Int("node", e.node);
      j.Int("value", static_cast<int64_t>(e.value));
      j.Bool("outlier", e.outlier);
      j.CloseObject();
    }
    j.CloseArray();
    j.CloseObject();
  }
  j.CloseArray();
  j.Key("outlier_nodes");
  j.OpenArray();
  for (int node : triage.outlier_nodes) {
    j.IntElem(node);
  }
  j.CloseArray();
  j.Key("top_blame");
  j.OpenObject();
  j.Int("preemptor", triage.top_preemptor);
  j.Int("preemptor_ns", triage.top_preemptor_ns);
  j.Int("lock", triage.top_lock);
  j.Int("lock_ns", triage.top_lock_ns);
  j.CloseObject();
  j.CloseObject();
}

}  // namespace fleet
}  // namespace emeralds
