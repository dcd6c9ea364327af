// Fleet triage tour — the fleet-wide telemetry plane end to end.
//
// Runs a 24-node deterministic fleet with node 7 deliberately overloaded
// (every compute cost multiplied 6x), then walks the three layers the
// telemetry plane provides:
//
//   1. Merged percentile tables: every node folds its Log2Histogram sketches
//      into the fleet histogram losslessly, so the p50/p90/p99 printed here
//      are exact bucket bounds over the union of all per-node samples — the
//      same numbers a single observer of every job would have computed.
//   2. Anomaly triage: per-metric worst-offender tables plus median/MAD
//      outlier flags. The overloaded node must surface at the top.
//   3. Black-box flight recorder: the fleet runner re-runs the worst nodes
//      deterministically and snapshots their final trace window, stats, and
//      chain analysis into fleet_triage_tour_artifacts/node-N/.
//
// Exit status is nonzero if the overloaded node is not the top outlier or
// no black-box bundle was written for it.

#include <cstdio>
#include <string>

#include "src/base/log2_histogram.h"
#include "src/fleet/fleet.h"
#include "src/fleet/triage.h"
#include "src/obs/telemetry.h"

using namespace emeralds;
using namespace emeralds::fleet;

int main() {
  constexpr int kSickNode = 7;
  FleetOptions opt;
  opt.instances = 24;
  opt.workers = 4;
  opt.seed = 2026;
  opt.run_duration = Milliseconds(40);
  opt.slice = Milliseconds(5);
  opt.overload_node = kSickNode;
  opt.overload_factor = 6;
  opt.artifacts_dir = "fleet_triage_tour_artifacts";
  opt.max_blackboxes = 3;

  FleetResult result = RunFleet(opt);
  std::printf("fleet: %d nodes, %llu events, digest 0x%016llx, %d anomalous\n",
              result.instances, static_cast<unsigned long long>(result.events_total),
              static_cast<unsigned long long>(result.fleet_digest), result.nodes_anomalous);

  // Layer 1: exact merged percentiles. Each bound is the upper edge of the
  // first log2 bucket whose cumulative count covers the fraction, clamped by
  // the exact max — a guaranteed upper bound on the true percentile.
  const obs::FleetTelemetry& t = result.telemetry;
  std::printf("\nmerged job response times (%d nodes, %llu samples):\n", t.nodes_collected,
              static_cast<unsigned long long>(t.response.count()));
  for (double fraction : {0.5, 0.9, 0.99}) {
    std::printf("  p%-4g <= %6lld us\n", fraction * 100,
                static_cast<long long>(t.response.PercentileBound(fraction).micros()));
  }
  for (const obs::ChainTelemetry& c : t.chains) {
    std::printf("  chain %-14s %5llu completed, %4llu overruns, e2e p99 <= %lld us\n",
                c.name.c_str(), static_cast<unsigned long long>(c.completed),
                static_cast<unsigned long long>(c.overruns),
                static_cast<long long>(c.e2e.PercentileBound(0.99).micros()));
  }
  if (t.headroom_seen) {
    std::printf("  worst deadline headroom: %lld us at node %d\n",
                static_cast<long long>(t.headroom_min.micros()), t.headroom_min_node);
  }

  // Layer 2: triage. One glance answers "which node do I look at first?".
  FleetTriage triage = ComputeFleetTriage(result);
  std::printf("\ntriage (median/MAD outlier flags, top offenders first):\n");
  for (const TriageMetric& m : triage.metrics) {
    if (m.top.empty()) {
      continue;
    }
    std::printf("  %-20s median %llu, mad %llu, %d outlier(s):", m.name.c_str(),
                static_cast<unsigned long long>(m.median),
                static_cast<unsigned long long>(m.mad), m.outliers);
    for (const TriageEntry& e : m.top) {
      std::printf(" node%d=%llu%s", e.node, static_cast<unsigned long long>(e.value),
                  e.outlier ? "*" : "");
    }
    std::printf("\n");
  }
  std::printf("  look-here-first:");
  for (int node : triage.outlier_nodes) {
    std::printf(" %d", node);
  }
  std::printf("\n");

  // Layer 3: the flight recorder already captured the worst nodes.
  std::printf("\nblack boxes (deterministic re-runs, worst first):\n");
  for (int node : result.blackbox_nodes) {
    std::printf("  %s/node-%d/{repro.txt,trace.csv,blackbox.json}\n",
                result.artifacts_dir.c_str(), node);
  }

  bool sick_flagged = !triage.outlier_nodes.empty() && triage.outlier_nodes[0] == kSickNode;
  bool sick_boxed = !result.blackbox_nodes.empty() && result.blackbox_nodes[0] == kSickNode;
  std::printf("\noverloaded node %d: top outlier %s, black-boxed %s\n", kSickNode,
              sick_flagged ? "yes" : "NO", sick_boxed ? "yes" : "NO");
  return sick_flagged && sick_boxed ? 0 : 1;
}
