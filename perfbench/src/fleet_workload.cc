// fleet_long and fleet_wrap: fleet::RunFleet plus fleet::BuildFleetRunReport,
// and in the traced run a serial fleet::InspectNode replay of every node with
// the node's trace analyzers re-run (and timed) on the live kernel.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/hal/hardware.h"
#include "src/hal/trace.h"
#include "src/obs/chains.h"
#include "src/obs/postmortem.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_analyzer.h"

namespace perfbench {
namespace {

using emeralds::Hardware;
using emeralds::Kernel;
using emeralds::KernelConfig;
using emeralds::Milliseconds;
namespace fleet = emeralds::fleet;
namespace obs = emeralds::obs;

// The ring a node gets when FleetOptions::trace_capacity is 0. This copies
// the sizing rule in src/fleet/fleet.cc (4096 slots plus 1536 per virtual
// millisecond), which the library does not expose, so core.kernel_build_ms
// constructs the ring a default node really pays for. The traced run checks
// that every replayed node allocates a ring of exactly this size, so a change
// of the rule fails the run instead of going unnoticed.
size_t NodeRingCapacity(const fleet::FleetOptions& opt) {
  return opt.trace_capacity != 0
             ? opt.trace_capacity
             : static_cast<size_t>(4096 + opt.run_duration.millis() * 1536);
}

class FleetWorkload : public Workload {
 public:
  FleetWorkload(int instances, int64_t run_ms, size_t trace_capacity, int workers) {
    opt_.instances = instances;
    opt_.workers = workers;
    opt_.run_duration = Milliseconds(run_ms);
    opt_.trace_capacity = trace_capacity;
  }

  void Setup(uint64_t seed) override {
    opt_.seed = seed;
    info_.label = "perfbench";
    info_.run_duration = opt_.run_duration;
    info_.slice = opt_.slice;
    info_.trace_capacity = opt_.trace_capacity;
  }

  void Measure(const RunArgs& args, Outcome* out) override {
    std::vector<double> walls = TimedReps(args, 3, [&](int) { RunOnce(nullptr, out); });
    double node_vsec = opt_.instances * static_cast<double>(opt_.run_duration.nanos()) / 1e9;
    PrintDigests();
    PrintReps(walls);
    out->Set("work_per_s", node_vsec / Median(walls), "1/s");
    out->Set("vcpu_overhead_pct", VirtualOverheadPct(reference_.telemetry.cycles), "%");
  }

  void MeasureLayers(const RunArgs& args, bool focus, SpanLog* log, Outcome* out) override {
    if (focus) {
      std::vector<double> walls = TimedReps(
          args, 4, [&](int rep) { RunOnce(rep % 2 == 1 ? log : nullptr, out); });
      out->Set("bench.tracing_overhead_pct", TracingOverheadPct(walls), "%");
    } else {
      RunOnce(log, out);
    }
    PrintDigests();
    double run_fleet_s = Median(log->Durations("fleet.RunFleet"));
    out->Set("fleet.run_fleet_s", run_fleet_s, "s");
    out->Set("fleet.report_build_ms", 1e3 * Median(log->Durations("fleet.BuildFleetRunReport")),
             "ms");

    // Serial replay of every node, with the analyzers EvaluateNode runs
    // re-run on the live kernel inside the visit callback.
    double trace_s = 0.0;
    double chains_s = 0.0;
    double postmortem_s = 0.0;
    double telemetry_s = 0.0;
    double faults = 0.0;
    double retained = 0.0;
    double recorded = 0.0;
    double events = 0.0;
    std::vector<double> replay;
    double replay_total = 0.0;
    size_t ring_bytes = NodeRingCapacity(opt_) * sizeof(emeralds::TraceEvent);
    for (int i = 0; i < opt_.instances; ++i) {
      fleet::NodeResult r;
      bool ring_allocated = false;
      LargeAllocations allocations;
      long faults_before = MinorFaults();
      double self = Timed(log, "fleet.InspectNode", i, [&] {
        r = fleet::InspectNode(opt_, i, [&](const Kernel& kernel, const fleet::NodeResult&) {
          // Faults and allocations of the node's build and run only.
          faults += static_cast<double>(MinorFaults() - faults_before);
          allocations.Stop();
          ring_allocated = allocations.Contains(ring_bytes);
          ScopedSpan visit(log, "bench.visit", i);
          obs::TraceAnalysis analysis;
          obs::ChainAnalysis chains;
          obs::PostmortemAnalysis postmortem;
          trace_s += Timed(log, "obs.AnalyzeTrace", i, [&] {
                       analysis = obs::AnalyzeTrace(kernel.trace());
                     }).duration();
          chains_s += Timed(log, "obs.AnalyzeChains", i, [&] {
                        chains = obs::AnalyzeChains(kernel.trace(), kernel.resolved_chains());
                      }).duration();
          postmortem_s += Timed(log, "obs.AnalyzePostmortem", i, [&] {
                            postmortem = obs::AnalyzePostmortem(kernel.trace());
                          }).duration();
          telemetry_s += Timed(log, "obs.CollectNodeTelemetry", i, [&] {
                           obs::CollectNodeTelemetry(kernel, analysis, chains);
                         }).duration();
          retained += static_cast<double>(kernel.trace().size());
          recorded += static_cast<double>(kernel.trace().total_recorded());
          out->Check(analysis.violations.empty() && chains.violations.empty() &&
                         postmortem.conservation_failures == 0,
                     "re-run analyzers on node " + std::to_string(i));
        });
      }).self();
      // The node's own replay: its span minus the visit callback.
      replay.push_back(1e3 * self);
      replay_total += self;
      out->Check(ring_allocated, "InspectNode(" + std::to_string(i) + ") allocated no " +
                                     std::to_string(NodeRingCapacity(opt_)) +
                                     "-slot trace ring: NodeRingCapacity no longer matches the "
                                     "sizing rule in src/fleet/fleet.cc");
      const fleet::NodeResult& ref = reference_.nodes[static_cast<size_t>(i)];
      out->Check(r.ok() && r.trace_digest == ref.trace_digest,
                 "InspectNode(" + std::to_string(i) + ") digest " + Hex(r.trace_digest) +
                     " vs RunFleet " + Hex(ref.trace_digest));
      events += static_cast<double>(r.events);
    }
    double n = opt_.instances;
    double build_s = KernelBuildSeconds();
    double analyzers = trace_s + chains_s + postmortem_s + telemetry_s;
    out->Set("fleet.node_replay_ms_p50", Median(replay), "ms");
    out->Set("fleet.node_replay_ms_p95", Quantile(replay, 0.95), "ms");
    out->Set("fleet.parallel_efficiency", replay_total / (run_fleet_s * reference_.workers),
             "ratio");
    out->Set("core.kernel_build_ms", 1e3 * build_s, "ms");
    // Derived from outside the program: replay minus the node's kernel build
    // and the analyzers EvaluateNode runs (timed again here), per event.
    out->Set("core.simulate_ns_per_event", 1e9 * (replay_total - n * build_s - analyzers) / events,
             "ns");
    out->Set("core.minor_faults_per_node", faults / n, "count");
    out->Set("core.events_per_node", events / n, "count");
    out->Set("hal.trace_recorded_per_node", recorded / n, "count");
    out->Set("hal.trace_retained_ratio", retained / recorded, "ratio");
    out->Set("obs.analyze_trace_ns_per_record", 1e9 * trace_s / retained, "ns");
    out->Set("obs.analyze_chains_ns_per_record", 1e9 * chains_s / retained, "ns");
    out->Set("obs.postmortem_ns_per_record", 1e9 * postmortem_s / retained, "ns");
    out->Set("obs.telemetry_collect_us_per_node", 1e6 * telemetry_s / n, "us");
    out->Set("obs.evaluate_share", analyzers / replay_total, "ratio");
  }

 private:
  // One fleet run plus its report, checked against the first run: every node
  // passes its oracles and repeats its digest, and the fleet and blame
  // digests repeat.
  void RunOnce(SpanLog* log, Outcome* out) {
    fleet::FleetResult result;
    {
      ScopedSpan s(log, "fleet.RunFleet");
      result = fleet::RunFleet(opt_);
    }
    std::string report;
    {
      ScopedSpan s(log, "fleet.BuildFleetRunReport");
      report = fleet::BuildFleetRunReport(info_, result, {});
    }
    if (reference_.nodes.empty()) {
      reference_ = result;
    }
    for (size_t i = 0; i < result.nodes.size(); ++i) {
      const fleet::NodeResult& node = result.nodes[i];
      out->Check(node.ok() && node.trace_digest == reference_.nodes[i].trace_digest,
                 "fleet node " + std::to_string(i) + ": " +
                     (node.ok() ? "digest changed between repetitions" : node.failure));
    }
    out->Check(result.nodes.size() == static_cast<size_t>(opt_.instances) &&
                   result.fleet_digest == reference_.fleet_digest &&
                   result.blame_digest == reference_.blame_digest &&
                   report.find(fleet::kFleetRunSchema) != std::string::npos,
               "fleet/blame digest or report changed between repetitions");
  }

  // Median of five constructions of Hardware + Kernel with a node's ring.
  double KernelBuildSeconds() const {
    KernelConfig config;
    config.trace_capacity = NodeRingCapacity(opt_);
    std::vector<double> builds;
    for (int i = 0; i < 5; ++i) {
      double t0 = NowSeconds();
      auto hw = std::make_unique<Hardware>();
      auto kernel = std::make_unique<Kernel>(*hw, config);
      builds.push_back(NowSeconds() - t0);
      kernel.reset();
    }
    return Median(builds);
  }

  void PrintDigests() const {
    std::printf("# fleet instances=%d run_ms=%lld ring=%zu workers=%d seed=%llu\n",
                opt_.instances, static_cast<long long>(opt_.run_duration.millis()),
                NodeRingCapacity(opt_), reference_.workers,
                static_cast<unsigned long long>(opt_.seed));
    std::printf("# fleet_digest=%s blame_digest=%s events=%llu nodes_failed=%d\n",
                Hex(reference_.fleet_digest).c_str(), Hex(reference_.blame_digest).c_str(),
                static_cast<unsigned long long>(reference_.events_total),
                reference_.nodes_failed);
  }

  fleet::FleetOptions opt_;
  fleet::FleetRunInfo info_;
  fleet::FleetResult reference_;  // the warm-up run; later runs must match it
};

}  // namespace

std::unique_ptr<Workload> MakeFleetWorkload(int instances, int64_t run_ms, size_t trace_capacity,
                                            int workers) {
  return std::make_unique<FleetWorkload>(instances, run_ms, trace_capacity, workers);
}

}  // namespace perfbench
