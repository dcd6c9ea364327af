// Fleet-scale simulation: many independent kernel instances on one host.
//
// RunFleet() instantiates `instances` fully independent simulated nodes —
// each its own Hardware + Kernel + seeded workload, arena-backed so a node's
// top-level state lives in one contiguous block (cache-isolated from its
// neighbors, torn down with a single Reset) — and drives them across a
// work-stealing host thread pool. Each node is one pool task that builds
// the node, advances it to its horizon in virtual-time slices of `slice`
// (draining the streaming collector at every boundary), and evaluates it;
// idle workers steal whole nodes, so the pool stays balanced without any
// static partitioning.
//
// Determinism contract: a node's simulation depends only on (fleet seed,
// node index, timer_queue impl). Host scheduling — worker count, steal
// order, slice interleaving — must not influence any simulated outcome, so
// the whole FleetResult (per-node digests included) is bit-identical across
// runs, worker counts, and machines. Tests enforce this.
//
// Per-node oracles: the shared suite of obs::RunNodeOracles
// (src/obs/trace_replay.h), then the fleet's own progress oracle — the node
// completed jobs, dispatched timers, and consumed mailbox traffic, so a
// silently wedged node is a failure, not a fast run.
//
// Counters: every node collects one obs::NodeTelemetry block after its
// horizon (a pure read, so it cannot move a digest), and RunFleet merges the
// blocks into FleetResult::telemetry. Those two blocks are the only copies
// of the job, miss, chain, headroom and trace-drop counters; the report,
// triage, the OpenMetrics exposition and fleet_inspect all read them.

#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/core/timer.h"
#include "src/obs/alerts.h"
#include "src/obs/postmortem.h"
#include "src/obs/telemetry.h"
#include "src/obs/timeseries.h"

namespace emeralds {

class Kernel;

namespace fleet {

struct FleetOptions {
  int instances = 16;
  // Host pool width; <= 0 uses std::thread::hardware_concurrency().
  int workers = 0;
  uint64_t seed = 1;
  // Virtual time each node simulates, and the slice between collector drains.
  Duration run_duration = Milliseconds(100);
  Duration slice = Milliseconds(5);
  // Timer fast-path under test; the whole point of the fleet bench.
  TimerQueueImpl timer_queue = TimerQueueImpl::kWheel;
  // Per-node trace ring; 0 sizes it to retain the whole run (see
  // NodeTraceCapacity). Slots are committed as they are written, so unused
  // capacity costs address space, not resident memory. Large fleets pass a
  // small fixed ring to bound the memory a node actually touches — the
  // oracles are truncation-aware, so a wrapped ring degrades checking,
  // never correctness.
  size_t trace_capacity = 0;
  // Black-box flight recorder: when non-empty, the worst `max_blackboxes`
  // anomalous nodes (by anomaly_score, worst first) are re-run serially
  // after the fleet drains — a node is a pure function of (seed, index), so
  // the re-run is bit-identical — and their forensic bundles are written
  // under <artifacts_dir>/node-<index>/.
  std::string artifacts_dir;
  int max_blackboxes = 8;
  // Overload injection for triage tests and demos: multiplies the producer
  // and consumer compute costs of one node (after its topology draws, so
  // every other node is untouched). -1 = none.
  int overload_node = -1;
  int overload_factor = 8;
  // Streaming telemetry plane: per-node TelemetryWindow series folded from
  // the snapshot ring at every slice boundary (so the series exists while
  // the fleet runs), plus the per-window alert engine over it. Host-side
  // reads only — digests are bit-identical with streaming on or off
  // (tested), and the alert event stream itself is worker-count-invariant.
  bool timeseries = true;
  obs::TimeseriesOptions timeseries_options;
  obs::AlertConfig alert_config;
};

// One simulated node's outcome. Everything here is deterministic in
// (fleet seed, node index, timer_queue).
struct NodeResult {
  uint64_t seed = 0;
  std::string scheduler;  // "EDF", "RM", "CSD-2", "CSD-3"
  // context_switches + syscalls + interrupts + timer_dispatches: the unit
  // the fleet benchmark rates in events/sec.
  uint64_t events = 0;
  uint64_t timer_dispatches = 0;
  uint64_t trace_digest = 0;  // DigestTrace over the retained window + counters
  Duration virtual_time;
  size_t arena_high_water = 0;
  // First failing oracle in human-readable form; empty when all pass.
  std::string failure;
  // Deadline-miss postmortem: this node's blame ledger totals (mergeable,
  // keyed by thread/semaphore ids) plus the misses still open at the horizon.
  obs::BlameTotals blame;
  uint64_t postmortem_incomplete = 0;
  // Anomaly triage: why the node is suspect (empty = healthy) and a
  // deterministic badness score — oracle failures dominate, then deadline
  // misses, chain SLO overruns, and headroom-low events.
  std::string anomaly;
  uint64_t anomaly_score = 0;
  // The node's counters (jobs, misses, chain overruns, headroom, trace
  // drops) and latency histograms: the only per-node copy of each.
  obs::NodeTelemetry telemetry;
  // Streaming telemetry (collected iff FleetOptions::timeseries): the
  // retained window series plus explicit-degradation counters, and the
  // node-local alert events.
  std::vector<obs::TelemetryWindow> windows;
  uint64_t timeseries_lost_samples = 0;
  uint64_t timeseries_windows_dropped = 0;
  std::vector<obs::AlertEvent> alerts;

  bool ok() const { return failure.empty(); }
  bool anomalous() const { return !anomaly.empty(); }
};

struct FleetResult {
  int instances = 0;
  int workers = 0;  // resolved pool width actually used
  uint64_t seed = 0;
  TimerQueueImpl timer_queue = TimerQueueImpl::kWheel;

  // Aggregates over all nodes (deterministic).
  uint64_t events_total = 0;
  uint64_t timer_dispatches = 0;
  int nodes_failed = 0;
  Duration virtual_time_total;  // sum of per-node simulated time
  // events_total / virtual seconds: the gated, machine-independent rate.
  double events_per_virtual_sec = 0.0;
  // FNV-1a over the per-node digests in index order: one number that equals
  // iff every node's run was bit-identical.
  uint64_t fleet_digest = 0;
  size_t arena_high_water = 0;  // max across nodes

  // Fleet telemetry plane: every node's block merged in index order. The
  // only fleet-wide copy of the job, miss, chain, headroom and trace-drop
  // totals (and of the worst trace-drop node).
  obs::FleetTelemetry telemetry;
  int nodes_anomalous = 0;
  // Fleet-merged blame tables (associative integer merge in node-index
  // order) and their digest — bit-identical across worker counts, gated by
  // the determinism tests alongside fleet_digest.
  obs::BlameTotals blame;
  uint64_t blame_digest = 0;
  uint64_t postmortem_incomplete_total = 0;
  // Streaming plane, fleet-merged: same-index windows from every node merged
  // via the lossless histogram Merge (order-invariant), and the full alert
  // stream (node-local rules + the cross-node outlier rule) in canonical
  // (window, rule, node) order with exact virtual timestamps.
  std::vector<obs::TelemetryWindow> windows;
  std::vector<obs::AlertEvent> alerts;
  uint64_t timeseries_lost_samples = 0;
  uint64_t timeseries_windows_dropped = 0;
  uint64_t alerts_fired = 0;  // firing events in `alerts`
  // Echo of the streaming config the run used (the report embeds it).
  obs::TimeseriesOptions timeseries_options;
  obs::AlertConfig alert_config;
  // Nodes whose black-box bundles were written (worst first), and where.
  std::vector<int> blackbox_nodes;
  std::string artifacts_dir;

  // Host-side throughput (informational; never gated — wall time is noise).
  double wall_seconds = 0.0;
  double events_per_wall_sec = 0.0;

  std::vector<NodeResult> nodes;  // index order

  bool ok() const { return nodes_failed == 0; }
};

// Runs the fleet to completion. Blocks until every node has finished and
// been evaluated; must not be called from a fleet/ThreadPool worker.
FleetResult RunFleet(const FleetOptions& options);

// Deterministically re-runs node `index` of the fleet described by
// `options` and visits the live kernel (with the filled NodeResult) before
// the node's arena is torn down. This is the drill-down primitive behind
/// fleet_inspect --node and the black-box recorder: because a node is a
// pure function of (fleet seed, node index, timer_queue), the revisited
// state is bit-identical to what the fleet run saw.
NodeResult InspectNode(const FleetOptions& options, int index,
                       const std::function<void(const Kernel&, const NodeResult&)>& visit);

// Trace ring slots each node of `options` gets: `trace_capacity` when set,
// otherwise 4096 + 1536 per virtual ms of `run_duration`, enough to retain
// the whole run.
size_t NodeTraceCapacity(const FleetOptions& options);

// One-line command that re-opens this node with the fleet_inspect CLI.
std::string NodeReproCommand(const FleetOptions& options, int index);

const char* TimerQueueImplName(TimerQueueImpl impl);

}  // namespace fleet
}  // namespace emeralds

#endif  // SRC_FLEET_FLEET_H_
