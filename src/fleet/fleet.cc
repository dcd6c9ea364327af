#include "src/fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/base/arena.h"
#include "src/base/assert.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/core/kernel.h"
#include "src/obs/blackbox.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace fleet {
namespace {

// Same digest recipe as the torture harness (DigestTrace) over the fleet's
// own counter list. Equal digests == bit-identical runs.
uint64_t DigestNode(const Kernel& kernel, std::span<const TraceEvent> window) {
  const KernelStats& s = kernel.stats();
  uint64_t counters[] = {s.context_switches, s.syscalls,         s.jobs_released,
                         s.jobs_completed,   s.deadline_misses,  s.sem_acquires,
                         s.mailbox_sends,    s.mailbox_receives, s.interrupts,
                         s.timer_dispatches, s.chain_emits,      s.chain_consumes,
                         s.chain_origins};
  return DigestTrace(window, counters);
}

// Workload handles, arena-resident (trivially destructible: ids + bytes).
struct NodeState {
  SemId tick_sem;
  TimerId timer;
  MailboxId mbox;
  uint8_t payload[8] = {};
};

// Per-node arena capacity. Top-level node state only; kernel-internal
// containers (ready queues, trace ring, TCBs) still come from the heap — the
// arena isolates and batch-frees the objects the fleet itself places.
constexpr size_t kNodeArenaBytes = sizeof(Hardware) + sizeof(Kernel) + sizeof(NodeState) + 512;

// One simulated node: its arena owns the Hardware, the Kernel, and the
// workload handles; the control block itself is tiny and heap-held.
struct Node {
  Arena arena{kNodeArenaBytes};
  Hardware* hw = nullptr;
  Kernel* kernel = nullptr;
  NodeState* st = nullptr;
  Instant end;
  int index = -1;
  NodeResult result;
  // Streaming telemetry collector (heap, not arena: it outlives the arena
  // Reset in FinishNode only long enough to be snapshotted into the result).
  std::unique_ptr<obs::TimeseriesCollector> ts;
};

// Every node's simulation is a pure function of (fleet seed, node index,
// timer_queue): all randomness flows from this fork, and nothing host-side
// (worker id, steal order, wall time) is ever consulted.
void BuildNode(Node& node, const FleetOptions& opt, int index) {
  Rng topo = Rng(opt.seed).Fork(static_cast<uint64_t>(index) + 1);
  node.index = index;
  node.result.seed = opt.seed;
  if (opt.timeseries) {
    node.ts = std::make_unique<obs::TimeseriesCollector>(opt.timeseries_options);
  }
  // Overload injection: the multiplier is applied *after* every topology
  // draw below, so the Rng stream — and therefore every other node — is
  // bit-identical whether or not this node is the designated victim.
  int64_t overload = (index == opt.overload_node && opt.overload_factor > 1)
                         ? opt.overload_factor
                         : 1;

  KernelConfig config;
  switch (index % 4) {
    case 0:
      config.scheduler = SchedulerSpec::Edf();
      node.result.scheduler = "EDF";
      break;
    case 1:
      config.scheduler = SchedulerSpec::Rm();
      node.result.scheduler = "RM";
      break;
    case 2:
      config.scheduler = SchedulerSpec::Csd(2);
      node.result.scheduler = "CSD-2";
      break;
    default:
      config.scheduler = SchedulerSpec::Csd(3);
      node.result.scheduler = "CSD-3";
      break;
  }
  int dp_bands = 0;
  for (size_t i = 0; i < config.scheduler.bands.size(); ++i) {
    if (config.scheduler.bands[i] == QueueKind::kEdfList) {
      ++dp_bands;
    }
  }
  config.cost_model = CostModel::MC68040_25MHz();
  config.timer_queue = opt.timer_queue;
  config.trace_capacity = NodeTraceCapacity(opt);

  // Declared causal chains: the timer's tick into the pacer, and the
  // producer's release through the mailbox. Both carry SLOs so the fleet
  // report aggregates overruns, and both feed the causal-token oracle.
  {
    ChainSpec tick;
    tick.name = "tick";
    tick.deadline = Milliseconds(5);
    tick.stages.push_back(ChainStageSpec{"sem:tick_sem", ""});
    config.chains.push_back(tick);

    ChainSpec pipe;
    pipe.name = "pipe";
    pipe.deadline = Milliseconds(topo.UniformInt(3, 6));
    pipe.stages.push_back(ChainStageSpec{"release:producer", "producer"});
    pipe.stages.push_back(ChainStageSpec{"mbox:pipe", ""});
    config.chains.push_back(pipe);
  }

  node.hw = node.arena.New<Hardware>();
  node.kernel = node.arena.New<Kernel>(*node.hw, config);
  Kernel& kernel = *node.kernel;
  NodeState* st = node.arena.New<NodeState>();
  node.st = st;

  st->tick_sem = kernel.CreateSemaphore("tick_sem", 0).value();
  st->mbox = kernel.CreateMailbox("pipe", static_cast<size_t>(topo.UniformInt(2, 4))).value();
  st->timer = kernel.CreateTimer("tick", st->tick_sem).value();
  kernel.StartTimer(st->timer, Microseconds(topo.UniformInt(100, 500)),
                    Microseconds(topo.UniformInt(400, 900)));

  // Pacer: aperiodic, paced by the user timer's counting semaphore. Its
  // acquire consumes the timer's chain token (the "tick" chain).
  {
    ThreadParams params;
    params.name = "pacer";
    Rng body_rng = topo.Fork(11);
    params.body = [st, body_rng](ThreadApi api) mutable -> ThreadBody {
      for (;;) {
        co_await api.Acquire(st->tick_sem);
        co_await api.Compute(Microseconds(body_rng.UniformInt(20, 60)));
      }
    };
    kernel.CreateThread(params);
  }

  // Producer: periodic sends into the pipe mailbox ("pipe" chain origin is
  // its job release).
  Duration producer_period = Microseconds(topo.UniformInt(1000, 3000));
  {
    ThreadParams params;
    params.name = "producer";
    params.period = producer_period;
    params.first_release = Microseconds(topo.UniformInt(0, 400));
    params.band = dp_bands > 0 ? 0 : -1;
    Duration cost = Microseconds(topo.UniformInt(100, 250) * overload);
    params.wcet = cost;
    params.body = [st, cost](ThreadApi api) -> ThreadBody {
      for (;;) {
        co_await api.Compute(cost);
        co_await api.TrySend(st->mbox, std::span<const uint8_t>(st->payload, 8));
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(params);
  }

  // Consumer: periodic receive with a timeout — the timeout path arms and
  // cancels a soft timer on nearly every job, which is exactly the churn the
  // timer wheel is meant to make cheap.
  {
    ThreadParams params;
    params.name = "consumer";
    Duration period = Microseconds(topo.UniformInt(2000, 5000));
    params.period = period;
    params.first_release = Microseconds(topo.UniformInt(0, 400));
    params.band = dp_bands > 1 ? 1 : (dp_bands > 0 ? 0 : -1);
    Duration cost = Microseconds(topo.UniformInt(150, 400) * overload);
    params.wcet = cost + period / 4;
    params.body = [st, cost, period](ThreadApi api) -> ThreadBody {
      uint8_t buffer[8];
      for (;;) {
        co_await api.Recv(st->mbox, std::span<uint8_t>(buffer, sizeof(buffer)), period / 4);
        co_await api.Compute(cost);
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(params);
  }

  // Sleeper: pure timer churn in the fixed-priority band.
  {
    ThreadParams params;
    params.name = "sleeper";
    Rng body_rng = topo.Fork(14);
    params.body = [body_rng](ThreadApi api) mutable -> ThreadBody {
      for (;;) {
        co_await api.Sleep(Microseconds(body_rng.UniformInt(200, 1500)));
        co_await api.Compute(Microseconds(10));
      }
    };
    kernel.CreateThread(params);
  }

  kernel.EnableStatsSampling(Milliseconds(2), 128);
  kernel.Start();
  node.end = Instant() + opt.run_duration;
}

// Applies the shared node oracles plus the progress oracle, collects the
// node's telemetry block, and scores the anomaly triage from it. Pure read
// of kernel state: the virtual clock has already reached its horizon, so
// nothing here can perturb the simulated outcome or its digest.
void EvaluateNode(Node& node, const FleetOptions& opt) {
  Kernel& kernel = *node.kernel;
  NodeResult& r = node.result;
  const KernelStats& s = kernel.stats();

  r.events = s.context_switches + s.syscalls + s.interrupts + s.timer_dispatches;
  r.timer_dispatches = s.timer_dispatches;
  r.virtual_time = kernel.now() - Instant();
  // One read of the retained window feeds the digest and the oracles; it is
  // the ring's own storage unless the ring wrapped.
  std::vector<TraceEvent> scratch;
  std::span<const TraceEvent> window = kernel.trace().Window(&scratch);
  r.trace_digest = DigestNode(kernel, window);

  obs::NodeOracles oracles = obs::RunNodeOracles(kernel, window, kernel.trace().dropped());
  r.telemetry = obs::CollectNodeTelemetry(kernel, oracles.trace, oracles.chains);
  const obs::NodeTelemetry& t = r.telemetry;
  r.blame = oracles.postmortem.blame;
  r.postmortem_incomplete = oracles.postmortem.incomplete_misses;
  r.failure = oracles.failure;
  if (r.failure.empty() &&
      (t.jobs_completed == 0 || r.timer_dispatches == 0 || s.mailbox_sends == 0)) {
    r.failure = "progress oracle: node wedged (no jobs, timers, or messages)";
  }

  // Anomaly triage score: deterministic integer badness. Oracle failures
  // dominate everything; below them deadline misses outrank chain SLO
  // overruns outrank headroom warnings, with enough spread that counts of a
  // lesser class cannot outvote one of a greater class in realistic runs.
  r.anomaly_score = t.deadline_misses * 1000000 + t.chain_overruns * 10000 +
                    t.headroom_low_events * 100;
  if (!r.failure.empty()) {
    r.anomaly_score += 1000000000000ULL;
    r.anomaly = r.failure;
  } else if (t.deadline_misses > 0) {
    r.anomaly = "deadline misses";
  } else if (t.chain_overruns > 0) {
    r.anomaly = "chain SLO overruns";
  } else if (t.headroom_low_events > 0) {
    r.anomaly = "low deadline headroom";
  }

  // Streaming plane: close the window series at the horizon (synthesizing
  // the tail interval), snapshot it into the result, and run the node-local
  // alert rules over it. Reads only — the digest was taken above.
  if (node.ts != nullptr) {
    node.ts->Finish(kernel);
    r.windows = node.ts->Snapshot();
    r.timeseries_lost_samples = node.ts->lost_samples();
    r.timeseries_windows_dropped = node.ts->windows_dropped();
    obs::AlertEngine engine(opt.alert_config);
    for (const obs::TelemetryWindow& w : r.windows) {
      engine.Observe(w, node.index, &r.alerts);
    }
  }
}

// Runs a built node to its horizon in `opt.slice` steps, draining the
// streaming collector at every slice boundary: the window series
// materializes while the fleet runs, and the drain schedule is part of the
// node's deterministic replay contract, so RunFleet and InspectNode share
// this loop (the virtual outcome itself is slice-invariant; the drain
// schedule is not). Read-only on the kernel, so the digest cannot move.
void RunNodeSlices(Node& node, const FleetOptions& opt) {
  Kernel& kernel = *node.kernel;
  while (kernel.now() < node.end) {
    kernel.RunUntil(std::min(node.end, kernel.now() + opt.slice));
    if (node.ts != nullptr) {
      node.ts->Collect(kernel);
    }
  }
}

// EvaluateNode plus teardown, on the pool worker that ran the node.
void FinishNode(Node& node, const FleetOptions& opt) {
  EvaluateNode(node, opt);
  node.ts.reset();
  // Reclaim the node's entire footprint in one shot; record the high-water
  // mark first so arenas can be sized from measured fleets.
  node.arena.Reset();
  node.result.arena_high_water = node.arena.high_water();
  node.hw = nullptr;
  node.kernel = nullptr;
  node.st = nullptr;
}

}  // namespace

size_t NodeTraceCapacity(const FleetOptions& options) {
  // Sized for the full event stream including kOverheadSpan records (one per
  // charged kernel advance, ~3x the rest of the stream), so a default-sized
  // node keeps a complete window and the exact-attribution oracles stay
  // armed. The ring commits only the slots a node writes (about 71 per
  // virtual ms), so the headroom costs address space, not resident memory.
  return options.trace_capacity != 0
             ? options.trace_capacity
             : static_cast<size_t>(4096 + options.run_duration.millis() * 1536);
}

const char* TimerQueueImplName(TimerQueueImpl impl) {
  return impl == TimerQueueImpl::kWheel ? "wheel" : "sorted_list";
}

FleetResult RunFleet(const FleetOptions& opt) {
  EM_ASSERT_MSG(ThreadPool::CurrentWorker() == -1,
                "RunFleet must not be called from a pool worker");
  EM_ASSERT(opt.instances > 0);

  std::vector<std::unique_ptr<Node>> nodes;
  nodes.reserve(static_cast<size_t>(opt.instances));
  for (int i = 0; i < opt.instances; ++i) {
    nodes.push_back(std::make_unique<Node>());
  }

  auto wall_start = std::chrono::steady_clock::now();
  int resolved_workers = 0;
  {
    ThreadPool pool(opt.workers);
    resolved_workers = pool.worker_count();
    // One task per node: build, run every slice, evaluate and tear down on
    // one worker. Construction happens on the pool too, so a large fleet
    // boots in parallel; idle workers steal whole nodes.
    for (int i = 0; i < opt.instances; ++i) {
      pool.Submit([&nodes, &opt, i] {
        Node& node = *nodes[static_cast<size_t>(i)];
        BuildNode(node, opt, i);
        RunNodeSlices(node, opt);
        FinishNode(node, opt);
      });
    }
    pool.Wait();
  }
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  FleetResult out;
  out.instances = opt.instances;
  out.workers = resolved_workers;
  out.seed = opt.seed;
  out.timer_queue = opt.timer_queue;
  out.wall_seconds = wall_seconds;
  out.artifacts_dir = opt.artifacts_dir;
  out.nodes.reserve(nodes.size());
  uint64_t digest = kFnv1aOffset;
  for (size_t i = 0; i < nodes.size(); ++i) {
    NodeResult& r = nodes[i]->result;
    out.events_total += r.events;
    out.timer_dispatches += r.timer_dispatches;
    out.virtual_time_total = out.virtual_time_total + r.virtual_time;
    out.nodes_failed += r.ok() ? 0 : 1;
    out.nodes_anomalous += r.anomalous() ? 1 : 0;
    out.arena_high_water = std::max(out.arena_high_water, r.arena_high_water);
    obs::MergeNodeTelemetry(&out.telemetry, r.telemetry, static_cast<int>(i));
    out.blame.Merge(r.blame);
    out.postmortem_incomplete_total += r.postmortem_incomplete;
    digest = Fnv1a(digest, &r.trace_digest, sizeof(r.trace_digest));
    out.nodes.push_back(std::move(r));  // last read of the node's result
  }
  out.fleet_digest = digest;
  out.blame_digest = out.blame.Digest();
  double virtual_seconds = static_cast<double>(out.virtual_time_total.nanos()) / 1e9;
  out.events_per_virtual_sec =
      virtual_seconds > 0 ? static_cast<double>(out.events_total) / virtual_seconds : 0.0;
  out.events_per_wall_sec =
      wall_seconds > 0 ? static_cast<double>(out.events_total) / wall_seconds : 0.0;

  // Streaming plane, fleet-merged: same-index windows Merge losslessly and
  // order-invariantly, then the cross-node outlier rule runs over the
  // per-node series and the full alert stream is canonicalized. A firing
  // alert marks its node anomalous — that is what routes an alerting node
  // into the black-box selection below even when every oracle passed.
  if (opt.timeseries) {
    out.timeseries_options = opt.timeseries_options;
    out.alert_config = opt.alert_config;
    std::vector<const std::vector<obs::TelemetryWindow>*> series;
    series.reserve(out.nodes.size());
    for (const NodeResult& r : out.nodes) {
      series.push_back(&r.windows);
      out.timeseries_lost_samples += r.timeseries_lost_samples;
      out.timeseries_windows_dropped += r.timeseries_windows_dropped;
    }
    out.windows = obs::MergeWindowSeries(series);
    for (const NodeResult& r : out.nodes) {
      out.alerts.insert(out.alerts.end(), r.alerts.begin(), r.alerts.end());
    }
    obs::EvaluateFleetOutlierAlerts(series, opt.alert_config, &out.alerts);
    obs::SortAlertEvents(&out.alerts);
    for (const obs::AlertEvent& e : out.alerts) {
      if (!e.firing) {
        continue;
      }
      ++out.alerts_fired;
      if (e.node >= 0 && e.node < static_cast<int>(out.nodes.size())) {
        NodeResult& nr = out.nodes[static_cast<size_t>(e.node)];
        nr.anomaly_score += 500000;
        if (nr.anomaly.empty()) {
          nr.anomaly = std::string("alert firing: ") + obs::AlertRuleName(e.rule);
          ++out.nodes_anomalous;
        }
      }
    }
  }

  // Black-box flight recorder: re-run the worst anomalous nodes serially and
  // bundle their forensic state. The fleet tore each node down right after
  // its horizon (memory is the budget at fleet scale), but a node is a pure
  // function of (seed, index), so the re-run reproduces the exact state —
  // digests are asserted to match.
  if (!opt.artifacts_dir.empty() && out.nodes_anomalous > 0 && opt.max_blackboxes > 0) {
    std::vector<int> worst;
    for (size_t i = 0; i < out.nodes.size(); ++i) {
      if (out.nodes[i].anomalous()) {
        worst.push_back(static_cast<int>(i));
      }
    }
    std::sort(worst.begin(), worst.end(), [&out](int a, int b) {
      const NodeResult& ra = out.nodes[static_cast<size_t>(a)];
      const NodeResult& rb = out.nodes[static_cast<size_t>(b)];
      if (ra.anomaly_score != rb.anomaly_score) {
        return ra.anomaly_score > rb.anomaly_score;
      }
      return a < b;
    });
    if (worst.size() > static_cast<size_t>(opt.max_blackboxes)) {
      worst.resize(static_cast<size_t>(opt.max_blackboxes));
    }
    for (int index : worst) {
      char label[32];
      std::snprintf(label, sizeof(label), "node-%d", index);
      std::string dir = opt.artifacts_dir + "/" + label;
      const NodeResult& fleet_view = out.nodes[static_cast<size_t>(index)];
      InspectNode(opt, index, [&](const Kernel& kernel, const NodeResult& r) {
        EM_ASSERT_MSG(r.trace_digest == fleet_view.trace_digest,
                      "black-box re-run diverged from the fleet run");
        // The fleet-side anomaly carries alert-triggered reasons the
        // node-local replay cannot know about.
        obs::BlackBoxSnapshot box = obs::CaptureBlackBox(
            kernel, label, fleet_view.anomaly, NodeReproCommand(opt, index));
        obs::WriteBlackBoxBundle(box, dir);
      });
      out.blackbox_nodes.push_back(index);
    }
  }
  return out;
}

NodeResult InspectNode(const FleetOptions& options, int index,
                       const std::function<void(const Kernel&, const NodeResult&)>& visit) {
  EM_ASSERT(index >= 0 && index < options.instances);
  Node node;
  BuildNode(node, options, index);
  RunNodeSlices(node, options);
  EvaluateNode(node, options);
  if (visit) {
    visit(*node.kernel, node.result);
  }
  node.arena.Reset();
  node.result.arena_high_water = node.arena.high_water();
  node.hw = nullptr;
  node.kernel = nullptr;
  node.st = nullptr;
  return node.result;
}

std::string NodeReproCommand(const FleetOptions& options, int index) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "fleet_inspect --instances=%d --seed=%llu --run-ms=%lld --slice-ms=%lld "
                "--timer-queue=%s --trace-capacity=%llu --node=%d",
                options.instances, static_cast<unsigned long long>(options.seed),
                static_cast<long long>(options.run_duration.millis()),
                static_cast<long long>(options.slice.millis()),
                TimerQueueImplName(options.timer_queue),
                static_cast<unsigned long long>(options.trace_capacity), index);
  std::string cmd = buf;
  if (options.overload_node >= 0) {
    std::snprintf(buf, sizeof(buf), " --overload-node=%d --overload-factor=%d",
                  options.overload_node, options.overload_factor);
    cmd += buf;
  }
  return cmd;
}

}  // namespace fleet
}  // namespace emeralds
