#include "src/obs/trace_replay.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "src/core/kernel.h"
#include "src/core/tcb.h"
#include "src/hal/cycles.h"

namespace emeralds {
namespace obs {
namespace {

// Thread ids are pool indices (config.max_threads, typically <= a few
// hundred) and core ids are small; anything past these bounds is a
// corrupted input, ignored rather than sized into a table.
constexpr int32_t kMaxThreadId = 65535;
constexpr int32_t kMaxCoreId = 255;

bool ValidCore(int32_t core) { return core >= 0 && core <= kMaxCoreId; }
bool ValidThread(int32_t id) { return id >= 0 && id <= kMaxThreadId; }

// The per-thread table slot for `id`, grown on first use; nullptr for an id
// outside the guard.
template <typename T>
T* ThreadSlot(std::vector<T>& table, int32_t id) {
  if (!ValidThread(id)) {
    return nullptr;
  }
  if (static_cast<size_t>(id) >= table.size()) {
    table.resize(id + 1);
  }
  return &table[id];
}

std::string Describe(const char* fmt, long long a, long long b, long long c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// The state every step reads. Steps see it as it stood before the current
// event; the walk then applies the event's own effect (Begin/End).
struct ReplayWalk {
  uint64_t dropped = 0;
  // Window completeness so far: cleared for good by a kTraceEpoch marker.
  bool complete = true;
  // Monotone time cursor: the latest non-release timestamp, this event's
  // included. `lag` is how far this event fell behind the cursor before it
  // (zero when it did not).
  bool have_cursor = false;
  Instant cursor;
  Duration lag;
  Instant last_time;
  // Per-core running thread (-1 = idle) and whether it is known.
  std::vector<int32_t> running;
  std::vector<char> running_known;

  // The thread running on `core` in `*runner`; false when that is unknown.
  // A core the window has not switched on yet is idle exactly when the
  // window is complete.
  bool Runner(int32_t core, int32_t* runner) const {
    *runner = -1;
    if (!ValidCore(core)) {
      return false;
    }
    if (static_cast<size_t>(core) >= running.size()) {
      return complete;
    }
    *runner = running[core];
    return running_known[core] != 0;
  }

  void Begin(const TraceEvent& e) {
    last_time = e.time;
    lag = Duration();
    if (e.type == TraceEventType::kJobRelease) {
      return;
    }
    if (have_cursor && e.time < cursor) {
      lag = cursor - e.time;
    }
    if (!have_cursor || e.time > cursor) {
      cursor = e.time;
      have_cursor = true;
    }
  }

  void End(const TraceEvent& e) {
    int32_t runner = -1;
    switch (e.type) {
      case TraceEventType::kContextSwitch:
        // kContextSwitch / kThreadExit stamp their core id in arg2 (0 on
        // single-core traces, so old captures replay unchanged).
        if (ValidCore(e.arg2)) {
          if (static_cast<size_t>(e.arg2) >= running.size()) {
            running.resize(e.arg2 + 1, -1);
            running_known.resize(e.arg2 + 1, complete ? 1 : 0);
          }
          running[e.arg2] = e.arg1;
          running_known[e.arg2] = 1;
        }
        break;
      case TraceEventType::kThreadExit:
        // ExitThread clears the running thread without a switch event; the
        // next switch legitimately reports idle as outgoing.
        if (ValidThread(e.arg0) && Runner(e.arg2, &runner) && runner == e.arg0) {
          running[e.arg2] = -1;
        }
        break;
      case TraceEventType::kTraceEpoch:
        // A sink reset: what ran before it is unknown from here on.
        complete = false;
        std::fill(running_known.begin(), running_known.end(), 0);
        break;
      default:
        break;
    }
  }
};

// The walk itself: the only loop over a trace window. Steps are composed at
// compile time — each needs Step(walk, index, event) and Finish(walk).
// Flattened so the steps inline into the loop: out of line, the walk state
// lives in memory, and in perfbench's traced fleet_long run the trace step
// alone took ~12 ns per record against ~6 ns for the dedicated loop it
// replaced.
template <typename... Steps>
[[gnu::flatten]] void Walk(const TraceEvent* events, size_t count, uint64_t dropped, Steps&... steps) {
  ReplayWalk walk;
  walk.dropped = dropped;
  walk.complete = dropped == 0;
  for (size_t i = 0; i < count; ++i) {
    const TraceEvent& e = events[i];
    walk.Begin(e);
    (steps.Step(walk, i, e), ...);
    walk.End(e);
  }
  (steps.Finish(walk), ...);
}

// One walk with a single step; returns the step's result.
template <typename Step>
auto RunStep(Step step, const TraceEvent* events, size_t count, uint64_t dropped) {
  Walk(events, count, dropped, step);
  return std::move(step.out);
}

template <typename Step>
auto RunStepOverSink(Step step, const TraceSink& sink) {
  std::vector<TraceEvent> scratch;
  std::span<const TraceEvent> window = sink.Window(&scratch);
  return RunStep(std::move(step), window.data(), window.size(), sink.dropped());
}

// --- Trace analyzer step ----------------------------------------------------

struct ThreadTrack {
  bool job_open = false;
  uint64_t job_number = 0;
  Instant job_release;
  bool have_release_number = false;
  uint64_t last_release_number = 0;
  bool blocked = false;
  int32_t blocked_sem = -1;
  Instant block_start;
  Instant run_start;
  int pi_depth = 0;
};

struct TraceStep {
  TraceAnalysis out;
  std::vector<ThreadTrack> tracks;

  ThreadTrack* Track(int32_t id) {
    ThreadTrack* t = ThreadSlot(tracks, id);
    if (t == nullptr) {
      return nullptr;
    }
    if (out.tasks.size() < tracks.size()) {
      out.tasks.resize(tracks.size());
    }
    if (!out.tasks[id].seen) {
      out.tasks[id].seen = true;
      out.tasks[id].thread_id = id;
    }
    return t;
  }

  void Violate(InvariantKind kind, size_t index, std::string detail) {
    out.violations.push_back(TraceViolation{kind, index, std::move(detail)});
  }

  void Step(const ReplayWalk& walk, size_t i, const TraceEvent& e) {
    if (walk.lag.nanos() > 0) {
      Violate(InvariantKind::kNonMonotoneTime, i,
              Describe("time went back %lld us (event %lld)", walk.lag.micros(),
                       static_cast<long long>(i)));
    }

    // Chain and epoch events carry a token origin / epoch number in arg0,
    // not a thread id — never grow a task track from them. kOverheadSpan
    // packs (bucket, core) into arg0.
    const bool arg0_is_thread = e.type != TraceEventType::kChainEmit &&
                                e.type != TraceEventType::kChainConsume &&
                                e.type != TraceEventType::kTraceEpoch &&
                                e.type != TraceEventType::kOverheadSpan;
    ThreadTrack* t0 = arg0_is_thread ? Track(e.arg0) : nullptr;
    TaskMetrics* m0 = t0 != nullptr ? &out.tasks[e.arg0] : nullptr;
    int32_t runner = -1;

    switch (e.type) {
      case TraceEventType::kContextSwitch: {
        ++out.context_switches;
        if (walk.Runner(e.arg2, &runner) && e.arg0 != runner) {
          Violate(InvariantKind::kSwitchPairing, i,
                  Describe("switch out of thread %lld but thread %lld was running", e.arg0,
                           runner));
        }
        if (t0 != nullptr) {  // outgoing
          m0->run_time += e.time - t0->run_start;
          if (t0->job_open && !t0->blocked) {
            ++m0->preemptions;
          }
        }
        ThreadTrack* in = Track(e.arg1);
        if (in != nullptr) {
          ++out.tasks[e.arg1].switches_in;
          in->run_start = e.time;
          if (in->blocked) {
            Violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld switched in while blocked on semaphore %lld", e.arg1,
                             in->blocked_sem));
            in->blocked = false;
          }
        }
        break;
      }
      case TraceEventType::kJobRelease:
        ++out.jobs_released;
        if (m0 != nullptr) {
          ++m0->releases;
          uint64_t job = static_cast<uint64_t>(e.arg1);
          if (t0->have_release_number && job <= t0->last_release_number) {
            Violate(InvariantKind::kJobNumberRegression, i,
                    Describe("thread %lld released job %lld out of order", e.arg0, e.arg1));
          }
          t0->have_release_number = true;
          t0->last_release_number = job;
          t0->job_open = true;
          t0->job_number = job;
          t0->job_release = e.time;
        }
        break;
      case TraceEventType::kJobComplete:
        ++out.jobs_completed;
        if (m0 != nullptr) {
          if (t0->blocked) {
            Violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld completed job %lld while blocked", e.arg0, e.arg1));
            t0->blocked = false;
          }
          if (t0->job_open && t0->job_number == static_cast<uint64_t>(e.arg1)) {
            ++m0->completes;
            m0->response.Add(e.time - t0->job_release);
            t0->job_open = false;
          } else if (walk.complete || t0->have_release_number) {
            // With a truncated window, pre-window job state is unknown;
            // pairing checks start only once the window establishes it.
            Violate(InvariantKind::kCompleteWithoutRelease, i,
                    Describe("thread %lld completed job %lld with no matching release", e.arg0,
                             e.arg1));
          }
        }
        break;
      case TraceEventType::kDeadlineMiss:
        ++out.deadline_misses;
        if (m0 != nullptr) {
          ++m0->deadline_misses;
        }
        break;
      case TraceEventType::kSemAcquire:
        ++out.sem_acquires;
        if (m0 != nullptr) {
          ++m0->sem_acquires;
          if (t0->blocked) {
            if (t0->blocked_sem == e.arg1) {
              m0->blocking.Add(e.time - t0->block_start);
            } else {
              Violate(InvariantKind::kBlockedThreadRan, i,
                      Describe("thread %lld acquired semaphore %lld while blocked on another",
                               e.arg0, e.arg1));
            }
            t0->blocked = false;
          }
        }
        break;
      case TraceEventType::kSemAcquireBlock:
        ++out.sem_blocks;
        if (m0 != nullptr) {
          ++m0->sem_blocks;
          if (t0->blocked) {
            Violate(InvariantKind::kBlockedThreadRan, i,
                    Describe("thread %lld blocked on semaphore %lld while already blocked",
                             e.arg0, e.arg1));
          }
          t0->blocked = true;
          t0->blocked_sem = e.arg1;
          t0->block_start = e.time;
        }
        break;
      case TraceEventType::kSemCseEarlyPi:
        ++out.cse_early_pi;
        if (m0 != nullptr) {
          ++m0->cse_early_pi;
        }
        break;
      case TraceEventType::kPiInherit: {
        // arg0 = holder (receives priority), arg1 = donor. Track() may grow
        // the vectors and invalidate t0/m0, so establish both tracks first
        // and re-index instead of reusing the stale pointers.
        bool have_donor = Track(e.arg1) != nullptr;
        ThreadTrack* holder = Track(e.arg0);
        int donor_depth = have_donor ? tracks[e.arg1].pi_depth : 0;
        if (holder != nullptr) {
          TaskMetrics& hm = out.tasks[e.arg0];
          ++hm.pi_received;
          holder->pi_depth = std::max(holder->pi_depth, donor_depth + 1);
          hm.max_pi_depth = std::max(hm.max_pi_depth, holder->pi_depth);
          out.max_pi_chain_depth = std::max(out.max_pi_chain_depth, holder->pi_depth);
        }
        if (have_donor) {
          ++out.tasks[e.arg1].pi_donated;
        }
        break;
      }
      case TraceEventType::kPiRestore:
        if (t0 != nullptr) {
          t0->pi_depth = 0;
        }
        break;
      case TraceEventType::kMsgSend:
        ++out.msg_sends;
        break;
      case TraceEventType::kMsgRecv:
        ++out.msg_recvs;
        break;
      case TraceEventType::kPiChainLimit:
        // A refused acquire: the thread did not block, so no track state
        // changes — only the stream-wide count for reconciliation.
        ++out.pi_chain_limit;
        break;
      case TraceEventType::kHeadroomLow:
        ++out.headroom_low;
        if (m0 != nullptr) {
          ++m0->headroom_low;
        }
        break;
      case TraceEventType::kChainEmit:
        ++out.chain_emits;
        break;
      case TraceEventType::kChainConsume:
        ++out.chain_consumes;
        break;
      case TraceEventType::kTraceEpoch:
        // The retained window only ever starts at or after a reset marker,
        // so no per-track state needs resetting here.
        ++out.trace_epochs;
        break;
      case TraceEventType::kOverheadSpan:
        // The postmortem step's rider (the span covers time that elapsed
        // before this event's timestamp); counted only.
        ++out.overhead_spans;
        break;
      case TraceEventType::kThreadBlock:
        // Scheduler-level wait marker (kSemAcquireBlock drives the blocking
        // histogram); the postmortem step classifies it by reason.
        ++out.thread_blocks;
        break;
      case TraceEventType::kThreadReady:
        ++out.thread_readies;
        break;
      case TraceEventType::kThreadExit:
        if (t0 != nullptr) {
          if (walk.Runner(e.arg2, &runner) && runner == e.arg0) {
            m0->run_time += e.time - t0->run_start;
          }
          t0->job_open = false;
          t0->blocked = false;
        }
        break;
      case TraceEventType::kSemRelease:
      case TraceEventType::kIrq:
        break;
    }
  }

  // Close the books at the window edge.
  void Finish(const ReplayWalk& walk) {
    out.dropped_events = walk.dropped;
    out.complete_window = walk.complete;
    for (const ThreadTrack& t : tracks) {
      if (t.blocked) {
        ++out.unresolved_blocks_at_end;
      }
    }
    for (size_t c = 0; c < walk.running.size(); ++c) {
      int32_t runner = -1;
      if (walk.Runner(static_cast<int32_t>(c), &runner) && runner >= 0 &&
          static_cast<size_t>(runner) < tracks.size()) {
        out.tasks[runner].run_time += walk.last_time - tracks[runner].run_start;
      }
    }
  }
};

// --- Chain step -------------------------------------------------------------

// One in-flight traversal of a declared chain by a single token origin.
// Stage k of an instance whose head emit carried hop `base_hop` is emitted
// at hop base_hop + k and consumed at hop base_hop + k + 1; enforcing the
// hops exactly keeps instances of different origins (and re-emits of the
// same origin elsewhere) from interleaving.
struct Instance {
  uint16_t base_hop = 0;
  size_t next_stage = 0;
  bool awaiting_consume = false;  // else awaiting the next stage's emit
  int carrier_tid = -1;           // consumer of the previous stage
  std::vector<Instant> stage_emit;
  std::vector<Instant> stage_consume;
};

void CompleteInstance(ChainReport& report, uint32_t origin, const Instance& inst) {
  const size_t stages = report.hops.size();
  ++report.completed;
  Duration e2e = inst.stage_consume[stages - 1] - inst.stage_emit[0];
  report.e2e.Add(e2e);
  const bool overrun = report.deadline.nanos() > 0 && e2e > report.deadline;
  if (overrun) {
    ++report.overruns;
  }
  ChainOverrunRecord rec;
  if (overrun) {
    rec.origin = origin;
    rec.start = inst.stage_emit[0];
    rec.e2e = e2e;
  }
  for (size_t k = 0; k < stages; ++k) {
    Duration queue = inst.stage_consume[k] - inst.stage_emit[k];
    report.hops[k].queue.Add(queue);
    if (overrun) {
      rec.hop_queue_ns.push_back(queue.nanos());
    }
    if (k + 1 < stages) {
      Duration exec = inst.stage_emit[k + 1] - inst.stage_consume[k];
      report.hops[k].exec.Add(exec);
      if (overrun) {
        rec.hop_exec_ns.push_back(exec.nanos());
      }
    }
  }
  if (overrun) {
    if (report.overrun_records.size() < kMaxChainOverrunRecords) {
      report.overrun_records.push_back(std::move(rec));
    } else {
      ++report.overrun_records_dropped;
    }
  }
}

struct ChainStep {
  const std::vector<ResolvedChain>& specs;
  ChainAnalysis out;
  std::vector<std::map<uint32_t, Instance>> instances;  // per spec, keyed by origin
  // Conservation bookkeeping: emits seen (and whether each was consumed at
  // least once), keyed exactly — multi-consume of one emit is legitimate
  // (state-message re-reads, condvar broadcast).
  std::map<std::tuple<uint32_t, int32_t, uint16_t>, bool> emits_seen;
  std::set<uint32_t> minted;

  explicit ChainStep(const std::vector<ResolvedChain>& chain_specs)
      : specs(chain_specs), instances(chain_specs.size()) {
    out.chains.reserve(specs.size());
    for (const ResolvedChain& spec : specs) {
      ChainReport r;
      r.name = spec.name;
      r.deadline = spec.deadline;
      r.resolved = spec.resolved;
      for (const ResolvedChainStage& st : spec.stages) {
        ChainHopStats h;
        h.endpoint = st.endpoint;
        h.consumer_tid = st.consumer_tid;
        r.hops.push_back(std::move(h));
      }
      out.chains.push_back(std::move(r));
    }
  }

  void Violate(ChainViolationKind kind, size_t index, std::string detail) {
    out.violations.push_back(ChainViolation{kind, index, std::move(detail)});
  }

  void Step(const ReplayWalk& walk, size_t i, const TraceEvent& e) {
    if (e.type != TraceEventType::kChainEmit && e.type != TraceEventType::kChainConsume) {
      return;
    }
    auto& traffic = out.endpoint_traffic[e.arg1];
    ++(e.type == TraceEventType::kChainEmit ? traffic.first : traffic.second);
    const uint32_t origin = static_cast<uint32_t>(e.arg0);
    const int32_t endpoint = e.arg1;
    const uint16_t hop = ChainHopOf(e.arg2);
    const int actor = ChainActorOf(e.arg2);

    if (origin == 0 || hop > kMaxChainHops) {
      Violate(ChainViolationKind::kMalformedToken, i,
              Describe("origin %lld hop %lld at endpoint %lld", origin, hop, endpoint));
      return;
    }
    if (e.type == TraceEventType::kChainEmit) {
      ++out.chain_emits;
      if (hop == 0) {
        if (!minted.insert(origin).second) {
          Violate(ChainViolationKind::kOriginReuse, i,
                  Describe("origin %lld minted again at endpoint %lld (hop %lld)", origin,
                           endpoint, hop));
        } else {
          ++out.origins_minted;
        }
      }
      emits_seen.emplace(std::make_tuple(origin, endpoint, hop), false);

      for (size_t s = 0; s < specs.size(); ++s) {
        if (!specs[s].resolved || specs[s].stages.empty()) {
          continue;
        }
        auto it = instances[s].find(origin);
        if (it == instances[s].end()) {
          if (endpoint == specs[s].stages[0].endpoint) {
            Instance inst;
            inst.base_hop = hop;
            inst.awaiting_consume = true;
            inst.stage_emit.resize(specs[s].stages.size());
            inst.stage_consume.resize(specs[s].stages.size());
            inst.stage_emit[0] = e.time;
            instances[s].emplace(origin, std::move(inst));
          }
        } else {
          Instance& inst = it->second;
          if (!inst.awaiting_consume && endpoint == specs[s].stages[inst.next_stage].endpoint &&
              hop == inst.base_hop + inst.next_stage && actor == inst.carrier_tid) {
            inst.stage_emit[inst.next_stage] = e.time;
            inst.awaiting_consume = true;
          }
        }
      }
      return;
    }

    ++out.chain_consumes;
    if (hop == 0) {
      Violate(ChainViolationKind::kMalformedToken, i,
              Describe("consume at hop 0 (origin %lld, endpoint %lld)", origin, endpoint));
      return;
    }
    auto emit_it =
        emits_seen.find(std::make_tuple(origin, endpoint, static_cast<uint16_t>(hop - 1)));
    if (emit_it == emits_seen.end()) {
      if (hop == kMaxChainHops) {
        // At the hop ceiling the producing side drops the token instead of
        // advancing it (ChainConsume's saturation path), so a capped consume
        // legitimately has no in-window emit even in a complete window.
        // Degrade to a counted orphan rather than a conservation violation.
        ++out.saturated_hops;
      } else if (walk.complete) {
        Violate(ChainViolationKind::kOrphanConsume, i,
                Describe("consume of origin %lld hop %lld at endpoint %lld with no matching emit",
                         origin, hop, endpoint));
      } else {
        ++out.orphan_hops;  // the emit predates the retained window
      }
    } else {
      emit_it->second = true;
    }

    for (size_t s = 0; s < specs.size(); ++s) {
      if (!specs[s].resolved || specs[s].stages.empty()) {
        continue;
      }
      auto it = instances[s].find(origin);
      if (it == instances[s].end()) {
        continue;
      }
      Instance& inst = it->second;
      const ResolvedChainStage& stage = specs[s].stages[inst.next_stage];
      if (!inst.awaiting_consume || endpoint != stage.endpoint ||
          hop != inst.base_hop + inst.next_stage + 1 ||
          (stage.consumer_tid >= 0 && actor != stage.consumer_tid)) {
        continue;
      }
      inst.stage_consume[inst.next_stage] = e.time;
      inst.carrier_tid = actor;
      if (inst.next_stage + 1 == specs[s].stages.size()) {
        CompleteInstance(out.chains[s], origin, inst);
        instances[s].erase(it);
      } else {
        ++inst.next_stage;
        inst.awaiting_consume = false;
      }
    }
  }

  void Finish(const ReplayWalk& walk) {
    out.complete_window = walk.complete;
    for (size_t s = 0; s < specs.size(); ++s) {
      out.chains[s].incomplete = instances[s].size();
    }
    for (const auto& entry : emits_seen) {
      if (!entry.second) {
        ++out.unconsumed_emits;
      }
    }
  }
};

// --- Postmortem step --------------------------------------------------------

// A job currently between release and completion, with its attribution
// cursor and accumulating ledger.
struct OpenJob {
  bool open = false;
  uint64_t number = 0;
  Instant release;           // nominal (retroactive) release instant
  bool has_deadline = false;
  int64_t budget_ns = 0;     // relative deadline
  bool missed_early = false; // kDeadlineMiss arrived while still open
  Instant jc;                // attribution cursor: time before jc is classified
  int64_t own_exec_ns = 0;   // scheduled time, split at finalize vs the EWMA
  int64_t measured_cost_ns = 0;  // own_exec + overhead billed while running
  LatenessLedger ledger;
};

struct PmThread {
  int core = 0;
  bool blocked = false;
  BlockReason reason = BlockReason::kNone;
  int32_t blocked_obj = -1;
  bool have_last_complete = false;
  Instant last_complete;
  uint64_t last_number = 0;
  bool last_has_deadline = false;
  bool last_counted = false;  // the finalized job was already counted missed
  bool ewma_seeded = false;
  int64_t ewma_ns = 0;  // analyzer-side replay of the kernel's cost EWMA
  OpenJob job;
};

void AddOverhead(LatenessLedger& ledger, int bucket, int64_t ns) {
  switch (static_cast<CycleBucket>(bucket)) {
    case CycleBucket::kIrq:
      ledger.irq_ns += ns;
      break;
    case CycleBucket::kIpi:
      ledger.ipi_ns += ns;
      break;
    case CycleBucket::kTimerSvc:
      ledger.timer_svc_ns += ns;
      break;
    case CycleBucket::kSchedSelect:
    case CycleBucket::kSchedBlock:
    case CycleBucket::kSchedUnblock:
    case CycleBucket::kSchedParse:
    case CycleBucket::kContextSwitch:
      ledger.sched_ns += ns;
      break;
    default:
      // Traps, semaphore/PI/IPC bookkeeping, stats sampling.
      ledger.syscall_ns += ns;
      break;
  }
}

// Largest single ledger component, named. Per-preemptor and per-lock shares
// compete individually so "preempted by t3" can win over a bulk category.
std::string TopBlame(const LatenessLedger& l) {
  const char* label = "none";
  char buf[48];
  int64_t best = 0;
  auto consider = [&](const char* name, int64_t v) {
    if (v > best) {
      best = v;
      label = name;
    }
  };
  consider("carry_in", l.carry_in_ns);
  consider("release_latency", l.release_latency_ns);
  consider("self_suspend", l.self_suspend_ns);
  consider("irq", l.irq_ns);
  consider("ipi", l.ipi_ns);
  consider("timer_svc", l.timer_svc_ns);
  consider("sched", l.sched_ns);
  consider("syscall", l.syscall_ns);
  consider("own_overrun", l.own_overrun_ns);
  consider("own_expected", l.own_expected_ns);
  consider("unattributed", l.unattributed_ns);
  for (const auto& [tid, ns] : l.preemptor_ns) {
    if (ns > best) {
      best = ns;
      std::snprintf(buf, sizeof(buf), "preempted_by:t%d", tid);
      label = buf;
    }
  }
  for (const auto& [sem, ns] : l.lock_ns) {
    if (ns > best) {
      best = ns;
      std::snprintf(buf, sizeof(buf), "blocked_on:S%d", sem);
      label = buf;
    }
  }
  return label;
}

struct PostmortemStep {
  PostmortemAnalysis out;
  std::vector<PmThread> threads;
  std::vector<int32_t> open_tids;

  // Classifies the gap (job.jc, t] for one open job; an exact partition of
  // the gap, so per-job sums telescope by construction.
  void Attribute(const ReplayWalk& walk, int32_t tid, PmThread& th, const TraceEvent& e) {
    OpenJob& job = th.job;
    int64_t g = (e.time - job.jc).nanos();
    if (g <= 0) {
      return;
    }
    LatenessLedger& l = job.ledger;
    if (th.blocked) {
      switch (th.reason) {
        case BlockReason::kWaitSem:
        case BlockReason::kPreAcquire:
          l.lock_blocked_ns += g;
          if (th.blocked_obj >= 0) {
            l.lock_ns[th.blocked_obj] += g;
          }
          break;
        case BlockReason::kWaitPeriod:
          // Released but the wake has not landed yet (timer service / CSE
          // release window): still latency of getting the job going.
          l.release_latency_ns += g;
          break;
        default:
          l.self_suspend_ns += g;
          break;
      }
    } else {
      // The min() clamp keeps microsecond-truncated CSV replays exact: a
      // span can only shrink to the gap, never overdraw it.
      const bool is_span = e.type == TraceEventType::kOverheadSpan;
      int64_t span_part =
          (is_span && OverheadSpanCore(e.arg0) == th.core) ? std::min<int64_t>(g, e.arg1) : 0;
      if (span_part > 0) {
        AddOverhead(l, OverheadSpanBucket(e.arg0), span_part);
      }
      int32_t runner = -1;
      const bool known = walk.Runner(th.core, &runner);
      int64_t residue = g - span_part;
      if (residue > 0) {
        if (known && runner == tid) {
          job.own_exec_ns += residue;
          job.measured_cost_ns += residue;
        } else if (known && runner >= 0) {
          l.preemption_ns += residue;
          l.preemptor_ns[runner] += residue;
        } else if (known) {
          // Ready with an idle core: the scheduler is in transit.
          l.sched_ns += residue;
        } else {
          l.unattributed_ns += residue;
        }
      }
      if (span_part > 0 && known && runner == tid) {
        // Overhead billed while scheduled counts toward the measured job
        // cost, matching the kernel's bill-to-current EWMA semantics.
        job.measured_cost_ns += span_part;
      }
    }
    job.jc = e.time;
  }

  void CloseOpenJob(const ReplayWalk& walk, int32_t tid, PmThread& th) {
    if (!th.job.open) {
      return;
    }
    bool missed = th.job.missed_early;
    if (!missed && th.job.has_deadline && walk.have_cursor) {
      missed = (walk.cursor - th.job.release).nanos() > th.job.budget_ns;
    }
    if (missed) {
      ++out.incomplete_misses;
    }
    th.job = OpenJob();
    open_tids.erase(std::find(open_tids.begin(), open_tids.end(), tid));
  }

  void FinalizeJob(int32_t tid, PmThread& th, Instant completion) {
    OpenJob& job = th.job;
    LatenessLedger& l = job.ledger;
    int64_t response = (completion - job.release).nanos();
    // Split scheduled execution against the replayed EWMA. The split
    // partitions own_exec exactly, so conservation never depends on the
    // predictor's accuracy.
    int64_t expected = th.ewma_seeded ? th.ewma_ns : job.measured_cost_ns;
    l.own_expected_ns = std::min(job.own_exec_ns, std::max<int64_t>(0, expected));
    l.own_overrun_ns = job.own_exec_ns - l.own_expected_ns;
    if (th.ewma_seeded) {
      th.ewma_ns += (job.measured_cost_ns - th.ewma_ns) / 4;
    } else {
      th.ewma_ns = job.measured_cost_ns;
      th.ewma_seeded = true;
    }

    bool missed = job.missed_early || (job.has_deadline && response > job.budget_ns);
    th.have_last_complete = true;
    th.last_complete = completion;
    th.last_number = job.number;
    th.last_has_deadline = job.has_deadline;
    th.last_counted = missed;
    if (missed && !job.has_deadline) {
      // Legacy trace (no encoded deadline): the miss is real but the
      // tardiness target is unknown, so it is counted, not attributed.
      ++out.deadline_unknown;
    } else if (missed) {
      int64_t sum = l.sum_ns();
      bool conserved = sum == response;
      if (!conserved) {
        ++out.conservation_failures;
        ++out.blame.conservation_failures;
      }
      ++out.misses_analyzed;
      ++out.blame.misses_analyzed;
      int64_t tardiness = response - job.budget_ns;
      out.blame.tardiness_ns += tardiness;
      out.blame.unattributed_ns += l.unattributed_ns;
      ++out.blame.victim_misses[tid];
      out.blame.victim_tardiness_ns[tid] += tardiness;
      for (const auto& [k, v] : l.preemptor_ns) {
        out.blame.preemptor_ns[k] += v;
      }
      for (const auto& [k, v] : l.lock_ns) {
        out.blame.lock_ns[k] += v;
      }
      if (out.misses.size() < kMaxJobPostmortems) {
        JobPostmortem rec;
        rec.thread_id = tid;
        rec.job_number = job.number;
        rec.release = job.release;
        rec.completion = completion;
        rec.has_deadline = true;
        rec.deadline_budget_ns = job.budget_ns;
        rec.response_ns = response;
        rec.tardiness_ns = tardiness;
        rec.conserved = conserved;
        rec.ledger = l;
        rec.top_blame = TopBlame(rec.ledger);
        out.misses.push_back(std::move(rec));
      } else {
        ++out.records_dropped;
      }
    }
    th.job = OpenJob();
    open_tids.erase(std::find(open_tids.begin(), open_tids.end(), tid));
  }

  void Step(const ReplayWalk& walk, size_t i, const TraceEvent& e) {
    if (e.type != TraceEventType::kJobRelease) {
      // Gap attribution for every open job up to this event's time.
      // kJobRelease is exempt: it carries the retroactive nominal release.
      for (int32_t tid : open_tids) {
        Attribute(walk, tid, threads[tid], e);
      }
    }

    switch (e.type) {
      case TraceEventType::kContextSwitch: {
        PmThread* in = ThreadSlot(threads, e.arg1);
        if (in != nullptr) {
          if (ValidCore(e.arg2)) {
            in->core = e.arg2;
          }
          in->blocked = false;  // a blocked thread cannot be switched in
        }
        PmThread* outg = ThreadSlot(threads, e.arg0);
        if (outg != nullptr && ValidCore(e.arg2)) {
          outg->core = e.arg2;
        }
        break;
      }
      case TraceEventType::kJobRelease: {
        PmThread* th = ThreadSlot(threads, e.arg0);
        if (th == nullptr) {
          break;
        }
        // A release over a still-open job only happens on corrupted or
        // truncated streams; discard the stale job.
        CloseOpenJob(walk, e.arg0, *th);
        OpenJob& job = th->job;
        job.open = true;
        job.number = static_cast<uint64_t>(e.arg1);
        job.release = e.time;
        if (e.arg2 > 0) {
          job.has_deadline = true;
          job.budget_ns = e.arg2;
        } else if (e.arg2 < 0) {
          job.has_deadline = true;
          job.budget_ns = -static_cast<int64_t>(e.arg2) * 1000;
        }
        Instant prev = th->have_last_complete ? th->last_complete : e.time;
        Instant base = std::max(e.time, prev);
        Instant jc0 = base;
        if (walk.have_cursor && walk.cursor > jc0) {
          jc0 = walk.cursor;
        }
        job.jc = jc0;
        LatenessLedger& l = job.ledger;
        if (prev > e.time) {
          l.carry_in_ns = (prev - e.time).nanos();
        }
        int64_t latency = (jc0 - base).nanos();
        if (!th->have_last_complete && !walk.complete) {
          // Pre-window history is unknown: the lump between the retroactive
          // release and the stream cursor cannot be attributed honestly.
          l.unattributed_ns += latency;
        } else {
          l.release_latency_ns += latency;
        }
        open_tids.push_back(e.arg0);
        break;
      }
      case TraceEventType::kJobComplete: {
        PmThread* th = ThreadSlot(threads, e.arg0);
        if (th == nullptr) {
          break;
        }
        if (th->job.open && th->job.number == static_cast<uint64_t>(e.arg1)) {
          FinalizeJob(e.arg0, *th, e.time);
        } else {
          // Complete with no visible release (truncated window): remember
          // the completion so the next release's carry-in is still exact.
          CloseOpenJob(walk, e.arg0, *th);
          th->have_last_complete = true;
          th->last_complete = e.time;
          th->last_number = static_cast<uint64_t>(e.arg1);
          th->last_has_deadline = false;
          th->last_counted = false;
        }
        break;
      }
      case TraceEventType::kDeadlineMiss: {
        PmThread* th = ThreadSlot(threads, e.arg0);
        if (th == nullptr) {
          break;
        }
        if (th->job.open && th->job.number == static_cast<uint64_t>(e.arg1)) {
          th->job.missed_early = true;
        } else if (th->have_last_complete && th->last_number == static_cast<uint64_t>(e.arg1)) {
          // The completion-path miss lands just after kJobComplete. Already
          // counted via the deadline check at finalize — unless the trace
          // carried no deadline, where the event is the only miss signal.
          if (!th->last_counted && !th->last_has_deadline) {
            ++out.deadline_unknown;
            th->last_counted = true;
          }
        } else {
          ++out.unmatched_misses;
        }
        break;
      }
      case TraceEventType::kThreadBlock: {
        PmThread* th = ThreadSlot(threads, e.arg0);
        if (th != nullptr) {
          th->blocked = true;
          th->reason = static_cast<BlockReason>(e.arg1);
          th->blocked_obj = e.arg2;
        }
        break;
      }
      case TraceEventType::kThreadReady: {
        PmThread* th = ThreadSlot(threads, e.arg0);
        if (th != nullptr) {
          th->blocked = false;
          th->reason = BlockReason::kNone;
          th->blocked_obj = -1;
          if (ValidCore(e.arg2)) {
            th->core = e.arg2;
          }
        }
        break;
      }
      case TraceEventType::kSemCseEarlyPi: {
        // The woken thread stays blocked, but its wait flips from the period
        // grid to the contended lock — from here the time is PI blocking.
        PmThread* th = ThreadSlot(threads, e.arg0);
        if (th != nullptr) {
          th->blocked = true;
          th->reason = BlockReason::kWaitSem;
          th->blocked_obj = e.arg1;
        }
        break;
      }
      case TraceEventType::kThreadExit: {
        PmThread* th = ThreadSlot(threads, e.arg0);
        if (th != nullptr) {
          CloseOpenJob(walk, e.arg0, *th);
          th->blocked = false;
        }
        break;
      }
      case TraceEventType::kTraceEpoch:
        // Mid-run sink reset: every open job and blocked state predates a
        // discarded window. Start over (the walk forgets the running map and
        // marks the window truncated).
        for (int32_t tid : std::vector<int32_t>(open_tids)) {
          CloseOpenJob(walk, tid, threads[tid]);
        }
        for (PmThread& th : threads) {
          th.blocked = false;
        }
        break;
      default:
        break;
    }
  }

  // Horizon: jobs still open are incomplete; a passed deadline among them is
  // a known miss without a completion to attribute.
  void Finish(const ReplayWalk& walk) {
    out.window_truncated = !walk.complete;
    for (int32_t tid : open_tids) {
      const OpenJob& job = threads[tid].job;
      bool missed = job.missed_early;
      if (!missed && job.has_deadline) {
        missed = (walk.last_time - job.release).nanos() > job.budget_ns;
      }
      if (missed) {
        ++out.incomplete_misses;
      }
    }
  }
};

}  // namespace

const char* InvariantKindToString(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kNonMonotoneTime:
      return "non_monotone_time";
    case InvariantKind::kSwitchPairing:
      return "switch_pairing";
    case InvariantKind::kBlockedThreadRan:
      return "blocked_thread_ran";
    case InvariantKind::kCompleteWithoutRelease:
      return "complete_without_release";
    case InvariantKind::kJobNumberRegression:
      return "job_number_regression";
  }
  return "?";
}

TraceReplay ReplayTrace(const TraceEvent* events, size_t count, uint64_t dropped_events,
                        const std::vector<ResolvedChain>& specs) {
  TraceStep trace;
  ChainStep chains(specs);
  PostmortemStep postmortem;
  Walk(events, count, dropped_events, trace, chains, postmortem);
  return TraceReplay{std::move(trace.out), std::move(chains.out), std::move(postmortem.out)};
}

TraceAnalysis AnalyzeTrace(const TraceEvent* events, size_t count, uint64_t dropped_events) {
  return RunStep(TraceStep(), events, count, dropped_events);
}

TraceAnalysis AnalyzeTrace(const TraceSink& sink) { return RunStepOverSink(TraceStep(), sink); }

ChainAnalysis AnalyzeChains(const TraceEvent* events, size_t count, uint64_t dropped_events,
                            const std::vector<ResolvedChain>& specs) {
  return RunStep(ChainStep(specs), events, count, dropped_events);
}

ChainAnalysis AnalyzeChains(const TraceSink& sink, const std::vector<ResolvedChain>& specs) {
  return RunStepOverSink(ChainStep(specs), sink);
}

PostmortemAnalysis AnalyzePostmortem(const TraceEvent* events, size_t count,
                                     uint64_t dropped_events) {
  return RunStep(PostmortemStep(), events, count, dropped_events);
}

PostmortemAnalysis AnalyzePostmortem(const TraceSink& sink) {
  return RunStepOverSink(PostmortemStep(), sink);
}

NodeOracles RunNodeOracles(const Kernel& kernel, std::span<const TraceEvent> window,
                           uint64_t dropped) {
  NodeOracles o;
  static_cast<TraceReplay&>(o) =
      ReplayTrace(window.data(), window.size(), dropped, kernel.resolved_chains());
  const KernelStats& s = kernel.stats();
  o.reconciliation = ComputeReconciliation(o.trace, s);
  o.cycles = CheckCycleConservation(s, kernel.now());
  for (int c = 0; c < s.num_cores; ++c) {
    o.core_cycles.push_back(CheckCoreCycleConservation(s, c, kernel.now()));
  }
  o.cycle_unattributed_ns =
      kernel.hardware().clock().ledger().at(CycleBucket::kUnattributed).nanos();

  const bool complete = o.trace.complete_window;
  const PostmortemAnalysis& pm = o.postmortem;
  auto bad_core = std::find_if(o.core_cycles.begin(), o.core_cycles.end(),
                               [](const CycleConservation& c) { return !c.exact(); });
  char buf[160];
  if (!o.trace.violations.empty()) {
    o.failure = "trace invariant violated: " + o.trace.violations[0].detail;
  } else if (complete && (!o.reconciliation.checked || !o.reconciliation.ok())) {
    o.failure = "reconciliation mismatch (trace vs kernel counters)";
  } else if (!complete && o.reconciliation.checked) {
    o.failure = "reconciliation claimed a truncated trace was checked";
  } else if (!o.cycles.exact() || o.cycle_unattributed_ns != 0) {
    std::snprintf(buf, sizeof(buf),
                  "cycle conservation violated: residual %lld ns, unattributed %lld ns",
                  static_cast<long long>(o.cycles.residual.nanos()),
                  static_cast<long long>(o.cycle_unattributed_ns));
    o.failure = buf;
  } else if (bad_core != o.core_cycles.end()) {
    std::snprintf(buf, sizeof(buf), "cycle conservation violated on core %d: residual %lld ns",
                  static_cast<int>(bad_core - o.core_cycles.begin()),
                  static_cast<long long>(bad_core->residual.nanos()));
    o.failure = buf;
  } else if (!o.chains.violations.empty()) {
    o.failure = "chain token conservation: " + o.chains.violations[0].detail;
  } else if (complete && o.chains.orphan_hops > 0) {
    o.failure = "chain token conservation: orphan hops in an untruncated trace";
  } else if (pm.conservation_failures > 0 ||
             (complete && (pm.blame.unattributed_ns != 0 || pm.unmatched_misses > 0))) {
    std::snprintf(buf, sizeof(buf),
                  "lateness conservation violated: %llu ledger(s) failed, "
                  "unattributed %lld ns, %llu unmatched miss(es)",
                  static_cast<unsigned long long>(pm.conservation_failures),
                  static_cast<long long>(pm.blame.unattributed_ns),
                  static_cast<unsigned long long>(pm.unmatched_misses));
    o.failure = buf;
  }
  return o;
}

}  // namespace obs
}  // namespace emeralds
