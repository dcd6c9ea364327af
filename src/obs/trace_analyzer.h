// Trace replay: derived per-task metrics and invariant checks.
//
// The analyzer is one step of the shared replay walk (trace_replay.h). It
// consumes the TraceSink event stream (live, or re-imported from the CSV
// export) and derives what the raw ring does not store directly:
// per-task response-time and blocking-time histograms, preemption counts, PI
// chain depth, CSE savings — the quantities EMERALDS' evaluation is about —
// plus structural invariant checks that catch both kernel bugs and corrupted
// trace files. trace_inspect, the obs run report, and the obs_smoke CI label
// are built on it.

#ifndef SRC_OBS_TRACE_ANALYZER_H_
#define SRC_OBS_TRACE_ANALYZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/log2_histogram.h"
#include "src/hal/trace.h"

namespace emeralds {

class TraceSink;

namespace obs {

// Structural trace invariants. The analyzer is truncation-aware: when the
// window is not the whole run (events dropped ahead of it, or a sink Reset
// marker) it is a suffix of the run, so checks that need pre-window state
// (switch pairing before the first switch, release/complete pairing for jobs
// begun before the window) are suppressed until the stream itself
// establishes the state.
enum class InvariantKind {
  // Timestamps regressed. kJobRelease events are exempt: they carry the
  // *nominal* release instant, which the kernel records retroactively when a
  // job starts late after an overrun.
  kNonMonotoneTime,
  // A context switch's outgoing thread differs from the thread the previous
  // switch ran (in/out pairing broken).
  kSwitchPairing,
  // A thread with an unresolved kSemAcquireBlock was switched in, completed
  // a job, or blocked again — i.e. it ran while the trace says it was
  // blocked. This is how "every kSemAcquireBlock is eventually resolved"
  // fails observably inside a finite window.
  kBlockedThreadRan,
  // kJobComplete for a job number with no preceding kJobRelease.
  kCompleteWithoutRelease,
  // Per-thread job numbers in kJobRelease did not increase.
  kJobNumberRegression,
};

const char* InvariantKindToString(InvariantKind kind);

struct TraceViolation {
  InvariantKind kind;
  size_t event_index;  // position in the analyzed window
  std::string detail;
};

// Per-thread derived metrics. `preemptions` counts switch-outs of a thread
// that still had an open job and had not blocked/completed/exited at that
// instant — exact for taskset_runner-style bodies (Compute + semaphores +
// WaitNextPeriod); a mid-job Sleep() is indistinguishable from a preemption
// in the event stream and counts as one.
struct TaskMetrics {
  int thread_id = -1;
  bool seen = false;
  uint64_t releases = 0;
  uint64_t completes = 0;
  uint64_t deadline_misses = 0;
  uint64_t switches_in = 0;
  uint64_t preemptions = 0;
  uint64_t sem_acquires = 0;
  uint64_t sem_blocks = 0;
  uint64_t cse_early_pi = 0;
  uint64_t pi_donated = 0;   // kPiInherit events with this thread as donor
  uint64_t pi_received = 0;  // kPiInherit events with this thread as holder
  uint64_t headroom_low = 0; // kHeadroomLow instants for this thread
  int max_pi_depth = 0;      // deepest inheritance chain ending at this thread
  Duration run_time;         // switched-in time inside the window
  Log2Histogram response;    // job release -> complete
  Log2Histogram blocking;    // sem acquire-block -> resolving acquire
};

struct TraceAnalysis {
  std::vector<TaskMetrics> tasks;  // indexed by thread id; check `seen`

  // Stream-wide counters. On a complete window these reconcile exactly
  // with the kernel's KernelStats (context_switches, deadline_misses, ...).
  uint64_t context_switches = 0;
  uint64_t deadline_misses = 0;
  uint64_t jobs_released = 0;
  uint64_t jobs_completed = 0;
  uint64_t sem_acquires = 0;
  uint64_t sem_blocks = 0;
  uint64_t msg_sends = 0;  // kMsgSend: mailbox sends + state-message writes
  uint64_t msg_recvs = 0;  // kMsgRecv: mailbox receives + state-message reads
  uint64_t cse_early_pi = 0;
  uint64_t pi_chain_limit = 0;  // kPiChainLimit instants (refused deep acquires)
  uint64_t headroom_low = 0;    // kHeadroomLow instants (predicted tight slack)
  uint64_t chain_emits = 0;     // kChainEmit events (causal token emissions)
  uint64_t chain_consumes = 0;  // kChainConsume events (causal token pickups)
  uint64_t trace_epochs = 0;    // kTraceEpoch markers (sink resets)
  uint64_t overhead_spans = 0;  // kOverheadSpan events (charged kernel time)
  uint64_t thread_blocks = 0;   // kThreadBlock events (non-running waits)
  uint64_t thread_readies = 0;  // kThreadReady events (wait resolved)
  int max_pi_chain_depth = 0;
  // Acquire-blocks still unresolved when the window ends. Not a violation:
  // a run cut at a time bound legitimately ends with blocked threads.
  uint64_t unresolved_blocks_at_end = 0;

  uint64_t dropped_events = 0;  // echoed from the input
  // The replay walk's completeness verdict: no events dropped ahead of the
  // window and no kTraceEpoch marker in it. Reconciliation checks only then.
  bool complete_window = false;
  std::vector<TraceViolation> violations;

  bool ok() const { return violations.empty(); }
  const TaskMetrics* task(int thread_id) const {
    if (thread_id < 0 || static_cast<size_t>(thread_id) >= tasks.size() ||
        !tasks[thread_id].seen) {
      return nullptr;
    }
    return &tasks[thread_id];
  }
};

// Replays `events[0..count)` (oldest first). `dropped_events` is the number
// of events lost ahead of the window (TraceSink::dropped()).
TraceAnalysis AnalyzeTrace(const TraceEvent* events, size_t count, uint64_t dropped_events);

// Convenience overload over a live sink's retained window.
TraceAnalysis AnalyzeTrace(const TraceSink& sink);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_TRACE_ANALYZER_H_
