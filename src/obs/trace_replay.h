// One replay walk over a retained trace window, and the node oracle suite
// built on it.
//
// The trace analyzer (trace_analyzer.h), the chain analyzer (chains.h) and
// the postmortem engine (postmortem.h) are per-event steps of a single walk,
// composed at compile time. The walk owns the state all three read:
//
//   - window completeness: the window is the whole run iff no event was
//     dropped ahead of it and it holds no kTraceEpoch marker. A sink Reset
//     writes the marker as the new window's first event, so the walk knows
//     the verdict before any event it governs; TraceAnalysis, ChainAnalysis
//     and PostmortemAnalysis all report it.
//   - the per-core running map: which thread each core runs, and whether
//     that is known. A complete window starts idle on every core; a
//     truncated one knows a core only once the window switches on it. Core
//     ids past kMaxCoreId mark a corrupted event and stay unknown.
//   - the thread-id guard: ids outside [0, kMaxThreadId] are corrupted input
//     and never sized into a per-thread table.
//   - the monotone time cursor: the latest non-release timestamp seen
//     (kJobRelease carries the retroactive nominal release instant).
//
// AnalyzeTrace, AnalyzeChains and AnalyzePostmortem are entry points into
// the same walk with one step each; ReplayTrace runs all three in one pass.
//
// RunNodeOracles is the per-node oracle suite: the one function every
// harness calls to judge a finished kernel — the fleet runner, the torture
// harness, the black-box recorder, the obs run report and fleet_inspect. It
// replays the retained trace window once and checks, in this fixed order
// (the first failure is reported):
//   1. trace invariants: the trace analyzer reports zero structural
//      violations. It is truncation-aware, so a wrapped or reset ring is not
//      a false positive;
//   2. reconciliation: on a complete window the analyzer's counters equal
//      the kernel's own (ComputeReconciliation); on a truncated window the
//      reconciliation must refuse to check;
//   3. cycle conservation: the cycle-attribution ledger covers the virtual
//      time since the charge epoch (which ResetChargeAccounting rebases)
//      exactly, summed over all cores and on each core alone (a cross-core
//      mischarge can cancel in the sum), and no clock advance bypassed the
//      kernel's charging paths. It reads no trace, so it holds on a
//      truncated ring too;
//   4. causal-token conservation: zero chain violations (every consume has
//      its emit, hops advance by exactly one, origins are minted once), and
//      no orphan hops on a complete window;
//   5. lateness conservation: every analyzed deadline miss carries a blame
//      ledger that telescopes exactly to completion - release, and a
//      complete window leaves no nanosecond unattributed and no miss
//      unmatched.
// Oracles specific to one harness run after these, in that harness.

#ifndef SRC_OBS_TRACE_REPLAY_H_
#define SRC_OBS_TRACE_REPLAY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/stats.h"
#include "src/hal/trace.h"
#include "src/obs/chains.h"
#include "src/obs/obs_report.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_analyzer.h"

namespace emeralds {

class Kernel;

namespace obs {

struct TraceReplay {
  TraceAnalysis trace;
  ChainAnalysis chains;
  PostmortemAnalysis postmortem;
};

// Replays `events[0..count)` (oldest first) once through all three steps.
// `dropped_events` is TraceSink::dropped(); `specs` is
// Kernel::resolved_chains() (or {} for a CSV replay without a registry).
TraceReplay ReplayTrace(const TraceEvent* events, size_t count, uint64_t dropped_events,
                        const std::vector<ResolvedChain>& specs);

struct NodeOracles : TraceReplay {
  Reconciliation reconciliation;
  CycleConservation cycles;                    // summed over all cores
  std::vector<CycleConservation> core_cycles;  // one per core
  int64_t cycle_unattributed_ns = 0;           // clock advances outside charging
  std::string failure;  // first failing oracle, human-readable; empty when ok

  bool ok() const { return failure.empty(); }
};

// `window` is the kernel's retained trace window (TraceSink::Window) and
// `dropped` its TraceSink::dropped(). Pure read of the kernel.
NodeOracles RunNodeOracles(const Kernel& kernel, std::span<const TraceEvent> window,
                           uint64_t dropped);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_TRACE_REPLAY_H_
