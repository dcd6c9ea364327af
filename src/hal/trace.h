// Execution tracing.
//
// The trace sink records timestamped kernel events (context switches, job
// releases, deadline misses, semaphore operations) into a bounded ring.
// Figure 2's schedule trace, many integration tests, and the src/obs/
// observability pipeline (Perfetto export, trace analyzer) are built on it.

#ifndef SRC_HAL_TRACE_H_
#define SRC_HAL_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "src/base/ring_buffer.h"
#include "src/base/time.h"

namespace emeralds {

enum class TraceEventType : uint8_t {
  kContextSwitch,   // arg0 = outgoing thread id (-1 = idle), arg1 = incoming
  kJobRelease,      // arg0 = thread id, arg1 = job number
  kJobComplete,     // arg0 = thread id, arg1 = job number
  kDeadlineMiss,    // arg0 = thread id, arg1 = job number
  kSemAcquire,      // arg0 = thread id, arg1 = semaphore id
  kSemAcquireBlock, // arg0 = thread id, arg1 = semaphore id
  kSemRelease,      // arg0 = thread id, arg1 = semaphore id
  kSemCseEarlyPi,   // arg0 = thread id, arg1 = semaphore id (saved switch)
  kPiInherit,       // arg0 = holder thread id, arg1 = donor thread id
  kPiRestore,       // arg0 = holder thread id, arg1 = semaphore id
  kIrq,             // arg0 = line
  kMsgSend,         // arg0 = thread id, arg1 = object id
  kMsgRecv,         // arg0 = thread id, arg1 = object id
  kThreadExit,      // arg0 = thread id
  kPiChainLimit,    // arg0 = thread id, arg1 = semaphore id (depth cap hit)
  kHeadroomLow,     // arg0 = thread id, arg1 = predicted slack in us (signed)
  kChainEmit,       // arg0 = token origin, arg1 = packed endpoint, arg2 = hop/actor
  kChainConsume,    // arg0 = token origin, arg1 = packed endpoint, arg2 = hop/actor
  kTraceEpoch,      // arg0 = epoch number (ring was reset; window starts here)
  kOverheadSpan,    // arg0 = OverheadSpanPack(bucket, core), arg1 = span ns,
                    // arg2 = current thread id + 1 (0 = none). Recorded at the
                    // *end* of every non-user, non-idle clock advance so the
                    // postmortem engine can classify kernel overhead exactly.
  kThreadBlock,     // arg0 = thread id, arg1 = BlockReason (non-sem waits)
  kThreadReady,     // arg0 = thread id, arg1 = BlockReason it was blocked under
};

// One past the last enumerator. Keep in sync when adding event types; the
// round-trip test over [0, kNumTraceEventTypes) catches a missing name.
inline constexpr int kNumTraceEventTypes =
    static_cast<int>(TraceEventType::kThreadReady) + 1;

// kOverheadSpan arg0 packing: cycle bucket in the high byte region, core id
// in the low byte. Both fit comfortably (16 buckets, <= 8 cores).
constexpr int32_t OverheadSpanPack(int bucket, int core) {
  return static_cast<int32_t>((static_cast<uint32_t>(bucket) << 8) |
                              (static_cast<uint32_t>(core) & 0xffu));
}
constexpr int OverheadSpanBucket(int32_t packed) {
  return static_cast<int>(static_cast<uint32_t>(packed) >> 8);
}
constexpr int OverheadSpanCore(int32_t packed) {
  return static_cast<int>(static_cast<uint32_t>(packed) & 0xffu);
}

// --- Causal event-chain encoding -----------------------------------------
//
// kChainEmit / kChainConsume carry a causal token through three packed int32
// args so the chain analyzer (src/obs/chains.h) can reconstruct end-to-end
// dataflow across queueing boundaries:
//   arg0: token origin id (minted from 1, monotone per run; 0 is invalid)
//   arg1: producing/consuming endpoint, ChainEndpointPack(kind, channel id)
//   arg2: ChainHopPack(hop, actor) — hop count plus the acting thread.
// An emit records the producer-side token (origin, hop); its matching
// consume records (origin, hop + 1) and names the consuming thread. Consume
// events may be recorded while the kernel still runs in producer or ISR
// context (direct handoffs), so the actor is always explicit in arg2 and is
// never the thread the trace replayer believes is running.

enum class ChainEndpointKind : int {
  kIrq = 1,   // channel id = IRQ line
  kRelease,   // channel id = thread id (periodic job release)
  kSem,       // channel id = semaphore id (counting handoff)
  kCondvar,   // channel id = condvar id
  kMailbox,   // channel id = mailbox id
  kSmsg,      // channel id = state-message buffer id
};

const char* ChainEndpointKindToString(ChainEndpointKind kind);

constexpr int32_t ChainEndpointPack(ChainEndpointKind kind, int channel_id) {
  return static_cast<int32_t>((static_cast<uint32_t>(kind) << 24) |
                              (static_cast<uint32_t>(channel_id) & 0xffffffu));
}
constexpr ChainEndpointKind ChainEndpointKindOf(int32_t packed) {
  return static_cast<ChainEndpointKind>((static_cast<uint32_t>(packed) >> 24) & 0x7fu);
}
constexpr int ChainEndpointChannel(int32_t packed) {
  return static_cast<int>(static_cast<uint32_t>(packed) & 0xffffffu);
}

// arg2 packing: hop in the high half, actor thread id (+1, so 0 means "no
// thread" — ISR context) in the low half.
constexpr int32_t ChainHopPack(int hop, int actor_thread_id) {
  return static_cast<int32_t>((static_cast<uint32_t>(hop & 0x7fff) << 16) |
                              (static_cast<uint32_t>(actor_thread_id + 1) & 0xffffu));
}
constexpr int ChainHopOf(int32_t packed) {
  return static_cast<int>((static_cast<uint32_t>(packed) >> 16) & 0x7fffu);
}
// -1 when the event was recorded from ISR context (no acting thread).
constexpr int ChainActorOf(int32_t packed) {
  return static_cast<int>(static_cast<uint32_t>(packed) & 0xffffu) - 1;
}

// Hop counts are capped so cyclic pipelines cannot grow tokens without
// bound; a token that reaches the cap is dropped instead of propagated.
inline constexpr int kMaxChainHops = 255;

// The causal token itself: carried in the producing thread's TCB, stamped
// into channel storage (mailbox message, state-message slot, counting-sem
// handoff slot) at emit, and moved onto the consuming thread's TCB at
// consume with the hop count bumped. origin == 0 means "no token".
struct CausalToken {
  uint32_t origin = 0;
  uint16_t hop = 0;
  // Mint instant, stamped when the origin token is created and carried
  // unchanged through every hop: the streaming chain-e2e histogram is
  // final-consume-time minus mint. Not traced and not digested — purely a
  // telemetry rider.
  Instant mint;
  bool valid() const { return origin != 0; }
  void clear() {
    origin = 0;
    hop = 0;
    mint = Instant();
  }
};

const char* TraceEventTypeToString(TraceEventType type);

// Inverse of TraceEventTypeToString; false when `name` is not an event name.
// The trace CSV importer (src/obs/trace_csv.h) is built on it.
bool TraceEventTypeFromString(const char* name, TraceEventType* out);

struct TraceEvent {
  Instant time;
  TraceEventType type = TraceEventType::kContextSwitch;
  int32_t arg0 = 0;
  int32_t arg1 = 0;
  int32_t arg2 = 0;
};

class TraceSink {
 public:
  // `capacity` == 0 disables recording entirely (counting still works).
  explicit TraceSink(size_t capacity)
      : enabled_(capacity > 0), events_(capacity > 0 ? capacity : 1) {}

  void Record(Instant time, TraceEventType type, int32_t arg0, int32_t arg1,
              int32_t arg2 = 0) {
    ++total_recorded_;
    if (enabled_) {
      if (events_.push_overwrite(TraceEvent{time, type, arg0, arg1, arg2})) {
        ++dropped_;
      }
    } else {
      ++dropped_;
    }
  }

  // Oldest-first access to the retained window.
  size_t size() const { return enabled_ ? events_.size() : 0; }
  const TraceEvent& at(size_t index) const { return events_.at(index); }

  // The whole retained window, oldest first, as one span: the ring's own
  // storage while it has not wrapped, otherwise a copy assembled in
  // `scratch` (which is left untouched in the first case). Empty when
  // recording is disabled. Valid until the next Record/Reset/Clear or
  // `scratch` change.
  std::span<const TraceEvent> Window(std::vector<TraceEvent>* scratch) const;

  uint64_t total_recorded() const { return total_recorded_; }

  // Events recorded but not retained: ring evictions plus everything recorded
  // while retention is disabled. total_recorded() == size() + dropped().
  // Non-zero means the retained window is a *suffix* of the run and derived
  // metrics (histograms, invariant checks) describe only that window.
  uint64_t dropped() const { return dropped_; }

  void Clear() {
    events_.clear();
    total_recorded_ = 0;
    dropped_ = 0;
    epochs_ = 0;
  }

  // Deliberate mid-run restart of the retained window: discards the ring
  // contents, clears the dropped() counter (the discard was intentional, not
  // overflow), and records a kTraceEpoch marker as the new window's first
  // event so downstream consumers can tell "ring was reset here" apart from
  // "events were lost to overflow". total_recorded() keeps counting across
  // resets. Unlike Clear(), which wipes the sink back to construction state,
  // Reset() is the one to call while a run is in flight.
  void Reset(Instant now) {
    events_.clear();
    dropped_ = 0;
    ++epochs_;
    Record(now, TraceEventType::kTraceEpoch, static_cast<int32_t>(epochs_), 0);
  }

  // Number of Reset() calls since construction / Clear().
  uint64_t epochs() const { return epochs_; }

  // Writes a human-readable dump of the retained events to `out`
  // (default stdout), followed by a drop note when events were lost.
  void Dump(std::FILE* out = stdout) const;

  // Writes the retained window with WriteTraceCsv, for external plotting
  // (Gantt charts of the schedule) and fleet_inspect --trace replay.
  // Returns the number of data rows written.
  size_t ExportCsv(std::FILE* out) const;

 private:
  bool enabled_;
  RingBuffer<TraceEvent> events_;
  uint64_t total_recorded_ = 0;
  uint64_t dropped_ = 0;
  uint64_t epochs_ = 0;
};

// Writes `events` as CSV (time_us,event,arg0,arg1,arg2) to `out`, one row
// per event. When `dropped` > 0, a trailing "# dropped=N" comment line
// records the loss. The one trace CSV format: TraceSink::ExportCsv and the
// black-box bundle's trace.csv both write it, obs::ImportTraceCsv reads it.
void WriteTraceCsv(std::FILE* out, std::span<const TraceEvent> events, uint64_t dropped);

// FNV-1a over `len` bytes of `data`, continuing from `hash`.
inline constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
uint64_t Fnv1a(uint64_t hash, const void* data, size_t len);

// Run digest of the fleet and torture harnesses. Each record of `window`
// is packed into three 64-bit words (time in us; type | arg0 << 32;
// arg1 | arg2 << 32), and each word is folded into its own lane by a step
// that is a bijection of the lane state (xor, multiply by an odd constant,
// xor-shift). The lanes are then combined with the same step, followed by
// the window length and the caller's kernel counters. Equal digests ==
// bit-identical runs; a change to any single field of any record, or to any
// single counter, always changes the digest.
uint64_t DigestTrace(std::span<const TraceEvent> window, std::span<const uint64_t> counters);

}  // namespace emeralds

#endif  // SRC_HAL_TRACE_H_
