#include "src/hal/trace.h"

#include <cstdio>
#include <cstring>

namespace emeralds {

const char* TraceEventTypeToString(TraceEventType type) {
  switch (type) {
    case TraceEventType::kContextSwitch:
      return "context_switch";
    case TraceEventType::kJobRelease:
      return "job_release";
    case TraceEventType::kJobComplete:
      return "job_complete";
    case TraceEventType::kDeadlineMiss:
      return "deadline_miss";
    case TraceEventType::kSemAcquire:
      return "sem_acquire";
    case TraceEventType::kSemAcquireBlock:
      return "sem_acquire_block";
    case TraceEventType::kSemRelease:
      return "sem_release";
    case TraceEventType::kSemCseEarlyPi:
      return "sem_cse_early_pi";
    case TraceEventType::kPiInherit:
      return "pi_inherit";
    case TraceEventType::kPiRestore:
      return "pi_restore";
    case TraceEventType::kIrq:
      return "irq";
    case TraceEventType::kMsgSend:
      return "msg_send";
    case TraceEventType::kMsgRecv:
      return "msg_recv";
    case TraceEventType::kThreadExit:
      return "thread_exit";
    case TraceEventType::kPiChainLimit:
      return "pi_chain_limit";
    case TraceEventType::kHeadroomLow:
      return "headroom_low";
    case TraceEventType::kChainEmit:
      return "chain_emit";
    case TraceEventType::kChainConsume:
      return "chain_consume";
    case TraceEventType::kTraceEpoch:
      return "trace_epoch";
    case TraceEventType::kOverheadSpan:
      return "overhead_span";
    case TraceEventType::kThreadBlock:
      return "thread_block";
    case TraceEventType::kThreadReady:
      return "thread_ready";
  }
  return "?";
}

const char* ChainEndpointKindToString(ChainEndpointKind kind) {
  switch (kind) {
    case ChainEndpointKind::kIrq:
      return "irq";
    case ChainEndpointKind::kRelease:
      return "release";
    case ChainEndpointKind::kSem:
      return "sem";
    case ChainEndpointKind::kCondvar:
      return "cv";
    case ChainEndpointKind::kMailbox:
      return "mbox";
    case ChainEndpointKind::kSmsg:
      return "smsg";
  }
  return "?";
}

bool TraceEventTypeFromString(const char* name, TraceEventType* out) {
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    TraceEventType type = static_cast<TraceEventType>(i);
    if (std::strcmp(name, TraceEventTypeToString(type)) == 0) {
      *out = type;
      return true;
    }
  }
  return false;
}

std::span<const TraceEvent> TraceSink::Window(std::vector<TraceEvent>* scratch) const {
  if (!enabled_) {
    return {};
  }
  std::span<const TraceEvent> first = events_.first_run();
  std::span<const TraceEvent> second = events_.second_run();
  if (second.empty()) {
    return first;
  }
  scratch->clear();
  scratch->reserve(first.size() + second.size());
  scratch->insert(scratch->end(), first.begin(), first.end());
  scratch->insert(scratch->end(), second.begin(), second.end());
  return *scratch;
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t len) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

// One digest step: xor in a word, multiply by an odd constant, xor-shift.
// Each of the three is a bijection of the state, and the xor also makes the
// step a bijection of the word, so two inputs that differ in exactly one word
// never share a digest.
constexpr uint64_t kDigestMultiplier = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kDigestSeed = 0x243f6a8885a308d3ULL;

inline uint64_t DigestStep(uint64_t state, uint64_t word) {
  state = (state ^ word) * kDigestMultiplier;
  return state ^ (state >> 32);
}

}  // namespace

uint64_t DigestTrace(std::span<const TraceEvent> window, std::span<const uint64_t> counters) {
  // One lane per record word, so the three multiply chains run side by side.
  uint64_t time_lane = kDigestSeed;
  uint64_t head_lane = kDigestSeed + 1;
  uint64_t tail_lane = kDigestSeed + 2;
  for (const TraceEvent& e : window) {
    time_lane = DigestStep(time_lane, static_cast<uint64_t>(e.time.micros()));
    head_lane = DigestStep(head_lane, static_cast<uint64_t>(e.type) |
                                          uint64_t{static_cast<uint32_t>(e.arg0)} << 32);
    tail_lane = DigestStep(tail_lane, uint64_t{static_cast<uint32_t>(e.arg1)} |
                                          uint64_t{static_cast<uint32_t>(e.arg2)} << 32);
  }
  uint64_t hash = DigestStep(DigestStep(time_lane, head_lane), tail_lane);
  hash = DigestStep(hash, window.size());
  for (uint64_t counter : counters) {
    hash = DigestStep(hash, counter);
  }
  return hash;
}

void WriteTraceCsv(std::FILE* out, std::span<const TraceEvent> events, uint64_t dropped) {
  std::fprintf(out, "time_us,event,arg0,arg1,arg2\n");
  for (const TraceEvent& e : events) {
    std::fprintf(out, "%lld,%s,%d,%d,%d\n", static_cast<long long>(e.time.micros()),
                 TraceEventTypeToString(e.type), e.arg0, e.arg1, e.arg2);
  }
  if (dropped > 0) {
    std::fprintf(out, "# dropped=%llu\n", static_cast<unsigned long long>(dropped));
  }
}

size_t TraceSink::ExportCsv(std::FILE* out) const {
  std::vector<TraceEvent> scratch;
  std::span<const TraceEvent> window = Window(&scratch);
  WriteTraceCsv(out, window, dropped_);
  return window.size();
}

void TraceSink::Dump(std::FILE* out) const {
  for (size_t i = 0; i < size(); ++i) {
    const TraceEvent& e = at(i);
    std::fprintf(out, "%12.3fms  %-18s %4d %4d %4d\n", e.time.millis_f(),
                 TraceEventTypeToString(e.type), e.arg0, e.arg1, e.arg2);
  }
  if (dropped_ > 0) {
    std::fprintf(out, "(%llu of %llu events dropped; window shows the most recent %zu)\n",
                 static_cast<unsigned long long>(dropped_),
                 static_cast<unsigned long long>(total_recorded_), size());
  }
}

}  // namespace emeralds
