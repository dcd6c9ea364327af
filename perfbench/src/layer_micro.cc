// Per-layer microbenchmarks, measured from outside the layer: TraceSink::Record
// into a ring that is still filling and into one that wraps, and the timer
// wheel's arm/cancel/service at a node's depth (8 pending) and at 10k pending
// through bench::MeasureTimerQueuePoint.

#include <memory>
#include <vector>

#include "bench/bench_timers.h"
#include "perfbench/src/workloads.h"
#include "src/base/rng.h"
#include "src/hal/trace.h"

namespace perfbench {
namespace {

using emeralds::TraceEventType;

constexpr size_t kRecords = size_t{1} << 20;
constexpr size_t kWrapCapacity = 4096;  // fleet_wrap's ring

// Mean ns per Record of `kRecords` events into a fresh sink of `capacity`;
// the sink is built before timing starts.
double RecordNs(size_t capacity, const std::vector<int32_t>& args) {
  auto sink = std::make_unique<emeralds::TraceSink>(capacity);
  emeralds::Instant t;
  double t0 = NowSeconds();
  for (size_t i = 0; i < kRecords; ++i) {
    t += emeralds::Nanoseconds(1000);
    sink->Record(t, TraceEventType::kContextSwitch, args[i & 1023], args[(i + 1) & 1023], 0);
  }
  double ns = 1e9 * (NowSeconds() - t0) / static_cast<double>(kRecords);
  if (sink->total_recorded() != kRecords) {
    return -1.0;
  }
  return ns;
}

double WheelNs(const emeralds::fleet::TimerBenchPoint& p) {
  return p.wheel_arm_ns + p.wheel_cancel_ns + p.wheel_service_ns;
}

}  // namespace

void MeasureLayerMicro(uint64_t seed, SpanLog* log, Outcome* out) {
  emeralds::Rng rng(seed);
  std::vector<int32_t> args(1024);
  for (int32_t& a : args) {
    a = static_cast<int32_t>(rng.UniformInt(0, 31));
  }
  std::vector<double> retain;
  std::vector<double> wrap;
  {
    ScopedSpan s(log, "hal.TraceSink::Record");
    for (int rep = 0; rep < 7; ++rep) {
      retain.push_back(RecordNs(kRecords, args));
      wrap.push_back(RecordNs(kWrapCapacity, args));
    }
  }
  out->Check(Quantile(retain, 0.0) > 0.0 && Quantile(wrap, 0.0) > 0.0,
             "TraceSink counted every recorded event");
  out->Set("hal.trace_record_ns_retain", Median(retain), "ns");
  out->Set("hal.trace_record_ns_wrap", Median(wrap), "ns");

  // One arm + cancel + service of the wheel, per depth; the medians of
  // repeated points, each with its own expiries.
  std::vector<double> node;
  std::vector<double> deep;
  {
    ScopedSpan s(log, "hal.TimerQueue");
    for (int rep = 0; rep < 15; ++rep) {
      node.push_back(WheelNs(emeralds::bench::MeasureTimerQueuePoint(8, seed + rep)));
    }
    for (int rep = 0; rep < 7; ++rep) {
      deep.push_back(WheelNs(emeralds::bench::MeasureTimerQueuePoint(10000, seed + rep)));
    }
  }
  out->Set("hal.timer_queue_ns_node", Median(node), "ns");
  out->Set("hal.timer_queue_ns_10k", Median(deep), "ns");
}

}  // namespace perfbench
