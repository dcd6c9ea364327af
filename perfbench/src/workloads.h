// The benchmark's workloads. Each one builds its inputs from the seed, then
// either measures end to end (untraced) or records spans around the calls
// into each layer (traced). perfbench/README.md says why each workload
// exists and which layer metric should move which end-to-end one.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/spans.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs from the seed: the process's whole set-up phase, which
  // run.py times across fresh processes as setup_s.
  virtual void Setup(uint64_t seed) = 0;

  // Untraced run: one warm-up repetition, timed repetitions for
  // args.seconds, output checks. Emits work_per_s and vcpu_overhead_pct.
  virtual void Measure(const RunArgs& args, Outcome* out) = 0;

  // Traced run. As the workload under test (`focus`), it alternates traced
  // and untraced repetitions for args.seconds and reports the difference as
  // the tracing overhead; as a layer probe it makes one traced pass. Either
  // way it then times each layer it exercises and emits the layer metrics.
  virtual void MeasureLayers(const RunArgs& args, bool focus, SpanLog* log, Outcome* out) = 0;
};

// nullptr for an unknown name. Names: fleet_long, fleet_wrap, torture_smp,
// csd_search.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Reduced shapes that fill the per-layer metrics of layers the workload
// under test does not exercise.
std::unique_ptr<Workload> MakeFleetProbe();
std::unique_ptr<Workload> MakeTortureProbe();
std::unique_ptr<Workload> MakeCsdProbe();

std::unique_ptr<Workload> MakeFleetWorkload(int instances, int64_t run_ms, size_t trace_capacity,
                                            int workers);
std::unique_ptr<Workload> MakeTortureWorkload(int seeds, int ops);
std::unique_ptr<Workload> MakeCsdWorkload(int sets_per_size);

// Standalone microbenchmarks of TraceSink::Record and the timer wheel; the
// hal.* metrics.
void MeasureLayerMicro(uint64_t seed, SpanLog* log, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
