// Figure 2 / Table 2: the workload that is feasible under EDF but not under
// RM. Runs the actual kernel on the reconstructed Table 2 task set under RM,
// EDF, and CSD-2 (tau_1..tau_5 in the DP queue) and prints the schedule
// trace for the first 12 ms plus a deadline summary.
//
// Expected shape (paper): under RM, tau_1..tau_4 execute twice before tau_5
// ever runs, so tau_5 misses its 8 ms deadline; under EDF (and CSD) the
// workload is feasible.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/taskset_runner.h"
#include "src/hal/hardware.h"
#include "src/obs/obs_report.h"
#include "src/workload/workload.h"

namespace emeralds {
namespace {

// With EMERALDS_OBS_DIR set, each scenario also exports its observability
// bundle there: <slug>.trace.csv (TraceSink window), <slug>.perfetto.json
// (load at ui.perfetto.dev), <slug>.run.json (emeralds.obs.run/1). The
// obs_smoke CTest label runs the RM scenario this way and feeds the bundle
// through bench_json_check and fleet_inspect --trace.
void ExportObsBundle(const char* slug, const char* scheduler, Kernel& kernel,
                     const std::vector<ThreadId>& ids, Duration horizon) {
  const char* dir = std::getenv("EMERALDS_OBS_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return;
  }
  std::string base = std::string(dir) + "/" + slug;
  obs::ObsRunInfo info;
  info.label = slug;
  info.scheduler = scheduler;
  info.run_duration = horizon;
  if (!obs::WriteObsBundle(base, info, kernel, ids)) {
    std::fprintf(stderr, "fig2: cannot write %s.{trace.csv,perfetto.json,run.json}\n",
                 base.c_str());
    std::exit(1);
  }
  std::printf("[obs] wrote %s.{trace.csv,perfetto.json,run.json}\n", base.c_str());
}

void RunScenario(const char* label, const char* slug, SchedulerSpec spec,
                 const std::vector<int>& bands, bool print_trace) {
  Hardware hw;
  KernelConfig config;
  config.scheduler = spec;
  config.cost_model = CostModel::Zero();  // the paper's Figure 2 is idealized
  config.trace_capacity = 8192;
  Kernel kernel(hw, config);
  kernel.EnableStatsSampling(Milliseconds(5), 64);
  TaskSet set = Table2Workload();
  std::vector<ThreadId> ids = SpawnTaskSet(kernel, set, bands);
  kernel.Start();
  kernel.RunUntil(Instant() + Milliseconds(40));
  ExportObsBundle(slug, label, kernel, ids, Milliseconds(40));

  std::printf("--- %s ---\n", label);
  if (print_trace) {
    std::printf("schedule trace, first 12 ms (thread -1 = idle):\n");
    TraceSink& trace = kernel.trace();
    for (size_t i = 0; i < trace.size(); ++i) {
      const TraceEvent& event = trace.at(i);
      if (event.time > Instant() + Milliseconds(12)) {
        break;
      }
      if (event.type == TraceEventType::kContextSwitch) {
        std::printf("  %7.3f ms  run tau_%d\n", event.time.millis_f(), event.arg1 + 1);
      } else if (event.type == TraceEventType::kDeadlineMiss) {
        std::printf("  %7.3f ms  ** tau_%d MISSES its deadline (job %d) **\n",
                    event.time.millis_f(), event.arg0 + 1, event.arg1);
      }
    }
  }
  std::printf("deadline misses over 40 ms:");
  bool any = false;
  for (size_t i = 0; i < ids.size(); ++i) {
    uint64_t misses = kernel.thread(ids[i]).deadline_misses;
    if (misses > 0) {
      std::printf("  tau_%zu: %llu", i + 1, static_cast<unsigned long long>(misses));
      any = true;
    }
  }
  std::printf("%s\n\n", any ? "" : "  none");
}

}  // namespace
}  // namespace emeralds

int main() {
  using namespace emeralds;
  std::printf("Table 2 workload (reconstructed, U = %.3f):\n", Table2Workload().Utilization());
  TaskSet set = Table2Workload();
  for (int i = 0; i < set.size(); ++i) {
    std::printf("  tau_%-2d P = %4lld ms  c = %5.2f ms\n", i + 1,
                static_cast<long long>(set.tasks[i].period.millis()),
                set.tasks[i].wcet.millis_f());
  }
  std::printf("\n");
  RunScenario("RM (Figure 2: tau_5 starves)", "fig2_rm", SchedulerSpec::Rm(), {},
              /*print_trace=*/true);
  RunScenario("EDF (feasible)", "fig2_edf", SchedulerSpec::Edf(), {}, /*print_trace=*/false);
  RunScenario("CSD-2, tau_1..tau_5 in the DP queue (feasible)", "fig2_csd2",
              SchedulerSpec::Csd(2), {0, 0, 0, 0, 0, 1, 1, 1, 1, 1}, /*print_trace=*/false);
  return 0;
}
