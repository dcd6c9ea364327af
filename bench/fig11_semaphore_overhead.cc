// Figure 11: semaphore acquire/release overhead in the contended scenario of
// Figure 6, versus the number of tasks in the scheduler queue, for the
// standard implementation and EMERALDS's CSE scheme.
//
// Scenario: low-priority T1 computes until t=9ms, then locks S for 3ms of
// work; high-priority T2's periodic release at t=10ms finds S locked. The
// harness measures the semaphore-path virtual time (semaphore bookkeeping,
// priority inheritance, and the scheduler/context-switch work the semaphore
// operations trigger) in the window [9.5ms, 12.5ms] that covers the
// contended acquire and the handoff release. Queue length is swept by adding
// blocked filler tasks (the queues hold blocked tasks too).
//
// Expected shape (paper):
//  * DP (EDF) queue: both curves linear in queue length; the standard
//    implementation's slope is twice the new scheme's (two context switches
//    each paying the O(n) selection vs one). ~28% saving at length 15.
//  * FP (RM) queue: the standard implementation grows linearly (O(n) PI
//    re-inserts and the t_b scan) while the new scheme is constant
//    (place-holder swaps + highestp). ~26% saving at length 15.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/kernel.h"
#include "src/hal/hardware.h"
#include "src/obs/obs_report.h"

namespace emeralds {
namespace {

double MeasurePairOverheadUs(SchedulerSpec spec, SemMode mode, int queue_length,
                             bool with_obs = false) {
  Hardware hw;
  KernelConfig config;
  config.scheduler = spec;
  config.cost_model = CostModel::MC68040_25MHz();
  config.default_sem_mode = mode;
  config.trace_capacity = with_obs ? 4096 : 0;
  config.max_threads = 64;
  Kernel kernel(hw, config);
  if (with_obs) {
    kernel.EnableStatsSampling(Milliseconds(2), 64);
  }
  SemId sem = kernel.CreateSemaphoreWithMode("S", 1, mode).value();

  // T2: high priority, contends at its second release (t=10ms).
  ThreadParams t2;
  t2.name = "T2";
  t2.period = Milliseconds(10);
  t2.body = [sem](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Acquire(sem);
      co_await api.Compute(Milliseconds(1));
      co_await api.Release(sem);
      co_await api.WaitNextPeriod(sem);  // parser-inserted hint
    }
  };
  std::vector<ThreadId> ids;
  ids.push_back(kernel.CreateThread(t2).value());

  // T1: low priority; holds S across T2's release.
  ThreadParams t1;
  t1.name = "T1";
  t1.period = Milliseconds(50);
  t1.body = [sem](ThreadApi api) -> ThreadBody {
    co_await api.Compute(Milliseconds(8));
    co_await api.Acquire(sem);
    co_await api.Compute(Milliseconds(3));
    co_await api.Release(sem);
    co_await api.WaitNextPeriod();
  };
  ids.push_back(kernel.CreateThread(t1).value());

  // Fillers: released far beyond the horizon, so they sit blocked in the
  // queue and only lengthen parses and scans. Their periods (11..48 ms) rank
  // them *between* T2 and T1 in the FP queue — exactly the span the standard
  // implementation's t_b scan and PI re-inserts must traverse.
  for (int i = 0; i < queue_length - 2; ++i) {
    ThreadParams filler;
    filler.name = "filler";
    filler.period = Milliseconds(11 + (i % 38));
    filler.first_release = Seconds(50);
    filler.body = [](ThreadApi api) -> ThreadBody {
      for (;;) {
        co_await api.WaitNextPeriod();
      }
    };
    kernel.CreateThread(filler);
  }

  kernel.Start();
  kernel.RunUntil(Instant() + Microseconds(9500));
  kernel.ResetChargeAccounting();
  kernel.RunUntil(Instant() + Microseconds(12500));

  // Representative observability bundle (EMERALDS_OBS_DIR): the contended
  // CSE handoff is the run worth looking at in Perfetto — the early-PI
  // marker and the saved context switch are directly visible.
  if (with_obs) {
    const char* dir = std::getenv("EMERALDS_OBS_DIR");
    if (dir != nullptr && dir[0] != '\0') {
      std::string base = std::string(dir) + "/fig11_contended";
      obs::ObsRunInfo info;
      info.label = "fig11_contended";
      info.scheduler = "FP";
      info.run_duration = Microseconds(12500);
      if (!obs::WriteObsBundle(base, info, kernel, ids)) {
        std::fprintf(stderr, "fig11: cannot write %s.{trace.csv,perfetto.json,run.json}\n",
                     base.c_str());
        std::exit(1);
      }
      std::printf("[obs] wrote %s.{trace.csv,perfetto.json,run.json}\n", base.c_str());
    }
  }
  return kernel.stats().sem_path_time.micros_f();
}

void RunSweep(const char* label, SchedulerSpec spec) {
  std::printf("%s queue: semaphore pair overhead (us) vs queue length\n", label);
  std::printf("%4s %10s %10s %10s\n", "n", "standard", "new", "saving");
  double std15 = 0.0;
  double new15 = 0.0;
  for (int n = 3; n <= 30; n += 3) {
    double standard = MeasurePairOverheadUs(spec, SemMode::kStandard, n);
    double cse = MeasurePairOverheadUs(spec, SemMode::kCse, n);
    std::printf("%4d %10.2f %10.2f %9.1f%%\n", n, standard, cse,
                100.0 * (standard - cse) / standard);
    if (n == 15) {
      std15 = standard;
      new15 = cse;
    }
  }
  if (std15 > 0.0) {
    std::printf("at queue length 15: saving %.1f us (%.0f%%)\n", std15 - new15,
                100.0 * (std15 - new15) / std15);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace emeralds

int main() {
  using namespace emeralds;
  RunSweep("DP (EDF)", SchedulerSpec::Edf());
  std::printf("paper anchors (DP): standard slope = 2x new slope; ~11 us (28%%) saved at 15\n\n");
  RunSweep("FP (RM)", SchedulerSpec::Rm());
  std::printf("paper anchors (FP): new scheme constant (29.4 us in the paper's accounting);\n");
  std::printf("standard linear; ~10.4 us (26%%) saved at queue length 15\n");
  if (std::getenv("EMERALDS_OBS_DIR") != nullptr) {
    MeasurePairOverheadUs(SchedulerSpec::Rm(), SemMode::kCse, 15, /*with_obs=*/true);
  }
  return 0;
}
