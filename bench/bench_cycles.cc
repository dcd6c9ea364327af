// bench_cycles: the cycle-attribution baseline workload.
//
// One deterministic 2-second CSD-3 run exercising every cost-charging path
// the ledger attributes: periodic tasks across both DP bands and the FP
// band, CSE semaphore contention (priority inheritance included), a mailbox
// producer/consumer pair, a single-writer state message, an IRQ-driven
// driver thread fed by host-side raises at fixed slice boundaries, and the
// periodic stats sampler (whose own overhead lands in the stats_obs
// bucket). The run is pure virtual time, so the resulting per-bucket ledger
// is bit-identical across machines — which is what lets CI diff it against
// the committed BENCH_cycles.json with bench_compare.
//
// Output: an emeralds.obs.cycles/1 report at $EMERALDS_BENCH_JSON (default
// ./BENCH_cycles.json), plus the full observability bundle under
// $EMERALDS_OBS_DIR when set. Exit status 1 when the shared node oracle
// suite (obs::RunNodeOracles, cycle conservation included) fails or an
// output file cannot be written, 0 otherwise.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "src/base/file.h"
#include "src/core/kernel.h"
#include "src/core/taskset_runner.h"
#include "src/hal/hardware.h"
#include "src/obs/cycles_report.h"
#include "src/obs/obs_report.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace {

constexpr Duration kRunTime = Seconds(2);

// All cycle traffic in one kernel: returns the spawned thread ids.
std::vector<ThreadId> BuildWorkload(Kernel& kernel) {
  std::vector<ThreadId> ids;
  SemId sensor = kernel.CreateSemaphore("sensor", 1).value();
  MailboxId frames = kernel.CreateMailbox("frames", 4).value();
  SmsgId pose = kernel.CreateStateMessage("pose", 32, 2).value();

  // DP1: high-rate control loop contending on the sensor lock. The 1 ms
  // offset lands its releases inside filter's hold window, so the run has
  // real blocking and priority inheritance.
  ThreadParams ctrl;
  ctrl.name = "ctrl";
  ctrl.period = Milliseconds(2);
  ctrl.first_release = Milliseconds(1);
  ctrl.band = 0;
  ctrl.body = [sensor](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Microseconds(150));
      co_await api.Acquire(sensor);
      co_await api.Compute(Microseconds(100));
      co_await api.Release(sensor);
      co_await api.WaitNextPeriod(sensor);  // CSE hint
    }
  };
  ids.push_back(kernel.CreateThread(ctrl).value());

  // DP1: filter holding the lock long enough that ctrl blocks and inherits.
  ThreadParams filter;
  filter.name = "filter";
  filter.period = Milliseconds(5);
  filter.band = 0;
  filter.body = [sensor](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Acquire(sensor);
      co_await api.Compute(Microseconds(1500));
      co_await api.Release(sensor);
      co_await api.Compute(Microseconds(200));
      co_await api.WaitNextPeriod(sensor);
    }
  };
  ids.push_back(kernel.CreateThread(filter).value());

  // DP2: planner publishes the pose state message each period.
  ThreadParams planner;
  planner.name = "planner";
  planner.period = Milliseconds(10);
  planner.band = 1;
  planner.body = [pose](ThreadApi api) -> ThreadBody {
    uint8_t buf[32] = {};
    for (;;) {
      co_await api.Compute(Microseconds(1200));
      buf[0] = static_cast<uint8_t>(api.job_number());
      co_await api.StateWrite(pose, std::span<const uint8_t>(buf, sizeof(buf)));
      co_await api.WaitNextPeriod();
    }
  };
  ids.push_back(kernel.CreateThread(planner).value());

  // DP2: producer feeds the mailbox; TrySend keeps it non-blocking.
  ThreadParams producer;
  producer.name = "producer";
  producer.period = Milliseconds(4);
  producer.band = 1;
  producer.body = [frames](ThreadApi api) -> ThreadBody {
    uint8_t payload[16] = {};
    for (;;) {
      co_await api.Compute(Microseconds(250));
      payload[0] = static_cast<uint8_t>(api.job_number());
      co_await api.TrySend(frames, std::span<const uint8_t>(payload, sizeof(payload)));
      co_await api.WaitNextPeriod();
    }
  };
  ids.push_back(kernel.CreateThread(producer).value());

  // FP: consumer drains the mailbox with a bounded wait, reads the pose.
  ThreadParams consumer;
  consumer.name = "consumer";
  consumer.period = Milliseconds(4);
  consumer.body = [frames, pose](ThreadApi api) -> ThreadBody {
    uint8_t buf[32];
    for (;;) {
      co_await api.Recv(frames, std::span<uint8_t>(buf, sizeof(buf)), Milliseconds(1));
      co_await api.StateRead(pose, std::span<uint8_t>(buf, sizeof(buf)));
      co_await api.Compute(Microseconds(300));
      co_await api.WaitNextPeriod();
    }
  };
  ids.push_back(kernel.CreateThread(consumer).value());

  // FP: background logger, long compute, frequently preempted.
  ThreadParams logger;
  logger.name = "logger";
  logger.period = Milliseconds(50);
  logger.body = [](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.Compute(Milliseconds(5));
      co_await api.WaitNextPeriod();
    }
  };
  ids.push_back(kernel.CreateThread(logger).value());

  // Aperiodic IRQ-driven driver; the host raises its line at fixed slice
  // boundaries below.
  ThreadParams driver;
  driver.name = "driver";
  driver.body = [](ThreadApi api) -> ThreadBody {
    for (;;) {
      co_await api.WaitIrq(kIrqFieldbus);
      co_await api.Compute(Microseconds(120));
    }
  };
  ThreadId driver_id = kernel.CreateThread(driver).value();
  kernel.BindIrqThread(driver_id, kIrqFieldbus);
  ids.push_back(driver_id);
  return ids;
}

int Run() {
  Hardware hw;
  KernelConfig config;
  config.scheduler = SchedulerSpec::Csd(3);
  config.cost_model = CostModel::MC68040_25MHz();
  config.trace_capacity = 65536;
  config.default_sem_mode = SemMode::kCse;
  // Margin chosen just above ctrl's steady-state predicted slack (~1.73 ms)
  // so the headroom monitor fires on the tightest task and the baseline
  // exercises the low-headroom trace/stat path end to end.
  config.headroom_low_margin = Microseconds(1800);
  Kernel kernel(hw, config);
  kernel.EnableStatsSampling(Milliseconds(10), 256);

  std::vector<ThreadId> ids = BuildWorkload(kernel);
  kernel.Start();

  // Fixed-cadence host IRQ raises: every 7th millisecond slice.
  Instant end = Instant() + kRunTime;
  int slice = 0;
  while (kernel.now() < end) {
    Instant next = Instant() + Milliseconds(++slice);
    if (next > end) {
      next = end;
    }
    kernel.RunUntil(next);
    if (slice % 7 == 0) {
      hw.irq().Raise(kIrqFieldbus);
    }
  }

  std::vector<TraceEvent> scratch;
  obs::NodeOracles oracles =
      obs::RunNodeOracles(kernel, kernel.trace().Window(&scratch), kernel.trace().dropped());
  const CycleConservation& conservation = oracles.cycles;
  std::printf("bench_cycles: CSD-3, %lld ms virtual time\n",
              static_cast<long long>(kRunTime.millis()));
  PrintKernelStats(kernel.stats());
  std::printf("conservation: ledger %.1f us vs elapsed %.1f us -> %s\n",
              conservation.ledger_total.micros_f(), conservation.elapsed.micros_f(),
              conservation.exact() ? "exact" : "VIOLATED");
  std::printf("oracles: %s (%llu trace records dropped)\n",
              oracles.ok() ? "ok" : oracles.failure.c_str(),
              static_cast<unsigned long long>(kernel.trace().dropped()));

  std::string json_path = BenchJsonPath("BENCH_cycles.json");
  if (!WriteTextFile(json_path, obs::BuildCyclesReport("bench_cycles", "CSD-3", kernel, ids))) {
    std::fprintf(stderr, "bench_cycles: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  // Full observability bundle for CI artifacts.
  const char* dir = std::getenv("EMERALDS_OBS_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    std::string base = std::string(dir) + "/bench_cycles";
    obs::ObsRunInfo info;
    info.label = "bench_cycles";
    info.scheduler = "CSD-3";
    info.run_duration = kRunTime;
    if (!obs::WriteObsBundle(base, info, kernel, ids)) {
      std::fprintf(stderr, "bench_cycles: cannot write %s.{trace.csv,perfetto.json,run.json}\n",
                   base.c_str());
      return 1;
    }
    std::printf("[obs] wrote %s.{trace.csv,perfetto.json,run.json}\n", base.c_str());
  }
  return oracles.ok() ? 0 : 1;
}

}  // namespace
}  // namespace emeralds

int main() { return emeralds::Run(); }
