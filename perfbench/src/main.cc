// Benchmark program. Usage:
//
//   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--out-dir DIR]
//
// Untraced (--trace 0) it measures the workload end to end, set-up included;
// traced (--trace 1) it records spans around each layer's calls and reports
// the per-layer metrics, filling layers the workload does not exercise from
// reduced probes of the other workloads. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fleet_long") {
    return MakeFleetWorkload(64, 1000, 0, 1);
  }
  if (name == "fleet_wrap") {
    return MakeFleetWorkload(1024, 500, 4096, 2);
  }
  if (name == "torture_smp") {
    return MakeTortureWorkload(200, 5000);
  }
  if (name == "csd_search") {
    return MakeCsdWorkload(40);
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeFleetProbe() { return MakeFleetWorkload(16, 100, 0, 1); }
std::unique_ptr<Workload> MakeTortureProbe() { return MakeTortureWorkload(20, 5000); }
std::unique_ptr<Workload> MakeCsdProbe() { return MakeCsdWorkload(2); }

namespace {

// setup_s samples are taken in slices of this long, one before each
// repetition of the untraced run.
constexpr double kSetupSliceSeconds = 0.1;
// A sample times a batch of set-ups sized from one untimed set-up to take
// about this long, so that set-ups of a fraction of a microsecond are timed
// well above the clock's resolution.
constexpr double kSetupSampleSeconds = 1e-3;
// The quantile of the samples reported as setup_s.
constexpr double kSetupQuantile = 0.01;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_long|fleet_wrap|torture_smp|csd_search "
               "--seed N [--seconds S] [--trace 0|1] [--out-dir DIR]\n");
  return 2;
}

// The set-up main() does before the first timed call: make the workload and
// build its inputs from the seed.
std::unique_ptr<Workload> Prepare(const RunArgs& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  workload->Setup(args.seed);
  return workload;
}

// Samples of the wall seconds of one Prepare(), the workload discarded
// again. setup_s is their kSetupQuantile quantile, taken in slices spread
// over the whole run. On a 4-vCPU Xeon virtual machine shared with other
// tenants, short loops like these ran at one of two speeds up to 1.8x apart,
// switching every few hundred milliseconds but often keeping the slow one
// for seconds. The median of samples taken in one go jumped between the two
// speeds from run to run, and so, less often, did their 1st percentile. The
// 1st percentile of samples spread over the run is the set-up's cost at the
// fast speed, which work added to set-up still raises.
class SetupSampler {
 public:
  explicit SetupSampler(const RunArgs& args) : args_(args) {
    double t0 = NowSeconds();
    Prepare(args_);
    batch_ = std::max(1, static_cast<int>(kSetupSampleSeconds / (NowSeconds() - t0)));
  }

  // Takes samples for `seconds`.
  void Sample(double seconds) {
    double start = NowSeconds();
    while (NowSeconds() - start < seconds) {
      double t0 = NowSeconds();
      for (int i = 0; i < batch_; ++i) {
        Prepare(args_);
      }
      samples_.push_back((NowSeconds() - t0) / batch_);
    }
  }

  double SetupSeconds() const {
    double setup_s = Quantile(samples_, kSetupQuantile);
    std::printf("# setup_s: %zu samples of %d set-ups, median %.6g s, p1 %.6g s\n",
                samples_.size(), batch_, Median(samples_), setup_s);
    return setup_s;
  }

 private:
  RunArgs args_;
  int batch_ = 1;
  std::vector<double> samples_;
};

void PrintResult(const Outcome& out) {
  for (const Metric& m : out.metrics()) {
    std::printf("# %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# failed_ratio %.6g (%llu of %llu checks)\n",
              out.attempted() > 0 ? static_cast<double>(out.failed()) / out.attempted() : 1.0,
              static_cast<unsigned long long>(out.failed()),
              static_cast<unsigned long long>(out.attempted()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.failed() == 0 && out.attempted() > 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted()),
              static_cast<unsigned long long>(out.failed()));
  const char* sep = "";
  for (const Metric& m : out.metrics()) {
    double value = std::isfinite(m.value) ? m.value : 0.0;  // counted as failed above
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  double main_start = NowSeconds();
  RunArgs args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0' && *value != '\0' && *value != '-';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      args.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (MakeWorkload(args.workload) == nullptr || !have_seed) {
    return Usage();
  }
  std::unique_ptr<Workload> workload = Prepare(args);
  double first_setup_s = NowSeconds() - main_start;

  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("# first set-up, from the start of main(): %.6g s\n", first_setup_s);
  Outcome out;
  if (!args.trace) {
    SetupSampler setup(args);
    args.between_reps = [&setup] { setup.Sample(kSetupSliceSeconds); };
    workload->Measure(args, &out);
    out.Set("setup_s", setup.SetupSeconds(), "s");
    out.Set("peak_rss_mb", PeakRssMb(&out), "MB");
  } else {
    SpanLog log;
    // Layers the workload does not exercise come from reduced probes. They
    // run first, the fleet probe before the others: glibc raises its mmap
    // threshold when a large block is freed, so after a torture sweep the
    // fleet probe's rings would come from reused heap and fault no pages.
    // The workload's own values are kept where both report a metric.
    Outcome probed;
    bool fleet = args.workload.rfind("fleet_", 0) == 0;
    std::unique_ptr<Workload> probes[] = {
        fleet ? nullptr : MakeFleetProbe(),
        args.workload == "torture_smp" ? nullptr : MakeTortureProbe(),
        args.workload == "csd_search" ? nullptr : MakeCsdProbe(),
    };
    for (std::unique_ptr<Workload>& probe : probes) {
      if (probe != nullptr) {
        probe->Setup(args.seed);
        probe->MeasureLayers(args, false, &log, &probed);
      }
    }
    workload->MeasureLayers(args, true, &log, &out);
    size_t own = out.metrics().size();
    out.Merge(probed);
    std::printf("# from probes:");
    for (size_t i = own; i < out.metrics().size(); ++i) {
      std::printf(" %s", out.metrics()[i].name.c_str());
    }
    std::printf("\n# core.simulate_ns_per_event is derived from outside the program\n");
    MeasureLayerMicro(args.seed, &log, &out);
    log.PrintSummary();
    std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                       std::to_string(args.seed) + ".csv";
    out.Check(log.WriteCsv(path), "write spans to " + path);
  }
  for (const Metric& m : out.metrics()) {
    out.Check(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  PrintResult(out);
  return 0;
}
