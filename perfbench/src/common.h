// Shared plumbing for the benchmark program: run arguments, the run outcome
// (correctness tallies plus named metrics), wall-clock helpers and the timed
// repetition loop every workload uses.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/hal/cycles.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where spans and scratch files go (created by the caller).
  std::string out_dir = ".";
  // When set, called before every repetition TimedReps makes, outside the
  // repetition's timing: main() spreads its set-up samples over the run
  // there.
  std::function<void()> between_reps;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: how many outputs were checked, how many were wrong,
// and the metrics in emission order.
class Outcome {
 public:
  // Records one checked output; `ok` false counts it as failed and keeps
  // `what` for the log.
  void Check(bool ok, const std::string& what);
  // Adds a metric unless one of that name already exists, so the layer
  // probes merged in only fill what the workload under test left out.
  void Set(const std::string& name, double value, const char* unit);
  // Adds `other`'s checks, and its metrics as Set() would.
  void Merge(const Outcome& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int logged_failures_ = 0;
  std::vector<Metric> metrics_;
};

double NowSeconds();
// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }
// Peak resident set of this process (VmHWM), in MB; a missing VmHWM line is
// a failed check.
double PeakRssMb(Outcome* out);
std::string Hex(uint64_t value);
// Minor page faults of the calling thread so far.
long MinorFaults();

// While in scope (or until Stop()), records the size of every operator new
// request of at least kMinBytes made on the constructing thread, the first
// kMax of them. The benchmark's replacement operator new, which allocates
// with malloc as the standard library's does, feeds it.
class LargeAllocations {
 public:
  static constexpr size_t kMinBytes = 64 * 1024;
  static constexpr int kMax = 64;

  LargeAllocations();
  ~LargeAllocations() { Stop(); }
  LargeAllocations(const LargeAllocations&) = delete;
  LargeAllocations& operator=(const LargeAllocations&) = delete;

  void Stop();
  void Note(size_t bytes);
  bool Contains(size_t bytes) const;

 private:
  size_t sizes_[kMax] = {};
  int count_ = 0;
};

// One untimed warm-up call (rep index -1), then timed calls (rep 0, 1, ...)
// until args.seconds of wall time have been measured and at least
// `min_reps` calls were timed; args.between_reps, if set, runs before each
// call. Returns the wall seconds of each timed call.
std::vector<double> TimedReps(const RunArgs& args, int min_reps,
                              const std::function<void(int)>& rep);
// Per-item wall seconds across repetitions (item = torture seed, task set).
using ItemTimes = std::vector<std::vector<double>>;
// Sum over items of each item's median time: a repetition's cost with
// interference that hit only some repetitions of an item filtered out.
double SumOfMedians(const ItemTimes& times);
// Every sample, in milliseconds.
std::vector<double> AllMs(const ItemTimes& times);

// Virtual time in every cycle bucket except user and idle, as a percentage
// of non-idle virtual time.
double VirtualOverheadPct(const emeralds::Duration (&buckets)[emeralds::kNumCycleBuckets]);

// 100 * (traced / untraced - 1) over the medians of alternating repetitions
// (odd reps traced).
double TracingOverheadPct(const std::vector<double>& walls);

// Logs every timed repetition's wall seconds and their median.
void PrintReps(const std::vector<double>& walls);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
