#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

thread_local LargeAllocations* t_large_allocations = nullptr;

}  // namespace

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) {
    return;
  }
  ++failed_;
  if (logged_failures_++ < 20) {
    std::printf("# FAILED: %s\n", what.c_str());
  }
}

void Outcome::Set(const std::string& name, double value, const char* unit) {
  if (std::none_of(metrics_.begin(), metrics_.end(),
                   [&name](const Metric& m) { return m.name == name; })) {
    metrics_.push_back(Metric{name, value, unit});
  }
}

void Outcome::Merge(const Outcome& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const Metric& m : other.metrics_) {
    Set(m.name, m.value, m.unit.c_str());
  }
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb(Outcome* out) {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would also
  // count the parent's pages copied at fork, since Linux carries it across
  // exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  long kib = -1;
  while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      break;
    }
  }
  if (f != nullptr) {
    std::fclose(f);
  }
  out->Check(kib > 0, "VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

LargeAllocations::LargeAllocations() { t_large_allocations = this; }

void LargeAllocations::Stop() {
  if (t_large_allocations == this) {
    t_large_allocations = nullptr;
  }
}

void LargeAllocations::Note(size_t bytes) {
  if (count_ < kMax) {
    sizes_[count_++] = bytes;
  }
}

bool LargeAllocations::Contains(size_t bytes) const {
  return std::find(sizes_, sizes_ + count_, bytes) != sizes_ + count_;
}

std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::vector<double> TimedReps(const RunArgs& args, int min_reps,
                              const std::function<void(int)>& rep) {
  if (args.between_reps) {
    args.between_reps();
  }
  rep(-1);
  std::vector<double> walls;
  double measured = 0.0;
  for (int i = 0; measured < args.seconds || i < min_reps; ++i) {
    if (args.between_reps) {
      args.between_reps();
    }
    double t0 = NowSeconds();
    rep(i);
    double wall = NowSeconds() - t0;
    walls.push_back(wall);
    measured += wall;
  }
  return walls;
}

double SumOfMedians(const ItemTimes& times) {
  double sum = 0.0;
  for (const std::vector<double>& t : times) {
    sum += Median(t);
  }
  return sum;
}

std::vector<double> AllMs(const ItemTimes& times) {
  std::vector<double> ms;
  for (const std::vector<double>& t : times) {
    for (double s : t) {
      ms.push_back(1e3 * s);
    }
  }
  return ms;
}

void PrintReps(const std::vector<double>& walls) {
  std::printf("# rep_s median=%.4f reps=%zu:", Median(walls), walls.size());
  for (double w : walls) {
    std::printf(" %.4f", w);
  }
  std::printf("\n");
}

double VirtualOverheadPct(const emeralds::Duration (&buckets)[emeralds::kNumCycleBuckets]) {
  double overhead = 0.0;
  double busy = 0.0;
  for (int b = 0; b < emeralds::kNumCycleBuckets; ++b) {
    auto bucket = static_cast<emeralds::CycleBucket>(b);
    double ns = static_cast<double>(buckets[b].nanos());
    if (bucket == emeralds::CycleBucket::kIdle) {
      continue;
    }
    busy += ns;
    if (bucket != emeralds::CycleBucket::kUser) {
      overhead += ns;
    }
  }
  return busy > 0.0 ? 100.0 * overhead / busy : 0.0;
}

double TracingOverheadPct(const std::vector<double>& walls) {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (size_t i = 0; i < walls.size(); ++i) {
    (i % 2 == 1 ? traced : untraced).push_back(walls[i]);
  }
  return 100.0 * (Median(traced) / Median(untraced) - 1.0);
}

}  // namespace perfbench

// Replaces the global operator new (operator new[] forwards to it) with the
// same malloc call the standard library makes, plus the thread-local check
// that feeds LargeAllocations. The standard library's operator delete, which
// calls free(), stays.
void* operator new(std::size_t bytes) {
  perfbench::LargeAllocations* recorder = perfbench::t_large_allocations;
  if (recorder != nullptr && bytes >= perfbench::LargeAllocations::kMinBytes) {
    recorder->Note(bytes);
  }
  void* p = std::malloc(bytes != 0 ? bytes : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
