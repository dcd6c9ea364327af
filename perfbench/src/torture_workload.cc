// torture_smp: a serial sweep of fuzz::RunTorture seeds. In the traced run a
// sample of the seeds' traces is exported as CSV, read back with the trace
// CSV reader, and replayed through the trace analyzer and the postmortem
// engine (chains are skipped: the CSV does not carry the chain
// declarations).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/base/rng.h"
#include "src/fuzz/torture.h"
#include "src/obs/postmortem.h"
#include "src/obs/trace_analyzer.h"
#include "src/obs/trace_csv.h"

namespace perfbench {
namespace {

namespace fuzz = emeralds::fuzz;
namespace obs = emeralds::obs;

// The first torture seed of the sweep.
constexpr uint64_t kFirstSeed = 201;
// Torture seeds divisible by this get their oracles re-run from CSV in the
// traced run.
constexpr int kOracleSampleStride = 10;

uint64_t Events(const emeralds::KernelStats& s) {
  return s.context_switches + s.syscalls + s.interrupts + s.timer_dispatches;
}

class TortureWorkload : public Workload {
 public:
  TortureWorkload(int seeds, int ops) : seeds_(seeds), ops_(ops) {}

  // The sweep is the fixed torture seeds kFirstSeed .. kFirstSeed+seeds-1 in
  // an order shuffled by the workload seed; num_cores cycles 1/2/4 with the
  // torture seed, and the other options keep RunTorture's defaults, the 20 s
  // virtual-time cap included. The set is fixed because its cost is heavy
  // tailed: about 3 torture seeds in 1000 block all their threads for good
  // and idle on to the cap, costing 7x a normal seed's host time and growing
  // peak memory by half, so 200-seed windows picked by the workload seed
  // would differ by far more than host noise. The 200-seed sweep from 201
  // holds two of them (246 and 303), so the idle-slice path is always
  // measured.
  void Setup(uint64_t seed) override {
    options_.clear();
    for (int i = 0; i < seeds_; ++i) {
      fuzz::TortureOptions o;
      o.seed = kFirstSeed + static_cast<uint64_t>(i);
      o.ops = ops_;
      o.num_cores = kCores[o.seed % 3];
      options_.push_back(o);
    }
    emeralds::Rng rng(seed);
    for (size_t i = options_.size(); i > 1; --i) {
      std::swap(options_[i - 1], options_[static_cast<size_t>(
                                     rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
  }

  void Measure(const RunArgs& args, Outcome* out) override {
    ItemTimes seed_s(options_.size());
    std::vector<double> walls = TimedReps(
        args, 3, [&](int rep) { RunOnce(nullptr, rep >= 0 ? &seed_s : nullptr, out); });
    PrintDigests();
    PrintReps(walls);
    std::vector<double> seed_ms = AllMs(seed_s);
    std::printf("# seed_ms p50=%.4f p95=%.4f over %zu runs; sum of per-seed medians %.4f s\n",
                Median(seed_ms), Quantile(seed_ms, 0.95), seed_ms.size(), SumOfMedians(seed_s));
    out->Set("work_per_s", static_cast<double>(ops_per_rep_) / SumOfMedians(seed_s), "1/s");
    out->Set("vcpu_overhead_pct", VirtualOverheadPct(cycles_.buckets), "%");
  }

  void MeasureLayers(const RunArgs& args, bool focus, SpanLog* log, Outcome* out) override {
    ItemTimes seed_times(options_.size());
    if (focus) {
      std::vector<double> walls = TimedReps(args, 4, [&](int rep) {
        bool traced = rep % 2 == 1;
        RunOnce(traced ? log : nullptr, traced ? &seed_times : nullptr, out);
      });
      out->Set("bench.tracing_overhead_pct", TracingOverheadPct(walls), "%");
    } else {
      RunOnce(log, &seed_times, out);
    }
    PrintDigests();
    std::vector<double> seed_ms = AllMs(seed_times);
    out->Set("fuzz.seed_ms_p50", Median(seed_ms), "ms");
    out->Set("fuzz.seed_ms_p95", Quantile(seed_ms, 0.95), "ms");
    out->Set("fuzz.ops_per_seed", static_cast<double>(ops_per_rep_) / seeds_, "count");

    // Oracle replay from CSV on a sample of the seeds. The seed's own
    // RunTorture time comes from a fresh timed run beside it.
    double seed_s = 0.0;
    double trace_s = 0.0;
    double postmortem_s = 0.0;
    double records = 0.0;
    double events = 0.0;
    std::string path = args.out_dir + "/torture-trace.csv";
    for (const fuzz::TortureOptions& o : options_) {
      if (o.seed % kOracleSampleStride != 0) {
        continue;
      }
      int64_t op = static_cast<int64_t>(o.seed);
      fuzz::TortureResult r;
      seed_s += Timed(log, "fuzz.RunTorture", op, [&] { r = fuzz::RunTorture(o); }).duration();
      events += static_cast<double>(Events(r.stats));
      obs::TraceCsvImport import;
      std::string error;
      bool read = false;
      {
        ScopedSpan s(log, "fuzz.ExportTortureTraceCsv", op);
        read = fuzz::ExportTortureTraceCsv(o, path);
      }
      if (read) {
        ScopedSpan s(log, "obs.ImportTraceCsv", op);
        std::FILE* f = std::fopen(path.c_str(), "r");
        read = f != nullptr && obs::ImportTraceCsv(f, &import, &error);
        if (f != nullptr) {
          std::fclose(f);
        }
      }
      std::remove(path.c_str());
      out->Check(read && import.events.size() == r.trace_retained,
                 "torture seed " + std::to_string(o.seed) + " trace CSV round trip " + error);
      obs::TraceAnalysis analysis;
      obs::PostmortemAnalysis postmortem;
      trace_s += Timed(log, "obs.AnalyzeTrace", op, [&] {
                   analysis = obs::AnalyzeTrace(import.events.data(), import.events.size(),
                                                import.dropped);
                 }).duration();
      postmortem_s += Timed(log, "obs.AnalyzePostmortem", op, [&] {
                        postmortem = obs::AnalyzePostmortem(import.events.data(),
                                                            import.events.size(), import.dropped);
                      }).duration();
      records += static_cast<double>(import.events.size());
      out->Check(analysis.violations.empty() && postmortem.conservation_failures == 0,
                 "torture seed " + std::to_string(o.seed) + " oracles from CSV");
    }
    out->Set("obs.analyze_trace_ns_per_record", 1e9 * trace_s / records, "ns");
    out->Set("obs.postmortem_ns_per_record", 1e9 * postmortem_s / records, "ns");
    out->Set("fuzz.oracle_share", (trace_s + postmortem_s) / seed_s, "ratio");
    // Derived from outside the program: seed time minus the re-timed
    // oracles, per kernel event.
    out->Set("core.simulate_ns_per_event", 1e9 * (seed_s - trace_s - postmortem_s) / events,
             "ns");
  }

 private:
  static constexpr int kCores[3] = {1, 2, 4};

  // One sweep over every seed, checked against the first sweep: each seed
  // passes its six oracles and repeats its digest and op count.
  void RunOnce(SpanLog* log, ItemTimes* seed_s, Outcome* out) {
    bool first = digests_.empty();
    uint64_t ops = 0;
    for (size_t i = 0; i < options_.size(); ++i) {
      const fuzz::TortureOptions& o = options_[i];
      double t0 = NowSeconds();
      fuzz::TortureResult r;
      {
        ScopedSpan s(log, "fuzz.RunTorture", static_cast<int64_t>(o.seed));
        r = fuzz::RunTorture(o);
      }
      if (seed_s != nullptr) {
        (*seed_s)[i].push_back(NowSeconds() - t0);
      }
      ops += static_cast<uint64_t>(r.ops_executed);
      if (first) {
        digests_.push_back(r.trace_digest);
        for (int b = 0; b < emeralds::kNumCycleBuckets; ++b) {
          cycles_.buckets[b] += r.stats.cycles.buckets[b];
        }
      }
      out->Check(r.ok && r.trace_digest == digests_[i],
                 "torture seed " + std::to_string(o.seed) + ": " +
                     (r.ok ? "digest changed between repetitions" : r.failure));
    }
    if (first) {
      ops_per_rep_ = ops;
    }
    out->Check(ops == ops_per_rep_, "torture op count changed between repetitions");
  }

  // The sweep digest folds the per-seed digests in torture-seed order, so it
  // does not depend on the shuffle.
  void PrintDigests() const {
    std::vector<std::pair<uint64_t, uint64_t>> by_seed;
    for (size_t i = 0; i < digests_.size(); ++i) {
      by_seed.emplace_back(options_[i].seed, digests_[i]);
    }
    std::sort(by_seed.begin(), by_seed.end());
    uint64_t folded = 0xcbf29ce484222325ULL;
    for (const auto& [seed, digest] : by_seed) {
      folded = (folded ^ digest) * 0x100000001b3ULL;
    }
    std::printf("# torture seeds=%llu..%llu ops=%d sweep_digest=%s ops_executed=%llu\n",
                static_cast<unsigned long long>(kFirstSeed),
                static_cast<unsigned long long>(kFirstSeed + seeds_ - 1), ops_,
                Hex(folded).c_str(), static_cast<unsigned long long>(ops_per_rep_));
  }

  int seeds_;
  int ops_;
  std::vector<fuzz::TortureOptions> options_;
  // From the first sweep: per-seed digests, summed cycle ledger, op count.
  std::vector<uint64_t> digests_;
  emeralds::CycleLedger cycles_;
  uint64_t ops_per_rep_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTortureWorkload(int seeds, int ops) {
  return std::make_unique<TortureWorkload>(seeds, ops);
}

}  // namespace perfbench
