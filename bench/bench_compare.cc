#include "bench/bench_compare.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace emeralds {
namespace bench {
namespace {

void Failf(CompareResult* r, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  r->failures.push_back(buf);
}

void Notef(CompareResult* r, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  r->notes.push_back(buf);
}

// --- emeralds.obs.cycles/1 ---

// Buckets excluded from the growth gate: user time belongs to the workload,
// idle is the complement (a faster kernel means *more* idle), and
// unattributed must be zero anyway (conservation covers it).
bool GatedBucket(const std::string& name) {
  return name != "user" && name != "idle" && name != "unattributed";
}

void CompareCycles(const JsonValue& baseline, const JsonValue& candidate,
                   const CompareOptions& opt, CompareResult* r) {
  const JsonValue* base_c = baseline.Find("cycles");
  const JsonValue* cand_c = candidate.Find("cycles");
  if (base_c == nullptr || cand_c == nullptr) {
    Failf(r, "cycles section missing (baseline %s, candidate %s)",
          base_c != nullptr ? "present" : "absent", cand_c != nullptr ? "present" : "absent");
    return;
  }
  if (!cand_c->BoolOr("conserved", false) || !cand_c->BoolOr("clock_conserved", false)) {
    Failf(r, "candidate ledger not conserved (residual %.0f ns, unattributed %.0f ns)",
          cand_c->NumberOr("residual_ns", -1), cand_c->NumberOr("clock_unattributed_ns", -1));
  }
  double base_elapsed = base_c->NumberOr("elapsed_ns", -1);
  double cand_elapsed = cand_c->NumberOr("elapsed_ns", -2);
  if (base_elapsed != cand_elapsed) {
    Failf(r, "elapsed_ns differs: baseline %.0f vs candidate %.0f (virtual time is "
             "deterministic; regenerate the baseline if the workload changed)",
          base_elapsed, cand_elapsed);
    return;
  }
  const JsonValue* base_b = base_c->Find("buckets_ns", JsonValue::Type::kObject);
  const JsonValue* cand_b = cand_c->Find("buckets_ns", JsonValue::Type::kObject);
  if (base_b == nullptr || cand_b == nullptr) {
    Failf(r, "buckets_ns object missing");
    return;
  }
  // Candidate buckets gate against the baseline; buckets only in one side
  // compare against zero.
  for (const auto& kv : cand_b->object) {
    if (!GatedBucket(kv.first)) {
      continue;
    }
    double cand = kv.second.number;
    double base = base_b->NumberOr(kv.first, 0.0);
    double ceiling = base * (1.0 + opt.rel_tolerance) + static_cast<double>(opt.abs_slack_ns);
    if (cand > ceiling) {
      Failf(r, "bucket %s regressed: %.0f ns vs baseline %.0f ns (+%.1f%%, ceiling %.0f)",
            kv.first.c_str(), cand, base, base > 0 ? 100.0 * (cand - base) / base : 0.0,
            ceiling);
    } else if (cand != base) {
      Notef(r, "bucket %s: %.0f ns vs baseline %.0f ns (within tolerance)", kv.first.c_str(),
            cand, base);
    }
  }
  for (const auto& kv : base_b->object) {
    if (GatedBucket(kv.first) && cand_b->Find(kv.first) == nullptr && kv.second.number != 0.0) {
      Notef(r, "bucket %s present only in baseline (%.0f ns)", kv.first.c_str(),
            kv.second.number);
    }
  }
}

// --- emeralds.bench.breakdown/1 ---

void CompareBreakdown(const JsonValue& baseline, const JsonValue& candidate,
                      const CompareOptions& opt, CompareResult* r) {
  const JsonValue* base_p = baseline.Find("points", JsonValue::Type::kArray);
  const JsonValue* cand_p = candidate.Find("points", JsonValue::Type::kArray);
  if (base_p == nullptr || cand_p == nullptr) {
    Failf(r, "points array missing");
    return;
  }
  if (base_p->array.size() != cand_p->array.size()) {
    Failf(r, "point count differs: baseline %zu vs candidate %zu (pin EMERALDS_WORKLOADS to "
             "the baseline's value)",
          base_p->array.size(), cand_p->array.size());
    return;
  }
  for (size_t i = 0; i < base_p->array.size(); ++i) {
    const JsonValue& base = base_p->array[i];
    const JsonValue& cand = cand_p->array[i];
    double n = base.NumberOr("n", -1);
    if (n != cand.NumberOr("n", -2)) {
      Failf(r, "point %zu: n differs (baseline %.0f vs candidate %.0f)", i, n,
            cand.NumberOr("n", -2));
      continue;
    }
    if (cand.NumberOr("reference_mismatches", -1) != 0.0) {
      Failf(r, "n=%.0f: candidate has %.0f reference mismatches", n,
            cand.NumberOr("reference_mismatches", -1));
    }
    const JsonValue* base_e = base.Find("evals");
    const JsonValue* cand_e = cand.Find("evals");
    double base_full = base_e != nullptr ? base_e->NumberOr("full_evals", -1) : -1;
    double cand_full = cand_e != nullptr ? cand_e->NumberOr("full_evals", -1) : -1;
    if (base_full < 0 || cand_full < 0) {
      Failf(r, "n=%.0f: evals.full_evals missing", n);
    } else if (cand_full > base_full * (1.0 + opt.rel_tolerance)) {
      Failf(r, "n=%.0f: full_evals regressed %.0f -> %.0f (+%.1f%%)", n, base_full, cand_full,
            base_full > 0 ? 100.0 * (cand_full - base_full) / base_full : 0.0);
    }
    double base_red = base.NumberOr("eval_reduction", 0.0);
    double cand_red = cand.NumberOr("eval_reduction", 0.0);
    if (cand_red < base_red * (1.0 - opt.rel_tolerance)) {
      Failf(r, "n=%.0f: eval_reduction regressed %.3f -> %.3f", n, base_red, cand_red);
    }
    // Wall-clock throughput is machine-dependent: informational only.
    double base_wps = base.NumberOr("workloads_per_sec", 0.0);
    double cand_wps = cand.NumberOr("workloads_per_sec", 0.0);
    if (base_wps > 0 && cand_wps > 0 && std::fabs(cand_wps - base_wps) > 0.25 * base_wps) {
      Notef(r, "n=%.0f: workloads_per_sec %.0f vs baseline %.0f (not gated)", n, cand_wps,
            base_wps);
    }
  }
}

// --- emeralds.fleet.run/1 ---

void CompareFleet(const JsonValue& baseline, const JsonValue& candidate,
                  const CompareOptions& opt, CompareResult* r) {
  // The candidate must pass its own oracles before any baseline comparison.
  double failed = candidate.NumberOr("nodes_failed", -1);
  if (failed != 0.0) {
    Failf(r, "candidate has %.0f failed node(s): %s", failed,
          candidate.StringOr("first_failure", "?"));
  }
  // The run configuration must match, or the aggregates are incomparable.
  for (const char* key : {"instances", "seed", "run_duration_ms", "slice_ms"}) {
    double base = baseline.NumberOr(key, -1);
    double cand = candidate.NumberOr(key, -2);
    if (base != cand) {
      Failf(r, "%s differs: baseline %.0f vs candidate %.0f (regenerate the baseline if the "
               "fleet configuration changed)",
            key, base, cand);
      return;
    }
  }
  if (std::string(baseline.StringOr("timer_queue", "?")) !=
      candidate.StringOr("timer_queue", "??")) {
    Failf(r, "timer_queue differs: baseline %s vs candidate %s",
          baseline.StringOr("timer_queue", "?"), candidate.StringOr("timer_queue", "??"));
    return;
  }
  // Deterministic aggregates: any drift means simulated behavior changed, so
  // hold them to the relative tolerance in both directions.
  for (const char* key : {"events_total", "events_per_virtual_sec"}) {
    double base = baseline.NumberOr(key, -1);
    double cand = candidate.NumberOr(key, -2);
    if (base <= 0 || cand <= 0) {
      Failf(r, "%s missing or non-positive", key);
      continue;
    }
    if (std::fabs(cand - base) > base * opt.rel_tolerance) {
      Failf(r, "%s drifted: %.0f vs baseline %.0f (%+.1f%%, tolerance %.0f%%; the fleet is "
               "deterministic — regenerate the baseline if the workload changed)",
            key, cand, base, 100.0 * (cand - base) / base, 100.0 * opt.rel_tolerance);
    } else if (cand != base) {
      Notef(r, "%s: %.0f vs baseline %.0f (within tolerance)", key, cand, base);
    }
  }
  if (std::string(baseline.StringOr("fleet_digest", "?")) !=
      candidate.StringOr("fleet_digest", "??")) {
    Notef(r, "fleet_digest differs (baseline %s vs %s): per-node traces changed",
          baseline.StringOr("fleet_digest", "?"), candidate.StringOr("fleet_digest", "??"));
  }
  for (const char* key : {"deadline_misses", "chain_overruns"}) {
    double base = baseline.NumberOr(key, 0.0);
    double cand = candidate.NumberOr(key, 0.0);
    if (cand != base) {
      Notef(r, "%s: %.0f vs baseline %.0f (not gated)", key, cand, base);
    }
  }
  // The wheel-vs-list bar: an absolute floor, not a baseline delta — host
  // timings wobble, but 5x leaves a wide margin over any wobble.
  const JsonValue* timers = candidate.Find("timers", JsonValue::Type::kObject);
  if (timers == nullptr) {
    Failf(r, "candidate has no timers section");
  } else {
    double speedup = timers->NumberOr("speedup_10k", -1);
    if (speedup < 5.0) {
      Failf(r, "wheel speedup at 10k pending is %.1fx (floor 5x)", speedup);
    }
    const JsonValue* base_t = baseline.Find("timers");
    double base_speedup = base_t != nullptr ? base_t->NumberOr("speedup_10k", 0.0) : 0.0;
    if (base_speedup > 0) {
      Notef(r, "speedup_10k: %.1fx vs baseline %.1fx (floor-gated only)", speedup,
            base_speedup);
    }
  }
  // Merged fleet telemetry percentiles: bucket-exact over the union of every
  // node's samples and deterministic, so when both reports carry the section
  // the chain e2e percentile tables are held to the same relative tolerance
  // as the event aggregates.
  const JsonValue* base_tel = baseline.Find("telemetry");
  const JsonValue* cand_tel = candidate.Find("telemetry");
  if (base_tel != nullptr && cand_tel == nullptr) {
    Failf(r, "baseline has a telemetry section but the candidate does not");
  } else if (base_tel != nullptr && cand_tel != nullptr) {
    const JsonValue* base_chains = base_tel->Find("chains", JsonValue::Type::kArray);
    const JsonValue* cand_chains = cand_tel->Find("chains", JsonValue::Type::kArray);
    if (base_chains != nullptr && cand_chains != nullptr) {
      for (const JsonValue& bc : base_chains->array) {
        const char* name = bc.StringOr("name", "?");
        const JsonValue* cc = nullptr;
        for (const JsonValue& c : cand_chains->array) {
          if (std::string(c.StringOr("name", "")) == name) {
            cc = &c;
            break;
          }
        }
        if (cc == nullptr) {
          Failf(r, "telemetry chain \"%s\" missing from candidate", name);
          continue;
        }
        const JsonValue* be = bc.Find("e2e");
        const JsonValue* ce = cc->Find("e2e");
        if (be == nullptr || ce == nullptr) {
          Failf(r, "telemetry chain \"%s\" missing e2e histogram", name);
          continue;
        }
        for (const char* key : {"p50_us", "p90_us", "p99_us"}) {
          double base = be->NumberOr(key, -1);
          double cand = ce->NumberOr(key, -2);
          if (base < 0 || cand < 0) {
            Failf(r, "telemetry chain \"%s\" missing %s", name, key);
            continue;
          }
          if (std::fabs(cand - base) > base * opt.rel_tolerance) {
            Failf(r, "chain \"%s\" %s drifted: %.0f vs baseline %.0f (%+.1f%%, tolerance "
                     "%.0f%%)",
                  name, key, cand, base, base > 0 ? 100.0 * (cand - base) / base : 0.0,
                  100.0 * opt.rel_tolerance);
          } else if (cand != base) {
            Notef(r, "chain \"%s\" %s: %.0f vs baseline %.0f (within tolerance)", name, key,
                  cand, base);
          }
        }
      }
    }
  }
  // Telemetry collection overhead rides on wall clock: informational only.
  const JsonValue* overhead = candidate.Find("telemetry_overhead");
  if (overhead != nullptr) {
    Notef(r, "telemetry overhead ratio %.3f (on %.0f vs off %.0f events/s wall, not gated)",
          overhead->NumberOr("ratio", 0.0), overhead->NumberOr("on_events_per_wall_sec", 0.0),
          overhead->NumberOr("off_events_per_wall_sec", 0.0));
  }
  // Streaming-collection overhead IS gated, as a ratio: both sides of the
  // division ran on the same host in the same process, so the ratio is
  // machine-independent in a way the raw wall rates are not. Even the median
  // of paired per-round ratios of ~30 ms parallel runs still carries
  // double-digit-percent host noise, so this gate uses its own tripwire
  // tolerance instead of the 3% deterministic-field tolerance: it exists to
  // catch the streaming plane becoming grossly more expensive (the
  // always-on layer doubling in cost), not to micro-gate scheduler jitter.
  constexpr double kStreamingRatioTolerance = 0.25;
  const JsonValue* streaming = candidate.Find("streaming_overhead");
  const JsonValue* base_streaming = baseline.Find("streaming_overhead");
  if (streaming != nullptr && base_streaming == nullptr) {
    Notef(r, "streaming overhead ratio %.3f (baseline lacks the section, not gated)",
          streaming->NumberOr("ratio", 0.0));
  } else if (streaming == nullptr && base_streaming != nullptr) {
    Failf(r, "baseline has a streaming_overhead section but the candidate lost it");
  } else if (streaming != nullptr && base_streaming != nullptr) {
    double base_ratio = base_streaming->NumberOr("ratio", 0.0);
    double cand_ratio = streaming->NumberOr("ratio", 0.0);
    if (base_ratio <= 0 || cand_ratio <= 0) {
      Failf(r, "streaming_overhead ratio missing or non-positive (baseline %.3f, candidate %.3f)",
            base_ratio, cand_ratio);
    } else if (base_ratio - cand_ratio > kStreamingRatioTolerance * base_ratio) {
      Failf(r, "streaming overhead regressed: ratio %.3f vs baseline %.3f (%+.1f%%, tolerance "
               "%.0f%%)",
            cand_ratio, base_ratio, 100.0 * (cand_ratio - base_ratio) / base_ratio,
            100.0 * kStreamingRatioTolerance);
    } else {
      Notef(r, "streaming overhead ratio %.3f vs baseline %.3f (gated, within tolerance)",
            cand_ratio, base_ratio);
    }
  }
  // The run digest's cost per trace record is host wall time: noted only.
  const JsonValue* digest = candidate.Find("trace_digest");
  const JsonValue* base_digest = baseline.Find("trace_digest");
  if (digest != nullptr && base_digest != nullptr) {
    Notef(r, "trace digest %.2f ns/record over %.0f records vs baseline %.2f (not gated)",
          digest->NumberOr("ns_per_record", 0.0), digest->NumberOr("records", 0.0),
          base_digest->NumberOr("ns_per_record", 0.0));
  } else if (digest != nullptr) {
    Notef(r, "trace digest %.2f ns/record over %.0f records (not gated)",
          digest->NumberOr("ns_per_record", 0.0), digest->NumberOr("records", 0.0));
  }
  // Wall-clock throughput is machine-dependent: informational only.
  double base_wps = baseline.NumberOr("events_per_wall_sec", 0.0);
  double cand_wps = candidate.NumberOr("events_per_wall_sec", 0.0);
  if (base_wps > 0 && cand_wps > 0 && std::fabs(cand_wps - base_wps) > 0.25 * base_wps) {
    Notef(r, "events_per_wall_sec %.0f vs baseline %.0f (not gated)", cand_wps, base_wps);
  }
}

// --- emeralds.bench.smp/1 ---

void CompareSmp(const JsonValue& baseline, const JsonValue& candidate,
                const CompareOptions& opt, CompareResult* r) {
  // The run is pure virtual time, so the throughput integers are
  // deterministic: any drift means partitioned-SMP behavior changed.
  const JsonValue* base_rows = baseline.Find("throughput", JsonValue::Type::kArray);
  const JsonValue* cand_rows = candidate.Find("throughput", JsonValue::Type::kArray);
  if (base_rows == nullptr || cand_rows == nullptr) {
    Failf(r, "throughput array missing");
    return;
  }
  if (base_rows->array.size() != cand_rows->array.size()) {
    Failf(r, "throughput row count differs: baseline %zu vs candidate %zu",
          base_rows->array.size(), cand_rows->array.size());
    return;
  }
  for (size_t i = 0; i < base_rows->array.size(); ++i) {
    const JsonValue& base = base_rows->array[i];
    const JsonValue& cand = cand_rows->array[i];
    double cores = base.NumberOr("num_cores", -1);
    if (cores != cand.NumberOr("num_cores", -2)) {
      Failf(r, "row %zu: num_cores differs (baseline %.0f vs candidate %.0f)", i, cores,
            cand.NumberOr("num_cores", -2));
      continue;
    }
    if (!cand.BoolOr("conserved", false)) {
      Failf(r, "%.0f-core candidate run is not cycle-conserved", cores);
    }
    for (const char* key : {"user_ns", "idle_ns", "ipis", "jobs_completed"}) {
      double base_v = base.NumberOr(key, -1);
      double cand_v = cand.NumberOr(key, -2);
      if (std::fabs(cand_v - base_v) > std::fabs(base_v) * opt.rel_tolerance) {
        Failf(r, "%.0f-core %s drifted: %.0f vs baseline %.0f (virtual time is deterministic; "
                 "regenerate the baseline if the workload changed)",
              cores, key, cand_v, base_v);
      } else if (cand_v != base_v) {
        Notef(r, "%.0f-core %s: %.0f vs baseline %.0f (within tolerance)", cores, key, cand_v,
              base_v);
      }
    }
  }
  // The scaling floor is absolute, like the fleet's wheel speedup.
  double ratio2 = candidate.NumberOr("ratio_2core", -1);
  if (ratio2 < 1.7) {
    Failf(r, "2-core user-cycle scaling is %.3fx (floor 1.7x)", ratio2);
  }
  double base_ratio2 = baseline.NumberOr("ratio_2core", 0.0);
  if (base_ratio2 > 0 && ratio2 < base_ratio2 * (1.0 - opt.rel_tolerance)) {
    Failf(r, "ratio_2core regressed: %.3f vs baseline %.3f", ratio2, base_ratio2);
  }
  // Admission counts are exact: the workloads and search are seeded.
  const JsonValue* base_adm = baseline.Find("admission");
  const JsonValue* cand_adm = candidate.Find("admission");
  const JsonValue* base_pts =
      base_adm != nullptr ? base_adm->Find("points", JsonValue::Type::kArray) : nullptr;
  const JsonValue* cand_pts =
      cand_adm != nullptr ? cand_adm->Find("points", JsonValue::Type::kArray) : nullptr;
  if (base_pts == nullptr || cand_pts == nullptr ||
      base_pts->array.size() != cand_pts->array.size()) {
    Failf(r, "admission points missing or count differs");
    return;
  }
  for (size_t i = 0; i < base_pts->array.size(); ++i) {
    for (const char* key : {"admitted_1core", "admitted_2core", "admitted_4core"}) {
      double base_v = base_pts->array[i].NumberOr(key, -1);
      double cand_v = cand_pts->array[i].NumberOr(key, -2);
      if (base_v != cand_v) {
        Failf(r, "admission point %zu: %s differs (%.0f vs baseline %.0f; the sweep is "
                 "seeded — regenerate the baseline if the search changed)",
              i, key, cand_v, base_v);
      }
    }
  }
}

}  // namespace

CompareResult CompareReports(const JsonValue& baseline, const JsonValue& candidate,
                             const CompareOptions& options) {
  CompareResult r;
  const JsonValue* base_schema = baseline.Find("schema", JsonValue::Type::kString);
  const JsonValue* cand_schema = candidate.Find("schema", JsonValue::Type::kString);
  if (base_schema == nullptr || cand_schema == nullptr) {
    Failf(&r, "schema tag missing");
    return r;
  }
  if (base_schema->string != cand_schema->string) {
    Failf(&r, "schema mismatch: baseline %s vs candidate %s", base_schema->string.c_str(),
          cand_schema->string.c_str());
    return r;
  }
  if (base_schema->string == "emeralds.obs.cycles/1") {
    CompareCycles(baseline, candidate, options, &r);
  } else if (base_schema->string == "emeralds.bench.breakdown/1") {
    CompareBreakdown(baseline, candidate, options, &r);
  } else if (base_schema->string == "emeralds.fleet.run/1") {
    CompareFleet(baseline, candidate, options, &r);
  } else if (base_schema->string == "emeralds.bench.smp/1") {
    CompareSmp(baseline, candidate, options, &r);
  } else {
    Failf(&r, "schema %s is not gated by bench_compare", base_schema->string.c_str());
  }
  r.ok = r.failures.empty();
  return r;
}

CompareResult CompareReportFiles(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 const CompareOptions& options) {
  CompareResult r;
  JsonValue docs[2];
  const std::string* paths[2] = {&baseline_path, &candidate_path};
  for (int i = 0; i < 2; ++i) {
    std::string error;
    if (!JsonParseFile(*paths[i], &docs[i], &error)) {
      r.failures.push_back(error);
      return r;
    }
  }
  return CompareReports(docs[0], docs[1], options);
}

}  // namespace bench
}  // namespace emeralds
