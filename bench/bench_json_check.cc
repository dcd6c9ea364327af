#include "bench/bench_json_check.h"

#include <cstdarg>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>

namespace emeralds {
namespace bench {
namespace {

using Type = JsonValue::Type;
using Keys = std::initializer_list<const char*>;

// Indexed by JsonValue::Type.
constexpr const char* kTypeNames[] = {"null", "bool", "number", "string", "array", "object"};

// One verdict per CheckReport call. Every requirement helper returns false
// (or nullptr) after writing "<section> <what failed>" to the message, so
// each check reads as one condition.
class Checker {
 public:
  explicit Checker(std::string* message) : message_(message) {}

  [[gnu::format(printf, 3, 4)]] bool Fail(const char* section, const char* format, ...) {
    va_list args;
    va_start(args, format);
    Write(std::string(section) + " ", format, args);
    va_end(args);
    return false;
  }

  [[gnu::format(printf, 2, 3)]] bool Ok(const char* format, ...) {
    va_list args;
    va_start(args, format);
    Write("", format, args);
    va_end(args);
    return true;
  }

  // The member `key` of `obj`, required to have `type`.
  const JsonValue* Get(const JsonValue& obj, const char* section, const char* key, Type type) {
    const JsonValue* v = obj.Find(key, type);
    if (v == nullptr) {
      Fail(section, "missing %s \"%s\"", kTypeNames[static_cast<int>(type)], key);
    }
    return v;
  }

  // The object member `key`, which must hold every number in `numbers`.
  const JsonValue* Object(const JsonValue& obj, const char* section, const char* key,
                          Keys numbers = {}) {
    const JsonValue* v = Get(obj, section, key, Type::kObject);
    return v != nullptr && Numbers(*v, key, numbers) ? v : nullptr;
  }

  // The array member `key`; with `non_empty`, an empty array fails too.
  const JsonValue* Array(const JsonValue& obj, const char* section, const char* key,
                         bool non_empty = false) {
    const JsonValue* v = Get(obj, section, key, Type::kArray);
    if (v != nullptr && non_empty && v->array.empty()) {
      Fail(section, "has an empty \"%s\" array", key);
      return nullptr;
    }
    return v;
  }

  bool Numbers(const JsonValue& obj, const char* section, Keys keys) {
    for (const char* key : keys) {
      if (Get(obj, section, key, Type::kNumber) == nullptr) {
        return false;
      }
    }
    return true;
  }

  bool Strings(const JsonValue& obj, const char* section, Keys keys, bool non_empty = false) {
    for (const char* key : keys) {
      const JsonValue* v = Get(obj, section, key, Type::kString);
      if (v == nullptr) {
        return false;
      }
      if (non_empty && v->string.empty()) {
        return Fail(section, "has an empty \"%s\"", key);
      }
    }
    return true;
  }

  // Members whose presence is checked but not their type.
  bool Has(const JsonValue& obj, const char* section, Keys keys) {
    for (const char* key : keys) {
      if (obj.Find(key) == nullptr) {
        return Fail(section, "missing \"%s\"", key);
      }
    }
    return true;
  }

  bool True(const JsonValue& obj, const char* section, const char* key) {
    const JsonValue* v = Get(obj, section, key, Type::kBool);
    return v != nullptr && (v->boolean || Fail(section, "%s is false", key));
  }

  bool Zero(const JsonValue& obj, const char* section, const char* key) {
    const JsonValue* v = Get(obj, section, key, Type::kNumber);
    return v != nullptr &&
           (v->number == 0.0 || Fail(section, "%s = %g (must be 0)", key, v->number));
  }

  bool Histogram(const JsonValue& obj, const char* section, const char* key) {
    return Object(obj, section, key,
                  {"count", "min_us", "max_us", "mean_us", "p99_us", "total_us"}) != nullptr;
  }

  // Sections embedded in more than one schema.
  bool Cycles(const JsonValue& cycles, const char* section);
  bool Chains(const JsonValue& chains, const char* section);
  bool Postmortem(const JsonValue& pm, const char* section, bool forensic);
  bool Telemetry(const JsonValue& telemetry);
  bool Timeseries(const JsonValue& ts, const char* section, const JsonValue* totals);
  bool Alerts(const JsonValue& alerts);

  // One per schema tag.
  bool Breakdown(const JsonValue& root);
  bool ObsRun(const JsonValue& root);
  bool ObsCycles(const JsonValue& root);
  bool ObsChains(const JsonValue& root);
  bool ObsPostmortem(const JsonValue& root);
  bool ObsTimeseries(const JsonValue& root);
  bool ObsBlackBox(const JsonValue& root);
  bool FuzzTorture(const JsonValue& root);
  bool FleetRun(const JsonValue& root);
  bool BenchSmp(const JsonValue& root);

 private:
  void Write(std::string prefix, const char* format, va_list args) {
    char text[256];
    std::vsnprintf(text, sizeof(text), format, args);
    *message_ = prefix + text;
  }

  std::string* message_;
};

// Substantive validation of a "cycles" section (embedded in obs.run or the
// standalone obs.cycles document): conservation must be asserted AND the
// integers must back it up (residual exactly zero, ledger total == elapsed).
bool Checker::Cycles(const JsonValue& cycles, const char* section) {
  const JsonValue* buckets = Get(cycles, section, "buckets_ns", Type::kObject);
  if (buckets == nullptr ||
      !Numbers(cycles, section,
               {"epoch_ns", "elapsed_ns", "ledger_total_ns", "headroom_low_events"}) ||
      Array(cycles, section, "sched_bands") == nullptr || !True(cycles, section, "conserved") ||
      !True(cycles, section, "clock_conserved") || !Zero(cycles, section, "residual_ns") ||
      !Zero(cycles, section, "clock_unattributed_ns")) {
    return false;
  }
  double sum = 0.0;
  for (const auto& [name, ns] : buckets->object) {
    if (ns.type != Type::kNumber) {
      return Fail(section, "bucket \"%s\" not numeric", name.c_str());
    }
    sum += ns.number;
  }
  const double elapsed = cycles.Find("elapsed_ns")->number;
  return sum == elapsed || Fail(section, "bucket sum %g != elapsed %g", sum, elapsed);
}

// Substantive validation of a "chains" section (embedded in obs.run or the
// standalone obs.chains document). The violations list must be empty — a
// token-conservation breach (orphan consume in a complete window, origin
// reuse, malformed token) fails the check outright. Orphan hops are allowed
// only when the window is incomplete (ring truncation / epoch reset).
bool Checker::Chains(const JsonValue& chains, const char* section) {
  const JsonValue* complete = Get(chains, section, "complete_window", Type::kBool);
  const JsonValue* violations = complete ? Array(chains, section, "violations") : nullptr;
  const JsonValue* list = violations ? Array(chains, section, "chains") : nullptr;
  if (list == nullptr || !Numbers(chains, section,
                                  {"chain_emits", "chain_consumes", "origins_minted",
                                   "orphan_hops", "unconsumed_emits"})) {
    return false;
  }
  if (!violations->array.empty()) {
    return Fail(section, "has %zu chain violation(s), first kind: %s", violations->array.size(),
                violations->array[0].StringOr("kind", "?"));
  }
  if (complete->boolean && !Zero(chains, "complete-window chains", "orphan_hops")) {
    return false;
  }
  for (const JsonValue& chain : list->array) {
    const JsonValue* hops = Array(chain, "chain", "hops");
    if (hops == nullptr || !Strings(chain, "chain", {"name"}) ||
        Get(chain, "chain", "resolved", Type::kBool) == nullptr ||
        !Numbers(chain, "chain", {"deadline_us", "completed", "incomplete", "overruns"}) ||
        !Histogram(chain, "chain", "e2e")) {
      return false;
    }
    for (const JsonValue& hop : hops->array) {
      if (!Strings(hop, "hop", {"endpoint_kind"}) ||
          !Numbers(hop, "hop", {"endpoint_id", "consumer_tid"}) ||
          !Histogram(hop, "hop", "queue") || !Histogram(hop, "hop", "exec")) {
        return false;
      }
    }
  }
  return true;
}

// The deadline-miss postmortem section (schema emeralds.obs.postmortem/1
// standalone, or embedded as "postmortem"). Substantive: conservation of
// lateness is an invariant, so any ledger that failed to telescope fails the
// check, and a complete window must leave nothing unattributed and no miss
// unmatched. `forensic` relaxes the substantive gates (black-box bundles
// record sick runs on purpose) but keeps the shape checks.
bool Checker::Postmortem(const JsonValue& pm, const char* section, bool forensic) {
  const JsonValue* truncated = Get(pm, section, "window_truncated", Type::kBool);
  const JsonValue* blame =
      truncated ? Object(pm, section, "blame",
                         {"misses_analyzed", "conservation_failures", "tardiness_ns",
                          "unattributed_ns"})
                : nullptr;
  const JsonValue* misses = blame ? Array(pm, section, "misses") : nullptr;
  if (misses == nullptr ||
      !Numbers(pm, section,
               {"misses_analyzed", "records_dropped", "incomplete_misses", "unmatched_misses",
                "deadline_unknown", "conservation_failures"}) ||
      Array(*blame, "blame", "victims") == nullptr ||
      Array(*blame, "blame", "preemptors") == nullptr ||
      Array(*blame, "blame", "locks") == nullptr ||
      Array(pm, section, "chain_overruns") == nullptr) {
    return false;
  }
  for (const JsonValue& miss : misses->array) {
    const JsonValue* conserved = Get(miss, "miss", "conserved", Type::kBool);
    if (conserved == nullptr ||
        !Numbers(miss, "miss", {"thread", "job", "response_ns", "tardiness_ns"}) ||
        Object(miss, "miss", "ledger") == nullptr) {
      return false;
    }
    if (!forensic && !conserved->boolean) {
      return Fail(section, "miss ledger did not telescope");
    }
  }
  return forensic ||
         (Zero(pm, section, "conservation_failures") &&
          (truncated->boolean || (Zero(*blame, "complete-window blame", "unattributed_ns") &&
                                  Zero(pm, "complete-window postmortem", "unmatched_misses"))));
}

// The merged fleet telemetry section (schema emeralds.fleet.telemetry/1):
// exact-bucket percentile tables over the whole fleet. Structural: the
// fleet's nodes_total > 0 gate already rules out an empty fleet.
bool Checker::Telemetry(const JsonValue& telemetry) {
  const char* s = "telemetry";
  if (std::string(telemetry.StringOr("schema", "")) != "emeralds.fleet.telemetry/1") {
    return Fail(s, "schema is not emeralds.fleet.telemetry/1");
  }
  if (!Numbers(telemetry, s,
               {"jobs_completed", "deadline_misses", "chain_overruns", "stats_snapshot_drops"}) ||
      Array(telemetry, s, "core_cycles_us", true) == nullptr) {
    return false;
  }
  const JsonValue* cycles = Object(telemetry, s, "cycles");
  const JsonValue* chains = cycles ? Array(telemetry, s, "chains") : nullptr;
  if (chains == nullptr || !Has(*cycles, "telemetry cycles", {"buckets_us", "shares"}) ||
      Object(telemetry, s, "headroom", {"min_us", "min_node", "low_events_total"}) == nullptr ||
      Object(telemetry, s, "trace", {"dropped_total", "worst_node", "worst_node_dropped"}) ==
          nullptr ||
      !Histogram(telemetry, s, "response")) {
    return false;
  }
  for (const JsonValue& chain : chains->array) {
    const JsonValue* hops = Array(chain, "telemetry chain", "hops");
    if (hops == nullptr || !Strings(chain, "telemetry chain", {"name"}) ||
        !Numbers(chain, "telemetry chain",
                 {"deadline_min_us", "deadline_max_us", "completed", "overruns",
                  "incomplete_instances"}) ||
        !Histogram(chain, "telemetry chain", "e2e")) {
      return false;
    }
    for (const JsonValue& hop : hops->array) {
      if (!Histogram(hop, "telemetry hop", "queue") || !Histogram(hop, "telemetry hop", "exec")) {
        return false;
      }
    }
  }
  return true;
}

// The streaming window series (schema emeralds.obs.timeseries/1, embedded
// in fleet.run as "timeseries" or standalone). Substantive checks: the
// series must sit on the fixed window grid (start == index * width, end
// within one width), and — when no samples were lost — the per-window
// deltas must telescope back to the whole-run totals the `totals` object
// (or enclosing fleet report) carries.
bool Checker::Timeseries(const JsonValue& ts, const char* section, const JsonValue* totals) {
  if (std::string(ts.StringOr("schema", "")) != "emeralds.obs.timeseries/1") {
    return Fail(section, "schema is not emeralds.obs.timeseries/1");
  }
  const JsonValue* series = Array(ts, section, "series");
  if (series == nullptr ||
      !Numbers(ts, section,
               {"window_us", "windows", "lost_samples", "windows_dropped", "gap_windows"})) {
    return false;
  }
  const double windows = ts.Find("windows")->number;
  // Counts compare as doubles: a negative or huge count in the report must
  // not reach an out-of-range float-to-integer conversion.
  if (static_cast<double>(series->array.size()) != windows) {
    return Fail(section, "windows=%g but series has %zu entries", windows, series->array.size());
  }
  const double width = ts.Find("window_us")->number;
  double last_index = -1.0;
  double gaps = 0.0;
  double jobs = 0.0;
  double misses = 0.0;
  for (const JsonValue& w : series->array) {
    const JsonValue* gap = Get(w, "window", "gap", Type::kBool);
    if (gap == nullptr ||
        !Numbers(w, "window",
                 {"index", "start_us", "end_us", "samples", "jobs_released", "jobs_completed",
                  "deadline_misses", "context_switches", "interrupts", "timer_dispatches",
                  "chain_origins", "chain_e2e_completed", "chain_e2e_overruns", "trace_dropped",
                  "stats_snapshot_drops"}) ||
        !Histogram(w, "window", "response") || !Histogram(w, "window", "chain_e2e") ||
        !Histogram(w, "window", "headroom")) {
      return false;
    }
    const double index = w.Find("index")->number;
    const double start = w.Find("start_us")->number;
    const double end = w.Find("end_us")->number;
    if (index <= last_index || start != index * width || end <= start || end > start + width) {
      return Fail(section, "window off the grid (index %g start %g end %g width %g)", index,
                  start, end, width);
    }
    last_index = index;
    gaps += gap->boolean ? 1.0 : 0.0;
    jobs += w.Find("jobs_completed")->number;
    misses += w.Find("deadline_misses")->number;
  }
  if (gaps != ts.Find("gap_windows")->number) {
    return Fail(section, "gap_windows=%g but %g windows are marked",
                ts.Find("gap_windows")->number, gaps);
  }
  // Telescoping: lossless series must reproduce the whole-run totals. A
  // total that is present must be a number, lossless or not.
  if (totals == nullptr) {
    return true;
  }
  const bool lossless = ts.Find("lost_samples")->number == 0.0;
  for (const auto& [key, sum] : {std::pair{"jobs_completed", jobs}, {"deadline_misses", misses}}) {
    const JsonValue* total = totals->Find(key);
    if (total == nullptr) {
      continue;
    }
    if (total->type != Type::kNumber) {
      return Fail(section, "run total \"%s\" is not a number", key);
    }
    if (lossless && total->number != sum) {
      return Fail(section, "window %s sum to %g, run total is %g", key, sum, total->number);
    }
  }
  return true;
}

// The alert stream: every event well-formed, the fired count backed up by
// the stream, and the stream ordered by window (the determinism contract —
// an unordered stream would make the bit-identical comparison meaningless).
bool Checker::Alerts(const JsonValue& alerts) {
  const char* s = "alerts";
  const JsonValue* stream = Array(alerts, s, "stream");
  if (stream == nullptr || !Numbers(alerts, s, {"events", "fired"}) ||
      Object(alerts, s, "config",
             {"fast_windows", "slow_windows", "miss_budget_ppm", "miss_burn_threshold",
              "chain_budget_ppm", "chain_burn_threshold", "outlier_floor"}) == nullptr) {
    return false;
  }
  const double events = alerts.Find("events")->number;
  if (static_cast<double>(stream->array.size()) != events) {
    return Fail(s, "events=%g but stream has %zu entries", events, stream->array.size());
  }
  double fired = 0.0;
  double last_window = -1e18;
  for (const JsonValue& e : stream->array) {
    if (!Numbers(e, "alert event", {"node", "window", "time_us", "value", "total"}) ||
        !Strings(e, "alert event", {"rule", "state"})) {
      return false;
    }
    const std::string& state = e.Find("state")->string;
    if (state != "firing" && state != "resolved") {
      return Fail(s, "event state \"%s\" is neither firing nor resolved", state.c_str());
    }
    if (e.Find("window")->number < last_window) {
      return Fail(s, "stream not ordered by window");
    }
    last_window = e.Find("window")->number;
    fired += state == "firing" ? 1.0 : 0.0;
  }
  const double reported = alerts.Find("fired")->number;
  return fired == reported || Fail(s, "fired=%g but stream has %g firing events", reported, fired);
}

bool Checker::Breakdown(const JsonValue& root) {
  const JsonValue* points = Array(root, "breakdown", "points", true);
  if (points == nullptr) {
    return false;
  }
  for (const JsonValue& point : points->array) {
    const JsonValue* evals = Object(point, "point", "evals");
    if (evals == nullptr || !Has(*evals, "point evals", {"full_evals"}) ||
        !Numbers(point, "point", {"n", "wall_seconds", "workloads_per_sec", "eval_reduction"}) ||
        !Zero(point, "point", "reference_mismatches")) {
      return false;
    }
  }
  return Ok("%zu points", points->array.size());
}

bool Checker::ObsRun(const JsonValue& root) {
  const char* s = "obs run";
  const JsonValue* tasks = Array(root, s, "tasks");
  const JsonValue* analysis = tasks ? Object(root, s, "analysis",
                                             {"context_switches", "jobs_completed", "sem_blocks"})
                                    : nullptr;
  const JsonValue* violations = analysis ? Array(*analysis, "analysis", "violations") : nullptr;
  const JsonValue* recon = violations ? Object(root, s, "reconciliation") : nullptr;
  const JsonValue* cycles = recon ? Object(root, s, "cycles") : nullptr;
  const JsonValue* chains = cycles ? Object(root, s, "chains") : nullptr;
  const JsonValue* postmortem = chains ? Object(root, s, "postmortem") : nullptr;
  if (postmortem == nullptr ||
      Object(root, s, "trace", {"total_recorded", "retained", "dropped"}) == nullptr ||
      Object(root, s, "kernel_stats",
             {"context_switches", "jobs_completed", "deadline_misses", "sem_acquires",
              "cse_switches_saved"}) == nullptr ||
      Object(root, s, "snapshots") == nullptr || !Cycles(*cycles, "cycles") ||
      !Chains(*chains, "chains") || !Postmortem(*postmortem, "postmortem", false)) {
    return false;
  }
  if (!violations->array.empty()) {
    return Fail("analysis", "has %zu trace invariant violation(s), first kind: %s",
                violations->array.size(), violations->array[0].StringOr("kind", "?"));
  }
  for (const char* flag : {"context_switches_match", "deadline_misses_match",
                           "jobs_completed_match", "cse_early_pi_match", "headroom_low_match",
                           "chain_events_match"}) {
    if (!True(*recon, "reconciliation", flag)) {
      return false;
    }
  }
  return Ok("obs run, %zu task rows, 0 violations", tasks->array.size());
}

bool Checker::ObsCycles(const JsonValue& root) {
  const JsonValue* cycles = Object(root, "cycles report", "cycles");
  const JsonValue* tasks = cycles ? Array(root, "cycles report", "tasks") : nullptr;
  if (tasks == nullptr || !Cycles(*cycles, "cycles")) {
    return false;
  }
  for (const JsonValue& task : tasks->array) {
    if (!Numbers(task, "task",
                 {"id", "jobs_completed", "user_ns", "overhead_ns", "cost_ewma_ns",
                  "headroom_min_ns", "headroom_low_events"})) {
      return false;
    }
  }
  return Ok("cycles report, %zu task rows, conserved", tasks->array.size());
}

bool Checker::ObsChains(const JsonValue& root) {
  const JsonValue* report = Object(root, "chains report", "report");
  if (report == nullptr || !Chains(*report, "report")) {
    return false;
  }
  return Ok("chains report, %zu chain(s), 0 violations", report->Find("chains")->array.size());
}

bool Checker::ObsPostmortem(const JsonValue& root) {
  const JsonValue* report = Object(root, "postmortem", "report");
  if (report == nullptr || !Strings(root, "postmortem", {"label"}) ||
      !Postmortem(*report, "postmortem report", false)) {
    return false;
  }
  return Ok("postmortem \"%s\", %g miss(es), ledgers conserved",
            root.Find("label")->string.c_str(), report->Find("misses_analyzed")->number);
}

bool Checker::ObsTimeseries(const JsonValue& root) {
  if (!Timeseries(root, "timeseries", root.Find("totals"))) {
    return false;
  }
  return Ok("timeseries, %g windows", root.Find("windows")->number);
}

// A black-box bundle report (emeralds.obs.blackbox/1) is forensic: it
// records a (possibly failing) run, so chain violations and invariant
// breaches are allowed inside it. The check is structural — the bundle must
// round-trip: label/reason/repro present, the trace accounting coherent,
// and the embedded node-telemetry block well-formed.
bool Checker::ObsBlackBox(const JsonValue& root) {
  const char* s = "blackbox";
  const JsonValue* telemetry = Object(root, s, "telemetry");
  const JsonValue* postmortem = telemetry ? Object(root, s, "postmortem") : nullptr;
  if (postmortem == nullptr || !Strings(root, s, {"label", "reason", "repro"}, true) ||
      !Numbers(root, s, {"virtual_time_us"}) ||
      Object(root, s, "trace", {"retained", "dropped", "total_recorded"}) == nullptr ||
      Array(root, s, "threads") == nullptr ||
      Object(root, s, "stats",
             {"context_switches", "jobs_completed", "deadline_misses", "timer_dispatches",
              "headroom_low_events"}) == nullptr ||
      !Histogram(*telemetry, "blackbox telemetry", "response") ||
      Object(root, s, "chains") == nullptr ||
      Object(root, s, "snapshots", {"count", "dropped"}) == nullptr ||
      !Postmortem(*postmortem, "blackbox postmortem", /*forensic=*/true)) {
    return false;
  }
  return Ok("black box \"%s\": %s", root.Find("label")->string.c_str(),
            root.Find("reason")->string.c_str());
}

bool Checker::FuzzTorture(const JsonValue& root) {
  const JsonValue* runs = Array(root, "torture", "runs", true);
  if (runs == nullptr) {
    return false;
  }
  double ops = 0.0;
  for (const JsonValue& run : runs->array) {
    const JsonValue* ok = Get(run, "run", "ok", Type::kBool);
    if (ok == nullptr ||
        !Numbers(run, "run", {"seed", "ops_executed"})) {
      return false;
    }
    if (!ok->boolean) {
      return Fail("run", "torture seed %g failed; repro: %s", run.Find("seed")->number,
                  run.StringOr("repro", "?"));
    }
    // Cycle conservation holds on every run, including truncated-ring ones
    // where reconciliation refuses to check; causal-token and lateness
    // conservation must report zero failures.
    const JsonValue* recon = Object(run, "run", "reconciliation");
    const JsonValue* cycles = recon ? Object(run, "run", "cycles") : nullptr;
    const JsonValue* chains =
        cycles ? Object(run, "run", "chains", {"orphan_hops", "completed", "origins"}) : nullptr;
    const JsonValue* pm = chains ? Object(run, "run", "postmortem",
                                          {"misses_analyzed", "unattributed_ns", "unmatched",
                                           "incomplete"})
                                 : nullptr;
    if (pm == nullptr || !Zero(run, "run", "violations") ||
        !Zero(run, "run", "fault_mismatches") ||
        !Has(*recon, "run reconciliation", {"checked", "ok"}) ||
        !True(*cycles, "run cycles", "conserved") ||
        !Zero(*chains, "run chains", "violations") ||
        !Zero(*pm, "run postmortem", "conservation_failures")) {
      return false;
    }
    ops += run.Find("ops_executed")->number;
  }
  const JsonValue* totals = Object(root, "torture", "totals", {"runs", "ops_executed"});
  if (totals == nullptr || !Zero(*totals, "totals", "failed")) {
    return false;
  }
  return Ok("torture sweep, %zu runs, %.0f ops, 0 failures", runs->array.size(), ops);
}

// The fleet report must carry zero failed nodes, positive deterministic
// aggregates, and — when the timers section is present — a wheel that beats
// the reference sorted list by the 5x acceptance floor at 10k pending.
bool Checker::FleetRun(const JsonValue& root) {
  const char* s = "fleet";
  if (!Numbers(root, s,
               {"instances", "workers", "seed", "run_duration_ms", "slice_ms", "events_total",
                "virtual_ms_total", "events_per_virtual_sec", "jobs_completed",
                "deadline_misses", "timer_dispatches", "chain_completed", "chain_overruns",
                "nodes_total", "nodes_failed", "arena_high_water_bytes", "wall_seconds",
                "events_per_wall_sec"}) ||
      !Strings(root, s, {"timer_queue", "fleet_digest", "label"})) {
    return false;
  }
  const double failed = root.Find("nodes_failed")->number;
  if (failed != 0.0) {
    return Fail(s, "has %g node(s) that failed their oracles: %s", failed,
                root.StringOr("first_failure", "?"));
  }
  if (root.Find("nodes_total")->number <= 0.0 || root.Find("events_total")->number <= 0.0 ||
      root.Find("events_per_virtual_sec")->number <= 0.0) {
    return Fail(s, "ran no nodes or produced no events");
  }
  // The fleet-merged blame ledger: digest-gated (the serial-vs-parallel
  // bit-identity tests compare it), zero conservation failures, and nothing
  // unattributed across any node whose window was complete.
  const JsonValue* triage = Object(root, s, "triage");
  const JsonValue* postmortem = triage ? Object(root, s, "postmortem", {"incomplete_misses"})
                                       : nullptr;
  const JsonValue* blame =
      postmortem ? Object(*postmortem, "fleet postmortem", "blame",
                          {"misses_analyzed", "tardiness_ns", "unattributed_ns"})
                 : nullptr;
  if (blame == nullptr || Object(root, s, "schedulers") == nullptr ||
      Object(root, s, "trace", {"dropped_total", "worst_node", "worst_node_dropped"}) ==
          nullptr ||
      Array(*triage, "triage", "metrics") == nullptr ||
      !Has(*triage, "triage", {"outlier_nodes"}) ||
      Object(*triage, "triage", "top_blame", {"preemptor", "preemptor_ns", "lock", "lock_ns"}) ==
          nullptr ||
      !Strings(*postmortem, "fleet postmortem", {"blame_digest"}, true) ||
      !Zero(*blame, "fleet blame", "conservation_failures")) {
    return false;
  }
  // Optional sections: absent is fine, present must be well-formed.
  const JsonValue* telemetry = root.Find("telemetry");
  const JsonValue* timeseries = root.Find("timeseries");
  const JsonValue* alerts = root.Find("alerts");
  if ((telemetry != nullptr && !Telemetry(*telemetry)) ||
      (timeseries != nullptr && !Timeseries(*timeseries, "timeseries", &root)) ||
      (alerts != nullptr && !Alerts(*alerts))) {
    return false;
  }
  // The run digest's host cost per record (bench_fleet): wall time, so only
  // the shape is checked.
  if (const JsonValue* digest = root.Find("trace_digest")) {
    if (!Numbers(*digest, "trace_digest", {"records", "ns_per_record"})) {
      return false;
    }
    if (digest->Find("records")->number <= 0.0 || digest->Find("ns_per_record")->number <= 0.0) {
      return Fail("trace_digest", "records and ns_per_record must be positive");
    }
  }
  if (const JsonValue* timers = root.Find("timers")) {
    const JsonValue* points = Array(*timers, "timers", "points", true);
    if (points == nullptr || !Numbers(*timers, "timers", {"speedup_10k"})) {
      return false;
    }
    for (const JsonValue& point : points->array) {
      if (!Numbers(point, "timer point", {"pending", "speedup"}) ||
          Object(point, "timer point", "wheel", {"arm_ns", "cancel_ns", "service_ns"}) ==
              nullptr ||
          Object(point, "timer point", "list", {"arm_ns", "cancel_ns", "service_ns"}) ==
              nullptr) {
        return false;
      }
    }
    const double speedup = timers->Find("speedup_10k")->number;
    if (speedup < 5.0) {
      return Fail("timers", "wheel speedup at 10k pending is %gx (floor 5x)", speedup);
    }
  }
  return Ok("fleet run, %g nodes, %g events, 0 failures", root.Find("nodes_total")->number,
            root.Find("events_total")->number);
}

// The SMP report is gated substantively: every throughput row must conserve
// its ledger fleet-summed AND per core (residuals exactly zero), the 2-core
// run must deliver the 1.7x aggregate user-cycle floor over 1-core at equal
// horizon (recomputed from the integers, not just the reported ratio), and
// partitioned-CSD admission must be monotone in core count.
bool Checker::BenchSmp(const JsonValue& root) {
  const char* s = "smp";
  const JsonValue* rows = Array(root, s, "throughput", true);
  if (rows == nullptr || !Numbers(root, s, {"horizon_ms", "ratio_2core", "ratio_4core"})) {
    return false;
  }
  double user_by_cores[16] = {};
  for (const JsonValue& row : rows->array) {
    const JsonValue* per_core = Array(row, "smp row", "cores");
    if (per_core == nullptr ||
        !Numbers(row, "smp row",
                 {"num_cores", "user_ns", "idle_ns", "ipis", "context_switches",
                  "jobs_completed"}) ||
        !True(row, "smp row", "conserved")) {
      return false;
    }
    const double cores = row.Find("num_cores")->number;
    if (static_cast<double>(per_core->array.size()) != cores) {
      return Fail(s, "%g-core row has %zu per-core ledgers", cores, per_core->array.size());
    }
    for (const JsonValue& c : per_core->array) {
      if (!Numbers(c, "smp core", {"core", "elapsed_ns", "ledger_total_ns"}) ||
          !Zero(c, "smp core", "residual_ns") || !True(c, "smp core", "conserved")) {
        return false;
      }
    }
    if (cores >= 1 && cores < 16) {
      user_by_cores[static_cast<int>(cores)] = row.Find("user_ns")->number;
    }
  }
  if (user_by_cores[1] <= 0.0 || user_by_cores[2] <= 0.0) {
    return Fail(s, "report lacks 1-core and 2-core throughput rows");
  }
  const double ratio2 = user_by_cores[2] / user_by_cores[1];
  if (ratio2 < 1.7) {
    return Fail(s, "2-core user-cycle throughput is %.3fx 1-core (floor 1.7x)", ratio2);
  }
  const JsonValue* admission = Object(root, s, "admission");
  const JsonValue* points = admission ? Array(*admission, "admission", "points", true) : nullptr;
  if (points == nullptr) {
    return false;
  }
  for (const JsonValue& p : points->array) {
    if (!Numbers(p, "admission point",
                 {"utilization", "admitted_1core", "admitted_2core", "admitted_4core"})) {
      return false;
    }
    const double a1 = p.Find("admitted_1core")->number;
    const double a2 = p.Find("admitted_2core")->number;
    const double a4 = p.Find("admitted_4core")->number;
    if (a2 < a1 || a4 < a2) {
      return Fail(s, "admission not monotone in cores at U=%g (1:%g 2:%g 4:%g)",
                  p.Find("utilization")->number, a1, a2, a4);
    }
  }
  return Ok("smp: 2-core %.3fx user cycles, %zu admission points", ratio2, points->array.size());
}

struct Schema {
  const char* tag;
  bool (Checker::*check)(const JsonValue& root);
};

constexpr Schema kSchemas[] = {
    {"emeralds.bench.breakdown/1", &Checker::Breakdown},
    {"emeralds.obs.run/1", &Checker::ObsRun},
    {"emeralds.obs.cycles/1", &Checker::ObsCycles},
    {"emeralds.obs.chains/1", &Checker::ObsChains},
    {"emeralds.fuzz.torture/1", &Checker::FuzzTorture},
    {"emeralds.fleet.run/1", &Checker::FleetRun},
    {"emeralds.obs.timeseries/1", &Checker::ObsTimeseries},
    {"emeralds.obs.blackbox/1", &Checker::ObsBlackBox},
    {"emeralds.bench.smp/1", &Checker::BenchSmp},
    {"emeralds.obs.postmortem/1", &Checker::ObsPostmortem},
};

}  // namespace

bool CheckReport(const JsonValue& root, std::string* message) {
  Checker check(message);
  const JsonValue* schema = check.Get(root, "report", "schema", Type::kString);
  if (schema == nullptr) {
    return false;
  }
  for (const Schema& s : kSchemas) {
    if (schema->string == s.tag) {
      return (check.*s.check)(root);
    }
  }
  return check.Fail("report", "has unexpected schema tag \"%s\"", schema->string.c_str());
}

}  // namespace bench
}  // namespace emeralds
