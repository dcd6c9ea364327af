// Mutation test for bench_json_check: pins every check the checker makes.
//
// One accepted document per schema tag — the committed BENCH_*.json
// baselines plus documents built here by the code that writes each schema —
// and, for each, mutants the checker must reject: every required key deleted
// in turn and retyped in turn, and one value mutant per substantive gate.
// A few relaxations (forensic black boxes, optional fleet sections,
// truncated chain windows) are pinned the other way: those variants must
// stay accepted.
//
// The key lists below are written out by hand from the schemas, not shared
// with the checker or the writers, so a check that disappears from the
// checker shows up here as an accepted mutant.

#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_json_check.h"
#include "src/base/json.h"
#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/fuzz/torture.h"
#include "src/obs/blackbox.h"
#include "src/obs/chains.h"
#include "src/obs/json_writer.h"
#include "src/obs/obs_report.h"
#include "src/obs/postmortem.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace bench {
namespace {

using Type = JsonValue::Type;

JsonValue Parse(const std::string& text) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(JsonParse(text, &doc, &error)) << error;
  return doc;
}

JsonValue LoadCommitted(const char* name) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(JsonParseFile(std::string(EMERALDS_SOURCE_DIR) + "/" + name, &doc, &error))
      << error;
  return doc;
}

JsonValue Number(double n) {
  JsonValue v;
  v.type = Type::kNumber;
  v.number = n;
  return v;
}

JsonValue String(const char* s) {
  JsonValue v;
  v.type = Type::kString;
  v.string = s;
  return v;
}

JsonValue Bool(bool b) {
  JsonValue v;
  v.type = Type::kBool;
  v.boolean = b;
  return v;
}

JsonValue EmptyArray() {
  JsonValue v;
  v.type = Type::kArray;
  return v;
}

// Resolves a dotted path; numeric segments index arrays, negative ones from
// the end ("runs.-1.ok" is the last run's ok flag). nullptr when absent.
JsonValue* At(JsonValue* v, const std::string& path) {
  size_t pos = 0;
  while (v != nullptr) {
    size_t dot = path.find('.', pos);
    std::string seg = path.substr(pos, dot == std::string::npos ? std::string::npos : dot - pos);
    if (v->type == Type::kArray) {
      long i = std::stol(seg);
      if (i < 0) {
        i += static_cast<long>(v->array.size());
      }
      v = i >= 0 && i < static_cast<long>(v->array.size()) ? &v->array[i] : nullptr;
    } else {
      v = const_cast<JsonValue*>(v->Find(seg));
    }
    if (dot == std::string::npos) {
      break;
    }
    pos = dot + 1;
  }
  return v;
}

JsonValue& Ref(JsonValue& doc, const std::string& path) {
  JsonValue* v = At(&doc, path);
  EXPECT_NE(v, nullptr) << path;
  static JsonValue sink;
  return v != nullptr ? *v : sink;
}

bool Delete(JsonValue& doc, const std::string& path) {
  size_t dot = path.rfind('.');
  JsonValue* parent = dot == std::string::npos ? &doc : At(&doc, path.substr(0, dot));
  std::string key = dot == std::string::npos ? path : path.substr(dot + 1);
  if (parent == nullptr) {
    return false;
  }
  if (parent->type == Type::kArray) {
    long i = std::stol(key);
    if (i < 0) {
      i += static_cast<long>(parent->array.size());
    }
    parent->array.erase(parent->array.begin() + i);
    return true;
  }
  for (auto it = parent->object.begin(); it != parent->object.end(); ++it) {
    if (it->first == key) {
      parent->object.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<std::string> Under(const std::string& prefix, std::vector<std::string> keys) {
  for (std::string& k : keys) {
    k = prefix + k;
  }
  return keys;
}

void Append(std::vector<std::string>* to, const std::vector<std::string>& keys) {
  to->insert(to->end(), keys.begin(), keys.end());
}

// A histogram object and its six numbers.
std::vector<std::string> Hist(const std::string& path) {
  std::vector<std::string> keys = {path};
  Append(&keys, Under(path + ".", {"count", "min_us", "max_us", "mean_us", "p99_us", "total_us"}));
  return keys;
}

using Mutate = std::function<void(JsonValue&)>;

struct Gate {
  std::string name;
  Mutate mutate;
};

// One accepted document and what the checker must hold it to.
struct Case {
  Case(std::string n, JsonValue d) : name(std::move(n)), doc(std::move(d)) {}

  std::string name;
  JsonValue doc;
  // Deleted in turn and retyped in turn: each must be rejected.
  std::vector<std::string> typed;
  // Checked for presence only: deletion must be rejected.
  std::vector<std::string> present;
  // Optional sections: absence is fine, a retyped section must be rejected.
  std::vector<std::string> optional;
  // Value mutants, each violating one substantive gate.
  std::vector<Gate> gates;
  // Variants that must stay accepted.
  std::vector<Gate> relaxed;
};

Gate SetTo(const std::string& path, JsonValue value) {
  return {path + " = bad", [path, value](JsonValue& d) { Ref(d, path) = value; }};
}

Gate AddTo(const std::string& path, double delta) {
  return {path + " shifted", [path, delta](JsonValue& d) { Ref(d, path).number += delta; }};
}

Gate AppendViolation(const std::string& path) {
  return {path + " non-empty", [path](JsonValue& d) {
            JsonValue v;
            v.type = Type::kObject;
            v.object.emplace_back("kind", String("injected"));
            Ref(d, path).array.push_back(v);
          }};
}

void AddGates(std::vector<Gate>* to, const std::vector<Gate>& gates) {
  to->insert(to->end(), gates.begin(), gates.end());
}

// --- Embedded sections, shared by the documents that carry them ---

std::vector<std::string> CyclesKeys(const std::string& p) {
  return Under(p, {"epoch_ns", "elapsed_ns", "ledger_total_ns", "residual_ns",
                   "clock_unattributed_ns", "headroom_low_events", "buckets_ns", "sched_bands",
                   "conserved", "clock_conserved", "buckets_ns.user"});
}

std::vector<Gate> CyclesGates(const std::string& p) {
  return {AddTo(p + "residual_ns", 1), AddTo(p + "clock_unattributed_ns", 1),
          SetTo(p + "conserved", Bool(false)), SetTo(p + "clock_conserved", Bool(false)),
          AddTo(p + "elapsed_ns", 1),
          // Non-numeric even where it would not move the sum.
          {"string bucket", [p](JsonValue& d) {
             Ref(d, p + "buckets_ns").object.emplace_back("extra", String("0"));
           }}};
}

std::vector<std::string> ChainsKeys(const std::string& p) {
  std::vector<std::string> keys =
      Under(p, {"chain_emits", "chain_consumes", "origins_minted", "orphan_hops",
                "unconsumed_emits", "complete_window", "violations", "chains"});
  const std::string c = p + "chains.-1.";
  Append(&keys, Under(c, {"name", "resolved", "deadline_us", "completed", "incomplete",
                          "overruns", "hops"}));
  Append(&keys, Hist(c + "e2e"));
  const std::string h = c + "hops.-1.";
  Append(&keys, Under(h, {"endpoint_kind", "endpoint_id", "consumer_tid"}));
  Append(&keys, Hist(h + "queue"));
  Append(&keys, Hist(h + "exec"));
  return keys;
}

std::vector<Gate> ChainsGates(const std::string& p) {
  return {AppendViolation(p + "violations"), AddTo(p + "orphan_hops", 1),
          // orphan_hops is required even where its value is not gated.
          {"truncated window without orphan_hops", [p](JsonValue& d) {
             Ref(d, p + "complete_window") = Bool(false);
             Delete(d, p + "orphan_hops");
           }}};
}

std::vector<std::string> PostmortemKeys(const std::string& p) {
  std::vector<std::string> keys =
      Under(p, {"misses_analyzed", "records_dropped", "incomplete_misses", "unmatched_misses",
                "deadline_unknown", "conservation_failures", "window_truncated", "blame",
                "misses", "chain_overruns"});
  Append(&keys, Under(p + "blame.", {"misses_analyzed", "conservation_failures", "tardiness_ns",
                                     "unattributed_ns", "victims", "preemptors", "locks"}));
  Append(&keys, Under(p + "misses.-1.",
                      {"thread", "job", "response_ns", "tardiness_ns", "conserved", "ledger"}));
  return keys;
}

std::vector<Gate> PostmortemGates(const std::string& p) {
  return {AddTo(p + "conservation_failures", 1), SetTo(p + "misses.-1.conserved", Bool(false)),
          AddTo(p + "blame.unattributed_ns", 1), AddTo(p + "unmatched_misses", 1)};
}

std::vector<std::string> TimeseriesKeys(const std::string& p) {
  std::vector<std::string> keys = Under(
      p, {"schema", "window_us", "windows", "lost_samples", "windows_dropped", "gap_windows",
          "series"});
  const std::string w = p + "series.-1.";
  Append(&keys, Under(w, {"index", "start_us", "end_us", "samples", "jobs_released",
                          "jobs_completed", "deadline_misses", "context_switches", "interrupts",
                          "timer_dispatches", "chain_origins", "chain_e2e_completed",
                          "chain_e2e_overruns", "trace_dropped", "stats_snapshot_drops", "gap"}));
  Append(&keys, Hist(w + "response"));
  Append(&keys, Hist(w + "chain_e2e"));
  Append(&keys, Hist(w + "headroom"));
  return keys;
}

// `totals` holds the whole-run jobs_completed/deadline_misses the lossless
// series must telescope to.
std::vector<Gate> TimeseriesGates(const std::string& p, const std::string& totals) {
  std::vector<Gate> gates;
  // A non-numeric total is rejected even where, read as 0, it would match
  // the windows' sum.
  for (std::string key : {"jobs_completed", "deadline_misses"}) {
    gates.push_back({"string " + totals + key + " over zeroed windows", [=](JsonValue& d) {
                       for (JsonValue& w : Ref(d, p + "series").array) {
                         Ref(w, key) = Number(0);
                       }
                       Ref(d, totals + key) = String("7");
                     }});
  }
  AddGates(&gates, {SetTo(p + "schema", String("emeralds.obs.timeseries/0")),
          AddTo(p + "windows", 1),
          SetTo(p + "windows", Number(-1)),
          AddTo(p + "series.-1.start_us", 1),
          {"window index not increasing",
           [p](JsonValue& d) {
             Ref(d, p + "series.-1.index") = Ref(d, p + "series.-2.index");
           }},
          {"window ends at its start",
           [p](JsonValue& d) {
             Ref(d, p + "series.-1.end_us") = Ref(d, p + "series.-1.start_us");
           }},
          {"window wider than the grid",
           [p](JsonValue& d) {
             Ref(d, p + "series.-1.end_us").number =
                 Ref(d, p + "series.-1.start_us").number + Ref(d, p + "window_us").number + 1;
           }},
          AddTo(p + "gap_windows", 1),
          AddTo(totals + "jobs_completed", 1),
          AddTo(totals + "deadline_misses", 1)});
  return gates;
}

std::vector<std::string> AlertsKeys(const std::string& p, bool with_events) {
  std::vector<std::string> keys = Under(p, {"events", "fired", "config", "stream"});
  Append(&keys, Under(p + "config.", {"fast_windows", "slow_windows", "miss_budget_ppm",
                                      "miss_burn_threshold", "chain_budget_ppm",
                                      "chain_burn_threshold", "outlier_floor"}));
  if (with_events) {
    Append(&keys, Under(p + "stream.-1.",
                        {"node", "window", "time_us", "value", "total", "rule", "state"}));
  }
  return keys;
}

std::vector<Gate> AlertsGates(const std::string& p) {
  return {AddTo(p + "events", 1),
          SetTo(p + "events", Number(-1)),
          AddTo(p + "fired", 1),
          {"alert state neither firing nor resolved",
           [p](JsonValue& d) {
             // Keep `fired` consistent so only the state check can reject.
             JsonValue& state = Ref(d, p + "stream.-1.state");
             Ref(d, p + "fired").number -= state.string == "firing" ? 1 : 0;
             state = String("pending");
           }},
          {"alert stream out of window order", [p](JsonValue& d) {
             JsonValue late = Ref(d, p + "stream.-1");
             Ref(late, "window").number -= 1;
             Ref(late, "state") = String("resolved");
             Ref(d, p + "stream").array.push_back(late);
             Ref(d, p + "events").number += 1;
           }}};
}

std::vector<std::string> TelemetryKeys() {
  std::vector<std::string> keys =
      Under("telemetry.", {"schema", "jobs_completed", "deadline_misses",
                           "chain_overruns", "stats_snapshot_drops", "core_cycles_us",
                           "headroom", "trace", "cycles", "chains"});
  Append(&keys, Under("telemetry.headroom.", {"min_us", "min_node", "low_events_total"}));
  Append(&keys, Under("telemetry.trace.", {"dropped_total", "worst_node", "worst_node_dropped"}));
  Append(&keys, Hist("telemetry.response"));
  const std::string c = "telemetry.chains.-1.";
  Append(&keys, Under(c, {"name", "deadline_min_us", "deadline_max_us", "completed", "overruns",
                          "incomplete_instances", "hops"}));
  Append(&keys, Hist(c + "e2e"));
  Append(&keys, Hist(c + "hops.-1.queue"));
  Append(&keys, Hist(c + "hops.-1.exec"));
  return keys;
}

// --- The documents ---

Case Breakdown() {
  Case c{"BENCH_breakdown.json", LoadCommitted("BENCH_breakdown.json")};
  c.typed = {"schema", "points", "points.-1.evals"};
  Append(&c.typed, Under("points.-1.", {"n", "wall_seconds", "workloads_per_sec",
                                        "eval_reduction", "reference_mismatches"}));
  c.present = {"points.-1.evals.full_evals"};
  c.gates = {SetTo("points", EmptyArray()), AddTo("points.-1.reference_mismatches", 1)};
  return c;
}

Case Cycles() {
  Case c{"BENCH_cycles.json", LoadCommitted("BENCH_cycles.json")};
  c.typed = {"schema", "cycles", "tasks"};
  Append(&c.typed, CyclesKeys("cycles."));
  Append(&c.typed, Under("tasks.-1.", {"id", "jobs_completed", "user_ns", "overhead_ns",
                                       "cost_ewma_ns", "headroom_min_ns", "headroom_low_events"}));
  c.gates = CyclesGates("cycles.");
  return c;
}

Case Smp() {
  Case c{"BENCH_smp.json", LoadCommitted("BENCH_smp.json")};
  c.typed = {"schema", "horizon_ms", "ratio_2core", "ratio_4core", "throughput", "admission",
             "admission.points"};
  Append(&c.typed, Under("throughput.-1.", {"num_cores", "user_ns", "idle_ns", "ipis",
                                            "context_switches", "jobs_completed", "conserved",
                                            "cores"}));
  Append(&c.typed, Under("throughput.-1.cores.-1.",
                         {"core", "elapsed_ns", "ledger_total_ns", "residual_ns", "conserved"}));
  Append(&c.typed, Under("admission.points.-1.", {"utilization", "admitted_1core",
                                                  "admitted_2core", "admitted_4core"}));
  // Rows are 1, 2 and 4 cores, in that order.
  EXPECT_EQ(Ref(c.doc, "throughput.0.num_cores").number, 1);
  EXPECT_EQ(Ref(c.doc, "throughput.1.num_cores").number, 2);
  c.gates = {SetTo("throughput", EmptyArray()),
             SetTo("throughput.-1.conserved", Bool(false)),
             {"per-core ledger missing a core",
              [](JsonValue& d) { Delete(d, "throughput.-1.cores.-1"); }},
             AddTo("throughput.-1.cores.-1.residual_ns", 1),
             SetTo("throughput.-1.num_cores", Number(-4)),
             SetTo("throughput.-1.cores.-1.conserved", Bool(false)),
             {"2-core ratio below 1.7",
              [](JsonValue& d) {
                Ref(d, "throughput.1.user_ns").number =
                    1.6 * Ref(d, "throughput.0.user_ns").number;
              }},
             SetTo("throughput.0.user_ns", Number(0)),
             SetTo("admission.points", EmptyArray()),
             {"admission drops from 1 to 2 cores",
              [](JsonValue& d) {
                Ref(d, "admission.points.-1.admitted_1core").number =
                    Ref(d, "admission.points.-1.admitted_2core").number + 1;
              }},
             {"admission drops from 2 to 4 cores", [](JsonValue& d) {
                Ref(d, "admission.points.-1.admitted_4core").number =
                    Ref(d, "admission.points.-1.admitted_2core").number - 1;
              }}};
  return c;
}

// Keys and gates every fleet.run document carries.
void FleetCore(Case* c) {
  c->typed = {"schema", "timer_queue", "fleet_digest", "label", "schedulers", "trace", "triage",
              "triage.metrics", "triage.top_blame", "postmortem", "postmortem.blame_digest",
              "postmortem.incomplete_misses", "postmortem.blame"};
  Append(&c->typed, {"instances", "workers", "seed", "run_duration_ms", "slice_ms",
                     "events_total", "virtual_ms_total", "events_per_virtual_sec",
                     "jobs_completed", "deadline_misses", "timer_dispatches", "chain_completed",
                     "chain_overruns", "nodes_total", "nodes_failed", "arena_high_water_bytes",
                     "wall_seconds", "events_per_wall_sec"});
  Append(&c->typed, Under("trace.", {"dropped_total", "worst_node", "worst_node_dropped"}));
  Append(&c->typed, Under("triage.top_blame.", {"preemptor", "preemptor_ns", "lock", "lock_ns"}));
  Append(&c->typed, Under("postmortem.blame.", {"misses_analyzed", "conservation_failures",
                                                "tardiness_ns", "unattributed_ns"}));
  Append(&c->typed, TelemetryKeys());
  Append(&c->typed, TimeseriesKeys("timeseries."));
  c->present = {"triage.outlier_nodes", "telemetry.cycles.buckets_us", "telemetry.cycles.shares"};
  c->optional = {"telemetry", "timeseries", "alerts"};
  c->gates = {AddTo("nodes_failed", 1),
              SetTo("nodes_total", Number(0)),
              SetTo("events_total", Number(0)),
              SetTo("events_per_virtual_sec", Number(0)),
              SetTo("postmortem.blame_digest", String("")),
              AddTo("postmortem.blame.conservation_failures", 1),
              SetTo("telemetry.schema", String("emeralds.fleet.telemetry/0")),
              SetTo("telemetry.core_cycles_us", EmptyArray())};
  AddGates(&c->gates, TimeseriesGates("timeseries.", ""));
  c->relaxed = {{"optional sections absent", [](JsonValue& d) {
                   for (const char* key :
                        {"telemetry", "timeseries", "alerts", "trace_digest", "timers"}) {
                     Delete(d, key);
                   }
                 }}};
}

Case FleetCommitted() {
  Case c{"BENCH_fleet.json", LoadCommitted("BENCH_fleet.json")};
  FleetCore(&c);
  Append(&c.typed, AlertsKeys("alerts.", /*with_events=*/false));
  Append(&c.typed, Under("trace_digest.", {"records", "ns_per_record"}));
  Append(&c.typed, Under("timers.", {"points", "speedup_10k"}));
  Append(&c.typed, Under("timers.points.-1.", {"pending", "speedup", "wheel", "list"}));
  Append(&c.typed, Under("timers.points.-1.wheel.", {"arm_ns", "cancel_ns", "service_ns"}));
  Append(&c.typed, Under("timers.points.-1.list.", {"arm_ns", "cancel_ns", "service_ns"}));
  Append(&c.optional, {"trace_digest", "timers"});
  AddGates(&c.gates, {SetTo("trace_digest.records", Number(0)),
                      SetTo("trace_digest.ns_per_record", Number(0)),
                      SetTo("timers.points", EmptyArray()),
                      SetTo("timers.speedup_10k", Number(4.9))});
  return c;
}

fleet::FleetOptions OverloadedFleet() {
  fleet::FleetOptions opt;
  opt.instances = 8;
  opt.workers = 2;
  opt.seed = 42;
  opt.run_duration = Milliseconds(50);
  opt.slice = Milliseconds(5);
  opt.overload_node = 3;
  opt.overload_factor = 8;
  return opt;
}

// The documents a live run writes: one small fleet with an overloaded node
// (so alerts fire and the node misses deadlines), that node replayed for
// its obs.run, chains, postmortem and black-box documents and its window
// series, and a two-seed torture sweep. Built once per test binary.
const std::vector<Case>& LiveCases() {
  static const std::vector<Case>* built = [] {
    auto* b = new std::vector<Case>;
    const fleet::FleetOptions opt = OverloadedFleet();
    fleet::FleetResult result = fleet::RunFleet(opt);
    fleet::FleetRunInfo info;
    info.label = "mutation";
    info.run_duration = opt.run_duration;
    info.slice = opt.slice;

    Case fleet_case{"fleet.run (live)", Parse(fleet::BuildFleetRunReport(info, result, {}))};
    FleetCore(&fleet_case);
    Append(&fleet_case.typed, AlertsKeys("alerts.", /*with_events=*/true));
    AddGates(&fleet_case.gates, AlertsGates("alerts."));
    b->push_back(std::move(fleet_case));

    std::string run_doc, chains_doc, postmortem_doc, blackbox_doc;
    const fleet::NodeResult node = fleet::InspectNode(
        opt, opt.overload_node, [&](const Kernel& kernel, const fleet::NodeResult&) {
          std::vector<ThreadId> ids;
          for (size_t i = 0; i < kernel.thread_count(); ++i) {
            ids.push_back(ThreadId(static_cast<int>(i)));
          }
          obs::ObsRunInfo run_info;
          run_info.label = "mutation";
          run_info.scheduler = "node";
          run_info.run_duration = opt.run_duration;
          run_doc = obs::BuildObsRunReport(run_info, kernel, ids);
          std::vector<TraceEvent> scratch;
          obs::NodeOracles oracles = obs::RunNodeOracles(
              kernel, kernel.trace().Window(&scratch), kernel.trace().dropped());
          chains_doc = obs::BuildChainsReport("mutation", oracles.chains);
          postmortem_doc =
              obs::BuildPostmortemReport("mutation", oracles.postmortem, &oracles.chains);
          blackbox_doc = obs::BuildBlackBoxReport(
              obs::CaptureBlackBox(kernel, "mutation", "overloaded node", "repro line"));
        });

    Case run{"obs.run", Parse(run_doc)};
    run.typed = {"schema",   "trace",  "kernel_stats", "cycles",    "analysis",
                 "reconciliation", "chains", "postmortem", "snapshots", "tasks",
                 "analysis.violations"};
    Append(&run.typed, Under("trace.", {"total_recorded", "retained", "dropped"}));
    Append(&run.typed, Under("kernel_stats.", {"context_switches", "jobs_completed",
                                               "deadline_misses", "sem_acquires",
                                               "cse_switches_saved"}));
    Append(&run.typed, Under("analysis.", {"context_switches", "jobs_completed", "sem_blocks"}));
    std::vector<std::string> flags = {"context_switches_match", "deadline_misses_match",
                                      "jobs_completed_match",   "cse_early_pi_match",
                                      "headroom_low_match",     "chain_events_match"};
    Append(&run.typed, Under("reconciliation.", flags));
    Append(&run.typed, CyclesKeys("cycles."));
    Append(&run.typed, ChainsKeys("chains."));
    Append(&run.typed, PostmortemKeys("postmortem."));
    run.gates = {AppendViolation("analysis.violations")};
    for (const std::string& flag : flags) {
      run.gates.push_back(SetTo("reconciliation." + flag, Bool(false)));
    }
    AddGates(&run.gates, CyclesGates("cycles."));
    AddGates(&run.gates, ChainsGates("chains."));
    AddGates(&run.gates, PostmortemGates("postmortem."));
    b->push_back(std::move(run));

    Case chains{"obs.chains", Parse(chains_doc)};
    chains.typed = {"schema", "report"};
    Append(&chains.typed, ChainsKeys("report."));
    chains.gates = ChainsGates("report.");
    chains.relaxed = {{"orphan hops in a truncated window", [](JsonValue& d) {
                         Ref(d, "report.complete_window") = Bool(false);
                         Ref(d, "report.orphan_hops").number += 1;
                       }}};
    b->push_back(std::move(chains));

    Case postmortem{"obs.postmortem", Parse(postmortem_doc)};
    postmortem.typed = {"schema", "label", "report"};
    Append(&postmortem.typed, PostmortemKeys("report."));
    postmortem.gates = PostmortemGates("report.");
    b->push_back(std::move(postmortem));

    Case blackbox{"obs.blackbox", Parse(blackbox_doc)};
    blackbox.typed = {"schema", "label",    "reason",    "repro",     "virtual_time_us",
                      "trace",  "threads",  "stats",     "telemetry", "chains",
                      "snapshots", "postmortem"};
    Append(&blackbox.typed, Under("trace.", {"retained", "dropped", "total_recorded"}));
    Append(&blackbox.typed, Under("stats.", {"context_switches", "jobs_completed",
                                             "deadline_misses", "timer_dispatches",
                                             "headroom_low_events"}));
    Append(&blackbox.typed, Hist("telemetry.response"));
    Append(&blackbox.typed, Under("snapshots.", {"count", "dropped"}));
    Append(&blackbox.typed, PostmortemKeys("postmortem."));
    blackbox.gates = {SetTo("label", String("")), SetTo("reason", String("")),
                      SetTo("repro", String(""))};
    // A black box records a sick run on purpose: the postmortem's
    // substantive gates do not apply to it.
    blackbox.relaxed = PostmortemGates("postmortem.");
    b->push_back(std::move(blackbox));

    // The node's window series standing alone, with the whole-run totals it
    // must telescope to.
    obs::Json j;
    j.OpenObject();
    obs::AppendTimeseriesSection(j, node.windows, opt.timeseries_options.window,
                                 node.timeseries_lost_samples, node.timeseries_windows_dropped);
    j.CloseObject();
    JsonValue series = *Parse(j.str()).Find("timeseries");
    JsonValue totals;
    totals.type = Type::kObject;
    totals.object.emplace_back("jobs_completed",
                               Number(static_cast<double>(node.telemetry.jobs_completed)));
    totals.object.emplace_back("deadline_misses",
                               Number(static_cast<double>(node.telemetry.deadline_misses)));
    series.object.emplace_back("totals", totals);
    Case timeseries{"obs.timeseries", series};
    timeseries.typed = TimeseriesKeys("");
    timeseries.gates = TimeseriesGates("", "totals.");
    b->push_back(std::move(timeseries));

    std::vector<fuzz::TortureOptions> options(2);
    std::vector<fuzz::TortureResult> results;
    for (size_t i = 0; i < options.size(); ++i) {
      options[i].seed = i + 1;
      options[i].ops = 400;
      results.push_back(fuzz::RunTorture(options[i]));
    }
    Case torture{"fuzz.torture", Parse(fuzz::BuildTortureReport(options, results))};
    torture.typed = {"schema", "runs", "totals", "runs.-1.reconciliation", "runs.-1.cycles",
                     "runs.-1.cycles.conserved", "runs.-1.chains", "runs.-1.postmortem"};
    Append(&torture.typed, Under("runs.-1.", {"seed", "ops_executed", "violations",
                                              "fault_mismatches", "ok"}));
    Append(&torture.typed, Under("runs.-1.chains.", {"violations", "orphan_hops", "completed",
                                                     "origins"}));
    Append(&torture.typed, Under("runs.-1.postmortem.", {"misses_analyzed",
                                                         "conservation_failures",
                                                         "unattributed_ns", "unmatched",
                                                         "incomplete"}));
    Append(&torture.typed, Under("totals.", {"runs", "failed", "ops_executed"}));
    torture.present = {"runs.-1.reconciliation.checked", "runs.-1.reconciliation.ok"};
    torture.gates = {SetTo("runs", EmptyArray()),
                     SetTo("runs.-1.ok", Bool(false)),
                     AddTo("runs.-1.violations", 1),
                     AddTo("runs.-1.fault_mismatches", 1),
                     SetTo("runs.-1.cycles.conserved", Bool(false)),
                     AddTo("runs.-1.chains.violations", 1),
                     AddTo("runs.-1.postmortem.conservation_failures", 1),
                     AddTo("totals.failed", 1)};
    b->push_back(std::move(torture));
    return b;
  }();
  return *built;
}

std::vector<Case> AllCases() {
  std::vector<Case> cases = {Breakdown(), Cycles(), Smp(), FleetCommitted()};
  cases.insert(cases.end(), LiveCases().begin(), LiveCases().end());
  return cases;
}

// A type the checker never accepts where `v` is expected.
JsonValue Retyped(const JsonValue& v) {
  return v.type == Type::kNumber ? String("7") : Number(7);
}

TEST(BenchJsonCheckTest, AcceptsOneDocumentPerSchema) {
  std::set<std::string> schemas;
  for (const Case& c : AllCases()) {
    std::string message;
    EXPECT_TRUE(CheckReport(c.doc, &message)) << c.name << ": " << message;
    schemas.insert(c.doc.StringOr("schema", ""));
  }
  EXPECT_EQ(schemas.size(), 10u);
}

TEST(BenchJsonCheckTest, GoldenDocumentsExerciseEveryGate) {
  // The gates below need these to hold in the accepted documents; a golden
  // that drifted (an empty alert stream, a truncated window) would let a
  // mutant pass for the wrong reason or not resolve at all.
  for (const Case& c : AllCases()) {
    JsonValue doc = c.doc;
    for (const std::string& path : c.typed) {
      EXPECT_NE(At(&doc, path), nullptr) << c.name << ": " << path;
    }
    for (const std::string& path : c.present) {
      EXPECT_NE(At(&doc, path), nullptr) << c.name << ": " << path;
    }
    for (const char* path : {"report.complete_window", "chains.complete_window"}) {
      if (const JsonValue* v = At(&doc, path)) {
        EXPECT_TRUE(v->boolean) << c.name << ": " << path;
      }
    }
    for (const char* path : {"report.window_truncated", "postmortem.window_truncated"}) {
      if (const JsonValue* v = At(&doc, path)) {
        EXPECT_FALSE(v->boolean) << c.name << ": " << path;
      }
    }
    for (const char* path : {"timeseries.lost_samples", "lost_samples"}) {
      if (const JsonValue* lost = At(&doc, path)) {
        EXPECT_EQ(lost->number, 0) << c.name << ": " << path;
      }
    }
  }
}

TEST(BenchJsonCheckTest, RejectsEveryRequiredKeyDeletedOrRetyped) {
  int mutants = 0;
  for (const Case& c : AllCases()) {
    auto reject = [&](const std::string& what, const Mutate& mutate) {
      JsonValue doc = c.doc;
      mutate(doc);
      std::string message;
      EXPECT_FALSE(CheckReport(doc, &message)) << c.name << ": " << what << " was accepted";
      ++mutants;
    };
    for (const std::string& path : c.typed) {
      reject("deleted " + path, [&](JsonValue& d) { EXPECT_TRUE(Delete(d, path)) << path; });
      reject("retyped " + path, [&](JsonValue& d) { Ref(d, path) = Retyped(Ref(d, path)); });
    }
    for (const std::string& path : c.present) {
      reject("deleted " + path, [&](JsonValue& d) { EXPECT_TRUE(Delete(d, path)) << path; });
    }
    for (const std::string& path : c.optional) {
      reject("retyped " + path, [&](JsonValue& d) { Ref(d, path) = Retyped(Ref(d, path)); });
    }
  }
  EXPECT_GT(mutants, 900);
  std::printf("%d key mutants rejected\n", mutants);
}

TEST(BenchJsonCheckTest, RejectsEveryGateViolation) {
  int mutants = 0;
  for (const Case& c : AllCases()) {
    for (const Gate& gate : c.gates) {
      JsonValue doc = c.doc;
      gate.mutate(doc);
      std::string message;
      EXPECT_FALSE(CheckReport(doc, &message)) << c.name << ": " << gate.name << " was accepted";
      ++mutants;
    }
    JsonValue doc = c.doc;
    Ref(doc, "schema") = String("emeralds.unknown/1");
    std::string message;
    EXPECT_FALSE(CheckReport(doc, &message)) << c.name << ": unknown schema accepted";
    ++mutants;
  }
  std::printf("%d gate mutants rejected\n", mutants);
}

TEST(BenchJsonCheckTest, KeepsItsRelaxations) {
  for (const Case& c : AllCases()) {
    for (const Gate& gate : c.relaxed) {
      JsonValue doc = c.doc;
      gate.mutate(doc);
      std::string message;
      EXPECT_TRUE(CheckReport(doc, &message)) << c.name << ": " << gate.name << ": " << message;
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace emeralds
