// fleet_inspect: the one inspector for exported traces, fleet reports and
// replayed fleet nodes.
//
// Pick one input:
//
//   fleet_inspect --trace=<trace.csv> [--run=<run.json>] [views]
//       Replays a TraceSink CSV export through the trace analyzer and prints
//       per-task response/blocking histograms plus preemption / PI / CSE
//       counters. --run cross-checks the analyzer's counters against the
//       kernel counters of the same run's emeralds.obs.run/1 report and
//       renders its cycle-attribution section as a Table 1 / Figure 3-style
//       breakdown, re-verifying conservation from the JSON integers.
//
//   fleet_inspect <fleet_report.json>
//       Renders the fleet's headline numbers, merged telemetry percentiles,
//       and the anomaly-triage tables (worst nodes per metric, median/MAD
//       outlier flags) from the report alone — no simulation.
//
//   fleet_inspect [fleet_report.json] --node=N | --merge=N1,N2,... [--dir=D] [views]
//       Deterministically re-runs node N (or each listed node) of the fleet
//       the report describes — a node is a pure function of the fleet seed
//       and its index, so the replay is bit-identical — and prints its oracle
//       verdict and telemetry. --dir writes each node's black-box bundle.
//
//   fleet_inspect [fleet_report.json] --openmetrics=OUT.txt
//       Re-runs the whole fleet and writes the OpenMetrics text exposition
//       (validated before writing; "-" means stdout).
//
// Views over a trace or the replayed node(s):
//   --chains             causal-token conservation and per-endpoint traffic
//   --postmortem         every missed deadline's exactly-telescoping
//                        lateness ledger and the blame totals
//   --postmortem-json=F  the same analysis as a standalone
//                        emeralds.obs.postmortem/1 report (one trace or node)
//   --timeseries         (nodes) the streaming telemetry windows, then the
//                        alert stream with exact virtual timestamps
//   --perfetto=F         the window(s) as Chrome/Perfetto trace JSON: late
//                        jobs annotated on a trace, alert markers and one
//                        process per node on a replay
// A node's default view is its oracle summary; --timeseries, --postmortem
// and --chains replace it. A flag that means nothing for the selected input
// (--timeseries with --trace, --run with --node, ...) is rejected.
//
// The fleet configuration comes from the report; the config flags
// (--instances, --seed, --run-ms, --slice-ms, --timer-queue,
// --trace-capacity, --overload-node, --overload-factor) override it
// whenever they are given, and with a full flag set the report may be
// omitted — the form NodeReproCommand() emits into black-box repro.txt.
//
// Exit status: 0 clean; 1 usage / I/O / parse failure; 2 an invariant,
// chain or postmortem conservation failure, an inspected node that failed
// an oracle, or (table mode) a report that records failed nodes; 3 a
// reconciliation mismatch or cycle-conservation failure against --run.

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/base/file.h"
#include "src/base/flags.h"
#include "src/base/json.h"
#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/fleet/openmetrics.h"
#include "src/obs/alerts.h"
#include "src/obs/blackbox.h"
#include "src/obs/obs_report.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/postmortem.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_csv.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace fleet {
namespace {

constexpr FlagContext kFlags{
    "fleet_inspect",
    "usage: fleet_inspect --trace=TRACE.csv [--run=RUN.json] [views]\n"
    "       fleet_inspect REPORT.json\n"
    "       fleet_inspect [REPORT.json] (--node=N | --merge=N1,N2,...) [--dir=DIR] [views]\n"
    "       fleet_inspect [REPORT.json] --openmetrics=OUT.txt\n"
    "views: [--chains] [--postmortem] [--postmortem-json=OUT.json] [--timeseries]\n"
    "       [--perfetto=OUT.json]\n"
    "fleet: [--instances=N] [--seed=S] [--run-ms=M] [--slice-ms=K]\n"
    "       [--timer-queue=wheel|sorted_list] [--trace-capacity=C]\n"
    "       [--overload-node=I] [--overload-factor=F]\n"};

struct Args {
  const char* report = nullptr;
  const char* trace = nullptr;
  const char* run = nullptr;
  const char* dir = nullptr;
  const char* perfetto = nullptr;
  const char* postmortem_json = nullptr;
  const char* openmetrics = nullptr;
  std::vector<int> nodes;  // --node or --merge
  bool chains = false;
  bool postmortem = false;
  bool timeseries = false;
  FleetOptions fleet;           // defaults overridden by the config flags
  std::set<std::string> given;  // every flag on the command line
  // The flag that selected the input: "--trace", "--node", "--merge",
  // "--openmetrics", or "" for the report table.
  std::string input;
};

const std::set<std::string> kFleetConfigFlags = {
    "--instances",      "--seed",          "--run-ms",         "--slice-ms", "--timer-queue",
    "--trace-capacity", "--overload-node", "--overload-factor"};

// Whether `flag` means something for the input that `input` selected.
bool FlagFitsInput(const std::string& input, const std::string& flag) {
  if (flag == input) {
    return true;
  }
  bool view = flag == "--chains" || flag == "--postmortem" || flag == "--postmortem-json" ||
              flag == "--perfetto";
  if (input == "--trace") {
    return view || flag == "--run";
  }
  if (input == "--node" || input == "--merge") {
    if (flag == "--postmortem-json") {
      return input == "--node";
    }
    return view || flag == "--timeseries" || flag == "--dir" || kFleetConfigFlags.count(flag);
  }
  return input == "--openmetrics" && kFleetConfigFlags.count(flag);
}

// Comma-separated node list: every element a strict integer, no duplicates,
// no empty elements. Range against --instances is checked later (the
// instance count may still come from the report at parse time).
bool ParseNodeList(const char* list, std::vector<int>* out) {
  std::string text = list;
  size_t pos = 0;
  for (;;) {
    size_t comma = text.find(',', pos);
    std::string item = text.substr(pos, comma == std::string::npos ? std::string::npos
                                                                   : comma - pos);
    int64_t value = 0;
    if (!ParseInt(item.c_str(), 0, INT_MAX, &value)) {
      kFlags.Fail("bad node '%s' in --merge list", item.c_str());
      return false;
    }
    for (int existing : *out) {
      if (existing == value) {
        kFlags.Fail("node %lld listed twice in --merge", static_cast<long long>(value));
        return false;
      }
    }
    out->push_back(static_cast<int>(value));
    if (comma == std::string::npos) {
      return true;
    }
    pos = comma + 1;
  }
}

bool ParseArgs(int argc, char** argv, Args* a) {
  FleetOptions& opt = a->fleet;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    std::string name(arg, std::strcspn(arg, "="));
    if (arg[0] == '-' && !a->given.insert(name).second) {
      kFlags.Fail("%s given twice", name.c_str());
      return false;
    }
    int64_t ms = 0;
    bool ok = true;
    if (FlagValue(arg, "--trace", &v)) {
      a->trace = v;
    } else if (FlagValue(arg, "--run", &v)) {
      a->run = v;
    } else if (FlagValue(arg, "--node", &v)) {
      int node = 0;
      ok = kFlags.Int("--node", v, 0, INT_MAX, &node);
      a->nodes = {node};
    } else if (FlagValue(arg, "--merge", &v)) {
      ok = ParseNodeList(v, &a->nodes);
    } else if (FlagValue(arg, "--dir", &v)) {
      a->dir = v;
    } else if (FlagValue(arg, "--perfetto", &v)) {
      a->perfetto = v;
    } else if (FlagValue(arg, "--postmortem-json", &v)) {
      a->postmortem_json = v;
    } else if (FlagValue(arg, "--openmetrics", &v)) {
      a->openmetrics = v;
    } else if (std::strcmp(arg, "--chains") == 0) {
      a->chains = true;
    } else if (std::strcmp(arg, "--postmortem") == 0) {
      a->postmortem = true;
    } else if (std::strcmp(arg, "--timeseries") == 0) {
      a->timeseries = true;
    } else if (FlagValue(arg, "--instances", &v)) {
      ok = kFlags.Int("--instances", v, 1, INT_MAX, &opt.instances);
    } else if (FlagValue(arg, "--seed", &v)) {
      ok = kFlags.Int<uint64_t>("--seed", v, 0, INT64_MAX, &opt.seed);
    } else if (FlagValue(arg, "--run-ms", &v)) {
      ok = kFlags.Int<int64_t>("--run-ms", v, 1, INT64_MAX / 1000000, &ms);
      opt.run_duration = Milliseconds(ms);
    } else if (FlagValue(arg, "--slice-ms", &v)) {
      ok = kFlags.Int<int64_t>("--slice-ms", v, 1, INT64_MAX / 1000000, &ms);
      opt.slice = Milliseconds(ms);
    } else if (FlagValue(arg, "--timer-queue", &v)) {
      bool wheel = std::strcmp(v, "wheel") == 0;
      ok = wheel || std::strcmp(v, "sorted_list") == 0;
      opt.timer_queue = wheel ? TimerQueueImpl::kWheel : TimerQueueImpl::kSortedList;
      if (!ok) {
        kFlags.Fail("bad value '%s' for --timer-queue", v);
      }
    } else if (FlagValue(arg, "--trace-capacity", &v)) {
      ok = kFlags.Int<size_t>("--trace-capacity", v, 0, INT64_MAX, &opt.trace_capacity);
    } else if (FlagValue(arg, "--overload-node", &v)) {
      ok = kFlags.Int("--overload-node", v, -1, INT_MAX, &opt.overload_node);
    } else if (FlagValue(arg, "--overload-factor", &v)) {
      ok = kFlags.Int("--overload-factor", v, 1, INT_MAX, &opt.overload_factor);
    } else if (a->report == nullptr && arg[0] != '-') {
      a->report = arg;
    } else {
      kFlags.Fail("unknown argument '%s'", arg);
      return false;
    }
    if (!ok) {
      return false;
    }
  }

  for (const char* input : {"--trace", "--node", "--merge", "--openmetrics"}) {
    if (a->input.empty() && a->given.count(input)) {
      a->input = input;
    }
  }
  for (const std::string& flag : a->given) {
    if (!FlagFitsInput(a->input, flag)) {
      kFlags.Fail("%s has no meaning with %s", flag.c_str(),
                  a->input.empty() ? "a report table" : a->input.c_str());
      return false;
    }
  }
  if (a->trace != nullptr && a->report != nullptr) {
    kFlags.Fail("a fleet report has no meaning with --trace");
    return false;
  }
  return true;
}

// Reads a JSON report and checks its schema tag.
bool LoadReport(const char* path, const char* schema, JsonValue* root) {
  std::string error;
  if (!JsonParseFile(path, root, &error)) {
    kFlags.Fail("%s", error.c_str());
    return false;
  }
  if (std::strcmp(root->StringOr("schema", ""), schema) != 0) {
    kFlags.Fail("%s is not an %s report", path, schema);
    return false;
  }
  return true;
}

// For an output file that could not be written completely.
void CannotWrite(const char* path) {
  std::fprintf(stderr, "%s: cannot write %s\n", kFlags.program, path);
}

// Writes the windows as one Perfetto document; `what` follows the entry
// count in the confirmation line.
bool WritePerfetto(const char* path, const std::vector<obs::PerfettoWindow>& windows,
                   const std::string& what) {
  std::FILE* f = std::fopen(path, "w");
  size_t entries = f != nullptr ? obs::ExportPerfettoJsonMulti(windows, f) : 0;
  if (f == nullptr || !CloseWrittenFile(f)) {
    CannotWrite(path);
    return false;
  }
  std::printf("perfetto: wrote %zu entries%s to %s\n", entries, what.c_str(), path);
  return true;
}

// --- Trace views ---

void PrintHistogram(const char* title, const Log2Histogram& h) {
  std::printf("    %s: n=%" PRIu64, title, h.count());
  if (h.count() == 0) {
    std::printf("\n");
    return;
  }
  std::printf("  min=%.1fus  mean=%.1fus  p99<=%.1fus  max=%.1fus\n", h.min().micros_f(),
              h.mean().micros_f(), h.ApproxPercentile(0.99).micros_f(), h.max().micros_f());
  uint64_t peak = 0;
  for (int b = 0; b <= h.HighestBucket(); ++b) {
    if (h.bucket(b) > peak) {
      peak = h.bucket(b);
    }
  }
  for (int b = 0; b <= h.HighestBucket(); ++b) {
    if (h.bucket(b) == 0) {
      continue;
    }
    int bar = static_cast<int>(h.bucket(b) * 40 / peak);
    std::printf("      [%8lldus, %8lldus) %-40.*s %" PRIu64 "\n",
                static_cast<long long>(Log2Histogram::BucketFloorUs(b)),
                static_cast<long long>(Log2Histogram::BucketFloorUs(b + 1)), bar,
                "########################################", h.bucket(b));
  }
}

void PrintAnalysis(const obs::TraceAnalysis& a) {
  std::printf("trace window: %" PRIu64 " switches, %" PRIu64 "/%" PRIu64
              " jobs released/completed, %" PRIu64 " deadline misses\n",
              a.context_switches, a.jobs_released, a.jobs_completed, a.deadline_misses);
  std::printf("semaphores: %" PRIu64 " acquires, %" PRIu64 " blocks, %" PRIu64
              " CSE early-PI, max PI chain depth %d\n",
              a.sem_acquires, a.sem_blocks, a.cse_early_pi, a.max_pi_chain_depth);
  if (a.dropped_events > 0) {
    std::printf("note: %" PRIu64 " events dropped before this window; counters cover the "
                "retained suffix only\n",
                a.dropped_events);
  }
  for (const obs::TaskMetrics& t : a.tasks) {
    if (!t.seen) {
      continue;
    }
    std::printf("  thread %d: %" PRIu64 " releases, %" PRIu64 " completes, %" PRIu64
                " misses, %" PRIu64 " preemptions, run %.1fus\n",
                t.thread_id, t.releases, t.completes, t.deadline_misses, t.preemptions,
                t.run_time.micros_f());
    if (t.sem_acquires + t.sem_blocks + t.pi_received + t.pi_donated + t.cse_early_pi > 0) {
      std::printf("    sem: %" PRIu64 " acquires, %" PRIu64 " blocks | PI: %" PRIu64
                  " received, %" PRIu64 " donated, depth %d | CSE early-PI %" PRIu64 "\n",
                  t.sem_acquires, t.sem_blocks, t.pi_received, t.pi_donated, t.max_pi_depth,
                  t.cse_early_pi);
    }
    PrintHistogram("response", t.response);
    PrintHistogram("blocking", t.blocking);
  }
  if (a.unresolved_blocks_at_end > 0) {
    std::printf("  (%" PRIu64 " thread(s) still blocked at end of window)\n",
                a.unresolved_blocks_at_end);
  }
}

// Compares one analyzer counter against the kernel counter in the report.
bool CheckCounter(const JsonValue& run, const char* key, uint64_t analyzer_value) {
  const JsonValue* stats = run.Find("kernel_stats");
  const JsonValue* v = stats != nullptr ? stats->Find(key, JsonValue::Type::kNumber) : nullptr;
  if (v == nullptr) {
    std::printf("reconcile %-18s: MISSING in run report\n", key);
    return false;
  }
  int64_t kernel_value = static_cast<int64_t>(v->number);
  bool match = kernel_value == static_cast<int64_t>(analyzer_value);
  std::printf("reconcile %-18s: kernel=%" PRId64 " analyzer=%" PRIu64 " %s\n", key,
              kernel_value, analyzer_value, match ? "ok" : "MISMATCH");
  return match;
}

// Renders the run report's cycle-attribution section as the Table 1 /
// Figure 3-style breakdown and re-checks the conservation invariant from
// the JSON integers (bucket sum == elapsed, exact to the tick). Returns
// false when the section is missing, the recomputed sum disagrees with
// elapsed, or the report's own verdict is false.
bool PrintCyclesBreakdown(const JsonValue& run) {
  const JsonValue* c = run.Find("cycles", JsonValue::Type::kObject);
  if (c == nullptr) {
    std::printf("cycles: section MISSING from run report\n");
    return false;
  }
  const JsonValue* buckets = c->Find("buckets_ns", JsonValue::Type::kObject);
  if (buckets == nullptr) {
    std::printf("cycles: buckets_ns MISSING from run report\n");
    return false;
  }
  int64_t elapsed = c->IntOr("elapsed_ns", 0);
  std::printf("cycle attribution (%.1f us elapsed since epoch %.1f us):\n", elapsed / 1e3,
              c->IntOr("epoch_ns", 0) / 1e3);
  int64_t sum = 0;
  for (const auto& kv : buckets->object) {
    int64_t ns = buckets->IntOr(kv.first, 0);
    sum += ns;
    if (ns == 0) {
      continue;
    }
    double pct = elapsed > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(elapsed)
                             : 0.0;
    std::printf("  %-16s %12.1f us  %5.1f%%\n", kv.first.c_str(), ns / 1e3, pct);
  }
  const JsonValue* bands = c->Find("sched_bands", JsonValue::Type::kArray);
  if (bands != nullptr && !bands->array.empty()) {
    std::printf("  scheduler cost by band:\n");
    for (const JsonValue& b : bands->array) {
      std::printf("    %-4s (band %lld): block %.1fus  unblock %.1fus  select %.1fus\n",
                  b.StringOr("label", "?"), static_cast<long long>(b.IntOr("band", 0)),
                  b.IntOr("block_ns", 0) / 1e3, b.IntOr("unblock_ns", 0) / 1e3,
                  b.IntOr("select_ns", 0) / 1e3);
    }
  }
  bool reported = c->BoolOr("conserved", false);
  bool recomputed = sum == elapsed;
  std::printf("  conservation: ledger %.1f us vs elapsed %.1f us -> %s (report: %s)\n",
              sum / 1e3, elapsed / 1e3, recomputed ? "exact" : "VIOLATED",
              reported ? "conserved" : "NOT conserved");
  int64_t unattributed = c->IntOr("clock_unattributed_ns", 0);
  if (unattributed != 0) {
    std::printf("  WARNING: %.1f us advanced outside the kernel's charging paths\n",
                unattributed / 1e3);
  }
  return recomputed && reported;
}

// --- Views shared by a trace and a replayed node ---

// Token conservation plus per-endpoint traffic. A raw CSV carries no
// ChainSpec registry, so this is the spec-free check: a corrupted or
// kernel-buggy stream fails here exactly like it does in process. Returns
// false on any chain violation.
bool PrintChains(const obs::ChainAnalysis& chains) {
  std::printf("chains: %" PRIu64 " emits, %" PRIu64 " consumes, %" PRIu64
              " origins minted%s\n",
              chains.chain_emits, chains.chain_consumes, chains.origins_minted,
              chains.complete_window ? "" : " (truncated window)");
  if (chains.orphan_hops > 0) {
    std::printf("  %" PRIu64 " orphan hop(s): emits fell outside the retained window\n",
                chains.orphan_hops);
  }
  if (chains.unconsumed_emits > 0) {
    std::printf("  %" PRIu64 " unconsumed emit(s) (banked/overwritten tokens, unread slots)\n",
                chains.unconsumed_emits);
  }
  for (const auto& kv : chains.endpoint_traffic) {
    std::printf("  %s:%d  %" PRIu64 " emits, %" PRIu64 " consumes\n",
                ChainEndpointKindToString(ChainEndpointKindOf(kv.first)),
                ChainEndpointChannel(kv.first), kv.second.first, kv.second.second);
  }
  if (!chains.ok()) {
    std::printf("CHAIN VIOLATIONS: %zu\n", chains.violations.size());
    for (const obs::ChainViolation& v : chains.violations) {
      std::printf("  [%s] event %zu: %s\n", obs::ChainViolationKindToString(v.kind),
                  v.event_index, v.detail.c_str());
    }
    return false;
  }
  std::printf("chain conservation: ok\n");
  return true;
}

// The --chains, --postmortem and --postmortem-json views over one window.
// `prefix` opens each printed view; `label` names the JSON report. Returns
// 0, 2 on a chain violation or a ledger that failed to telescope, or 1
// when the report cannot be written.
int ShowAnalyses(const Args& a, const std::string& prefix, const std::string& label,
                 const obs::ChainAnalysis& chains, const obs::PostmortemAnalysis& postmortem) {
  int status = 0;
  if (a.chains) {
    std::printf("%s", prefix.c_str());
    if (!PrintChains(chains)) {
      status = 2;
    }
  }
  if (a.postmortem) {
    std::printf("%s", prefix.c_str());
    obs::PrintPostmortem(stdout, postmortem, &chains);
  }
  if (a.postmortem_json != nullptr) {
    if (!WriteTextFile(a.postmortem_json, obs::BuildPostmortemReport(label, postmortem, &chains))) {
      CannotWrite(a.postmortem_json);
      return 1;
    }
    std::printf("postmortem: wrote %" PRIu64 " analyzed miss(es) to %s\n",
                postmortem.misses_analyzed, a.postmortem_json);
  }
  if ((a.postmortem || a.postmortem_json != nullptr) && !postmortem.ok()) {
    status = 2;  // a ledger failed to telescope: the engine's hard invariant
  }
  return status;
}

int InspectTrace(const Args& a) {
  JsonValue run;
  if (a.run != nullptr && !LoadReport(a.run, obs::kObsRunSchema, &run)) {
    return 1;
  }
  std::FILE* f = std::fopen(a.trace, "r");
  if (f == nullptr) {
    kFlags.Fail("cannot open %s", a.trace);
    return 1;
  }
  obs::TraceCsvImport import;
  std::string error;
  bool imported = obs::ImportTraceCsv(f, &import, &error);
  std::fclose(f);
  if (!imported) {
    kFlags.Fail("%s: %s", a.trace, error.c_str());
    return 1;
  }

  // One replay feeds every view below.
  obs::TraceReplay replay =
      obs::ReplayTrace(import.events.data(), import.events.size(), import.dropped, {});
  const obs::TraceAnalysis& analysis = replay.trace;
  std::printf("%s: %zu events (%" PRIu64 " dropped before window)\n", a.trace,
              import.events.size(), import.dropped);
  PrintAnalysis(analysis);

  int status = 0;
  if (!analysis.ok()) {
    std::printf("INVARIANT VIOLATIONS: %zu\n", analysis.violations.size());
    for (const obs::TraceViolation& v : analysis.violations) {
      std::printf("  [%s] event %zu: %s\n", obs::InvariantKindToString(v.kind), v.event_index,
                  v.detail.c_str());
    }
    status = 2;
  } else {
    std::printf("invariants: ok\n");
  }

  int views = ShowAnalyses(a, "", a.trace, replay.chains, replay.postmortem);
  if (views == 1) {
    return 1;
  }
  if (status == 0) {
    status = views;
  }

  if (a.run != nullptr) {
    if (!analysis.complete_window) {
      std::printf("reconcile: skipped (truncated window; kernel counters cover the full run)\n");
    } else {
      bool all = true;
      all &= CheckCounter(run, "context_switches", analysis.context_switches);
      all &= CheckCounter(run, "deadline_misses", analysis.deadline_misses);
      all &= CheckCounter(run, "jobs_completed", analysis.jobs_completed);
      all &= CheckCounter(run, "cse_early_pi", analysis.cse_early_pi);
      if (!all && status == 0) {
        status = 3;
      }
    }
    // The cycle breakdown and its conservation invariant hold regardless of
    // trace truncation: they come from the kernel's own counters.
    if (!PrintCyclesBreakdown(run) && status == 0) {
      status = 3;
    }
  }

  if (a.perfetto != nullptr) {
    std::vector<obs::PerfettoWindow> window(1);
    window[0].events = import.events.data();
    window[0].count = import.events.size();
    window[0].options.dropped_events = import.dropped;
    // Late jobs become annotation slices on the victims' tracks.
    window[0].options.annotations = obs::PostmortemAnnotations(replay.postmortem);
    if (!WritePerfetto(a.perfetto, window, "")) {
      return 1;
    }
  }
  return status;
}

// --- Fleet views ---

void PrintPercentiles(const char* title, const JsonValue& hist) {
  std::printf("  %-14s n=%-8lld p50<=%.0fus  p90<=%.0fus  p99<=%.0fus  max=%.0fus\n", title,
              static_cast<long long>(hist.IntOr("count", 0)), hist.NumberOr("p50_us", 0),
              hist.NumberOr("p90_us", 0), hist.NumberOr("p99_us", 0),
              hist.NumberOr("max_us", 0));
}

// Table mode: everything comes from the report document.
int PrintReport(const JsonValue& root, const char* path) {
  std::printf("%s: %s fleet, %lld nodes, seed %lld, %s timers\n", path,
              root.StringOr("label", ""), static_cast<long long>(root.IntOr("instances", 0)),
              static_cast<long long>(root.IntOr("seed", 0)), root.StringOr("timer_queue", ""));
  std::printf("  events=%lld (%.0f/virtual-sec)  jobs=%lld  misses=%lld  chain overruns=%lld\n",
              static_cast<long long>(root.IntOr("events_total", 0)),
              root.NumberOr("events_per_virtual_sec", 0),
              static_cast<long long>(root.IntOr("jobs_completed", 0)),
              static_cast<long long>(root.IntOr("deadline_misses", 0)),
              static_cast<long long>(root.IntOr("chain_overruns", 0)));
  std::printf("  nodes failed=%lld anomalous=%lld  digest=%s\n",
              static_cast<long long>(root.IntOr("nodes_failed", 0)),
              static_cast<long long>(root.IntOr("nodes_anomalous", 0)),
              root.StringOr("fleet_digest", ""));
  if (const JsonValue* trace = root.Find("trace")) {
    int64_t dropped = trace->IntOr("dropped_total", 0);
    if (dropped > 0) {
      std::printf("  trace dropped=%lld (worst: node %lld dropped %lld)\n",
                  static_cast<long long>(dropped),
                  static_cast<long long>(trace->IntOr("worst_node", -1)),
                  static_cast<long long>(trace->IntOr("worst_node_dropped", 0)));
    }
  }

  if (const JsonValue* telemetry = root.Find("telemetry")) {
    std::printf("telemetry (%s, %lld nodes):\n", telemetry->StringOr("schema", ""),
                static_cast<long long>(root.IntOr("nodes_total", 0)));
    std::printf("  snapshot drops=%lld\n",
                static_cast<long long>(telemetry->IntOr("stats_snapshot_drops", 0)));
    if (const JsonValue* cycles = telemetry->Find("core_cycles_us")) {
      std::printf("  core cycles:");
      int core = 0;
      for (const JsonValue& c : cycles->array) {
        std::printf(" c%d=%.0fus", core++, c.number);
      }
      std::printf("\n");
    }
    if (const JsonValue* response = telemetry->Find("response")) {
      PrintPercentiles("response", *response);
    }
    if (const JsonValue* chains = telemetry->Find("chains")) {
      for (const JsonValue& c : chains->array) {
        if (const JsonValue* e2e = c.Find("e2e")) {
          std::string name = std::string("chain ") + c.StringOr("name", "");
          PrintPercentiles(name.c_str(), *e2e);
        }
      }
    }
  }

  if (const JsonValue* postmortem = root.Find("postmortem")) {
    if (const JsonValue* blame = postmortem->Find("blame")) {
      std::printf("postmortem: %lld miss(es) analyzed, %.0fus blamed tardiness, "
                  "%lld unattributed ns, digest=%s\n",
                  static_cast<long long>(blame->IntOr("misses_analyzed", 0)),
                  static_cast<double>(blame->IntOr("tardiness_ns", 0)) / 1e3,
                  static_cast<long long>(blame->IntOr("unattributed_ns", 0)),
                  postmortem->StringOr("blame_digest", ""));
    }
  }

  if (const JsonValue* triage = root.Find("triage")) {
    std::printf("triage:\n");
    if (const JsonValue* metrics = triage->Find("metrics")) {
      for (const JsonValue& m : metrics->array) {
        const JsonValue* top = m.Find("top");
        if (top == nullptr || top->array.empty()) {
          continue;
        }
        std::printf("  %-20s median=%lld mad=%lld outliers=%lld | worst:",
                    m.StringOr("name", ""), static_cast<long long>(m.IntOr("median", 0)),
                    static_cast<long long>(m.IntOr("mad", 0)),
                    static_cast<long long>(m.IntOr("outliers", 0)));
        for (const JsonValue& e : top->array) {
          std::printf(" n%lld=%lld%s", static_cast<long long>(e.IntOr("node", -1)),
                      static_cast<long long>(e.IntOr("value", 0)),
                      e.BoolOr("outlier", false) ? "*" : "");
        }
        std::printf("\n");
      }
    }
    if (const JsonValue* blame = triage->Find("top_blame")) {
      int64_t preemptor = blame->IntOr("preemptor", -1);
      int64_t lock = blame->IntOr("lock", -1);
      if (preemptor >= 0 || lock >= 0) {
        std::printf("  top blame:");
        if (preemptor >= 0) {
          std::printf(" preemptor t%lld (%.0fus)", static_cast<long long>(preemptor),
                      static_cast<double>(blame->IntOr("preemptor_ns", 0)) / 1e3);
        }
        if (lock >= 0) {
          std::printf(" lock S%lld (%.0fus)", static_cast<long long>(lock),
                      static_cast<double>(blame->IntOr("lock_ns", 0)) / 1e3);
        }
        std::printf("\n");
      }
    }
    if (const JsonValue* outliers = triage->Find("outlier_nodes")) {
      if (!outliers->array.empty()) {
        std::printf("  outlier nodes:");
        for (const JsonValue& n : outliers->array) {
          std::printf(" %lld", static_cast<long long>(n.number));
        }
        std::printf("\n");
      }
    }
  }

  if (const JsonValue* alerts = root.Find("alerts")) {
    std::printf("alerts: %lld events, %lld fired\n",
                static_cast<long long>(alerts->IntOr("events", 0)),
                static_cast<long long>(alerts->IntOr("fired", 0)));
    if (const JsonValue* stream = alerts->Find("stream")) {
      for (const JsonValue& e : stream->array) {
        std::printf("  %8lldus node %-3lld %-20s %s value=%lld/%lld\n",
                    static_cast<long long>(e.IntOr("time_us", 0)),
                    static_cast<long long>(e.IntOr("node", -1)), e.StringOr("rule", ""),
                    e.StringOr("state", ""), static_cast<long long>(e.IntOr("value", 0)),
                    static_cast<long long>(e.IntOr("total", 0)));
      }
    }
  }

  if (const JsonValue* boxes = root.Find("blackboxes")) {
    std::printf("black boxes (%s):", root.StringOr("artifacts_dir", ""));
    for (const JsonValue& b : boxes->array) {
      std::printf(" %s", b.StringOr("dir", ""));
    }
    std::printf("\n");
  }
  return root.IntOr("nodes_failed", 0) > 0 ? 2 : 0;
}

void PrintNodeResult(int index, const NodeResult& r) {
  const obs::NodeTelemetry& t = r.telemetry;
  std::printf("node %d: %s, %" PRIu64 " events, %" PRIu64 " jobs, %" PRIu64
              " misses, %" PRIu64 " chain overruns, %" PRIu64 " headroom-low\n",
              index, r.scheduler.c_str(), r.events, t.jobs_completed, t.deadline_misses,
              t.chain_overruns, t.headroom_low_events);
  std::printf("  digest=0x%016llx  trace dropped=%" PRIu64 "\n",
              static_cast<unsigned long long>(r.trace_digest), t.trace_dropped);
  if (t.response.count() > 0) {
    std::printf("  response: n=%" PRIu64 " p50<=%.0fus p99<=%.0fus max=%.0fus\n",
                t.response.count(), t.response.PercentileBound(0.5).micros_f(),
                t.response.PercentileBound(0.99).micros_f(), t.response.max().micros_f());
  }
  for (const obs::AlertEvent& e : r.alerts) {
    std::printf("  alert %8lldus %-20s %s value=%" PRIu64 "/%" PRIu64 "\n",
                static_cast<long long>(e.time.micros()), obs::AlertRuleName(e.rule),
                e.firing ? "FIRING" : "resolved", e.value, e.total);
  }
  if (r.anomalous()) {
    std::printf("  ANOMALY (score %" PRIu64 "): %s\n", r.anomaly_score, r.anomaly.c_str());
  } else {
    std::printf("  oracles: ok\n");
  }
}

// One line per telemetry window: enough to eyeball a burn without a UI.
void PrintWindowSeries(int index, const NodeResult& r, Duration window_width) {
  std::printf("timeseries node %d: %zu windows of %lldus (lost samples=%" PRIu64
              ", windows dropped=%" PRIu64 ")\n",
              index, r.windows.size(), static_cast<long long>(window_width.micros()),
              r.timeseries_lost_samples, r.timeseries_windows_dropped);
  for (const obs::TelemetryWindow& w : r.windows) {
    std::printf("  w%-4lld [%7lld..%7lldus]%s jobs=%" PRIu64 "/%" PRIu64 " miss=%" PRIu64
                " ctx=%" PRIu64 " irq=%" PRIu64 " chain=%" PRIu64 "/%" PRIu64,
                static_cast<long long>(w.index), static_cast<long long>(w.start.micros()),
                static_cast<long long>(w.end.micros()), w.gap ? " GAP" : "",
                w.jobs_completed, w.jobs_released, w.deadline_misses, w.context_switches,
                w.interrupts, w.chain_e2e_overruns, w.chain_e2e_completed);
    if (w.response.count() > 0) {
      std::printf(" resp{n=%" PRIu64 " p50<=%lldus max=%lldus}", w.response.count(),
                  static_cast<long long>(w.response.PercentileBound(0.5).micros()),
                  static_cast<long long>(w.response.max().micros()));
    }
    std::printf("\n");
  }
  if (r.alerts.empty()) {
    std::printf("  alerts: none\n");
    return;
  }
  std::printf("  alerts (%zu events):\n", r.alerts.size());
  for (const obs::AlertEvent& e : r.alerts) {
    std::printf("    %8lldus w%-4lld %-20s %s value=%" PRIu64 "/%" PRIu64 "\n",
                static_cast<long long>(e.time.micros()), static_cast<long long>(e.window),
                obs::AlertRuleName(e.rule), e.firing ? "FIRING" : "resolved", e.value, e.total);
  }
}

// Full-fleet re-run for the OpenMetrics scrape view.
int WriteOpenMetrics(const char* path, const FleetOptions& opt) {
  FleetResult result = RunFleet(opt);
  std::string exposition = BuildOpenMetricsExposition(result);
  std::string error;
  int families = 0;
  if (!ValidateOpenMetrics(exposition, &error, &families)) {
    std::fprintf(stderr, "%s: generated exposition failed validation: %s\n", kFlags.program,
                 error.c_str());
    return 1;
  }
  if (std::strcmp(path, "-") == 0) {
    std::fwrite(exposition.data(), 1, exposition.size(), stdout);
  } else {
    if (!WriteTextFile(path, exposition)) {
      CannotWrite(path);
      return 1;
    }
    std::printf("openmetrics: wrote %d families (%zu bytes) to %s\n", families,
                exposition.size(), path);
  }
  return result.nodes_failed > 0 ? 2 : 0;
}

// Drill-down: deterministic serial replay of the requested node(s), each
// captured as a black box that every view reads.
int InspectNodes(const Args& a, const FleetOptions& opt) {
  for (int t : a.nodes) {
    if (t >= opt.instances) {
      kFlags.Fail("node %d out of range [0, %d)", t, opt.instances);
      return 1;
    }
  }
  int status = 0;
  std::vector<obs::BlackBoxSnapshot> boxes(a.nodes.size());
  std::vector<obs::PerfettoWindow> perfetto(a.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    int index = a.nodes[i];
    std::string label = "node-" + std::to_string(index);
    obs::BlackBoxSnapshot& box = boxes[i];
    NodeResult result = InspectNode(opt, index, [&](const Kernel& kernel, const NodeResult& r) {
      box = obs::CaptureBlackBox(kernel, label,
                                 r.anomalous() ? r.anomaly : std::string("manual inspection"),
                                 NodeReproCommand(opt, index));
    });
    if (a.dir != nullptr) {
      std::string bundle_dir = std::string(a.dir) + "/" + label;
      if (obs::WriteBlackBoxBundle(box, bundle_dir)) {
        std::printf("black box: wrote %s/{repro.txt,trace.csv,blackbox.json}\n",
                    bundle_dir.c_str());
      } else {
        std::fprintf(stderr, "%s: cannot write bundle under %s\n", kFlags.program,
                     bundle_dir.c_str());
        status = 1;
      }
    }
    if (!a.timeseries && !a.postmortem && !a.chains) {
      PrintNodeResult(index, result);
    }
    if (a.timeseries) {
      PrintWindowSeries(index, result, opt.timeseries_options.window);
    }
    int views = ShowAnalyses(a, "node " + std::to_string(index) + " ", label, box.chains,
                             box.postmortem);
    if (views == 1) {
      return 1;
    }
    if (status == 0 && !result.ok()) {
      status = 2;
    }
    if (status == 0) {
      status = views;
    }

    obs::PerfettoWindow& w = perfetto[i];
    w.events = box.window.data();
    w.count = box.window.size();
    w.options.process_name = label;
    w.options.pid = index + 1;
    w.options.thread_names = box.thread_names;
    w.options.dropped_events = box.dropped;
    // Alert fire/resolve transitions become instant markers on the node's
    // timeline, next to the trace slices that caused them.
    for (const obs::AlertEvent& e : result.alerts) {
      obs::PerfettoInstantMarker m;
      m.time = e.time;
      m.name = std::string(obs::AlertRuleName(e.rule)) + (e.firing ? " FIRING" : " resolved");
      w.options.instants.push_back(m);
    }
  }

  if (a.perfetto != nullptr) {
    size_t n = perfetto.size();
    std::string what = " (" + std::to_string(n) + (n == 1 ? " node)" : " nodes)");
    if (!WritePerfetto(a.perfetto, perfetto, what)) {
      return 1;
    }
  }
  return status;
}

int Main(int argc, char** argv) {
  Args a;
  a.fleet.instances = 0;  // must come from the report or --instances
  a.fleet.workers = 1;
  if (!ParseArgs(argc, argv, &a)) {
    return 1;
  }
  if (a.input == "--trace") {
    return InspectTrace(a);
  }
  if (a.report == nullptr && a.input.empty()) {
    kFlags.Fail("table mode needs a report");
    return 1;
  }
  JsonValue root;
  if (a.report != nullptr && !LoadReport(a.report, kFleetRunSchema, &root)) {
    return 1;
  }
  if (a.input.empty()) {
    return PrintReport(root, a.report);
  }

  // The report's configuration fills every field no flag gave.
  FleetOptions opt = a.fleet;
  auto from_report = [&](const char* flag, const char* key) {
    return a.report != nullptr && !a.given.count(flag) && root.Find(key) != nullptr;
  };
  if (from_report("--instances", "instances")) {
    opt.instances = static_cast<int>(root.IntOr("instances", 0));
  }
  if (from_report("--seed", "seed")) {
    opt.seed = static_cast<uint64_t>(root.IntOr("seed", 1));
  }
  if (from_report("--run-ms", "run_duration_ms")) {
    opt.run_duration = Milliseconds(static_cast<int64_t>(root.NumberOr("run_duration_ms", 100)));
  }
  if (from_report("--slice-ms", "slice_ms")) {
    opt.slice = Milliseconds(static_cast<int64_t>(root.NumberOr("slice_ms", 5)));
  }
  if (from_report("--trace-capacity", "trace_capacity")) {
    opt.trace_capacity = static_cast<size_t>(root.IntOr("trace_capacity", 0));
  }
  if (from_report("--timer-queue", "timer_queue")) {
    opt.timer_queue = std::strcmp(root.StringOr("timer_queue", ""), "sorted_list") == 0
                          ? TimerQueueImpl::kSortedList
                          : TimerQueueImpl::kWheel;
  }
  if (opt.instances <= 0) {
    kFlags.Fail("need a report or --instances");
    return 1;
  }
  if (a.openmetrics != nullptr) {
    return WriteOpenMetrics(a.openmetrics, opt);
  }
  return InspectNodes(a, opt);
}

}  // namespace
}  // namespace fleet
}  // namespace emeralds

int main(int argc, char** argv) { return emeralds::fleet::Main(argc, argv); }
