// Black-box flight recorder: schema "emeralds.obs.blackbox/1".
//
// When a node misbehaves — an oracle fails, a chain blows its SLO, the
// headroom monitor fires, a deadline is missed — the forensic context an
// operator needs is exactly what the kernel already keeps in RAM: the
// TraceSink ring (the last N events before the anomaly), the stats-sampler
// deltas, the chain analysis, and the cycle-attribution ledger.
// CaptureBlackBox snapshots all of it from a live kernel into one value,
// and WriteBlackBoxBundle lays it out as an inspectable artifact directory:
//
//   <dir>/repro.txt       one-line repro command + the anomaly reason
//   <dir>/trace.csv       the trace window, TraceSink::ExportCsv format
//                         (re-importable by obs::ImportTraceCsv and every
//                         CSV-consuming tool: fleet_inspect --trace)
//   <dir>/blackbox.json   machine-readable snapshot: stats counters, the
//                         node telemetry block, the chain analysis
//
// The same bundle shape is used by the fleet runner's anomaly capture and
// by the torture harness's first-failure artifacts, so a sick fleet node
// and a failing fuzz seed are inspected with the same tools.

#ifndef SRC_OBS_BLACKBOX_H_
#define SRC_OBS_BLACKBOX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/stats.h"
#include "src/hal/trace.h"
#include "src/obs/chains.h"
#include "src/obs/postmortem.h"
#include "src/obs/telemetry.h"

namespace emeralds {

class Kernel;

namespace obs {

inline constexpr const char* kObsBlackBoxSchema = "emeralds.obs.blackbox/1";

struct BlackBoxSnapshot {
  std::string label;   // e.g. "node-17" or "torture-seed-9"
  std::string reason;  // why the box was pulled (anomaly / failure text)
  std::string repro;   // one-line command reproducing the run
  Instant now;         // virtual clock at capture
  std::vector<TraceEvent> window;  // retained trace, oldest first
  uint64_t dropped = 0;
  uint64_t total_recorded = 0;
  std::vector<std::string> thread_names;  // "name/id" per thread id
  KernelStats stats;
  ChainAnalysis chains;
  std::vector<StatsDelta> deltas;  // stats-sampler ring, oldest first
  uint64_t deltas_dropped = 0;
  NodeTelemetry telemetry;
  // Deadline-miss postmortem over the same window: every miss's blame
  // ledger, so the bundle answers "why was it late" without a replay.
  PostmortemAnalysis postmortem;
};

// Snapshots a live kernel. Pure read — never perturbs virtual time — so
// capturing at the end of a deterministic run cannot change its digest.
BlackBoxSnapshot CaptureBlackBox(const Kernel& kernel, std::string label,
                                 std::string reason, std::string repro);

// The blackbox.json document.
std::string BuildBlackBoxReport(const BlackBoxSnapshot& box);

// Creates `dir` (and parents) and writes repro.txt, trace.csv, and
// blackbox.json into it. Returns false if any file cannot be written.
bool WriteBlackBoxBundle(const BlackBoxSnapshot& box, const std::string& dir);

}  // namespace obs
}  // namespace emeralds

#endif  // SRC_OBS_BLACKBOX_H_
