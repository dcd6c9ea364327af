// Validates the JSON reports the repo's CI gates on, dispatching on the
// schema tag:
//   emeralds.bench.breakdown/1 — perf trajectory (bench_smoke label)
//   emeralds.obs.run/1         — observability run report (obs_smoke label)
//   emeralds.obs.cycles/1      — cycle-attribution ledger report
//   emeralds.obs.chains/1      — causal event-chain report (chains_smoke label)
//   emeralds.fuzz.torture/1    — torture-harness sweep report
//   emeralds.fleet.run/1       — fleet simulation report (fleet_smoke label)
//   emeralds.obs.timeseries/1  — streaming telemetry window series (also
//                                embedded in fleet.run as "timeseries")
//   emeralds.obs.blackbox/1    — black-box flight-recorder bundle report
//   emeralds.bench.smp/1       — partitioned-SMP throughput/admission report
//   emeralds.obs.postmortem/1  — deadline-miss lateness-attribution report
//                                (postmortem_smoke label; also embedded in
//                                obs.run and fleet.run as "postmortem")
// For the obs, fuzz, and fleet schemas the check is substantive, not just
// structural: invariant-violation lists must be empty, reconciliation flags
// true, every torture run ok, and the cycle ledger conserved (bucket sum ==
// elapsed, residual exactly zero) — so a kernel whose trace disagrees with
// its own counters, whose ledger leaks time, or a failing fuzz seed fails CI.

#ifndef BENCH_BENCH_JSON_CHECK_H_
#define BENCH_BENCH_JSON_CHECK_H_

#include <string>

#include "src/base/json.h"

namespace emeralds {
namespace bench {

// Checks one parsed report. Returns true when it passes; *message then holds
// a one-line summary of what was checked. Returns false with the first
// failing check described in *message.
bool CheckReport(const JsonValue& root, std::string* message);

}  // namespace bench
}  // namespace emeralds

#endif  // BENCH_BENCH_JSON_CHECK_H_
