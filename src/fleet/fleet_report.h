// The fleet run report: schema "emeralds.fleet.run/1".
//
// One JSON document per fleet run: the configuration (instances, workers,
// timer-queue implementation, seed), the deterministic aggregates (events,
// jobs, misses, chain SLO outcomes, the fleet digest), the machine-
// independent throughput rate (events per simulated second — the number
// bench_compare gates), the informational wall-clock rate (never gated),
// and an optional "timers" section from the timer-queue microbenchmark
// (arm/cancel/service costs at several pending-timer depths, wheel vs the
// reference sorted list, and the 10k-pending speedup the acceptance bar
// checks). bench_json_check validates the schema; BENCH_fleet.json is the
// committed baseline.

#ifndef SRC_FLEET_FLEET_REPORT_H_
#define SRC_FLEET_FLEET_REPORT_H_

#include <string>
#include <vector>

#include "src/fleet/fleet.h"

namespace emeralds {
namespace fleet {

inline constexpr const char* kFleetRunSchema = "emeralds.fleet.run/1";

// One depth point of the timer-queue microbenchmark: mean host nanoseconds
// per operation with `pending` timers resident, for both implementations.
struct TimerBenchPoint {
  int pending = 0;
  double wheel_arm_ns = 0.0;
  double wheel_cancel_ns = 0.0;
  double wheel_service_ns = 0.0;
  double list_arm_ns = 0.0;
  double list_cancel_ns = 0.0;
  double list_service_ns = 0.0;

  // list / wheel over the summed per-op costs at this depth.
  double Speedup() const;
};

struct FleetRunInfo {
  std::string label;  // e.g. "fleet_baseline"
  Duration run_duration;
  Duration slice;
  // Echoed so fleet_inspect can rebuild the exact FleetOptions from the
  // report alone (0 = the kernel's retain-everything default).
  size_t trace_capacity = 0;
  // Host-side overhead of the streaming timeseries + alert plane (rate with
  // it on vs off), measured by bench_fleet in interleaved rounds: each
  // side's best events/wall-sec rate, and the median over rounds of the
  // per-round on/off rate ratio. bench_compare gates the *ratio* against the
  // committed baseline (a ratio is host-speed-independent). The section is
  // omitted when the ratio is zero.
  double streaming_on_events_per_wall_sec = 0.0;
  double streaming_off_events_per_wall_sec = 0.0;
  double streaming_ratio = 0.0;
  // Host cost of the run digest (DigestTrace) per trace record, measured by
  // bench_fleet over one node's whole-run window. Informational; the
  // section is omitted when no records were digested.
  size_t trace_digest_records = 0;
  double trace_digest_ns_per_record = 0.0;
};

// Renders the full report. `timers` may be empty (the section is omitted);
// when present it must contain a 10000-pending point — that speedup is the
// gated "wheel is >= 5x the list" acceptance number.
std::string BuildFleetRunReport(const FleetRunInfo& info, const FleetResult& result,
                                const std::vector<TimerBenchPoint>& timers);

}  // namespace fleet
}  // namespace emeralds

#endif  // SRC_FLEET_FLEET_REPORT_H_
