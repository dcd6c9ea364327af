// Fleet anomaly-triage and black-box flight-recorder tests: inject one
// deliberately overloaded node into a fleet and require the triage plane to
// find it, the flight recorder to bundle it, and the bundle to round-trip
// through the standard inspection tooling.

#include "src/fleet/triage.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/base/json.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_report.h"
#include "src/obs/blackbox.h"
#include "src/obs/json_writer.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/trace_csv.h"

namespace emeralds {
namespace fleet {
namespace {

constexpr int kSickNode = 5;

FleetOptions OverloadedFleet(const std::string& artifacts_dir) {
  FleetOptions opt;
  opt.instances = 64;
  opt.workers = 8;
  opt.seed = 1;
  opt.run_duration = Milliseconds(30);
  opt.slice = Milliseconds(5);
  opt.overload_node = kSickNode;
  opt.overload_factor = 8;
  opt.artifacts_dir = artifacts_dir;
  opt.max_blackboxes = 2;
  return opt;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return "";
  }
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

TEST(FleetTriageTest, OverloadedNodeIsTheTopOutlierAndGetsABlackBox) {
  std::string dir = testing::TempDir() + "emeralds_triage_test";
  std::filesystem::remove_all(dir);
  FleetOptions opt = OverloadedFleet(dir);
  FleetResult result = RunFleet(opt);

  // The overload multiplies compute costs only: every other node must be
  // bit-identical to the un-overloaded fleet (the Rng streams are shared).
  FleetOptions clean = opt;
  clean.overload_node = -1;
  clean.artifacts_dir.clear();
  FleetResult baseline = RunFleet(clean);
  ASSERT_EQ(result.nodes.size(), baseline.nodes.size());
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    if (static_cast<int>(i) == kSickNode) {
      EXPECT_NE(result.nodes[i].trace_digest, baseline.nodes[i].trace_digest);
    } else {
      EXPECT_EQ(result.nodes[i].trace_digest, baseline.nodes[i].trace_digest)
          << "node " << i << " perturbed by another node's overload";
    }
  }

  // The sick node misses deadlines the healthy fleet never does, so it owns
  // the top anomaly score and the deadline_misses outlier flag.
  const NodeResult& sick = result.nodes[kSickNode];
  EXPECT_GT(sick.telemetry.deadline_misses, 0u);
  EXPECT_TRUE(sick.anomalous());
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    if (static_cast<int>(i) != kSickNode) {
      EXPECT_LT(result.nodes[i].anomaly_score, sick.anomaly_score) << "node " << i;
    }
  }

  FleetTriage triage = ComputeFleetTriage(result);
  ASSERT_FALSE(triage.outlier_nodes.empty());
  EXPECT_EQ(triage.outlier_nodes[0], kSickNode);
  bool found_misses_metric = false;
  for (const TriageMetric& m : triage.metrics) {
    if (m.name == "deadline_misses") {
      found_misses_metric = true;
      ASSERT_FALSE(m.top.empty());
      EXPECT_EQ(m.top[0].node, kSickNode);
      EXPECT_TRUE(m.top[0].outlier);
      EXPECT_GE(m.outliers, 1);
    }
  }
  EXPECT_TRUE(found_misses_metric);

  // The flight recorder bundled the worst node first.
  ASSERT_FALSE(result.blackbox_nodes.empty());
  EXPECT_EQ(result.blackbox_nodes[0], kSickNode);
  std::string bundle = dir + "/node-" + std::to_string(kSickNode);
  EXPECT_TRUE(std::filesystem::exists(bundle + "/repro.txt"));
  EXPECT_TRUE(std::filesystem::exists(bundle + "/trace.csv"));
  ASSERT_TRUE(std::filesystem::exists(bundle + "/blackbox.json"));

  // blackbox.json parses and carries the schema plus the repro command.
  JsonValue box;
  std::string error;
  ASSERT_TRUE(JsonParse(ReadFile(bundle + "/blackbox.json"), &box, &error)) << error;
  ASSERT_NE(box.Find("schema"), nullptr);
  EXPECT_EQ(box.Find("schema")->string, "emeralds.obs.blackbox/1");
  ASSERT_NE(box.Find("repro"), nullptr);
  EXPECT_NE(box.Find("repro")->string.find("--node=5"), std::string::npos);

  // trace.csv round-trips through the standard CSV importer.
  std::FILE* cf = std::fopen((bundle + "/trace.csv").c_str(), "r");
  ASSERT_NE(cf, nullptr);
  obs::TraceCsvImport import;
  ASSERT_TRUE(obs::ImportTraceCsv(cf, &import, &error)) << error;
  std::fclose(cf);
  EXPECT_GT(import.events.size(), 0u);

  // The report surfaces the triage and black-box sections.
  FleetRunInfo info;
  info.label = "triage_test";
  info.run_duration = opt.run_duration;
  info.slice = opt.slice;
  std::string report = BuildFleetRunReport(info, result, {});
  EXPECT_NE(report.find("\"triage\":"), std::string::npos);
  EXPECT_NE(report.find("\"outlier_nodes\":[5"), std::string::npos);
  EXPECT_NE(report.find("\"blackboxes\":[{\"node\":5"), std::string::npos);
  EXPECT_NE(report.find("\"schema\":\"emeralds.fleet.telemetry/1\""), std::string::npos);

  std::filesystem::remove_all(dir);
}

// InspectNode replays one node bit-identically and its window exports as
// valid Perfetto JSON with node-scoped ids (the fleet_inspect --node path).
TEST(FleetTriageTest, InspectNodeReplaysAndExportsPerfetto) {
  FleetOptions opt = OverloadedFleet("");
  opt.artifacts_dir.clear();
  FleetResult fleet = RunFleet(opt);

  std::string perfetto_path = testing::TempDir() + "emeralds_triage_node.perfetto.json";
  NodeResult replay = InspectNode(opt, kSickNode, [&](const Kernel& kernel,
                                                      const NodeResult& r) {
    obs::BlackBoxSnapshot box = obs::CaptureBlackBox(kernel, "node-5", r.anomaly,
                                                     NodeReproCommand(opt, kSickNode));
    obs::PerfettoExportOptions po;
    po.process_name = "node-5";
    po.pid = kSickNode + 1;
    po.thread_names = box.thread_names;
    po.dropped_events = box.dropped;
    std::FILE* out = std::fopen(perfetto_path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    size_t entries = obs::ExportPerfettoJson(box.window.data(), box.window.size(), po, out);
    std::fclose(out);
    EXPECT_GT(entries, 0u);
  });
  EXPECT_EQ(replay.trace_digest, fleet.nodes[kSickNode].trace_digest);
  EXPECT_EQ(replay.telemetry.deadline_misses, fleet.nodes[kSickNode].telemetry.deadline_misses);

  std::string text = ReadFile(perfetto_path);
  ASSERT_FALSE(text.empty());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonParse(text, &doc, &error)) << error;
  // Node-scoped ids: every async span id carries the "p6." prefix.
  EXPECT_NE(text.find("\"pid\":6"), std::string::npos);
  EXPECT_NE(text.find("p6.job"), std::string::npos);
  EXPECT_NE(text.find("\"node-5\""), std::string::npos);
  std::filesystem::remove(perfetto_path);
}

}  // namespace
}  // namespace fleet
}  // namespace emeralds
