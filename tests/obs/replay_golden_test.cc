// Golden analyzer output: the rendered trace-analysis, chains and
// postmortem sections of emeralds.obs.run/1, digested with 64-bit FNV-1a,
// for fixed torture seeds (1, 2 and 4 cores; default and tiny trace rings)
// and two fleet nodes (whole-run and wrapped rings). The digests were
// recorded from the three separate analyzer passes that preceded the shared
// replay walk; both the one-pass RunNodeOracles path and the per-analysis
// entry points must reproduce them byte for byte.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/kernel.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/torture.h"
#include "src/obs/json_writer.h"
#include "src/obs/trace_replay.h"

namespace emeralds {
namespace obs {
namespace {

struct Golden {
  uint64_t trace;
  uint64_t chains;
  uint64_t postmortem;
};

template <typename Append>
uint64_t SectionDigest(Append append) {
  Json j;
  append(j);
  return Fnv1a(kFnv1aOffset, j.str().data(), j.str().size());
}

Golden Digests(const TraceAnalysis& t, const ChainAnalysis& c, const PostmortemAnalysis& p) {
  return Golden{SectionDigest([&](Json& j) { AppendTraceAnalysisSection(j, t); }),
                SectionDigest([&](Json& j) { AppendChainsSection(j, c); }),
                SectionDigest([&](Json& j) { AppendPostmortemSection(j, p, &c); })};
}

void ExpectGolden(const Kernel& kernel, const Golden& want, const std::string& label) {
  std::vector<TraceEvent> scratch;
  std::span<const TraceEvent> window = kernel.trace().Window(&scratch);
  const uint64_t dropped = kernel.trace().dropped();

  NodeOracles oracles = RunNodeOracles(kernel, window, dropped);
  EXPECT_TRUE(oracles.ok()) << label << ": " << oracles.failure;
  Golden one_pass = Digests(oracles.trace, oracles.chains, oracles.postmortem);
  Golden separate =
      Digests(AnalyzeTrace(window.data(), window.size(), dropped),
              AnalyzeChains(window.data(), window.size(), dropped, kernel.resolved_chains()),
              AnalyzePostmortem(window.data(), window.size(), dropped));
  for (const Golden& got : {one_pass, separate}) {
    EXPECT_EQ(got.trace, want.trace) << label << " trace analysis";
    EXPECT_EQ(got.chains, want.chains) << label << " chains";
    EXPECT_EQ(got.postmortem, want.postmortem) << label << " postmortem";
  }
}

struct TortureCase {
  uint64_t seed;
  int cores;
  bool tiny_ring;
  Golden want;
};

TEST(ReplayGoldenTest, TortureSeedsMatchRecordedDigests) {
  const TortureCase cases[] = {
      {2, 1, false, {0xe2f5682ad5285398, 0xa24b36415e075800, 0x09a456345be5b642}},
      {2, 1, true, {0x042a28ef00189177, 0x3dadca8c7e604abf, 0x5b6eb970bb51de93}},
      {2, 2, false, {0x62cc4ad903355c2d, 0xf4dc0316fd9cb9c9, 0x90302c3911870de0}},
      {2, 2, true, {0x542c72d9bac3d7a0, 0xea5c700a5c6012d1, 0x5b6eb970bb51de93}},
      {2, 4, false, {0x38cd40984689640c, 0x7a8fd218dfdc6df4, 0x407ff097275e3d68}},
      {2, 4, true, {0xbb0116ffab1a6d01, 0xaabfc3c9380b0b5a, 0x5b6eb970bb51de93}},
      {9, 1, false, {0x6f17a378367d6fcf, 0x3dd0675b1f37928b, 0x8e302182803ada79}},
      {9, 1, true, {0xfb4afe0449085190, 0xedd5cc84dcecf18b, 0x5b6eb970bb51de93}},
      {9, 2, false, {0x22a59ed73495fd73, 0xff77c1353f7cf7f8, 0x0a169f3cecd680a1}},
      {9, 2, true, {0xaab0fafad8244754, 0xe5c0b70cd9fcb869, 0x5b6eb970bb51de93}},
      {9, 4, false, {0xbd8c9dbddf494580, 0x5a314fa43269175a, 0x61c638e60587b592}},
      {9, 4, true, {0x34600c4af28af115, 0x0b3d2718ee7d365a, 0x5b6eb970bb51de93}},
      {46, 1, false, {0x945d3651840006e2, 0x2504715e6ccb7281, 0xceee833c7abf6df5}},
      {46, 1, true, {0x0757d460c9104053, 0xf0b03590175e9efc, 0x5b6eb970bb51de93}},
      {46, 2, false, {0x3ddf8f28782854e3, 0xbb5227043aea7bd1, 0xe2b89c8f434ae149}},
      {46, 2, true, {0x533b418cc5dc6332, 0x79a78e021ad90ee3, 0x5b6eb970bb51de93}},
      {46, 4, false, {0xd81f951423050507, 0xda57880153742dd8, 0x0cb23a982b040346}},
      {46, 4, true, {0x5849e32b4e55847c, 0x0cea3a9c2ceb4214, 0x5b6eb970bb51de93}},
  };
  for (const TortureCase& c : cases) {
    fuzz::TortureOptions options;
    options.seed = c.seed;
    options.num_cores = c.cores;
    options.tiny_trace_ring = c.tiny_ring;
    std::string label = "seed " + std::to_string(c.seed) + " cores " +
                        std::to_string(c.cores) + (c.tiny_ring ? " tiny ring" : "");
    bool visited = false;
    fuzz::InspectTorture(options, [&](const Kernel& kernel) {
      visited = true;
      ExpectGolden(kernel, c.want, label);
    });
    EXPECT_TRUE(visited) << label;
  }
}

TEST(ReplayGoldenTest, FleetNodesMatchRecordedDigests) {
  struct NodeCase {
    int index;
    size_t trace_capacity;
    Golden want;
  };
  const NodeCase cases[] = {
      {0, 0, {0xd1fda3357573ce11, 0xac7258cdcc2c0307, 0x6a4021d904afc7e3}},
      {1, 4096, {0x40a3acd8d0938d31, 0xe5d365f471fc03e5, 0x93d52e5dc2654ee1}},
  };
  for (const NodeCase& c : cases) {
    fleet::FleetOptions options;
    options.instances = 64;
    options.trace_capacity = c.trace_capacity;
    std::string label = "node " + std::to_string(c.index);
    fleet::NodeResult result =
        fleet::InspectNode(options, c.index, [&](const Kernel& kernel, const fleet::NodeResult&) {
          ExpectGolden(kernel, c.want, label);
        });
    EXPECT_TRUE(result.ok()) << label << ": " << result.failure;
  }
}

}  // namespace
}  // namespace obs
}  // namespace emeralds
