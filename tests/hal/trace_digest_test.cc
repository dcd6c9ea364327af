// DigestTrace: a pinned known-answer vector, and the single-change
// guarantee the word-wise step gives (every field of every record and every
// counter reaches the digest).

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/hal/trace.h"

namespace emeralds {
namespace {

TraceEvent Event(int64_t us, TraceEventType type, int32_t arg0, int32_t arg1, int32_t arg2) {
  return TraceEvent{Instant() + Microseconds(us), type, arg0, arg1, arg2};
}

// Negative args included: a word that sign-extended arg1 would hide arg2.
std::vector<TraceEvent> ThreeRecords() {
  return {Event(0, TraceEventType::kContextSwitch, 3, -1, 0),
          Event(125, TraceEventType::kHeadroomLow, -2, -250, -7),
          Event(1'000'250, TraceEventType::kChainEmit, 9,
                ChainEndpointPack(ChainEndpointKind::kMailbox, 2), ChainHopPack(1, 3))};
}

constexpr uint64_t kCounters[] = {42, 0, 7, UINT64_MAX};

TEST(TraceDigestTest, KnownAnswer) {
  EXPECT_EQ(DigestTrace(ThreeRecords(), kCounters), 0x7919e13f54d6675aull);
}

TEST(TraceDigestTest, EmptyWindowAndCountersAreStable) {
  uint64_t empty = DigestTrace({}, {});
  EXPECT_EQ(empty, 0x4391fafaa8e4f1caull);
  EXPECT_EQ(DigestTrace({}, {}), empty);
  EXPECT_NE(DigestTrace({}, kCounters), empty);
  EXPECT_NE(DigestTrace(ThreeRecords(), {}), empty);
}

// Flipping any one bit of any one field (any other event type for the type
// field) changes the digest. The time field is hashed in microseconds, the
// unit the trace is exported in, so its bits are flipped there.
TEST(TraceDigestTest, EverySingleFieldChangeChangesTheDigest) {
  const std::vector<TraceEvent> base = ThreeRecords();
  const uint64_t reference = DigestTrace(base, kCounters);
  int checked = 0;
  for (size_t r = 0; r < base.size(); ++r) {
    auto expect_changed = [&](const TraceEvent& changed, const char* field, int detail) {
      std::vector<TraceEvent> window = base;
      window[r] = changed;
      EXPECT_NE(DigestTrace(window, kCounters), reference)
          << "record " << r << " field " << field << " change " << detail;
      ++checked;
    };
    // Bits 0..52 keep the flipped time representable in nanoseconds.
    for (int bit = 0; bit < 53; ++bit) {
      TraceEvent e = base[r];
      e.time = Instant() + Microseconds(base[r].time.micros() ^ (int64_t{1} << bit));
      expect_changed(e, "time", bit);
    }
    for (int type = 0; type < kNumTraceEventTypes; ++type) {
      TraceEvent e = base[r];
      e.type = static_cast<TraceEventType>(type);
      if (e.type != base[r].type) {
        expect_changed(e, "type", type);
      }
    }
    for (int bit = 0; bit < 32; ++bit) {
      const int32_t mask = static_cast<int32_t>(uint32_t{1} << bit);
      for (int32_t TraceEvent::*arg : {&TraceEvent::arg0, &TraceEvent::arg1, &TraceEvent::arg2}) {
        TraceEvent e = base[r];
        e.*arg ^= mask;
        expect_changed(e, "arg", bit);
      }
    }
  }
  EXPECT_EQ(checked, 3 * (53 + kNumTraceEventTypes - 1 + 3 * 32));
}

TEST(TraceDigestTest, EverySingleCounterChangeChangesTheDigest) {
  const std::vector<TraceEvent> window = ThreeRecords();
  const uint64_t reference = DigestTrace(window, kCounters);
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      uint64_t counters[std::size(kCounters)];
      std::copy(std::begin(kCounters), std::end(kCounters), counters);
      counters[i] ^= uint64_t{1} << bit;
      EXPECT_NE(DigestTrace(window, counters), reference) << "counter " << i << " bit " << bit;
    }
  }
}

TEST(TraceDigestTest, ReorderingOrExtendingTheWindowChangesTheDigest) {
  const std::vector<TraceEvent> base = ThreeRecords();
  const uint64_t reference = DigestTrace(base, kCounters);

  std::vector<TraceEvent> swapped = base;
  std::swap(swapped[0], swapped[2]);
  EXPECT_NE(DigestTrace(swapped, kCounters), reference);

  std::vector<TraceEvent> appended = base;
  appended.push_back(TraceEvent{});
  EXPECT_NE(DigestTrace(appended, kCounters), reference);

  // Truncating the window or dropping the last counter changes it too.
  EXPECT_NE(DigestTrace(std::span(base).first(2), kCounters), reference);
  EXPECT_NE(DigestTrace(base, std::span(kCounters).first(3)), reference);
}

}  // namespace
}  // namespace emeralds
