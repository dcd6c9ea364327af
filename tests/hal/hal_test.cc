// Virtual hardware tests: clock, hardware timers, interrupt controller,
// cost model, trace sink.

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hal/cost_model.h"
#include "src/hal/hardware.h"
#include "src/hal/trace.h"

namespace emeralds {
namespace {

TEST(VirtualClockTest, StartsAtZeroAndAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now().nanos(), 0);
  clock.AdvanceBy(Microseconds(5));
  EXPECT_EQ(clock.now().micros(), 5);
  clock.AdvanceTo(Instant() + Milliseconds(1));
  EXPECT_EQ(clock.now().micros(), 1000);
}

TEST(VirtualClockTest, ZeroAdvanceAllowed) {
  VirtualClock clock;
  clock.AdvanceTo(clock.now());
  clock.AdvanceBy(Duration());
  EXPECT_EQ(clock.now().nanos(), 0);
}

class RecordingTimer : public HardwareTimer {
 public:
  explicit RecordingTimer(std::vector<int>* log, int id) : log_(log), id_(id) {}
  void OnExpire(Hardware& hw) override { log_->push_back(id_); }

 private:
  std::vector<int>* log_;
  int id_;
};

TEST(HardwareTimerTest, FiresInExpiryOrder) {
  Hardware hw;
  std::vector<int> log;
  RecordingTimer t1(&log, 1), t2(&log, 2), t3(&log, 3);
  hw.ArmTimer(t2, Instant() + Microseconds(20));
  hw.ArmTimer(t1, Instant() + Microseconds(10));
  hw.ArmTimer(t3, Instant() + Microseconds(30));
  EXPECT_EQ(hw.NextTimerExpiry(), Instant() + Microseconds(10));
  hw.clock().AdvanceTo(Instant() + Microseconds(25));
  EXPECT_EQ(hw.FireDueTimers(), 2);
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_TRUE(t3.armed());
}

TEST(HardwareTimerTest, SimultaneousExpiryFiresInArmOrder) {
  Hardware hw;
  std::vector<int> log;
  RecordingTimer t1(&log, 1), t2(&log, 2);
  hw.ArmTimer(t2, Instant() + Microseconds(10));  // armed first
  hw.ArmTimer(t1, Instant() + Microseconds(10));
  hw.clock().AdvanceTo(Instant() + Microseconds(10));
  hw.FireDueTimers();
  EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(HardwareTimerTest, RearmReprograms) {
  Hardware hw;
  std::vector<int> log;
  RecordingTimer t(&log, 1);
  hw.ArmTimer(t, Instant() + Microseconds(10));
  hw.ArmTimer(t, Instant() + Microseconds(50));
  hw.clock().AdvanceTo(Instant() + Microseconds(20));
  EXPECT_EQ(hw.FireDueTimers(), 0);
  EXPECT_TRUE(t.armed());
  hw.clock().AdvanceTo(Instant() + Microseconds(50));
  EXPECT_EQ(hw.FireDueTimers(), 1);
  EXPECT_FALSE(t.armed());
}

TEST(HardwareTimerTest, DisarmPreventsFire) {
  Hardware hw;
  std::vector<int> log;
  RecordingTimer t(&log, 1);
  hw.ArmTimer(t, Instant() + Microseconds(10));
  hw.DisarmTimer(t);
  hw.clock().AdvanceTo(Instant() + Microseconds(20));
  EXPECT_EQ(hw.FireDueTimers(), 0);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(hw.NextTimerExpiry(), Instant::Max());
}

class RearmingTimer : public HardwareTimer {
 public:
  explicit RearmingTimer(int* count) : count_(count) {}
  void OnExpire(Hardware& hw) override {
    ++*count_;
    if (*count_ < 3) {
      hw.ArmTimer(*this, hw.now());  // due immediately
    }
  }

 private:
  int* count_;
};

TEST(HardwareTimerTest, CallbackMayRearmDueImmediately) {
  Hardware hw;
  int count = 0;
  RearmingTimer t(&count);
  hw.ArmTimer(t, Instant());
  EXPECT_EQ(hw.FireDueTimers(), 3);
  EXPECT_EQ(count, 3);
}

struct IrqRecorder {
  std::vector<int> lines;
  static void Handler(void* context, int line) {
    static_cast<IrqRecorder*>(context)->lines.push_back(line);
  }
};

TEST(InterruptControllerTest, DispatchCallsHandler) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(3, &IrqRecorder::Handler, &rec);
  ic.Raise(3);
  EXPECT_TRUE(ic.pending(3));
  EXPECT_EQ(ic.DispatchPending(), 1);
  EXPECT_FALSE(ic.pending(3));
  EXPECT_EQ(rec.lines, (std::vector<int>{3}));
}

TEST(InterruptControllerTest, CoalescesWhilePending) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(1, &IrqRecorder::Handler, &rec);
  ic.Raise(1);
  ic.Raise(1);
  EXPECT_EQ(ic.DispatchPending(), 1);
  EXPECT_EQ(ic.raised_count(1), 2u);
  EXPECT_EQ(ic.dispatched_count(1), 1u);
}

TEST(InterruptControllerTest, MaskedLineNotDelivered) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(2, &IrqRecorder::Handler, &rec);
  ic.SetEnabled(2, false);
  ic.Raise(2);
  EXPECT_FALSE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 0);
  ic.SetEnabled(2, true);
  EXPECT_TRUE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 1);
}

TEST(InterruptControllerTest, GlobalDisableBlocksAll) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(0, &IrqRecorder::Handler, &rec);
  ic.SetGlobalEnable(false);
  ic.Raise(0);
  EXPECT_EQ(ic.DispatchPending(), 0);
  ic.SetGlobalEnable(true);
  EXPECT_EQ(ic.DispatchPending(), 1);
}

TEST(InterruptControllerTest, FixedPriorityOrder) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(5, &IrqRecorder::Handler, &rec);
  ic.Attach(1, &IrqRecorder::Handler, &rec);
  ic.Raise(5);
  ic.Raise(1);
  ic.DispatchPending();
  EXPECT_EQ(rec.lines, (std::vector<int>{1, 5}));
}

TEST(InterruptControllerTest, UnattachedPendingNotDeliverable) {
  InterruptController ic;
  ic.Raise(7);
  EXPECT_TRUE(ic.pending(7));
  EXPECT_FALSE(ic.AnyDeliverable());
}

// Records each dispatch and, the first time `trigger` is served, runs
// `action` against the controller from inside the handler.
struct IrqScript {
  InterruptController* ic = nullptr;
  int trigger = -1;
  void (*action)(InterruptController&) = nullptr;
  std::vector<int> lines{};
  static void Handler(void* context, int line) {
    auto* script = static_cast<IrqScript*>(context);
    script->lines.push_back(line);
    if (line == script->trigger) {
      script->trigger = -1;
      script->action(*script->ic);
    }
  }
};

TEST(InterruptControllerTest, HandlerRaisedLineAboveServedSamePassBelowNextPass) {
  InterruptController ic;
  IrqScript script{&ic, 5, [](InterruptController& c) {
                     c.Raise(7);
                     c.Raise(3);
                   }};
  for (int line : {3, 5, 6, 7}) {
    ic.Attach(line, &IrqScript::Handler, &script);
  }
  ic.Raise(5);
  ic.Raise(6);
  // Pass 1 serves 5, 6 and the newly raised 7; line 3 waits for pass 2.
  EXPECT_EQ(ic.DispatchPending(), 4);
  EXPECT_EQ(script.lines, (std::vector<int>{5, 6, 7, 3}));
  EXPECT_FALSE(ic.AnyDeliverable());
}

TEST(InterruptControllerTest, DetachOfPendingLineMakesItUndeliverable) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(4, &IrqRecorder::Handler, &rec);
  ic.Raise(4);
  EXPECT_TRUE(ic.AnyDeliverable());
  ic.Detach(4);
  EXPECT_TRUE(ic.pending(4));
  EXPECT_FALSE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 0);
  ic.Attach(4, &IrqRecorder::Handler, &rec);
  EXPECT_TRUE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 1);
  EXPECT_EQ(rec.lines, (std::vector<int>{4}));
}

TEST(InterruptControllerTest, MaskingPendingLineThenUnmaskingDelivers) {
  InterruptController ic;
  IrqRecorder rec;
  ic.Attach(9, &IrqRecorder::Handler, &rec);
  ic.Raise(9);
  ic.SetEnabled(9, false);
  EXPECT_FALSE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 0);
  ic.SetEnabled(9, true);
  EXPECT_TRUE(ic.AnyDeliverable());
  EXPECT_EQ(ic.DispatchPending(), 1);
  EXPECT_EQ(rec.lines, (std::vector<int>{9}));
}

TEST(InterruptControllerTest, HandlerClearingGlobalEnableFinishesCurrentPass) {
  InterruptController ic;
  IrqScript script{&ic, 2, [](InterruptController& c) {
                     c.SetGlobalEnable(false);
                     c.Raise(1);
                   }};
  for (int line : {1, 2, 9}) {
    ic.Attach(line, &IrqScript::Handler, &script);
  }
  ic.Raise(2);
  ic.Raise(9);
  // The pass that cleared the enable still serves 9; line 1 needs a new pass.
  EXPECT_EQ(ic.DispatchPending(), 2);
  EXPECT_EQ(script.lines, (std::vector<int>{2, 9}));
  EXPECT_TRUE(ic.pending(1));
  EXPECT_FALSE(ic.AnyDeliverable());
  ic.SetGlobalEnable(true);
  EXPECT_EQ(ic.DispatchPending(), 1);
  EXPECT_EQ(script.lines, (std::vector<int>{2, 9, 1}));
}

TEST(CostModelTest, Table1EdfFits) {
  CostModel m = CostModel::MC68040_25MHz();
  // t_b = 1.6, t_u = 1.2, t_s = 1.2 + 0.25 n.
  EXPECT_EQ(m.QueueCost(QueueKind::kEdfList, QueueOp::kBlock, 1).nanos(), 1600);
  EXPECT_EQ(m.QueueCost(QueueKind::kEdfList, QueueOp::kUnblock, 1).nanos(), 1200);
  EXPECT_EQ(m.QueueCost(QueueKind::kEdfList, QueueOp::kSelect, 10).nanos(), 1200 + 2500);
}

TEST(CostModelTest, Table1RmFits) {
  CostModel m = CostModel::MC68040_25MHz();
  // t_b = 1.0 + 0.36 n, t_u = 1.4, t_s = 0.6.
  EXPECT_EQ(m.QueueCost(QueueKind::kRmList, QueueOp::kBlock, 10).nanos(), 1000 + 3600);
  EXPECT_EQ(m.QueueCost(QueueKind::kRmList, QueueOp::kUnblock, 1).nanos(), 1400);
  EXPECT_EQ(m.QueueCost(QueueKind::kRmList, QueueOp::kSelect, 1).nanos(), 600);
}

TEST(CostModelTest, Table1HeapFits) {
  CostModel m = CostModel::MC68040_25MHz();
  // t_b = 0.4 + 2.8 ceil(log2(n+1)) with `units` = levels.
  EXPECT_EQ(m.QueueCost(QueueKind::kRmHeap, QueueOp::kBlock, 4).nanos(), 400 + 4 * 2800);
  EXPECT_EQ(m.QueueCost(QueueKind::kRmHeap, QueueOp::kUnblock, 4).nanos(), 1900 + 4 * 700);
  EXPECT_EQ(m.QueueCost(QueueKind::kRmHeap, QueueOp::kSelect, 1).nanos(), 600);
}

TEST(CostModelTest, ZeroModelChargesNothing) {
  CostModel m = CostModel::Zero();
  EXPECT_TRUE(m.QueueCost(QueueKind::kEdfList, QueueOp::kSelect, 50).is_zero());
  EXPECT_TRUE(m.context_switch.is_zero());
  EXPECT_TRUE(m.syscall.is_zero());
}

TEST(TraceSinkTest, RecordsAndOverwrites) {
  TraceSink sink(2);
  sink.Record(Instant(), TraceEventType::kJobRelease, 1, 1);
  sink.Record(Instant() + Microseconds(1), TraceEventType::kJobComplete, 1, 1);
  sink.Record(Instant() + Microseconds(2), TraceEventType::kDeadlineMiss, 2, 1);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.total_recorded(), 3u);
  EXPECT_EQ(sink.at(0).type, TraceEventType::kJobComplete);
  EXPECT_EQ(sink.at(1).type, TraceEventType::kDeadlineMiss);
}

TEST(TraceSinkTest, ZeroCapacityCountsOnly) {
  TraceSink sink(0);
  sink.Record(Instant(), TraceEventType::kIrq, 1, 0);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_recorded(), 1u);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceSinkTest, DroppedCountsEvictions) {
  TraceSink sink(2);
  for (int i = 0; i < 5; ++i) {
    sink.Record(Instant() + Microseconds(i), TraceEventType::kIrq, i, 0);
  }
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 3u);
  EXPECT_EQ(sink.total_recorded(), sink.size() + sink.dropped());
  sink.Clear();
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
}

TEST(TraceSinkTest, ResetClearsDroppedAndRecordsEpochMarker) {
  TraceSink sink(4);
  for (int i = 0; i < 7; ++i) {
    sink.Record(Instant() + Microseconds(i), TraceEventType::kIrq, i, 0);
  }
  EXPECT_EQ(sink.dropped(), 3u);
  EXPECT_EQ(sink.epochs(), 0u);

  sink.Reset(Instant() + Microseconds(100));
  // The overflow drops are forgiven — the discard was deliberate — and the
  // new window opens with exactly one event: the epoch marker.
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.epochs(), 1u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).type, TraceEventType::kTraceEpoch);
  EXPECT_EQ(sink.at(0).arg0, 1);
  EXPECT_EQ(sink.at(0).time, Instant() + Microseconds(100));
  // total_recorded keeps counting across resets (7 pre-reset + the marker).
  EXPECT_EQ(sink.total_recorded(), 8u);

  sink.Record(Instant() + Microseconds(101), TraceEventType::kJobRelease, 1, 0);
  sink.Reset(Instant() + Microseconds(200));
  EXPECT_EQ(sink.epochs(), 2u);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).arg0, 2);

  // Clear() wipes back to construction state, including the epoch count.
  sink.Clear();
  EXPECT_EQ(sink.epochs(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
}

TEST(TraceSinkTest, ResetOnZeroCapacitySinkStaysDisabled) {
  TraceSink sink(0);
  sink.Record(Instant(), TraceEventType::kIrq, 1, 0);
  sink.Reset(Instant() + Microseconds(5));
  // Recording is still disabled, so even the marker is counted as dropped —
  // but the pre-reset drop tally itself was forgiven.
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_EQ(sink.epochs(), 1u);
}

TEST(TraceEventTypeTest, ToStringFromStringRoundTripsAllEnumerators) {
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    TraceEventType type = static_cast<TraceEventType>(i);
    const char* name = TraceEventTypeToString(type);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "enumerator " << i << " has no name";
    TraceEventType back;
    ASSERT_TRUE(TraceEventTypeFromString(name, &back)) << name;
    EXPECT_EQ(back, type) << name;
  }
  // Names must be unique, or FromString could not invert ToString.
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    for (int j = i + 1; j < kNumTraceEventTypes; ++j) {
      EXPECT_STRNE(TraceEventTypeToString(static_cast<TraceEventType>(i)),
                   TraceEventTypeToString(static_cast<TraceEventType>(j)));
    }
  }
  TraceEventType unused;
  EXPECT_FALSE(TraceEventTypeFromString("not_an_event", &unused));
  EXPECT_FALSE(TraceEventTypeFromString("", &unused));
}

// Reads `f` back into a string (the CSV/dump tests write to tmpfile()).
std::string ReadAll(std::FILE* f) {
  std::rewind(f);
  std::string text;
  char buf[1024];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  return text;
}

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (char c : text) {
    if (c == '\n') {
      ++lines;
    }
  }
  return lines;
}

void FillSink(TraceSink& sink, int events) {
  for (int i = 0; i < events; ++i) {
    sink.Record(Instant() + Microseconds(i), TraceEventType::kContextSwitch, i - 1, i);
  }
}

TEST(TraceSinkTest, ExportCsvRowCountsAtCapacityBoundaries) {
  struct Case {
    int events;
    size_t expected_rows;
    bool expect_drop_note;
  };
  // Capacity 4: empty, one row, exactly full, wrapped.
  for (const Case& c : {Case{0, 0, false}, Case{1, 1, false}, Case{4, 4, false},
                        Case{7, 4, true}}) {
    TraceSink sink(4);
    FillSink(sink, c.events);
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(sink.ExportCsv(f), c.expected_rows) << c.events << " events";
    std::string text = ReadAll(f);
    std::fclose(f);
    // Header + rows + optional "# dropped=N" trailer.
    EXPECT_EQ(CountLines(text), 1 + c.expected_rows + (c.expect_drop_note ? 1 : 0))
        << c.events << " events";
    EXPECT_EQ(text.rfind("time_us,event,arg0,arg1,arg2\n", 0), 0u);
    EXPECT_EQ(text.find("# dropped=") != std::string::npos, c.expect_drop_note)
        << c.events << " events";
  }
}

TEST(TraceSinkTest, ExportCsvWrappedKeepsNewestRows) {
  TraceSink sink(4);
  FillSink(sink, 7);  // events 3..6 survive
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.ExportCsv(f);
  std::string text = ReadAll(f);
  std::fclose(f);
  EXPECT_NE(text.find("\n3,context_switch,2,3,0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\n6,context_switch,5,6,0\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("\n2,context_switch"), std::string::npos) << text;
  EXPECT_NE(text.find("# dropped=3\n"), std::string::npos) << text;
}

TEST(TraceSinkTest, DumpWritesToGivenStream) {
  TraceSink sink(4);
  sink.Record(Instant() + Microseconds(5), TraceEventType::kJobRelease, 2, 0);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.Dump(f);
  std::string text = ReadAll(f);
  std::fclose(f);
  EXPECT_NE(text.find("job_release"), std::string::npos) << text;
}

TEST(TraceSinkTest, DumpNotesDroppedEvents) {
  TraceSink sink(2);
  FillSink(sink, 5);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  sink.Dump(f);
  std::string text = ReadAll(f);
  std::fclose(f);
  EXPECT_NE(text.find("3 of 5 events dropped"), std::string::npos) << text;
}

TEST(TraceSinkTest, WindowOfAnUnwrappedRingIsTheRingItself) {
  TraceSink sink(8);
  FillSink(sink, 5);
  std::vector<TraceEvent> scratch;
  std::span<const TraceEvent> window = sink.Window(&scratch);
  ASSERT_EQ(window.size(), 5u);
  EXPECT_EQ(window.data(), &sink.at(0));
  EXPECT_TRUE(scratch.empty());
}

TEST(TraceSinkTest, WindowOfAWrappedRingMatchesAt) {
  TraceSink sink(4);
  FillSink(sink, 11);
  std::vector<TraceEvent> scratch;
  std::span<const TraceEvent> window = sink.Window(&scratch);
  ASSERT_EQ(window.size(), sink.size());
  EXPECT_EQ(window.data(), scratch.data());
  for (size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(window[i].time, sink.at(i).time) << i;
    EXPECT_EQ(window[i].arg1, sink.at(i).arg1) << i;
  }
  EXPECT_EQ(window.front().arg1, 7);
  EXPECT_EQ(window.back().arg1, 10);
}

TEST(TraceSinkTest, WindowOfADisabledSinkIsEmpty) {
  TraceSink sink(0);
  FillSink(sink, 3);
  std::vector<TraceEvent> scratch;
  EXPECT_TRUE(sink.Window(&scratch).empty());
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(sink.dropped(), 3u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kShadowingSanitizer = true;
#elif defined(__has_feature)
constexpr bool kShadowingSanitizer =
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer);
#else
constexpr bool kShadowingSanitizer = false;
#endif

// Resident set size of this process in kB, or -1 where /proc is missing.
long ResidentKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stol(line.substr(6));
    }
  }
  return -1;
}

// A ring commits only the slots it writes: a 4M-slot sink (96 MB of address
// space) holding 1000 events must stay far below its full size in RSS.
TEST(TraceSinkTest, UnwrittenSlotsStayUncommitted) {
  if (kShadowingSanitizer) {
    GTEST_SKIP() << "sanitizer shadow memory distorts RSS";
  }
  long before = ResidentKb();
  if (before < 0) {
    GTEST_SKIP() << "no /proc/self/status VmRSS on this platform";
  }
  TraceSink sink(size_t{4} << 20);
  FillSink(sink, 1000);
  long after = ResidentKb();
  EXPECT_EQ(sink.size(), 1000u);
  EXPECT_LT(after - before, 4 * 1024) << "RSS grew from " << before << " kB to " << after;
}

}  // namespace
}  // namespace emeralds
