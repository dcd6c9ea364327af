// Interrupt controller model.
//
// Devices (and the programmable timer) raise IRQ lines; the kernel attaches a
// handler per line and dispatches pending interrupts at interruptible points.
// Raising a masked or already-pending line coalesces (level-triggered
// semantics), matching typical single-chip controllers.
//
// The controller keeps a deliverable mask (bit i set <=> line i is pending,
// enabled and has a handler), updated by every call that changes one of the
// three, so the executive's per-iteration poll is one test rather than a
// walk over all lines, and a dispatch pass visits only deliverable lines.

#ifndef SRC_HAL_INTERRUPTS_H_
#define SRC_HAL_INTERRUPTS_H_

#include <cstdint>

#include "src/base/assert.h"

namespace emeralds {

inline constexpr int kNumIrqLines = 16;

// Conventional line assignments for this platform.
inline constexpr int kIrqTimer = 0;
inline constexpr int kIrqFieldbus = 1;
inline constexpr int kIrqSensor = 2;

using IrqHandler = void (*)(void* context, int line);

class InterruptController {
 public:
  InterruptController() = default;

  // Attaches `handler` to `line`; replaces any existing handler.
  void Attach(int line, IrqHandler handler, void* context);
  void Detach(int line);

  // Marks `line` pending (device side). Coalesces with an already-pending
  // interrupt.
  void Raise(int line);

  // Per-line mask (true = delivery enabled). Lines start unmasked.
  void SetEnabled(int line, bool enabled);
  bool enabled(int line) const;

  // Global interrupt-enable flag (the kernel runs its critical sections with
  // interrupts disabled).
  void SetGlobalEnable(bool enabled) { global_enable_ = enabled; }
  bool global_enable() const { return global_enable_; }

  bool pending(int line) const;
  bool AnyDeliverable() const { return global_enable_ && deliverable_ != 0; }

  // Dispatches every deliverable pending interrupt (in line order, which
  // models fixed hardware priority). Returns the number dispatched. Handlers
  // may raise further interrupts: a line above the one being served is
  // picked up in the same pass, one at or below it in the next. The global
  // enable is checked once per pass, so a handler that clears it stops only
  // later passes.
  int DispatchPending();

  // Statistics.
  uint64_t raised_count(int line) const;
  uint64_t dispatched_count(int line) const;

 private:
  void CheckLine(int line) const { EM_ASSERT_MSG(line >= 0 && line < kNumIrqLines,
                                                 "bad IRQ line %d", line); }
  void UpdateDeliverable(int line);

  struct Line {
    IrqHandler handler = nullptr;
    void* context = nullptr;
    bool pending = false;
    bool enabled = true;
    uint64_t raised = 0;
    uint64_t dispatched = 0;
  };

  Line lines_[kNumIrqLines];
  uint32_t deliverable_ = 0;
  bool global_enable_ = true;
};

}  // namespace emeralds

#endif  // SRC_HAL_INTERRUPTS_H_
