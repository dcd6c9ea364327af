#include "src/hal/interrupts.h"

#include <bit>

namespace emeralds {

void InterruptController::Attach(int line, IrqHandler handler, void* context) {
  CheckLine(line);
  lines_[line].handler = handler;
  lines_[line].context = context;
  UpdateDeliverable(line);
}

void InterruptController::Detach(int line) {
  CheckLine(line);
  lines_[line].handler = nullptr;
  lines_[line].context = nullptr;
  UpdateDeliverable(line);
}

void InterruptController::Raise(int line) {
  CheckLine(line);
  lines_[line].pending = true;
  ++lines_[line].raised;
  UpdateDeliverable(line);
}

void InterruptController::SetEnabled(int line, bool enabled) {
  CheckLine(line);
  lines_[line].enabled = enabled;
  UpdateDeliverable(line);
}

bool InterruptController::enabled(int line) const {
  CheckLine(line);
  return lines_[line].enabled;
}

bool InterruptController::pending(int line) const {
  CheckLine(line);
  return lines_[line].pending;
}

void InterruptController::UpdateDeliverable(int line) {
  const Line& l = lines_[line];
  uint32_t bit = uint32_t{1} << line;
  deliverable_ = (l.pending && l.enabled && l.handler != nullptr) ? deliverable_ | bit
                                                                  : deliverable_ & ~bit;
}

int InterruptController::DispatchPending() {
  int dispatched = 0;
  while (global_enable_ && deliverable_ != 0) {
    // One pass: lowest deliverable line first, re-reading the mask after each
    // handler so a line it raises above the current one is served this pass.
    for (uint32_t above = deliverable_; above != 0;) {
      int i = std::countr_zero(above);
      Line& line = lines_[i];
      line.pending = false;
      deliverable_ &= ~(uint32_t{1} << i);
      ++line.dispatched;
      ++dispatched;
      line.handler(line.context, i);
      above = deliverable_ & ~((uint32_t{2} << i) - 1);
    }
  }
  return dispatched;
}

uint64_t InterruptController::raised_count(int line) const {
  CheckLine(line);
  return lines_[line].raised;
}

uint64_t InterruptController::dispatched_count(int line) const {
  CheckLine(line);
  return lines_[line].dispatched;
}

}  // namespace emeralds
