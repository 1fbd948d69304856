#include "src/hw/interrupt_controller.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace wdmlat::hw {

int InterruptController::ConnectLine(std::string name, kernel::Irql irql) {
  Line line;
  line.name = std::move(name);
  line.irql = irql;
  lines_.push_back(std::move(line));
  return static_cast<int>(lines_.size()) - 1;
}

void InterruptController::Assert(int line) {
  assert(line >= 0 && line < line_count());
  Line& l = lines_[line];
  ++l.asserts;
  if (l.pending) {
    // Edge lost: the previous assertion has not been serviced yet.
    ++dropped_edges_;
    return;
  }
  l.pending = true;
  ++pending_count_;
  l.assert_time = engine_.now();
  l.target_core = irq_router_ ? irq_router_(line) : 0;
  if (pending_notifier_) {
    pending_notifier_();
  }
}

int InterruptController::ScanPending(kernel::Irql ceiling, int core) const {
  int best = kNoLine;
  for (int i = 0; i < line_count(); ++i) {
    const Line& l = lines_[i];
    if (!l.pending || (core != kAnyCore && l.target_core != core) || l.irql <= ceiling) {
      continue;
    }
    if (best == kNoLine || l.irql > lines_[best].irql) {
      best = i;
    }
  }
  return best;
}

sim::Cycles InterruptController::Acknowledge(int line) {
  assert(line >= 0 && line < line_count());
  Line& l = lines_[line];
  assert(l.pending);
  l.pending = false;
  --pending_count_;
  return l.assert_time;
}

void InterruptController::Audit(std::vector<std::string>* violations) const {
  const auto latched = std::count_if(lines_.begin(), lines_.end(),
                                     [](const Line& l) { return l.pending; });
  if (latched != pending_count_) {
    violations->push_back("pic: pending count " + std::to_string(pending_count_) + " but " +
                          std::to_string(latched) + " line(s) are latched");
  }
}

}  // namespace wdmlat::hw
