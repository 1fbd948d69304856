#include "src/kernel/ready_queue.h"

#include <algorithm>
#include <cassert>

namespace wdmlat::kernel {

void ReadyQueue::Push(KThread* thread, bool front) {
  assert(thread != nullptr);
  const int prio = thread->priority();
  assert(prio >= kMinPriority && prio <= kMaxPriority);
  if (front) {
    queues_[prio].push_front(thread);
  } else {
    queues_[prio].push_back(thread);
  }
  summary_ |= std::uint32_t{1} << prio;
  ++count_;
}

KThread* ReadyQueue::Pop() {
  if (summary_ == 0) {
    return nullptr;
  }
  const int prio = top_priority();
  KThread* thread = queues_[prio].front();
  queues_[prio].pop_front();
  ClearIfEmpty(prio);
  --count_;
  return thread;
}

bool ReadyQueue::Remove(KThread* thread) {
  for (std::uint32_t bits = summary_; bits != 0; bits &= bits - 1) {
    const int prio = __builtin_ctz(bits);
    std::deque<KThread*>& queue = queues_[prio];
    auto it = std::find(queue.begin(), queue.end(), thread);
    if (it != queue.end()) {
      queue.erase(it);
      ClearIfEmpty(prio);
      --count_;
      return true;
    }
  }
  return false;
}

void ReadyQueue::Audit(std::vector<std::string>* violations) const {
  std::size_t queued = 0;
  for (int prio = 0; prio <= kMaxPriority; ++prio) {
    queued += queues_[prio].size();
    const bool bit = (summary_ >> prio) & 1u;
    if (bit == queues_[prio].empty()) {
      violations->push_back("ready summary bit " + std::to_string(prio) +
                            (bit ? " set but the queue is empty"
                                 : " clear but the queue holds " +
                                       std::to_string(queues_[prio].size()) + " thread(s)"));
    }
  }
  if (queued != count_) {
    violations->push_back("ready queues hold " + std::to_string(queued) +
                          " threads but size() says " + std::to_string(count_));
  }
}

}  // namespace wdmlat::kernel
