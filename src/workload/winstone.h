// Winstone-style throughput harness (paper Section 4.2).
//
// "To verify that throughput-based benchmarks would not reveal the variation
// in real-time performance that we see in our plots, we ran the Business
// Winstone 97 benchmark on Windows 98 and on Windows NT 4.0 [...] the
// average delta between like scores was 10% and the maximum delta was 20%."
//
// This harness runs a fixed script of application operations (CPU bursts,
// synchronous file I/O, UI events) to completion and reports the elapsed
// virtual time; the same script on the two kernels completes within a
// throughput delta of tens of percent even though their latency profiles
// differ by orders of magnitude.

#ifndef SRC_WORKLOAD_WINSTONE_H_
#define SRC_WORKLOAD_WINSTONE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/kernel/event.h"
#include "src/sim/rng.h"
#include "src/workload/stress_load.h"

namespace wdmlat::workload {

// One application in a Winstone suite. "Each application is installed via
// an InstallShield script, run at full speed through a series of typical
// user actions and then uninstalled" (Section 3.1.1).
struct WinstoneApp {
  std::string name;
  std::string category;
  // The "typical user actions" phase.
  int iterations = 40;
  double cpu_us_per_iteration = 5000.0;
  int file_ops_per_iteration = 2;
  double file_bytes = 48.0 * 1024;
  double ui_event_probability = 0.6;
  // Install / uninstall file traffic.
  int install_file_ops = 60;
  int uninstall_file_ops = 25;
};

// The Business Winstone 97 application list: Database (Access, Paradox),
// Publishing (CorelDRAW, PageMaker, PowerPoint), Word Processing and
// Spreadsheet (Excel, Word, WordPro).
std::vector<WinstoneApp> BusinessWinstone97();

// High-End Winstone 97: Mechanical CAD (AVS, Microstation), Photoediting
// (Photoshop, Picture Publisher, P-V Wave), S/W Engineering (Visual C++).
std::vector<WinstoneApp> HighEndWinstone97();

class WinstoneScript {
 public:
  struct Config {
    int iterations = 300;
    // Per iteration: application CPU work, synchronous file operations and
    // UI events (a miniature of the Business Winstone mix).
    double cpu_us_per_iteration = 5000.0;
    int file_ops_per_iteration = 2;
    double file_bytes = 48.0 * 1024;
    double ui_event_probability = 0.6;
    int priority = 9;
  };

  WinstoneScript(StressLoad::Deps deps, Config config, sim::Rng rng);

  // Launch the script thread; `done(elapsed_seconds)` runs at completion.
  void Start(std::function<void(double)> done);

  bool finished() const { return finished_; }
  double elapsed_seconds() const { return elapsed_seconds_; }

 private:
  kernel::ThreadBody Run();

  StressLoad::Deps deps_;
  Config cfg_;
  sim::Rng rng_;
  std::function<void(double)> done_;
  kernel::KEvent io_event_{kernel::EventType::kSynchronization};
  sim::Cycles started_at_ = 0;
  bool finished_ = false;
  double elapsed_seconds_ = 0.0;
};

// Runs a whole Winstone suite: for each application, install, run the user
// actions at MS-Test speed, uninstall; reports total elapsed virtual time.
class WinstoneSuite {
 public:
  WinstoneSuite(StressLoad::Deps deps, std::vector<WinstoneApp> apps, sim::Rng rng);

  void Start(std::function<void(double)> done);

  bool finished() const { return finished_; }
  double elapsed_seconds() const { return elapsed_seconds_; }
  std::size_t apps_completed() const { return apps_completed_; }

 private:
  kernel::ThreadBody Run();

  StressLoad::Deps deps_;
  std::vector<WinstoneApp> apps_;
  sim::Rng rng_;
  std::function<void(double)> done_;
  kernel::KEvent io_event_{kernel::EventType::kSynchronization};
  sim::Cycles started_at_ = 0;
  std::size_t apps_completed_ = 0;
  bool finished_ = false;
  double elapsed_seconds_ = 0.0;
};

}  // namespace wdmlat::workload

#endif  // SRC_WORKLOAD_WINSTONE_H_
