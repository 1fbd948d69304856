// Tests for the Windows 98 legacy substrate: virus scanner and sound scheme.

#include <gtest/gtest.h>

#include "src/drivers/latency_driver.h"
#include "src/vmm98/sound_scheme.h"
#include "src/vmm98/virus_scanner.h"
#include "tests/test_util.h"

namespace wdmlat::vmm98 {
namespace {

using kernel::Label;
using kernel::ThreadBody;
using testutil::MiniSystem;

TEST(VirusScannerTest, ScansAFractionOfFileOperations) {
  MiniSystem sys;
  VirusScanner::Config config;
  config.scan_probability = 0.5;
  VirusScanner scanner(sys.kernel(), sim::Rng(3), config);
  for (int i = 0; i < 1000; ++i) {
    scanner.OnFileOperation(32 * 1024);
  }
  EXPECT_NEAR(static_cast<double>(scanner.scans()), 500.0, 60.0);
}

TEST(VirusScannerTest, ScansLockOutThreadDispatching) {
  MiniSystem sys;
  kernel::KEvent wake;
  sim::Cycles signaled_at = 0;
  sim::Cycles ran_at = 0;
  sys.kernel().PsCreateSystemThread("rt", 28, [&]() -> ThreadBody {
    co_await sys.kernel().Wait(&wake);
    ran_at = sys.kernel().GetCycleCount();
  });
  VirusScanner::Config config;
  config.scan_probability = 1.0;
  config.scan_lockout_us = sim::DurationDist::Constant(20000.0);
  config.raised_irql_us = sim::DurationDist::Constant(100.0);
  VirusScanner scanner(sys.kernel(), sim::Rng(4), config);
  sys.engine().ScheduleAt(sim::MsToCycles(1.5), [&] {
    scanner.OnFileOperation(16 * 1024);
    signaled_at = sys.kernel().GetCycleCount();
    sys.kernel().KeSetEvent(&wake);
  });
  sys.RunForMs(60.0);
  ASSERT_NE(ran_at, 0u);
  EXPECT_GT(sim::CyclesToMs(ran_at - signaled_at), 15.0);
}

TEST(VirusScannerTest, LargerBuffersScanLonger) {
  MiniSystem sys;
  VirusScanner::Config config;
  config.scan_probability = 1.0;
  config.scan_lockout_us = sim::DurationDist::Constant(1000.0);
  config.raised_irql_us = sim::DurationDist::Constant(10.0);
  VirusScanner scanner(sys.kernel(), sim::Rng(5), config);
  // Observe lockout length via a readied thread's delay.
  auto measure = [&](std::uint32_t bytes) {
    kernel::KEvent wake;
    sim::Cycles signaled_at = 0;
    sim::Cycles ran_at = 0;
    sys.kernel().PsCreateSystemThread("probe", 28, [&]() -> ThreadBody {
      co_await sys.kernel().Wait(&wake);
      ran_at = sys.kernel().GetCycleCount();
    });
    sys.RunForMs(2.0);
    sys.engine().ScheduleAfter(0, [&] {
      scanner.OnFileOperation(bytes);
      signaled_at = sys.kernel().GetCycleCount();
      sys.kernel().KeSetEvent(&wake);
    });
    sys.RunForMs(30.0);
    return sim::CyclesToMs(ran_at - signaled_at);
  };
  const double small = measure(4 * 1024);
  const double large = measure(2 * 1024 * 1024);
  EXPECT_GT(large, small * 1.5);
}

TEST(SoundSchemeTest, NoSoundSchemeIsSilent) {
  MiniSystem sys;
  SoundScheme::Config config;
  config.kind = SchemeKind::kNoSounds;
  SoundScheme scheme(sys.kernel(), sim::Rng(6), config);
  for (int i = 0; i < 1000; ++i) {
    scheme.OnUiEvent();
  }
  EXPECT_EQ(scheme.sounds_played(), 0u);
}

TEST(SoundSchemeTest, DefaultSchemePlaysSomeSounds) {
  MiniSystem sys;
  SoundScheme::Config config;
  config.sound_probability = 0.35;
  SoundScheme scheme(sys.kernel(), sim::Rng(7), config);
  for (int i = 0; i < 1000; ++i) {
    scheme.OnUiEvent();
    sys.RunForMs(1.0);
  }
  EXPECT_NEAR(static_cast<double>(scheme.sounds_played()), 350.0, 60.0);
}

TEST(SoundSchemeTest, SoundsInjectTheTable4Labels) {
  MiniSystem sys;
  // Sample what the PIT interrupts, as the cause tool would.
  std::vector<Label> sampled;
  sys.kernel().clock_interrupt()->AddPreHook(
      [&] { sampled.push_back(sys.kernel().dispatcher().InterruptedLabel()); });
  SoundScheme::Config config;
  config.sound_probability = 1.0;
  config.topology_us = sim::DurationDist::Constant(3000.0);
  config.mm_frame_us = sim::DurationDist::Constant(3000.0);
  config.mm_find_contig_probability = 1.0;
  config.mm_contig_us = sim::DurationDist::Constant(3000.0);
  SoundScheme scheme(sys.kernel(), sim::Rng(8), config);
  for (int i = 0; i < 20; ++i) {
    sys.engine().ScheduleAt(sim::MsToCycles(10.0 * (i + 1)), [&] { scheme.OnUiEvent(); });
  }
  sys.RunForMs(400.0);
  bool saw_topology = false;
  bool saw_frame = false;
  bool saw_contig = false;
  for (const Label& label : sampled) {
    saw_topology |= label == Label{"SYSAUDIO", "_ProcessTopologyConnection"};
    saw_frame |= label == Label{"VMM", "_mmCalcFrameBadness"};
    saw_contig |= label == Label{"VMM", "_mmFindContig"};
  }
  EXPECT_TRUE(saw_topology);
  EXPECT_TRUE(saw_frame);
  EXPECT_TRUE(saw_contig);
}

TEST(SoundSchemeTest, KmixerWorkGoesToTheWorkerThread) {
  MiniSystem sys;
  SoundScheme::Config config;
  config.sound_probability = 1.0;
  SoundScheme scheme(sys.kernel(), sim::Rng(9), config);
  sys.engine().ScheduleAt(sim::MsToCycles(1.0), [&] { scheme.OnUiEvent(); });
  sys.RunForMs(0.5);
  const std::uint64_t dispatches_before = sys.kernel().worker_thread()->dispatch_count();
  sys.RunForMs(20.0);
  EXPECT_GT(sys.kernel().worker_thread()->dispatch_count(), dispatches_before);
}

// The Figure-5 headline: with the scanner on, long thread latencies become
// orders of magnitude more frequent under a file-heavy load.
TEST(VirusScannerTest, ScannerThickensTheThreadLatencyTail) {
  auto run = [](bool with_scanner) {
    MiniSystem sys;
    drivers::LatencyDriver driver(sys.kernel(), drivers::LatencyDriver::Config{});
    driver.Start();
    std::unique_ptr<VirusScanner> scanner;
    if (with_scanner) {
      scanner = std::make_unique<VirusScanner>(sys.kernel(), sim::Rng(10));
    }
    // File operations at 30/s.
    sim::Rng rng(11);
    sim::PoissonProcess files(sys.engine(), sim::Rng(12), 30.0, [&] {
      if (scanner) {
        scanner->OnFileOperation(static_cast<std::uint32_t>(rng.Exponential(64 * 1024)));
      }
    });
    files.Start();
    sys.RunForMs(30000.0);
    return driver.thread_latency().FractionAtOrAbove(4.0);
  };
  const double without = run(false);
  const double with = run(true);
  EXPECT_GT(with, without * 10.0 + 1e-6);
}

}  // namespace
}  // namespace wdmlat::vmm98
