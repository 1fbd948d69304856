// The parallel matrix runner's headline guarantee: for a fixed master seed,
// the merged histograms are bit-identical whether the cells ran on one
// worker or four. Also covers the seed-derivation scheme, grid expansion and
// how a failing cell ends a run.

#include "src/lab/matrix.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::lab {
namespace {

// A small but non-trivial grid: 1 OS x 2 workloads x 1 priority x 2 trials,
// short cells so the whole test stays in test-suite time.
MatrixSpec SmallSpec() {
  MatrixSpec spec;
  spec.oses = {kernel::MakeWin98Profile()};
  spec.workloads = {workload::GamesStress(), workload::WebStress()};
  spec.priorities = {28};
  spec.trials = 2;
  spec.stress_minutes = 0.2;
  spec.warmup_seconds = 1.0;
  spec.master_seed = 42;
  return spec;
}

void ExpectMergedIdentical(const MergedCell& a, const MergedCell& b) {
  EXPECT_EQ(a.os_name, b.os_name);
  EXPECT_EQ(a.workload_name, b.workload_name);
  EXPECT_EQ(a.thread_priority, b.thread_priority);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.samples(), b.samples());
  EXPECT_EQ(a.counters.stress_hours, b.counters.stress_hours);
  // Bucket-for-bucket identity via the CSV dump (every non-empty bucket and
  // its count), plus the exact floating-point moments: merging happens in
  // grid order after all cells finish, so even sums must match bitwise.
  auto hist = [](const char* name, const stats::LatencyHistogram& x,
                 const stats::LatencyHistogram& y) {
    EXPECT_EQ(x.count(), y.count()) << name;
    EXPECT_EQ(x.ToCsv(), y.ToCsv()) << name;
    EXPECT_EQ(x.min_ms(), y.min_ms()) << name;
    EXPECT_EQ(x.max_ms(), y.max_ms()) << name;
    EXPECT_EQ(x.mean_ms(), y.mean_ms()) << name;
  };
  hist("dpc_interrupt", a.dpc_interrupt, b.dpc_interrupt);
  hist("thread", a.thread, b.thread);
  hist("thread_interrupt", a.thread_interrupt, b.thread_interrupt);
  hist("interrupt", a.interrupt, b.interrupt);
  hist("isr_to_dpc", a.isr_to_dpc, b.isr_to_dpc);
  hist("true_pit", a.true_pit_interrupt_latency, b.true_pit_interrupt_latency);
}

TEST(MatrixDeterminismTest, MergedHistogramsIdenticalAcrossJobCounts) {
  const ExperimentMatrix matrix(SmallSpec());
  const MatrixResult serial = matrix.Run(1);
  const MatrixResult parallel = matrix.Run(4);

  ASSERT_EQ(serial.merged.size(), 2u);
  ASSERT_EQ(parallel.merged.size(), serial.merged.size());
  for (std::size_t i = 0; i < serial.merged.size(); ++i) {
    SCOPED_TRACE(serial.merged[i].workload_name);
    ExpectMergedIdentical(serial.merged[i], parallel.merged[i]);
    EXPECT_GT(serial.merged[i].samples(), 0u);
    EXPECT_EQ(serial.merged[i].trials, 2);
  }
  // Per-cell reports are slot-addressed, so they must agree too.
  ASSERT_EQ(serial.reports.size(), 4u);
  for (std::size_t i = 0; i < serial.reports.size(); ++i) {
    EXPECT_EQ(serial.reports[i].samples, parallel.reports[i].samples) << "cell " << i;
    EXPECT_EQ(serial.reports[i].thread.ToCsv(), parallel.reports[i].thread.ToCsv())
        << "cell " << i;
  }
}

TEST(MatrixDeterminismTest, MasterSeedChangesEveryCell) {
  MatrixSpec spec = SmallSpec();
  const ExperimentMatrix a(spec);
  spec.master_seed = 43;
  const ExperimentMatrix b(spec);
  for (std::size_t i = 0; i < a.cells().size(); ++i) {
    EXPECT_NE(a.cells()[i].seed, b.cells()[i].seed) << "cell " << i;
  }
}

TEST(MatrixDeterminismTest, CellSeedsAreDistinctAndCoordinateStable) {
  std::set<std::uint64_t> seeds;
  for (std::size_t os = 0; os < 2; ++os) {
    for (std::size_t wl = 0; wl < 4; ++wl) {
      for (int prio : {24, 28}) {
        for (int trial = 0; trial < 8; ++trial) {
          seeds.insert(ExperimentMatrix::CellSeed(1999, os, wl, prio, trial));
        }
      }
    }
  }
  EXPECT_EQ(seeds.size(), 2u * 4u * 2u * 8u);
  // Coordinate-stable: the seed is a pure function of (master, coordinates),
  // independent of grid shape — growing the matrix never reseeds old cells.
  EXPECT_EQ(ExperimentMatrix::CellSeed(1999, 1, 2, 28, 3),
            ExperimentMatrix::CellSeed(1999, 1, 2, 28, 3));
}

TEST(MatrixDeterminismTest, GridExpansionEnumeratesInGridOrder) {
  MatrixSpec spec = SmallSpec();
  spec.priorities = {28, 24};
  const ExperimentMatrix matrix(spec);
  ASSERT_EQ(matrix.cells().size(), spec.cell_count());
  std::size_t i = 0;
  for (std::size_t wl = 0; wl < 2; ++wl) {
    for (std::size_t pr = 0; pr < 2; ++pr) {
      for (int trial = 0; trial < 2; ++trial, ++i) {
        const MatrixCell& cell = matrix.cells()[i];
        EXPECT_EQ(cell.index, i);
        EXPECT_EQ(cell.workload_index, wl);
        EXPECT_EQ(cell.priority_index, pr);
        EXPECT_EQ(cell.trial, trial);
        EXPECT_EQ(cell.config.thread_priority, spec.priorities[pr]);
        EXPECT_EQ(cell.config.seed, cell.seed);
      }
    }
  }
  EXPECT_EQ(matrix.GroupIndex(0, 1, 1), 3u);
}

TEST(MatrixDeterminismTest, PaperMatrixMatchesFigure4Grid) {
  const MatrixSpec spec = PaperMatrix();
  EXPECT_EQ(spec.oses.size(), 2u);
  EXPECT_EQ(spec.workloads.size(), 4u);
  EXPECT_EQ(spec.priorities, (std::vector<int>{28, 24}));
  EXPECT_EQ(spec.cell_count(), 16u);
  EXPECT_EQ(spec.group_count(), 16u);
}

// A sink that fails the cell it observes (MatrixSpec::trace_sink reaches
// cell 0 only).
class ThrowingSink : public kernel::TraceSink {
 public:
  void OnTraceEvent(const kernel::TraceEvent&) override {
    throw std::runtime_error("sink failure");
  }
};

TEST(MatrixDeterminismTest, ThrowingCellEndsTheRunNamingItselfAfterTheOthersFinish) {
  ThrowingSink sink;
  MatrixSpec spec = SmallSpec();
  spec.stress_minutes = 0.02;
  spec.trace_sink = &sink;
  const ExperimentMatrix matrix(spec);
  std::set<std::size_t> finished;
  try {
    matrix.Run(2, [&](const MatrixCell& cell) { finished.insert(cell.index); });
    FAIL() << "a throwing cell must end the run";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("cell 0 (Windows 98 / 3D Games / prio 28, trial 0, seed " +
                                std::to_string(matrix.cells()[0].seed) + "): ",
                            0),
              0u)
        << message;
    EXPECT_NE(message.find("sink failure"), std::string::npos) << message;
  }
  EXPECT_EQ(finished, (std::set<std::size_t>{1, 2, 3}));
}

}  // namespace
}  // namespace wdmlat::lab
