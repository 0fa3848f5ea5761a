// Tests of the session benchmark itself: deterministic inputs, the tail
// rule, open-loop lateness accounting, and that a wrong answer fails the
// command.

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace sessionbench {
namespace {

TEST(GeneratorTest, SameSeedSameRows) {
  const auto a = GenerateBenchTable(2000, 7);
  const auto b = GenerateBenchTable(2000, 7);
  const auto c = GenerateBenchTable(2000, 8);
  ASSERT_EQ(a.NumRows(), 2000);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.NumericColumn(i), b.NumericColumn(i));
    EXPECT_EQ(a.BooleanColumn(i), b.BooleanColumn(i));
  }
  EXPECT_NE(a.NumericColumn(0), c.NumericColumn(0));
}

TEST(GeneratorTest, PlantsTheRule) {
  const auto rows = GenerateBenchTable(20000, 3);
  const auto planted = BenchPlantedRule();
  int64_t inside = 0;
  int64_t hits = 0;
  for (int64_t r = 0; r < rows.NumRows(); ++r) {
    const double v = rows.NumericValue(r, planted.numeric_attr);
    if (planted.lo <= v && v <= planted.hi) {
      ++inside;
      hits += rows.BooleanValue(r, planted.boolean_attr) ? 1 : 0;
    }
  }
  ASSERT_GT(inside, 1000);
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(inside), 0.85);
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  const std::vector<double> a = OpenLoopSchedule(5, 40.0, 2.0);
  EXPECT_EQ(a, OpenLoopSchedule(5, 40.0, 2.0));
  EXPECT_NE(a, OpenLoopSchedule(6, 40.0, 2.0));
  ASSERT_EQ(a.size(), 80u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
}

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(TailTest, HighestPercentileWithTenBeyond) {
  Tail tail = TailPercentile(OneTo(100));
  EXPECT_EQ(tail.percentile, 90);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_EQ(tail.samples, 100);

  tail = TailPercentile(OneTo(1000));
  EXPECT_EQ(tail.percentile, 99);
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.beyond, 10);

  tail = TailPercentile(OneTo(20));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.value, 10.0);
  EXPECT_EQ(tail.beyond, 10);

  tail = TailPercentile(OneTo(37));
  EXPECT_GE(tail.beyond, kTailBeyond);
  EXPECT_EQ(tail.percentile, 72);  // rank 27 of 37, 10 beyond
}

TEST(TailTest, TooFewSamplesFallsBackToMedian) {
  Tail tail = TailPercentile(OneTo(5));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.value, 3.0);
  // 19 samples: p47 would have 10 beyond, but a tail below the median is
  // no tail.
  tail = TailPercentile(OneTo(19));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.value, 10.0);
}

TEST(OpenLoopTest, LatencyCountsFromDueTimeSoAStallShows) {
  std::vector<double> schedule;
  for (int i = 0; i < 10; ++i) schedule.push_back(0.01 * i);
  // One connection; session 2 stalls for 200 ms, the rest are instant.
  const std::vector<SessionTiming> timings =
      RunOpenLoop(schedule, 1, [](int, size_t index) {
        if (index == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        return true;
      });
  ASSERT_EQ(timings.size(), schedule.size());
  EXPECT_LT(timings[1].latency_s(), 0.05);
  EXPECT_GE(timings[2].latency_s(), 0.2);
  // Sessions queued behind the stall were sent late and their latency
  // shows it, although their own service time is ~0.
  for (size_t i = 3; i < timings.size(); ++i) {
    EXPECT_GE(timings[i].latency_s(), 0.2 - schedule[i] + schedule[2]) << i;
    EXPECT_LT(timings[i].done - timings[i].sent, 0.05) << i;
    // The generator itself was not late: the connection was busy.
    EXPECT_LT(timings[i].lag_s(), 0.05) << i;
  }
  EXPECT_FALSE(PhaseMeetsLimit(timings, 0.1));
  EXPECT_TRUE(PhaseMeetsLimit(timings, 0.5));
}

TEST(OpenLoopTest, FailedSessionFailsThePhase) {
  const std::vector<double> schedule = {0.0, 0.001, 0.002};
  const auto timings = RunOpenLoop(
      schedule, 2, [](int, size_t index) { return index != 1; });
  EXPECT_FALSE(timings[1].ok);
  EXPECT_FALSE(PhaseMeetsLimit(timings, 10.0));
}

/// Runs the benchmark binary; returns its exit status and stdout.
int RunBench(const std::string& extra, std::string* output) {
  const std::string command =
      std::string(SESSIONBENCH_BINARY) +
      " --workload dist_gk --seed 3 --seconds 1 --trace 0 --workerd " +
      SESSIONBENCH_WORKERD + " --work-dir sessionbench_test_work " + extra;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output->append(buf, n);
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CommandTest, CorrectRunPassesItsChecks) {
  std::string output;
  EXPECT_EQ(RunBench("", &output), 0) << output;
  EXPECT_NE(output.find("\"correct\": true"), std::string::npos) << output;
}

TEST(CommandTest, WrongAnswerMakesTheCommandFail) {
  std::string output;
  EXPECT_EQ(RunBench("--inject wrong-answer", &output), 1) << output;
  EXPECT_NE(output.find("\"correct\": false"), std::string::npos) << output;
  EXPECT_NE(output.find("CHECK FAILED"), std::string::npos) << output;
}

}  // namespace
}  // namespace sessionbench
