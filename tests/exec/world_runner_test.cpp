// run_worlds unit tests: completeness, exception policy, inline sequential
// semantics, and the --jobs parser.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/world_runner.hpp"

namespace {
using namespace moonshot;

TEST(RunWorlds, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  exec::run_worlds(4, kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(RunWorlds, SurvivesSkewedTaskDurations) {
  // One long task up front; the rest are instant. The other lanes must drain
  // the short tasks while the long one blocks a lane.
  std::atomic<int> done{0};
  exec::run_worlds(3, 64, [&](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(RunWorlds, RethrowsLowestIndexException) {
  std::atomic<int> completed{0};
  try {
    exec::run_worlds(4, 100, [&](std::size_t i) {
      if (i == 7 || i == 3 || i == 42) throw std::runtime_error("task " + std::to_string(i));
      completed.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
  // A throwing task never abandons its siblings: all non-throwing tasks ran.
  EXPECT_EQ(completed.load(), 97);
}

TEST(RunWorlds, InlineAndInOrderWhenJobsIsOne) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  exec::run_worlds(1, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RunWorlds, SingleTaskRunsInline) {
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  exec::run_worlds(8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(RunWorlds, ParallelCoversAllIndices) {
  std::vector<std::atomic<int>> hits(256);
  exec::run_worlds(8, 256, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(RunWorlds, ZeroTasksIsANoop) {
  exec::run_worlds(4, 0, [&](std::size_t) { FAIL() << "no tasks to run"; });
}

TEST(ParseJobs, Values) {
  EXPECT_EQ(exec::parse_jobs("3"), 3u);
  EXPECT_EQ(exec::parse_jobs("1"), 1u);
  EXPECT_EQ(exec::parse_jobs("auto"), exec::hardware_jobs());
  EXPECT_EQ(exec::parse_jobs("0"), exec::hardware_jobs());
  EXPECT_EQ(exec::parse_jobs(""), 0u);
  EXPECT_EQ(exec::parse_jobs("x"), 0u);
  EXPECT_EQ(exec::parse_jobs("4x"), 0u);
  EXPECT_EQ(exec::parse_jobs("-2"), 0u);
  EXPECT_EQ(exec::parse_jobs("999999999"), 0u);  // absurd = malformed
  EXPECT_GE(exec::hardware_jobs(), 1u);
}

}  // namespace
