#include "exec/world_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace moonshot::exec {

unsigned hardware_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned parse_jobs(const char* value) {
  if (value == nullptr) return 0;
  if (std::strcmp(value, "auto") == 0 || std::strcmp(value, "0") == 0)
    return hardware_jobs();
  char* end = nullptr;
  const unsigned long n = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || n > 4096) return 0;
  return static_cast<unsigned>(n);
}

void run_worlds(unsigned jobs, std::size_t count,
                const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (jobs <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Every lane claims the next unclaimed index until none is left. A
  // throwing task never abandons its siblings: its exception is parked and
  // the lowest-index one is rethrown once every lane has joined.
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  std::size_t error_index = count;
  const auto lane = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  // jobs lanes = the caller plus jobs-1 threads, never more lanes than tasks.
  const std::size_t lanes = std::min<std::size_t>(jobs, count);
  std::vector<std::thread> threads;
  threads.reserve(lanes - 1);
  try {
    while (threads.size() + 1 < lanes) threads.emplace_back(lane);
  } catch (...) {
    // A thread failed to start. The lanes already running (and the caller)
    // still drain every index, and each is joined below before returning.
  }
  lane();
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

unsigned test_jobs() {
  if (const char* env = std::getenv("MOONSHOT_TEST_JOBS")) {
    const unsigned n = parse_jobs(env);
    if (n > 0) return n;
  }
  return hardware_jobs();
}

}  // namespace moonshot::exec
