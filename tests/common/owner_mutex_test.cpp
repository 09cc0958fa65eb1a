// Single-owner contract: an OwnerMutex locks until claimed, a claimed one
// is a no-op whose overlapping acquisition debug builds reject, and only
// the DES executors report single_threaded(), which is what lets the
// bindings built on them claim their locks.
#include "common/owner_mutex.hpp"

#include <gtest/gtest.h>

#include <future>
#include <mutex>

#include "common/serial_executor.hpp"
#include "common/thread_pool.hpp"
#include "sim/sim_executor.hpp"

namespace dear::common {
namespace {

TEST(SingleOwnerMutex, UnclaimedMutexExcludesOtherThreads) {
  OwnerMutex mutex;
  EXPECT_FALSE(mutex.single_owner());
  const std::lock_guard<OwnerMutex> lock(mutex);
  auto other = std::async(std::launch::async, [&mutex] {
    const bool acquired = mutex.try_lock();
    if (acquired) {
      mutex.unlock();
    }
    return acquired;
  });
  EXPECT_FALSE(other.get());
}

TEST(SingleOwnerMutex, ClaimedMutexLocksWithoutTheUnderlyingMutex) {
  OwnerMutex mutex;
  mutex.claim_single_owner();
  EXPECT_TRUE(mutex.single_owner());
  for (int i = 0; i < 3; ++i) {
    const std::lock_guard<OwnerMutex> lock(mutex);
  }
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
  // The wrapped mutex was never taken.
  ASSERT_TRUE(mutex.native().try_lock());
  mutex.native().unlock();
}

TEST(SingleOwnerMutexDeathTest, OverlappingAcquisitionAbortsInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "the overlap check is compiled into debug builds only";
#else
  EXPECT_DEATH(
      {
        OwnerMutex mutex;
        mutex.claim_single_owner();
        mutex.lock();
        mutex.lock();
      },
      "already held");
  EXPECT_DEATH(
      {
        OwnerMutex mutex;
        mutex.claim_single_owner();
        mutex.lock();
        (void)mutex.try_lock();
      },
      "already held");
#endif
}

TEST(SingleOwnerExecutor, OnlyTheDesExecutorsAreSingleThreaded) {
  sim::Kernel kernel;
  sim::SimExecutor sim_executor(kernel, Rng(1));
  sim::ImmediateSimExecutor immediate(kernel);
  EXPECT_TRUE(sim_executor.single_threaded());
  EXPECT_TRUE(immediate.single_threaded());

  ThreadPoolExecutor pool(1);
  SerialExecutor strand_on_pool(pool);
  SerialExecutor strand_on_sim(sim_executor);
  EXPECT_FALSE(pool.single_threaded());
  EXPECT_FALSE(strand_on_pool.single_threaded());
  EXPECT_FALSE(strand_on_sim.single_threaded());
}

}  // namespace
}  // namespace dear::common
