/**
 * @file
 * Wall-clock timing helpers for the benchmark harness.
 */

#ifndef TMEMC_COMMON_TIMER_H
#define TMEMC_COMMON_TIMER_H

#include <chrono>

namespace tmemc
{

/** Monotonic wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Elapsed seconds since construction or the last reset(). */
    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace tmemc

#endif // TMEMC_COMMON_TIMER_H
