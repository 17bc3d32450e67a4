/**
 * @file
 * The serial lock's writer side: out of line because it scans the
 * runtime's descriptors for read registrations (serial_lock.h).
 */

#include "tm/serial_lock.h"

#include "tm/runtime.h"

namespace tmemc::tm
{

void
SerialLock::writeLock()
{
    obs::probe::WaitStamp wait("serial_lock");
    std::uint32_t expected = 0;
    while (!writer_.compare_exchange_weak(expected, 1,
                                          std::memory_order_acquire)) {
        expected = 0;
        wait.spin();
        cpuRelax();
    }
    Runtime::get().waitForStarts(&domain_, Runtime::kEveryStart, nullptr,
                                 wait);
}

} // namespace tmemc::tm
