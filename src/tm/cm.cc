/**
 * @file
 * Contention-manager implementations.
 */

#include "tm/cm.h"

#include <thread>

#include "common/backoff.h"
#include "tm/runtime.h"

namespace tmemc::tm
{

namespace
{

/** Retry immediately, forever (paper Figure 10 configuration). */
class NoCm : public ContentionManager
{
  public:
    const char *name() const override { return "nocm"; }
};

/** Randomized exponential backoff after each abort. */
class BackoffCm : public ContentionManager
{
  public:
    const char *name() const override { return "backoff"; }

    bool
    afterAbort(Runtime &rt, TxDesc &d) override
    {
        d.cmBackoff.pause();
        return false;
    }

    void
    afterCommit(Runtime &rt, TxDesc &d) override
    {
        d.cmBackoff.reset();
    }
};

/**
 * GCC's default policy: a transaction that aborts N times in a row
 * restarts in serial-irrevocable mode for guaranteed progress.
 */
class SerialAfterNCm : public ContentionManager
{
  public:
    const char *name() const override { return "serial-after-n"; }

    bool
    afterAbort(Runtime &rt, TxDesc &d) override
    {
        return d.consecAborts >= rt.cfg().serialAfterAborts;
    }
};

/**
 * Hourglass / toxic-transaction policy: a starving transaction claims
 * the "neck"; while the neck is held, no other transaction may begin,
 * so the starving one eventually runs (almost) alone and commits.
 * Unlike SerialAfterN this needs no global readers/writer lock, which
 * is why the paper pairs it with the NoLock runtime in Figure 11.
 */
class HourglassCm : public ContentionManager
{
  public:
    const char *name() const override { return "hourglass"; }

    void
    beforeBegin(Runtime &rt, TxDesc &d) override
    {
        for (;;) {
            TxDesc *owner = d.dom().toxic.load(std::memory_order_acquire);
            if (owner == nullptr || owner == &d)
                return;
            std::this_thread::yield();
        }
    }

    bool
    afterAbort(Runtime &rt, TxDesc &d) override
    {
        if (d.consecAborts >= rt.cfg().hourglassThreshold) {
            TxDesc *expected = nullptr;
            d.dom().toxic.compare_exchange_strong(expected, &d,
                                             std::memory_order_acq_rel);
            // If someone else already holds the neck we simply keep
            // retrying; beforeBegin will stall us until they commit.
        }
        return false;
    }

    void
    afterCommit(Runtime &rt, TxDesc &d) override
    {
        // Only the neck's owner releases it. Even a failing CAS takes
        // the line exclusive, so every other commit just loads it.
        TxDesc *expected = &d;
        if (d.dom().toxic.load(std::memory_order_acquire) == &d) {
            d.dom().toxic.compare_exchange_strong(
                expected, nullptr, std::memory_order_acq_rel);
        }
    }
};

NoCm gNoCm;
BackoffCm gBackoffCm;
SerialAfterNCm gSerialAfterNCm;
HourglassCm gHourglassCm;

} // namespace

ContentionManager &noCm() { return gNoCm; }
ContentionManager &backoffCm() { return gBackoffCm; }
ContentionManager &hourglassCm() { return gHourglassCm; }
ContentionManager &serialAfterNCm() { return gSerialAfterNCm; }

ContentionManager &
cmFor(CmKind kind)
{
    switch (kind) {
      case CmKind::NoCM:
        return gNoCm;
      case CmKind::Backoff:
        return gBackoffCm;
      case CmKind::Hourglass:
        return gHourglassCm;
      case CmKind::SerialAfterN:
        return gSerialAfterNCm;
    }
    return gSerialAfterNCm;
}

} // namespace tmemc::tm
