/**
 * @file exception_unit.hh
 * Privileged exception delivery and whitelisting (Sections 4.2 and 6.3).
 *
 * Califorms exceptions are privileged and precise. Library functions that
 * legitimately sweep over security bytes (memcpy-style) are whitelisted
 * by raising the exception mask before entering them and lowering it
 * after; while masked, exceptions are recorded as suppressed instead of
 * delivered. The unit keeps full logs of both so tests and the security
 * benches can audit every event.
 */

#ifndef CALIFORMS_OS_EXCEPTION_UNIT_HH
#define CALIFORMS_OS_EXCEPTION_UNIT_HH

#include <cstddef>
#include <vector>

#include "core/exception.hh"

namespace califorms
{

/**
 * The kernel-side view of Califorms exceptions: delivery policy, mask
 * register, and audit logs.
 */
class ExceptionUnit
{
  public:
    /** What delivery does when an exception is not suppressed. */
    enum class Policy
    {
        Record,    //!< log and continue (continuous monitoring mode)
        Terminate, //!< log and mark the "process" as killed
    };

    explicit ExceptionUnit(Policy policy = Policy::Record)
        : policy_(policy)
    {}

    /**
     * Raise an exception. Returns true if it was delivered, false if the
     * exception mask suppressed it.
     */
    bool raise(const CaliformsException &e);

    /** Raise the exception mask (enter a whitelisted window). Nestable. */
    void maskExceptions() { ++mask_depth_; }
    /** Lower the exception mask. */
    void unmaskExceptions();
    bool masked() const { return mask_depth_ > 0; }

    /** True once a Terminate-policy exception has been delivered. */
    bool terminated() const { return terminated_; }

    void setPolicy(Policy p) { policy_ = p; }

    const std::vector<CaliformsException> &delivered() const
    {
        return delivered_;
    }
    const std::vector<CaliformsException> &suppressed() const
    {
        return suppressed_;
    }
    std::size_t deliveredCount() const { return delivered_.size(); }
    std::size_t suppressedCount() const { return suppressed_.size(); }

    /** Forget all recorded exceptions (keeps mask state). */
    void clearLogs();

  private:
    Policy policy_;
    unsigned mask_depth_ = 0;
    bool terminated_ = false;
    std::vector<CaliformsException> delivered_;
    std::vector<CaliformsException> suppressed_;
};

/**
 * RAII whitelist window: masks Califorms exceptions for the lifetime of
 * the guard, modeling the privileged stores that bracket whitelisted
 * functions like memcpy (Section 6.3).
 */
class WhitelistGuard
{
  public:
    explicit WhitelistGuard(ExceptionUnit &unit) : unit_(unit)
    {
        unit_.maskExceptions();
    }
    ~WhitelistGuard() { unit_.unmaskExceptions(); }

    WhitelistGuard(const WhitelistGuard &) = delete;
    WhitelistGuard &operator=(const WhitelistGuard &) = delete;

  private:
    ExceptionUnit &unit_;
};

} // namespace califorms

#endif // CALIFORMS_OS_EXCEPTION_UNIT_HH
