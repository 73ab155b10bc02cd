/**
 * @file oracle.hh
 * The flat architectural oracle: what every op of a stream must do
 * architecturally, from a plain byte + security-mask map per line with
 * no caches, cores or timing. Loads read blacklisted bytes as 0; a load
 * or store faults iff it touches a security byte (a faulting store does
 * not commit); a CFORM faults iff mask & ~(setBits ^ lineMask) is
 * non-zero (Table 1) and otherwise sets or clears the selected bytes,
 * zeroing their data. Every fault is precise: the lowest faulting byte.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "sim/machine.hh"
#include "sim/trace.hh"

namespace perfbench
{

using namespace califorms;

/** The architectural outcome of one op. */
struct Outcome
{
    std::uint64_t value = 0; //!< loads only
    /** Faults raised, in order (a line-crossing access can raise two). */
    std::array<CaliformsException, 2> faults{};
    unsigned faultCount = 0;
};

class FlatOracle
{
  public:
    /** Apply @p op to the map and return what the machine must report. */
    Outcome step(const TraceOp &op);

  private:
    struct Line
    {
        std::array<std::uint8_t, lineBytes> data{};
        SecurityMask mask = 0;
    };

    /** One line-contained part of a load or store. */
    void access(Addr addr, unsigned size, bool is_store,
                std::uint64_t value, Outcome &out, unsigned shift);

    std::unordered_map<Addr, Line> lines_;
};

/**
 * Checks a machine op by op against the oracle: a replayObserved
 * observer. An op fails when its loaded value, or the faults the
 * machine delivered for it (address, kind, reason), disagree with the
 * oracle; intended Califorms exceptions are expected, not failures.
 */
class OracleCheck
{
  public:
    explicit OracleCheck(const Machine &machine);

    void beforeNext() {}
    void beforeOp(unsigned core, const TraceOp &op);
    void afterOp(unsigned core, const TraceOp &op, std::uint64_t value);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    const Machine &machine_;
    FlatOracle oracle_;
    Outcome expected_;
    std::size_t delivered_ = 0;
    std::size_t suppressed_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
