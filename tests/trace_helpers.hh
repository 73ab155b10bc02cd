/**
 * @file trace_helpers.hh
 * In-memory traces for tests, over the streaming trace API: read a
 * whole stream of either format into a Trace, and replay a Trace
 * through the one replay loop.
 */

#ifndef CALIFORMS_TESTS_TRACE_HELPERS_HH
#define CALIFORMS_TESTS_TRACE_HELPERS_HH

#include <istream>

#include "sim/trace.hh"

namespace califorms
{

/** Every op of @p is, format auto-detected by openTraceReader. */
inline Trace
readAll(std::istream &is)
{
    const auto reader = openTraceReader(is);
    Trace trace;
    TraceOp op;
    while (reader->next(op))
        trace.push_back(op);
    return trace;
}

/** Yields the ops of an in-memory trace. */
class VectorTraceReader final : public TraceReader
{
  public:
    explicit VectorTraceReader(const Trace &trace) : trace_(trace) {}

    bool
    next(TraceOp &op) override
    {
        if (next_ == trace_.size())
            return false;
        op = trace_[next_++];
        return true;
    }

  private:
    const Trace &trace_;
    std::size_t next_ = 0;
};

/** Replay @p trace on core 0; returns the loads' value XOR. */
inline std::uint64_t
runTrace(Machine &machine, const Trace &trace)
{
    VectorTraceReader reader(trace);
    return runTrace(machine, reader);
}

} // namespace califorms

#endif // CALIFORMS_TESTS_TRACE_HELPERS_HH
