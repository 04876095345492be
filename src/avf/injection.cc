#include "avf/injection.hh"

#include <array>
#include <unordered_set>

#include "base/logging.hh"

namespace smtavf
{

const std::vector<CommitRecord> &
CommitTrace::records() const
{
    if (!finalized_)
        SMTAVF_PANIC("commit trace read before finalize()");
    return records_;
}

InjectionCampaign::InjectionCampaign(const CommitTrace &trace,
                                     std::size_t max_depth)
    : trace_(trace), maxDepth_(max_depth)
{
    if (max_depth == 0)
        SMTAVF_FATAL("injection propagation window must be positive");
}

InjectionOutcome
InjectionCampaign::injectAt(std::size_t origin) const
{
    const auto &recs = trace_.records();
    if (origin >= recs.size())
        SMTAVF_PANIC("injection origin beyond the trace");
    const auto &o = recs[origin];
    if (o.destReg == invalidReg || isZeroReg(o.destReg))
        return InjectionOutcome::Skipped;

    // Taint state. Address spaces are per-thread, so propagation stays
    // inside the origin's thread (cross-thread sharing would need shared
    // memory, which the multiprogrammed mixes do not have).
    std::array<bool, numArchRegs> tainted_reg{};
    tainted_reg[o.destReg] = true;
    unsigned tainted_regs = 1;
    std::unordered_set<Addr> tainted_mem; // word-granular (4 bytes)

    auto mem_words = [](Addr addr, std::uint8_t size,
                        auto &&fn) {
        for (Addr a = addr & ~Addr{3}; a < addr + size; a += 4)
            fn(a);
    };

    std::size_t seen = 0;
    for (std::size_t j = origin + 1;
         j < recs.size() && seen < maxDepth_; ++j) {
        const auto &r = recs[j];
        if (r.tid != o.tid)
            continue;
        ++seen;

        bool src_taint =
            (r.srcReg1 != invalidReg && tainted_reg[r.srcReg1]) ||
            (r.srcReg2 != invalidReg && tainted_reg[r.srcReg2]);

        switch (r.op) {
          case OpClass::Load: {
            // Corrupted address: the access goes somewhere else entirely.
            if (r.srcReg1 != invalidReg && tainted_reg[r.srcReg1])
                return InjectionOutcome::Corrupted;
            bool mem_taint = false;
            mem_words(r.memAddr, r.memSize, [&](Addr a) {
                mem_taint |= tainted_mem.count(a) != 0;
            });
            src_taint = mem_taint;
            break;
          }

          case OpClass::Store: {
            if (r.srcReg1 != invalidReg && tainted_reg[r.srcReg1])
                return InjectionOutcome::Corrupted; // address corruption
            bool data_taint =
                r.srcReg2 != invalidReg && tainted_reg[r.srcReg2];
            mem_words(r.memAddr, r.memSize, [&](Addr a) {
                if (data_taint)
                    tainted_mem.insert(a);
                else
                    tainted_mem.erase(a); // overwrite kills memory taint
            });
            break;
          }

          case OpClass::BranchCond:
            if (src_taint)
                return InjectionOutcome::Corrupted; // control divergence
            break;

          default:
            break;
        }

        // Destination update: propagate or kill.
        if (r.destReg != invalidReg && !isZeroReg(r.destReg)) {
            bool was = tainted_reg[r.destReg];
            bool now = src_taint;
            if (was != now) {
                tainted_reg[r.destReg] = now;
                tainted_regs += now ? 1 : -1;
            }
        }

        if (tainted_regs == 0 && tainted_mem.empty())
            return InjectionOutcome::Masked;
    }

    // Taint alive at the end of the window: visible architectural state
    // differs, so count it as corruption (conservative).
    return InjectionOutcome::Corrupted;
}

} // namespace smtavf
