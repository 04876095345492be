#include "avf/dead_code.hh"

#include "avf/injection.hh"
#include "base/logging.hh"

namespace smtavf
{

DeadCodeAnalyzer::DeadCodeAnalyzer(unsigned num_threads, AvfLedger &ledger,
                                   bool enabled)
    : ledger_(ledger), enabled_(enabled), pending_(num_threads)
{
}

void
DeadCodeAnalyzer::forward(ThreadId tid, const Residency &r, bool ace)
{
    ledger_.addInterval(HwStruct::IQ, tid, bits::iqEntry, r.dispatch,
                        r.iqEnd, ace);
    if (r.fuEnd != r.iqEnd)
        ledger_.addInterval(HwStruct::FU, tid, bits::fuLatch, r.iqEnd,
                            r.fuEnd, ace);
    ledger_.addInterval(HwStruct::ROB, tid, bits::robEntry, r.dispatch,
                        r.close, ace);
    if (r.mem) {
        ledger_.addInterval(HwStruct::LsqTag, tid, bits::lsqTag, r.dispatch,
                            r.close, ace);
        ledger_.addInterval(HwStruct::LsqData, tid, bits::lsqData,
                            r.lsqDataStart, r.close, ace);
    }
}

void
DeadCodeAnalyzer::resolveLive(const DynInstr &in, const Residency &r)
{
    forward(in.tid, r, !in.neverAce());
    if (in.writesReg() && !in.neverAce())
        ++resolvedCount_;
}

void
DeadCodeAnalyzer::resolve(Producer &p, bool dead)
{
    forward(p.tid, p.residency, !dead && p.ace);
    if (p.ace) {
        ++resolvedCount_;
        if (dead)
            ++deadCount_;
    }
    if (dead && trace_ && p.traceIdx != noRecord)
        trace_->markDead(p.traceIdx);
    p.parked = false;
}

bool
DeadCodeAnalyzer::onCommit(const DynInstr &in, const Residency &r)
{
    auto &slots = pending_.at(in.tid);
    std::size_t trace_idx = trace_ ? trace_->append(in) : noRecord;

    // Reads first: a committed consumer proves its producer live. An
    // instruction that reads and rewrites the same register (common) must
    // count the read before displacing the producer.
    for (RegIndex src : {in.srcReg1, in.srcReg2}) {
        if (src != invalidReg && slots[src].parked)
            resolve(slots[src], false);
    }

    if (!in.writesReg() || !enabled_) {
        resolveLive(in, r);
        return false;
    }

    Producer &prev = slots[in.destReg];
    bool exposed_dead = prev.parked;
    if (exposed_dead)
        resolve(prev, true);
    prev.residency = r;
    prev.traceIdx = trace_idx;
    prev.tid = in.tid;
    prev.ace = !in.neverAce();
    prev.parked = true;
    return exposed_dead;
}

void
DeadCodeAnalyzer::onSquash(const DynInstr &in, const Residency &r)
{
    if (!in.squashed && !in.wrongPath)
        SMTAVF_PANIC("onSquash() for a non-squashed instruction");
    resolveLive(in, r); // neverAce() forces the intervals un-ACE
}

void
DeadCodeAnalyzer::finish()
{
    for (auto &slots : pending_)
        for (Producer &p : slots)
            if (p.parked)
                resolve(p, false);
}

} // namespace smtavf
