#include "sim/invariants.hh"

#include <cstdint>
#include <sstream>
#include <vector>

#include "avf/ledger.hh"
#include "core/smt_core.hh"
#include "sim/errors.hh"

namespace smtavf
{

namespace
{

[[noreturn]] void
violated(const SmtCore &core, Cycle now, const char *invariant,
         const std::string &detail)
{
    throw InvariantError(invariant, now, detail, core.stateDump());
}

/**
 * Ownership tags for every physical register, used to prove the exact
 * partition  allocated = free + mapped + displaced  with no overlaps.
 */
enum class RegOwner : std::uint8_t { None, Free, Mapped, Displaced };

const char *
ownerName(RegOwner o)
{
    switch (o) {
      case RegOwner::None:
        return "unowned";
      case RegOwner::Free:
        return "free";
      case RegOwner::Mapped:
        return "rename-mapped";
      case RegOwner::Displaced:
        return "displaced-by-in-flight";
    }
    return "?";
}

void
checkRegfile(const SmtCore &core, Cycle now)
{
    const PhysRegFile &rf = core.regfileRef();
    const MachineConfig &cfg = core.config();
    const std::uint32_t total = rf.numInt() + rf.numFp();
    std::vector<RegOwner> owner(total, RegOwner::None);

    // --- regfile.freelist -----------------------------------------------
    for (bool fp : {false, true}) {
        const auto &list = rf.freeList(fp);
        const std::uint32_t count = fp ? rf.freeFp() : rf.freeInt();
        const char *bank = fp ? "fp" : "int";
        if (list.size() != count)
            violated(core, now, "regfile.freelist",
                     detail::concat(bank, " free list holds ", list.size(),
                                    " entries but the free counter says ",
                                    count));
        const RegIndex lo = fp ? static_cast<RegIndex>(rf.numInt()) : 0;
        const RegIndex hi = fp ? static_cast<RegIndex>(total)
                               : static_cast<RegIndex>(rf.numInt());
        for (RegIndex phys : list) {
            if (phys < lo || phys >= hi)
                violated(core, now, "regfile.freelist",
                         detail::concat(bank, " free list entry ", phys,
                                        " outside bank range [", lo, ", ",
                                        hi, ")"));
            if (owner[phys] != RegOwner::None)
                violated(core, now, "regfile.freelist",
                         detail::concat("register ", phys,
                                        " listed free twice"));
            if (rf.isAllocated(phys))
                violated(core, now, "regfile.freelist",
                         detail::concat("register ", phys,
                                        " is on the ", bank,
                                        " free list but marked allocated"));
            owner[phys] = RegOwner::Free;
        }
    }

    // --- rename.mapping + claim of mapped registers ----------------------
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        const RenameMap &map = core.renameMap(tid);
        for (RegIndex arch = 0; arch < numArchRegs; ++arch) {
            RegIndex phys = map.lookup(arch);
            if (phys == invalidReg)
                continue;
            if (phys < 0 || static_cast<std::uint32_t>(phys) >= total)
                violated(core, now, "rename.mapping",
                         detail::concat("T", t, " arch ", arch,
                                        " maps to out-of-range physical ",
                                        phys));
            bool arch_fp = isFpReg(arch);
            bool phys_fp = static_cast<std::uint32_t>(phys) >= rf.numInt();
            if (arch_fp != phys_fp)
                violated(core, now, "rename.mapping",
                         detail::concat("T", t, " arch ", arch,
                                        " maps across banks to physical ",
                                        phys));
            if (!rf.isAllocated(phys))
                violated(core, now, "rename.mapping",
                         detail::concat("T", t, " arch ", arch,
                                        " maps to unallocated physical ",
                                        phys));
            if (owner[phys] != RegOwner::None)
                violated(core, now, "regfile.conservation",
                         detail::concat("physical ", phys, " is ",
                                        ownerName(owner[phys]),
                                        " and also mapped by T", t,
                                        " arch ", arch));
            owner[phys] = RegOwner::Mapped;
        }
    }

    // --- claim of displaced old mappings held by in-flight instructions --
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        for (const auto &in : core.rob(tid)) {
            RegIndex old = in->oldDestPhys;
            if (old == invalidReg)
                continue;
            if (old < 0 || static_cast<std::uint32_t>(old) >= total)
                violated(core, now, "regfile.conservation",
                         detail::concat("T", t, " seq ", in->seq,
                                        " holds out-of-range displaced ",
                                        "register ", old));
            if (!rf.isAllocated(old))
                violated(core, now, "regfile.conservation",
                         detail::concat("T", t, " seq ", in->seq,
                                        " holds unallocated displaced ",
                                        "register ", old));
            if (owner[old] != RegOwner::None)
                violated(core, now, "regfile.conservation",
                         detail::concat("physical ", old, " is ",
                                        ownerName(owner[old]),
                                        " and also displaced by T", t,
                                        " seq ", in->seq));
            owner[old] = RegOwner::Displaced;
        }
    }

    // --- regfile.conservation: nothing is left unaccounted ---------------
    for (std::uint32_t p = 0; p < total; ++p) {
        if (owner[p] == RegOwner::None && !rf.isAllocated(p))
            violated(core, now, "regfile.conservation",
                     detail::concat("physical ", p,
                                    " is neither free, mapped, displaced, ",
                                    "nor marked allocated"));
        if (owner[p] == RegOwner::None && rf.isAllocated(p))
            violated(core, now, "regfile.conservation",
                     detail::concat("physical ", p, " is allocated but ",
                                    "unreachable from any rename map or ",
                                    "in-flight instruction (leak)"));
    }
}

void
checkRob(const SmtCore &core, Cycle now)
{
    const MachineConfig &cfg = core.config();
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        const Rob &rob = core.rob(tid);
        if (rob.size() > rob.capacity())
            violated(core, now, "rob.order",
                     detail::concat("T", t, " ROB holds ", rob.size(),
                                    " entries, capacity ", rob.capacity()));
        SeqNum prev = 0;
        bool first = true;
        for (const auto &in : rob) {
            if (in->tid != tid)
                violated(core, now, "rob.order",
                         detail::concat("T", t, " ROB holds seq ", in->seq,
                                        " of thread ", in->tid));
            if (!first && in->seq <= prev)
                violated(core, now, "rob.order",
                         detail::concat("T", t, " ROB out of program ",
                                        "order: seq ", in->seq, " after ",
                                        prev));
            prev = in->seq;
            first = false;
        }
    }
}

void
checkIq(const SmtCore &core, Cycle now)
{
    const MachineConfig &cfg = core.config();
    const IssueQueue &iq = core.issueQueue();
    if (iq.size() > iq.capacity())
        violated(core, now, "iq.occupancy",
                 detail::concat("issue queue holds ", iq.size(),
                                " entries, capacity ", iq.capacity()));

    std::vector<unsigned> per_thread(cfg.contexts, 0);
    SeqNum prev = 0;
    bool first = true;
    for (const auto &in : iq) {
        if (in->tid >= cfg.contexts)
            violated(core, now, "iq.occupancy",
                     detail::concat("issue-queue entry from unknown ",
                                    "thread ", in->tid));
        if (!in->inIq || in->squashed)
            violated(core, now, "iq.occupancy",
                     detail::concat("T", in->tid, " seq ", in->seq,
                                    " resident with inIq=", in->inIq,
                                    " squashed=", in->squashed));
        if (!first && in->globalSeq <= prev)
            violated(core, now, "iq.occupancy",
                     detail::concat("issue queue out of dispatch order: ",
                                    "globalSeq ", in->globalSeq, " after ",
                                    prev));
        prev = in->globalSeq;
        first = false;
        ++per_thread[in->tid];
    }

    unsigned sum = 0;
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        unsigned counted =
            core.structOccupancy(HwStruct::IQ, static_cast<ThreadId>(t));
        if (per_thread[t] != counted)
            violated(core, now, "iq.occupancy",
                     detail::concat("T", t, " occupancy counter says ",
                                    counted, " but ", per_thread[t],
                                    " entries are queued"));
        if (cfg.iqPartitioned &&
            per_thread[t] > cfg.iqSize / cfg.contexts)
            violated(core, now, "iq.occupancy",
                     detail::concat("T", t, " holds ", per_thread[t],
                                    " entries over its static partition ",
                                    "of ", cfg.iqSize / cfg.contexts));
        sum += per_thread[t];
    }
    if (sum != iq.size())
        violated(core, now, "iq.occupancy",
                 detail::concat("per-thread occupancies sum to ", sum,
                                " but the queue holds ", iq.size()));
}

void
checkWakeupKeys(const SmtCore &core, Cycle now)
{
    const IssueQueue &iq = core.issueQueue();
    for (std::uint32_t pos = 0; pos < iq.size(); ++pos) {
        const DynInstr *in = iq.at(pos);
        IssueQueue::WakeupKeys k = iq.keysAt(pos);
        RegIndex want2 =
            in->op == OpClass::Store ? invalidReg : in->srcPhys2;
        if (k.src1 != in->srcPhys1 || k.src2 != want2)
            violated(core, now, "iq.keys",
                     detail::concat("T", in->tid, " seq ", in->seq,
                                    " at IQ position ", pos, " has keys (",
                                    k.src1, ", ", k.src2,
                                    ") but sources (", in->srcPhys1, ", ",
                                    want2, ")"));
    }

    // The ready table against each register's producer: a value is
    // written once its in-flight producer completes, and every other
    // allocated register was written by a producer that committed.
    const PhysRegFile &rf = core.regfileRef();
    const std::uint32_t total = rf.numInt() + rf.numFp();
    std::vector<const DynInstr *> producer(total, nullptr);
    for (unsigned t = 0; t < core.config().contexts; ++t)
        for (const DynInstr *in : core.rob(static_cast<ThreadId>(t)))
            if (in->destPhys != invalidReg)
                producer[in->destPhys] = in;
    if (!rf.isReady(invalidReg))
        violated(core, now, "iq.keys",
                 "the ready table's no-register entry reads not ready");
    for (std::uint32_t p = 0; p < total; ++p) {
        auto phys = static_cast<RegIndex>(p);
        bool want = rf.isAllocated(phys) &&
                    (!producer[p] || producer[p]->completed);
        if (rf.isReady(phys) != want)
            violated(core, now, "iq.keys",
                     detail::concat("physical ", p, " reads ",
                                    rf.isReady(phys) ? "ready" : "not ready",
                                    " but is ",
                                    !rf.isAllocated(phys) ? "free"
                                    : producer[p] ? "produced in flight"
                                                  : "committed",
                                    producer[p] && producer[p]->completed
                                        ? " (completed)"
                                        : ""));
    }
}

void
checkLsq(const SmtCore &core, Cycle now)
{
    const MachineConfig &cfg = core.config();
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        const Lsq &lsq = core.lsq(tid);
        if (lsq.size() > lsq.capacity())
            violated(core, now, "lsq.order",
                     detail::concat("T", t, " LSQ holds ", lsq.size(),
                                    " entries, capacity ", lsq.capacity()));
        SeqNum prev = 0;
        bool first = true;
        for (const auto &in : lsq) {
            if (!in->isMem())
                violated(core, now, "lsq.order",
                         detail::concat("T", t, " LSQ holds non-memory ",
                                        opClassName(in->op), " seq ",
                                        in->seq));
            if (!first && in->seq <= prev)
                violated(core, now, "lsq.order",
                         detail::concat("T", t, " LSQ out of program ",
                                        "order: seq ", in->seq, " after ",
                                        prev));
            prev = in->seq;
            first = false;
        }

        // --- lsq.disambiguation: nothing unissued hides before the cursor
        if (lsq.cursor() > lsq.size())
            violated(core, now, "lsq.disambiguation",
                     detail::concat("T", t, " LSQ cursor ", lsq.cursor(),
                                    " past its ", lsq.size(), " entries"));
        std::size_t pos = 0;
        for (const auto &in : lsq) {
            if (pos++ >= lsq.cursor())
                break;
            if (in->op == OpClass::Store && !in->issued)
                violated(core, now, "lsq.disambiguation",
                         detail::concat("T", t, " unissued store seq ",
                                        in->seq, " at LSQ position ",
                                        pos - 1, " lies before the cursor ",
                                        lsq.cursor()));
        }
    }
}

void
checkSlots(const SmtCore &core, Cycle now)
{
    const InstrSlots &slots = core.slots();
    const std::size_t cap = slots.capacity();
    enum : std::uint8_t { Unseen, Free, Fetched, InRob };
    std::vector<std::uint8_t> state(cap, Unseen);

    std::size_t free_count = 0;
    for (const DynInstr *f = slots.freeHead(); f; f = f->completionNext) {
        std::size_t i = slots.indexOf(f);
        if (i == cap || state[i] != Unseen)
            violated(core, now, "slots.ownership",
                     i == cap ? std::string("free list leaves the slot array")
                              : detail::concat("slot ", i,
                                               " is on the free list twice"));
        state[i] = Free;
        ++free_count;
    }
    if (free_count + slots.live() != cap)
        violated(core, now, "slots.ownership",
                 detail::concat(free_count, " free + ", slots.live(),
                                " live slots != capacity ", cap));

    // Fetch queues and ROBs own the live slots, each exactly once.
    std::size_t held = 0;
    auto own = [&](const DynInstr *in, const char *where, std::uint8_t mark) {
        std::size_t i = slots.indexOf(in);
        if (i == cap || state[i] != Unseen)
            violated(core, now, "slots.ownership",
                     detail::concat(where, " holds ",
                                    i == cap ? "a foreign handle"
                                    : state[i] == Free ? "a free slot"
                                                       : "a slot held twice",
                                    " (slot ", i, ")"));
        state[i] = mark;
        ++held;
    };
    // The IQ, LSQs and completion wheel only refer to ROB residents.
    auto in_rob = [&](const DynInstr *in, const char *where) {
        std::size_t i = slots.indexOf(in);
        if (i == cap || state[i] != InRob)
            violated(core, now, "slots.ownership",
                     detail::concat(where, " holds slot ", i,
                                    ", which no ROB holds"));
    };
    const unsigned n = core.config().contexts;
    for (unsigned t = 0; t < n; ++t) {
        auto tid = static_cast<ThreadId>(t);
        core.forEachFetched(tid, [&](const DynInstr *in) {
            own(in, "fetch queue", Fetched);
        });
        for (const DynInstr *in : core.rob(tid))
            own(in, "ROB", InRob);
    }
    if (held != slots.live())
        violated(core, now, "slots.ownership",
                 detail::concat(slots.live(), " live slots but only ", held,
                                " reachable from fetch queues and ROBs"));
    for (const DynInstr *in : core.issueQueue())
        in_rob(in, "issue queue");
    for (unsigned t = 0; t < n; ++t)
        for (const DynInstr *in : core.lsq(static_cast<ThreadId>(t)))
            in_rob(in, "LSQ");
    core.forEachScheduled(
        [&](const DynInstr *in) { in_rob(in, "completion wheel"); });
}

void
checkLedger(const SmtCore &core, const AvfLedger &ledger, Cycle now)
{
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        std::uint64_t bits = ledger.structureBits(s);
        if (bits == 0)
            continue;
        std::uint64_t occupied =
            ledger.aceBitCycles(s) + ledger.unAceBitCycles(s);
        std::uint64_t capacity = bits * now;
        if (occupied > capacity)
            violated(core, now, "ledger.accounting",
                     detail::concat(hwStructName(s), " accounts ",
                                    occupied, " occupied bit-cycles but ",
                                    "only ", capacity,
                                    " existed (bits ", bits, " x ", now,
                                    " cycles)"));

        // Protection partition: the covered and residual tallies are
        // accumulated independently of the ACE total, so their sum
        // conserving against it (per thread, hence in aggregate) is a
        // real cross-check of the coverage math, not a tautology. An
        // unprotected structure must show zero covered bit-cycles.
        for (unsigned t = 0; t < ledger.numThreads(); ++t) {
            auto tid = static_cast<ThreadId>(t);
            std::uint64_t ace = ledger.aceBitCycles(s, tid);
            std::uint64_t covered = ledger.coveredAceBitCycles(s, tid);
            std::uint64_t residual = ledger.residualAceBitCycles(s, tid);
            if (covered + residual != ace)
                violated(core, now, "ledger.protection",
                         detail::concat(hwStructName(s), " T", t,
                                        ": covered ", covered,
                                        " + residual ", residual,
                                        " != ACE total ", ace));
            if (ledger.protection().schemeFor(s) == ProtScheme::None &&
                covered != 0)
                violated(core, now, "ledger.protection",
                         detail::concat(hwStructName(s), " T", t,
                                        " is unprotected but shows ",
                                        covered, " covered bit-cycles"));
        }
    }
}

} // namespace

void
checkInvariants(const SmtCore &core, const AvfLedger &ledger, Cycle now)
{
    checkRegfile(core, now);
    checkRob(core, now);
    checkIq(core, now);
    checkWakeupKeys(core, now);
    checkLsq(core, now);
    checkSlots(core, now);
    checkLedger(core, ledger, now);
}

void
checkSlotsReleased(const SmtCore &core, Cycle now)
{
    checkSlots(core, now);
    if (core.slots().live() != 0)
        violated(core, now, "slots.ownership",
                 detail::concat(core.slots().live(),
                                " slots still live where nothing may be ",
                                "in flight"));
}

} // namespace smtavf
