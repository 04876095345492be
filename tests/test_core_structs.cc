/**
 * @file
 * Unit tests for rename map, ROB, IQ, LSQ, register file readiness and FU
 * pool, with seeded differential tests of the issue stage's compact
 * state (IQ wakeup keys, the LSQ cursor, the dense ready table) against
 * reference models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>

#include "avf/ledger.hh"
#include "ckpt/serializer.hh"
#include "core/fu_pool.hh"
#include "core/iq.hh"
#include "core/lsq.hh"
#include "core/regfile.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

/** A fresh instruction in storage that outlives every queue under test. */
DynInstr *
makeInstr(ThreadId tid, SeqNum seq, OpClass op = OpClass::IntAlu)
{
    static std::deque<DynInstr> storage;
    DynInstr *in = &storage.emplace_back();
    in->tid = tid;
    in->seq = seq;
    in->globalSeq = seq;
    in->op = op;
    return in;
}

// ---- rename ---------------------------------------------------------------

TEST(RenameMapTest, UnmappedLookupIsInvalid)
{
    RenameMap m;
    EXPECT_EQ(m.lookup(5), invalidReg);
    EXPECT_EQ(m.lookup(invalidReg), invalidReg);
}

TEST(RenameMapTest, ZeroRegistersNeverMap)
{
    RenameMap m;
    m.set(0, 17);
    EXPECT_EQ(m.lookup(0), invalidReg);
    EXPECT_EQ(m.lookup(numArchIntRegs), invalidReg);
}

TEST(RenameMapTest, SetReturnsDisplacedMapping)
{
    RenameMap m;
    EXPECT_EQ(m.set(5, 100), invalidReg);
    EXPECT_EQ(m.set(5, 101), 100);
    EXPECT_EQ(m.lookup(5), 101);
}

TEST(RenameMapTest, WalkBackRecovery)
{
    RenameMap m;
    m.set(5, 100);
    auto old = m.set(5, 101); // speculative
    m.set(5, old);            // squash walk-back
    EXPECT_EQ(m.lookup(5), 100);
}

TEST(RenameMapTest, BadRegisterPanics)
{
    ThrowGuard guard;
    RenameMap m;
    EXPECT_THROW(m.lookup(numArchRegs), SimError);
    EXPECT_THROW(m.set(-2, 3), SimError);
}

// ---- ROB -------------------------------------------------------------------

TEST(RobTest, InOrderPushPop)
{
    Rob rob(4);
    auto a = makeInstr(0, 1);
    auto b = makeInstr(0, 2);
    rob.push(a);
    rob.push(b);
    EXPECT_EQ(rob.front(), a);
    rob.popFront();
    EXPECT_EQ(rob.front(), b);
}

TEST(RobTest, FullAndCapacity)
{
    Rob rob(2);
    rob.push(makeInstr(0, 1));
    EXPECT_FALSE(rob.full());
    rob.push(makeInstr(0, 2));
    EXPECT_TRUE(rob.full());
    ThrowGuard guard;
    EXPECT_THROW(rob.push(makeInstr(0, 3)), SimError);
}

TEST(RobTest, OutOfOrderPushPanics)
{
    ThrowGuard guard;
    Rob rob(4);
    rob.push(makeInstr(0, 5));
    EXPECT_THROW(rob.push(makeInstr(0, 5)), SimError);
    EXPECT_THROW(rob.push(makeInstr(0, 4)), SimError);
}

TEST(RobTest, SquashAfterWalksYoungestFirst)
{
    Rob rob(8);
    for (SeqNum s = 1; s <= 5; ++s)
        rob.push(makeInstr(0, s));
    std::vector<SeqNum> squashed;
    rob.squashAfter(2, [&](DynInstr *in) {
        squashed.push_back(in->seq);
    });
    EXPECT_EQ(squashed, (std::vector<SeqNum>{5, 4, 3}));
    EXPECT_EQ(rob.size(), 2u);
}

TEST(RobTest, EmptyFrontIsNull)
{
    Rob rob(2);
    EXPECT_EQ(rob.front(), nullptr);
    ThrowGuard guard;
    EXPECT_THROW(rob.popFront(), SimError);
}

// ---- IQ --------------------------------------------------------------------

TEST(IqTest, CapacityAndFreeSlots)
{
    IssueQueue iq(3);
    EXPECT_EQ(iq.freeSlots(), 3u);
    iq.insert(makeInstr(0, 1));
    EXPECT_EQ(iq.freeSlots(), 2u);
    EXPECT_FALSE(iq.full());
}

TEST(IqTest, InsertSetsInIqFlag)
{
    IssueQueue iq(4);
    auto in = makeInstr(0, 1);
    iq.insert(in);
    EXPECT_TRUE(in->inIq);
    iq.remove(in);
    EXPECT_FALSE(in->inIq);
    EXPECT_EQ(iq.size(), 0u);
}

TEST(IqTest, RemoveUnknownPanics)
{
    ThrowGuard guard;
    IssueQueue iq(4);
    EXPECT_THROW(iq.remove(makeInstr(0, 1)), SimError);
}

TEST(IqTest, IterationIsAgeOrdered)
{
    IssueQueue iq(8);
    iq.insert(makeInstr(0, 1));
    iq.insert(makeInstr(1, 2));
    iq.insert(makeInstr(0, 3));
    SeqNum prev = 0;
    for (const auto &in : iq) {
        EXPECT_GT(in->globalSeq, prev);
        prev = in->globalSeq;
    }
}

TEST(IqTest, StoresWaitOnTheirAddressOperandOnly)
{
    IssueQueue iq(4);
    auto add = makeInstr(0, 1);
    add->srcPhys1 = 3;
    add->srcPhys2 = 4;
    auto store = makeInstr(0, 2, OpClass::Store);
    store->srcPhys1 = 5;
    store->srcPhys2 = 6;
    iq.insert(add);
    iq.insert(store);
    EXPECT_EQ(iq.keysAt(0).src1, 3);
    EXPECT_EQ(iq.keysAt(0).src2, 4);
    EXPECT_EQ(iq.keysAt(1).src1, 5);
    EXPECT_EQ(iq.keysAt(1).src2, invalidReg);

    // Ready table indexed by physical register, -1 (invalidReg) ready.
    std::uint8_t table[8] = {1, 0, 0, 0, 0, 1, 0, 0}; // only 4 written
    const std::uint8_t *ready = table + 1;
    std::uint32_t pos[4];
    EXPECT_EQ(iq.wakeup(ready, pos), 0u); // 3 and 5 unwritten
    table[3 + 1] = 1;
    table[5 + 1] = 1;
    ASSERT_EQ(iq.wakeup(ready, pos), 2u); // 6 never mattered to the store
    EXPECT_EQ(pos[0], 0u);
    EXPECT_EQ(pos[1], 1u);
}

/**
 * Seeded random insert / issue-mark / squash-remove / compaction
 * sequences against a plain vector model: survivors keep age order,
 * every entry's keys equal its srcPhys fields, and wakeup returns exactly
 * the entries whose keys a random ready table marks ready.
 */
TEST(IqTest, DifferentialAgainstVectorModel)
{
    constexpr RegIndex kRegs = 16;
    for (unsigned seed = 1; seed <= 20; ++seed) {
        std::mt19937 rng(seed);
        auto pick = [&](unsigned n) {
            return static_cast<unsigned>(rng() % n);
        };
        IssueQueue iq(12);
        std::vector<DynInstr *> model;
        SeqNum gseq = 0;
        for (int step = 0; step < 400; ++step) {
            unsigned what = pick(4);
            if (what == 0 && !iq.full()) {
                auto in = makeInstr(static_cast<ThreadId>(pick(4)),
                                    ++gseq,
                                    pick(4) ? OpClass::IntAlu
                                            : OpClass::Store);
                in->srcPhys1 = static_cast<RegIndex>(pick(kRegs + 1)) - 1;
                in->srcPhys2 = static_cast<RegIndex>(pick(kRegs + 1)) - 1;
                iq.insert(in);
                model.push_back(in);
            } else if (what == 1 && !model.empty()) {
                // A squash takes one entry out from the middle.
                DynInstr *victim = model[pick(model.size())];
                iq.remove(victim);
                model.erase(std::find(model.begin(), model.end(), victim));
                EXPECT_FALSE(victim->inIq);
            } else {
                // Issue-mark a random ascending subset, then compact.
                std::vector<std::uint32_t> pos;
                std::vector<DynInstr *> kept;
                for (std::uint32_t i = 0; i < model.size(); ++i) {
                    if (pick(3) == 0)
                        pos.push_back(i);
                    else
                        kept.push_back(model[i]);
                }
                std::vector<DynInstr *> gone;
                for (std::uint32_t p : pos)
                    gone.push_back(model[p]);
                iq.removeAt(pos.data(),
                            static_cast<std::uint32_t>(pos.size()));
                for (DynInstr *in : gone)
                    EXPECT_FALSE(in->inIq);
                model = kept;
            }

            ASSERT_EQ(iq.size(), model.size()) << "seed " << seed;
            std::vector<std::uint8_t> table(kRegs + 1);
            table[0] = 1;
            for (RegIndex r = 0; r < kRegs; ++r)
                table[r + 1] = static_cast<std::uint8_t>(pick(2));
            const std::uint8_t *ready = table.data() + 1;
            std::vector<std::uint32_t> woken;
            for (std::uint32_t i = 0; i < model.size(); ++i) {
                const DynInstr *in = model[i];
                ASSERT_EQ(iq.at(i), in) << "seed " << seed << " step "
                                        << step;
                EXPECT_TRUE(in->inIq);
                RegIndex want2 =
                    in->op == OpClass::Store ? invalidReg : in->srcPhys2;
                EXPECT_EQ(iq.keysAt(i).src1, in->srcPhys1);
                EXPECT_EQ(iq.keysAt(i).src2, want2);
                if (i > 0) {
                    EXPECT_LT(model[i - 1]->globalSeq, in->globalSeq);
                }
                if (ready[in->srcPhys1] && ready[want2])
                    woken.push_back(i);
            }
            std::vector<std::uint32_t> out(iq.capacity());
            std::uint32_t n = iq.wakeup(ready, out.data());
            out.resize(n);
            EXPECT_EQ(out, woken) << "seed " << seed << " step " << step;
        }
    }
}

// ---- LSQ -------------------------------------------------------------------

DynInstr *
makeMem(ThreadId tid, SeqNum seq, OpClass op, Addr addr, std::uint8_t size)
{
    auto in = makeInstr(tid, seq, op);
    in->memAddr = addr;
    in->memSize = size;
    return in;
}

TEST(LsqTest, RejectsNonMemInstr)
{
    ThrowGuard guard;
    Lsq lsq(4);
    EXPECT_THROW(lsq.push(makeInstr(0, 1, OpClass::IntAlu)), SimError);
}

TEST(LsqTest, LoadWaitsForOlderStoreIssue)
{
    Lsq lsq(8);
    auto store = makeMem(0, 1, OpClass::Store, 0x100, 4);
    auto load = makeMem(0, 2, OpClass::Load, 0x200, 4);
    lsq.push(store);
    lsq.push(load);
    EXPECT_FALSE(lsq.loadMayIssue(load));
    store->issued = true;
    EXPECT_TRUE(lsq.loadMayIssue(load));
}

TEST(LsqTest, ForwardingRequiresOverlap)
{
    Lsq lsq(8);
    auto store = makeMem(0, 1, OpClass::Store, 0x100, 4);
    store->issued = true;
    auto hit = makeMem(0, 2, OpClass::Load, 0x100, 4);
    auto partial = makeMem(0, 3, OpClass::Load, 0x102, 4);
    auto miss = makeMem(0, 4, OpClass::Load, 0x104, 4);
    lsq.push(store);
    lsq.push(hit);
    lsq.push(partial);
    lsq.push(miss);
    EXPECT_TRUE(lsq.canForward(hit));
    EXPECT_TRUE(lsq.canForward(partial)); // byte ranges intersect
    EXPECT_FALSE(lsq.canForward(miss));
}

TEST(LsqTest, YoungerStoresDoNotForwardBackwards)
{
    Lsq lsq(8);
    auto load = makeMem(0, 1, OpClass::Load, 0x100, 4);
    auto store = makeMem(0, 2, OpClass::Store, 0x100, 4);
    store->issued = true;
    lsq.push(load);
    lsq.push(store);
    EXPECT_FALSE(lsq.canForward(load));
    EXPECT_TRUE(lsq.loadMayIssue(load));
}

TEST(LsqTest, CommitMustBeOldest)
{
    ThrowGuard guard;
    Lsq lsq(8);
    auto a = makeMem(0, 1, OpClass::Load, 0x0, 4);
    auto b = makeMem(0, 2, OpClass::Load, 0x8, 4);
    lsq.push(a);
    lsq.push(b);
    EXPECT_THROW(lsq.popCommitted(b), SimError);
    lsq.popCommitted(a);
    lsq.popCommitted(b);
    EXPECT_EQ(lsq.size(), 0u);
}

TEST(LsqTest, SquashDropsYoungTail)
{
    Lsq lsq(8);
    for (SeqNum s = 1; s <= 4; ++s)
        lsq.push(makeMem(0, s, OpClass::Load, s * 8, 4));
    lsq.squashAfter(2);
    EXPECT_EQ(lsq.size(), 2u);
}

/** Today's disambiguation rule, as the linear walk it used to be. */
bool
refLoadMayIssue(const Lsq &lsq, const DynInstr *load)
{
    for (const auto &e : lsq) {
        if (e->seq >= load->seq)
            break;
        if (e->op == OpClass::Store && !e->issued)
            return false;
    }
    return true;
}

/** No unissued store before the cursor, and the cursor within bounds. */
void
expectCursorSound(const Lsq &lsq)
{
    ASSERT_LE(lsq.cursor(), lsq.size());
    std::size_t pos = 0;
    for (const auto &e : lsq) {
        if (pos++ >= lsq.cursor())
            break;
        EXPECT_FALSE(e->op == OpClass::Store && !e->issued)
            << "unissued store seq " << e->seq << " before the cursor";
    }
}

TEST(LsqTest, CommitBeforeAnyProbe)
{
    Lsq lsq(8);
    auto store = makeMem(0, 1, OpClass::Store, 0x100, 4);
    auto load = makeMem(0, 2, OpClass::Load, 0x200, 4);
    lsq.push(store);
    lsq.push(load);
    store->issued = true;
    lsq.popCommitted(store); // no probe has moved the cursor yet
    EXPECT_EQ(lsq.cursor(), 0u);
    EXPECT_TRUE(lsq.loadMayIssue(load));
    expectCursorSound(lsq);
}

TEST(LsqTest, SquashOfTheStoreUnderTheCursor)
{
    Lsq lsq(8);
    auto older = makeMem(0, 1, OpClass::Load, 0x100, 4);
    auto store = makeMem(0, 2, OpClass::Store, 0x200, 4);
    auto younger = makeMem(0, 3, OpClass::Load, 0x300, 4);
    lsq.push(older);
    lsq.push(store);
    lsq.push(younger);
    EXPECT_FALSE(lsq.loadMayIssue(younger));
    EXPECT_EQ(lsq.cursor(), 1u); // parked on the unissued store
    lsq.squashAfter(1);          // the store and the younger load go
    EXPECT_EQ(lsq.cursor(), 1u);
    expectCursorSound(lsq);

    auto store2 = makeMem(0, 4, OpClass::Store, 0x400, 4);
    auto load2 = makeMem(0, 5, OpClass::Load, 0x500, 4);
    lsq.push(store2);
    lsq.push(load2);
    EXPECT_FALSE(lsq.loadMayIssue(load2));
    store2->issued = true;
    EXPECT_TRUE(lsq.loadMayIssue(load2));
    lsq.reset();
    EXPECT_EQ(lsq.cursor(), 0u);
}

/**
 * Seeded random push / store-issue / head-commit / squashAfter / reset
 * sequences: after every step, every resident load's loadMayIssue equals
 * the reference walk, probed in a random order so the lazy cursor sees
 * every interleaving of moves and probes.
 */
TEST(LsqTest, DifferentialAgainstLinearWalk)
{
    for (unsigned seed = 1; seed <= 20; ++seed) {
        std::mt19937 rng(seed);
        auto pick = [&](unsigned n) {
            return static_cast<unsigned>(rng() % n);
        };
        Lsq lsq(10);
        std::deque<DynInstr *> model;
        SeqNum seq = 0;
        for (int step = 0; step < 600; ++step) {
            unsigned what = pick(20);
            if (what < 8 && !lsq.full()) {
                OpClass op = pick(2) ? OpClass::Load : OpClass::Store;
                auto in = makeMem(0, ++seq, op, 0x100 + 8 * pick(8), 8);
                lsq.push(in);
                model.push_back(in);
            } else if (what < 13 && !model.empty()) {
                // Issue a random resident store (or load).
                model[pick(model.size())]->issued = true;
            } else if (what < 17 && !model.empty()) {
                // Commit needs an issued head.
                DynInstr *head = model.front();
                if (head->issued) {
                    lsq.popCommitted(head);
                    model.pop_front();
                }
            } else if (what < 19 && !model.empty()) {
                SeqNum keep = model[pick(model.size())]->seq - pick(2);
                lsq.squashAfter(keep);
                while (!model.empty() && model.back()->seq > keep)
                    model.pop_back();
            } else if (what == 19) {
                lsq.reset();
                model.clear();
            }

            ASSERT_EQ(lsq.size(), model.size());
            std::vector<DynInstr *> loads;
            for (DynInstr *in : model)
                if (in->op == OpClass::Load)
                    loads.push_back(in);
            std::shuffle(loads.begin(), loads.end(), rng);
            for (DynInstr *load : loads)
                EXPECT_EQ(lsq.loadMayIssue(load),
                          refLoadMayIssue(lsq, load))
                    << "seed " << seed << " step " << step << " load seq "
                    << load->seq;
            expectCursorSound(lsq);
        }
    }
}

TEST(LsqTest, FullBlocksPush)
{
    ThrowGuard guard;
    Lsq lsq(1);
    lsq.push(makeMem(0, 1, OpClass::Load, 0, 4));
    EXPECT_TRUE(lsq.full());
    EXPECT_THROW(lsq.push(makeMem(0, 2, OpClass::Load, 8, 4)), SimError);
}

// ---- register file readiness ----------------------------------------------

/**
 * Seeded alloc / markWritten / release / squash-release / checkpoint
 * round-trip sequences: isReady agrees with a model of each
 * register's state at every step, invalidReg is always ready, and the
 * serialized `written` flag keeps its wire position.
 */
TEST(RegFileReadyTest, DifferentialAgainstRegisterModel)
{
    constexpr std::uint32_t kInt = 12, kFp = 12, kTotal = kInt + kFp;
    enum State : std::uint8_t { Free, Allocated, Written };
    for (unsigned seed = 1; seed <= 10; ++seed) {
        std::mt19937 rng(seed);
        auto pick = [&](unsigned n) {
            return static_cast<unsigned>(rng() % n);
        };
        AvfLedger ledger(2);
        PhysRegFile rf(kInt, kFp, ledger);
        std::vector<State> model(kTotal, Free);
        Cycle now = 0;
        auto expectAgrees = [&](const PhysRegFile &f, const char *after) {
            EXPECT_TRUE(f.isReady(invalidReg)) << after;
            EXPECT_EQ(f.readyByPhys()[invalidReg], 1) << after;
            for (std::uint32_t p = 0; p < kTotal; ++p) {
                auto phys = static_cast<RegIndex>(p);
                EXPECT_EQ(f.isReady(phys), model[p] == Written)
                    << "seed " << seed << " physical " << p << " after "
                    << after;
                EXPECT_EQ(f.isAllocated(phys), model[p] != Free);
            }
        };
        auto randomReg = [&](auto want) {
            std::vector<RegIndex> regs;
            for (std::uint32_t p = 0; p < kTotal; ++p)
                if (want(model[p]))
                    regs.push_back(static_cast<RegIndex>(p));
            return regs.empty() ? invalidReg : regs[pick(regs.size())];
        };
        for (int step = 0; step < 300; ++step) {
            ++now;
            const char *after = "?";
            switch (pick(6)) {
              case 0:
              case 1: {
                RegIndex r = rf.alloc(pick(2), 0, now);
                if (r != invalidReg)
                    model[r] = Allocated;
                after = "alloc";
                break;
              }
              case 2: {
                RegIndex r =
                    randomReg([](State st) { return st == Allocated; });
                if (r != invalidReg) {
                    rf.markWritten(r, now);
                    model[r] = Written;
                }
                after = "markWritten";
                break;
              }
              case 3: {
                RegIndex r = randomReg([](State st) { return st != Free; });
                if (r != invalidReg) {
                    rf.release(r, now, pick(2));
                    model[r] = Free;
                }
                after = "release";
                break;
              }
              case 4: {
                RegIndex r = randomReg([](State st) { return st != Free; });
                if (r != invalidReg) {
                    rf.releaseSquashed(r, now);
                    model[r] = Free;
                }
                after = "releaseSquashed";
                break;
              }
              default: {
                // Checkpoint round trip into a fresh register file.
                Serializer ser;
                rf.serialize(ser);
                const std::string &bytes = ser.buffer();
                // Wire: a u64 count, then per register allocated,
                // written, tid (u16) and three u64 cycles.
                constexpr std::size_t kRecord = 1 + 1 + 2 + 3 * 8;
                ASSERT_GE(bytes.size(), 8 + kTotal * kRecord);
                for (std::uint32_t p = 0; p < kTotal; ++p)
                    EXPECT_EQ(bytes[8 + p * kRecord + 1],
                              model[p] == Written ? 1 : 0)
                        << "physical " << p << "'s wire flag";
                AvfLedger ledger2(2);
                PhysRegFile back(kInt, kFp, ledger2);
                Deserializer des(bytes);
                back.serialize(des);
                EXPECT_TRUE(des.exhausted());
                expectAgrees(back, "restore");
                Serializer again;
                back.serialize(again);
                EXPECT_EQ(again.buffer(), bytes);
                after = "serialize";
                break;
              }
            }
            expectAgrees(rf, after);
        }
    }
}

// ---- FU pool ---------------------------------------------------------------

TEST(FuPoolTest, Table1Counts)
{
    FuPool pool(FuConfig{});
    EXPECT_EQ(pool.config().total(), 28u);
    EXPECT_EQ(pool.totalBits(), 28u * bits::fuLatch);
    // Every unit is free at cycle 0: claims succeed until the class runs out.
    auto free_units = [&pool](FuType type) {
        std::uint32_t n = 0;
        while (n < 64 && pool.acquire(type, 0, 1))
            ++n;
        return n;
    };
    EXPECT_EQ(free_units(FuType::IntAlu), 8u);
    EXPECT_EQ(free_units(FuType::MemPort), 4u);
}

TEST(FuPoolTest, AcquireExhaustsUnits)
{
    FuPool pool(FuConfig{});
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(pool.acquire(FuType::IntAlu, 5, 1));
    EXPECT_FALSE(pool.acquire(FuType::IntAlu, 5, 1));
    EXPECT_TRUE(pool.acquire(FuType::IntAlu, 6, 1)) << "freed next cycle";
}

TEST(FuPoolTest, DividerOccupiesForFullLatency)
{
    FuPool pool({1, 1, 1, 1, 1});
    EXPECT_TRUE(pool.acquire(FuType::IntMulDiv, 0, fuOccupancy(
                                                       OpClass::IntDiv)));
    EXPECT_FALSE(pool.acquire(FuType::IntMulDiv, 5, 1));
    EXPECT_TRUE(pool.acquire(FuType::IntMulDiv, 20, 1));
}

TEST(FuPoolTest, NoneTypeAlwaysAvailable)
{
    FuPool pool({1, 1, 1, 1, 1});
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(pool.acquire(FuType::None, 0, 1));
}

class FuMapping : public ::testing::TestWithParam<int>
{
};

TEST_P(FuMapping, EveryOpClassHasTypeLatencyOccupancy)
{
    auto op = static_cast<OpClass>(GetParam());
    EXPECT_NO_THROW(fuTypeFor(op));
    EXPECT_GE(execLatency(op), 1u);
    EXPECT_GE(fuOccupancy(op), 1u);
    EXPECT_LE(fuOccupancy(op), execLatency(op));
}

INSTANTIATE_TEST_SUITE_P(AllOps, FuMapping,
                         ::testing::Range(0,
                                          static_cast<int>(numOpClasses)));

TEST(FuMappingFixed, ExpectedAssignments)
{
    EXPECT_EQ(fuTypeFor(OpClass::BranchCond), FuType::IntAlu);
    EXPECT_EQ(fuTypeFor(OpClass::Load), FuType::MemPort);
    EXPECT_EQ(fuTypeFor(OpClass::FpDiv), FuType::FpMulDiv);
    EXPECT_EQ(fuTypeFor(OpClass::Nop), FuType::None);
    EXPECT_EQ(execLatency(OpClass::IntDiv), 20u);
    EXPECT_EQ(fuOccupancy(OpClass::FpMult), 1u) << "pipelined";
    EXPECT_EQ(fuOccupancy(OpClass::FpDiv), 12u) << "unpipelined";
}

} // namespace
} // namespace smtavf
