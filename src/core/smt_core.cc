#include "core/smt_core.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace smtavf
{

Residency
residencyAt(const DynInstr &in, Cycle close, bool committed)
{
    Residency r;
    r.dispatch = in.dispatchCycle;
    r.iqEnd = in.issued ? in.issueCycle : close;
    r.fuEnd = r.iqEnd;
    if (in.issued && fuTypeFor(in.op) != FuType::None)
        r.fuEnd = in.issueCycle + (in.isMem() ? 1 : execLatency(in.op));
    r.lsqDataStart = in.dispatchCycle;
    if (committed && in.op == OpClass::Load)
        r.lsqDataStart = in.completeCycle;
    else if (committed && in.op == OpClass::Store)
        r.lsqDataStart = in.issueCycle;
    r.close = close;
    r.mem = in.isMem();
    return r;
}

SmtCore::ThreadContext::ThreadContext(const MachineConfig &cfg,
                                      StreamGenerator *g)
    : gen(g), rob(cfg.robSize), lsq(cfg.lsqSize), predictor(cfg.branch)
{
}

SmtCore::SmtCore(const MachineConfig &cfg,
                 std::vector<StreamGenerator *> streams, MemHierarchy &hier,
                 AvfLedger &ledger)
    : cfg_(cfg), hier_(hier), ledger_(ledger),
      analyzer_(cfg.contexts, ledger, cfg.avf.deadCodeAnalysis),
      slots_(std::size_t{cfg.contexts} * (cfg.fetchQueueSize + cfg.robSize)),
      regfile_(cfg.intPhysRegs, cfg.fpPhysRegs, ledger,
               cfg.avf.regAllocWindowUnace, cfg.avf.deadCodeAnalysis),
      iq_(cfg.iqSize), issuePos_(cfg.iqSize), fuPool_(cfg.fu)
{
    cfg_.validate();
    if (streams.size() != cfg_.contexts)
        SMTAVF_FATAL("need ", cfg_.contexts, " streams, got ",
                     streams.size());

    threads_.reserve(cfg_.contexts);
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        if (!streams[t])
            SMTAVF_FATAL("null stream for context ", t);
        threads_.push_back(makeArena<ThreadContext>(cfg_, streams[t]));
    }

    policy_ = makeFetchPolicy(cfg_.fetchPolicy, *this,
                              {cfg_.pratEpoch, cfg_.pratCap});
    fetchOrderMutates_ = policy_->fetchOrderMutates();

    // Size the completion wheel past the worst-case completion delta:
    // DTLB walk + DL1 + L2 + DRAM for loads, plus FU latency headroom.
    // Anything beyond the horizon still works via the overflow map.
    Cycle span = cfg_.mem.dtlb.missPenalty + cfg_.mem.dl1.latency +
                 cfg_.mem.l2.latency + cfg_.mem.memLatency + 64;
    Cycle size = 64;
    while (size < span && size < 4096)
        size *= 2;
    wheel_.resize(size);
    wheelMask_ = size - 1;

    // The ledger learns this machine's IQ/ROB/LSQ/FU geometry.
    ledger_.setStructureBits(HwStruct::IQ,
                             std::uint64_t{cfg_.iqSize} * bits::iqEntry);
    ledger_.setStructureBits(
        HwStruct::ROB,
        std::uint64_t{cfg_.contexts} * cfg_.robSize * bits::robEntry,
        std::uint64_t{cfg_.robSize} * bits::robEntry);
    ledger_.setStructureBits(
        HwStruct::LsqData,
        std::uint64_t{cfg_.contexts} * cfg_.lsqSize * bits::lsqData,
        std::uint64_t{cfg_.lsqSize} * bits::lsqData);
    ledger_.setStructureBits(
        HwStruct::LsqTag,
        std::uint64_t{cfg_.contexts} * cfg_.lsqSize * bits::lsqTag,
        std::uint64_t{cfg_.lsqSize} * bits::lsqTag);
    ledger_.setStructureBits(HwStruct::FU, fuPool_.totalBits());
}

SmtCore::~SmtCore() = default;

unsigned
SmtCore::numThreads() const
{
    return cfg_.contexts;
}

unsigned
SmtCore::inFlightCount(ThreadId tid) const
{
    const auto &th = *threads_.at(tid);
    return static_cast<unsigned>(th.frontQueue.size()) + th.iqCount;
}

unsigned
SmtCore::inFlightCorrectPath(ThreadId tid) const
{
    const auto &th = *threads_.at(tid);
    unsigned total = static_cast<unsigned>(th.frontQueue.size()) +
                     th.iqCount;
    return total > th.wrongPathFrontIq ? total - th.wrongPathFrontIq : 0;
}

unsigned
SmtCore::structOccupancy(HwStruct s, ThreadId tid) const
{
    // PRAT's occupancy probe (policy/prat.hh): how many entries the
    // thread holds in each structure its in-flight instructions expose.
    // All O(1) reads of bookkeeping the pipeline maintains anyway.
    const auto &th = *threads_.at(tid);
    switch (s) {
      case HwStruct::IQ:
        return th.iqCount;
      case HwStruct::ROB:
        return static_cast<unsigned>(th.rob.size());
      case HwStruct::LsqData:
      case HwStruct::LsqTag:
        return static_cast<unsigned>(th.lsq.size());
      case HwStruct::RegFile:
        return regfile_.allocatedBy(tid);
      default:
        return 0;
    }
}

unsigned
SmtCore::outstandingL1D(ThreadId tid) const
{
    return threads_.at(tid)->outL1D;
}

unsigned
SmtCore::outstandingL2D(ThreadId tid) const
{
    return threads_.at(tid)->outL2D;
}

std::uint64_t
SmtCore::committed(ThreadId tid) const
{
    return threads_.at(tid)->committedCount;
}

std::uint64_t
SmtCore::fetched(ThreadId tid) const
{
    return threads_.at(tid)->fetchedCount;
}

std::uint64_t
SmtCore::issued(ThreadId tid) const
{
    return threads_.at(tid)->issuedCount;
}

std::uint64_t
SmtCore::totalCommitted() const
{
    std::uint64_t sum = 0;
    for (const auto &th : threads_)
        sum += th->committedCount;
    return sum;
}

const ThreadPredictor &
SmtCore::predictor(ThreadId tid) const
{
    return threads_.at(tid)->predictor;
}

void
SmtCore::tick()
{
    ++now_;
    active_ = fetchOrderMutates_;
    if (hier_.tick(now_))
        active_ = true;
    processCompletions();
    commitStage();
    issueStage();
    dispatchStage();
    fetchStage();
}

Cycle
SmtCore::lastQuietCycle() const
{
    // Between events the stages read only state that changes at events,
    // plus the clocks below: commit needs a completion first, the woken
    // IQ set changes only at a completion, a load blocked by
    // disambiguation waits for a store to issue, and a busy divider frees
    // on the cycle its occupant's (possibly squashed) bucket drains.
    Cycle next = hier_.nextFill();
    if (!overflow_.empty())
        next = std::min(next, overflow_.begin()->first);
    for (const auto &thp : threads_) {
        const auto &th = *thp;
        if (th.icacheStallUntil > now_)
            next = std::min(next, th.icacheStallUntil);
        if (!th.frontQueue.empty() && th.frontQueue.front().readyAt > now_)
            next = std::min(next, th.frontQueue.front().readyAt);
    }
    // Bucket now + d holds cycle now + d's events for d in [1, size];
    // only buckets before the best cycle found so far can improve it.
    const Cycle scan = std::min<Cycle>(next - now_, wheel_.size() + 1);
    for (Cycle d = 1; d < scan; ++d) {
        const CompletionList &b = wheel_[(now_ + d) & wheelMask_];
        if (b.head || b.squashed) {
            next = now_ + d;
            break;
        }
    }
    // Nothing pending at all is a livelock: keep ticking, so the
    // watchdog sees it exactly as before.
    return next == maxCycle ? now_ : next - 1;
}

void
SmtCore::skipTo(Cycle to)
{
    if (active_ || to <= now_)
        SMTAVF_PANIC("skipTo(", to, ") at cycle ", now_,
                     ": not forward, or not after a quiet tick");
    // Each quiet tick advances both round-robin pointers by one.
    const Cycle n = to - now_;
    const unsigned k = static_cast<unsigned>(n % cfg_.contexts);
    commitRR_ = (commitRR_ + k) % cfg_.contexts;
    dispatchRR_ = (dispatchRR_ + k) % cfg_.contexts;
    skipped_ += n;
    now_ = to;
}

void
SmtCore::clearInFlight()
{
    for (auto &thp : threads_) {
        auto &th = *thp;
        th.frontQueue.reset();
        th.rob.reset();
        th.lsq.reset();
        th.wrongPathMode = false;
        th.iqCount = 0;
        th.wrongPathFrontIq = 0;
        th.outL1D = 0;
        th.outL2D = 0;
    }
    iq_.reset();
    // A same-size assign and clear() allocate nothing.
    wheel_.assign(wheel_.size(), CompletionList{});
    overflow_.clear();
    pendingNotices_.clear();
    slots_.reset();
}

void
SmtCore::scheduleCompletion(DynInstr *in, Cycle when)
{
    if (when <= now_)
        SMTAVF_PANIC("completion scheduled in the past");
    in->completeCycle = when;
    // A delta of exactly the wheel size is safe: that bucket was drained
    // and cleared earlier this cycle (processCompletions runs before any
    // scheduling stage) and will next be visited exactly at `when`.
    if (when - now_ <= wheel_.size())
        wheel_[when & wheelMask_].append(in);
    else
        overflow_[when].append(in);
}

void
SmtCore::unschedule(DynInstr *in)
{
    // A pending wheel bucket only holds events of one cycle, but an
    // event scheduled beyond the wheel's horizon sits in overflow_.
    if (!wheel_[in->completeCycle & wheelMask_].remove(in) &&
        !overflow_.at(in->completeCycle).remove(in))
        SMTAVF_PANIC("squashed event missing from the completion wheel");
}

void
SmtCore::drainCompletions(CompletionList &list)
{
    // Pop before completing: a branch completion may squash, and so
    // unlink, later events of this very list.
    while (DynInstr *in = list.head) {
        list.head = in->completionNext;
        if (!list.head)
            list.tail = nullptr;
        in->completionNext = nullptr;
        complete(in);
    }
    list.squashed = false;
}

void
SmtCore::processCompletions()
{
    // Overflow events for this cycle were scheduled strictly earlier than
    // any wheel event for the same cycle (their delta exceeded the wheel
    // horizon), so draining them first reproduces the exact batch order of
    // the former std::map-based schedule.
    while (!overflow_.empty() && overflow_.begin()->first <= now_) {
        active_ = true;
        drainCompletions(overflow_.begin()->second);
        overflow_.erase(overflow_.begin());
    }

    // complete() never schedules for the current cycle, so the chain
    // cannot grow mid-drain. A bucket whose events were all squashed
    // still counts: draining it clears the flag pipelineEmpty() reads.
    CompletionList &due = wheel_[now_ & wheelMask_];
    if (due.head || due.squashed) {
        active_ = true;
        drainCompletions(due);
    }
}

void
SmtCore::complete(DynInstr *in)
{
    in->completed = true;
    auto &th = *threads_.at(in->tid);

    if (in->destPhys != invalidReg)
        regfile_.markWritten(in->destPhys, now_);

    if (in->op == OpClass::Load) {
        if (in->dl1Miss) {
            --th.outL1D;
            if (in->l2Miss)
                --th.outL2D;
        }
        policy_->onLoadDone(*in, in->dl1Miss, in->l2Miss);
    }

    if (in->isBranch()) {
        th.predictor.train(*in);
        if (in->mispredicted && !in->wrongPath)
            flushAfter(in->tid, in->seq);
    }
}

void
SmtCore::commitStage()
{
    unsigned count = 0;
    unsigned n = cfg_.contexts;
    for (unsigned i = 0; i < n && count < cfg_.commitWidth; ++i) {
        ThreadId tid = static_cast<ThreadId>((commitRR_ + i) % n);
        auto &th = *threads_[tid];
        while (count < cfg_.commitWidth) {
            DynInstr *head = th.rob.front();
            if (!head || !head->completed || head->completeCycle >= now_)
                break;

            th.rob.popFront();
            if (head->isMem())
                th.lsq.popCommitted(head);
            if (head->op == OpClass::Store)
                hier_.storeCommit(tid, head->memAddr, head->memSize, now_);

            regfile_.noteRead(head->srcPhys1, head->issueCycle);
            regfile_.noteRead(head->srcPhys2, head->issueCycle);

            bool exposed_dead =
                analyzer_.onCommit(*head, residencyAt(*head, now_, true));
            if (head->oldDestPhys != invalidReg)
                regfile_.release(head->oldDestPhys, now_, exposed_dead);

            th.gen->retireBelow(head->streamIdx + 1);
            th.nextCommitStreamIdx = head->streamIdx + 1;
            ++th.committedCount;
            ++count;
            slots_.release(head);
        }
    }
    if (count)
        active_ = true;
    commitRR_ = (commitRR_ + 1) % n;
}

bool
SmtCore::tryIssue(DynInstr *in, unsigned &mem_ports_used)
{
    auto &th = *threads_[in->tid];
    bool forwarded = false;
    if (in->op == OpClass::Load) {
        if (mem_ports_used >= cfg_.mem.dl1.ports)
            return false;
        if (!th.lsq.loadMayIssue(in))
            return false;
        forwarded = th.lsq.canForward(in);
    }

    FuType type = fuTypeFor(in->op);
    if (!fuPool_.acquire(type, now_, fuOccupancy(in->op)))
        return false;

    in->issued = true;
    in->issueCycle = now_;
    ++th.issuedCount;
    --th.iqCount; // the select stage compacts the IQ after its loop
    if (in->wrongPath)
        --th.wrongPathFrontIq;

    std::uint32_t lat = execLatency(in->op);
    Cycle done;
    if (in->op == OpClass::Load) {
        ++mem_ports_used;
        if (forwarded) {
            done = now_ + 1;
            pendingNotices_.push_back({in, false, false});
        } else {
            MemOutcome out = hier_.load(in->tid, in->memAddr, in->memSize,
                                        now_);
            in->dl1Miss = out.l1Miss;
            in->l2Miss = out.l2Miss;
            done = out.ready;
            if (out.l1Miss) {
                ++th.outL1D;
                if (out.l2Miss)
                    ++th.outL2D;
            }
            pendingNotices_.push_back({in, out.l1Miss, out.l2Miss});
        }
    } else if (in->op == OpClass::Store) {
        std::uint32_t penalty = hier_.translateData(in->tid, in->memAddr,
                                                    now_);
        done = now_ + lat + penalty;
    } else {
        done = now_ + lat;
    }

    scheduleCompletion(in, done);
    return true;
}

void
SmtCore::issueStage()
{
    // Wakeup, then select. Nothing here writes a register (markWritten
    // runs only in processCompletions), so the woken set computed up
    // front is the set a lazy oldest-first scan would see. Every entry
    // was dispatched in an earlier cycle: dispatch runs after issue.
    std::uint32_t woken =
        iq_.wakeup(regfile_.readyByPhys(), issuePos_.data());
    std::uint32_t issued = 0;
    unsigned mem_ports_used = 0;
    for (std::uint32_t k = 0; k < woken && issued < cfg_.issueWidth; ++k) {
        // Issued positions overwrite the woken ones in place (issued <= k).
        if (tryIssue(iq_.at(issuePos_[k]), mem_ports_used))
            issuePos_[issued++] = issuePos_[k];
    }
    iq_.removeAt(issuePos_.data(), issued);
    if (issued)
        active_ = true;

    // Deliver policy notifications now that the IQ is compacted (FLUSH may
    // squash, which mutates the IQ but never adds a notice).
    for (const auto &n : pendingNotices_) {
        if (!n.load->squashed)
            policy_->onLoadIssued(*n.load, n.l1Miss, n.l2Miss);
    }
    pendingNotices_.clear();
}

void
SmtCore::dispatchStage()
{
    unsigned dispatched = 0;
    unsigned n = cfg_.contexts;
    for (unsigned i = 0; i < n && dispatched < cfg_.decodeWidth; ++i) {
        ThreadId tid = static_cast<ThreadId>((dispatchRR_ + i) % n);
        auto &th = *threads_[tid];
        while (dispatched < cfg_.decodeWidth && !th.frontQueue.empty()) {
            auto &fe = th.frontQueue.front();
            if (fe.readyAt > now_)
                break;
            DynInstr *in = fe.in;
            if (th.rob.full() || iq_.full())
                break;
            if (in->isMem() && th.lsq.full())
                break;
            if (cfg_.iqPartitioned &&
                th.iqCount >= cfg_.iqSize / cfg_.contexts)
                break; // static per-thread IQ partition (Section 5)

            RegIndex dest = invalidReg;
            if (in->writesReg()) {
                dest = regfile_.alloc(isFpReg(in->destReg), tid, now_);
                if (dest == invalidReg)
                    break; // register-pool pressure stalls the thread
            }

            in->srcPhys1 = th.rename.lookup(in->srcReg1);
            in->srcPhys2 = th.rename.lookup(in->srcReg2);
            if (dest != invalidReg) {
                in->destPhys = dest;
                in->oldDestPhys = th.rename.set(in->destReg, dest);
            }

            in->globalSeq = ++globalDispatchSeq_;
            in->dispatchCycle = now_;
            th.rob.push(in);
            iq_.insert(in);
            ++th.iqCount;
            if (in->isMem())
                th.lsq.push(in);
            th.frontQueue.pop_front();
            ++dispatched;
        }
    }
    if (dispatched)
        active_ = true;
    dispatchRR_ = (dispatchRR_ + 1) % n;
}

void
SmtCore::fetchStage()
{
    if (!fetchEnabled_)
        return;
    const auto &order = policy_->fetchOrder(now_);
    unsigned threads_fetched = 0;
    unsigned remaining = cfg_.fetchWidth;
    for (ThreadId tid : order) {
        if (threads_fetched >= cfg_.fetchThreadsPerCycle || remaining == 0)
            break;
        unsigned got = fetchThread(tid, remaining);
        if (got > 0) {
            ++threads_fetched;
            remaining -= got;
        }
    }
}

unsigned
SmtCore::fetchThread(ThreadId tid, unsigned budget)
{
    auto &th = *threads_[tid];
    if (th.icacheStallUntil > now_)
        return 0;

    unsigned fetched = 0;
    while (fetched < budget && th.frontQueue.size() < cfg_.fetchQueueSize) {
        DynInstr *in;
        if (th.wrongPathMode) {
            if (!cfg_.avf.wrongPathModel)
                break; // ablation: front end idles out mispredictions
            in = slots_.acquire(th.gen->makeWrongPath(th.wrongPathPc));
            th.wrongPathPc = th.gen->clampToCode(th.wrongPathPc + 4);
        } else {
            in = slots_.acquire(th.gen->at(th.fetchStreamIdx));
        }
        // Past the guards: even an attempt that misses the IL1 below
        // has drawn from the stream and touched the ITLB and IL1.
        active_ = true;

        if (fetched == 0) {
            MemOutcome out = hier_.fetch(tid, in->pc, now_);
            if (out.l1Miss || out.tlbMiss) {
                th.icacheStallUntil = out.ready;
                slots_.release(in);
                break;
            }
        }

        in->seq = ++th.seqCounter;
        if (th.wrongPathMode) {
            ++wrongPathFetched_;
            ++th.wrongPathFrontIq;
        } else {
            ++th.fetchStreamIdx;
        }

        th.predictor.predict(*in);
        th.frontQueue.push_back({in, now_ + cfg_.frontLatency});
        policy_->onFetch(*in);
        ++fetched;
        ++fetchedInstrs_;
        ++th.fetchedCount;

        if (in->isBranch()) {
            if (in->mispredicted) {
                th.wrongPathMode = true;
                th.wrongPathPc = th.gen->clampToCode(in->pc + 4);
                break;
            }
            if (in->predTaken)
                break; // redirect ends the fetch group
        }
    }
    return fetched;
}

void
SmtCore::flushAfter(ThreadId tid, SeqNum seq)
{
    auto &th = *threads_.at(tid);

    while (!th.frontQueue.empty() && th.frontQueue.back().in->seq > seq) {
        DynInstr *in = th.frontQueue.back().in;
        in->squashed = true;
        if (in->wrongPath)
            --th.wrongPathFrontIq;
        th.predictor.squashRecover(*in);
        if (in->op == OpClass::Load)
            policy_->onLoadDone(*in, false, false);
        th.frontQueue.pop_back();
        ++squashedInstrs_;
        slots_.release(in);
    }

    th.lsq.squashAfter(seq);
    th.rob.squashAfter(seq, [&](DynInstr *in) {
        in->squashed = true;
        ++squashedInstrs_;
        th.predictor.squashRecover(*in);

        if (in->destPhys != invalidReg) {
            th.rename.set(in->destReg, in->oldDestPhys);
            regfile_.releaseSquashed(in->destPhys, now_);
        }
        if (in->inIq) {
            iq_.remove(in);
            --th.iqCount;
            if (in->wrongPath)
                --th.wrongPathFrontIq;
        }
        if (in->op == OpClass::Load) {
            if (in->issued && !in->completed && in->dl1Miss) {
                --th.outL1D;
                if (in->l2Miss)
                    --th.outL2D;
            }
            policy_->onLoadDone(*in, in->dl1Miss, in->l2Miss);
        }
        analyzer_.onSquash(*in, residencyAt(*in, now_, false));
        if (in->issued && !in->completed)
            unschedule(in);
        slots_.release(in);
    });

    recomputeFetchState(th);
}

void
SmtCore::recomputeFetchState(ThreadContext &th)
{
    bool wrong = false;
    std::uint64_t next_idx = th.nextCommitStreamIdx;
    auto scan = [&](const DynInstr *in) {
        if (in->isBranch() && in->mispredicted && !in->completed)
            wrong = true;
        if (!in->wrongPath && in->streamIdx + 1 > next_idx)
            next_idx = in->streamIdx + 1;
    };
    for (const DynInstr *in : th.rob)
        scan(in);
    for (const auto &fe : th.frontQueue)
        scan(fe.in);

    th.wrongPathMode = wrong;
    if (!wrong)
        th.fetchStreamIdx = next_idx;
}

std::string
SmtCore::stateDump() const
{
    std::ostringstream os;
    os << "cycle " << now_ << " freeInt " << regfile_.freeInt()
       << " freeFp " << regfile_.freeFp() << " iq " << iq_.size() << "/"
       << iq_.capacity() << "\n";
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        const auto &th = *threads_[t];
        os << "  T" << t << " rob " << th.rob.size() << " front "
           << th.frontQueue.size() << " iq " << th.iqCount << " outL1 "
           << th.outL1D << " outL2 " << th.outL2D << " wrongPath "
           << th.wrongPathMode;
        if (const DynInstr *head = th.rob.front()) {
            os << " | head seq " << head->seq << " op "
               << opClassName(head->op) << " inIq " << head->inIq
               << " issued " << head->issued << " completed "
               << head->completed << " src1 " << head->srcPhys1 << "("
               << regfile_.isReady(head->srcPhys1) << ") src2 "
               << head->srcPhys2 << "(" << regfile_.isReady(head->srcPhys2)
               << ")";
        }
        os << "\n";
    }
    return os.str();
}

void
SmtCore::finalizeAvf()
{
    // Close the residency of still-in-flight instructions, then resolve
    // every deferred classification conservatively live.
    for (auto &thp : threads_) {
        for (const DynInstr *in : thp->rob)
            analyzer_.resolveLive(*in, residencyAt(*in, now_, false));
    }
    analyzer_.finish();
    regfile_.finalizeAll(now_);
    clearInFlight(); // the run is over: every slot goes back
}

} // namespace smtavf
