/**
 * @file
 * Checkpoint/restore subsystem tests (src/ckpt/, docs/CHECKPOINT.md):
 *
 *  - Serializer/Deserializer wire-format round trips and the bounds
 *    checks that turn truncated payloads into CheckpointError;
 *  - checkpoint envelope encode/decode, file IO, and every rejection
 *    path (magic, version, CRC, trailing garbage);
 *  - the restore contract: a run restored from a mid-run checkpoint is
 *    bit-identical (serializeRun wire bytes) to the run that captured
 *    the checkpoint and kept going;
 *  - warmup equivalence: `RunControls::warmup` inside one run produces
 *    the same result as captureWarmupCheckpoint() + restore() + run(),
 *    which is the property shared-warmup campaigns rest on;
 *  - fingerprint verification: wrong seed, wrong mix and (for non-warmup
 *    checkpoints) wrong protection are rejected; warmup checkpoints are
 *    deliberately protection-agnostic;
 *  - the windowed AVF sampler: row deltas conserve the ledger's totals,
 *    and cycle and instruction windows both start where the measured
 *    window starts, identically after `--warmup` and after a restore.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "avf/interval_series.hh"
#include "avf/ledger.hh"
#include "base/logging.hh"
#include "ckpt/checkpoint.hh"
#include "ckpt/serializer.hh"
#include "policy/prat.hh"
#include "protect/scheme.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

namespace smtavf
{
namespace
{

/** Fatal-to-exception redirect for guard-path tests. */
class LoggingThrows
{
  public:
    LoggingThrows() : prev_(loggingThrows()) { setLoggingThrows(true); }
    ~LoggingThrows() { setLoggingThrows(prev_); }

  private:
    bool prev_;
};

TEST(Serializer, ScalarAndContainerRoundTrip)
{
    Serializer ser;
    ser(true);
    ser(false);
    ser(std::uint8_t{0xab});
    ser(std::uint16_t{0xbeef});
    ser(std::uint32_t{0xdeadbeef});
    ser(std::uint64_t{0x0123456789abcdefULL});
    ser(std::int32_t{-42});
    ser(std::int64_t{-7'000'000'000LL});
    ser(double{-0.0});
    ser(double{1.0 / 3.0});
    ser(std::string("hello\0world", 11));
    ser(std::vector<std::uint64_t>{1, 2, 3});
    ser(std::array<double, 2>{0.5, -2.25});

    Deserializer des(ser.buffer());
    bool b1 = false, b2 = true;
    std::uint8_t u8 = 0;
    std::uint16_t u16 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int32_t i32 = 0;
    std::int64_t i64 = 0;
    double d1 = 1.0, d2 = 0.0;
    std::string s;
    std::vector<std::uint64_t> v;
    std::array<double, 2> a{};
    des(b1);
    des(b2);
    des(u8);
    des(u16);
    des(u32);
    des(u64);
    des(i32);
    des(i64);
    des(d1);
    des(d2);
    des(s);
    des(v);
    des(a);

    EXPECT_TRUE(b1);
    EXPECT_FALSE(b2);
    EXPECT_EQ(u8, 0xab);
    EXPECT_EQ(u16, 0xbeef);
    EXPECT_EQ(u32, 0xdeadbeefu);
    EXPECT_EQ(u64, 0x0123456789abcdefULL);
    EXPECT_EQ(i32, -42);
    EXPECT_EQ(i64, -7'000'000'000LL);
    EXPECT_TRUE(std::signbit(d1));
    EXPECT_EQ(d1, 0.0);
    EXPECT_EQ(d2, 1.0 / 3.0); // bit-exact, not a parse
    EXPECT_EQ(s, std::string("hello\0world", 11));
    EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(a[0], 0.5);
    EXPECT_EQ(a[1], -2.25);
    EXPECT_TRUE(des.exhausted());
}

TEST(Serializer, TruncatedPayloadThrows)
{
    Serializer ser;
    ser(std::uint64_t{7});
    ser(std::string("payload"));
    std::string bytes = ser.take();

    // Every proper prefix must reject cleanly, never read out of bounds.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        Deserializer des(bytes.data(), cut);
        std::uint64_t u = 0;
        std::string s;
        EXPECT_THROW(
            {
                des(u);
                des(s);
            },
            CheckpointError)
            << "prefix of " << cut << " bytes";
    }
}

TEST(Serializer, ImplausibleElementCountRejected)
{
    // A vector header claiming more elements than remaining bytes is
    // corruption; it must throw instead of attempting a giant resize.
    Serializer ser;
    ser(std::uint64_t{0xffffffffffffULL});
    Deserializer des(ser.buffer());
    std::vector<std::uint64_t> v;
    EXPECT_THROW(des(v), CheckpointError);
}

TEST(CheckpointEnvelope, RoundTripPreservesEverything)
{
    Checkpoint ck;
    ck.configFingerprint = 0x1122334455667788ULL;
    ck.warmupBoundary = true;
    ck.at = 50'000;
    ck.payload = std::string("\x00\x01\x02machine state\xff", 16);

    Checkpoint back = decodeCheckpoint(encodeCheckpoint(ck));
    EXPECT_EQ(back.configFingerprint, ck.configFingerprint);
    EXPECT_EQ(back.warmupBoundary, ck.warmupBoundary);
    EXPECT_EQ(back.at, ck.at);
    EXPECT_EQ(back.payload, ck.payload);
}

TEST(CheckpointEnvelope, RejectsDamage)
{
    Checkpoint ck;
    ck.configFingerprint = 42;
    ck.at = 1000;
    ck.payload = "state bytes that the crc covers";
    const std::string good = encodeCheckpoint(ck);

    // Bad magic.
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_THROW(decodeCheckpoint(bad), CheckpointError);

    // Unsupported version.
    bad = good;
    bad[8] = static_cast<char>(0x7f);
    EXPECT_THROW(decodeCheckpoint(bad), CheckpointError);

    // A flipped payload byte breaks the CRC.
    bad = good;
    bad[bad.size() - 3] ^= 0x01;
    EXPECT_THROW(decodeCheckpoint(bad), CheckpointError);

    // Truncation anywhere.
    for (std::size_t cut : {std::size_t{0}, std::size_t{7}, good.size() / 2,
                            good.size() - 1})
        EXPECT_THROW(decodeCheckpoint(good.substr(0, cut)), CheckpointError);

    // Trailing garbage.
    EXPECT_THROW(decodeCheckpoint(good + "x"), CheckpointError);

    // The undamaged original still decodes.
    EXPECT_NO_THROW(decodeCheckpoint(good));
}

TEST(CheckpointEnvelope, FileRoundTripAndMissingFile)
{
    Checkpoint ck;
    ck.configFingerprint = 7;
    ck.at = 123;
    ck.payload = "file payload";
    std::string path =
        testing::TempDir() + "smtavf_ckpt_file_roundtrip.ckpt";
    saveCheckpointFile(ck, path);
    Checkpoint back = loadCheckpointFile(path);
    EXPECT_EQ(back.payload, ck.payload);
    EXPECT_EQ(back.at, ck.at);
    std::remove(path.c_str());

    EXPECT_THROW(loadCheckpointFile(path + ".does-not-exist"),
                 CheckpointError);
}

/** Shared run parameters: small but long enough to stress every stage. */
constexpr std::uint64_t kBudget = 60'000;
constexpr std::uint64_t kHalf = 30'000;

Experiment
testExperiment(const char *mix_name, FetchPolicyKind policy)
{
    return makeExperiment(findMix(mix_name), policy, kBudget);
}

TEST(CheckpointRestore, RestoreThenRunMatchesContinuedRun)
{
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);

    // Run A captures mid-flight and keeps going to the full budget.
    Checkpoint ck;
    RunControls rc;
    rc.checkpointAt = kHalf;
    rc.checkpointCapture = &ck;
    Simulator a(e.cfg, e.mix);
    SimResult ra = a.run(kBudget, rc);
    ASSERT_FALSE(ck.empty());
    EXPECT_FALSE(ck.warmupBoundary);
    EXPECT_EQ(ck.at, kHalf);

    // Run B adopts the capture and simulates only the remainder.
    Simulator b(e.cfg, e.mix);
    b.restore(ck);
    ASSERT_GT(b.restoredCommitted(), 0u);
    ASSERT_GE(kBudget, b.restoredCommitted());
    SimResult rb = b.run(kBudget - b.restoredCommitted());

    // Bit-identical on the journal wire format — every double compared
    // down to the last mantissa bit.
    std::uint64_t fp = experimentFingerprint(e);
    EXPECT_EQ(serializeRun(fp, ra), serializeRun(fp, rb));
}

TEST(CheckpointRestore, WarmupInRunEqualsCaptureRestore)
{
    Experiment e = testExperiment("2ctx-cpu-A", FetchPolicyKind::Icount);

    RunControls rc;
    rc.warmup = kHalf;
    Simulator a(e.cfg, e.mix);
    SimResult ra = a.run(kBudget, rc);

    Simulator capture(e.cfg, e.mix);
    Checkpoint ck = capture.captureWarmupCheckpoint(kHalf);
    EXPECT_TRUE(ck.warmupBoundary);
    EXPECT_EQ(ck.at, kHalf);

    Simulator b(e.cfg, e.mix);
    b.restore(ck);
    SimResult rb = b.run(kBudget);

    std::uint64_t fp = experimentFingerprint(e);
    EXPECT_EQ(serializeRun(fp, ra), serializeRun(fp, rb));
}

TEST(CheckpointRestore, FingerprintMismatchRejected)
{
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);
    Simulator capture(e.cfg, e.mix);
    Checkpoint ck = capture.captureWarmupCheckpoint(kHalf);

    // Wrong seed.
    {
        MachineConfig cfg = e.cfg;
        cfg.seed = e.cfg.seed + 1;
        Simulator sim(cfg, e.mix);
        EXPECT_THROW(sim.restore(ck), CheckpointError);
    }
    // Wrong workload.
    {
        const auto &other = findMix("2ctx-cpu-A");
        Simulator sim(table1Config(other.contexts), other);
        EXPECT_THROW(sim.restore(ck), CheckpointError);
    }
    // Wrong fetch policy (machine semantics).
    {
        MachineConfig cfg = e.cfg;
        cfg.fetchPolicy = FetchPolicyKind::Flush;
        Simulator sim(cfg, e.mix);
        EXPECT_THROW(sim.restore(ck), CheckpointError);
    }
    // Matching config restores fine.
    {
        Simulator sim(e.cfg, e.mix);
        EXPECT_NO_THROW(sim.restore(ck));
    }
}

TEST(CheckpointRestore, WarmupCheckpointIsProtectionAgnostic)
{
    // One warmup capture must serve every candidate protection scheme:
    // that is what lets the explorer share a single warmup. A *mid-run*
    // checkpoint, by contrast, carries accumulated protection-split
    // tallies and must reject a different assignment.
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);

    Simulator capture(e.cfg, e.mix);
    Checkpoint warm = capture.captureWarmupCheckpoint(kHalf);

    MachineConfig protected_cfg = e.cfg;
    protected_cfg.protection =
        uniformProtection(ProtScheme::Secded, 10'000);
    {
        Simulator sim(protected_cfg, e.mix);
        EXPECT_NO_THROW(sim.restore(warm));
    }

    Checkpoint mid;
    RunControls rc;
    rc.checkpointAt = kHalf;
    rc.checkpointCapture = &mid;
    Simulator a(e.cfg, e.mix);
    a.run(kBudget, rc);
    {
        Simulator sim(protected_cfg, e.mix);
        EXPECT_THROW(sim.restore(mid), CheckpointError);
    }
}

TEST(CheckpointRestore, PRatWarmupCheckpointBindsProtection)
{
    // The PRAT counterpart of WarmupCheckpointIsProtectionAgnostic: the
    // weight PRAT gates on reads the protection assignment, so under
    // PRAT the assignment is timing-affecting and even a *warmup*
    // checkpoint folds it into the fingerprint. A core with a different
    // assignment must refuse the restore that an ICOUNT core accepts.
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::PRat);
    e.cfg.pratCap = 12;
    std::string err;
    ASSERT_TRUE(parseAssignment("iq=secded,rob=secded", e.cfg.protection,
                                err))
        << err;

    Simulator capture(e.cfg, e.mix);
    Checkpoint warm = capture.captureWarmupCheckpoint(kHalf);
    EXPECT_TRUE(warm.warmupBoundary);

    // Same machine, nothing protected: rejected.
    {
        MachineConfig cfg = e.cfg;
        cfg.protection = ProtectionConfig{};
        Simulator sim(cfg, e.mix);
        EXPECT_THROW(sim.restore(warm), CheckpointError);
    }
    // Same machine, weaker scheme on the same structures: rejected.
    {
        MachineConfig cfg = e.cfg;
        ASSERT_TRUE(
            parseAssignment("iq=parity,rob=parity", cfg.protection, err))
            << err;
        Simulator sim(cfg, e.mix);
        EXPECT_THROW(sim.restore(warm), CheckpointError);
    }
    // Identical assignment restores fine.
    {
        Simulator sim(e.cfg, e.mix);
        EXPECT_NO_THROW(sim.restore(warm));
    }
}

/** Scripted PolicyContext driving a PRatPolicy off-core. */
class PRatScriptContext : public PolicyContext
{
  public:
    unsigned numThreads() const override { return 2; }
    unsigned inFlightCount(ThreadId tid) const override { return cp[tid]; }
    unsigned
    inFlightCorrectPath(ThreadId tid) const override
    {
        return cp[tid];
    }
    unsigned outstandingL1D(ThreadId) const override { return 0; }
    unsigned outstandingL2D(ThreadId) const override { return 0; }
    void flushAfter(ThreadId, SeqNum) override {}
    const ProtectionConfig *
    protectionConfig() const override
    {
        return &protection;
    }
    const AvfLedger *avfLedger() const override { return ledger; }

    unsigned cp[maxContexts]{};
    ProtectionConfig protection;
    const AvfLedger *ledger = nullptr;
};

TEST(Serializer, PRatAccumulatorsRoundTrip)
{
    // The measured corrections, the absolute refresh schedule and the
    // duty-cycle tally are PRAT's only mutable state beyond what the
    // restoring core re-derives; a policy restored mid-epoch must keep
    // gating exactly like the one that saved.
    AvfLedger ledger(2);
    ledger.setStructureBits(HwStruct::RegFile, 1u << 16);
    // Unprotected residency: residual == ACE, so thread 0's measured
    // correction snaps to the full 256/256 at the first refresh while
    // thread 1 (no intervals) stays at the floor of 1.
    ledger.addInterval(HwStruct::RegFile, 0, 64, 0, 1000, true);

    PRatScriptContext ctx;
    ctx.ledger = &ledger;

    PRatPolicy a(ctx, 12, 16);
    for (Cycle now = 1; now <= 64; ++now) {
        ctx.cp[0] = static_cast<unsigned>((now * 7) % 50);
        ctx.cp[1] = static_cast<unsigned>((now * 3) % 20);
        a.fetchOrder(now);
    }
    ASSERT_EQ(a.corr256(0), 256u); // the refresh actually landed
    ASSERT_EQ(a.corr256(1), 1u);
    ASSERT_GT(a.throttledThreadCycles(), 0u);

    Serializer ser;
    a.saveState(ser);

    PRatPolicy b(ctx, 12, 16);
    Deserializer des(ser.buffer());
    b.loadState(des);
    EXPECT_TRUE(des.exhausted());

    EXPECT_EQ(b.corr256(0), a.corr256(0));
    EXPECT_EQ(b.corr256(1), a.corr256(1));
    EXPECT_EQ(b.throttledThreadCycles(), a.throttledThreadCycles());

    // Continued decisions are bit-identical, across further refreshes.
    for (Cycle now = 65; now <= 192; ++now) {
        ctx.cp[0] = static_cast<unsigned>((now * 11) % 60);
        ctx.cp[1] = static_cast<unsigned>((now * 5) % 40);
        EXPECT_EQ(a.fetchOrder(now), b.fetchOrder(now)) << "cycle " << now;
    }
}

TEST(CheckpointRestore, CorruptPayloadRejectedOnRestore)
{
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);
    Simulator capture(e.cfg, e.mix);
    Checkpoint ck = capture.captureWarmupCheckpoint(kHalf);

    // Truncated payload (past the envelope — the Deserializer's checks).
    Checkpoint cut = ck;
    cut.payload.resize(cut.payload.size() / 2);
    Simulator sim(e.cfg, e.mix);
    EXPECT_THROW(sim.restore(cut), CheckpointError);

    // Empty checkpoint.
    Simulator sim2(e.cfg, e.mix);
    EXPECT_THROW(sim2.restore(Checkpoint{}), CheckpointError);
}

TEST(CheckpointRestore, GuardsRejectBadControls)
{
    LoggingThrows guard;
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);

    // Checkpoint trigger at/past the end of the run.
    {
        Simulator sim(e.cfg, e.mix);
        RunControls rc;
        rc.checkpointAt = kBudget + 1;
        Checkpoint ck;
        rc.checkpointCapture = &ck;
        EXPECT_THROW(sim.run(kBudget, rc), SimError);
    }
    // A destination without a trigger is a mistake, not a no-op.
    {
        Simulator sim(e.cfg, e.mix);
        RunControls rc;
        rc.checkpointOut = "/tmp/never-written.ckpt";
        EXPECT_THROW(sim.run(kBudget, rc), SimError);
    }
    // Warmup after restore: the boundary is already fixed.
    {
        Simulator capture(e.cfg, e.mix);
        Checkpoint ck = capture.captureWarmupCheckpoint(kHalf);
        Simulator sim(e.cfg, e.mix);
        sim.restore(ck);
        RunControls rc;
        rc.warmup = 1000;
        EXPECT_THROW(sim.run(kBudget, rc), SimError);
    }
}

TEST(AvfIntervalSeries, RowsConserveLedgerTotals)
{
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);
    Simulator sim(e.cfg, e.mix);
    RunControls rc;
    rc.avfInterval = 10'000;
    SimResult r = sim.run(kBudget, rc);
    ASSERT_TRUE(r.avfIntervals);
    const auto &rows = r.avfIntervals->data();
    ASSERT_FALSE(rows.empty());

    // Row boundaries tile the run: contiguous, monotonic, ending at the
    // final committed count.
    EXPECT_EQ(rows.front().startInstr, 0u);
    for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].startInstr, rows[i - 1].endInstr);
        EXPECT_GE(rows[i].endCycle, rows[i].startCycle);
    }
    EXPECT_EQ(rows.back().endInstr, r.totalCommitted);

    // Conservation: summed per-row ACE deltas equal the ledger's final
    // tallies exactly (integer bit-cycles, so equality is exact).
    const AvfLedger &ledger = sim.ledger();
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        auto hs = static_cast<HwStruct>(s);
        std::uint64_t ace = 0, residual = 0;
        for (const auto &row : rows) {
            ace += row.aceDelta[s];
            residual += row.residualDelta[s];
        }
        EXPECT_EQ(ace, ledger.aceBitCycles(hs)) << hwStructName(hs);
        EXPECT_EQ(residual, ledger.residualAceBitCycles(hs))
            << hwStructName(hs);
    }

    // The CSV dump carries one line per row plus the header.
    std::string csv = r.avfIntervals->csv();
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, rows.size() + 1);
}

TEST(AvfIntervalSeries, RestoredRunUsesAbsoluteCoordinates)
{
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);
    Simulator capture(e.cfg, e.mix);
    Checkpoint ck = capture.captureWarmupCheckpoint(kHalf);

    Simulator sim(e.cfg, e.mix);
    sim.restore(ck);
    RunControls rc;
    rc.avfInterval = 10'000;
    SimResult r = sim.run(kBudget, rc);
    ASSERT_TRUE(r.avfIntervals);
    const auto &rows = r.avfIntervals->data();
    ASSERT_FALSE(rows.empty());
    // Window boundaries are absolute committed-instruction coordinates:
    // a restored run's series starts where the checkpoint left off, so
    // it lines up with the original run's axis instead of re-zeroing.
    EXPECT_EQ(rows.front().startInstr, sim.restoredCommitted());
    EXPECT_EQ(rows.back().endInstr,
              sim.restoredCommitted() + r.totalCommitted);
}

/** Field-by-field equality of two sampled series. */
void
expectSameRows(const AvfIntervalSeries &a, const AvfIntervalSeries &b)
{
    ASSERT_EQ(a.data().size(), b.data().size());
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        const auto &x = a.data()[i];
        const auto &y = b.data()[i];
        EXPECT_EQ(x.index, y.index) << "row " << i;
        EXPECT_EQ(x.startInstr, y.startInstr) << "row " << i;
        EXPECT_EQ(x.endInstr, y.endInstr) << "row " << i;
        EXPECT_EQ(x.startCycle, y.startCycle) << "row " << i;
        EXPECT_EQ(x.endCycle, y.endCycle) << "row " << i;
        EXPECT_EQ(x.aceDelta, y.aceDelta) << "row " << i;
        EXPECT_EQ(x.residualDelta, y.residualDelta) << "row " << i;
        EXPECT_EQ(x.avf, y.avf) << "row " << i;
        EXPECT_EQ(x.residualAvf, y.residualAvf) << "row " << i;
    }
}

/**
 * The rows cover exactly the measured window: the first opens at the
 * ledger's base cycle, the last closes at the run's end, and the summed
 * deltas equal the ledger's (measured-window) totals exactly.
 */
void
expectCoversMeasuredWindow(const AvfIntervalSeries &series,
                           const AvfLedger &ledger, const SimResult &r)
{
    const auto &rows = series.data();
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.front().startCycle, ledger.baseCycle());
    EXPECT_EQ(rows.back().endCycle, ledger.baseCycle() + r.cycles);
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        auto hs = static_cast<HwStruct>(s);
        std::uint64_t ace = 0, residual = 0;
        for (const auto &row : rows) {
            ace += row.aceDelta[s];
            residual += row.residualDelta[s];
        }
        EXPECT_EQ(ace, ledger.aceBitCycles(hs)) << hwStructName(hs);
        EXPECT_EQ(residual, ledger.residualAceBitCycles(hs))
            << hwStructName(hs);
    }
}

TEST(AvfIntervalSeries, WarmupAndRestoreAgreeInBothUnits)
{
    // Cycle windows (avfSampleCycles, part of the checkpoint fingerprint)
    // and instruction windows side by side: a `--warmup` run and a run
    // restored from the equivalent warmup checkpoint must sample the
    // same measured window into the same rows.
    constexpr std::uint64_t kWarmup = 20'000;
    Experiment e = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);
    e.cfg.avfSampleCycles = 1500;
    RunControls rc;
    rc.avfInterval = 4000;

    Simulator warm(e.cfg, e.mix);
    RunControls warm_rc = rc;
    warm_rc.warmup = kWarmup;
    SimResult rw = warm.run(kHalf, warm_rc);

    Simulator capture(e.cfg, e.mix);
    Checkpoint ck = capture.captureWarmupCheckpoint(kWarmup);
    Simulator restored(e.cfg, e.mix);
    restored.restore(ck);
    SimResult rr = restored.run(kHalf, rc);

    ASSERT_TRUE(rw.timeline && rw.avfIntervals);
    ASSERT_TRUE(rr.timeline && rr.avfIntervals);
    EXPECT_GT(warm.ledger().baseCycle(), 0u);
    EXPECT_EQ(rw.timeline->data().front().startInstr,
              restored.restoredCommitted());
    for (const auto *series : {rw.timeline.get(), rw.avfIntervals.get()})
        expectCoversMeasuredWindow(*series, warm.ledger(), rw);
    for (const auto *series : {rr.timeline.get(), rr.avfIntervals.get()})
        expectCoversMeasuredWindow(*series, restored.ledger(), rr);
    expectSameRows(*rw.timeline, *rr.timeline);
    expectSameRows(*rw.avfIntervals, *rr.avfIntervals);
}

TEST(SharedWarmupCampaign, ThreadModeMatchesPerRunWarmup)
{
    // Two experiments share one warmup group (same cfg/mix/seed/warmup);
    // a third differs by seed and must get its own group.
    std::vector<Experiment> exps;
    Experiment base = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);
    base.warmup = 20'000;
    base.budget = 30'000;
    exps.push_back(base);
    Experiment prot = base;
    prot.cfg.protection = uniformProtection(ProtScheme::Parity, 10'000);
    prot.label += "/parity";
    exps.push_back(prot);
    Experiment other = base;
    other.cfg.seed = base.cfg.seed + 99;
    other.label += "/seed";
    exps.push_back(other);

    CampaignRunner pool(2);
    CampaignOptions plain;
    auto ref = runTolerant(pool, exps, plain);
    ASSERT_TRUE(ref.allOk());

    CampaignOptions shared;
    shared.sharedWarmup = true;
    auto got = runTolerant(pool, exps, shared);
    ASSERT_TRUE(got.allOk());

    for (std::size_t i = 0; i < exps.size(); ++i) {
        std::uint64_t fp = experimentFingerprint(exps[i]);
        EXPECT_EQ(serializeRun(fp, ref.outcomes[i].result),
                  serializeRun(fp, got.outcomes[i].result))
            << exps[i].label;
    }
}

TEST(SharedWarmupCampaign, SharingSimulatesFewerInstructions)
{
    std::vector<Experiment> exps;
    Experiment base = testExperiment("2ctx-mix-A", FetchPolicyKind::Icount);
    base.warmup = 20'000;
    base.budget = 20'000;
    for (int i = 0; i < 3; ++i) {
        Experiment e = base;
        e.label += std::to_string(i);
        exps.push_back(e); // identical warmup prefix x3
    }

    CampaignRunner pool(2);
    auto &counter = simulatedInstructionCounter();

    counter.store(0);
    CampaignOptions plain;
    ASSERT_TRUE(runTolerant(pool, exps, plain).allOk());
    std::uint64_t unshared = counter.load();

    counter.store(0);
    CampaignOptions shared;
    shared.sharedWarmup = true;
    ASSERT_TRUE(runTolerant(pool, exps, shared).allOk());
    std::uint64_t shared_count = counter.load();

    // Three warmups vs one: sharing must save roughly two warmups' worth.
    EXPECT_LT(shared_count, unshared);
    EXPECT_LE(shared_count + 2 * base.warmup,
              unshared + base.warmup / 10); // generous slack for drain
}

} // namespace
} // namespace smtavf
