#include "probes.hh"

#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "mem/hierarchy.hh"
#include "sim/isolate.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using namespace smtavf;

namespace
{

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Every figure of two AVF reports, compared bit for bit. */
bool
sameAvf(const AvfReport &a, const AvfReport &b)
{
    if (a.numThreads() != b.numThreads() || a.cycles() != b.cycles())
        return false;
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        const auto s = static_cast<HwStruct>(i);
        if (!sameBits(a.avf(s), b.avf(s)) ||
            !sameBits(a.residualAvf(s), b.residualAvf(s)) ||
            !sameBits(a.occupancy(s), b.occupancy(s)))
            return false;
        for (unsigned t = 0; t < a.numThreads(); ++t)
            if (!sameBits(a.threadAvf(s, static_cast<ThreadId>(t)),
                          b.threadAvf(s, static_cast<ThreadId>(t))))
                return false;
    }
    return true;
}

/** Hits and misses of one cache or TLB, summed over runs. */
struct HitMiss
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double
    rate() const
    {
        return hits + misses ? static_cast<double>(misses) / (hits + misses)
                             : 0.0;
    }
};

/** Cumulative counters the stepped replay reports as deltas. */
struct Counters
{
    std::uint64_t fetched, dead, resolved;
    std::uint64_t il1h, il1m, dl1h, dl1m, l2h, l2m, dtlbh, dtlbm;

    static Counters
    read(Simulator &sim)
    {
        MemHierarchy &h = sim.hierarchy();
        const SmtCore &c = sim.core();
        return {c.fetchedInstrs(), c.deadCode().deadInstructions(),
                c.deadCode().resolvedInstructions(), h.il1().hits(),
                h.il1().misses(), h.dl1().hits(), h.dl1().misses(),
                h.l2().hits(), h.l2().misses(), h.dtlb().hits(),
                h.dtlb().misses()};
    }
};

std::uint64_t
nanos(std::chrono::steady_clock::duration d)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

} // namespace

double
steppedProbe(const LayerInputs &in, Trace &trace, Report &report)
{
    LogHistogram ticks;
    // clock_reads: loop time outside the ticks themselves, i.e. the cost
    // of timing each tick, kept out of the loop share.
    double construct = 0, reset = 0, mem_fin = 0, avf_fin = 0, whole = 0,
           clock_reads = 0;
    std::uint64_t cycles = 0, committed = 0, fetched = 0, dead = 0,
                  resolved = 0;
    HitMiss il1, dl1, l2, dtlb;

    for (std::size_t i = 0; i < in.stepped.size(); ++i) {
        const Experiment &e = in.stepped[i];
        const auto run = static_cast<std::int64_t>(i);
        Span whole_span(trace, "sim.stepped_run", run);

        Span ctor(trace, "sim.construct", run);
        Simulator sim(e.cfg, e.mix);
        construct += ctor.stop();
        if (in.warmup) {
            Span restore(trace, "ckpt.restore", run);
            sim.restore(*in.warmup);
        }

        SmtCore &core = sim.core();
        const Counters before = Counters::read(sim);
        const std::uint64_t start = core.totalCommitted();
        const std::uint64_t target = start + e.budget;
        const double ticked = ticks.totalNs();
        Span loop_span(trace, "core.tick_loop", run);
        while (core.totalCommitted() < target) {
            const auto t0 = std::chrono::steady_clock::now();
            core.tick();
            ticks.add(nanos(std::chrono::steady_clock::now() - t0));
        }
        clock_reads += loop_span.stop() - (ticks.totalNs() - ticked) * 1e-9;

        // The finalize sequence of Simulator::run(), in its order.
        const Cycle end = core.now();
        Span core_fin(trace, "avf.finalize", run);
        core.finalizeAvf();
        avf_fin += core_fin.stop();
        Span hier_fin(trace, "mem.finalize", run);
        sim.hierarchy().finalize(end);
        mem_fin += hier_fin.stop();
        Span ledger_fin(trace, "avf.finalize", run);
        sim.ledger().finalize(end);
        const AvfReport avf = AvfReport::fromLedger(sim.ledger());
        avf_fin += ledger_fin.stop();
        whole += whole_span.stop();

        const Counters after = Counters::read(sim);
        const Cycle window = end - sim.ledger().baseCycle();
        const std::uint64_t done = core.totalCommitted() - start;
        const SimResult &ref = in.steppedRef[i];
        if (window != ref.cycles || done != ref.totalCommitted ||
            !sameAvf(avf, ref.avf))
            report.fail("stepped replay diverged from Simulator::run on " +
                        e.label + " (trace void)");
        cycles += window;
        committed += done;
        fetched += after.fetched - before.fetched;
        dead += after.dead - before.dead;
        resolved += after.resolved - before.resolved;
        il1.hits += after.il1h - before.il1h;
        il1.misses += after.il1m - before.il1m;
        dl1.hits += after.dl1h - before.dl1h;
        dl1.misses += after.dl1m - before.dl1m;
        l2.hits += after.l2h - before.l2h;
        l2.misses += after.l2m - before.l2m;
        dtlb.hits += after.dtlbh - before.dtlbh;
        dtlb.misses += after.dtlbm - before.dtlbm;

        Span reset_span(trace, "sim.reset", run);
        sim.reset(e.cfg, e.mix);
        reset += reset_span.stop();
    }
    trace.aggregate("core.tick", ticks);

    const double n = static_cast<double>(in.stepped.size());
    report.histograms["core.tick_ns"] = ticks.buckets();
    report.layers["core.cycles"] = static_cast<double>(cycles);
    report.layers["core.committed"] = static_cast<double>(committed);
    report.layers["core.commit_yield"] =
        static_cast<double>(committed) / static_cast<double>(fetched);
    report.layers["core.ipc"] =
        static_cast<double>(committed) / static_cast<double>(cycles);
    report.layers["mem.il1_miss_rate"] = il1.rate();
    report.layers["mem.dl1_miss_rate"] = dl1.rate();
    report.layers["mem.l2_miss_rate"] = l2.rate();
    report.layers["mem.dtlb_miss_rate"] = dtlb.rate();
    report.layers["mem.finalize_us"] = mem_fin / n * 1e6;
    report.layers["avf.dead_fraction"] =
        static_cast<double>(dead) / static_cast<double>(resolved);
    report.layers["avf.finalize_us"] = avf_fin / n * 1e6;
    report.layers["sim.construct_ms"] = construct / n * 1e3;
    report.layers["sim.reset_ms"] = reset / n * 1e3;
    report.layers["sim.loop_share"] =
        ticks.totalNs() * 1e-9 / (whole - clock_reads);
    return whole;
}

void
streamProbe(const LayerInputs &in, Trace &trace, Report &report)
{
    // Enough instructions per thread that each timing spans milliseconds.
    constexpr std::uint64_t kInstrs = 200'000;
    const Experiment &e = in.rep;
    const unsigned threads = e.cfg.contexts;

    struct MemOp
    {
        Addr addr;
        std::uint32_t size;
        bool load;
    };
    std::vector<std::vector<DynInstr>> branches(threads);
    std::vector<std::vector<MemOp>> mem_ops(threads);
    double gen_s = 0.0;
    std::uint64_t checksum = 0;
    for (unsigned t = 0; t < threads; ++t) {
        const auto &profile = findProfile(e.mix.benchmarks[t]);
        const auto tid = static_cast<ThreadId>(t);
        {
            StreamGenerator gen(profile, e.cfg.seed, tid);
            Span span(trace, "workload.generate", t);
            for (std::uint64_t i = 0; i < kInstrs; ++i) {
                checksum += gen.at(i).pc;
                gen.retireBelow(i);
            }
            gen_s += span.stop();
        }
        // The same stream again, untimed, keeping what the next two
        // probes consume.
        StreamGenerator gen(profile, e.cfg.seed, tid);
        for (std::uint64_t i = 0; i < kInstrs; ++i) {
            const DynInstr &d = gen.at(i);
            if (d.isBranch())
                branches[t].push_back(d);
            else if (d.isMem())
                mem_ops[t].push_back(
                    {d.memAddr, d.memSize, d.op == OpClass::Load});
            gen.retireBelow(i);
        }
    }
    if (checksum == 0)
        report.fail("stream probe generated an empty stream");

    double branch_s = 0.0;
    std::uint64_t branch_count = 0, mispredicts = 0;
    for (unsigned t = 0; t < threads; ++t) {
        ThreadPredictor pred(e.cfg.branch);
        Span span(trace, "branch.predict_train", t);
        for (DynInstr &d : branches[t]) {
            pred.predict(d);
            pred.train(d);
        }
        branch_s += span.stop();
        branch_count += pred.branches();
        mispredicts += pred.mispredicts();
    }

    // The threads' memory operations, interleaved round-robin as SMT
    // contexts share the hierarchy, one cycle per round.
    MemHierarchy hier(e.cfg.mem);
    std::uint64_t accesses = 0;
    Cycle now = 0;
    Span mem_span(trace, "mem.access", -1);
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (unsigned t = 0; t < threads; ++t) {
            if (i >= mem_ops[t].size())
                continue;
            const MemOp &m = mem_ops[t][i];
            const auto tid = static_cast<ThreadId>(t);
            if (m.load)
                hier.load(tid, m.addr, m.size, now);
            else
                hier.storeCommit(tid, m.addr, m.size, now);
            ++accesses;
            any = true;
        }
        if (!any)
            break;
        hier.tick(now++);
    }
    const double mem_s = mem_span.stop();

    report.layers["workload.gen_ns_per_instr"] =
        gen_s * 1e9 / static_cast<double>(kInstrs * threads);
    report.layers["branch.mispredict_rate"] =
        static_cast<double>(mispredicts) / static_cast<double>(branch_count);
    report.layers["branch.ns_per_branch"] =
        branch_s * 1e9 / static_cast<double>(branch_count);
    report.layers["mem.ns_per_load"] =
        mem_s * 1e9 / static_cast<double>(accesses);
}

void
journalProbe(const Options &opt, const LayerInputs &in, Trace &trace,
             Report &report)
{
    // A fixed record count, so append and load times compare across
    // workloads with different numbers of runs.
    constexpr std::size_t kAppends = 512;
    const std::string path = opt.scratch + "/probe.journal";
    std::remove(path.c_str());

    std::vector<std::uint64_t> fps;
    for (const auto &e : in.runs)
        fps.push_back(experimentFingerprint(e));
    double append_s = 0.0;
    {
        RunJournal journal(path);
        Span span(trace, "journal.append", -1);
        for (std::size_t k = 0; k < kAppends; ++k) {
            const std::size_t i = k % in.runs.size();
            journal.append(fps[i], in.results[i]);
        }
        append_s = span.stop();
    }
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    const double bytes = static_cast<double>(file.tellg());

    Span load_span(trace, "journal.load", -1);
    const auto loaded = loadJournal(path);
    const double load_s = load_span.stop();
    for (std::size_t i = 0; i < in.runs.size(); ++i) {
        auto it = loaded.find(fps[i]);
        if (it == loaded.end() || serializeRun(fps[i], it->second) !=
                                      serializeRun(fps[i], in.results[i])) {
            report.fail("journal probe: record of " + in.runs[i].label +
                        " did not round-trip");
            break;
        }
    }
    std::remove(path.c_str());

    report.layers["journal.append_us"] = append_s / kAppends * 1e6;
    report.layers["journal.bytes_per_run"] = bytes / kAppends;
    report.layers["journal.load_ms"] = load_s * 1e3;
}

void
isolateProbe(const LayerInputs &in, Trace &trace, Report &report)
{
    // Enough children that the tail (ten samples beyond it) is a p84.
    constexpr std::size_t kChildren = 64;
    constexpr std::size_t kBatch = 64;
    const std::size_t n = in.results.size();
    auto same = [&](const SimResult &a, std::size_t i) {
        return serializeRun(0, a) == serializeRun(0, in.results[i % n]);
    };

    std::vector<double> child_ms;
    for (std::size_t k = 0; k < kChildren; ++k) {
        const SimResult &r = in.results[k % n];
        Span span(trace, "isolate.child", static_cast<std::int64_t>(k));
        ChildOutcome co = runInChild([&] { return r; }, ChildLimits{});
        child_ms.push_back(span.stop() * 1e3);
        if (co.kind != ChildOutcome::Kind::Result || !same(co.result, k))
            report.fail("isolate probe: child " + std::to_string(k) +
                        " did not return its result intact");
    }

    Span batch_span(trace, "isolate.batch", -1);
    ChildBatchOutcome bo = runBatchInChild(
        kBatch, [&](std::size_t k) { return in.results[k % n]; },
        ChildLimits{});
    const double batch_s = batch_span.stop();
    bool intact = bo.allReported() && !bo.childDied;
    for (std::size_t k = 0; intact && k < kBatch; ++k)
        intact = bo.runs[k].kind == ChildOutcome::Kind::Result &&
                 same(bo.runs[k].result, k);
    if (!intact)
        report.fail("isolate probe: batched child lost or changed a result");

    report.dists["isolate.child_ms"] = child_ms;
    report.layers["isolate.batch_run_us"] = batch_s / kBatch * 1e6;
}

void
ckptProbe(const LayerInputs &in, std::uint64_t warmup, Trace &trace,
          Report &report)
{
    constexpr int kRepeats = 5;
    const Experiment &e = in.rep;
    Checkpoint ck;
    double capture_s = 0.0;
    {
        Simulator sim(e.cfg, e.mix);
        Span span(trace, "ckpt.capture", -1);
        ck = sim.captureWarmupCheckpoint(warmup);
        capture_s = span.stop();
    }

    std::vector<double> restore_s, encode_s, decode_s;
    std::string bytes;
    for (int k = 0; k < kRepeats; ++k) {
        Simulator sim(e.cfg, e.mix);
        Span restore(trace, "ckpt.restore", k);
        sim.restore(ck);
        restore_s.push_back(restore.stop());

        Span encode(trace, "ckpt.encode", k);
        bytes = encodeCheckpoint(ck);
        encode_s.push_back(encode.stop());

        Span decode(trace, "ckpt.decode", k);
        const Checkpoint back = decodeCheckpoint(bytes);
        decode_s.push_back(decode.stop());
        if (back.payload != ck.payload ||
            back.configFingerprint != ck.configFingerprint)
            report.fail("ckpt probe: decode(encode(c)) != c");
    }

    report.layers["ckpt.capture_ms"] = capture_s * 1e3;
    report.layers["ckpt.payload_kb"] =
        static_cast<double>(ck.payload.size()) / 1024.0;
    report.layers["ckpt.restore_ms"] = median(restore_s) * 1e3;
    report.layers["ckpt.encode_ms"] = median(encode_s) * 1e3;
    report.layers["ckpt.decode_ms"] = median(decode_s) * 1e3;
}

void
protectLayers(const ExplorationResult &res, Report &report)
{
    report.layers["protect.evaluations"] =
        static_cast<double>(res.evaluations);
    report.layers["protect.pruned"] = static_cast<double>(res.prunedCount);
    report.layers["protect.frontier"] =
        static_cast<double>(res.frontier.size());
}

double
runIps(const Experiment &e)
{
    Simulator sim(e.cfg, e.mix);
    const double c0 = threadCpuNow();
    const SimResult r = sim.run(e.budget);
    return static_cast<double>(r.totalCommitted) / (threadCpuNow() - c0);
}

} // namespace perfbench
