/**
 * @file
 * The smtavf command-line tool. `run` (the default) simulates one workload
 * mix under one fetch policy and prints the performance/AVF summary, as
 * a table, CSV or JSON; `campaign` fans an experiment list over a
 * fault-tolerant worker pool with a resumable journal
 * (docs/ROBUSTNESS.md); `protect` attaches protection schemes and reports
 * residual AVF and cost, or searches assignments for the Pareto frontier
 * (docs/PROTECTION.md); `merge-journals` and `journal fsck` maintain
 * campaign journals. Every flag of run, campaign and protect is a row of
 * the table in cli/options.hh, which also generates `--help`:
 *   smtavf_cli --mix 4ctx-mem-A --policy FLUSH --instructions 400000
 *   smtavf_cli campaign --contexts 4 --policy all --journal runs.journal
 *   smtavf_cli protect --mix 4ctx-mem-A --explore --jobs 4
 *
 * Exit codes: 0 success; 1 the simulation itself failed (livelock,
 * invariant violation); 2 bad usage or configuration; 3 a campaign
 * completed but some runs did not produce results; 4 a checkpoint was
 * rejected. 130 on forced SIGINT.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/logging.hh"
#include "base/table.hh"
#include "cli/options.hh"
#include "ckpt/checkpoint.hh"
#include "metrics/metrics.hh"
#include "protect/cost.hh"
#include "protect/explorer.hh"
#include "protect/scheme.hh"
#include "sim/campaign.hh"
#include "sim/config.hh"
#include "sim/errors.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"

namespace
{

using namespace smtavf;

/** --help: the text generated from the flag table (cli/options.hh). */
int
printHelp()
{
    std::fputs(cliHelp().c_str(), stdout);
    return 0;
}

/** Usage and configuration mistakes exit 2, distinct from sim failures. */
[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "smtavf_cli: %s\n", msg.c_str());
    std::exit(2);
}

/** The Table-1 machine for @p mix under @p o's policy and PRAT knobs. */
MachineConfig
machineFor(const WorkloadMix &mix, const CliCommon &o, std::uint64_t seed)
{
    MachineConfig cfg = table1Config(mix.contexts);
    parseFetchPolicy(o.policyName, cfg.fetchPolicy); // checked by parse*Cli
    cfg.seed = seed;
    cfg.pratEpoch = o.pratEpoch;
    cfg.pratCap = static_cast<std::uint32_t>(o.pratCap);
    return cfg;
}

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

/**
 * Full single-run result as JSON: run summary, per-thread IPC, every
 * tracked structure's raw/residual AVF with its protection scheme, and
 * the auxiliary statistics. Structures that never held state are
 * skipped, matching the CSV and table output.
 */
void
printResultJson(const SimResult &r, const ProtectionConfig &prot)
{
    std::printf("{\n");
    std::printf("  \"mix\": %s,\n", jsonStr(r.mixName).c_str());
    std::printf("  \"policy\": %s,\n", jsonStr(r.policyName).c_str());
    std::printf("  \"ipc\": %.6f,\n", r.ipc);
    std::printf("  \"cycles\": %llu,\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("  \"instructions\": %llu,\n",
                static_cast<unsigned long long>(r.totalCommitted));
    std::printf("  \"protection\": %s,\n", jsonStr(prot.str()).c_str());

    std::printf("  \"threads\": [");
    for (std::size_t i = 0; i < r.threads.size(); ++i) {
        const auto &t = r.threads[i];
        std::printf("%s\n    {\"benchmark\": %s, \"ipc\": %.6f, "
                    "\"committed\": %llu}",
                    i ? "," : "", jsonStr(t.benchmark).c_str(), t.ipc,
                    static_cast<unsigned long long>(t.committed));
    }
    std::printf("\n  ],\n");

    std::printf("  \"structures\": [");
    bool first = true;
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (r.avf.occupancy(s) == 0.0 && r.avf.avf(s) == 0.0)
            continue;
        std::printf("%s\n    {\"name\": %s, \"scheme\": %s, "
                    "\"avf\": %.6f, \"residual_avf\": %.6f, "
                    "\"occupancy\": %.6f, \"mitf\": %.4f, \"thread_avf\": [",
                    first ? "" : ",", jsonStr(hwStructName(s)).c_str(),
                    jsonStr(protSchemeName(prot.schemeFor(s))).c_str(),
                    r.avf.avf(s), r.avf.residualAvf(s), r.avf.occupancy(s),
                    r.mitf(s));
        for (unsigned tid = 0; tid < r.avf.numThreads(); ++tid)
            std::printf("%s%.6f", tid ? ", " : "",
                        r.avf.threadAvf(s, static_cast<ThreadId>(tid)));
        std::printf("]}");
        first = false;
    }
    std::printf("\n  ],\n");

    std::printf("  \"stats\": {");
    first = true;
    for (const auto &[name, value] : r.stats.all()) {
        std::printf("%s\n    %s: %.6f", first ? "" : ",",
                    jsonStr(name).c_str(), value);
        first = false;
    }
    std::printf("\n  }\n}\n");
}

/**
 * First Ctrl-C asks the campaign to stop dispatching and drain (the
 * journal keeps everything already finished); the second aborts hard.
 * Only async-signal-safe calls here.
 */
std::atomic<bool> interrupted{false};

extern "C" void
onSigint(int)
{
    if (interrupted.exchange(true)) {
        const char hard[] = "\nsmtavf_cli: hard exit\n";
        [[maybe_unused]] auto n = write(STDERR_FILENO, hard, sizeof(hard) - 1);
        killLiveChildren(); // no orphaned --isolate=process simulations
        _exit(130);
    }
    const char soft[] =
        "\nsmtavf_cli: stopping dispatch, draining in-flight runs "
        "(Ctrl-C again to abort)\n";
    [[maybe_unused]] auto n = write(STDERR_FILENO, soft, sizeof(soft) - 1);
}

int
campaignMain(const std::vector<std::string> &args)
{
    CampaignCliOptions co;
    std::string err;
    if (!parseCampaignCli(args, co, err))
        die(err);
    if (co.help)
        return printHelp();

    // parseCampaignCli admits a policy name or "all".
    FetchPolicyKind policy;
    std::vector<FetchPolicyKind> policies =
        parseFetchPolicy(co.policyName, policy)
            ? std::vector<FetchPolicyKind>{policy}
            : allFetchPolicies();

    std::vector<WorkloadMix> mixes;
    if (!co.mixNames.empty()) {
        for (const auto &name : co.mixNames)
            mixes.push_back(findMix(name));
    } else {
        for (const auto &m : allMixes())
            if (co.contexts == 0 || m.contexts == co.contexts)
                mixes.push_back(m);
    }

    std::vector<Experiment> exps;
    for (const auto &mix : mixes)
        for (auto policy : policies)
            exps.push_back(makeExperiment(mix, policy, co.instructions));
    for (auto &e : exps) {
        e.warmup = co.warmup;
        // Inert (and fingerprint-excluded) unless the run's policy is PRAT.
        e.cfg.pratEpoch = co.pratEpoch;
        e.cfg.pratCap = static_cast<std::uint32_t>(co.pratCap);
    }
    if (co.gave("--master-seed"))
        deriveSeeds(exps, co.masterSeed);
    // Shard after seed derivation: a run's seed depends on its index in
    // the full campaign, so every shard executes exactly the runs an
    // unsharded campaign would — which is what makes the shard journals
    // mergeable (see merge-journals).
    if (co.shard.count > 0) {
        exps = shardExperiments(exps, co.shard.index, co.shard.count);
        if (exps.empty())
            die("shard " + std::to_string(co.shard.index) + "/" +
                std::to_string(co.shard.count) + " selects no runs");
    }

    // Reject a bad configuration before spinning up the pool: every
    // experiment must pass the same validation a Simulator would apply.
    for (const auto &e : exps)
        if (auto msg = e.cfg.validateMsg(); !msg.empty())
            die("invalid configuration for " + e.label + ": " + msg);

    CampaignOptions opt = co.campaign;
    opt.cancel = &interrupted;
    std::signal(SIGINT, onSigint);

    CampaignRunner pool(co.jobs);
    std::printf("campaign: %zu runs on %u workers\n", exps.size(),
                pool.jobs());

    auto t0 = std::chrono::steady_clock::now();
    auto report = runTolerant(pool, exps, opt,
                              [](const CampaignProgress &p) {
        if (p.result) {
            std::printf("[%3zu/%zu] %-22s IPC %.3f  %6.2fs%s\n", p.completed,
                        p.total, p.experiment->label.c_str(), p.result->ipc,
                        p.seconds,
                        p.outcome && p.outcome->fromJournal ? "  (journal)"
                                                            : "");
        } else {
            std::printf("[%3zu/%zu] %-22s %s\n", p.completed, p.total,
                        p.experiment->label.c_str(),
                        p.outcome ? runStatusName(p.outcome->status)
                                  : "failed");
        }
        std::fflush(stdout);
    });
    std::signal(SIGINT, SIG_DFL);
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    std::printf("campaign finished in %.2fs\n\n", dt.count());

    if (co.csv) {
        // campaignCsv keeps every row at full arity: failed/timed-out/
        // quarantined runs get empty metric cells plus the error column
        // instead of a short (ragged) row.
        std::fputs(campaignCsv(exps, report).c_str(), stdout);
    } else {
        std::vector<std::string> header = {"experiment", "IPC"};
        for (auto s : AvfReport::figureStructs())
            header.push_back(hwStructName(s));
        TextTable t(std::move(header));
        for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
            const RunOutcome &o = report.outcomes[i];
            std::vector<std::string> row = {exps[i].label};
            if (o.status == RunStatus::Ok) {
                row.push_back(TextTable::num(o.result.ipc, 3));
                for (auto s : AvfReport::figureStructs())
                    row.push_back(TextTable::pct(o.result.avf.avf(s), 1));
            } else {
                row.push_back(runStatusName(o.status));
                for (std::size_t c = 0; c < AvfReport::figureStructs().size();
                     ++c)
                    row.push_back("-");
            }
            t.addRow(std::move(row));
        }
        std::fputs(t.str().c_str(), stdout);
    }

    if (!report.allOk()) {
        std::fputs("\n", stderr);
        std::fputs(report.failureReport().c_str(), stderr);
        if (!opt.journalPath.empty())
            std::fprintf(stderr,
                         "finished runs are journaled; resume with:\n"
                         "  smtavf_cli campaign ... --journal %s --resume\n",
                         opt.journalPath.c_str());
        return 3;
    }
    return 0;
}

int
protectMain(const std::vector<std::string> &args)
{
    ProtectCliOptions po;
    std::string err;
    if (!parseProtectCli(args, po, err))
        die(err);
    if (po.help)
        return printHelp();

    const auto &mix = findMix(po.mixName);
    MachineConfig cfg = machineFor(mix, po, po.seed);

    ProtectionConfig prot;
    prot.scrubInterval = po.scrubInterval;
    if (!po.schemeName.empty()) {
        ProtScheme s;
        if (!parseProtScheme(po.schemeName, s))
            die("unknown scheme: " + po.schemeName +
                " (none parity secded secded+scrub)");
        prot = uniformProtection(s, po.scrubInterval);
    }
    if (!po.assignSpec.empty()) {
        std::string aerr;
        if (!parseAssignment(po.assignSpec, prot, aerr))
            die("bad --assign: " + aerr);
    }
    cfg.protection = prot;
    if (auto msg = cfg.validateMsg(); !msg.empty())
        die("invalid configuration: " + msg);

    if (!po.explore.empty()) {
        ProtectionExplorer explorer(cfg, mix, po.instructions);
        CampaignRunner pool(po.jobs);
        ExplorationResult result = explorer.exploreBeam(pool, po.beam);
        if (po.json) {
            std::fputs(result.json().c_str(), stdout);
        } else if (po.csv) {
            std::fputs(result.csv().c_str(), stdout);
        } else {
            std::fputs("hotspot priority (raw AVF, descending):", stdout);
            for (auto s : result.priority)
                std::printf(" %s", hwStructName(s));
            std::printf("\n\n%llu assignments evaluated (%llu from the "
                        "journal, %llu pruned unsimulated), %zu on the "
                        "Pareto frontier:\n",
                        static_cast<unsigned long long>(result.evaluations),
                        static_cast<unsigned long long>(result.journalHits),
                        static_cast<unsigned long long>(result.prunedCount),
                        result.frontier.size());
            std::fputs(result.table().c_str(), stdout);
            for (const auto &w : result.warnings)
                std::fprintf(stderr, "warning: %s\n", w.c_str());
        }
        return 0;
    }

    Simulator sim(cfg, mix);
    RunControls rc;
    rc.warmup = po.beam.warmup;
    SimResult r = sim.run(
        po.instructions ? po.instructions : defaultBudget(mix.contexts), rc);
    const auto bits = structureBitCapacities(cfg);
    auto cost = protectionCost(cfg);

    if (po.json) {
        printResultJson(r, prot);
        return 0;
    }
    if (po.csv) {
        std::puts("structure,scheme,avf,residual_avf,occupancy,mitf");
        for (std::size_t i = 0; i < numHwStructs; ++i) {
            auto s = static_cast<HwStruct>(i);
            if (r.avf.occupancy(s) == 0.0 && r.avf.avf(s) == 0.0)
                continue;
            std::printf("%s,%s,%.6f,%.6f,%.6f,%.4f\n", hwStructName(s),
                        protSchemeName(prot.schemeFor(s)), r.avf.avf(s),
                        r.avf.residualAvf(s), r.avf.occupancy(s), r.mitf(s));
        }
        return 0;
    }

    std::printf("%s under %s with %s: IPC %.3f over %llu cycles\n",
                r.mixName.c_str(), r.policyName.c_str(), prot.str().c_str(),
                r.ipc, static_cast<unsigned long long>(r.cycles));
    TextTable t({"structure", "scheme", "AVF", "residual", "occupancy"});
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (r.avf.occupancy(s) == 0.0 && r.avf.avf(s) == 0.0)
            continue;
        t.addRow({hwStructName(s), protSchemeName(prot.schemeFor(s)),
                  TextTable::pct(r.avf.avf(s), 2),
                  TextTable::pct(r.avf.residualAvf(s), 2),
                  TextTable::pct(r.avf.occupancy(s), 2)});
    }
    std::fputs(t.str().c_str(), stdout);
    std::printf("\nprotected %llu of %llu tracked bits\n"
                "area overhead   %5.2f%%\n"
                "energy overhead %5.2f%%\n"
                "SER proxy       %.4f raw -> %.4f residual\n",
                static_cast<unsigned long long>(cost.protectedBits),
                static_cast<unsigned long long>(cost.totalBits),
                100 * cost.areaOverhead, 100 * cost.energyOverhead,
                serProxy(r.avf, bits, false), serProxy(r.avf, bits, true));
    return 0;
}

int
runMain(const std::vector<std::string> &args)
{
    RunCliOptions ro;
    std::string err;
    if (!parseRunCli(args, ro, err))
        die(err);
    if (ro.help)
        return printHelp();
    if (ro.list) {
        std::puts("mixes:");
        for (const auto &m : allMixes())
            std::printf("  %-12s (%u contexts, %s)\n", m.name.c_str(),
                        m.contexts, mixTypeName(m.type));
        std::puts("policies:");
        for (auto kind : allFetchPolicies())
            std::printf("  %s\n", fetchPolicyName(kind));
        return 0;
    }
    if (ro.table1) {
        std::fputs(table1String(table1Config(4)).c_str(), stdout);
        return 0;
    }

    const auto &mix = findMix(ro.mixName);
    MachineConfig cfg = machineFor(mix, ro, ro.seed);
    cfg.iqPartitioned = ro.iqPartition;
    cfg.avf = ro.avf;
    cfg.prewarmCaches = ro.prewarm;
    cfg.avfSampleCycles =
        ro.timelineCsv && ro.sample == 0 ? 5000 : ro.sample;
    if (auto msg = cfg.validateMsg(); !msg.empty())
        die("invalid configuration: " + msg);

    if (ro.replicas > 1) {
        auto runs = runMixReplicated(cfg, mix, ro.replicas, ro.instructions);
        auto perf = ipcStats(runs);
        std::printf("%s under %s, %u seeds: IPC %.3f +/- %.3f\n",
                    mix.name.c_str(), fetchPolicyName(cfg.fetchPolicy),
                    ro.replicas,
                    perf.mean, perf.std);
        std::puts("structure  mean AVF  +/-");
        for (auto s : AvfReport::figureStructs()) {
            auto st = avfStats(runs, s);
            std::printf("%-9s  %6.2f%%  %5.2f%%\n", hwStructName(s),
                        100 * st.mean, 100 * st.std);
        }
        return 0;
    }

    std::uint64_t budget =
        ro.instructions ? ro.instructions : defaultBudget(mix.contexts);
    Simulator sim(cfg, mix);
    if (!ro.restorePath.empty()) {
        sim.restore(loadCheckpointFile(ro.restorePath));
        // --instructions stays the run's *total* commit target, so a
        // restored run reports exactly what the uninterrupted run would;
        // only the remainder is simulated.
        if (budget <= sim.restoredCommitted())
            die("--instructions " + std::to_string(budget) +
                " does not exceed the checkpoint's committed count (" +
                std::to_string(sim.restoredCommitted()) + ")");
        budget -= sim.restoredCommitted();
    }
    SimResult r = sim.run(budget, ro.controls);

    if (ro.json) {
        printResultJson(r, cfg.protection);
    } else if (ro.csv) {
        std::puts("structure,avf,occupancy,mitf");
        for (std::size_t i = 0; i < numHwStructs; ++i) {
            auto s = static_cast<HwStruct>(i);
            if (r.avf.occupancy(s) == 0.0 && r.avf.avf(s) == 0.0)
                continue;
            std::printf("%s,%.6f,%.6f,%.4f\n", hwStructName(s),
                        r.avf.avf(s), r.avf.occupancy(s), r.mitf(s));
        }
    } else {
        std::printf("%s under %s: IPC %.3f over %llu cycles "
                    "(%llu instructions)\n",
                    r.mixName.c_str(), r.policyName.c_str(), r.ipc,
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.totalCommitted));
        for (const auto &t : r.threads)
            std::printf("  %-10s IPC %.3f\n", t.benchmark.c_str(), t.ipc);
        std::puts("");
        std::fputs(r.avf.str().c_str(), stdout);
        std::puts("");
        for (const auto &[name, value] : r.stats.all())
            std::printf("  %-24s %.4f\n", name.c_str(), value);
    }

    if (ro.controls.avfInterval > 0 && r.avfIntervals) {
        if (!ro.avfIntervalCsv.empty() && ro.avfIntervalCsv != "-") {
            std::FILE *f = std::fopen(ro.avfIntervalCsv.c_str(), "w");
            if (!f)
                die("cannot write " + ro.avfIntervalCsv);
            std::fputs(r.avfIntervals->csv().c_str(), f);
            std::fclose(f);
        } else {
            std::puts("");
            std::fputs(r.avfIntervals->csv().c_str(), stdout);
        }
    }

    if (ro.timelineCsv && r.timeline) {
        std::puts("\nwindow,IQ,Reg,FU,ROB,DL1_data,DL1_tag");
        for (const auto &row : r.timeline->data()) {
            std::printf("%llu", static_cast<unsigned long long>(row.index));
            for (auto s : {HwStruct::IQ, HwStruct::RegFile, HwStruct::FU,
                           HwStruct::ROB, HwStruct::Dl1Data,
                           HwStruct::Dl1Tag})
                std::printf(",%.6f", row.avf[static_cast<std::size_t>(s)]);
            std::puts("");
        }
    }
    return 0;
}

int
mergeJournalsMain(int argc, char **argv)
{
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            return printHelp();
        } else if (arg == "--out") {
            if (i + 1 >= argc)
                die("--out needs a file name");
            out_path = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            die("unknown merge-journals option: " + arg);
        } else {
            inputs.push_back(arg);
        }
    }
    if (out_path.empty())
        die("merge-journals needs --out FILE");
    if (inputs.empty())
        die("merge-journals needs at least one input journal");

    // CRC-verify every input before merging: silently folding a corrupt
    // shard into a resume journal would launder bad bytes into results.
    std::vector<std::string> corruption;
    std::size_t n = mergeJournals(inputs, out_path, &corruption);
    if (!corruption.empty()) {
        std::fprintf(stderr,
                     "smtavf_cli: refusing to merge: %zu corrupt "
                     "record%s\n",
                     corruption.size(), corruption.size() == 1 ? "" : "s");
        for (const auto &c : corruption)
            std::fprintf(stderr, "  %s\n", c.c_str());
        std::fprintf(stderr,
                     "repair damaged tails with: smtavf_cli journal fsck "
                     "--repair FILE\n");
        return 3;
    }
    std::printf("merged %zu journal%s into %s: %zu unique run%s\n",
                inputs.size(), inputs.size() == 1 ? "" : "s",
                out_path.c_str(), n, n == 1 ? "" : "s");
    return 0;
}

int
journalFsckMain(int argc, char **argv)
{
    bool repair = false;
    std::string path;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            return printHelp();
        } else if (arg == "--repair") {
            repair = true;
        } else if (!arg.empty() && arg[0] == '-') {
            die("unknown journal fsck option: " + arg);
        } else if (path.empty()) {
            path = arg;
        } else {
            die("journal fsck checks exactly one journal");
        }
    }
    if (path.empty())
        die("journal fsck needs a journal file");

    JournalFsck fsck = fsckJournal(path);
    std::printf("%s: %zu run record%s, %zu comment line%s\n", path.c_str(),
                fsck.records, fsck.records == 1 ? "" : "s", fsck.comments,
                fsck.comments == 1 ? "" : "s");
    if (fsck.clean()) {
        std::printf("journal is clean\n");
        return 0;
    }
    for (const auto &iss : fsck.issues)
        std::printf("  line %zu @ byte %llu: %s\n", iss.line,
                    static_cast<unsigned long long>(iss.offset),
                    iss.reason.c_str());
    if (!fsck.tailOnly) {
        std::printf("damage is not confined to the tail; --repair cannot "
                    "fix this journal\n");
        return 3;
    }
    if (!repair) {
        std::printf("damaged tail (crash mid-append); rerun with --repair "
                    "to truncate at byte %llu\n",
                    static_cast<unsigned long long>(fsck.truncateOffset));
        return 3;
    }
    if (!repairJournalTail(path, fsck))
        die("failed to truncate " + path);
    std::printf("truncated damaged tail at byte %llu; %zu intact "
                "record%s kept\n",
                static_cast<unsigned long long>(fsck.truncateOffset),
                fsck.records, fsck.records == 1 ? "" : "s");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Redirect fatal/panic into exceptions so a config mistake deep in
    // construction surfaces as a clean message + exit code instead of
    // std::exit mid-library. runTolerant() installs its own redirect for
    // campaign workers; this one covers single-run mode.
    setLoggingThrows(true);
    const std::vector<std::string> rest(argv + std::min(argc, 2), argv + argc);
    try {
        if (argc > 1 && std::strcmp(argv[1], "campaign") == 0)
            return campaignMain(rest);
        if (argc > 1 && std::strcmp(argv[1], "protect") == 0)
            return protectMain(rest);
        if (argc > 1 && std::strcmp(argv[1], "merge-journals") == 0)
            return mergeJournalsMain(argc, argv);
        if (argc > 1 && std::strcmp(argv[1], "journal") == 0) {
            if (argc > 2 && std::strcmp(argv[2], "fsck") == 0)
                return journalFsckMain(argc, argv);
            die("unknown journal subcommand (try: journal fsck FILE)");
        }
        // `run` is an explicit alias of the default single-run mode, so
        // checkpoint examples read naturally: smtavf_cli run --restore F.
        if (argc > 1 && std::strcmp(argv[1], "run") == 0)
            return runMain(rest);
        return runMain(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const LivelockError &e) {
        std::fprintf(stderr, "smtavf_cli: %s\n", e.what());
        return 1;
    } catch (const SimulationError &e) {
        std::fprintf(stderr, "smtavf_cli: %s\n", e.what());
        return 1;
    } catch (const CheckpointError &e) {
        // Corrupt, truncated, or configuration-incompatible checkpoint:
        // a distinct exit code so scripted restore flows can tell "bad
        // checkpoint" from "bad flags" or "sim blew up".
        std::fprintf(stderr, "smtavf_cli: %s\n", e.what());
        return 4;
    } catch (const SimError &e) {
        // SMTAVF_FATAL/PANIC: configuration or usage problem.
        std::fprintf(stderr, "smtavf_cli: %s\n", e.message.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "smtavf_cli: unexpected error: %s\n", e.what());
        return 1;
    }
}
