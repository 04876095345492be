/**
 * @file
 * Adversarial flag vectors against the `protect` subcommand parser
 * (cli/options.hh) — the exact function the CLI calls, factored out
 * so malformed input can be proven to fail *before* any simulation
 * state exists. parseProtectCli returning false is what smtavf_cli maps
 * to exit code 2; the parser itself must never crash, never accept an
 * internally inconsistent option set, and always leave a diagnostic.
 *
 * Directed cases pin every rejection path; the randomized sweep throws
 * thousands of seeded token soups at the parser and checks the
 * postcondition invariants on whatever it accepts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.hh"
#include "cli/options.hh"
#include "sim/experiment.hh"

namespace smtavf
{
namespace
{

using Args = std::vector<std::string>;

/** Parse expecting rejection; the diagnostic must name the problem. */
void
expectReject(const Args &args, const std::string &err_substr)
{
    ProtectCliOptions out;
    std::string err;
    EXPECT_FALSE(parseProtectCli(args, out, err)) << "accepted bad args";
    EXPECT_NE(err.find(err_substr), std::string::npos)
        << "diagnostic '" << err << "' does not mention '" << err_substr
        << "'";
}

ProtectCliOptions
expectAccept(const Args &args)
{
    ProtectCliOptions out;
    std::string err;
    EXPECT_TRUE(parseProtectCli(args, out, err)) << err;
    EXPECT_TRUE(err.empty()) << "diagnostic on success: " << err;
    return out;
}

TEST(ProtectCliFuzz, MalformedNumbersAreRejectedNotTruncated)
{
    for (const char *bad : {"", "x", "12x", "-3", "3.5", "0x10", " 4",
                            "99999999999999999999999"}) {
        SCOPED_TRACE(std::string("value '") + bad + "'");
        expectReject({"--explore=beam", "--beam-width", bad}, "--beam-width");
        expectReject({"--explore=beam", "--generations", bad},
                     "--generations");
        expectReject({"--explore=beam", "--budget", bad}, "--budget");
        expectReject({"--scrub-interval", bad}, "--scrub-interval");
        expectReject({"--seed", bad}, "--seed");
        expectReject({"--instructions", bad}, "--instructions");
        expectReject({"--jobs", bad}, "--jobs");
    }
}

TEST(ProtectCliFuzz, MissingValuesAreRejected)
{
    for (const char *flag :
         {"--mix", "--policy", "--scheme", "--assign", "--journal",
          "--scrub-interval", "--seed", "--instructions", "--jobs",
          "--depth"}) {
        SCOPED_TRACE(flag);
        expectReject({flag}, flag);
    }
    expectReject({"--explore=beam", "--beam-width"}, "--beam-width");
    expectReject({"--explore=beam", "--generations"}, "--generations");
    expectReject({"--explore=beam", "--budget"}, "--budget");
}

TEST(ProtectCliFuzz, ZeroAndRangeViolationsAreRejected)
{
    expectReject({"--explore=beam", "--beam-width", "0"}, "--beam-width");
    expectReject({"--depth", "0"}, "--depth");
    expectReject({"--jobs", "0"}, "--jobs");
    expectReject({"--scrub-interval", "0"}, "--scrub-interval");
    expectReject({"--scrub-interval", "1073741825"}, "--scrub-interval");
    // 2^30 exactly is the inclusive ceiling.
    auto ok = expectAccept({"--scrub-interval", "1073741824"});
    EXPECT_EQ(ok.scrubInterval, std::uint64_t{1} << 30);
    // --generations 0 is legal: seeds only, no expansion.
    auto g0 = expectAccept({"--explore=beam", "--generations", "0"});
    EXPECT_EQ(g0.beam.generations, 0u);
}

TEST(ProtectCliFuzz, PratFlagsRejectMalformedAndMisboundValues)
{
    // Malformed numbers, never truncated.
    for (const char *bad : {"", "x", "12x", "-3", "3.5",
                            "99999999999999999999999"}) {
        SCOPED_TRACE(std::string("value '") + bad + "'");
        expectReject({"--policy", "PRAT", "--prat-epoch", bad},
                     "--prat-epoch");
        expectReject({"--policy", "PRAT", "--prat-cap", bad}, "--prat-cap");
    }
    expectReject({"--policy", "PRAT", "--prat-epoch"}, "--prat-epoch");
    expectReject({"--policy", "PRAT", "--prat-cap"}, "--prat-cap");
    // A zero epoch would never refresh the measured correction.
    expectReject({"--policy", "PRAT", "--prat-epoch", "0"}, "--prat-epoch");
    expectReject({"--policy", "PRAT", "--prat-epoch", "1073741825"},
                 "--prat-epoch");
    expectReject({"--policy", "PRAT", "--prat-cap", "1048577"},
                 "--prat-cap");
    // Inclusive ceilings parse; cap 0 = the derived RAT default.
    auto ok = expectAccept({"--policy", "PRAT", "--prat-epoch",
                            "1073741824", "--prat-cap", "1048576"});
    EXPECT_EQ(ok.pratEpoch, std::uint64_t{1} << 30);
    EXPECT_EQ(ok.pratCap, std::uint64_t{1} << 20);
    auto defaults = expectAccept({"--policy", "PRAT", "--prat-cap", "0"});
    EXPECT_EQ(defaults.pratCap, 0u);

    // The PRAT knobs bind to the PRAT policy; order must not matter.
    expectReject({"--prat-epoch", "512"}, "--policy PRAT");
    expectReject({"--prat-cap", "12"}, "--policy PRAT");
    expectReject({"--policy", "RAT", "--prat-epoch", "512"},
                 "--policy PRAT");
    expectReject({"--prat-cap", "12", "--policy", "ICOUNT"},
                 "--policy PRAT");
    expectReject({"--policy", "bogus", "--prat-epoch", "512"},
                 "--policy PRAT");
}

TEST(ProtectCliFuzz, UnknownModesAndFlagsAreRejected)
{
    expectReject({"--explore=bogus"}, "bogus");
    expectReject({"--explore="}, "explore mode");
    expectReject({"--explore=Beam"}, "Beam");    // modes are lower-case
    expectReject({"--explore=beam "}, "beam ");  // no trailing junk
    expectReject({"--frobnicate"}, "--frobnicate");
    expectReject({"--beamwidth", "4"}, "--beamwidth");
    expectReject({"protect"}, "protect"); // subcommand word not re-eaten
}

TEST(ProtectCliFuzz, CrossFlagConstraintsAreEnforced)
{
    expectReject({"--explore", "--scheme", "parity"}, "--scheme");
    expectReject({"--explore=beam", "--assign", "iq=parity"}, "--assign");
    expectReject({"--beam-width", "4"}, "--explore=beam");
    expectReject({"--explore", "--beam-width", "4"}, "--explore=beam");
    expectReject({"--explore=prefix", "--generations", "2"},
                 "--explore=beam");
    expectReject({"--budget", "10"}, "--explore=beam");
    expectReject({"--journal", "j.journal"}, "--explore=beam");
    expectReject({"--explore", "--journal", "j.journal"}, "--explore=beam");
    expectReject({"--explore=beam", "--resume"}, "--journal");
    expectReject({"--resume"}, "--journal");
    expectReject({"--explore", "--shared-warmup", "--warmup", "5"},
                 "--explore=beam");
    expectReject({"--explore=beam", "--shared-warmup"}, "--warmup");
    // Constraint checks run after the whole vector: order must not matter.
    expectReject({"--scheme", "parity", "--explore=beam"}, "--scheme");
    expectReject({"--generations", "2", "--explore=prefix"},
                 "--explore=beam");
}

TEST(ProtectCliFuzz, WellFormedVectorsParse)
{
    auto beam = expectAccept({"--mix", "2ctx-mix-A", "--explore=beam",
                              "--beam-width", "4", "--generations", "2",
                              "--budget", "100", "--journal", "b.journal",
                              "--resume", "--depth", "3", "--jobs", "2",
                              "--csv"});
    EXPECT_EQ(beam.explore, "beam");
    EXPECT_EQ(beam.beam.beamWidth, 4u);
    EXPECT_EQ(beam.beam.generations, 2u);
    EXPECT_EQ(beam.beam.evalBudget, 100u);
    EXPECT_EQ(beam.beam.journalPath, "b.journal");
    EXPECT_TRUE(beam.beam.resume);
    EXPECT_TRUE(beam.gave("--depth"));
    EXPECT_EQ(beam.beam.maxStructures, 3u);
    EXPECT_EQ(beam.beam.scrubLadder,
              ProtectionExplorer::defaultScrubLadder(10000));
    EXPECT_TRUE(beam.csv);
    // Without --depth the full search keeps its own default of 6.
    EXPECT_EQ(expectAccept({"--explore=beam"}).beam.maxStructures, 6u);

    // --explore and --explore=prefix are the search's generation 0 alone,
    // at one scrub rung: the requested interval.
    auto prefix = expectAccept({"--explore", "--depth", "2"});
    EXPECT_EQ(prefix.explore, "prefix");
    EXPECT_EQ(prefix.beam.generations, 0u);
    EXPECT_EQ(prefix.beam.maxStructures, 2u);
    EXPECT_EQ(prefix.beam.scrubLadder, std::vector<Cycle>{10000});
    auto bare = expectAccept({"--explore=prefix", "--scrub-interval", "500",
                              "--warmup", "7"});
    EXPECT_EQ(bare.explore, "prefix");
    EXPECT_EQ(bare.beam.generations, 0u);
    EXPECT_EQ(bare.beam.maxStructures, 4u); // --depth defaults to 4
    EXPECT_EQ(bare.beam.scrubLadder, std::vector<Cycle>{500});
    EXPECT_EQ(bare.beam.warmup, 7u);

    auto single = expectAccept({"--assign", "iq=secded+scrub@5000",
                                "--assign", "rob=parity"});
    EXPECT_TRUE(single.explore.empty());
    EXPECT_EQ(single.assignSpec, "iq=secded+scrub@5000,rob=parity");

    // --help short-circuits: junk after it is never reached, matching the
    // CLI's print-usage-and-exit-0 behavior.
    auto help = expectAccept({"--help", "--beam-width"});
    EXPECT_TRUE(help.help);
}

// Seeded token soup: the parser must never crash, reject with a
// diagnostic, or accept an option set violating its own invariants.
TEST(ProtectCliFuzz, RandomTokenSoupNeverCrashesOrLiesAboutConsistency)
{
    const std::vector<std::string> tokens = {
        "--mix", "--policy", "--instructions", "--seed", "--scheme",
        "--assign", "--scrub-interval", "--explore", "--explore=prefix",
        "--explore=beam", "--explore=bogus", "--depth", "--beam-width",
        "--generations", "--budget", "--journal", "--resume", "--jobs",
        "--csv", "--json", "4ctx-mix-A", "ICOUNT", "parity",
        "iq=secded+scrub@5000", "0", "1", "4", "10000", "1073741824",
        "1073741825", "-1", "12x", "", "99999999999999999999999",
        "b.journal", "--frobnicate", "--explore=", "protect",
        "--prat-epoch", "--prat-cap", "PRAT", "RAT", "4096", "1048577"};

    Rng rng(0x5ee0u);
    unsigned accepted = 0, rejected = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        Args args;
        auto len = rng.uniform(8);
        for (std::uint64_t i = 0; i < len; ++i)
            args.push_back(tokens[rng.uniform(tokens.size())]);

        ProtectCliOptions out;
        std::string err;
        bool ok = parseProtectCli(args, out, err);
        if (!ok) {
            ++rejected;
            EXPECT_FALSE(err.empty())
                << "rejected without a diagnostic: iter " << iter;
            continue;
        }
        ++accepted;
        // Accepted option sets are internally consistent by contract.
        if (out.help)
            continue;
        EXPECT_TRUE(err.empty());
        bool beam = out.explore == "beam";
        if (!beam) {
            EXPECT_TRUE(out.beam.journalPath.empty());
        }
        if (out.beam.resume) {
            EXPECT_FALSE(out.beam.journalPath.empty());
        }
        if (!out.explore.empty()) {
            EXPECT_TRUE(out.schemeName.empty());
            EXPECT_TRUE(out.assignSpec.empty());
        }
        if (out.explore == "prefix") {
            // The preset: generation 0 alone, one rung at the interval.
            EXPECT_EQ(out.beam.generations, 0u);
            EXPECT_EQ(out.beam.scrubLadder,
                      std::vector<Cycle>{out.scrubInterval});
        }
        EXPECT_GE(out.scrubInterval, 1u);
        EXPECT_LE(out.scrubInterval, std::uint64_t{1} << 30);
        EXPECT_GE(out.beam.beamWidth, 1u);
        EXPECT_GE(out.beam.maxStructures, 1u);
        EXPECT_GE(out.pratEpoch, 1u);
        EXPECT_LE(out.pratEpoch, std::uint64_t{1} << 30);
        EXPECT_LE(out.pratCap, std::uint64_t{1} << 20);
        // Anything the parser accepts must survive the downstream
        // MachineConfig validation the CLI applies next — the parser
        // never launders a config validateMsg would kill.
        FetchPolicyKind kind;
        if (parseFetchPolicy(out.policyName, kind)) {
            MachineConfig cfg = table1Config(2);
            cfg.fetchPolicy = kind;
            cfg.pratEpoch = out.pratEpoch;
            cfg.pratCap = static_cast<std::uint32_t>(out.pratCap);
            EXPECT_EQ(cfg.validateMsg(), "")
                << "iter " << iter << " accepted an invalid config";
        }
    }
    // The soup must actually exercise both outcomes.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace smtavf
