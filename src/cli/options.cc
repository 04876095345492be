#include "cli/options.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <variant>

#include "base/env.hh"
#include "workload/mixes.hh"

namespace smtavf
{

bool
CliCommon::gave(const std::string &flag) const
{
    return std::find(given.begin(), given.end(), flag) != given.end();
}

namespace
{

using Args = std::vector<std::string>;

/** How a row reads its value. */
enum class Kind : std::uint8_t
{
    Stop,    ///< set its bool and read no further (--help, --list, ...)
    On,      ///< switch that sets its bool
    Off,     ///< switch that clears its bool (--no-reuse, ...)
    Text,    ///< a string; a list target keeps every value
    Join,    ///< repeatable string, values comma-joined (--assign)
    Number,  ///< strict unsigned integer in [lo, hi]
    MiB,     ///< Number of mebibytes, stored as bytes
    Seconds, ///< finite non-negative decimal seconds
    Mode,    ///< optional "=value" from the '|'-separated metavar
    Isolate, ///< thread | process
    Shard,   ///< I/N with I < N, both strict unsigned
};

/** One flag of the table. */
struct Row
{
    const char *name;
    const char *metavar; ///< value placeholder, "" for switches
    Kind kind;
    std::uint64_t lo; ///< Number/MiB: inclusive range
    std::uint64_t hi;
    const char *help;
};

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kUnsigned = std::numeric_limits<unsigned>::max();

constexpr Row
toggle(const char *name, Kind kind, const char *help)
{
    return {name, "", kind, 0, 0, help};
}

constexpr Row
text(const char *name, const char *metavar, const char *help,
     Kind kind = Kind::Text)
{
    return {name, metavar, kind, 0, kMax, help};
}

constexpr Row
number(const char *name, const char *metavar, std::uint64_t lo,
       std::uint64_t hi, const char *help, Kind kind = Kind::Number)
{
    return {name, metavar, kind, lo, hi, help};
}

// Rows bound by more than one subcommand come first; --help lists every
// row once, tagged with the subcommands that take it.
const Row kRows[] = {
    toggle("--help", Kind::Stop, "print this help and exit (also -h)"),
    text("--mix", "NAME",
         "workload mix (default 4ctx-mix-A); campaign: add one mix, "
         "repeatable (default: every mix)"),
    text("--policy", "NAME",
         "fetch policy: RR ICOUNT FLUSH STALL DG PDG DWarn PSTALL RAT PRAT "
         "(default ICOUNT); campaign also takes 'all', crossing every mix "
         "with every policy"),
    number("--prat-epoch", "N", 1, std::uint64_t{1} << 30,
           "PRAT: cycles between ledger residual refreshes (default 4096; "
           "needs --policy PRAT)"),
    number("--prat-cap", "N", 0, std::uint64_t{1} << 20,
           "PRAT: throttle cap in correct-path instructions (default: the "
           "RAT cap; needs --policy PRAT)"),
    number("--instructions", "N", 0, kMax,
           "committed-instruction budget per run (default: the mix's)"),
    number("--seed", "N", 0, kMax, "simulation seed (default 1)"),
    number("--warmup", "N", 0, kMax,
           "commit N instructions, drain, and reset stats/AVF tallies "
           "before measuring"),
    number("--jobs", "N", 1, kMax,
           "worker threads (default: SMTAVF_JOBS or hardware concurrency)"),
    text("--journal", "FILE",
         "journal finished runs to FILE as they land (protect: beam only, "
         "with the search trace)"),
    toggle("--resume", Kind::On,
           "replay journaled runs instead of re-running them (needs "
           "--journal)"),
    toggle("--shared-warmup", Kind::On,
           "simulate each warmup prefix once and restore its checkpoint per "
           "run, bit-identically (needs --warmup; protect: beam only)"),
    toggle("--csv", Kind::On, "machine-readable CSV output"),
    toggle("--json", Kind::On, "full result as JSON"),

    toggle("--list", Kind::Stop, "list mixes and policies and exit"),
    toggle("--table1", Kind::Stop,
           "print the machine configuration and exit"),
    number("--replicas", "N", 1, kMax,
           "run N seeds and report mean +/- std"),
    number("--sample", "N", 0, kMax,
           "AVF timeline window in cycles (0 = off; --timeline-csv "
           "defaults it to 5000)"),
    number("--checkpoint-at", "N", 1, kMax,
           "capture a checkpoint once N instructions committed in total "
           "(needs --checkpoint-out)"),
    text("--checkpoint-out", "FILE",
         "write the --checkpoint-at capture to FILE"),
    text("--restore", "FILE",
         "continue from checkpoint FILE, bit-identically; --instructions "
         "stays the total commit target"),
    number("--avf-interval", "N", 1, kMax,
           "close an AVF sample row every N committed instructions and "
           "print the series as CSV"),
    text("--avf-interval-csv", "FILE",
         "write that series to FILE instead of stdout"),
    toggle("--iq-partition", Kind::On, "static per-thread IQ partitioning"),
    toggle("--no-dead-code", Kind::Off,
           "disable dynamic dead-code analysis"),
    toggle("--no-wrong-path", Kind::Off,
           "disable wrong-path fetch/execution"),
    toggle("--per-line-cache", Kind::Off,
           "per-line (not per-byte) DL1 tracking"),
    toggle("--no-prewarm", Kind::Off, "skip cache/TLB pre-warming"),
    toggle("--timeline-csv", Kind::On, "dump the AVF timeline as CSV"),

    number("--contexts", "N", 0, kMax,
           "restrict to N-context mixes (0 = any)"),
    number("--master-seed", "N", 0, kMax,
           "derive run i's seed as splitSeed(N, i)"),
    number("--retries", "N", 0, kMax,
           "extra attempts per failing run (default 1)"),
    text("--timeout", "SECONDS", "stop dispatching new runs after this long",
         Kind::Seconds),
    text("--shard", "I/N",
         "run every N-th experiment from I (0-based) with unsharded seeds, "
         "so shard journals merge losslessly",
         Kind::Shard),
    text("--isolate", "MODE",
         "'thread' (default) or 'process': a sandboxed child per run, so "
         "crashes are classified, not fatal",
         Kind::Isolate),
    number("--runs-per-child", "N", 1, kMax,
           "process: batch N runs into one child over a reused simulator "
           "(default 1)"),
    toggle("--no-reuse", Kind::Off,
           "construct a simulator per run instead of resetting a "
           "worker-local one"),
    text("--hard-timeout", "SECONDS",
         "process: SIGKILL a child past this wall clock (per run, scaled "
         "by --runs-per-child; 0 = off)",
         Kind::Seconds),
    number("--child-cpu", "SECONDS", 0, kMax,
           "process: per-child RLIMIT_CPU (per run, scaled by the batch "
           "size)"),
    number("--child-mem", "MB", 0, kMax >> 20,
           "process: per-child RLIMIT_AS in MiB", Kind::MiB),
    text("--backoff", "SECONDS",
         "exponential retry backoff base with seed-deterministic jitter "
         "(default 0)",
         Kind::Seconds),
    number("--cancel-check", "N", 0, kMax,
           "thread: poll the Ctrl-C flag inside each simulation every N "
           "cycles (default off)"),
    text("--checkpoint-dir", "DIR",
         "process: directory for the shared warmup checkpoint files "
         "(default: TMPDIR; needs --shared-warmup)"),

    text("--scheme", "NAME",
         "uniform scheme for every structure: none parity secded "
         "secded+scrub"),
    text("--assign", "LIST",
         "per-structure schemes, repeatable, e.g. "
         "iq=secded,regfile=parity,rob=scrub@1000",
         Kind::Join),
    number("--scrub-interval", "N", 1, std::uint64_t{1} << 30,
           "scrubbing period in cycles (default 10000); --explore scrubs at "
           "it, --explore=beam centres its per-structure ladder on it"),
    text("--explore", "prefix|beam",
         "search assignments for the Pareto frontier: prefix (bare "
         "--explore) is beam generation 0 alone, each scheme on the "
         "top-1..depth hotspots",
         Kind::Mode),
    number("--depth", "N", 1, kMax,
           "search the top-N hotspots (default 4; --explore=beam: 6)"),
    number("--beam-width", "N", 1, kMax,
           "beam: candidates kept per generation (default 8)"),
    number("--generations", "N", 0, kMax,
           "beam: expansion rounds after generation 0 (default 3)"),
    number("--budget", "N", 0, kMax,
           "beam: at most N candidate evaluations, journal replays "
           "included (0 = unlimited)"),
};

/** Where a subcommand keeps a row's value. */
using Target =
    std::variant<bool *, std::string *, std::vector<std::string> *,
                 std::uint64_t *, unsigned *, double *, IsolateMode *,
                 ShardSpec *>;

/** A subcommand takes a row by binding its flag to a field. */
struct Binding
{
    const char *flag;
    Target target;
};

/** @p own after the rows every subcommand binds. */
template <std::size_t N>
std::vector<Binding>
withCommon(CliCommon &o, const Binding (&own)[N])
{
    const Binding common[] = {{"--help", &o.help},
                              {"--policy", &o.policyName},
                              {"--prat-epoch", &o.pratEpoch},
                              {"--prat-cap", &o.pratCap},
                              {"--instructions", &o.instructions},
                              {"--csv", &o.csv}};
    std::vector<Binding> b(std::begin(common), std::end(common));
    b.insert(b.end(), std::begin(own), std::end(own));
    return b;
}

std::vector<Binding>
bindings(RunCliOptions &o)
{
    RunControls &c = o.controls;
    const Binding own[] = {
        {"--mix", &o.mixName}, {"--seed", &o.seed},
        {"--warmup", &c.warmup}, {"--json", &o.json},
        {"--list", &o.list}, {"--table1", &o.table1},
        {"--replicas", &o.replicas}, {"--sample", &o.sample},
        {"--checkpoint-at", &c.checkpointAt},
        {"--checkpoint-out", &c.checkpointOut},
        {"--restore", &o.restorePath}, {"--avf-interval", &c.avfInterval},
        {"--avf-interval-csv", &o.avfIntervalCsv},
        {"--iq-partition", &o.iqPartition},
        {"--no-dead-code", &o.avf.deadCodeAnalysis},
        {"--no-wrong-path", &o.avf.wrongPathModel},
        {"--per-line-cache", &o.avf.perByteCacheAvf},
        {"--no-prewarm", &o.prewarm}, {"--timeline-csv", &o.timelineCsv}};
    return withCommon(o, own);
}

std::vector<Binding>
bindings(CampaignCliOptions &o)
{
    CampaignOptions &c = o.campaign;
    const Binding own[] = {
        {"--mix", &o.mixNames}, {"--warmup", &o.warmup},
        {"--jobs", &o.jobs}, {"--journal", &c.journalPath},
        {"--resume", &c.resume}, {"--shared-warmup", &c.sharedWarmup},
        {"--contexts", &o.contexts}, {"--master-seed", &o.masterSeed},
        {"--retries", &c.retries}, {"--timeout", &c.softTimeoutSeconds},
        {"--shard", &o.shard}, {"--isolate", &c.isolate},
        {"--runs-per-child", &c.runsPerChild},
        {"--no-reuse", &c.reuseWorkers},
        {"--hard-timeout", &c.hardTimeoutSeconds},
        {"--child-cpu", &c.childCpuSeconds},
        {"--child-mem", &c.childMemoryBytes},
        {"--backoff", &c.backoffSeconds},
        {"--cancel-check", &c.cancelCheckCycles},
        {"--checkpoint-dir", &c.checkpointDir}};
    return withCommon(o, own);
}

std::vector<Binding>
bindings(ProtectCliOptions &o)
{
    BeamOptions &beam = o.beam;
    const Binding own[] = {
        {"--mix", &o.mixName}, {"--seed", &o.seed},
        {"--warmup", &beam.warmup}, {"--jobs", &o.jobs},
        {"--journal", &beam.journalPath}, {"--resume", &beam.resume},
        {"--shared-warmup", &beam.sharedWarmup}, {"--json", &o.json},
        {"--scheme", &o.schemeName}, {"--assign", &o.assignSpec},
        {"--scrub-interval", &o.scrubInterval},
        {"--explore", &o.explore}, {"--depth", &beam.maxStructures},
        {"--beam-width", &beam.beamWidth},
        {"--generations", &beam.generations},
        {"--budget", &beam.evalBudget}};
    return withCommon(o, own);
}

// ---- Cross-flag rules: the first one broken, or nullptr --------------------

bool
knownPolicy(const std::string &name)
{
    FetchPolicyKind kind;
    return parseFetchPolicy(name, kind);
}

/** --prat-epoch/--prat-cap given without a PRAT run to tune. */
bool
pratMisused(const CliCommon &o, bool all_policies)
{
    FetchPolicyKind kind;
    const bool prat =
        all_policies || (parseFetchPolicy(o.policyName, kind) &&
                         kind == FetchPolicyKind::PRat);
    return (o.gave("--prat-epoch") || o.gave("--prat-cap")) && !prat;
}

const char *const kPratRule =
    "--prat-epoch/--prat-cap tune the PRAT throttle; they need --policy "
    "PRAT";
const char *const kPolicyRule = "unknown --policy (try smtavf_cli --list)";
const char *const kResumeRule =
    "--resume needs --journal FILE to resume from";
const char *const kSharedWarmupRule =
    "--shared-warmup needs --warmup N to share";

const char *
brokenRule(const RunCliOptions &o)
{
    const RunControls &c = o.controls;
    if (pratMisused(o, false))
        return kPratRule;
    if (!c.checkpointOut.empty() && c.checkpointAt == 0)
        return "--checkpoint-out needs --checkpoint-at N";
    if (c.checkpointAt > 0 && c.checkpointOut.empty())
        return "--checkpoint-at needs --checkpoint-out FILE";
    if (!o.restorePath.empty() && c.warmup > 0)
        return "--warmup cannot follow --restore: the restored state "
               "already fixes the measurement boundary";
    if (o.replicas > 1 &&
        (c.warmup > 0 || c.checkpointAt > 0 || !o.restorePath.empty() ||
         c.avfInterval > 0 || o.csv || o.json || o.timelineCsv))
        return "--replicas prints its own summary and cannot combine with "
               "--warmup/--checkpoint-at/--restore/--avf-interval/--csv/"
               "--json/--timeline-csv";
    if (!o.avfIntervalCsv.empty() && c.avfInterval == 0)
        return "--avf-interval-csv needs --avf-interval N";
    if (!knownPolicy(o.policyName))
        return kPolicyRule;
    return nullptr;
}

const char *
brokenRule(const CampaignCliOptions &o)
{
    const CampaignOptions &c = o.campaign;
    const bool process = c.isolate == IsolateMode::Process;
    const bool all = o.policyName == "all" || o.policyName == "ALL";
    if (c.resume && c.journalPath.empty())
        return kResumeRule;
    if (!process && (c.hardTimeoutSeconds > 0.0 || c.childCpuSeconds > 0 ||
                     c.childMemoryBytes > 0))
        return "--hard-timeout/--child-cpu/--child-mem need --isolate "
               "process";
    if (c.runsPerChild > 1 && !process)
        return "--runs-per-child needs --isolate process (thread mode "
               "already reuses workers in-process)";
    if (process && c.cancelCheckCycles > 0)
        return "--cancel-check is a thread-mode knob; process children are "
               "interrupted by the supervisor";
    if (c.sharedWarmup && o.warmup == 0)
        return kSharedWarmupRule;
    if (!c.checkpointDir.empty() && !(c.sharedWarmup && process))
        return "--checkpoint-dir needs --shared-warmup with --isolate "
               "process";
    if (pratMisused(o, all))
        return "--prat-epoch/--prat-cap tune the PRAT throttle; they need "
               "--policy PRAT (or --policy all)";
    if (!knownPolicy(o.policyName) && !all)
        return kPolicyRule;
    if (o.mixNames.empty() && o.contexts != 0 &&
        mixesWithContexts(o.contexts).empty())
        return "--contexts selects no mixes (see smtavf_cli --list)";
    return nullptr;
}

const char *
brokenRule(const ProtectCliOptions &o)
{
    const BeamOptions &b = o.beam;
    const bool beam = o.explore == "beam";
    if (!o.explore.empty() &&
        (!o.schemeName.empty() || !o.assignSpec.empty()))
        return "--explore sweeps assignments itself; drop --scheme/--assign";
    if (!beam && o.gave("--beam-width"))
        return "--beam-width needs --explore=beam";
    if (!beam && o.gave("--generations"))
        return "--generations needs --explore=beam";
    if (!beam && o.gave("--budget"))
        return "--budget needs --explore=beam";
    if (!beam && !b.journalPath.empty())
        return "protect --journal needs --explore=beam";
    if (b.resume && b.journalPath.empty())
        return kResumeRule;
    if (b.sharedWarmup && !beam)
        return "--shared-warmup shares one warmup across a beam search; it "
               "needs --explore=beam";
    if (b.sharedWarmup && b.warmup == 0)
        return kSharedWarmupRule;
    if (pratMisused(o, false))
        return kPratRule;
    if (!knownPolicy(o.policyName))
        return kPolicyRule;
    return nullptr;
}

// ---- The parser ------------------------------------------------------------

const Row *
findRow(const std::string &name)
{
    for (const Row &r : kRows)
        if (name == r.name)
            return &r;
    return nullptr;
}

const Binding *
findBinding(const std::vector<Binding> &bindings, const std::string &flag)
{
    for (const Binding &b : bindings)
        if (flag == b.flag)
            return &b;
    return nullptr;
}

/** Validate @p value by @p row's kind and store it through @p target. */
bool
store(const Row &row, const std::string &value, const Target &target,
      std::string &err)
{
    const std::string flag = row.name;
    switch (row.kind) {
      case Kind::Text:
        if (auto *list = std::get_if<std::vector<std::string> *>(&target))
            (*list)->push_back(value);
        else
            *std::get<std::string *>(target) = value;
        return true;
      case Kind::Join: {
        std::string &joined = *std::get<std::string *>(target);
        if (!joined.empty())
            joined += ',';
        joined += value;
        return true;
      }
      case Kind::Number:
      case Kind::MiB: {
        std::uint64_t v = 0;
        if (!strictParseU64(value.c_str(), v)) {
            err = "bad number for " + flag + ": '" + value +
                  "' (need a non-negative integer)";
            return false;
        }
        auto *narrow = std::get_if<unsigned *>(&target);
        const std::uint64_t hi = narrow ? std::min(row.hi, kUnsigned) : row.hi;
        if (v < row.lo || v > hi) {
            if (v == 0 && row.lo == 1 && (hi == kMax || hi == kUnsigned))
                err = flag + " must be positive";
            else if (hi == kMax || hi == kUnsigned || row.kind == Kind::MiB)
                err = flag + " is out of range: " + value;
            else
                err = flag + " must be in [" + std::to_string(row.lo) +
                      ", " + std::to_string(hi) + "], not " + value;
            return false;
        }
        if (narrow)
            **narrow = static_cast<unsigned>(v);
        else
            *std::get<std::uint64_t *>(target) =
                row.kind == Kind::MiB ? v << 20 : v;
        return true;
      }
      case Kind::Seconds: {
        char *end = nullptr;
        double v = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0' || !std::isfinite(v) ||
            v < 0.0) {
            err = "bad duration for " + flag + ": '" + value +
                  "' (need a finite number of seconds >= 0)";
            return false;
        }
        *std::get<double *>(target) = v;
        return true;
      }
      case Kind::Mode:
        if (value.empty() || value.find('|') != std::string::npos ||
            ('|' + std::string(row.metavar) + '|')
                    .find('|' + value + '|') == std::string::npos) {
            err = "unknown " + flag + " mode: '" + value + "' (" +
                  row.metavar + ")";
            return false;
        }
        *std::get<std::string *>(target) = value;
        return true;
      case Kind::Isolate:
        if (!parseIsolateMode(value, *std::get<IsolateMode *>(target))) {
            err = flag + " wants 'thread' or 'process'";
            return false;
        }
        return true;
      case Kind::Shard: {
        // Both halves through the strict unsigned parse: "0/4x", "+0/4"
        // and a count past 32 bits are errors, not shard 0/4.
        auto slash = value.find('/');
        std::uint64_t i = 0, n = 0;
        if (slash == std::string::npos ||
            !strictParseU64(value.substr(0, slash).c_str(), i) ||
            !strictParseU64(value.substr(slash + 1).c_str(), n) ||
            n == 0 || n > kUnsigned || i >= n) {
            err = flag + " wants I/N with 0 <= I < N, e.g. " + flag +
                  " 0/4, not '" + value + "'";
            return false;
        }
        *std::get<ShardSpec *>(target) = {static_cast<unsigned>(i),
                                          static_cast<unsigned>(n)};
        return true;
      }
      default:
        break;
    }
    return false;
}

/**
 * Walk @p args through @p command's bindings. Returns false with a
 * diagnostic, or true with @p stopped set when a Stop row ended the walk.
 */
bool
readFlags(const char *command, const Args &args,
          const std::vector<Binding> &bindings, CliCommon &common,
          bool &stopped, std::string &err)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string name = args[i] == "-h" ? "--help" : args[i];
        // Only Mode rows take "--flag=value"; "--mix=x" stays unknown.
        std::string attached;
        bool has_attached = false;
        if (auto eq = name.find('='); name.rfind("--", 0) == 0 &&
                                      eq != std::string::npos) {
            attached = name.substr(eq + 1);
            has_attached = true;
            name.resize(eq);
        }
        const Row *row = findRow(name);
        const Binding *b = row ? findBinding(bindings, name) : nullptr;
        if (!b || (has_attached && row->kind != Kind::Mode)) {
            err = std::string("unknown ") + command + " option: " + args[i];
            return false;
        }
        common.given.push_back(row->name);
        switch (row->kind) {
          case Kind::Stop:
            *std::get<bool *>(b->target) = true;
            stopped = true;
            return true;
          case Kind::On:
          case Kind::Off:
            *std::get<bool *>(b->target) = row->kind == Kind::On;
            continue;
          case Kind::Mode: {
            // Bare --explore takes the first listed mode.
            std::string first(row->metavar);
            first.resize(first.find('|'));
            if (!store(*row, has_attached ? attached : first, b->target,
                       err))
                return false;
            continue;
          }
          default:
            break;
        }
        if (i + 1 == args.size()) {
            err = name + " needs a value (" + row->metavar + ")";
            return false;
        }
        if (!store(*row, args[++i], b->target, err))
            return false;
    }
    return true;
}

template <class O>
bool
parse(const char *command, const Args &args, O &out, std::string &err)
{
    bool stopped = false;
    if (!readFlags(command, args, bindings(out), out, stopped, err))
        return false;
    if (const char *broken = stopped ? nullptr : brokenRule(out)) {
        err = broken;
        return false;
    }
    return true;
}

// ---- Help ------------------------------------------------------------------

/** Append @p text to @p out word-wrapped at 78 columns, indented. */
void
wrap(std::string &out, const std::string &text, std::size_t column,
     std::size_t indent)
{
    constexpr std::size_t width = 78;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(' ', pos);
        if (end == std::string::npos)
            end = text.size();
        std::size_t len = end - pos;
        if (column > indent && column + 1 + len > width) {
            out += '\n';
            out.append(indent, ' ');
            column = indent;
        } else if (column > indent) {
            out += ' ';
            ++column;
        }
        out.append(text, pos, len);
        column += len;
        pos = end + 1;
    }
    out += '\n';
}

} // namespace

bool
parseRunCli(const Args &args, RunCliOptions &out, std::string &err)
{
    return parse("run", args, out, err);
}

bool
parseCampaignCli(const Args &args, CampaignCliOptions &out, std::string &err)
{
    return parse("campaign", args, out, err);
}

bool
parseProtectCli(const Args &args, ProtectCliOptions &out, std::string &err)
{
    if (!parse("protect", args, out, err))
        return false;
    if (out.explore == "prefix") {
        BeamOptions preset =
            out.gave("--depth")
                ? ProtectionExplorer::prefixSweep(out.scrubInterval,
                                                  out.beam.maxStructures)
                : ProtectionExplorer::prefixSweep(out.scrubInterval);
        preset.warmup = out.beam.warmup;
        out.beam = std::move(preset);
    } else {
        out.beam.scrubLadder =
            ProtectionExplorer::defaultScrubLadder(out.scrubInterval);
    }
    return true;
}

std::vector<std::string>
cliFlags()
{
    std::vector<std::string> out;
    for (const Row &r : kRows)
        out.push_back(r.name);
    return out;
}

std::string
cliHelp()
{
    RunCliOptions run;
    CampaignCliOptions campaign;
    ProtectCliOptions protect;
    const std::pair<const char *, std::vector<Binding>> commands[] = {
        {"run", bindings(run)},
        {"campaign", bindings(campaign)},
        {"protect", bindings(protect)}};

    std::string out =
        "usage: smtavf_cli [run] [options]\n"
        "       smtavf_cli campaign [options]\n"
        "       smtavf_cli protect [options]   (docs/PROTECTION.md)\n"
        "       smtavf_cli merge-journals --out FILE IN1 [IN2 ...]\n"
        "       smtavf_cli journal fsck [--repair] FILE\n"
        "\n"
        "options of run, campaign and protect ([...] names the subcommands "
        "that\ntake a flag when not all do):\n";
    for (const Row &r : kRows) {
        std::string takers;
        unsigned count = 0;
        for (const auto &[name, binds] : commands) {
            if (findBinding(binds, r.name)) {
                takers += takers.empty() ? "" : " ";
                takers += name;
                ++count;
            }
        }
        std::string head = std::string("  ") + r.name;
        if (r.kind == Kind::Mode)
            head += std::string("[=") + r.metavar + "]";
        else if (*r.metavar)
            head += std::string(" ") + r.metavar;
        out += head;
        std::size_t column = head.size();
        constexpr std::size_t indent = 24;
        if (column + 1 >= indent) {
            out += '\n';
            column = 0;
        }
        out.append(indent - column, ' ');
        std::string help = r.help;
        if (count < 3)
            help += " [" + takers + "]";
        wrap(out, help, indent, indent);
    }
    out +=
        "\n"
        "merge-journals: combine shard journals into one deduplicated,\n"
        "fingerprint-sorted journal usable with campaign --resume. Inputs\n"
        "are CRC-verified first; any corruption is reported with file,\n"
        "line and byte offset and the merge refuses (exit 3).\n"
        "\n"
        "journal fsck: verify a campaign journal record by record. Reports\n"
        "every torn or corrupt line with its byte offset; --repair\n"
        "truncates a damaged tail in place. Exit 0 when clean or repaired,\n"
        "3 when damage remains.\n"
        "\n"
        "exit codes: 0 ok, 1 simulation failure, 2 bad usage/config,\n"
        "            3 campaign completed with failed runs, or journal\n"
        "              corruption found by fsck/merge-journals\n"
        "            4 checkpoint rejected (corrupt, truncated, or from an\n"
        "              incompatible configuration)\n";
    return out;
}

} // namespace smtavf
