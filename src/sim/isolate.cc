#include "sim/isolate.hh"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <utility>

#include "base/rng.hh"
#include "sim/errors.hh"
#include "sim/journal.hh"

namespace smtavf
{

namespace
{

/**
 * Registry of children currently under supervision, so a hard-exit signal
 * handler can SIGKILL them all without taking any lock. Slots hold 0 when
 * free; registration is best-effort (an overflowing slot table only costs
 * kill coverage, never correctness).
 */
constexpr std::size_t kMaxLiveChildren = 256;
std::atomic<long> g_liveChildren[kMaxLiveChildren];

void
registerChild(pid_t pid)
{
    for (auto &slot : g_liveChildren) {
        long expected = 0;
        if (slot.compare_exchange_strong(expected, static_cast<long>(pid)))
            return;
    }
}

void
unregisterChild(pid_t pid)
{
    for (auto &slot : g_liveChildren) {
        long expected = static_cast<long>(pid);
        if (slot.compare_exchange_strong(expected, 0))
            return;
    }
}

/** Abbreviated name for the signals the taxonomy cares about. */
const char *
signalName(int sig)
{
    switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGXCPU: return "SIGXCPU";
    case SIGKILL: return "SIGKILL";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return nullptr;
    }
}

/** write(2) the whole buffer, retrying on EINTR; best-effort. */
void
writeAll(int fd, const std::string &buf)
{
    std::size_t off = 0;
    while (off < buf.size()) {
        ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        off += static_cast<std::size_t>(n);
    }
}

/** Child-side sandbox: core dumps off, rlimits, die-with-supervisor. */
void
sandboxChild(const ChildLimits &limits)
{
#ifdef __linux__
    // Die with the supervisor: no orphaned simulations if the parent is
    // SIGKILLed (the chaos leg in tools/check.sh does exactly that).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
    struct rlimit core_off = {0, 0};
    ::setrlimit(RLIMIT_CORE, &core_off);
    if (limits.cpuSeconds > 0) {
        // Hard limit one second above soft: SIGXCPU (classifiable) fires
        // first, SIGKILL only if the child somehow ignores it.
        struct rlimit r;
        r.rlim_cur = static_cast<rlim_t>(limits.cpuSeconds);
        r.rlim_max = static_cast<rlim_t>(limits.cpuSeconds + 1);
        ::setrlimit(RLIMIT_CPU, &r);
    }
    if (limits.memoryBytes > 0) {
        struct rlimit r;
        r.rlim_cur = static_cast<rlim_t>(limits.memoryBytes);
        r.rlim_max = static_cast<rlim_t>(limits.memoryBytes);
        ::setrlimit(RLIMIT_AS, &r);
    }
}

/**
 * Execute one run behind the child's exception boundary and encode the
 * result as a (tag, payload) pair — the unit both wire formats ship.
 * Tag "ok" carries a `run v3` journal record (hexfloat-exact + CRC);
 * every other tag carries the failure message.
 */
std::pair<std::string, std::string>
runOneTagged(const std::function<SimResult()> &fn)
{
    try {
        return {"ok", serializeRun(0, fn())};
    } catch (const CancelledError &e) {
        return {"cancelled", e.what()};
    } catch (const LivelockError &e) {
        return {"livelock", e.what()};
    } catch (const std::bad_alloc &) {
        return {"oom", "allocation failed under the child memory cap "
                       "(std::bad_alloc)"};
    } catch (const std::exception &e) {
        return {"error", e.what()};
    } catch (...) {
        return {"error", "unknown exception in isolated child"};
    }
}

/** Decode one (tag, payload) report back into a ChildOutcome. */
ChildOutcome
decodeTagged(const std::string &tag, std::string &&payload)
{
    ChildOutcome out;
    if (tag == "ok") {
        std::uint64_t fp = 0;
        if (parseRun(payload, fp, out.result)) {
            out.kind = ChildOutcome::Kind::Result;
            return out;
        }
        // Corrupted wire record (torn pipe write, bit flip): treat as
        // a crash so the retry machinery gets a second attempt.
        out.kind = ChildOutcome::Kind::Crash;
        out.crash = CrashKind::ExitCode;
        out.message = "child result failed the wire-format CRC check";
        return out;
    }
    out.message = std::move(payload);
    if (tag == "livelock") {
        out.kind = ChildOutcome::Kind::Livelock;
        return out;
    }
    if (tag == "cancelled") {
        out.kind = ChildOutcome::Kind::Cancelled;
        return out;
    }
    if (tag == "oom") {
        out.kind = ChildOutcome::Kind::Crash;
        out.crash = CrashKind::Oom;
        return out;
    }
    out.kind = ChildOutcome::Kind::Error;
    if (tag != "error")
        out.message = "unrecognized child protocol tag '" + tag + "'";
    return out;
}

/**
 * Child-side main: sandbox, run, report, _exit. Never returns and never
 * lets an exception escape — a throw out of here would unwind into the
 * forked copy of the parent's stack. The report travels as
 * `<tag>\n<payload>`.
 */
[[noreturn]] void
childMain(const std::function<SimResult()> &fn, const ChildLimits &limits,
          int fd)
{
    sandboxChild(limits);
    auto [tag, payload] = runOneTagged(fn);
    writeAll(fd, tag + "\n" + payload);
    ::close(fd);
    // _exit, not exit: the child must not run the parent's atexit
    // handlers or flush duplicated stdio buffers.
    ::_exit(0);
}

/**
 * Batched child main: the framed `run v3`-over-pipe protocol. Before
 * each run the child announces `start <k>\n` — the breadcrumb the
 * supervisor uses to attribute a death — and after it writes a
 * self-delimiting `<tag> <k> <len>\n<payload>` frame. Frames land on
 * the pipe as runs complete, so everything finished before a crash is
 * already with the supervisor.
 */
[[noreturn]] void
childBatchMain(std::size_t n, const std::function<SimResult(std::size_t)> &fn,
               const ChildLimits &limits, int fd)
{
    sandboxChild(limits);
    for (std::size_t k = 0; k < n; ++k) {
        char marker[32];
        std::snprintf(marker, sizeof(marker), "start %zu\n", k);
        writeAll(fd, marker);

        auto [tag, payload] = runOneTagged([&] { return fn(k); });
        char head[64];
        std::snprintf(head, sizeof(head), "%s %zu %zu\n", tag.c_str(), k,
                      payload.size());
        writeAll(fd, head + payload);
    }
    ::close(fd);
    ::_exit(0);
}

/** What the supervision loop hands back for classification. */
struct Supervised
{
    std::string buf;         ///< everything the child wrote before EOF
    int status = 0;          ///< waitpid status
    bool supervisorKilled = false;
    bool cancelKilled = false;
};

/**
 * Drain the child's pipe until EOF, enforcing the wall-clock deadline
 * and the cancel flag with SIGKILL, then reap. Shared by the single-run
 * and batched supervisors.
 */
Supervised
superviseChild(pid_t pid, int rfd, const ChildLimits &limits,
               double deadline_seconds)
{
    Supervised sup;
    using clock = std::chrono::steady_clock;
    // A deadline past the clock's range (a huge --hard-timeout, or a
    // finite one scaled by the batch size) is no deadline: converting it
    // would overflow into the past and kill the child at the first poll.
    // Half the range keeps the rounded conversion clear of the limit.
    const double range_seconds =
        std::chrono::duration<double>(clock::time_point::max() -
                                      clock::now())
            .count();
    const bool have_deadline =
        deadline_seconds > 0.0 && deadline_seconds < range_seconds / 2;
    const auto deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(
                               have_deadline ? deadline_seconds : 0.0));

    for (bool eof = false; !eof;) {
        struct pollfd pfd;
        pfd.fd = rfd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        // Finite poll granularity only when there is something to watch
        // besides the pipe; otherwise block until the child speaks/dies.
        int timeout_ms = (have_deadline || limits.cancel) &&
                                 !sup.supervisorKilled
                             ? 50
                             : -1;
        int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break; // poll failure: fall through to reap + classify
        }
        if (rc > 0) {
            char tmp[4096];
            ssize_t n = ::read(rfd, tmp, sizeof tmp);
            if (n > 0)
                sup.buf.append(tmp, static_cast<std::size_t>(n));
            else if (n == 0)
                eof = true;
            else if (errno != EINTR)
                break;
        }
        if (!sup.supervisorKilled) {
            if (limits.cancel &&
                limits.cancel->load(std::memory_order_relaxed)) {
                ::kill(pid, SIGKILL);
                sup.supervisorKilled = sup.cancelKilled = true;
            } else if (have_deadline && clock::now() >= deadline) {
                ::kill(pid, SIGKILL);
                sup.supervisorKilled = true;
            }
        }
    }
    ::close(rfd);

    while (::waitpid(pid, &sup.status, 0) < 0 && errno == EINTR) {
    }
    unregisterChild(pid);
    return sup;
}

} // namespace

const char *
isolateModeName(IsolateMode m)
{
    return m == IsolateMode::Process ? "process" : "thread";
}

bool
parseIsolateMode(const std::string &name, IsolateMode &out)
{
    std::string low;
    for (char c : name)
        low.push_back(static_cast<char>(
            c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
    if (low == "thread") {
        out = IsolateMode::Thread;
        return true;
    }
    if (low == "process") {
        out = IsolateMode::Process;
        return true;
    }
    return false;
}

const char *
crashKindName(CrashKind k)
{
    switch (k) {
    case CrashKind::None: return "none";
    case CrashKind::ExitCode: return "exit-code";
    case CrashKind::Segv: return "segv";
    case CrashKind::Abort: return "abort";
    case CrashKind::Bus: return "bus";
    case CrashKind::CpuLimit: return "cpu-limit";
    case CrashKind::Oom: return "oom";
    case CrashKind::HardTimeout: return "hard-timeout";
    case CrashKind::Signal: return "signal";
    }
    return "none";
}

CrashKind
classifyWaitStatus(int wait_status, bool supervisor_killed)
{
    if (WIFEXITED(wait_status))
        return CrashKind::ExitCode;
    if (WIFSIGNALED(wait_status)) {
        switch (WTERMSIG(wait_status)) {
        case SIGSEGV: return CrashKind::Segv;
        case SIGABRT: return CrashKind::Abort;
        case SIGBUS: return CrashKind::Bus;
        case SIGXCPU: return CrashKind::CpuLimit;
        // A SIGKILL the supervisor did not send is, in practice, the
        // kernel OOM killer (or RLIMIT_CPU's hard stop — same remedy).
        case SIGKILL:
            return supervisor_killed ? CrashKind::HardTimeout
                                     : CrashKind::Oom;
        default: return CrashKind::Signal;
        }
    }
    return CrashKind::Signal;
}

std::string
describeChildDeath(int wait_status, bool supervisor_killed)
{
    std::ostringstream os;
    if (WIFEXITED(wait_status)) {
        os << "child exited with code " << WEXITSTATUS(wait_status);
        if (WEXITSTATUS(wait_status) == 0)
            os << " without a result";
        return os.str();
    }
    int sig = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
    os << "child killed by signal " << sig;
    if (const char *name = signalName(sig))
        os << " (" << name << ")";
    switch (classifyWaitStatus(wait_status, supervisor_killed)) {
    case CrashKind::CpuLimit:
        os << ": CPU rlimit exceeded";
        break;
    case CrashKind::HardTimeout:
        os << ": hard timeout, killed by supervisor";
        break;
    case CrashKind::Oom:
        if (sig == SIGKILL)
            os << ": unsolicited SIGKILL (likely the kernel OOM killer)";
        break;
    default:
        break;
    }
    return os.str();
}

ChildOutcome
runInChild(const std::function<SimResult()> &fn, const ChildLimits &limits)
{
    ChildOutcome out;

    int fds[2];
    if (::pipe(fds) != 0) {
        out.kind = ChildOutcome::Kind::Error;
        out.message = "pipe() failed for isolated child";
        return out;
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        out.kind = ChildOutcome::Kind::Error;
        out.message = "fork() failed for isolated child";
        return out;
    }
    if (pid == 0) {
        ::close(fds[0]);
        childMain(fn, limits, fds[1]); // never returns
    }
    ::close(fds[1]);
    registerChild(pid);

    Supervised sup =
        superviseChild(pid, fds[0], limits, limits.hardTimeoutSeconds);

    if (WIFEXITED(sup.status) && WEXITSTATUS(sup.status) == 0 &&
        !sup.buf.empty()) {
        auto nl = sup.buf.find('\n');
        std::string tag = sup.buf.substr(0, nl);
        std::string payload = nl == std::string::npos
                                  ? std::string()
                                  : sup.buf.substr(nl + 1);
        return decodeTagged(tag, std::move(payload));
    }

    if (sup.cancelKilled) {
        out.kind = ChildOutcome::Kind::Cancelled;
        out.message = "child killed by supervisor: campaign cancelled";
        return out;
    }
    out.kind = ChildOutcome::Kind::Crash;
    out.crash = classifyWaitStatus(sup.status, sup.supervisorKilled);
    out.message = describeChildDeath(sup.status, sup.supervisorKilled);
    return out;
}

ChildBatchOutcome
runBatchInChild(std::size_t n, const std::function<SimResult(std::size_t)> &fn,
                const ChildLimits &limits)
{
    ChildBatchOutcome out;
    out.runs.resize(n);
    out.reported.assign(n, 0);
    if (n == 0)
        return out;

    int fds[2];
    if (::pipe(fds) != 0) {
        out.childDied = true;
        out.crash = CrashKind::ExitCode;
        out.crashMessage = "pipe() failed for isolated child";
        return out;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        out.childDied = true;
        out.crash = CrashKind::ExitCode;
        out.crashMessage = "fork() failed for isolated child";
        return out;
    }
    if (pid == 0) {
        ::close(fds[0]);
        childBatchMain(n, fn, limits, fds[1]); // never returns
    }
    ::close(fds[1]);
    registerChild(pid);

    // The supervisor cannot observe per-run boundaries reliably enough
    // to re-arm a per-run deadline (frames can sit in the pipe buffer),
    // so the hard wall-clock budget scales with the batch size.
    Supervised sup = superviseChild(
        pid, fds[0], limits,
        limits.hardTimeoutSeconds * static_cast<double>(n));

    // Parse whatever frames made it out. Runs execute in order, so the
    // last `start` without a completed frame is the in-flight run; a
    // torn trailing frame counts as in-flight too (its payload cannot
    // be trusted without the full CRC-covered record).
    std::size_t pos = 0;
    std::size_t started = ChildBatchOutcome::npos;
    while (pos < sup.buf.size()) {
        std::size_t nl = sup.buf.find('\n', pos);
        if (nl == std::string::npos)
            break; // torn marker/header line
        std::string line = sup.buf.substr(pos, nl - pos);
        if (line.compare(0, 6, "start ") == 0) {
            char *end = nullptr;
            unsigned long long k = std::strtoull(line.c_str() + 6, &end, 10);
            if (!end || *end != '\0' || k >= n)
                break; // corrupted marker: stop trusting the stream
            started = static_cast<std::size_t>(k);
            pos = nl + 1;
            continue;
        }
        // "<tag> <k> <len>" header.
        std::istringstream hdr(line);
        std::string tag;
        std::size_t k = 0, len = 0;
        if (!(hdr >> tag >> k >> len) || k >= n)
            break;
        if (nl + 1 + len > sup.buf.size())
            break; // torn payload
        out.runs[k] = decodeTagged(tag, sup.buf.substr(nl + 1, len));
        out.reported[k] = 1;
        if (k == started)
            started = ChildBatchOutcome::npos;
        pos = nl + 1 + len;
    }
    out.inFlight = started;

    if (out.allReported())
        return out; // clean batch; the child's exit status is moot

    out.childDied = true;
    if (sup.cancelKilled) {
        out.cancelled = true;
        out.crashMessage = "child killed by supervisor: campaign cancelled";
        return out;
    }
    out.crash = classifyWaitStatus(sup.status, sup.supervisorKilled);
    out.crashMessage = describeChildDeath(sup.status, sup.supervisorKilled);
    return out;
}

void
killLiveChildren()
{
    for (auto &slot : g_liveChildren) {
        long pid = slot.load(std::memory_order_relaxed);
        if (pid > 0)
            ::kill(static_cast<pid_t>(pid), SIGKILL);
    }
}

double
retryBackoffSeconds(unsigned attempt, std::uint64_t seed, double base)
{
    if (attempt == 0 || base <= 0.0)
        return 0.0;
    unsigned exp = attempt - 1 < 16 ? attempt - 1 : 16;
    // 53 high bits of the split seed -> uniform jitter in [0, 1).
    double jitter =
        static_cast<double>(splitSeed(seed, attempt) >> 11) * 0x1.0p-53;
    return base * static_cast<double>(1u << exp) * (1.0 + jitter);
}

} // namespace smtavf
