#include "common.hh"

#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/journal.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kYardstickWords = std::size_t{1} << 18; // 2 MiB

/** One thread's share of the yardstick: a seeded walk over @p table. */
std::uint64_t
yardstickShare(std::uint64_t *table, std::uint64_t seed)
{
    constexpr std::uint64_t kSteps = 3'000'000;
    for (std::size_t i = 0; i < kYardstickWords; ++i)
        table[i] = (i * 0x9e3779b97f4a7c15ull) ^ seed;
    std::uint64_t x = seed | 1, acc = 0;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t k = (x >> 30) & (kYardstickWords - 1);
        const std::uint64_t v = table[k];
        if ((v ^ x) & 1)
            acc += v >> 1;
        else
            acc ^= v * 3;
        table[k] = v + acc;
    }
    return acc;
}

} // namespace

double
hostYardstick(unsigned threads)
{
    // The tables are mapped and unmapped here, not taken from malloc, so
    // the yardstick leaves no memory behind that a pass forked later
    // would count in its peak RSS.
    const std::size_t bytes =
        std::size_t{threads} * kYardstickWords * sizeof(std::uint64_t);
    void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        throw std::runtime_error("yardstick: mmap failed");
    auto unmap = [bytes](std::uint64_t *p) { ::munmap(p, bytes); };
    const std::unique_ptr<std::uint64_t, decltype(unmap)> tables(
        static_cast<std::uint64_t *>(mem), unmap);
    // Each share's result is stored, so the walk cannot be left out.
    std::vector<std::uint64_t> out(threads);
    const double t0 = wallNow();
    {
        std::vector<std::jthread> pool;
        for (unsigned i = 0; i < threads; ++i)
            pool.emplace_back([&out, &tables, i] {
                out[i] =
                    yardstickShare(tables.get() + i * kYardstickWords, i + 1);
            });
    } // the jthreads join here
    return wallNow() - t0;
}

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double
threadCpuNow()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

namespace
{

rusage
usage(int who)
{
    rusage ru{};
    ::getrusage(who, &ru);
    return ru;
}

double
cpuSeconds(const rusage &ru)
{
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

} // namespace

double
processCpuNow()
{
    return cpuSeconds(usage(RUSAGE_SELF));
}

double
childrenCpuNow()
{
    return cpuSeconds(usage(RUSAGE_CHILDREN));
}

double
peakRssMb()
{
    return usage(RUSAGE_SELF).ru_maxrss / 1024.0; // ru_maxrss is KiB
}

double
childPeakRssMb()
{
    return usage(RUSAGE_CHILDREN).ru_maxrss / 1024.0;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
runRecord(const smtavf::Experiment &e, const smtavf::SimResult &r)
{
    return smtavf::serializeRun(smtavf::experimentFingerprint(e), r);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Report::fail(const std::string &what)
{
    ++failed;
    errors.push_back(what);
}

namespace
{

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

template <class Map, class Fn>
void
object(std::ostringstream &os, const char *key, const Map &m, Fn value)
{
    os << ", " << quote(key) << ": {";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ", ") << quote(k) << ": ";
        value(v);
        first = false;
    }
    os << "}";
}

} // namespace

std::string
Report::json() const
{
    std::ostringstream os;
    os << "{\"attempted\": " << attempted << ", \"failed\": " << failed;
    os << ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i)
        os << (i ? ", " : "") << quote(errors[i]);
    os << "]";
    object(os, "digests", digests, [&](const std::string &v) {
        os << quote(v);
    });
    object(os, "e2e", e2e, [&](double v) { os << number(v); });
    object(os, "layers", layers, [&](double v) { os << number(v); });
    object(os, "info", info, [&](double v) { os << number(v); });
    object(os, "dists", dists, [&](const std::vector<double> &v) {
        os << "[";
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? ", " : "") << number(v[i]);
        os << "]";
    });
    object(os, "histograms", histograms,
           [&](const std::vector<std::array<double, 3>> &v) {
               os << "[";
               for (std::size_t i = 0; i < v.size(); ++i)
                   os << (i ? ", " : "") << "[" << number(v[i][0]) << ", "
                      << number(v[i][1]) << ", " << number(v[i][2]) << "]";
               os << "]";
           });
    os << "}";
    return os.str();
}

} // namespace perfbench
