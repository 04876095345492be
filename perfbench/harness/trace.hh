/**
 * @file
 * Spans recorded by the benchmark around its own calls into each
 * layer's public functions. Spans stay in memory and are written out
 * once, when the traced run ends; per-tick spans are too many to keep
 * and are aggregated into a count, a total and a histogram instead.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Log-linear histogram of nanosecond durations (32 buckets per octave). */
class LogHistogram
{
  public:
    void add(std::uint64_t ns);

    std::uint64_t count() const { return count_; }
    double totalNs() const { return total_; }

    /** Non-empty buckets as {low, high, count}, low inclusive. */
    std::vector<std::array<double, 3>> buckets() const;

  private:
    static constexpr unsigned kSub = 32;
    static unsigned index(std::uint64_t ns);

    std::vector<std::uint64_t> counts_ =
        std::vector<std::uint64_t>(64 + 58 * kSub, 0);
    std::uint64_t count_ = 0;
    double total_ = 0.0;
};

/** One closed span. Times are seconds since the trace started. */
struct SpanRecord
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;       ///< index of the enclosing span, -1 at top level
    std::int64_t run = -1; ///< the run (experiment index) it belongs to
};

/** In-memory span log; a disabled trace records nothing. */
class Trace
{
  public:
    explicit Trace(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const std::string &name, std::int64_t run);
    void close(int id);

    /**
     * Record an already-timed span (absolute wallNow() seconds), e.g.
     * one campaign run reported by a worker's progress callback.
     */
    void add(const std::string &name, double start, double end, int parent,
             std::int64_t run);

    /** A per-tick aggregate: count, total and histogram under one name. */
    void aggregate(const std::string &name, const LogHistogram &h);

    /** Write every span and aggregate as JSON lines to @p path. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    double origin_;
    mutable std::mutex m_;
    std::vector<SpanRecord> spans_;     ///< guarded by m_
    std::vector<int> stack_;            ///< guarded by m_
    std::vector<std::string> aggregates_; ///< guarded by m_
};

/** RAII span; measures its own duration even when tracing is off. */
class Span
{
  public:
    Span(Trace &trace, const std::string &name, std::int64_t run = -1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close now and return the duration in seconds (idempotent). */
    double stop();

    /** The span's index in the trace (-1 when tracing is off). */
    int id() const { return id_; }

  private:
    Trace &trace_;
    int id_;
    double start_;
    double seconds_ = -1.0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
