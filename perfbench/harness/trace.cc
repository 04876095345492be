#include "trace.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hh"

namespace perfbench
{

unsigned
LogHistogram::index(std::uint64_t ns)
{
    if (ns < 64)
        return static_cast<unsigned>(ns);
    const unsigned e = 63 - static_cast<unsigned>(__builtin_clzll(ns));
    const unsigned sub = static_cast<unsigned>(ns >> (e - 5)) - kSub;
    return 64 + (e - 6) * kSub + sub;
}

void
LogHistogram::add(std::uint64_t ns)
{
    ++counts_[index(ns)];
    ++count_;
    total_ += static_cast<double>(ns);
}

std::vector<std::array<double, 3>>
LogHistogram::buckets() const
{
    std::vector<std::array<double, 3>> out;
    for (unsigned i = 0; i < counts_.size(); ++i) {
        if (!counts_[i])
            continue;
        double lo = i, hi = i + 1;
        if (i >= 64) {
            const unsigned e = (i - 64) / kSub + 6;
            const unsigned sub = (i - 64) % kSub;
            lo = static_cast<double>(std::uint64_t(kSub + sub) << (e - 5));
            hi = lo + static_cast<double>(std::uint64_t(1) << (e - 5));
        }
        out.push_back({lo, hi, static_cast<double>(counts_[i])});
    }
    return out;
}

Trace::Trace(bool enabled) : enabled_(enabled), origin_(wallNow()) {}

int
Trace::open(const std::string &name, std::int64_t run)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(m_);
    SpanRecord s;
    s.name = name;
    s.start = wallNow() - origin_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Trace::close(int id)
{
    if (id < 0)
        return;
    std::lock_guard<std::mutex> lock(m_);
    spans_[id].end = wallNow() - origin_;
    std::erase(stack_, id);
}

void
Trace::add(const std::string &name, double start, double end, int parent,
           std::int64_t run)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({name, start - origin_, end - origin_, parent, run});
}

void
Trace::aggregate(const std::string &name, const LogHistogram &h)
{
    if (!enabled_)
        return;
    std::ostringstream os;
    os << "{\"aggregate\": \"" << name << "\", \"count\": " << h.count()
       << ", \"total_ns\": " << h.totalNs() << ", \"buckets\": [";
    bool first = true;
    for (const auto &b : h.buckets()) {
        os << (first ? "" : ", ") << "[" << b[0] << ", " << b[1] << ", "
           << b[2] << "]";
        first = false;
    }
    os << "]}";
    std::lock_guard<std::mutex> lock(m_);
    aggregates_.push_back(os.str());
}

void
Trace::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    std::ofstream out(path);
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\"";
        std::snprintf(buf, sizeof(buf), ", \"start\": %.9f, \"end\": %.9f",
                      s.start, s.end);
        out << buf << ", \"parent\": " << s.parent << ", \"run\": " << s.run
            << "}\n";
    }
    for (const auto &a : aggregates_)
        out << a << '\n';
    if (!out)
        throw std::runtime_error("cannot write span file " + path);
}

Span::Span(Trace &trace, const std::string &name, std::int64_t run)
    : trace_(trace), id_(trace.open(name, run)), start_(wallNow())
{
}

Span::~Span()
{
    stop();
}

double
Span::stop()
{
    if (seconds_ < 0.0) {
        seconds_ = wallNow() - start_;
        trace_.close(id_);
    }
    return seconds_;
}

} // namespace perfbench
