#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace
{

/** 1-based nearest rank of percentile @p p among @p n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    const double exact = p / 100.0 * static_cast<double>(n);
    // Guard the ceiling against 0.99 * 1000 = 990.0000000000001.
    auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(values.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<double>
tailPercentile(std::size_t n)
{
    std::optional<double> best;
    for (double p : {50.0, 90.0, 99.0, 99.9, 99.99})
        if (samplesBeyond(n, p) >= 10)
            best = p;
    return best;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------- tracing

int
Tracer::begin(const std::string& name, const std::string& id)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = nowSeconds();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    spans_[index].end = nowSeconds();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

int
Tracer::record(Span span)
{
    if (!enabled_)
        return -1;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::writeJson(const std::string& path) const
{
    std::ofstream out(path);
    out.precision(9);
    out << std::fixed << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
            << ",\"id\":" << jsonString(s.id)
            << ",\"parent\":" << s.parent << ",\"start\":" << s.start
            << ",\"end\":" << s.end << "}";
    }
    out << "\n]\n";
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

std::vector<double>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0)
            children[s.parent].emplace_back(s.start, s.end);

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start;
        const double hi = spans[i].end;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        double covered = 0.0;
        double runStart = 0.0;
        double runEnd = -1.0;
        bool inRun = false;
        for (auto [a, b] : kids) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (inRun && a <= runEnd) {
                runEnd = std::max(runEnd, b);
                continue;
            }
            if (inRun)
                covered += runEnd - runStart;
            runStart = a;
            runEnd = b;
            inRun = true;
        }
        if (inRun)
            covered += runEnd - runStart;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span>& spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> byName;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byName[spans[i].name] += self[i];
    return byName;
}

// -------------------------------------------------------- open loop

void
SteadyClock::sleepUntil(double t)
{
    // Waking a sleeping thread can take milliseconds on a virtual
    // machine whose idle CPU was descheduled; spin the last stretch so
    // on-time sends really leave on time.
    constexpr double kSpin = 5e-3;
    const double wake = t - kSpin;
    if (wake > nowSeconds())
        std::this_thread::sleep_for(
            std::chrono::duration<double>(wake - nowSeconds()));
    while (nowSeconds() < t) {
    }
}

double
OpenLoopResult::maxLatenessUs() const
{
    return waitUs.empty()
        ? 0.0 : *std::max_element(waitUs.begin(), waitUs.end());
}

double
OpenLoopResult::finalLatenessUs() const
{
    if (waitUs.empty())
        return 0.0;
    const std::size_t from = waitUs.size() - (waitUs.size() + 9) / 10;
    return *std::max_element(waitUs.begin() + from, waitUs.end());
}

OpenLoopResult
runOpenLoop(const OpenLoopConfig& cfg, Clock& clock,
            const std::function<void(std::size_t)>& send)
{
    if (cfg.rate <= 0.0)
        throw std::invalid_argument("open loop needs a positive rate");
    OpenLoopResult res;
    res.latencyUs.resize(cfg.count);
    res.serviceUs.resize(cfg.count);
    res.waitUs.resize(cfg.count);
    const double start = clock.now() + 1e-3;
    double done = start;
    for (std::size_t i = 0; i < cfg.count; ++i) {
        const double due = start + static_cast<double>(i) / cfg.rate;
        clock.sleepUntil(due);
        const double sent = std::max(clock.now(), due);
        send(i);
        done = clock.now();
        res.latencyUs[i] = (done - due) * 1e6;
        res.serviceUs[i] = (done - sent) * 1e6;
        res.waitUs[i] = (sent - due) * 1e6;
    }
    res.wallS = std::max(0.0, done - start);
    return res;
}

// ------------------------------------------------- failure accounting

void
Tally::record(OpResult result, const std::string& what)
{
    ++attempted;
    switch (result) {
    case OpResult::kOk:
        return;
    case OpResult::kWrong:
        ++wrong;
        break;
    case OpResult::kShed:
        ++shed;
        break;
    case OpResult::kAborted:
        ++aborted;
        break;
    case OpResult::kSilent:
        ++silent;
        break;
    case OpResult::kDegraded:
        ++degraded;
        return;
    }
    if (firstProblems.size() < 8 && !what.empty())
        firstProblems.push_back(what);
}

double
Tally::decidedRatio() const
{
    return attempted == 0
        ? 0.0
        : static_cast<double>(ok() - degraded) /
              static_cast<double>(attempted);
}

// -------------------------------------------------------------- json

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

void
JsonObject::key(const std::string& k)
{
    if (!body_.empty())
        body_ += ',';
    body_ += jsonString(k) + ':';
}

JsonObject&
JsonObject::num(const std::string& k, double value)
{
    key(k);
    if (!std::isfinite(value)) {
        body_ += "null";
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body_ += buf;
    return *this;
}

JsonObject&
JsonObject::integer(const std::string& k, uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonObject&
JsonObject::str(const std::string& k, const std::string& value)
{
    key(k);
    body_ += jsonString(value);
    return *this;
}

JsonObject&
JsonObject::boolean(const std::string& k, bool value)
{
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

JsonObject&
JsonObject::raw(const std::string& k, const std::string& json)
{
    key(k);
    body_ += json;
    return *this;
}

} // namespace perfbench
