/**
 * @file
 * Measurement plumbing shared by the benchmark workloads: order
 * statistics with the tail-percentile rule, an in-memory span tracer
 * with self-time arithmetic, an open-loop request generator timed
 * from each request's due time, failure accounting, and a minimal
 * JSON writer for the per-pass result line.
 */

#ifndef PERFBENCH_HARNESS_HH_
#define PERFBENCH_HARNESS_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

// ------------------------------------------------------------ stats

/** Median of @p values (mean of the middle pair); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p p (0 < p <= 100) of @p values: the
 * smallest sample with at least p% of the samples at or below it.
 */
double percentile(std::vector<double> values, double p);

/** Samples strictly beyond the nearest-rank position of @p p. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The tail-percentile rule: the highest of 50, 90, 99, 99.9 and
 * 99.99 that leaves at least ten samples beyond it, or nothing when
 * even the median does not.
 */
std::optional<double> tailPercentile(std::size_t n);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

// ---------------------------------------------------------- tracing

/** One timed region; times are seconds on the steady clock. */
struct Span
{
    std::string name;
    std::string id;   ///< the machine, level or request it served
    int parent = -1;  ///< index of the enclosing span, -1 at the root
    double start = 0.0;
    double end = 0.0;
};

/**
 * Records spans in memory. Disabled tracers record nothing, so the
 * untraced passes carry no tracing cost beyond a branch.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Opens a span under the innermost open one; -1 if disabled. */
    int begin(const std::string& name, const std::string& id = {});
    void end(int index);

    /** Adds an already-timed span (e.g. from per-request timings). */
    int record(Span span);

    const std::vector<Span>& spans() const { return spans_; }

    /** Writes every span as one JSON array to @p path. */
    void writeJson(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const std::string& name,
               const std::string& id = {})
        : tracer_(tracer), index_(tracer.begin(name, id))
    {}
    ~ScopedSpan() { tracer_.end(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tracer_;
    int index_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover (children that overlap
 * each other count once).
 */
std::vector<double> selfTimes(const std::vector<Span>& spans);

/** Self time summed per span name. */
std::map<std::string, double>
selfTimeByName(const std::vector<Span>& spans);

// -------------------------------------------------------- open loop

/** Time source of the open-loop generator (replaceable in tests). */
class Clock
{
  public:
    virtual ~Clock() = default;
    Clock() = default;
    Clock(const Clock&) = delete;
    Clock& operator=(const Clock&) = delete;

    virtual double now() = 0;
    virtual void sleepUntil(double t) = 0;
};

/** The steady clock; sleeps coarsely, then spins the last 5 ms. */
class SteadyClock : public Clock
{
  public:
    double now() override { return nowSeconds(); }
    void sleepUntil(double t) override;
};

struct OpenLoopConfig
{
    double rate = 1000.0;    ///< offered requests per second
    std::size_t count = 0;   ///< requests in the schedule
};

/** Per-request timings, indexed by request number. */
struct OpenLoopResult
{
    std::vector<double> latencyUs; ///< done - due
    std::vector<double> serviceUs; ///< done - send
    std::vector<double> waitUs;    ///< send - due (generator lateness)
    double wallS = 0.0;            ///< first due time to last reply

    /** Latest any request was sent after its due time. */
    double maxLatenessUs() const;

    /**
     * Lateness over the last tenth of the schedule: a backlog that
     * keeps growing shows here even when the median looks healthy.
     */
    double finalLatenessUs() const;
};

/**
 * Sends request i of a fixed schedule at due time start + i / rate,
 * waiting for each reply before the next send. A request that cannot
 * go out on time (the previous reply came late) goes late, and its
 * latency still counts from the due time.
 */
OpenLoopResult runOpenLoop(const OpenLoopConfig& cfg, Clock& clock,
                           const std::function<void(std::size_t)>& send);

// ------------------------------------------------- failure accounting

/** How one attempted operation ended. */
enum class OpResult
{
    kOk,
    kWrong,   ///< wrong verdict, statistic or answer
    kShed,    ///< refused by admission control
    kAborted, ///< cut off by a limit or deadline
    kSilent,  ///< no response where one was due
    kDegraded ///< an answer from the degraded path (not definitive)
};

/** Counts outcomes; every result except kOk and kDegraded fails. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t wrong = 0;
    uint64_t shed = 0;
    uint64_t aborted = 0;
    uint64_t silent = 0;
    uint64_t degraded = 0;
    std::vector<std::string> firstProblems; ///< a few, for stderr

    void record(OpResult result, const std::string& what = {});
    uint64_t failed() const { return wrong + shed + aborted + silent; }
    uint64_t ok() const { return attempted - failed(); }
    /** Definitive results over attempts. */
    double decidedRatio() const;
    /** No wrong answers (shed or aborted requests are not wrong). */
    bool correct() const { return wrong == 0 && silent == 0; }
};

// -------------------------------------------------------------- json

/** Appends JSON for a flat object of numbers/strings, in key order. */
class JsonObject
{
  public:
    JsonObject& num(const std::string& key, double value);
    JsonObject& integer(const std::string& key, uint64_t value);
    JsonObject& str(const std::string& key, const std::string& value);
    JsonObject& boolean(const std::string& key, bool value);
    JsonObject& raw(const std::string& key, const std::string& json);
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string& k);
    std::string body_;
};

std::string jsonString(const std::string& s);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH_
