/**
 * @file
 * Tests of the benchmark's own measurement code: the tail-percentile
 * rule, open-loop due-time latency under an injected stall, failure
 * accounting, and span self-time arithmetic.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness.hh"

namespace perfbench
{
namespace
{

// ------------------------------------------------------- percentiles

TEST(Percentile, RuleLeavesTenSamplesBeyond)
{
    EXPECT_FALSE(tailPercentile(0).has_value());
    EXPECT_FALSE(tailPercentile(19).has_value());
    EXPECT_EQ(tailPercentile(20), 50.0);   // 10 beyond the median
    EXPECT_EQ(tailPercentile(99), 50.0);   // p90 leaves 9
    EXPECT_EQ(tailPercentile(100), 90.0);  // p90 leaves exactly 10
    EXPECT_EQ(tailPercentile(999), 90.0);  // p99 leaves 9
    EXPECT_EQ(tailPercentile(1000), 99.0); // p99 leaves exactly 10
    EXPECT_EQ(tailPercentile(9999), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
    EXPECT_EQ(tailPercentile(100000), 99.99);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 500);
    EXPECT_EQ(percentile(v, 99), 990);
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(percentile({7, 1, 3}, 100), 7);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

// --------------------------------------------------------- open loop

/** Simulated time: sleeping and serving advance it instantly. */
class FakeClock : public Clock
{
  public:
    double now() override { return t_; }
    void sleepUntil(double t) override { t_ = std::max(t_, t); }
    void advance(double dt) { t_ += dt; }

  private:
    double t_ = 0.0;
};

TEST(OpenLoop, StallDelaysLaterRequestsFromTheirDueTime)
{
    FakeClock clock;
    OpenLoopConfig cfg;
    cfg.rate = 1000.0; // due every 1 ms
    cfg.count = 10;
    const OpenLoopResult res = runOpenLoop(cfg, clock, [&](std::size_t i) {
        // 100 us per request; request 2 stalls for 5 ms.
        clock.advance(i == 2 ? 5e-3 : 100e-6);
    });

    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_NEAR(res.latencyUs[i], 100.0, 1e-6);
        EXPECT_NEAR(res.waitUs[i], 0.0, 1e-6);
    }
    EXPECT_NEAR(res.latencyUs[2], 5000.0, 1e-6);
    // Request 3 was due 1 ms after request 2 but could only go out
    // when the stall ended, 4 ms late; its latency counts that wait,
    // its service time does not.
    EXPECT_NEAR(res.waitUs[3], 4000.0, 1e-6);
    EXPECT_NEAR(res.serviceUs[3], 100.0, 1e-6);
    EXPECT_NEAR(res.latencyUs[3], 4100.0, 1e-6);
    // The backlog drains at 0.9 ms per request.
    EXPECT_NEAR(res.waitUs[4], 3100.0, 1e-6);
    EXPECT_NEAR(res.waitUs[7], 400.0, 1e-6);
    EXPECT_NEAR(res.waitUs[8], 0.0, 1e-6);
    // Generator lateness report.
    EXPECT_NEAR(res.maxLatenessUs(), 4000.0, 1e-6);
    EXPECT_NEAR(res.finalLatenessUs(), 0.0, 1e-6);
    EXPECT_NEAR(res.wallS, 9e-3 + 100e-6, 1e-9);
}

TEST(OpenLoop, GrowingBacklogShowsInFinalLateness)
{
    FakeClock clock;
    OpenLoopConfig cfg;
    cfg.rate = 1000.0;
    cfg.count = 100;
    // 1.5 ms of service per 1 ms of schedule: the backlog grows.
    const OpenLoopResult res = runOpenLoop(
        cfg, clock, [&](std::size_t) { clock.advance(1.5e-3); });
    EXPECT_NEAR(res.finalLatenessUs(), 99 * 500.0, 1e-3);
    EXPECT_GT(percentile(res.latencyUs, 99.0), 40000.0);
}

TEST(OpenLoop, RealClockSendsOnSchedule)
{
    SteadyClock clock;
    OpenLoopConfig cfg;
    cfg.rate = 2000.0;
    cfg.count = 40;
    const OpenLoopResult res = runOpenLoop(cfg, clock, [](std::size_t) {});
    EXPECT_EQ(res.latencyUs.size(), 40u);
    EXPECT_GE(res.wallS, 39 / 2000.0);
    for (double w : res.waitUs)
        EXPECT_GE(w, 0.0);
}

// ------------------------------------------------ failure accounting

TEST(Tally, EveryNonAnswerIsAFailure)
{
    Tally t;
    t.record(OpResult::kOk);
    t.record(OpResult::kOk);
    t.record(OpResult::kShed, "shed");
    t.record(OpResult::kAborted, "aborted");
    t.record(OpResult::kSilent, "silent");
    t.record(OpResult::kWrong, "wrong");
    t.record(OpResult::kDegraded, "degraded");
    EXPECT_EQ(t.attempted, 7u);
    EXPECT_EQ(t.failed(), 4u);
    EXPECT_EQ(t.ok(), 3u);
    EXPECT_DOUBLE_EQ(t.decidedRatio(), 2.0 / 7.0);
    EXPECT_FALSE(t.correct());
    EXPECT_EQ(t.firstProblems.size(), 4u); // degraded is not a problem
}

TEST(Tally, ShedAndAbortedAreFailuresButNotWrong)
{
    Tally t;
    t.record(OpResult::kOk);
    t.record(OpResult::kShed);
    t.record(OpResult::kAborted);
    EXPECT_EQ(t.failed(), 2u);
    EXPECT_TRUE(t.correct());

    Tally silent;
    silent.record(OpResult::kSilent);
    EXPECT_FALSE(silent.correct());
    EXPECT_EQ(silent.failed(), 1u);
}

// ------------------------------------------------------------- spans

TEST(Spans, SelfTimeSubtractsDirectChildren)
{
    // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
    std::vector<Span> s = {
        {"root", "", -1, 0, 10},
        {"a", "", 0, 1, 4},
        {"a1", "", 1, 2, 3},
        {"b", "", 0, 5, 9},
    };
    const auto self = selfTimes(s);
    EXPECT_DOUBLE_EQ(self[0], 10 - 3 - 4);
    EXPECT_DOUBLE_EQ(self[1], 3 - 1);
    EXPECT_DOUBLE_EQ(self[2], 1);
    EXPECT_DOUBLE_EQ(self[3], 4);
}

TEST(Spans, OverlappingChildrenCountOnceAndAreClipped)
{
    // Parallel children [1,5] and [3,7] cover [1,7]; a child running
    // past its parent's end is clipped to [8,10].
    std::vector<Span> s = {
        {"p", "", -1, 0, 10},
        {"c", "", 0, 1, 5},
        {"c", "", 0, 3, 7},
        {"c", "", 0, 8, 12},
    };
    const auto self = selfTimes(s);
    EXPECT_DOUBLE_EQ(self[0], 10 - 6 - 2);
    const auto byName = selfTimeByName(s);
    EXPECT_DOUBLE_EQ(byName.at("p"), 2);
    EXPECT_DOUBLE_EQ(byName.at("c"), 4 + 4 + 4);
}

TEST(Spans, TracerNestsAndDisabledTracerRecordsNothing)
{
    Tracer on(true);
    {
        ScopedSpan outer(on, "outer", "m1");
        ScopedSpan inner(on, "inner", "m1");
    }
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, 0);
    EXPECT_EQ(on.spans()[1].id, "m1");
    EXPECT_LE(on.spans()[0].start, on.spans()[1].start);
    EXPECT_GE(on.spans()[0].end, on.spans()[1].end);

    Tracer off(false);
    {
        ScopedSpan span(off, "x");
    }
    EXPECT_TRUE(off.spans().empty());
}

} // namespace
} // namespace perfbench
