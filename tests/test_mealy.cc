/**
 * @file
 * Tests for the Mealy-machine representation: construction, runs,
 * canonical minimization, isomorphism, distinguishing words, and
 * exact ground-truth extraction from catalog policies.
 */

#include <gtest/gtest.h>

#include "recap/common/error.hh"
#include "recap/learn/mealy.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"

namespace
{

using namespace recap;
using learn::MealyMachine;
using learn::Word;
using learn::automatonOfPolicy;

/** s0 --0/miss--> s1, s0 --1/miss--> s0, s1 --0/hit--> s1,
 *  s1 --1/miss--> s0. */
MealyMachine
twoStateMachine()
{
    MealyMachine m(2, 2);
    m.setTransition(0, 0, 1, false);
    m.setTransition(0, 1, 0, false);
    m.setTransition(1, 0, 1, true);
    m.setTransition(1, 1, 0, false);
    return m;
}

TEST(Mealy, RunReportsPerSymbolOutputs)
{
    const auto m = twoStateMachine();
    const std::vector<bool> out = m.run({0, 0, 1, 0});
    ASSERT_EQ(out.size(), 4u);
    EXPECT_FALSE(out[0]); // cold access misses
    EXPECT_TRUE(out[1]);  // repeat hits
    EXPECT_FALSE(out[2]);
    EXPECT_FALSE(out[3]); // state was reset by symbol 1
    EXPECT_FALSE(m.lastOutput({0, 0, 1, 0}));
    EXPECT_TRUE(m.lastOutput({0, 0}));
}

TEST(Mealy, MinimizedMergesBehaviourallyEquivalentStates)
{
    // Duplicate state 1 as state 2; the copy must be merged away.
    MealyMachine m(3, 2);
    m.setTransition(0, 0, 2, false);
    m.setTransition(0, 1, 0, false);
    m.setTransition(1, 0, 1, true);
    m.setTransition(1, 1, 0, false);
    m.setTransition(2, 0, 1, true);
    m.setTransition(2, 1, 0, false);
    const auto minimized = m.minimized();
    EXPECT_EQ(minimized.numStates(), 2u);
    EXPECT_TRUE(m.distinguishingWord(minimized).empty());
    EXPECT_TRUE(minimized.isomorphicTo(twoStateMachine()));
}

TEST(Mealy, MinimizedIsCanonical)
{
    const auto a = twoStateMachine().minimized();
    const auto b = a.minimized();
    EXPECT_EQ(a.numStates(), b.numStates());
    EXPECT_TRUE(a.isomorphicTo(b));
}

TEST(Mealy, DistinguishingWordSeparatesDifferentMachines)
{
    const auto a = twoStateMachine();
    MealyMachine b = twoStateMachine();
    b.setTransition(1, 1, 1, false); // symbol 1 no longer resets
    const Word w = a.distinguishingWord(b);
    ASSERT_FALSE(w.empty());
    EXPECT_NE(a.lastOutput(w), b.lastOutput(w));
    EXPECT_TRUE(a.distinguishingWord(a).empty());
}

TEST(Mealy, AutomatonOfPolicyLruMatchesHandModel)
{
    // LRU at 1 way over 2 blocks: hit iff the same block repeats.
    const auto lru = policy::makePolicy("lru", 1);
    const auto m = automatonOfPolicy(*lru, 2).minimized();
    // States: empty, holds b1, holds b2.
    EXPECT_EQ(m.numStates(), 3u);
    EXPECT_FALSE(m.lastOutput({0}));
    EXPECT_TRUE(m.lastOutput({0, 0}));
    EXPECT_FALSE(m.lastOutput({0, 1}));
    EXPECT_TRUE(m.lastOutput({0, 1, 1}));
    EXPECT_FALSE(m.lastOutput({0, 1, 0}));
}

TEST(Mealy, AutomatonOfPolicyDistinguishesLruFromFifo)
{
    // At 2 ways a hit promotes under LRU but not FIFO: access
    // b1 b2 b1 b3, then b1 — LRU keeps b1, FIFO evicted it.
    const auto lru =
        automatonOfPolicy(*policy::makePolicy("lru", 2), 3);
    const auto fifo =
        automatonOfPolicy(*policy::makePolicy("fifo", 2), 3);
    const Word w = lru.minimized().distinguishingWord(fifo.minimized());
    ASSERT_FALSE(w.empty());
    EXPECT_FALSE(lru.minimized().isomorphicTo(fifo.minimized()));
}

TEST(Mealy, AutomatonOfPolicyStateCountsArePinned)
{
    // Regression pins of the calibrated (minimized) state-space
    // sizes over alphabet ways + 1; these are the numbers the
    // learner's budgets and EXPERIMENTS.md reason about.
    const auto states = [](const std::string& spec, unsigned ways) {
        const auto p = policy::makePolicy(spec, ways);
        return automatonOfPolicy(*p, ways + 1).minimized().numStates();
    };
    EXPECT_EQ(states("lru", 3), 41u);
    EXPECT_EQ(states("fifo", 3), 41u);
    EXPECT_EQ(states("lru", 4), 206u);
    EXPECT_EQ(states("plru", 4), 206u);
    EXPECT_EQ(states("slru:1", 4), 411u);
}

TEST(Mealy, AutomatonOfFactoredDipIsPinned)
{
    // dip at 8 ways compiles factored; extraction never reads tables,
    // and a CompiledPolicy on the factored table is a drop-in for the
    // interpreted one. Pins recorded before the factored form
    // existed.
    const auto interpreted = policy::makePolicy("dip", 8);
    const auto table = policy::compiledTableFor("dip", 8);
    ASSERT_NE(table, nullptr);
    ASSERT_TRUE(table->factored());
    const policy::CompiledPolicy compiled(table);
    const policy::ReplacementPolicy* const both[] = {interpreted.get(),
                                                     &compiled};
    for (const policy::ReplacementPolicy* p : both) {
        const auto machine = automatonOfPolicy(*p, 3, 1u << 16);
        EXPECT_EQ(machine.numStates(), 5521u);
        EXPECT_EQ(machine.minimized().numStates(), 8u);
    }
}

TEST(Mealy, AutomatonOfPolicyRespectsStateGuard)
{
    const auto plru = policy::makePolicy("plru", 4);
    EXPECT_THROW(automatonOfPolicy(*plru, 5, 16), UsageError);
}

TEST(Mealy, ToDotRendersDigraph)
{
    const std::string dot = twoStateMachine().toDot("demo");
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("demo"), std::string::npos);
    EXPECT_NE(dot.find("hit"), std::string::npos);
    EXPECT_NE(dot.find("miss"), std::string::npos);
}

} // namespace
