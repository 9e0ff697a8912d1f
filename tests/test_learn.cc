/**
 * @file
 * Tests for the L* learner: exact recovery of catalog policies
 * (isomorphism against the extracted ground-truth automaton),
 * recency-role learning at high associativity, and the abstention
 * paths (budgets, undetermined answers, low confidence, garbled
 * teachers) — the learner must never return a wrong automaton.
 */

#include <gtest/gtest.h>

#include "recap/common/parallel.hh"
#include "recap/common/rng.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/infer/pipeline.hh"
#include "recap/learn/learned_policy.hh"
#include "recap/learn/lstar.hh"
#include "recap/learn/teacher.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/query/oracle.hh"

namespace
{

using namespace recap;
using learn::LearnOptions;
using learn::LearnOutcome;
using learn::LearnResult;
using learn::LStarLearner;
using learn::MealyMachine;
using learn::SymbolSemantics;
using learn::TeacherAnswer;
using learn::Word;

MealyMachine
truthOf(const std::string& spec, unsigned ways)
{
    const auto policy = policy::makePolicy(spec, ways);
    return learn::automatonOfPolicy(*policy, ways + 1).minimized();
}

LearnResult
learnPolicy(const std::string& spec, unsigned ways,
            LearnOptions options = {}, bool useReference = false)
{
    query::PolicyOracle oracle(spec, ways);
    learn::OracleTeacher teacher(oracle);
    LStarLearner learner(teacher, options);
    if (useReference)
        learner.setReference(truthOf(spec, ways));
    return learner.run();
}

void
expectExactRecovery(const std::string& spec, unsigned ways,
                    bool useReference = false)
{
    const auto result = learnPolicy(spec, ways, {}, useReference);
    ASSERT_EQ(result.outcome, LearnOutcome::kLearned)
        << spec << "@" << ways << ": " << result.diagnostics;
    const auto truth = truthOf(spec, ways);
    EXPECT_TRUE(result.machine.minimized().isomorphicTo(truth))
        << spec << "@" << ways << " learned " << result.states
        << " states, truth has " << truth.numStates();
    if (useReference) {
        // The product-BFS oracle proves equivalence outright.
        EXPECT_DOUBLE_EQ(result.equivalenceConfidence, 1.0);
    } else {
        // Sampled equivalence never claims certainty, only evidence.
        EXPECT_GT(result.equivalenceConfidence, 0.99);
        EXPECT_LT(result.equivalenceConfidence, 1.0);
    }
    EXPECT_GT(result.membershipWords, 0u);
    EXPECT_GT(result.accessesUsed, result.membershipWords);
}

/** Lockstep hit/miss mismatches of @p model against @p truthSpec. */
unsigned
lockstepMismatches(const policy::ReplacementPolicy& model,
                   const std::string& truthSpec, unsigned ways,
                   unsigned accesses)
{
    policy::SetModel learned(model.clone());
    policy::SetModel truth(policy::makePolicy(truthSpec, ways));
    Rng rng(123);
    unsigned mismatches = 0;
    for (unsigned i = 0; i < accesses; ++i) {
        if (i % 256 == 255) {
            learned.flush();
            truth.flush();
        }
        const auto block =
            static_cast<policy::BlockId>(rng.nextBelow(ways + 3) + 1);
        if (learned.access(block) != truth.access(block))
            ++mismatches;
    }
    return mismatches;
}

TEST(Learn, ExactRecoveryAtTwoWays)
{
    for (const char* spec :
         {"lru", "fifo", "plru", "bitplru", "nru", "lip",
          "qlru:H1,M1,R0,U2", "qlru:H1,M3,R0,U2"}) {
        expectExactRecovery(spec, 2);
    }
}

TEST(Learn, ExactRecoveryAtThreeWays)
{
    expectExactRecovery("lru", 3);
    expectExactRecovery("fifo", 3);
}

TEST(Learn, ExactRecoveryAtFourWaysWithReferenceOracle)
{
    // 206–611-state machines: the sampled equivalence phase still
    // converges but the complete W-method pass dominates runtime, so
    // the exact reference oracle stands in (the sampling path is
    // exercised at 2–3 ways above and in bench_learn_cost).
    for (const char* spec : {"lru", "fifo", "plru", "lip", "slru:1",
                             "slru"}) {
        expectExactRecovery(spec, 4, /*useReference=*/true);
    }
}

TEST(Learn, SampledEquivalenceMatchesReferenceAtFourWays)
{
    // The sampling path (random words + bounded W-method, no ground
    // truth) must find the same machine the reference oracle proves.
    LearnOptions options;
    const auto sampled = learnPolicy("plru", 4, options);
    ASSERT_EQ(sampled.outcome, LearnOutcome::kLearned)
        << sampled.diagnostics;
    EXPECT_TRUE(sampled.machine.minimized().isomorphicTo(
        truthOf("plru", 4)));
}

TEST(Learn, RecencyRolesLearnLruCompactly)
{
    // Under recency-role semantics LRU's state is just "how many
    // distinct blocks seen (capped)": ways + 1 states however large
    // the concrete space is.
    for (const unsigned ways : {4u, 8u}) {
        LearnOptions options;
        options.semantics = SymbolSemantics::kRecencyRoles;
        const auto result = learnPolicy("lru", ways, options);
        ASSERT_EQ(result.outcome, LearnOutcome::kLearned)
            << "lru@" << ways << ": " << result.diagnostics;
        EXPECT_EQ(result.states, ways + 1);
        const learn::LearnedPolicy model(
            ways, result.machine, SymbolSemantics::kRecencyRoles);
        EXPECT_EQ(lockstepMismatches(model, "lru", ways, 10000), 0u);
    }
}

/** The cost of one learning run, every count pinned exactly. */
struct CostPin
{
    unsigned states;
    uint64_t membershipWords;
    uint64_t equivalenceWords;
    uint64_t accessesUsed;
    uint64_t experimentsUsed;
};

void
expectPinned(const LearnResult& result, const CostPin& pin,
             const std::string& what)
{
    ASSERT_EQ(result.outcome, LearnOutcome::kLearned)
        << what << ": " << result.diagnostics;
    EXPECT_EQ(result.states, pin.states) << what;
    EXPECT_EQ(result.membershipWords, pin.membershipWords) << what;
    EXPECT_EQ(result.equivalenceWords, pin.equivalenceWords) << what;
    EXPECT_EQ(result.accessesUsed, pin.accessesUsed) << what;
    EXPECT_EQ(result.experimentsUsed, pin.experimentsUsed) << what;
}

TEST(Learn, PolicyOracleCostsArePinned)
{
    // Word order, batch contents and evidence semantics all feed
    // these counts (accesses and experiments depend on how batches
    // share prefixes), so any change to them shows up here.
    struct Case
    {
        const char* spec;
        unsigned ways;
        SymbolSemantics semantics;
        CostPin pin;
    };
    const Case cases[] = {
        {"lru", 2, SymbolSemantics::kConcreteBlocks,
         {10, 1562, 1216, 2261, 894}},
        {"lru", 3, SymbolSemantics::kConcreteBlocks,
         {41, 16591, 14606, 17874, 9214}},
        {"lru", 8, SymbolSemantics::kRecencyRoles,
         {9, 9094, 8356, 5654, 2640}},
        {"bip:4", 2, SymbolSemantics::kConcreteBlocks,
         {28, 14527, 8768, 17243, 6149}},
    };
    for (const Case& c : cases) {
        LearnOptions options;
        options.semantics = c.semantics;
        expectPinned(learnPolicy(c.spec, c.ways, options), c.pin,
                     std::string(c.spec) + "@" +
                         std::to_string(c.ways));
    }
}

TEST(Learn, HiddenDipMachineOracleCostsArePinned)
{
    // The pipeline's learning escalation on a hidden dip@2 level:
    // measured answers through the machine backend, the pipeline's
    // learner budgets and its level-0 seed.
    hw::MachineSpec spec;
    spec.name = "rig-dip";
    spec.description = "hidden dip rig";
    hw::CacheLevelSpec level;
    level.name = "L1";
    level.capacityBytes = uint64_t{64} * 64 * 2;
    level.ways = 2;
    level.hitLatency = 4;
    level.policySpec = "dip";
    spec.levels = {level};
    spec.memoryLatency = 100;

    hw::Machine machine(spec);
    infer::MeasurementContext ctx(machine);
    query::MachineOracle oracle(ctx, infer::assumedGeometry(spec), 0);
    learn::OracleTeacher teacher(oracle);
    LearnOptions options = infer::PolicyLearningOptions{}.learner;
    options.seed = deriveTaskSeed(infer::InferenceOptions{}.seed, 0);
    LStarLearner learner(teacher, options);
    const auto result = learner.run();
    expectPinned(result, {178, 189723, 128, 723462, 51328}, "dip@2");
    EXPECT_EQ(ctx.loadsIssued(), 723462u);
}

TEST(Learn, ConcreteEightWaysAbstainsOnStateBudget)
{
    // LRU at 8 ways has ~3.6e5 concrete states: the learner must hit
    // the state budget and abstain, never return a truncated guess.
    LearnOptions options;
    options.maxStates = 64;
    options.maxWords = 50000;
    const auto result = learnPolicy("lru", 8, options);
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
    EXPECT_FALSE(result.diagnostics.empty());
}

TEST(Learn, WordBudgetAbstains)
{
    LearnOptions options;
    options.maxWords = 10;
    const auto result = learnPolicy("plru", 4, options);
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
    EXPECT_FALSE(result.diagnostics.empty());
}

/** Wraps a teacher and marks every answer undetermined. */
class UndeterminedTeacher : public learn::Teacher
{
  public:
    explicit UndeterminedTeacher(learn::Teacher& inner)
        : inner_(inner)
    {}

    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override { return "undetermined"; }
    std::vector<TeacherAnswer>
    answer(const std::vector<Word>& words) override
    {
        auto answers = inner_.answer(words);
        for (auto& a : answers)
            a.determined = false;
        return answers;
    }
    uint64_t wordsAsked() const override
    {
        return inner_.wordsAsked();
    }
    uint64_t accessesUsed() const override
    {
        return inner_.accessesUsed();
    }
    uint64_t experimentsUsed() const override
    {
        return inner_.experimentsUsed();
    }

  private:
    learn::Teacher& inner_;
};

TEST(Learn, UndeterminedAnswersAbstain)
{
    query::PolicyOracle oracle("lru", 2);
    learn::OracleTeacher inner(oracle);
    UndeterminedTeacher teacher(inner);
    LStarLearner learner(teacher);
    const auto result = learner.run();
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
    EXPECT_FALSE(result.diagnostics.empty());
}

/** Wraps a teacher, scaling every answer's confidence down. */
class LowConfidenceTeacher : public learn::Teacher
{
  public:
    LowConfidenceTeacher(learn::Teacher& inner, double confidence)
        : inner_(inner), confidence_(confidence)
    {}

    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override { return "low-confidence"; }
    std::vector<TeacherAnswer>
    answer(const std::vector<Word>& words) override
    {
        auto answers = inner_.answer(words);
        for (auto& a : answers)
            a.confidence = confidence_;
        return answers;
    }
    uint64_t wordsAsked() const override
    {
        return inner_.wordsAsked();
    }
    uint64_t accessesUsed() const override
    {
        return inner_.accessesUsed();
    }
    uint64_t experimentsUsed() const override
    {
        return inner_.experimentsUsed();
    }

  private:
    learn::Teacher& inner_;
    double confidence_;
};

TEST(Learn, ConfidenceFloorAbstains)
{
    query::PolicyOracle oracle("lru", 2);
    learn::OracleTeacher inner(oracle);
    LowConfidenceTeacher teacher(inner, 0.3);
    LearnOptions options;
    options.minConfidence = 0.5;
    LStarLearner learner(teacher, options);
    const auto result = learner.run();
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
}

TEST(Learn, ConfidenceFloorPassesWhenMet)
{
    query::PolicyOracle oracle("lru", 2);
    learn::OracleTeacher inner(oracle);
    LowConfidenceTeacher teacher(inner, 0.9);
    LearnOptions options;
    options.minConfidence = 0.5;
    LStarLearner learner(teacher, options);
    const auto result = learner.run();
    ASSERT_EQ(result.outcome, LearnOutcome::kLearned);
    EXPECT_DOUBLE_EQ(result.teacherConfidence, 0.9);
}

/** Wraps a teacher, flipping the last output of every Nth word. */
class GarbledTeacher : public learn::Teacher
{
  public:
    GarbledTeacher(learn::Teacher& inner, uint64_t period)
        : inner_(inner), period_(period)
    {}

    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override { return "garbled"; }
    std::vector<TeacherAnswer>
    answer(const std::vector<Word>& words) override
    {
        auto answers = inner_.answer(words);
        for (auto& a : answers) {
            if (++counter_ % period_ == 0 && !a.outputs.empty())
                a.outputs.back() = !a.outputs.back();
        }
        return answers;
    }
    uint64_t wordsAsked() const override
    {
        return inner_.wordsAsked();
    }
    uint64_t accessesUsed() const override
    {
        return inner_.accessesUsed();
    }
    uint64_t experimentsUsed() const override
    {
        return inner_.experimentsUsed();
    }

  private:
    learn::Teacher& inner_;
    uint64_t period_;
    uint64_t counter_ = 0;
};

TEST(Learn, GarbledTeacherNeverYieldsAWrongAutomaton)
{
    // The fault-injection property behind the design: a teacher that
    // lies must be caught by the prefix-consistency ledger (or hit a
    // budget) and turn into kAbstained. A lying teacher may at worst
    // delay convergence — but if the learner does converge, the
    // answer must still be the true machine.
    const auto truth = truthOf("plru", 2);
    for (const uint64_t period : {3u, 7u, 13u, 37u, 101u}) {
        query::PolicyOracle oracle("plru", 2);
        learn::OracleTeacher inner(oracle);
        GarbledTeacher teacher(inner, period);
        LStarLearner learner(teacher);
        const auto result = learner.run();
        if (result.outcome == LearnOutcome::kLearned) {
            EXPECT_TRUE(result.machine.minimized().isomorphicTo(truth))
                << "period " << period
                << " learned a wrong automaton";
        } else {
            EXPECT_FALSE(result.diagnostics.empty());
        }
    }
}

TEST(Learn, GarbledTeacherConflictIsDetected)
{
    // A dense fault rate cannot stay consistent across overlapping
    // prefixes: the ledger must expose it and the learner abstain.
    query::PolicyOracle oracle("plru", 2);
    learn::OracleTeacher inner(oracle);
    GarbledTeacher teacher(inner, 2);
    LStarLearner learner(teacher);
    const auto result = learner.run();
    EXPECT_EQ(result.outcome, LearnOutcome::kAbstained);
    EXPECT_NE(result.diagnostics.find("conflict"), std::string::npos)
        << result.diagnostics;
}

TEST(Learn, ConcretizeMapsRolesToBlocks)
{
    using learn::LStarLearner;
    // Concrete semantics: symbol s is block s + 1.
    const Word concrete = LStarLearner::concretize(
        {0, 2, 1}, SymbolSemantics::kConcreteBlocks, 3);
    EXPECT_EQ(concrete, (Word{1, 3, 2}));
    // Role semantics over alphabet 3 (ranks 0, 1 + fresh symbol 2):
    // fresh, fresh, most-recent, second-most-recent, fresh.
    const Word roles = LStarLearner::concretize(
        {2, 2, 0, 1, 2}, SymbolSemantics::kRecencyRoles, 3);
    EXPECT_EQ(roles, (Word{1, 2, 2, 1, 3}));
}

} // namespace
