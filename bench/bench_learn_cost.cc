/**
 * @file
 * Experiment L1 — Query cost of active policy learning.
 *
 * For catalog policies across associativities, run the L* learner
 * against the replay-exact policy oracle and report the size of the
 * recovered automaton and what it cost: membership words, accesses
 * with the prefix-sharing batch evaluator, accesses when sharing is
 * disabled, and the resulting saving. A second table shows the
 * designed degradation: configurations whose state space exceeds the
 * budget end in a clean abstention, never a wrong machine.
 *
 * A third table learns a hidden dip@2 level through the measuring
 * machine backend, as the inference pipeline's escalation does.
 *
 * Every row (learner host seconds, membership and equivalence words,
 * states, per target) also lands in BENCH_learn_cost.json. Reported
 * alongside wall-clock timings of representative learning sessions
 * (concrete semantics at 4 ways, recency roles at 8 ways).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "recap/common/parallel.hh"
#include "recap/common/table.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/infer/pipeline.hh"
#include "recap/learn/lstar.hh"
#include "recap/learn/teacher.hh"
#include "recap/policy/factory.hh"
#include "recap/query/oracle.hh"

namespace
{

using namespace recap;
using learn::LearnOptions;
using learn::LearnOutcome;
using learn::LearnResult;
using learn::SymbolSemantics;

struct LearnCost
{
    LearnResult result;
    uint64_t accesses = 0;
    /** Host seconds of the learning session alone. */
    double seconds = 0.0;
};

/** Runs @p learner, timing the session into @p cost. */
void
timedRun(learn::LStarLearner& learner, LearnCost& cost)
{
    const auto start = std::chrono::steady_clock::now();
    cost.result = learner.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    cost.seconds = elapsed.count();
}

LearnCost
learnOnce(const std::string& spec, unsigned ways,
          const LearnOptions& options, bool prefixSharing)
{
    query::PolicyOracle oracle(spec, ways);
    query::BatchOptions batch;
    batch.prefixSharing = prefixSharing;
    learn::OracleTeacher teacher(oracle, batch);
    learn::LStarLearner learner(teacher, options);
    LearnCost cost;
    timedRun(learner, cost);
    cost.accesses = teacher.accessesUsed();
    return cost;
}

std::string
semanticsName(SymbolSemantics semantics)
{
    return semantics == SymbolSemantics::kRecencyRoles ? "roles"
                                                       : "concrete";
}

/** One BENCH_learn_cost.json row. */
benchjson::Object
jsonRow(const std::string& table, const std::string& target,
        const std::string& semantics, const LearnCost& cost)
{
    const bool learned =
        cost.result.outcome == LearnOutcome::kLearned;
    return {{"table", table},
            {"target", target},
            {"semantics", semantics},
            {"outcome", std::string(learned ? "learned" : "abstained")},
            {"states", uint64_t{cost.result.states}},
            {"membership_words", cost.result.membershipWords},
            {"equivalence_words", cost.result.equivalenceWords},
            {"accesses", cost.accesses},
            {"learn_s", cost.seconds}};
}

std::string
targetName(const std::string& spec, unsigned ways)
{
    return spec + "@" + std::to_string(ways);
}

void
printCostTable(benchjson::Writer& json)
{
    std::cout << "====================================================\n";
    std::cout << " L1: query cost of active policy learning\n";
    std::cout << "====================================================\n\n";

    struct Config
    {
        const char* spec;
        unsigned ways;
        SymbolSemantics semantics;
    };
    const Config configs[] = {
        {"lru", 2, SymbolSemantics::kConcreteBlocks},
        {"fifo", 2, SymbolSemantics::kConcreteBlocks},
        {"plru", 2, SymbolSemantics::kConcreteBlocks},
        {"nru", 2, SymbolSemantics::kConcreteBlocks},
        {"bip", 2, SymbolSemantics::kConcreteBlocks},
        {"qlru:H1,M1,R0,U2", 2, SymbolSemantics::kConcreteBlocks},
        {"lru", 3, SymbolSemantics::kConcreteBlocks},
        {"fifo", 3, SymbolSemantics::kConcreteBlocks},
        {"lru", 4, SymbolSemantics::kConcreteBlocks},
        {"plru", 4, SymbolSemantics::kConcreteBlocks},
        {"slru:1", 4, SymbolSemantics::kConcreteBlocks},
        {"lru", 4, SymbolSemantics::kRecencyRoles},
        {"lru", 6, SymbolSemantics::kRecencyRoles},
        {"lru", 8, SymbolSemantics::kRecencyRoles},
    };

    TextTable table({"policy", "k", "semantics", "states", "words",
                     "accesses shared", "accesses naive", "saving",
                     "learn s"});
    for (const auto& config : configs) {
        if (!policy::specSupportsWays(config.spec, config.ways))
            continue;
        LearnOptions options;
        options.semantics = config.semantics;
        const auto shared =
            learnOnce(config.spec, config.ways, options, true);
        const auto naive =
            learnOnce(config.spec, config.ways, options, false);
        json.row(jsonRow("cost", targetName(config.spec, config.ways),
                         semanticsName(config.semantics), shared));
        if (shared.result.outcome != LearnOutcome::kLearned) {
            table.addRow({config.spec, std::to_string(config.ways),
                          semanticsName(config.semantics),
                          "abstained", "-", "-", "-", "-",
                          formatDouble(shared.seconds, 3)});
            continue;
        }
        table.addRow(
            {config.spec, std::to_string(config.ways),
             semanticsName(config.semantics),
             std::to_string(shared.result.states),
             std::to_string(shared.result.membershipWords),
             std::to_string(shared.accesses),
             std::to_string(naive.accesses),
             formatPercent(1.0 - static_cast<double>(shared.accesses) /
                                     static_cast<double>(
                                         naive.accesses)),
             formatDouble(shared.seconds, 3)});
    }
    table.print(std::cout);
    std::cout << "\n";
}

void
printAbstentionTable(benchjson::Writer& json)
{
    std::cout << " L1b: state-space walls end in abstention\n\n";

    TextTable table({"policy", "k", "semantics", "budget", "outcome"});
    struct Config
    {
        const char* spec;
        unsigned ways;
        SymbolSemantics semantics;
    };
    // LRU's concrete space at 8 ways has ~3.6e5 states; PLRU/FIFO
    // embed way order, so even the role quotient blows up.
    const Config configs[] = {
        {"lru", 8, SymbolSemantics::kConcreteBlocks},
        {"plru", 8, SymbolSemantics::kRecencyRoles},
        {"fifo", 8, SymbolSemantics::kRecencyRoles},
    };
    for (const auto& config : configs) {
        LearnOptions options;
        options.semantics = config.semantics;
        options.maxStates = 256;
        options.maxWords = 200000;
        const auto cost =
            learnOnce(config.spec, config.ways, options, true);
        json.row(jsonRow("abstention",
                         targetName(config.spec, config.ways),
                         semanticsName(config.semantics), cost));
        table.addRow(
            {config.spec, std::to_string(config.ways),
             semanticsName(config.semantics),
             "256 states / 200k words",
             cost.result.outcome == LearnOutcome::kLearned
                 ? "learned " + std::to_string(cost.result.states) +
                       " states"
                 : "abstained: " + cost.result.diagnostics});
    }
    table.print(std::cout);
    std::cout << "\n";
}

/**
 * The pipeline's learning escalation on its own: a hidden dip@2
 * level learned through the measuring machine backend, with the
 * pipeline's learner budgets and level-0 seed.
 */
void
printMeasuredTable(benchjson::Writer& json)
{
    std::cout << " L1c: learning through the machine backend\n\n";

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
    learn::LStarLearner learner(teacher, options);
    LearnCost cost;
    timedRun(learner, cost);
    cost.accesses = teacher.accessesUsed();
    json.row(jsonRow("machine", "dip@2", "concrete", cost));

    TextTable table({"target", "outcome", "states", "words",
                     "eq words", "loads", "learn s"});
    table.addRow(
        {"dip@2 (machine)",
         cost.result.outcome == LearnOutcome::kLearned ? "learned"
                                                       : "abstained",
         std::to_string(cost.result.states),
         std::to_string(cost.result.membershipWords),
         std::to_string(cost.result.equivalenceWords),
         std::to_string(cost.accesses),
         formatDouble(cost.seconds, 3)});
    table.print(std::cout);
    std::cout << "\n";
}

void
BM_LearnConcreteLru4(benchmark::State& state)
{
    for (auto unused : state) {
        LearnOptions options;
        benchmark::DoNotOptimize(
            learnOnce("lru", 4, options, true).accesses);
        (void)unused;
    }
}
BENCHMARK(BM_LearnConcreteLru4)->Unit(benchmark::kMillisecond);

void
BM_LearnRolesLru8(benchmark::State& state)
{
    for (auto unused : state) {
        LearnOptions options;
        options.semantics = SymbolSemantics::kRecencyRoles;
        benchmark::DoNotOptimize(
            learnOnce("lru", 8, options, true).accesses);
        (void)unused;
    }
}
BENCHMARK(BM_LearnRolesLru8)->Unit(benchmark::kMillisecond);

void
BM_LearnSlru4NoSharing(benchmark::State& state)
{
    for (auto unused : state) {
        LearnOptions options;
        benchmark::DoNotOptimize(
            learnOnce("slru:1", 4, options, false).accesses);
        (void)unused;
    }
}
BENCHMARK(BM_LearnSlru4NoSharing)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    benchjson::Writer json(
        "learn_cost",
        "L* learning cost per target: host seconds, membership and "
        "equivalence words, states");
    printCostTable(json);
    printAbstentionTable(json);
    printMeasuredTable(json);
    if (const std::string path = json.write(); !path.empty())
        std::cout << "Wrote " << path << "\n\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
