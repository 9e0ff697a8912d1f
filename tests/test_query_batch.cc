/**
 * @file
 * Tests for the prefix-sharing batch evaluator: batch verdicts must
 * be bit-identical to naive per-query re-execution across every
 * registered policy and both oracle backends (including noisy
 * machines with pinned seeds), for any worker-thread count, while the
 * sharing statistics prove work was actually saved.
 */

#include <gtest/gtest.h>

#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/policy/factory.hh"
#include "recap/query/oracle.hh"
#include "recap/query/parse.hh"

namespace
{

using namespace recap;
using infer::MeasurementContext;
using query::BatchOptions;
using query::BatchStats;
using query::CompiledQuery;
using query::MachineOracle;
using query::PolicyOracle;
using query::ProbeOutcome;
using query::QueryVerdict;

/** A workload with heavy prefix overlap, flushes and duplicates. */
std::vector<CompiledQuery>
sharedWorkload()
{
    const char* kTexts[] = {
        "a b c d a?",
        "a b c d e a?",
        "a b c d e f a? b?",
        "a b c d d? @ a?",
        "a b c x y? a?",
        "( a b )^3 c? a?",
        "a b c d a?",          // exact duplicate
        "p q r s p?",          // alpha-equivalent to query 0
        "x1 x2 x3 x4 x5 x1?",
        "@ a b c d a? @ e f g h e?",
    };
    std::vector<CompiledQuery> queries;
    for (const char* text : kTexts)
        queries.push_back(query::compile(query::parseQuery(text)));
    return queries;
}

std::vector<std::vector<ProbeOutcome>>
probesOf(const std::vector<QueryVerdict>& verdicts)
{
    std::vector<std::vector<ProbeOutcome>> out;
    for (const auto& verdict : verdicts)
        out.push_back(verdict.probes);
    return out;
}

TEST(QueryBatch, PolicyBatchBitIdenticalToNaiveAcrossAllPolicies)
{
    // The whole catalog: at 8 ways bip, brrip, dip and drrip compile
    // factored and drrip:1,4,3,4 into a uint32-wide table.
    const auto queries = sharedWorkload();
    for (const auto& spec : policy::catalogSpecs()) {
        for (unsigned ways : {4u, 8u}) {
            if (!policy::specSupportsWays(spec, ways))
                continue;
            PolicyOracle shared(spec, ways, /*seed=*/7);
            PolicyOracle naive(spec, ways, /*seed=*/7);
            BatchOptions on;
            BatchOptions off;
            off.prefixSharing = false;
            EXPECT_EQ(probesOf(shared.evaluateBatch(queries, on)),
                      probesOf(naive.evaluateBatch(queries, off)))
                << spec << " k=" << ways;
        }
    }
}

TEST(QueryBatch, PolicyBatchInvariantUnderThreadCount)
{
    const auto queries = sharedWorkload();
    PolicyOracle oracle("qlru:H1,M1,R0,U2", 8);
    std::vector<std::vector<std::vector<ProbeOutcome>>> runs;
    for (unsigned threads : {1u, 3u, 0u}) {
        BatchOptions opts;
        opts.numThreads = threads;
        runs.push_back(probesOf(oracle.evaluateBatch(queries, opts)));
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(QueryBatch, PolicyStatsProveSharing)
{
    const auto queries = sharedWorkload();
    PolicyOracle oracle("lru", 4);
    BatchStats stats;
    const auto verdicts =
        oracle.evaluateBatch(queries, BatchOptions{}, &stats);

    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_LT(stats.sharedCost, stats.naiveCost);
    EXPECT_EQ(stats.prefixReuses, stats.naiveCost - stats.sharedCost);
    EXPECT_GT(stats.experimentsSaved, 0u);

    // Marginal attribution: the batch-wide cost is exactly the sum
    // of per-query costs, and fully-shared queries ride for free.
    uint64_t accounted = 0;
    for (const auto& verdict : verdicts)
        accounted += verdict.accesses;
    EXPECT_EQ(accounted, stats.sharedCost);
    EXPECT_EQ(verdicts[6].accesses, 0u); // duplicate of query 0
    EXPECT_EQ(verdicts[7].accesses, 0u); // alpha-equivalent to it
}

TEST(QueryBatch, MachineBatchBitIdenticalToNaiveNoiseless)
{
    const auto queries = sharedWorkload();
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    std::vector<std::vector<ProbeOutcome>> byMode[2];
    uint64_t experiments[2];
    for (int shared = 0; shared < 2; ++shared) {
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), 1);
        BatchOptions opts;
        opts.prefixSharing = shared == 1;
        byMode[shared] = probesOf(oracle.evaluateBatch(queries, opts));
        experiments[shared] = ctx.experimentsRun();
    }
    EXPECT_EQ(byMode[0], byMode[1]);
    // Duplicate queries and shared segment prefixes mean the sharing
    // path replays strictly fewer experiments on the machine.
    EXPECT_LT(experiments[1], experiments[0]);
}

TEST(QueryBatch, MachineBatchBitIdenticalToNaiveUnderNoise)
{
    // Pinned machine seed + enough votes: the voted verdicts are
    // stable, so sharing (which reorders and dedups experiments)
    // still answers bit-identically.
    const auto queries = sharedWorkload();
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::NoiseConfig noise;
    noise.disturbProbability = 0.01;
    std::vector<std::vector<ProbeOutcome>> byMode[2];
    for (int shared = 0; shared < 2; ++shared) {
        hw::Machine machine(spec, /*seed=*/11, noise);
        MeasurementContext ctx(machine);
        query::MachineOracleConfig cfg;
        cfg.prober.voteRepeats = 15;
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), 0,
                             cfg);
        BatchOptions opts;
        opts.prefixSharing = shared == 1;
        byMode[shared] = probesOf(oracle.evaluateBatch(queries, opts));
    }
    EXPECT_EQ(byMode[0], byMode[1]);
}

TEST(QueryBatch, MachineLatencyModeBatchMatchesNaive)
{
    const auto queries = sharedWorkload();
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("sandybridge-i5"), 512);
    std::vector<std::vector<ProbeOutcome>> byMode[2];
    for (int shared = 0; shared < 2; ++shared) {
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        query::MachineOracleConfig cfg;
        cfg.mode = query::ObservationMode::kLatency;
        MachineOracle oracle(ctx, infer::assumedGeometry(spec), 2,
                             cfg);
        BatchOptions opts;
        opts.prefixSharing = shared == 1;
        byMode[shared] = probesOf(oracle.evaluateBatch(queries, opts));
    }
    EXPECT_EQ(byMode[0], byMode[1]);
}

TEST(QueryBatch, MachineStatsCountReusesAndSavedExperiments)
{
    const auto queries = sharedWorkload();
    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    MachineOracle oracle(ctx, infer::assumedGeometry(spec), 1);
    BatchStats stats;
    const auto verdicts =
        oracle.evaluateBatch(queries, BatchOptions{}, &stats);

    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_GT(stats.prefixReuses, 0u);
    EXPECT_GT(stats.experimentsSaved, 0u);
    EXPECT_LT(stats.sharedCost, stats.naiveCost);
    EXPECT_EQ(stats.experimentsRun, ctx.experimentsRun());

    uint64_t accounted = 0;
    for (const auto& verdict : verdicts)
        accounted += verdict.accesses;
    EXPECT_EQ(accounted, ctx.loadsIssued());
    EXPECT_EQ(verdicts[6].experiments, 0u); // duplicate rides free
}

TEST(QueryBatch, SingletonBatchEqualsEvaluate)
{
    const CompiledQuery q =
        query::compile(query::parseQuery("a b c d b? @ d?"));
    PolicyOracle batched("srrip", 8);
    PolicyOracle direct("srrip", 8);
    const auto batch = batched.evaluateBatch({q});
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].probes, direct.evaluate(q).probes);
}

TEST(QueryBatch, ShuffledBatchPreservesInputOrder)
{
    // Order-preservation regression: the evaluator sorts internally
    // for prefix grouping, but verdict i must always belong to
    // query i. Shuffle the workload and check every index against an
    // individually evaluated reference, on both backends.
    auto queries = sharedWorkload();
    Rng rng(2024);
    rng.shuffle(queries);

    PolicyOracle policyBatch("slru", 4, /*seed=*/7);
    PolicyOracle policyRef("slru", 4, /*seed=*/7);
    const auto verdicts = policyBatch.evaluateBatch(queries);
    ASSERT_EQ(verdicts.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(verdicts[i].probes,
                  policyRef.evaluate(queries[i]).probes)
            << "policy backend, index " << i;
    }

    const auto spec =
        hw::reducedSpec(hw::catalogMachine("core2-e6300"), 64);
    hw::Machine shared(spec);
    hw::Machine naive(spec);
    MeasurementContext sharedCtx(shared);
    MeasurementContext naiveCtx(naive);
    MachineOracle machineBatch(sharedCtx, infer::assumedGeometry(spec),
                               0);
    MachineOracle machineRef(naiveCtx, infer::assumedGeometry(spec),
                             0);
    const auto measured = machineBatch.evaluateBatch(queries);
    ASSERT_EQ(measured.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(measured[i].probes,
                  machineRef.evaluate(queries[i]).probes)
            << "machine backend, index " << i;
    }
}

TEST(QueryBatch, LargeGeneratedWorkloadMatchesNaive)
{
    // Randomized closure: many queries built from a small alphabet so
    // prefixes collide organically.
    Rng rng(99);
    std::vector<CompiledQuery> queries;
    for (int i = 0; i < 60; ++i) {
        std::string text;
        const auto len = 3 + rng.nextBelow(10);
        for (std::size_t j = 0; j < len; ++j) {
            if (rng.nextBool(0.08))
                text += "@ ";
            text += static_cast<char>('a' + rng.nextBelow(5));
            if (j + 1 == len || rng.nextBool(0.2))
                text += '?';
            text += ' ';
        }
        queries.push_back(query::compile(query::parseQuery(text)));
    }
    for (const char* spec : {"lru", "nru", "bip"}) {
        PolicyOracle shared(spec, 4);
        PolicyOracle naive(spec, 4);
        BatchOptions off;
        off.prefixSharing = false;
        EXPECT_EQ(probesOf(shared.evaluateBatch(queries)),
                  probesOf(naive.evaluateBatch(queries, off)))
            << spec;
    }
}

TEST(QueryBatch, FactoredPolicyBatchMatchesNaive)
{
    // At 8 ways the bimodal and dueling policies compile factored, so
    // the snapshot walk steps a control register next to the core
    // state. Queries over 12 blocks keep the set under eviction
    // pressure, where the fill's insertion variant shows.
    Rng rng(41);
    std::vector<CompiledQuery> queries;
    for (int i = 0; i < 40; ++i) {
        std::string text;
        const auto len = 10 + rng.nextBelow(30);
        for (std::size_t j = 0; j < len; ++j) {
            text += static_cast<char>('a' + rng.nextBelow(12));
            if (j + 1 == len || rng.nextBool(0.3))
                text += '?';
            text += ' ';
        }
        queries.push_back(query::compile(query::parseQuery(text)));
    }
    for (const char* spec : {"bip", "brrip", "dip", "drrip", "dip:4,3,4"}) {
        PolicyOracle shared(spec, 8);
        PolicyOracle naive(spec, 8);
        const auto table = shared.compiledTable();
        ASSERT_NE(table, nullptr) << spec;
        EXPECT_TRUE(table->factored()) << spec;
        BatchOptions off;
        off.prefixSharing = false;
        EXPECT_EQ(probesOf(shared.evaluateBatch(queries)),
                  probesOf(naive.evaluateBatch(queries, off)))
            << spec;
    }
}

} // namespace
