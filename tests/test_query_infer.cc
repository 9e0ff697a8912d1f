/**
 * @file
 * Trajectory pins for the inference techniques, which issue every
 * probe as a membership query through query::MachineOracle.
 *
 * Each pin records what one PermutationInference or CandidateSearch
 * run decides and what it costs on a fixed rig: verdict or failure
 * reason, survivors, rounds, loads, experiments and confidence. Any
 * change to probe scheduling, batching, voting or elimination that
 * moves one of these numbers shows up here. The references for the
 * layers underneath are QueryBatch.MachineBatchBitIdenticalToNaive*
 * (query routing against naive re-execution) and
 * MultiKernel.MatchObservationEqualsSetModelReplay (lane elimination
 * against per-candidate SetModel replay).
 */

#include <gtest/gtest.h>

#include "recap/hw/catalog.hh"
#include "recap/hw/faults.hh"
#include "recap/infer/candidate_search.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/naming.hh"
#include "recap/infer/permutation_infer.hh"
#include "recap/infer/set_prober.hh"
#include "recap/policy/factory.hh"

namespace
{

using namespace recap;
using infer::CandidateSearch;
using infer::CandidateSearchConfig;
using infer::CandidateSearchResult;
using infer::MeasurementContext;
using infer::PermutationInference;
using infer::PermutationInferenceConfig;
using infer::PermutationInferenceResult;
using infer::SetProber;
using infer::SetProberConfig;

/** A single-level machine with the given hidden policy. */
hw::MachineSpec
singleLevelSpec(const std::string& policy, unsigned ways,
                unsigned sets = 64)
{
    hw::MachineSpec spec;
    spec.name = "probe-rig";
    spec.description = "single-level test machine";
    hw::CacheLevelSpec lvl;
    lvl.name = "L1";
    lvl.capacityBytes = uint64_t{64} * sets * ways;
    lvl.ways = ways;
    lvl.hitLatency = 4;
    lvl.policySpec = policy;
    spec.levels = {lvl};
    spec.memoryLatency = 100;
    return spec;
}

/** One pinned PermutationInference outcome. */
struct PermutationPin
{
    const char* policy;
    unsigned ways;
    bool isPermutation;
    /** Canonical name when isPermutation, else the failure reason. */
    const char* outcome;
    uint64_t loads;
    uint64_t experiments;
    double confidence;
};

void
expectPinned(const PermutationInferenceResult& got,
             const PermutationPin& pin)
{
    const std::string where =
        std::string(pin.policy) + " k=" + std::to_string(pin.ways);
    ASSERT_EQ(got.isPermutation, pin.isPermutation)
        << where << ": " << got.failureReason;
    if (got.isPermutation) {
        EXPECT_EQ(infer::canonicalPermutationName(*got.policy),
                  pin.outcome)
            << where;
    } else {
        EXPECT_EQ(got.failureReason, pin.outcome) << where;
    }
    EXPECT_FALSE(got.undetermined) << where;
    EXPECT_EQ(got.loadsUsed, pin.loads) << where;
    EXPECT_EQ(got.experimentsUsed, pin.experiments) << where;
    EXPECT_DOUBLE_EQ(got.confidence, pin.confidence) << where;
}

PermutationInferenceResult
inferOnce(const std::string& policy, unsigned ways,
          const PermutationInferenceConfig& cfg)
{
    const auto spec = singleLevelSpec(policy, ways);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, infer::assumedGeometry(spec), 0);
    return PermutationInference(prober, cfg).run();
}

TEST(QueryInfer, PermutationTrajectoriesPinned)
{
    const PermutationPin pins[] = {
        {"lru", 4, true, "LRU", 1485, 138, 1.0},
        {"lru", 8, true, "LRU", 7333, 466, 1.0},
        {"fifo", 4, true, "FIFO", 1485, 138, 1.0},
        {"fifo", 8, true, "FIFO", 7333, 466, 1.0},
        {"plru", 4, true, "PLRU", 1677, 146, 1.0},
        {"plru", 8, true, "PLRU", 7717, 474, 1.0},
        {"nru", 4, false, "cross-validation mismatch in round 0", 1293,
         130, 1.0},
        {"nru", 8, false, "cross-validation mismatch in round 0", 6949,
         458, 1.0},
        {"srrip", 4, false,
         "inconsistent eviction order after a hit at position 0", 223,
         30, 1.0},
        {"srrip", 8, false,
         "inconsistent eviction order after a hit at position 0", 1033,
         77, 1.0},
        {"qlru:H1,M1,R0,U2", 4, false,
         "cross-validation mismatch in round 1", 5709, 314, 1.0},
        {"qlru:H1,M1,R0,U2", 8, false,
         "cross-validation mismatch in round 0", 18853, 706, 1.0},
    };
    for (const PermutationPin& pin : pins)
        expectPinned(inferOnce(pin.policy, pin.ways, {}), pin);
}

TEST(QueryInfer, PermutationAblationTrajectoriesPinned)
{
    // Linear-scan survival and disabled spot check exercise the other
    // batching shapes (lockstep upward scan, full hit-perm loop).
    PermutationInferenceConfig cfg;
    cfg.binarySearchSurvival = false;
    cfg.earlySpotCheck = false;
    const PermutationPin pins[] = {
        {"fifo", 8, true, "FIFO", 6718, 465, 1.0},
        {"nru", 8, false, "cross-validation mismatch in round 0", 6334,
         457, 1.0},
    };
    for (const PermutationPin& pin : pins)
        expectPinned(inferOnce(pin.policy, pin.ways, cfg), pin);
}

TEST(QueryInfer, NoisyPermutationInferenceStillRecoversLru)
{
    const auto spec = singleLevelSpec("lru", 4);
    hw::NoiseConfig noise;
    noise.disturbProbability = 0.005;
    hw::Machine machine(spec, /*seed=*/1, noise);
    MeasurementContext ctx(machine);
    SetProberConfig pc;
    pc.voteRepeats = 9;
    SetProber prober(ctx, infer::assumedGeometry(spec), 0, pc);
    const auto result = PermutationInference(prober).run();
    ASSERT_TRUE(result.isPermutation) << result.failureReason;
    EXPECT_EQ(infer::canonicalPermutationName(*result.policy), "LRU");
}

/** One pinned CandidateSearch outcome. */
struct SearchPin
{
    const char* policy;
    std::vector<std::string> survivors;
    const char* verdict;
    bool decided;
    bool undetermined;
    unsigned rounds;
    uint64_t loads;
    uint64_t experiments;
};

void
expectPinned(const CandidateSearchResult& got, const SearchPin& pin)
{
    EXPECT_EQ(got.survivors, pin.survivors) << pin.policy;
    EXPECT_EQ(got.verdict, pin.verdict) << pin.policy;
    EXPECT_EQ(got.decided, pin.decided) << pin.policy;
    EXPECT_EQ(got.undetermined, pin.undetermined) << pin.policy;
    EXPECT_EQ(got.roundsRun, pin.rounds) << pin.policy;
    EXPECT_EQ(got.loadsUsed, pin.loads) << pin.policy;
    EXPECT_EQ(got.experimentsUsed, pin.experiments) << pin.policy;
}

TEST(QueryInfer, CandidateSearchTrajectoriesPinned)
{
    const std::vector<std::string> candidates{
        "lru",  "fifo", "plru",  "nru",
        "bip",  "srrip", "brrip", "qlru:H1,M1,R0,U2",
    };
    const SearchPin pins[] = {
        {"nru", {"nru"}, "nru", true, false, 1, 48, 1},
        {"srrip", {"srrip"}, "srrip", true, false, 1, 48, 1},
        {"qlru:H1,M1,R0,U2", {"qlru:H1,M1,R0,U2"}, "qlru:H1,M1,R0,U2",
         true, false, 2, 96, 2},
    };
    for (const SearchPin& pin : pins) {
        const auto spec = singleLevelSpec(pin.policy, 8);
        hw::Machine machine(spec);
        MeasurementContext ctx(machine);
        SetProber prober(ctx, infer::assumedGeometry(spec), 0);
        CandidateSearchConfig cfg;
        cfg.numThreads = 1;
        expectPinned(CandidateSearch(prober, candidates, cfg).run(),
                     pin);
    }
}

// A hostile machine (every fault source on) under adaptive voting:
// permutation inference, then candidate search on the same prober.
// The rigs cover a decided search whose confirmation replays pass,
// one whose confirmation replay contradicts the survivor, and one
// where the evidence eliminates the whole library.
TEST(QueryInfer, HostileMachineTrajectoriesPinned)
{
    struct Rig
    {
        uint64_t seed;
        PermutationPin perm;
        SearchPin search;
        double searchConfidence;
        const char* diagnostics;
    };
    const Rig rigs[] = {
        {11,
         {"lru", 4, true, "LRU", 4840, 434, 0.80000000000000004},
         {"lru", {"lru"}, "", false, true, 4, 837, 34},
         0.61538461538461542,
         "confirmation replay contradicted the surviving candidate"},
        {1,
         {"nru", 4, false, "cross-validation mismatch in round 0", 5050,
          450, 0.65517241379310343},
         {"nru", {"nru", "qlru:H0,M0,R0,U2"}, "nru", true, false, 13,
          2766, 87},
         0.56000000000000005,
         ""},
        {3,
         {"nru", 4, false,
          "inconsistent eviction order after a hit at position 2", 3316,
          396, 0.58823529411764708},
         {"nru", {}, "", false, true, 2, 796, 32},
         0.56521739130434778,
         "every candidate eliminated: the evidence was inconsistent "
         "with the whole library (noise or an unmodelled policy)"},
    };
    for (const Rig& rig : rigs) {
        const auto spec = singleLevelSpec(rig.perm.policy, 4);
        hw::Machine machine(spec, rig.seed, hw::FaultConfig::hostile(1));
        MeasurementContext ctx(machine);
        SetProberConfig pc;
        pc.vote.enabled = true;
        SetProber prober(ctx, infer::assumedGeometry(spec), 0, pc);

        expectPinned(PermutationInference(prober).run(), rig.perm);

        CandidateSearchConfig cfg;
        cfg.seed = 4242;
        cfg.numThreads = 1;
        const auto search =
            CandidateSearch(prober, infer::defaultCandidateSpecs(4),
                            cfg)
                .run();
        expectPinned(search, rig.search);
        EXPECT_DOUBLE_EQ(search.confidence, rig.searchConfidence)
            << rig.search.policy;
        EXPECT_EQ(search.diagnostics, rig.diagnostics)
            << rig.search.policy;
    }
}

TEST(QueryInfer, QueryLayerCostEqualsTheContextDelta)
{
    // Every experiment an inference runs is visible in
    // MeasurementContext's counters (nothing bypasses
    // beginExperiment()).
    const auto spec = singleLevelSpec("lru", 8);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, infer::assumedGeometry(spec), 0);
    const auto result = PermutationInference(prober).run();
    ASSERT_TRUE(result.isPermutation) << result.failureReason;
    EXPECT_EQ(result.experimentsUsed, ctx.experimentsRun());
    EXPECT_EQ(result.loadsUsed, ctx.loadsIssued());
}

} // namespace
