/**
 * @file
 * Differential tests of the multi-policy lockstep kernel (K2): for
 * any lane composition — whole catalog, mixed compiled/fallback,
 * duplicated specs, randomized fuzz — every lane of
 * eval::simulateMultiPolicy must reproduce the per-policy
 * simulateTraceKernel result bit-exactly, and
 * eval::matchObservationMultiPolicy must agree with a per-candidate
 * SetModel replay. The CandidateSearch regression pins the
 * elimination trajectory that runs on the lane kernel for fixed
 * seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "recap/common/error.hh"
#include "recap/eval/kernel.hh"
#include "recap/eval/multi_kernel.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/candidate_search.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/set_prober.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/trace/generators.hh"

namespace recap::eval
{
namespace
{

void
expectStatsEqual(const cache::LevelStats& got,
                 const cache::LevelStats& ref, const std::string& what)
{
    EXPECT_EQ(got.accesses, ref.accesses) << what;
    EXPECT_EQ(got.hits, ref.hits) << what;
    EXPECT_EQ(got.misses, ref.misses) << what;
    EXPECT_EQ(got.evictions, ref.evictions) << what;
}

std::vector<std::string>
catalogFor(unsigned ways)
{
    std::vector<std::string> specs;
    for (const auto& spec : policy::catalogSpecs())
        if (policy::specSupportsWays(spec, ways))
            specs.push_back(spec);
    return specs;
}

/**
 * Whole-catalog differential at ways 2, 4 and 8: every lane —
 * lockstep or fallback — equals its per-policy simulateTraceKernel
 * run, and compiled lanes reproduce simulateCompiled's final images.
 */
TEST(MultiKernel, CatalogDifferentialAcrossWays)
{
    for (const unsigned ways : {2u, 4u, 8u}) {
        const cache::Geometry geom{64, 64, ways};
        const auto specs = catalogFor(ways);
        ASSERT_FALSE(specs.empty());
        const auto t = trace::zipf(32 * 1024, 20000, 0.9, 7);

        MultiPolicyOptions mopts;
        mopts.numThreads = 1;
        mopts.captureFinalImages = true;
        const auto lanes = simulateMultiPolicy(geom, specs, t, mopts);
        ASSERT_EQ(lanes.size(), specs.size());

        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string what =
                specs[i] + " @" + std::to_string(ways) + "w";
            EXPECT_EQ(lanes[i].spec, specs[i]);
            KernelOptions kopts;
            kopts.seed = mopts.seed;
            expectStatsEqual(
                lanes[i].stats,
                simulateTraceKernel(geom, specs[i], t, kopts), what);

            if (!lanes[i].compiled)
                continue;
            const auto table =
                policy::compiledTableFor(specs[i], ways, {});
            ASSERT_NE(table, nullptr) << what;
            std::vector<SetImage> refImage;
            simulateCompiled(geom, *table, t, &refImage);
            EXPECT_EQ(lanes[i].finalImage, refImage) << what;
        }
    }
}

/** Lane groups mixing compiled and budget-fallback lanes in one
 *  call: a tiny compile budget forces the factorial-state policies
 *  onto the interpreted path while tree/bit policies stay compiled. */
TEST(MultiKernel, MixedCompiledAndFallbackLanes)
{
    const cache::Geometry geom{64, 64, 8};
    const std::vector<std::string> specs = {
        "lru", "plru", "fifo", "bitplru", "nru", "lip"};
    const auto t = trace::zipf(32 * 1024, 15000, 0.9, 3);

    MultiPolicyOptions mopts;
    mopts.numThreads = 1;
    mopts.budget.maxStates = 300; // plru/bitplru/nru only
    const auto lanes = simulateMultiPolicy(geom, specs, t, mopts);

    unsigned compiled = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        compiled += lanes[i].compiled ? 1 : 0;
        KernelOptions kopts;
        kopts.seed = mopts.seed;
        kopts.budget = mopts.budget;
        expectStatsEqual(lanes[i].stats,
                         simulateTraceKernel(geom, specs[i], t, kopts),
                         specs[i]);
    }
    EXPECT_EQ(compiled, 3u); // the group really was mixed
    EXPECT_TRUE(lanes[1].compiled);  // plru
    EXPECT_FALSE(lanes[0].compiled); // lru beyond 300 states
}

/** Duplicate specs (the candidate-grid shape the bench cycles) must
 *  come back lane-for-lane identical to their first occurrence. */
TEST(MultiKernel, DuplicateLanesMatchFirstOccurrence)
{
    const cache::Geometry geom{64, 64, 8};
    const std::vector<std::string> specs = {
        "lru", "plru", "lru", "srrip", "plru", "lru"};
    const auto t = trace::zipf(32 * 1024, 15000, 0.9, 5);

    MultiPolicyOptions mopts;
    mopts.numThreads = 1;
    mopts.captureFinalImages = true;
    const auto lanes = simulateMultiPolicy(geom, specs, t, mopts);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        for (std::size_t j = i + 1; j < specs.size(); ++j) {
            if (specs[i] != specs[j])
                continue;
            expectStatsEqual(lanes[j].stats, lanes[i].stats,
                             specs[i] + " duplicate");
            EXPECT_EQ(lanes[j].finalImage, lanes[i].finalImage);
        }
    }
}

/** Unsupported-associativity specs and mismatched lane geometry are
 *  rejected up front, not silently mis-simulated. */
TEST(MultiKernel, RejectsMismatchedGeometry)
{
    const cache::Geometry geom{64, 64, 6};
    const auto t = trace::sequentialScan(16 * 1024, 2, 64);
    // tree-PLRU needs power-of-two ways.
    EXPECT_THROW(
        simulateMultiPolicy(geom, {std::string("plru")}, t, {}),
        UsageError);

    // laneSeeds must be sized like specs.
    MultiPolicyOptions mopts;
    mopts.laneSeeds = {1, 2, 3};
    const cache::Geometry geom8{64, 64, 8};
    EXPECT_THROW(
        simulateMultiPolicy(geom8, {std::string("lru")}, t, mopts),
        UsageError);

    // A match lane whose automaton has the wrong associativity.
    const auto proto4 = policy::makePolicy("lru", 4);
    std::vector<SetLane> lanes;
    lanes.push_back(SetLane{nullptr, proto4.get()});
    const std::vector<policy::BlockId> seq = {1, 2, 3};
    const std::vector<bool> hits = {false, false, false};
    EXPECT_THROW(
        matchObservationMultiPolicy(8, lanes, seq, hits, hits),
        UsageError);
}

/** matchObservationMultiPolicy vs a per-candidate SetModel replay
 *  over randomized sequences and partially-determined observations,
 *  with compiled and fallback lanes side by side. */
TEST(MultiKernel, MatchObservationEqualsSetModelReplay)
{
    const unsigned ways = 4;
    const std::vector<std::string> specs = {
        "lru",  "fifo",  "plru", "bitplru",
        "nru",  "srrip", "lip",  "qlru:H1,M1,R0,U2",
        "slru", "qlru:H1,M3,R0,U2"};

    std::vector<policy::PolicyPtr> protos;
    std::vector<SetLane> lanes;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        protos.push_back(policy::makePolicy(specs[i], ways));
        // Leave every third lane interpreted to mix group + fallback.
        policy::CompiledTablePtr table;
        if (i % 3 != 2)
            table = policy::compiledTableFor(specs[i], ways, {});
        lanes.push_back(SetLane{table, protos.back().get()});
    }

    std::mt19937_64 rng(123);
    for (unsigned round = 0; round < 20; ++round) {
        const std::size_t len = 8 + rng() % 40;
        std::vector<policy::BlockId> seq(len);
        std::vector<bool> hits(len);
        std::vector<bool> determined(len);
        for (std::size_t j = 0; j < len; ++j) {
            seq[j] = 1 + rng() % (ways + 2);
            hits[j] = rng() % 2 == 0;
            determined[j] = rng() % 4 != 0;
        }

        const auto got = matchObservationMultiPolicy(
            ways, lanes, seq, hits, determined);
        ASSERT_EQ(got.size(), lanes.size());
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            policy::SetModel model(protos[i]->clone());
            model.flush();
            char want = 1;
            for (std::size_t j = 0; j < len; ++j) {
                const bool hit = model.access(seq[j]);
                if (determined[j] && hit != hits[j])
                    want = 0;
            }
            EXPECT_EQ(got[i], want)
                << specs[i] << " round " << round;
        }
    }
}

/** Randomized fuzz: random geometry, random catalog subset, random
 *  trace shape, random thread count and lane cap — always equal to
 *  the per-policy kernel. */
TEST(MultiKernel, FuzzRandomSpecsAndTraces)
{
    std::mt19937_64 rng(20260809);
    const unsigned waysChoices[] = {2, 4, 8};
    for (unsigned iter = 0; iter < 8; ++iter) {
        const unsigned ways = waysChoices[rng() % 3];
        const unsigned sets = 16u << (rng() % 3);
        const cache::Geometry geom{sets, 64, ways};

        auto all = catalogFor(ways);
        std::shuffle(all.begin(), all.end(), rng);
        const std::size_t n = 1 + rng() % std::min<std::size_t>(
                                      all.size(), 12);
        std::vector<std::string> specs(all.begin(), all.begin() + n);
        if (n >= 3)
            specs[n - 1] = specs[0]; // exercise dedup paths

        const uint64_t tseed = rng();
        const auto t =
            rng() % 2 == 0
                ? trace::zipf(16 * 1024 << (rng() % 3), 8000, 0.8,
                              tseed)
                : trace::randomUniform(16 * 1024 << (rng() % 3),
                                       8000, tseed);

        MultiPolicyOptions mopts;
        mopts.numThreads = 1 + rng() % 3;
        mopts.maxLanes = 1u << (rng() % 5);
        const auto lanes = simulateMultiPolicy(geom, specs, t, mopts);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            KernelOptions kopts;
            kopts.seed = mopts.seed;
            expectStatsEqual(
                lanes[i].stats,
                simulateTraceKernel(geom, specs[i], t, kopts),
                specs[i] + " iter " + std::to_string(iter));
        }
    }
}

hw::MachineSpec
singleLevelSpec(const std::string& policy, unsigned ways)
{
    hw::MachineSpec spec;
    spec.name = "lane-rig";
    spec.description = "single-level lane regression machine";
    hw::CacheLevelSpec lvl;
    lvl.name = "L1";
    lvl.capacityBytes = uint64_t{64} * 64 * ways;
    lvl.ways = ways;
    lvl.hitLatency = 4;
    lvl.policySpec = policy;
    spec.levels = {lvl};
    spec.memoryLatency = 100;
    return spec;
}

infer::CandidateSearchResult
searchWith(const std::string& policy, unsigned ways)
{
    auto spec = singleLevelSpec(policy, ways);
    hw::Machine machine(spec);
    infer::MeasurementContext ctx(machine);
    infer::DiscoveredGeometry geom;
    geom.lineSize = 64;
    geom.levels.push_back({64, 64, ways});
    infer::SetProber prober(ctx, geom, 0);
    infer::CandidateSearchConfig cfg;
    cfg.seed = 4242;
    cfg.numThreads = 1;
    infer::CandidateSearch search(
        prober, infer::defaultCandidateSpecs(ways), cfg);
    return search.run();
}

/** Candidate search eliminates on the lane kernel: its trajectory
 *  over the full default library (survivors, verdict, rounds and
 *  measurement cost) is pinned for fixed seeds. The kernel itself is
 *  checked against per-candidate SetModel replay by
 *  MatchObservationEqualsSetModelReplay. */
TEST(MultiKernel, CandidateSearchLanePathPinned)
{
    struct Pin
    {
        const char* truth;
        std::vector<std::string> survivors;
        unsigned rounds;
        uint64_t loads;
        uint64_t experiments;
    };
    const Pin pins[] = {
        {"plru", {"plru"}, 1, 24, 1},
        {"nru", {"nru", "qlru:H0,M0,R0,U2"}, 11, 408, 11},
        {"fifo", {"fifo"}, 2, 48, 2},
    };
    for (const Pin& pin : pins) {
        const auto got = searchWith(pin.truth, 4);
        EXPECT_EQ(got.survivors, pin.survivors) << pin.truth;
        EXPECT_TRUE(got.decided) << pin.truth;
        EXPECT_EQ(got.verdict, pin.truth);
        EXPECT_FALSE(got.undetermined) << pin.truth;
        EXPECT_EQ(got.roundsRun, pin.rounds) << pin.truth;
        EXPECT_EQ(got.loadsUsed, pin.loads) << pin.truth;
        EXPECT_EQ(got.experimentsUsed, pin.experiments) << pin.truth;
    }
}

} // namespace
} // namespace recap::eval
