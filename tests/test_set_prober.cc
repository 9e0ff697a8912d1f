/**
 * @file
 * Tests for SetProber: routed accesses must faithfully expose the
 * target level's per-set behaviour despite inner-level filtering.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/set_prober.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/query/oracle.hh"

namespace
{

using namespace recap;
using infer::BlockId;
using infer::DiscoveredGeometry;
using infer::MeasurementContext;
using infer::SetProber;
using infer::SetProberConfig;

DiscoveredGeometry
geometryOf(const hw::MachineSpec& spec)
{
    DiscoveredGeometry geom;
    geom.lineSize = 64;
    for (const auto& lvl : spec.levels) {
        const auto g = lvl.geometry();
        geom.levels.push_back({64, g.numSets, g.ways});
    }
    return geom;
}

TEST(SetProber, ObserveMatchesGroundTruthModelAtL1)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, geometryOf(spec), 0);

    std::vector<BlockId> seq{1, 2, 3, 1, 4, 5, 6, 7, 8, 9, 1, 2};
    const auto observed = prober.observe(seq);

    policy::SetModel model(machine.groundTruthPolicy(0));
    for (size_t i = 0; i < seq.size(); ++i)
        ASSERT_EQ(observed[i], model.access(seq[i])) << "pos " << i;
}

TEST(SetProber, ObserveMatchesGroundTruthModelAtL2)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, geometryOf(spec), 1);
    EXPECT_EQ(prober.ways(), 8u);

    Rng rng(2);
    std::vector<BlockId> seq;
    for (int i = 0; i < 60; ++i)
        seq.push_back(1 + rng.nextBelow(10));
    const auto observed = prober.observe(seq);

    policy::SetModel model(machine.groundTruthPolicy(1));
    for (size_t i = 0; i < seq.size(); ++i)
        ASSERT_EQ(observed[i], model.access(seq[i])) << "pos " << i;
}

TEST(SetProber, ObserveMatchesGroundTruthModelAtL3)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("sandybridge-i5"),
                                512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, geometryOf(spec), 2);
    EXPECT_EQ(prober.ways(), 12u);

    Rng rng(3);
    std::vector<BlockId> seq;
    for (int i = 0; i < 80; ++i)
        seq.push_back(1 + rng.nextBelow(14));
    const auto observed = prober.observe(seq);

    policy::SetModel model(machine.groundTruthPolicy(2));
    for (size_t i = 0; i < seq.size(); ++i)
        ASSERT_EQ(observed[i], model.access(seq[i])) << "pos " << i;
}

TEST(SetProber, SurvivesReflectsEvictionDepth)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, geometryOf(spec), 1);
    const unsigned k = prober.ways();

    // Survival probes are membership queries, the form inference
    // issues them in.
    query::MachineOracle oracle(prober);
    auto survives = [&](const std::vector<BlockId>& seq, BlockId b) {
        return oracle.evaluate(query::makeSurvivalQuery(seq, b))
            .probes.front()
            .hit;
    };

    // Fill blocks 1..k; block 1 is tree-PLRU's first victim from the
    // canonical state, so it fails to survive one extra miss.
    std::vector<BlockId> fill;
    for (unsigned b = 1; b <= k; ++b)
        fill.push_back(b);
    EXPECT_TRUE(survives(fill, 1));
    auto with_miss = fill;
    with_miss.push_back(500);
    EXPECT_FALSE(survives(with_miss, 1));
    // Some other block survived that miss.
    EXPECT_TRUE(survives(with_miss, k));
}

TEST(SetProber, DifferentBaseAddrProbesDifferentSets)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    const auto geom = geometryOf(spec);

    SetProberConfig pc0;
    SetProberConfig pc1;
    pc1.baseAddr = pc0.baseAddr + 64;
    SetProber p0(ctx, geom, 1, pc0);
    SetProber p1(ctx, geom, 1, pc1);
    EXPECT_NE(geom.levels[1].toGeometry().setIndex(p0.blockAddr(1)),
              geom.levels[1].toGeometry().setIndex(p1.blockAddr(1)));
}

TEST(SetProber, BlockAddressesShareEverySetIndex)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("nehalem-i5"), 512);
    const auto geom = geometryOf(spec);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    SetProber prober(ctx, geom, 2);
    const auto a0 = prober.blockAddr(0);
    for (BlockId b = 1; b < 20; ++b) {
        const auto addr = prober.blockAddr(b);
        for (unsigned lvl = 0; lvl < geom.levels.size(); ++lvl) {
            const auto g = geom.levels[lvl].toGeometry();
            ASSERT_EQ(g.setIndex(addr), g.setIndex(a0))
                << "level " << lvl << " block " << b;
        }
        ASSERT_NE(geom.levels[2].toGeometry().tag(addr),
                  geom.levels[2].toGeometry().tag(a0));
    }
}

TEST(SetProber, VotingDefeatsDisturbanceNoise)
{
    hw::NoiseConfig noise;
    noise.disturbProbability = 0.02;
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec, 1, noise);
    MeasurementContext ctx(machine);
    SetProberConfig pc;
    pc.voteRepeats = 7;
    SetProber prober(ctx, geometryOf(spec), 0, pc);

    Rng rng(5);
    std::vector<BlockId> seq;
    for (int i = 0; i < 40; ++i)
        seq.push_back(1 + rng.nextBelow(10));
    const auto observed = prober.observe(seq);

    policy::SetModel model(machine.groundTruthPolicy(0));
    unsigned mismatches = 0;
    for (size_t i = 0; i < seq.size(); ++i)
        if (observed[i] != model.access(seq[i]))
            ++mismatches;
    EXPECT_LE(mismatches, 1u);
}

// observe() and the fixed-N branch of observeRobust() share one
// majority tally: on twin noisy machines (same seed, same disturbance
// stream) they read the same bits at the same measurement cost.
TEST(SetProber, FixedVoteObserveEqualsObserveRobust)
{
    hw::NoiseConfig noise;
    noise.disturbProbability = 0.05;
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    SetProberConfig pc;
    pc.voteRepeats = 3;

    hw::Machine machineA(spec, 9, noise);
    MeasurementContext ctxA(machineA);
    SetProber proberA(ctxA, geometryOf(spec), 1, pc);
    hw::Machine machineB(spec, 9, noise);
    MeasurementContext ctxB(machineB);
    SetProber proberB(ctxB, geometryOf(spec), 1, pc);

    Rng rng(21);
    std::vector<BlockId> seq;
    for (int i = 0; i < 60; ++i)
        seq.push_back(1 + rng.nextBelow(12));
    const std::vector<bool> hits = proberA.observe(seq);
    const SetProber::ObservedSequence robust =
        proberB.observeRobust(seq);
    // The noise must split some vote, or the tally is not exercised.
    EXPECT_TRUE(std::any_of(robust.confidence.begin(),
                            robust.confidence.end(),
                            [](double c) { return c < 1.0; }));
    EXPECT_EQ(hits, robust.hits);
    EXPECT_EQ(robust.replays, 3u);
    EXPECT_EQ(ctxA.loadsIssued(), ctxB.loadsIssued());
    EXPECT_EQ(ctxA.experimentsRun(), ctxB.experimentsRun());
}

TEST(SetProber, RejectsBadLevels)
{
    auto spec = hw::reducedSpec(hw::catalogMachine("core2-e6300"), 512);
    hw::Machine machine(spec);
    MeasurementContext ctx(machine);
    const auto geom = geometryOf(spec);
    EXPECT_THROW(SetProber(ctx, geom, 2), UsageError);
}

} // namespace
