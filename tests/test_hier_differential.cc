/**
 * @file
 * Catalog-wide differential sweep: every classic and modern catalog
 * machine, 10k-access lockstep between the compiled hier:: walk and
 * the interpreted cache::Hierarchy — served levels, adaptive PSEL,
 * per-level statistics (including writebacks), and final tag images
 * must be identical. This is the CI hier-smoke sweep.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "recap/hier/simulate.hh"
#include "recap/hw/catalog.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;

constexpr size_t kAccesses = 10000;

/** Reduced spec (inference-irrelevant set counts shrunk) + trace. */
void
sweepMachine(const hw::MachineSpec& full, cache::InclusionMode mode)
{
    // 256 sets keeps the walk representative (leader layouts intact)
    // while the full catalog stays fast enough for CI.
    const auto spec = hw::reducedSpec(full, 256);
    // Footprint past the reduced L2/L3 so every level sees misses,
    // evictions, and (with stores) writebacks.
    uint64_t footprint = 0;
    for (const auto& lvl : spec.levels)
        footprint += lvl.geometry().sizeBytes();
    const auto refs = trace::withWrites(
        trace::zipf(4 * footprint, kAccesses, 0.9,
                    0xd1f5 + full.name.size()),
        0.25, 0x5eed);

    hier::CrossCheckOptions opts;
    opts.mode = mode;
    opts.seed = 77;
    const auto report = hier::crossCheck(spec, refs, opts);
    EXPECT_TRUE(report.ok)
        << full.name << " [" << cache::inclusionModeName(mode)
        << "]: " << report.detail;
    EXPECT_EQ(report.result.accesses, kAccesses);
}

TEST(HierDifferential, ClassicCatalogLockstep)
{
    for (const auto& spec : hw::intelCatalog())
        sweepMachine(spec, cache::InclusionMode::kNonInclusive);
}

/**
 * The modern catalog plus 8-way-LLC variants of its DIP and DRRIP
 * machines: at 8 ways dip and drrip compile factored (a core state
 * and a control register per set) and drrip:1,4,3,4 into a
 * uint32-wide monolithic table, so the walk steps every table shape.
 */
std::vector<hw::MachineSpec>
modernMachines()
{
    auto machines = hw::modernCatalog();
    for (const auto& [base, policy] :
         {std::pair{"haswell-dip", "dip"},
          std::pair{"skylake-drrip", "drrip"},
          std::pair{"skylake-drrip", "drrip:1,4,3,4"}}) {
        auto spec = hw::catalogMachine(base);
        auto& llc = spec.levels.back();
        llc.capacityBytes = llc.capacityBytes / llc.ways * 8;
        llc.ways = 8;
        llc.policySpec = policy;
        spec.name += std::string("-") + policy + "@8";
        machines.push_back(spec);
    }
    return machines;
}

TEST(HierDifferential, ModernCatalogLockstep)
{
    for (const auto& spec : modernMachines())
        sweepMachine(spec, cache::InclusionMode::kNonInclusive);
}

TEST(HierDifferential, ClassicCatalogInclusiveLockstep)
{
    for (const auto& spec : hw::intelCatalog())
        sweepMachine(spec, cache::InclusionMode::kInclusive);
}

TEST(HierDifferential, ClassicCatalogExclusiveLockstep)
{
    for (const auto& spec : hw::intelCatalog())
        sweepMachine(spec, cache::InclusionMode::kExclusive);
}

TEST(HierDifferential, ModernCatalogInclusiveAndExclusiveLockstep)
{
    for (const auto& spec : modernMachines()) {
        sweepMachine(spec, cache::InclusionMode::kInclusive);
        sweepMachine(spec, cache::InclusionMode::kExclusive);
    }
}

TEST(HierDifferential, AdaptiveMachineRunsCompiledEndToEnd)
{
    // The acceptance bar: at least one set-dueling machine must run
    // fully compiled. The catalog ivybridge L3 is 12-way (fallback),
    // so pin the 8-way variant bench_hier also measures.
    auto spec = hw::reducedSpec(
        hw::catalogMachine("ivybridge-i5"), 256);
    auto& l3 = spec.levels[2];
    l3.capacityBytes = l3.capacityBytes / l3.ways * 8;
    l3.ways = 8;
    hier::Hierarchy h(spec);
    ASSERT_TRUE(h.isAdaptive(2));
    EXPECT_TRUE(h.fullyCompiled());
}

} // namespace
