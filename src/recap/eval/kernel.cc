#include "recap/eval/kernel.hh"

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"
#include "recap/common/parallel.hh"

namespace recap::eval
{

namespace
{

/**
 * The devirtualized access loop, one instantiation per stepper type
 * (policy::visitFixedWaysStepper): narrow (uint16) tables halve the
 * state-indexed working set and are used whenever the automaton fits
 * (see CompiledTable::narrow()); a compile-time associativity lets
 * the compiler unroll and vectorize the tag scan and turn the row
 * multiply into a shift; a monolithic stepper never touches the
 * control registers, so its loop is the plain three-lookup one.
 * Every instantiation runs the identical algorithm, so results
 * cannot differ.
 */
template <typename Stepper>
uint64_t
kernelLoop(const trace::Trace& t, const Stepper step,
           unsigned offsetBits, unsigned setBits, uint64_t setMask,
           uint64_t* __restrict tags, uint32_t* __restrict state,
           uint32_t* __restrict control, uint16_t* __restrict filled,
           uint64_t& evictions)
{
    const unsigned ways = step.ways();
    uint64_t hits = 0;
    for (const cache::Addr addr : t) {
        const uint64_t block = addr >> offsetBits;
        const auto set = static_cast<unsigned>(block & setMask);
        const uint64_t tag = block >> setBits;

        uint64_t* setTags = tags +
                            static_cast<std::size_t>(set) * ways;
        const unsigned live = filled[set];

        // Branchless scan of the whole row, keeping the lowest
        // matching way. Ways fill bottom-up and the kernel never
        // invalidates, so valid ways are exactly [0, live) and valid
        // tags within a set are unique; the zero-initialized tags of
        // ways >= live can only produce a spurious lowest match at an
        // index >= live, which the hit test below rejects.
        unsigned way = ways;
        for (unsigned w = ways; w-- > 0;) {
            if (setTags[w] == tag)
                way = w;
        }
        if (way < live) {
            ++hits;
            step.touch(state[set], control[set], way);
            continue;
        }
        if (live < ways) {
            way = live;
            filled[set] = static_cast<uint16_t>(live + 1);
        } else {
            way = step.victim(state[set]);
            ++evictions;
        }
        setTags[way] = tag;
        step.fill(state[set], control[set], way);
    }
    return hits;
}

} // namespace

cache::LevelStats
simulateCompiled(const cache::Geometry& geom,
                 const policy::CompiledTable& table,
                 const trace::Trace& t,
                 std::vector<SetImage>* finalImage)
{
    geom.validate();
    require(table.ways() == geom.ways,
            "simulateCompiled: table/geometry associativity mismatch");

    const unsigned numSets = geom.numSets;
    const unsigned ways = geom.ways;
    const unsigned offsetBits = log2Floor(geom.lineSize);
    const unsigned setBits = log2Floor(numSets);
    const uint64_t setMask = numSets - 1;

    // Structure-of-arrays set state. The kernel never invalidates, so
    // the valid ways of a set are exactly [0, filled): the fill
    // cursor doubles as the "lowest invalid way" the cache model
    // fills on cold misses.
    std::vector<uint64_t> tags(static_cast<std::size_t>(numSets) *
                               ways);
    std::vector<uint32_t> state(numSets, 0);
    std::vector<uint16_t> filled(numSets, 0);
    // The control registers of a factored table (see
    // policy::TableStepper); a monolithic one leaves them at 0.
    std::vector<uint32_t> control(numSets, 0);

    uint64_t evictions = 0;
    const uint64_t hits = policy::visitFixedWaysStepper(
        table, [&](const auto step) {
            return kernelLoop(t, step, offsetBits, setBits, setMask,
                              tags.data(), state.data(),
                              control.data(), filled.data(),
                              evictions);
        });

    cache::LevelStats stats;
    stats.accesses = t.size();
    stats.hits = hits;
    stats.misses = t.size() - hits;
    stats.evictions = evictions;

    if (finalImage) {
        finalImage->clear();
        finalImage->reserve(numSets);
        for (unsigned set = 0; set < numSets; ++set) {
            SetImage image;
            image.tags.assign(ways, 0);
            image.valid.assign(ways, false);
            for (unsigned w = 0; w < filled[set]; ++w) {
                image.tags[w] =
                    tags[static_cast<std::size_t>(set) * ways + w];
                image.valid[w] = true;
            }
            image.policyKey = table.stateKey(state[set], control[set]);
            finalImage->push_back(std::move(image));
        }
    }
    return stats;
}

namespace
{

cache::LevelStats
simulateInterpreted(const cache::Geometry& geom,
                    const std::string& policySpec,
                    const trace::Trace& t, uint64_t seed)
{
    cache::Cache c(geom, policySpec, "eval", seed);
    for (const cache::Addr a : t)
        c.access(a);
    return c.stats();
}

} // namespace

cache::LevelStats
simulateTraceKernel(const cache::Geometry& geom,
                    const std::string& policySpec,
                    const trace::Trace& t, const KernelOptions& opts)
{
    if (!opts.forceInterpreted) {
        if (const policy::CompiledTablePtr table =
                policy::compiledTableFor(policySpec, geom.ways,
                                         opts.budget)) {
            return simulateCompiled(geom, *table, t);
        }
    }
    return simulateInterpreted(geom, policySpec, t, opts.seed);
}

std::vector<cache::LevelStats>
simulateTracesBatch(const cache::Geometry& geom,
                    const std::string& policySpec,
                    const std::vector<const trace::Trace*>& traces,
                    const KernelOptions& opts)
{
    const policy::CompiledTablePtr table =
        opts.forceInterpreted
            ? nullptr
            : policy::compiledTableFor(policySpec, geom.ways,
                                       opts.budget);

    std::vector<cache::LevelStats> results(traces.size());
    parallelFor(traces.size(), opts.numThreads, [&](std::size_t i) {
        require(traces[i] != nullptr,
                "simulateTracesBatch: null trace");
        results[i] = table
            ? simulateCompiled(geom, *table, *traces[i])
            : simulateInterpreted(geom, policySpec, *traces[i],
                                  deriveTaskSeed(opts.seed, i));
    });
    return results;
}

} // namespace recap::eval
