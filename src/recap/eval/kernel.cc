#include "recap/eval/kernel.hh"

#include <type_traits>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"
#include "recap/common/parallel.hh"

namespace recap::eval
{

namespace
{

/**
 * The control register of a factored table (see
 * policy::CompiledTable::factored): its two rows, the offset of the
 * core's alternative fill rows, and one register per set.
 */
struct ControlRows
{
    const uint32_t* touch = nullptr;
    const uint32_t* fill = nullptr;
    std::size_t altOffset = 0;
    uint32_t* state = nullptr;
};

/**
 * The devirtualized access loop, templated over the transition-table
 * element width, the associativity and whether a control register
 * runs next to the core state: narrow (uint16) tables halve the
 * state-indexed working set and are used whenever the automaton fits
 * (see CompiledTable::narrow()); a compile-time kFixedWays (0 =
 * dynamic) lets the compiler unroll and vectorize the tag scan and
 * turn the row multiply into a shift; monolithic tables
 * (kFactored = false) compile to the plain three-lookup loop. Every
 * instantiation runs the identical algorithm, so results cannot
 * differ.
 */
template <typename State, unsigned kFixedWays, bool kFactored>
uint64_t
kernelLoop(const trace::Trace& t, unsigned dynWays,
           unsigned offsetBits, unsigned setBits, uint64_t setMask,
           const State* __restrict touchNext,
           const State* __restrict fillNext,
           const uint16_t* __restrict victim, const ControlRows& ctl,
           uint64_t* __restrict tags, uint32_t* __restrict state,
           uint16_t* __restrict filled, uint64_t& evictions)
{
    const unsigned ways = kFixedWays != 0 ? kFixedWays : dynWays;
    const uint32_t* __restrict ctlTouch = ctl.touch;
    const uint32_t* __restrict ctlFill = ctl.fill;
    const std::size_t altOffset = ctl.altOffset;
    uint32_t* __restrict control = ctl.state;
    uint64_t hits = 0;
    for (const cache::Addr addr : t) {
        const uint64_t block = addr >> offsetBits;
        const auto set = static_cast<unsigned>(block & setMask);
        const uint64_t tag = block >> setBits;

        uint64_t* setTags = tags +
                            static_cast<std::size_t>(set) * ways;
        const unsigned live = filled[set];
        const uint32_t s = state[set];
        const std::size_t row = static_cast<std::size_t>(s) * ways;

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
            state[set] = touchNext[row + way];
            if constexpr (kFactored)
                control[set] = ctlTouch[control[set]];
            continue;
        }
        if (live < ways) {
            way = live;
            filled[set] = static_cast<uint16_t>(live + 1);
        } else {
            way = victim[s];
            ++evictions;
        }
        setTags[way] = tag;
        if constexpr (kFactored) {
            // Bit 0 of the control's fill row picks the core's
            // insertion variant.
            const uint32_t packed = ctlFill[control[set]];
            control[set] = packed >> 1;
            state[set] =
                fillNext[(packed & 1) * altOffset + row + way];
        } else {
            state[set] = fillNext[row + way];
        }
    }
    return hits;
}

template <typename State, bool kFactored>
uint64_t
runKernel(const trace::Trace& t, unsigned ways, unsigned offsetBits,
          unsigned setBits, uint64_t setMask, const State* touchNext,
          const State* fillNext, const uint16_t* victim,
          const ControlRows& ctl, uint64_t* tags, uint32_t* state,
          uint16_t* filled, uint64_t& evictions)
{
    const auto loop = [&](auto fixedWays) {
        return kernelLoop<State, decltype(fixedWays)::value,
                          kFactored>(
            t, ways, offsetBits, setBits, setMask, touchNext,
            fillNext, victim, ctl, tags, state, filled, evictions);
    };
    switch (ways) {
    case 2:
        return loop(std::integral_constant<unsigned, 2>{});
    case 4:
        return loop(std::integral_constant<unsigned, 4>{});
    case 8:
        return loop(std::integral_constant<unsigned, 8>{});
    case 16:
        return loop(std::integral_constant<unsigned, 16>{});
    default:
        return loop(std::integral_constant<unsigned, 0>{});
    }
}

/** Width- and shape-dispatching entry over one table. */
template <bool kFactored>
uint64_t
runTable(const policy::CompiledTable& table, const trace::Trace& t,
         unsigned ways, unsigned offsetBits, unsigned setBits,
         uint64_t setMask, const ControlRows& ctl, uint64_t* tags,
         uint32_t* state, uint16_t* filled, uint64_t& evictions)
{
    if (table.narrow()) {
        return runKernel<uint16_t, kFactored>(
            t, ways, offsetBits, setBits, setMask, table.touchData16(),
            table.fillData16(), table.victimData(), ctl, tags, state,
            filled, evictions);
    }
    return runKernel<uint32_t, kFactored>(
        t, ways, offsetBits, setBits, setMask, table.touchData(),
        table.fillData(), table.victimData(), ctl, tags, state, filled,
        evictions);
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

    // One control register per set when the table is factored.
    std::vector<uint32_t> control(table.factored() ? numSets : 0, 0);
    ControlRows ctl;
    if (table.factored()) {
        ctl.touch = table.controlTouchData();
        ctl.fill = table.controlFillData();
        ctl.altOffset = table.altOffset();
        ctl.state = control.data();
    }

    uint64_t evictions = 0;
    const uint64_t hits =
        table.factored()
            ? runTable<true>(table, t, ways, offsetBits, setBits,
                             setMask, ctl, tags.data(), state.data(),
                             filled.data(), evictions)
            : runTable<false>(table, t, ways, offsetBits, setBits,
                              setMask, ctl, tags.data(), state.data(),
                              filled.data(), evictions);

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
            image.policyKey = table.stateKey(
                state[set], table.factored() ? control[set] : 0);
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
