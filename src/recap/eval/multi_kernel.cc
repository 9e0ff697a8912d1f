#include "recap/eval/multi_kernel.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <type_traits>
#include <unordered_map>

#include "recap/common/bitops.hh"
#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/policy/factory.hh"

namespace recap::eval
{

DecodedTrace::DecodedTrace(const cache::Geometry& geom,
                           const trace::Trace& t)
    : geom_(geom)
{
    geom_.validate();
    const unsigned offsetBits = log2Floor(geom_.lineSize);
    const uint64_t setMask = geom_.numSets - 1;

    sets_.reserve(t.size());
    ids_.reserve(t.size());

    // Open-addressing block -> id map (linear probing, multiply
    // hash). The decode is on the amortized-once path but still
    // dominates single-lane batches, so it avoids unordered_map's
    // per-access allocation and pointer chase. Slot occupancy is
    // "id != 0" (ids start at 1), so block 0 needs no special case.
    std::size_t capLog = 4;
    while ((std::size_t{1} << capLog) < t.size() * 2)
        ++capLog;
    const std::size_t slotMask = (std::size_t{1} << capLog) - 1;
    std::vector<uint64_t> slotBlock(slotMask + 1, 0);
    std::vector<uint32_t> slotId(slotMask + 1, 0);

    for (const cache::Addr addr : t) {
        const uint64_t block = addr >> offsetBits;
        sets_.push_back(static_cast<uint32_t>(block & setMask));
        std::size_t slot =
            (block * uint64_t{0x9E3779B97F4A7C15}) >> (64 - capLog);
        while (slotId[slot] != 0 && slotBlock[slot] != block)
            slot = (slot + 1) & slotMask;
        if (slotId[slot] == 0) {
            require(blockOfId_.size() < UINT32_MAX - 1,
                    "DecodedTrace: too many distinct blocks");
            blockOfId_.push_back(block);
            slotBlock[slot] = block;
            slotId[slot] =
                static_cast<uint32_t>(blockOfId_.size());
        }
        ids_.push_back(slotId[slot]);
    }
}

uint64_t
DecodedTrace::tagOfId(uint32_t id) const
{
    require(id >= 1 && id <= blockOfId_.size(),
            "DecodedTrace: block id out of range");
    const unsigned setBits = log2Floor(geom_.numSets);
    return blockOfId_[id - 1] >> setBits;
}

namespace
{

/** Widest lockstep group the kernel instantiates. */
constexpr unsigned kMaxGroupLanes = 16;

/** Mutable structure-of-arrays state of one lane group. */
struct GroupState
{
    std::vector<uint32_t> tags;    ///< [set][way][lane], 0 = empty
    std::vector<uint32_t> state;   ///< [set][lane] policy state
    std::vector<uint32_t> control; ///< [set][lane] control register
    std::vector<uint16_t> filled;  ///< [set][lane] fill cursor
    std::array<uint64_t, kMaxGroupLanes> hits{};
    std::array<uint64_t, kMaxGroupLanes> evictions{};

    GroupState(unsigned numSets, unsigned ways, unsigned lanes)
        : tags(static_cast<std::size_t>(numSets) * ways * lanes, 0),
          state(static_cast<std::size_t>(numSets) * lanes, 0),
          control(static_cast<std::size_t>(numSets) * lanes, 0),
          filled(static_cast<std::size_t>(numSets) * lanes, 0)
    {}
};

/**
 * One access of block @p id against every lane of a group, in the
 * set whose interleaved [way][lane] tag row is @p rowTags; @p st,
 * @p ct and @p fl hold the lanes' states, control registers and fill
 * cursors in that set. kLanes is a compile-time constant so the
 * scan's inner lane loop has a fixed trip count and vectorizes
 * (compare-select over uint32 tags). The per-lane update is
 * branch-free: per-lane hit/miss branches would mispredict
 * independently and serialize a wide group, so the update computes
 * the final way with selects, issues the (independent, overlappable)
 * table gathers through TableStepper::step, and re-writes the
 * matched tag on hits — a no-op store, since the slot already holds
 * the id. Identical algorithm to kernel.cc's kernelLoop per lane, so
 * results cannot differ: ids are >= 1 and unique per block, ways
 * fill bottom-up, the zeroed tags of ways >= filled never match a
 * real id. @p onLane(l, hit, evicted) sees every lane's outcome.
 */
template <unsigned kLanes, typename Stepper, typename OnLane>
inline void
accessLanes(const Stepper* lanes, unsigned ways, uint32_t id,
            uint32_t* __restrict rowTags, uint32_t* __restrict st,
            uint32_t* __restrict ct, uint16_t* __restrict fl,
            const OnLane& onLane)
{
    // Lane-parallel scan for the matching way; ways is the no-match
    // sentinel. Two shapes, picked per group width (measured,
    // interleaved A/B): wide groups vectorize the compare-select
    // across lanes, narrow groups have no lane parallelism, so a
    // serial select chain over w stalls — an associative match-bitmask
    // OR plus countr_zero reduces as a tree instead. Both return the
    // lowest match; block ids are unique, so at most one way per lane
    // matches either way.
    uint32_t way[kLanes];
    if constexpr (kLanes >= 4) {
        for (unsigned l = 0; l < kLanes; ++l)
            way[l] = ways;
        for (unsigned w = ways; w-- > 0;) {
            const uint32_t* p =
                rowTags + static_cast<std::size_t>(w) * kLanes;
            for (unsigned l = 0; l < kLanes; ++l)
                way[l] = p[l] == id ? w : way[l];
        }
    } else {
        uint64_t mask[kLanes] = {};
        for (unsigned w = 0; w < ways; ++w) {
            const uint32_t* p =
                rowTags + static_cast<std::size_t>(w) * kLanes;
            for (unsigned l = 0; l < kLanes; ++l)
                mask[l] |= static_cast<uint64_t>(p[l] == id) << w;
        }
        for (unsigned l = 0; l < kLanes; ++l)
            way[l] = static_cast<uint32_t>(std::countr_zero(
                mask[l] | (uint64_t{1} << ways)));
    }

    for (unsigned l = 0; l < kLanes; ++l) {
        uint32_t s = st[l];
        const unsigned f = fl[l];
        const bool hit = way[l] < f;
        // Miss target: the fill cursor while filling, else the
        // policy's victim (the gather is wasted on hits but keeps the
        // lane branch-free).
        const uint32_t missWay =
            f < ways ? f : uint32_t{lanes[l].victim(s)};
        const uint32_t w = hit ? way[l] : missWay;
        rowTags[static_cast<std::size_t>(w) * kLanes + l] = id;
        onLane(l, hit, !hit && f == ways);
        fl[l] = static_cast<uint16_t>(
            f + static_cast<unsigned>(!hit && f < ways));
        lanes[l].step(hit, s, ct[l], w);
        st[l] = s;
    }
}

/** The lockstep hot loop: every decoded access through
 *  accessLanes(). */
template <unsigned kLanes, typename Stepper>
void
lockstepLoop(const DecodedTrace& decoded, const Stepper* lanes,
             GroupState& gs)
{
    const unsigned ways = lanes[0].ways();
    const uint32_t* __restrict sets = decoded.sets().data();
    const uint32_t* __restrict ids = decoded.ids().data();
    uint32_t* __restrict tags = gs.tags.data();
    uint32_t* __restrict state = gs.state.data();
    uint32_t* __restrict control = gs.control.data();
    uint16_t* __restrict filled = gs.filled.data();
    const std::size_t rowStride =
        static_cast<std::size_t>(ways) * kLanes;

    for (std::size_t a = 0; a < decoded.size(); ++a) {
        const std::size_t set = sets[a];
        accessLanes<kLanes>(
            lanes, ways, ids[a], tags + set * rowStride,
            state + set * kLanes, control + set * kLanes,
            filled + set * kLanes,
            [&](unsigned l, bool hit, bool evicted) {
                gs.hits[l] += hit;
                gs.evictions[l] += evicted;
            });
    }
}

/**
 * Single-set lockstep replay of one observed sequence: the group's
 * tag matrix is one set row, and every position additionally
 * compares the lane's hit against the observation. Mismatched lanes
 * keep stepping (their flag is monotone), matching the per-candidate
 * SetModel replay bit-for-bit.
 */
template <unsigned kLanes, typename Stepper>
void
matchLoop(const Stepper* lanes, const uint32_t* seqIds, std::size_t n,
          const uint8_t* observedHits, const uint8_t* determined,
          char* match)
{
    const unsigned ways = lanes[0].ways();
    std::vector<uint32_t> tags(
        static_cast<std::size_t>(ways) * kLanes, 0);
    uint32_t st[kLanes] = {};
    uint32_t ct[kLanes] = {};
    uint16_t fl[kLanes] = {};
    for (unsigned l = 0; l < kLanes; ++l)
        match[l] = 1;

    for (std::size_t j = 0; j < n; ++j) {
        accessLanes<kLanes>(
            lanes, ways, seqIds[j], tags.data(), st, ct, fl,
            [&](unsigned l, bool hit, bool) {
                if (determined[j] &&
                    hit != static_cast<bool>(observedHits[j]))
                    match[l] = 0;
            });
    }
}

/**
 * The one dispatch of a lane group: calls @p body(width, lanes) with
 * the group's width as a compile-time constant and its lanes as an
 * array of steppers of one type. Groups are packed width- and
 * shape-homogeneous (planGroups), so the hot loops are templated on
 * both and never re-test them per lane per access.
 */
template <typename Body>
void
dispatchGroup(const std::vector<const policy::CompiledTable*>& tables,
              const Body& body)
{
    require(tables.front()->ways() < 64,
            "multi_kernel: lockstep groups support < 64 ways");
    policy::visitFixedWaysStepper(*tables.front(), [&](auto first) {
        using Stepper = decltype(first);
        std::array<Stepper, kMaxGroupLanes> lanes{};
        for (std::size_t l = 0; l < tables.size(); ++l)
            lanes[l] = Stepper(*tables[l]);
        const auto run = [&](auto width) { body(width, lanes.data()); };
        switch (tables.size()) {
          case 16:
            return run(std::integral_constant<unsigned, 16>{});
          case 8:
            return run(std::integral_constant<unsigned, 8>{});
          case 4:
            return run(std::integral_constant<unsigned, 4>{});
          case 2:
            return run(std::integral_constant<unsigned, 2>{});
          case 1:
            return run(std::integral_constant<unsigned, 1>{});
          default:
            throw UsageError("multi_kernel: unsupported lane width " +
                             std::to_string(tables.size()));
        }
    });
}

/**
 * Greedy power-of-two chunking into instantiated group widths. The
 * returned widths may sum past `lanes`: a >= 75%-full tail is padded
 * up to the next width — one wide pass (with a few duplicate,
 * discarded lanes) beats the cascade of narrow straggler passes the
 * exact decomposition would produce (e.g. 7 -> one 8-wide pass, not
 * 4+2+1).
 */
std::vector<unsigned>
groupWidths(std::size_t lanes, unsigned maxLanes)
{
    const unsigned cap = std::min(
        maxLanes == 0 ? kMaxGroupLanes : maxLanes, kMaxGroupLanes);
    std::vector<unsigned> widths;
    std::size_t remaining = lanes;
    while (remaining > 0) {
        unsigned width = 1;
        while (width * 2 <= cap && width * 2 <= remaining)
            width *= 2;
        if (width < remaining && width * 2 <= cap &&
            4 * remaining >= 3 * (width * 2)) {
            widths.push_back(width * 2);
            break;
        }
        widths.push_back(width);
        remaining -= width;
    }
    return widths;
}

/**
 * Per-group budget on the summed footprint of DISTINCT tables.
 * Lanes that share a table are nearly free to co-schedule, but each
 * additional distinct multi-megabyte table added to a group grows
 * its random-gather working set; past the last-level-cache-resident
 * range the group thrashes and runs slower than separate passes.
 */
constexpr std::size_t kGroupTableBudget = std::size_t{3} << 20;

std::size_t
tableFootprint(const policy::CompiledTable& table)
{
    const std::size_t elem = table.narrow() ? 2 : 4;
    // A factored core has two fill rows per state, plus the control
    // register's two rows.
    const std::size_t rows = table.factored() ? 3 : 2;
    return static_cast<std::size_t>(table.numStates()) *
               (static_cast<std::size_t>(table.ways()) * elem * rows +
                2) +
           static_cast<std::size_t>(table.controlStates()) * 8;
}

/** Lane indices of one lockstep pass. */
struct Group
{
    std::vector<std::size_t> laneIdx;
    unsigned active = 0; ///< real lanes; the rest is padding
};

/**
 * Packs compiled lanes into lockstep groups. The lanes are
 * stable-sorted by (element width, shape), so every group is
 * homogeneous in both; a run of one kind is cut before the lane
 * whose table would take the run's summed footprint past
 * @p tableBudget, and each run is chunked into groupWidths() of at
 * most @p maxLanes. @p tableOf(i) is lane i's table; callers that
 * budget pass distinct tables (duplicates are removed first).
 */
template <typename TableOf>
std::vector<Group>
planGroups(std::vector<std::size_t> lanes, const TableOf& tableOf,
           unsigned maxLanes, std::size_t tableBudget)
{
    const auto groupKey = [&](std::size_t i) {
        const policy::CompiledTable& table = *tableOf(i);
        return 2 * !table.narrow() + table.factored();
    };
    std::stable_sort(lanes.begin(), lanes.end(),
                     [&](std::size_t a, std::size_t b) {
                         return groupKey(a) < groupKey(b);
                     });

    std::vector<Group> groups;
    std::vector<std::size_t> run;
    std::size_t runBytes = 0;
    const auto flushRun = [&] {
        std::size_t next = 0;
        for (const unsigned width : groupWidths(run.size(), maxLanes)) {
            Group group;
            for (unsigned l = 0; l < width && next < run.size(); ++l)
                group.laneIdx.push_back(run[next++]);
            group.active = static_cast<unsigned>(group.laneIdx.size());
            while (group.laneIdx.size() < width)
                group.laneIdx.push_back(group.laneIdx.front());
            groups.push_back(std::move(group));
        }
        run.clear();
        runBytes = 0;
    };
    for (const std::size_t i : lanes) {
        const std::size_t bytes = tableFootprint(*tableOf(i));
        if (!run.empty() && (groupKey(run.front()) != groupKey(i) ||
                             runBytes + bytes > tableBudget))
            flushRun();
        run.push_back(i);
        runBytes += bytes;
    }
    flushRun();
    return groups;
}

cache::LevelStats
groupLaneStats(const GroupState& gs, std::size_t accesses,
               unsigned lane)
{
    cache::LevelStats stats;
    stats.accesses = accesses;
    stats.hits = gs.hits[lane];
    stats.misses = accesses - gs.hits[lane];
    stats.evictions = gs.evictions[lane];
    return stats;
}

} // namespace

std::vector<MultiLaneResult>
simulateMultiPolicy(const DecodedTrace& decoded,
                    const std::vector<std::string>& specs,
                    const trace::Trace& t,
                    const MultiPolicyOptions& opts)
{
    const cache::Geometry& geom = decoded.geometry();
    require(decoded.size() == t.size(),
            "simulateMultiPolicy: decoded/raw trace size mismatch");
    require(opts.laneSeeds.empty() ||
                opts.laneSeeds.size() == specs.size(),
            "simulateMultiPolicy: laneSeeds must be empty or match "
            "the spec count");

    std::vector<MultiLaneResult> results(specs.size());
    std::vector<std::size_t> compiledIdx;
    std::vector<std::size_t> fallbackIdx;
    std::vector<policy::CompiledTablePtr> tables(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        results[i].spec = specs[i];
        require(policy::specSupportsWays(specs[i], geom.ways),
                "simulateMultiPolicy: policy '" + specs[i] +
                    "' does not support " +
                    std::to_string(geom.ways) + " ways");
        if (!opts.forceInterpreted)
            tables[i] = policy::compiledTableFor(specs[i], geom.ways,
                                                 opts.budget);
        if (tables[i]) {
            results[i].compiled = true;
            compiledIdx.push_back(i);
        } else {
            fallbackIdx.push_back(i);
        }
    }

    // Compiled lanes are deterministic in (table, trace) — unlike
    // interpreted fallbacks they never consume the lane seed — so
    // lanes sharing one table (compiledTableFor memoizes per spec)
    // are bitwise-identical. Simulate each distinct table once and
    // copy the result to its duplicates afterwards.
    constexpr std::size_t kNoDup = static_cast<std::size_t>(-1);
    std::vector<std::size_t> dupOf(specs.size(), kNoDup);
    {
        std::unordered_map<const policy::CompiledTable*, std::size_t>
            firstLane;
        std::vector<std::size_t> unique;
        for (const std::size_t i : compiledIdx) {
            auto [it, inserted] =
                firstLane.try_emplace(tables[i].get(), i);
            if (inserted)
                unique.push_back(i);
            else
                dupOf[i] = it->second;
        }
        compiledIdx = std::move(unique);
    }

    // Groups are cut in spec order within each (width, shape) kind —
    // deterministic; lane results are scattered back by index, so the
    // order cannot change any result.
    std::sort(compiledIdx.begin(), compiledIdx.end(),
              [&](std::size_t a, std::size_t b) {
                  return specs[a] < specs[b];
              });
    const std::vector<Group> groups = planGroups(
        std::move(compiledIdx),
        [&](std::size_t i) { return tables[i].get(); }, opts.maxLanes,
        kGroupTableBudget);

    const auto laneSeed = [&](std::size_t i) {
        return opts.laneSeeds.empty() ? opts.seed : opts.laneSeeds[i];
    };

    const auto runGroup = [&](const Group& group) {
        // A 1-wide group has no lane parallelism to exploit; the
        // per-policy K1 kernel's predictable hit/miss branch beats
        // the branchless lockstep update there, and the results are
        // bit-identical by construction.
        if (group.laneIdx.size() == 1) {
            const std::size_t i = group.laneIdx.front();
            MultiLaneResult& out = results[i];
            out.stats = simulateCompiled(
                geom, *tables[i], t,
                opts.captureFinalImages ? &out.finalImage : nullptr);
            return;
        }

        std::vector<const policy::CompiledTable*> groupTables;
        for (const std::size_t i : group.laneIdx)
            groupTables.push_back(tables[i].get());
        const auto width = static_cast<unsigned>(groupTables.size());
        GroupState gs(geom.numSets, geom.ways, width);
        dispatchGroup(groupTables,
                      [&](auto laneCount, const auto* steppers) {
                          lockstepLoop<decltype(laneCount)::value>(
                              decoded, steppers, gs);
                      });

        for (unsigned l = 0; l < group.active; ++l) {
            MultiLaneResult& out = results[group.laneIdx[l]];
            out.stats = groupLaneStats(gs, decoded.size(), l);
            if (!opts.captureFinalImages)
                continue;
            out.finalImage.reserve(geom.numSets);
            for (unsigned set = 0; set < geom.numSets; ++set) {
                const std::size_t setBase =
                    static_cast<std::size_t>(set) * geom.ways * width;
                SetImage image;
                image.tags.assign(geom.ways, 0);
                image.valid.assign(geom.ways, false);
                const unsigned live =
                    gs.filled[static_cast<std::size_t>(set) * width +
                              l];
                for (unsigned w = 0; w < live; ++w) {
                    image.tags[w] = decoded.tagOfId(
                        gs.tags[setBase +
                                static_cast<std::size_t>(w) * width +
                                l]);
                    image.valid[w] = true;
                }
                const std::size_t at =
                    static_cast<std::size_t>(set) * width + l;
                image.policyKey = groupTables[l]->stateKey(
                    gs.state[at], gs.control[at]);
                out.finalImage.push_back(std::move(image));
            }
        }
    };

    const auto runFallback = [&](std::size_t i) {
        MultiLaneResult& out = results[i];
        if (opts.captureFinalImages) {
            cache::Cache c(geom, specs[i], "eval", laneSeed(i));
            for (const cache::Addr a : t)
                c.access(a);
            out.stats = c.stats();
            out.finalImage.reserve(geom.numSets);
            for (unsigned set = 0; set < geom.numSets; ++set) {
                const auto image = c.setImage(set);
                out.finalImage.push_back(
                    SetImage{image.tags, image.valid,
                             image.policyKey});
            }
            return;
        }
        KernelOptions kopts;
        kopts.seed = laneSeed(i);
        kopts.budget = opts.budget;
        kopts.forceInterpreted = true;
        out.stats = simulateTraceKernel(geom, specs[i], t, kopts);
    };

    // Lane groups and fallback lanes shard over the shared pool as
    // independent work items; every item writes disjoint results.
    parallelFor(groups.size() + fallbackIdx.size(), opts.numThreads,
                [&](std::size_t item) {
                    if (item < groups.size())
                        runGroup(groups[item]);
                    else
                        runFallback(
                            fallbackIdx[item - groups.size()]);
                });

    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (dupOf[i] == kNoDup)
            continue;
        results[i].stats = results[dupOf[i]].stats;
        results[i].finalImage = results[dupOf[i]].finalImage;
    }
    return results;
}

std::vector<MultiLaneResult>
simulateMultiPolicy(const cache::Geometry& geom,
                    const std::vector<std::string>& specs,
                    const trace::Trace& t,
                    const MultiPolicyOptions& opts)
{
    const DecodedTrace decoded(geom, t);
    return simulateMultiPolicy(decoded, specs, t, opts);
}

std::vector<cache::LevelStats>
simulatePoliciesBatch(const cache::Geometry& geom,
                      const std::vector<std::string>& specs,
                      const trace::Trace& t,
                      const MultiPolicyOptions& opts)
{
    const auto lanes = simulateMultiPolicy(geom, specs, t, opts);
    std::vector<cache::LevelStats> stats;
    stats.reserve(lanes.size());
    for (const auto& lane : lanes)
        stats.push_back(lane.stats);
    return stats;
}

std::vector<char>
matchObservationMultiPolicy(unsigned ways,
                            const std::vector<SetLane>& lanes,
                            const std::vector<policy::BlockId>& seq,
                            const std::vector<bool>& observedHits,
                            const std::vector<bool>& determined,
                            unsigned numThreads)
{
    require(ways >= 1, "matchObservationMultiPolicy: ways >= 1");
    require(observedHits.size() == seq.size() &&
                determined.size() == seq.size(),
            "matchObservationMultiPolicy: observation/sequence "
            "length mismatch");

    std::vector<char> match(lanes.size(), 1);
    if (lanes.empty() || seq.empty())
        return match;

    std::vector<std::size_t> compiledIdx;
    std::vector<std::size_t> fallbackIdx;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        require(lanes[i].prototype != nullptr,
                "matchObservationMultiPolicy: null prototype");
        require(lanes[i].prototype->ways() == ways,
                "matchObservationMultiPolicy: lane associativity "
                "mismatch");
        if (lanes[i].table) {
            require(lanes[i].table->ways() == ways,
                    "matchObservationMultiPolicy: table "
                    "associativity mismatch");
            compiledIdx.push_back(i);
        } else {
            fallbackIdx.push_back(i);
        }
    }

    // Dense first-occurrence ids (>= 1), shared by every lane.
    std::vector<uint32_t> seqIds;
    seqIds.reserve(seq.size());
    std::unordered_map<policy::BlockId, uint32_t> idOf;
    for (const policy::BlockId block : seq) {
        auto [it, inserted] = idOf.try_emplace(
            block, static_cast<uint32_t>(idOf.size() + 1));
        (void)inserted;
        seqIds.push_back(it->second);
    }
    std::vector<uint8_t> hitsRaw(seq.size());
    std::vector<uint8_t> determinedRaw(seq.size());
    for (std::size_t j = 0; j < seq.size(); ++j) {
        hitsRaw[j] = observedHits[j] ? 1 : 0;
        determinedRaw[j] = determined[j] ? 1 : 0;
    }

    // No table budget here: a single set's tag row is tiny next to
    // the tables, and candidate lanes may repeat a table.
    const std::vector<Group> groups = planGroups(
        std::move(compiledIdx),
        [&](std::size_t i) { return lanes[i].table.get(); },
        kMaxGroupLanes, std::numeric_limits<std::size_t>::max());

    parallelFor(
        groups.size() + fallbackIdx.size(), numThreads,
        [&](std::size_t item) {
            if (item < groups.size()) {
                const Group& group = groups[item];
                std::vector<const policy::CompiledTable*> groupTables;
                for (const std::size_t i : group.laneIdx)
                    groupTables.push_back(lanes[i].table.get());
                char groupMatch[kMaxGroupLanes];
                dispatchGroup(groupTables, [&](auto laneCount,
                                               const auto* steppers) {
                    matchLoop<decltype(laneCount)::value>(
                        steppers, seqIds.data(), seqIds.size(),
                        hitsRaw.data(), determinedRaw.data(),
                        groupMatch);
                });
                for (std::size_t l = 0; l < group.active; ++l)
                    match[group.laneIdx[l]] = groupMatch[l];
                return;
            }
            const std::size_t i =
                fallbackIdx[item - groups.size()];
            policy::SetModel model(lanes[i].prototype->clone());
            model.flush();
            bool ok = true;
            for (std::size_t j = 0; j < seq.size(); ++j) {
                const bool hit = model.access(seq[j]);
                if (determinedRaw[j] &&
                    hit != static_cast<bool>(hitsRaw[j])) {
                    ok = false;
                    break;
                }
            }
            match[i] = ok ? 1 : 0;
        });
    return match;
}

} // namespace recap::eval
