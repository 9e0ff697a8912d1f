#include "recap/infer/set_prober.hh"

#include <algorithm>
#include <unordered_map>

#include "recap/common/error.hh"

namespace recap::infer
{

namespace
{

/** Replays of the fixed-N majority schedule: odd, at least one. */
unsigned
oddRepeats(unsigned voteRepeats)
{
    return voteRepeats % 2 == 0 ? voteRepeats + 1 : voteRepeats;
}

} // namespace

SetProber::SetProber(MeasurementContext& ctx,
                     const DiscoveredGeometry& geom,
                     unsigned targetLevel, const SetProberConfig& cfg)
    : ctx_(ctx), geom_(geom), targetLevel_(targetLevel), cfg_(cfg)
{
    require(targetLevel < geom_.levels.size(),
            "SetProber: target level out of range");
    require(cfg_.evictorFactor >= 1,
            "SetProber: evictor factor must be >= 1");
    // The conflict-line construction needs each level's set stride to
    // strictly divide the next one's.
    for (unsigned u = 0; u + 1 <= targetLevel_; ++u) {
        const uint64_t inner = geom_.levels[u].setStride();
        const uint64_t outer = geom_.levels[u + 1].setStride();
        require(outer % inner == 0 && outer / inner >= 2,
                "SetProber: inner level must have strictly fewer sets "
                "than the next outer level");
    }
    buildEvictorPools();
}

void
SetProber::buildEvictorPools()
{
    // Per outer-level set, how many pool lines have been placed so
    // far — pool lines must stay resident in outer levels, so no set
    // may be overfilled.
    std::vector<std::unordered_map<uint64_t, unsigned>> load(
        geom_.levels.size());

    pools_.resize(targetLevel_);
    for (unsigned u = 0; u < targetLevel_; ++u) {
        const uint64_t stride_u = geom_.levels[u].setStride();
        const uint64_t ratio =
            geom_.levels[u + 1].setStride() / stride_u;
        // Cycling more lines than the level has ways guarantees the
        // pool keeps missing (and thus filling) there.
        const unsigned pool_size = geom_.levels[u].ways + 2;

        EvictorPool pool;
        for (uint64_t j = 1; pool.lines.size() < pool_size; ++j) {
            if (j % ratio == 0)
                continue; // would alias the probed outer sets
            const cache::Addr addr = cfg_.baseAddr + stride_u * j;
            // Keep every outer set below its capacity so the pool
            // stays resident there.
            bool fits = true;
            for (unsigned v = u + 1; v < geom_.levels.size(); ++v) {
                const uint64_t set =
                    (addr / geom_.lineSize) & (geom_.levels[v].numSets
                                               - 1);
                if (load[v][set] + 1 > geom_.levels[v].ways) {
                    fits = false;
                    break;
                }
            }
            if (!fits)
                continue;
            for (unsigned v = u + 1; v < geom_.levels.size(); ++v) {
                const uint64_t set =
                    (addr / geom_.lineSize) & (geom_.levels[v].numSets
                                               - 1);
                ++load[v][set];
            }
            pool.lines.push_back(addr);
        }
        pools_[u] = std::move(pool);
    }
}

unsigned
SetProber::ways() const
{
    return geom_.levels[targetLevel_].ways;
}

cache::Addr
SetProber::blockAddr(BlockId block) const
{
    // Blocks are spaced one target set stride apart: same set index
    // at the target level AND at every inner level, distinct target
    // tags.
    return cfg_.baseAddr + geom_.levels[targetLevel_].setStride() * block;
}

std::vector<bool>
SetProber::observe(const std::vector<BlockId>& seq)
{
    if (cfg_.vote.enabled)
        return observeRobust(seq).hits;
    const unsigned repeats = oddRepeats(cfg_.voteRepeats);
    const std::vector<unsigned> hits = tallyHits(seq, repeats);
    std::vector<bool> voted(seq.size());
    for (size_t i = 0; i < seq.size(); ++i)
        voted[i] = hits[i] > repeats / 2;
    return voted;
}

SetProber::ObservedSequence
SetProber::observeRobust(const std::vector<BlockId>& seq)
{
    ObservedSequence out;
    out.hits.resize(seq.size());
    out.confidence.resize(seq.size());
    out.determined.resize(seq.size());

    if (!cfg_.vote.enabled) {
        // Legacy fixed-N schedule, reported through the robust type.
        const unsigned repeats = oddRepeats(cfg_.voteRepeats);
        const std::vector<unsigned> hits = tallyHits(seq, repeats);
        for (size_t i = 0; i < seq.size(); ++i) {
            out.hits[i] = hits[i] > repeats / 2;
            out.confidence[i] =
                static_cast<double>(std::max(hits[i],
                                             repeats - hits[i])) /
                static_cast<double>(repeats);
            out.determined[i] = true;
        }
        out.replays = repeats;
        return out;
    }

    SequenceVote vote(cfg_.vote, seq.size());
    while (!vote.done())
        vote.addReplay(replayObserved(seq));
    const std::vector<VoteOutcome> outcomes = vote.outcomes();
    for (size_t i = 0; i < seq.size(); ++i) {
        out.hits[i] = outcomes[i].value();
        out.confidence[i] = outcomes[i].confidence;
        out.determined[i] = outcomes[i].determined();
    }
    out.replays = vote.replays();
    return out;
}

std::vector<unsigned>
SetProber::observeLevels(const std::vector<BlockId>& seq)
{
    if (cfg_.vote.enabled)
        return observeLevelsRobust(seq).levels;
    const unsigned repeats = oddRepeats(cfg_.voteRepeats);
    // votes[i][lvl]: how many replays served access i from lvl.
    const unsigned depth = ctx_.depth() + 1;
    std::vector<std::vector<unsigned>> votes(
        seq.size(), std::vector<unsigned>(depth, 0));
    for (unsigned r = 0; r < repeats; ++r) {
        const std::vector<unsigned> levels = replayTimed(seq);
        for (size_t i = 0; i < seq.size(); ++i)
            ++votes[i][std::min(levels[i], depth - 1)];
    }
    std::vector<unsigned> voted(seq.size(), 0);
    for (size_t i = 0; i < seq.size(); ++i) {
        unsigned best = 0;
        for (unsigned lvl = 1; lvl < depth; ++lvl)
            if (votes[i][lvl] > votes[i][best])
                best = lvl;
        voted[i] = best;
    }
    return voted;
}

SetProber::ObservedLevels
SetProber::observeLevelsRobust(const std::vector<BlockId>& seq)
{
    AdaptiveVoteConfig vc = cfg_.vote;
    vc.initialRepeats = std::max(1u, vc.initialRepeats);
    vc.maxRepeats = std::max(vc.initialRepeats, vc.maxRepeats);

    const unsigned depth = ctx_.depth() + 1;
    std::vector<std::vector<unsigned>> votes(
        seq.size(), std::vector<unsigned>(depth, 0));
    std::vector<unsigned> counted(seq.size(), 0);

    // Top count and runner-up count at position i.
    const auto topTwo = [&](size_t i) {
        unsigned best = 0;
        for (unsigned lvl = 1; lvl < depth; ++lvl)
            if (votes[i][lvl] > votes[i][best])
                best = lvl;
        unsigned second = 0;
        for (unsigned lvl = 0; lvl < depth; ++lvl)
            if (lvl != best)
                second = std::max(second, votes[i][lvl]);
        return std::pair<unsigned, unsigned>(best, second);
    };

    unsigned replays = 0;
    const auto settled = [&] {
        if (replays >= vc.maxRepeats)
            return true;
        if (replays < vc.initialRepeats)
            return false;
        if (vc.settleMargin == 0)
            return true;
        for (size_t i = 0; i < seq.size(); ++i) {
            const auto [best, second] = topTwo(i);
            if (votes[i][best] - second < vc.settleMargin)
                return false;
        }
        return true;
    };

    while (!settled()) {
        const auto readings = replayTimedReadings(seq);
        ++replays;
        for (size_t i = 0; i < seq.size(); ++i) {
            if (readings[i].outlier)
                continue; // fenced reading: abstain at this position
            ++counted[i];
            ++votes[i][std::min(readings[i].level, depth - 1)];
        }
    }

    ObservedLevels out;
    out.levels.resize(seq.size());
    out.confidence.resize(seq.size());
    out.determined.resize(seq.size());
    out.replays = replays;
    for (size_t i = 0; i < seq.size(); ++i) {
        const auto [best, second] = topTwo(i);
        out.levels[i] = best;
        out.confidence[i] =
            counted[i] > 0 ? static_cast<double>(votes[i][best]) /
                                 static_cast<double>(counted[i])
                           : 0.0;
        out.determined[i] =
            counted[i] > 0 &&
            (votes[i][best] - second >= vc.settleMargin ||
             (out.confidence[i] >= vc.minConfidence &&
              votes[i][best] > second));
    }
    return out;
}

void
SetProber::thrash(unsigned count)
{
    // Ids above 2^40 never collide with experiment block ids.
    const BlockId base = (uint64_t{1} << 40) + thrashEpoch_;
    thrashEpoch_ += count;
    for (unsigned i = 0; i < count; ++i)
        ctx_.access(blockAddr(base + i));
}

void
SetProber::run(const std::vector<BlockId>& seq)
{
    checkpoint();
    ctx_.beginExperiment();
    ctx_.flush();
    for (BlockId b : seq) {
        evictInnerLevels();
        ctx_.access(blockAddr(b));
    }
}

std::vector<unsigned>
SetProber::tallyHits(const std::vector<BlockId>& seq, unsigned repeats)
{
    std::vector<unsigned> hits(seq.size(), 0);
    for (unsigned r = 0; r < repeats; ++r) {
        const std::vector<bool> outcome = replayObserved(seq);
        for (size_t i = 0; i < seq.size(); ++i)
            if (outcome[i])
                ++hits[i];
    }
    return hits;
}

std::vector<bool>
SetProber::replayObserved(const std::vector<BlockId>& seq)
{
    checkpoint();
    ctx_.beginExperiment();
    ctx_.flush();
    std::vector<bool> outcome;
    outcome.reserve(seq.size());
    for (BlockId b : seq)
        outcome.push_back(routedObservedAccess(b));
    return outcome;
}

std::vector<unsigned>
SetProber::replayTimed(const std::vector<BlockId>& seq)
{
    checkpoint();
    ctx_.beginExperiment();
    ctx_.flush();
    std::vector<unsigned> levels;
    levels.reserve(seq.size());
    for (BlockId b : seq) {
        evictInnerLevels();
        levels.push_back(ctx_.timedLevel(blockAddr(b)));
    }
    return levels;
}

std::vector<MeasurementContext::TimedReading>
SetProber::replayTimedReadings(const std::vector<BlockId>& seq)
{
    checkpoint();
    ctx_.beginExperiment();
    ctx_.flush();
    std::vector<MeasurementContext::TimedReading> readings;
    readings.reserve(seq.size());
    for (BlockId b : seq) {
        evictInnerLevels();
        readings.push_back(ctx_.timedReading(blockAddr(b)));
    }
    return readings;
}

void
SetProber::evictInnerLevels()
{
    for (unsigned u = 0; u < targetLevel_; ++u) {
        EvictorPool& pool = pools_[u];
        const unsigned needed =
            cfg_.evictorFactor * geom_.levels[u].ways;
        for (unsigned i = 0; i < needed; ++i) {
            ctx_.access(pool.lines[pool.cursor]);
            pool.cursor = (pool.cursor + 1) % pool.lines.size();
        }
    }
}

bool
SetProber::routedObservedAccess(BlockId block)
{
    evictInnerLevels();
    return ctx_.countedHit(targetLevel_, blockAddr(block));
}

} // namespace recap::infer
