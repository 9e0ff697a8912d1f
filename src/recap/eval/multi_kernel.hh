/**
 * @file
 * Multi-policy lockstep simulation kernel (K2): one trace decode,
 * N transition tables per pass.
 *
 * The "generate and test" fallback of the paper and the miss-ratio
 * sweeps (Fig. 3/4) both simulate many candidate policies over the
 * same trace. The single-policy kernel (eval/kernel.hh) re-decodes
 * the trace and re-streams it through the tag scan once per policy;
 * this kernel amortizes both across the whole candidate set:
 *
 *  - the trace is decoded ONCE into (set index, dense block id)
 *    pairs (DecodedTrace) — block ids are first-occurrence dense
 *    uint32 values >= 1, so the per-lane tag matrices hold uint32
 *    instead of uint64, halving scan footprint and doubling the
 *    vector width of the lane-parallel compare, with 0 free as the
 *    empty-way sentinel;
 *  - policies that compile (policy::compiledTableFor) are packed
 *    into lockstep lane groups: tags are interleaved
 *    [set][way][lane] so the fixed-trip-count scan of one access
 *    runs once per lane group as a vectorizable compare-select over
 *    all lanes, and each lane keeps only its own integer policy
 *    state and fill cursor on top of its slice of the group's tag
 *    rows, stepping its uint16 (or uint32) transition table through
 *    a policy::TableStepper; lanes on a factored table (core plus
 *    control register) also step one control register per set and
 *    run in groups of their own, so monolithic groups keep the plain
 *    inner loop;
 *  - lanes whose policies have no table fall back to the
 *    interpreted cache::Cache inside the same driver, so the result
 *    vector stays total over the requested specs.
 *
 * Lane groups and fallback lanes are sharded across the shared
 * TaskPool. Results are bit-identical to per-policy
 * simulateTraceKernel() calls — pinned by tests/test_multi_kernel.cc
 * and re-checked in-run by bench_multi_kernel.
 *
 * matchObservationMultiPolicy() is the same kernel specialized to
 * the candidate-elimination shape: one observed block sequence
 * played from a flushed single set against every surviving
 * candidate automaton in lockstep (infer::CandidateSearch).
 */

#ifndef RECAP_EVAL_MULTI_KERNEL_HH_
#define RECAP_EVAL_MULTI_KERNEL_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "recap/cache/cache.hh"
#include "recap/eval/kernel.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/set_model.hh"
#include "recap/trace/trace.hh"

namespace recap::eval
{

/**
 * A trace decoded once against one geometry: per access, the set
 * index and a dense per-block id (>= 1; ids are assigned by first
 * occurrence, so two accesses carry the same id iff they address the
 * same cache block). Sharing one DecodedTrace across every lane of a
 * pass — and across passes — is where the kernel stops paying
 * per-policy decode.
 */
class DecodedTrace
{
  public:
    DecodedTrace(const cache::Geometry& geom, const trace::Trace& t);

    const cache::Geometry& geometry() const { return geom_; }
    std::size_t size() const { return sets_.size(); }

    const std::vector<uint32_t>& sets() const { return sets_; }
    const std::vector<uint32_t>& ids() const { return ids_; }

    /** Tag (geometry.tag) of the block behind dense id @p id. */
    uint64_t tagOfId(uint32_t id) const;

  private:
    cache::Geometry geom_;
    std::vector<uint32_t> sets_;
    std::vector<uint32_t> ids_;
    std::vector<uint64_t> blockOfId_; ///< [id-1] -> block number
};

/** Execution knobs of the multi-policy entry points. */
struct MultiPolicyOptions
{
    /** Fallback-lane seed when laneSeeds is empty. */
    uint64_t seed = 1;

    /**
     * Per-lane seeds for interpreted fallback lanes (stochastic
     * policies); empty = every lane uses @p seed. Compiled lanes are
     * deterministic and ignore seeds. Must be empty or match the
     * spec count.
     */
    std::vector<uint64_t> laneSeeds;

    /**
     * Worker threads sharding lane groups and fallback lanes over
     * the shared pool (0 = hardware concurrency, 1 = serial).
     * Results are bit-identical for every value.
     */
    unsigned numThreads = 0;

    /** State budget for policy compilation. */
    policy::CompileBudget budget;

    /**
     * Run every lane on the interpreted cache::Cache path (the
     * reference side of differential tests).
     */
    bool forceInterpreted = false;

    /**
     * Upper bound on lanes per lockstep group; clamped to the widest
     * instantiated width (16). Smaller caps trade lane-parallel scan
     * throughput for per-group table working set.
     */
    unsigned maxLanes = 16;

    /** Capture per-lane final SetImages (differential tests). */
    bool captureFinalImages = false;
};

/** Result of one lane of simulateMultiPolicy. */
struct MultiLaneResult
{
    std::string spec;         ///< the lane's policy spec
    cache::LevelStats stats;  ///< identical to simulateTraceKernel
    bool compiled = false;    ///< ran in a lockstep lane group
    std::vector<SetImage> finalImage; ///< when captureFinalImages
};

/**
 * Simulates @p t against every policy in @p specs over the shared
 * geometry @p geom in one pass. Result i corresponds to specs[i]
 * and is bit-identical to simulateTraceKernel(geom, specs[i], t)
 * with the lane's seed.
 *
 * @throws UsageError when a spec does not support geom.ways or
 *         laneSeeds is non-empty with the wrong size.
 */
std::vector<MultiLaneResult>
simulateMultiPolicy(const cache::Geometry& geom,
                    const std::vector<std::string>& specs,
                    const trace::Trace& t,
                    const MultiPolicyOptions& opts = {});

/** simulateMultiPolicy over an already-decoded trace (@p decoded
 *  must stem from @p geom-equal geometry; @p t is the raw trace the
 *  decode was built from, used by interpreted fallback lanes). */
std::vector<MultiLaneResult>
simulateMultiPolicy(const DecodedTrace& decoded,
                    const std::vector<std::string>& specs,
                    const trace::Trace& t,
                    const MultiPolicyOptions& opts = {});

/**
 * Convenience projection of simulateMultiPolicy for the sweep
 * consumers: stats only, positionally matching @p specs.
 */
std::vector<cache::LevelStats>
simulatePoliciesBatch(const cache::Geometry& geom,
                      const std::vector<std::string>& specs,
                      const trace::Trace& t,
                      const MultiPolicyOptions& opts = {});

/**
 * One candidate automaton of matchObservationMultiPolicy: a
 * compiled table when available, the interpreted prototype
 * otherwise. The prototype pointer must stay valid for the call and
 * is required even for compiled lanes (associativity checks).
 */
struct SetLane
{
    policy::CompiledTablePtr table; ///< null -> interpreted fallback
    const policy::ReplacementPolicy* prototype = nullptr;
};

/**
 * Plays @p seq from a flushed single set against every lane in
 * lockstep and reports, per lane, whether the lane's hit/miss
 * sequence agrees with @p observedHits at every position where
 * @p determined is true (undetermined positions advance the state
 * but never eliminate) — the candidate-elimination inner loop of
 * infer::CandidateSearch, bit-identical to a per-candidate
 * policy::SetModel replay.
 *
 * Compiled lanes run in lockstep groups; fallback lanes replay a
 * SetModel clone of their prototype. Work is sharded over the
 * shared pool with @p numThreads (0 = hardware, 1 = serial);
 * results are identical for every value.
 */
std::vector<char>
matchObservationMultiPolicy(unsigned ways,
                            const std::vector<SetLane>& lanes,
                            const std::vector<policy::BlockId>& seq,
                            const std::vector<bool>& observedHits,
                            const std::vector<bool>& determined,
                            unsigned numThreads = 1);

} // namespace recap::eval

#endif // RECAP_EVAL_MULTI_KERNEL_HH_
