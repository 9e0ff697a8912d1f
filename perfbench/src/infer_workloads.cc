/**
 * @file
 * The inference workloads: `reverse-engineer` (catalog machines, one
 * per verdict path) and `learn-unknown` (single-level rigs hiding
 * policies outside the candidate family). Both run
 * infer::inferMachine with the options examples/reverse_engineer
 * uses, thread counts pinned; the traced pass replays the same
 * pipeline stage by stage to time each layer and must reproduce the
 * untraced verdicts and load counts exactly.
 */

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "recap/common/parallel.hh"
#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/equivalence.hh"
#include "recap/infer/naming.hh"
#include "recap/infer/pipeline.hh"
#include "recap/learn/learned_policy.hh"
#include "recap/learn/lstar.hh"
#include "recap/learn/teacher.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/query/oracle.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace recap;

/** Set-up is microseconds here; many repetitions steady its median. */
constexpr unsigned kSetupReps = 25;

/** What a level's verdict must be. */
struct LevelExpect
{
    bool abstain = false;       ///< the pipeline must not decide
    unsigned learnedStates = 0; ///< nonzero: a learned automaton
};

struct Target
{
    hw::MachineSpec spec;
    std::vector<LevelExpect> expect; ///< per level
};

/**
 * The hidden machine's latencies are the seed's input: they move the
 * timings the prober sees but not the policies it must find.
 */
void
jitterLatencies(hw::MachineSpec& spec, Rng& rng)
{
    for (auto& level : spec.levels)
        level.hitLatency += static_cast<unsigned>(rng.nextBelow(3));
    spec.memoryLatency += static_cast<unsigned>(rng.nextBelow(41));
}

std::vector<Target>
reverseEngineerTargets(uint64_t seed)
{
    Rng rng(seed);
    std::vector<Target> targets;
    // One machine per verdict path: permutation inference, candidate
    // search on a 12-way QLRU L3, set-dueling detection.
    for (const char* name :
         {"core2-e6300", "sandybridge-i5", "ivybridge-i5"}) {
        Target t;
        t.spec = hw::reducedSpec(hw::catalogMachine(name), 1024);
        jitterLatencies(t.spec, rng);
        t.expect.assign(t.spec.levels.size(), LevelExpect{});
        targets.push_back(std::move(t));
    }
    return targets;
}

std::vector<Target>
learnUnknownTargets(uint64_t seed)
{
    Rng rng(seed);
    struct Rig
    {
        const char* policy;
        unsigned ways;
        LevelExpect expect;
    };
    // Learned state counts are pinned; drrip@2 exceeds the learner's
    // state budget and must abstain rather than guess.
    const Rig rigs[] = {
        {"dip", 2, {false, 178}},
        {"bip:4", 2, {false, 28}},
        {"drrip", 2, {true, 0}},
    };
    std::vector<Target> targets;
    for (const Rig& rig : rigs) {
        const unsigned sets = 16u << rng.nextBelow(4);
        hw::CacheLevelSpec level;
        level.name = "L1";
        level.capacityBytes = uint64_t{64} * sets * rig.ways;
        level.ways = rig.ways;
        level.hitLatency = 4;
        level.policySpec = rig.policy;
        Target t;
        t.spec.name = std::string("rig-") + rig.policy + "@" +
                      std::to_string(rig.ways);
        t.spec.description = "hidden single-level rig";
        t.spec.levels = {level};
        t.spec.memoryLatency = 100;
        jitterLatencies(t.spec, rng);
        t.expect = {rig.expect};
        targets.push_back(std::move(t));
    }
    return targets;
}

infer::InferenceOptions
pipelineOptions(unsigned threads)
{
    infer::InferenceOptions opts;
    opts.adaptive.windowSets = 64; // as examples/reverse_engineer
    opts.search.numThreads = threads;
    opts.adaptive.search.numThreads = threads;
    opts.learning.learner.numThreads = 1;
    return opts;
}

/**
 * Are @p a and @p b the same policy at @p ways? Identical names are;
 * otherwise a bounded product exploration decides, backed by a long
 * random lockstep when the exploration budget runs out (QLRU at 12
 * ways is far too large to exhaust here).
 */
bool
samePolicy(const std::string& a, const std::string& b, unsigned ways)
{
    if (infer::prettySpecName(a, ways) == infer::prettySpecName(b, ways))
        return true;
    const auto pa = policy::makePolicy(a, ways);
    const auto pb = policy::makePolicy(b, ways);
    infer::EquivalenceConfig eq;
    eq.maxStates = 20000;
    const auto res = infer::checkEquivalence(*pa, *pb, eq);
    if (!res.equivalent)
        return false;
    if (res.exhausted)
        return true;
    policy::SetModel ma(pa->clone());
    policy::SetModel mb(pb->clone());
    Rng rng(ways);
    for (unsigned i = 0; i < 200000; ++i) {
        const auto block =
            static_cast<policy::BlockId>(rng.nextBelow(ways + 4) + 1);
        if (ma.access(block) != mb.access(block))
            return false;
    }
    return true;
}

std::string
specOfPermutationName(const std::string& verdict)
{
    if (verdict == "LRU")
        return "lru";
    if (verdict == "FIFO")
        return "fifo";
    if (verdict == "PLRU")
        return "plru";
    return {};
}

/** Checks one level's verdict against the hidden ground truth. */
std::pair<OpResult, std::string>
checkLevel(const infer::LevelReport& lvl, const hw::CacheLevelSpec& truth,
           const LevelExpect& expect)
{
    const unsigned k = truth.ways;
    const std::string where = lvl.levelName + " '" + lvl.verdict + "'";
    const bool decided = lvl.outcome == infer::LevelOutcome::kDecided &&
                         (lvl.learned || lvl.adaptive ||
                          lvl.isPermutation || !lvl.survivors.empty());
    if (expect.abstain) {
        return decided
            ? std::pair{OpResult::kWrong, where + ": should abstain"}
            : std::pair{OpResult::kDegraded, std::string{}};
    }
    if (!decided)
        return {OpResult::kWrong, where + ": no verdict"};
    if (lvl.geometry.ways != k)
        return {OpResult::kWrong, where + ": wrong associativity"};
    if (expect.learnedStates != 0 || lvl.learned) {
        const bool ok = lvl.learned &&
                        lvl.learnedStates == expect.learnedStates &&
                        lvl.agreement == 1.0;
        return {ok ? OpResult::kOk : OpResult::kWrong,
                where + ": learned " +
                    std::to_string(lvl.learnedStates) +
                    " states, agreement " +
                    std::to_string(lvl.agreement)};
    }
    if (lvl.adaptive != truth.isAdaptive())
        return {OpResult::kWrong, where + ": adaptivity"};
    if (lvl.adaptive) {
        const std::string& s = lvl.adaptiveSelected;
        const std::string& u = lvl.adaptiveUnselected;
        const bool ok = !s.empty() && !u.empty() &&
            ((samePolicy(s, truth.policySpec, k) &&
              samePolicy(u, truth.policySpecB, k)) ||
             (samePolicy(s, truth.policySpecB, k) &&
              samePolicy(u, truth.policySpec, k)));
        return {ok ? OpResult::kOk : OpResult::kWrong, where};
    }
    std::vector<std::string> specs = lvl.survivors;
    if (lvl.isPermutation)
        specs = {specOfPermutationName(lvl.verdict)};
    for (const std::string& spec : specs)
        if (spec.empty() || !samePolicy(spec, truth.policySpec, k))
            return {OpResult::kWrong, where};
    return {OpResult::kOk, {}};
}

/** Deterministic per-level record compared across passes. */
std::string
levelRecord(const infer::LevelReport& lvl)
{
    return lvl.verdict + "|loads=" + std::to_string(lvl.loadsUsed) +
           "|words=" + std::to_string(lvl.learnerQueries) +
           "|states=" + std::to_string(lvl.learnedStates);
}

std::string
levelTag(unsigned level)
{
    return "L" + std::to_string(level + 1);
}

/** Per-stage counters of the traced replay. */
struct StageCounts
{
    uint64_t loadsGeometry = 0;
    uint64_t loadsAdaptive = 0;
    uint64_t loadsLevel = 0;
    uint64_t loadsLearn = 0;
    uint64_t experiments = 0;
    uint64_t compileCalls = 0;
    uint64_t compileOk = 0;
    uint64_t learnWords = 0;
    uint64_t learnEqWords = 0;
    uint64_t learnStates = 0;
    query::BatchStats batch;
};

/**
 * inferMachine, stage by stage (single-set, non-robust options, as
 * pipelineOptions() sets them), with a span around every public call
 * and the candidate library compiled up front.
 */
infer::MachineReport
tracedInferMachine(hw::Machine& machine,
                   const infer::InferenceOptions& opts, Tracer& tracer,
                   StageCounts& counts)
{
    const std::string id = machine.spec().name;
    infer::MachineReport report;
    report.machineName = id;
    infer::MeasurementContext ctx(machine);

    {
        ScopedSpan span(tracer, "infer.geometry", id);
        infer::GeometryProbeConfig geo = opts.geometry;
        geo.voteRepeats = std::max(geo.voteRepeats, opts.voteRepeats);
        infer::GeometryProbe probe(ctx, geo);
        report.geometry = probe.discoverAll();
    }
    counts.loadsGeometry += ctx.loadsIssued();

    {
        ScopedSpan span(tracer, "policy.compile", id);
        std::set<unsigned> ways;
        for (const auto& level : report.geometry.levels)
            ways.insert(level.ways);
        for (unsigned k : ways) {
            for (const auto& spec : infer::defaultCandidateSpecs(k)) {
                if (!policy::specSupportsWays(spec, k))
                    continue;
                ++counts.compileCalls;
                if (policy::compiledTableFor(spec, k))
                    ++counts.compileOk;
            }
        }
    }

    for (unsigned level = 0; level < machine.depth(); ++level) {
        const std::string levelId = id + "/" + levelTag(level);
        const uint64_t before = ctx.loadsIssued();
        infer::AdaptiveReport adaptive;
        {
            ScopedSpan span(tracer, "infer.adaptive", levelId);
            infer::AdaptiveDetectConfig acfg = opts.adaptive;
            acfg.voteRepeats =
                std::max(acfg.voteRepeats, opts.voteRepeats);
            acfg.search = opts.search;
            adaptive = infer::detectAdaptive(ctx, report.geometry,
                                             level, acfg);
        }
        const uint64_t afterAdaptive = ctx.loadsIssued();
        counts.loadsAdaptive += afterAdaptive - before;

        infer::LevelReport lvl;
        {
            ScopedSpan span(tracer, "infer.level", levelId);
            if (adaptive.adaptive && !adaptive.constituentsIdentical) {
                lvl.levelName = levelTag(level);
                lvl.geometry = report.geometry.levels[level];
                lvl.adaptive = true;
                lvl.adaptiveSelected = adaptive.policySelected.verdict;
                lvl.adaptiveUnselected =
                    adaptive.policyUnselected.verdict;
                const unsigned k = lvl.geometry.ways;
                auto pretty = [k](const std::string& spec) {
                    return spec.empty()
                        ? std::string("?")
                        : infer::prettySpecName(spec, k);
                };
                lvl.verdict = "adaptive (set dueling): " +
                              pretty(lvl.adaptiveSelected) + " vs " +
                              pretty(lvl.adaptiveUnselected);
                if (!adaptive.leadersSelected.empty() &&
                    !lvl.adaptiveSelected.empty()) {
                    infer::SetProberConfig pc;
                    pc.baseAddr = opts.adaptive.baseAddr +
                        static_cast<uint64_t>(
                            report.geometry.lineSize) *
                            adaptive.leadersSelected.front();
                    pc.voteRepeats = opts.voteRepeats;
                    pc.vote = opts.robust.vote;
                    infer::SetProber prober(ctx, report.geometry,
                                            level, pc);
                    const auto model =
                        policy::makePolicy(lvl.adaptiveSelected, k);
                    lvl.agreement = infer::measureAgreement(
                        prober, *model, opts.agreementRounds,
                        opts.seed + level);
                }
            } else {
                const infer::SetProberConfig defaults;
                lvl = infer::inferLevelAt(ctx, report.geometry, level,
                                          defaults.baseAddr, opts);
                lvl.heterogeneousOnly = adaptive.heterogeneousOnly;
            }
        }
        counts.loadsLevel += ctx.loadsIssued() - afterAdaptive;
        lvl.loadsUsed = ctx.loadsIssued() - before;
        report.levels.push_back(std::move(lvl));
    }
    report.totalLoads = ctx.loadsIssued();
    counts.experiments += ctx.experimentsRun();
    return report;
}

/**
 * The learning escalation of @p level on its own: L* over a
 * MachineOracle on a fresh copy of the machine, with the pipeline's
 * learner options and seed. Returns false when its word count or
 * state count differs from the pipeline's.
 */
bool
tracedLearn(const hw::MachineSpec& spec,
            const infer::DiscoveredGeometry& geometry, unsigned level,
            const infer::LevelReport& fromPipeline,
            const infer::InferenceOptions& opts, Tracer& tracer,
            StageCounts& counts)
{
    hw::Machine machine(spec);
    infer::MeasurementContext ctx(machine);
    infer::SetProberConfig pc;
    pc.voteRepeats = opts.voteRepeats;
    pc.vote = opts.robust.vote;
    infer::SetProber prober(ctx, geometry, level, pc);
    query::MachineOracle oracle(prober);
    learn::OracleTeacher teacher(oracle);
    learn::LearnOptions lo = opts.learning.learner;
    lo.seed = deriveTaskSeed(opts.seed + 77 * level, 0);
    learn::LStarLearner learner(teacher, lo);

    learn::LearnResult result;
    {
        ScopedSpan span(tracer, "learn",
                        spec.name + "/" + levelTag(level));
        result = learner.run();
    }
    counts.loadsLearn += ctx.loadsIssued();
    counts.experiments += ctx.experimentsRun();
    counts.learnWords += result.membershipWords;
    counts.learnEqWords += result.equivalenceWords;
    const bool learned = result.outcome == learn::LearnOutcome::kLearned;
    if (learned)
        counts.learnStates += result.states;
    const query::BatchStats& bs = teacher.batchStats();
    counts.batch.queries += bs.queries;
    counts.batch.naiveCost += bs.naiveCost;
    counts.batch.sharedCost += bs.sharedCost;
    counts.batch.prefixReuses += bs.prefixReuses;
    return result.membershipWords == fromPipeline.learnerQueries &&
           learned == fromPipeline.learned &&
           (!learned || result.states == fromPipeline.learnedStates);
}

PassResult
runInference(const PassConfig& cfg,
             const std::function<std::vector<Target>(uint64_t)>& makeTargets,
             bool learnStage)
{
    PassResult out;
    const infer::InferenceOptions opts = pipelineOptions(cfg.threads);

    std::vector<Target> targets;
    std::vector<std::unique_ptr<hw::Machine>> machines;
    const double setup = medianSetupSeconds(kSetupReps, [&] {
        targets = makeTargets(cfg.seed);
        machines.clear();
        for (const Target& t : targets)
            machines.push_back(std::make_unique<hw::Machine>(t.spec));
    });

    Tracer& tracer = *cfg.tracer;
    StageCounts stages;
    double inferS = 0.0;
    double slowestS = 0.0;
    uint64_t loads = 0;
    bool traceAgrees = true;
    std::vector<infer::MachineReport> reports;
    for (std::size_t m = 0; m < targets.size(); ++m) {
        const Target& target = targets[m];
        const double t0 = nowSeconds();
        infer::MachineReport report;
        {
            ScopedSpan span(tracer, "infer.machine", target.spec.name);
            report = cfg.trace
                ? tracedInferMachine(*machines[m], opts, tracer, stages)
                : infer::inferMachine(*machines[m], opts);
        }
        const double dt = nowSeconds() - t0;
        inferS += dt;
        slowestS = std::max(slowestS, dt);
        loads += report.totalLoads;
        out.detail["infer_s." + target.spec.name] = dt;

        const std::string& name = target.spec.name;
        out.counts[name + ".loads"] = std::to_string(report.totalLoads);
        reports.push_back(report);
        if (report.levels.size() != target.spec.levels.size()) {
            out.tally.record(OpResult::kWrong,
                             name + ": wrong level count");
            continue;
        }
        for (std::size_t l = 0; l < report.levels.size(); ++l) {
            const auto& lvl = report.levels[l];
            out.counts[name + "." + lvl.levelName] = levelRecord(lvl);
            const auto [result, what] = checkLevel(
                lvl, target.spec.levels[l], target.expect[l]);
            out.tally.record(result, name + " " + what);
            if (cfg.trace && learnStage && lvl.learnerQueries > 0)
                traceAgrees &= tracedLearn(
                    target.spec, report.geometry,
                    static_cast<unsigned>(l), lvl, opts, tracer,
                    stages);
        }
    }
    if (cfg.trace) {
        // Tracing overhead: the traced stages (compile excluded, it
        // ran up front) against the library call on fresh machines in
        // this now-warm process, which must also reach the same
        // verdicts and load counts.
        double warmS = 0.0;
        for (std::size_t m = 0; m < targets.size(); ++m) {
            hw::Machine fresh(targets[m].spec);
            const double t0 = nowSeconds();
            const auto report = infer::inferMachine(fresh, opts);
            warmS += nowSeconds() - t0;
            traceAgrees &= report.totalLoads == reports[m].totalLoads &&
                           report.levels.size() == reports[m].levels.size();
            for (std::size_t l = 0; traceAgrees && l < report.levels.size();
                 ++l)
                traceAgrees &= levelRecord(report.levels[l]) ==
                               levelRecord(reports[m].levels[l]);
        }
        const auto self = selfTimeByName(tracer.spans());
        double stagesS = 0.0;
        for (const char* stage : {"infer.machine", "infer.geometry",
                                  "infer.adaptive", "infer.level"})
            if (self.count(stage))
                stagesS += self.at(stage);
        out.layers["trace.overhead_s"] = stagesS - warmS;
    }
    if (!traceAgrees)
        out.tally.record(OpResult::kWrong,
                         "traced replay disagrees with inferMachine");

    const Tally& t = out.tally;
    out.endToEnd = {
        {"setup_s", setup},
        {"peak_rss_mb", peakRssMb()},
        {"ok_ratio", static_cast<double>(t.ok()) /
                         static_cast<double>(t.attempted)},
        {"decided_ratio", t.decidedRatio()},
        {"result_s", inferS},
        {"tail_s", slowestS},
        {"sim_accesses", static_cast<double>(loads)},
        {"rate_per_s", static_cast<double>(loads) / inferS},
    };
    out.detail["infer_s"] = inferS;
    out.detail["infer_loads"] = static_cast<double>(loads);
    out.detail["decided_ratio"] = t.decidedRatio();

    if (cfg.trace) {
        const auto self = selfTimeByName(tracer.spans());
        auto selfOf = [&](const char* n) {
            const auto it = self.find(n);
            return it == self.end() ? 0.0 : it->second;
        };
        const double probeS = selfOf("infer.geometry") +
                              selfOf("infer.adaptive") +
                              selfOf("infer.level");
        const uint64_t pipelineLoads = stages.loadsGeometry +
                                       stages.loadsAdaptive +
                                       stages.loadsLevel;
        auto& L = out.layers;
        L["policy.compile_s"] = selfOf("policy.compile");
        L["policy.compile_calls"] = static_cast<double>(stages.compileCalls);
        L["policy.compile_ok_ratio"] = stages.compileCalls
            ? static_cast<double>(stages.compileOk) /
                  static_cast<double>(stages.compileCalls)
            : 0.0;
        L["infer.geometry_s"] = selfOf("infer.geometry");
        L["infer.adaptive_s"] = selfOf("infer.adaptive");
        L["infer.level_s"] = selfOf("infer.level");
        L["infer.experiments"] = static_cast<double>(stages.experiments);
        L["infer.host_ns_per_load"] = pipelineLoads
            ? probeS * 1e9 / static_cast<double>(pipelineLoads) : 0.0;
        L["hw.loads_geometry"] = static_cast<double>(stages.loadsGeometry);
        L["hw.loads_adaptive"] = static_cast<double>(stages.loadsAdaptive);
        L["hw.loads_level"] = static_cast<double>(stages.loadsLevel);
        L["hw.loads_learn"] = static_cast<double>(stages.loadsLearn);
        L["learn.s"] = selfOf("learn");
        L["learn.membership_words"] = static_cast<double>(stages.learnWords);
        L["learn.equivalence_words"] =
            static_cast<double>(stages.learnEqWords);
        L["learn.states"] = static_cast<double>(stages.learnStates);
        L["query.naive_cost"] = static_cast<double>(stages.batch.naiveCost);
        L["query.shared_cost"] =
            static_cast<double>(stages.batch.sharedCost);
        L["query.share_saved_ratio"] = stages.batch.naiveCost
            ? 1.0 - static_cast<double>(stages.batch.sharedCost) /
                        static_cast<double>(stages.batch.naiveCost)
            : 0.0;
        L["query.prefix_reuses"] =
            static_cast<double>(stages.batch.prefixReuses);
    }
    return out;
}

} // namespace

PassResult
runReverseEngineer(const PassConfig& cfg)
{
    return runInference(cfg, reverseEngineerTargets, false);
}

PassResult
runLearnUnknown(const PassConfig& cfg)
{
    return runInference(cfg, learnUnknownTargets, true);
}

} // namespace perfbench
