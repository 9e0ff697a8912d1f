/**
 * @file
 * The `policy-sweep` workload: trace-driven evaluation with no
 * measurement at all. One eval::policyWorkloadSweep of every catalog
 * policy (plus OPT) over the SPEC-like suite at one 8-way geometry,
 * then eval::evaluateHierarchy of every Intel catalog machine over a
 * suite sized to its last-level cache with 30% stores. A seeded
 * sample of grid cells and hierarchy runs is re-simulated on the
 * interpreted reference (cache::Cache, forceInterpreted).
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "recap/cache/cache.hh"
#include "recap/common/parallel.hh"
#include "recap/common/rng.hh"
#include "recap/eval/hierarchy_eval.hh"
#include "recap/eval/multi_kernel.hh"
#include "recap/eval/opt.hh"
#include "recap/eval/simulate.hh"
#include "recap/eval/sweep.hh"
#include "recap/hier/hierarchy.hh"
#include "recap/hw/catalog.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"
#include "recap/trace/trace.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace recap;

const cache::Geometry kGridGeometry{64, 64, 8}; // 32 KiB, 8-way
constexpr std::size_t kGridAccesses = 400000;   // per suite workload
constexpr std::size_t kHierAccesses = 120000;   // per suite workload
constexpr unsigned kHierMaxSets = 128;          // reducedSpec() cap
constexpr double kWriteFraction = 0.3;
constexpr unsigned kGridChecks = 12;            // sampled cells
constexpr unsigned kHierChecks = 3;             // sampled runs

struct HierInput
{
    hw::MachineSpec spec;
    std::vector<std::string> names;       ///< suite workload names
    std::vector<trace::RefTrace> refs;    ///< one per suite workload
};

struct Inputs
{
    std::vector<std::string> specs;
    std::vector<trace::Workload> grid;
    std::vector<HierInput> machines;
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    for (const auto& spec : policy::catalogSpecs())
        if (policy::specSupportsWays(spec, kGridGeometry.ways))
            in.specs.push_back(spec);
    trace::SuiteConfig grid;
    grid.cacheBytes = kGridGeometry.sizeBytes();
    grid.accessesPerWorkload = kGridAccesses;
    grid.seed = seed;
    in.grid = trace::specLikeSuite(grid);

    const auto catalog = hw::intelCatalog();
    for (std::size_t m = 0; m < catalog.size(); ++m) {
        HierInput h;
        // Reduced machines: the suite's blocked matrix multiply grows
        // with the cube of the cache size, so a full-size LLC would
        // need gigabytes of trace. Every trace is cut to the same
        // length so each machine walks the same number of references.
        h.spec = hw::reducedSpec(catalog[m], kHierMaxSets);
        trace::SuiteConfig suite;
        suite.cacheBytes = h.spec.levels.back().capacityBytes;
        suite.accessesPerWorkload = kHierAccesses;
        suite.seed = seed * 131 + m;
        for (auto& w : trace::specLikeSuite(suite)) {
            if (w.trace.size() > kHierAccesses)
                w.trace.resize(kHierAccesses);
            h.names.push_back(w.name);
            h.refs.push_back(trace::withWrites(
                w.trace, kWriteFraction, suite.seed + h.refs.size()));
        }
        in.machines.push_back(std::move(h));
    }
    return in;
}

/** Per-cell counts, [row][column]; OPT is the last row. */
using Grid = std::vector<std::vector<uint64_t>>;

/** Copies a sweep's cells into @p misses and @p accesses by label. */
void
readGrid(const eval::SweepResult& sweep, Grid& misses, Grid& accesses)
{
    auto indexOf = [](const std::vector<std::string>& labels,
                      const std::string& label) {
        return static_cast<std::size_t>(
            std::find(labels.begin(), labels.end(), label) -
            labels.begin());
    };
    for (const auto& cell : sweep.cells) {
        const std::size_t r = indexOf(sweep.rowLabels, cell.rowLabel);
        const std::size_t c = indexOf(sweep.columnLabels, cell.columnLabel);
        misses.at(r).at(c) = cell.misses;
        accesses.at(r).at(c) = cell.accesses;
    }
}

/**
 * The seed policyWorkloadSweep gives cell (row, col): jobs run
 * row-major and job i draws deriveTaskSeed(seed, i). Only the
 * randomized catalog policies depend on it.
 */
uint64_t
cellSeed(uint64_t seed, std::size_t row, std::size_t col,
         std::size_t cols)
{
    return deriveTaskSeed(seed, row * cols + col);
}

bool
sameStats(const cache::LevelStats& a, const cache::LevelStats& b)
{
    return a.accesses == b.accesses && a.hits == b.hits &&
           a.misses == b.misses && a.evictions == b.evictions &&
           a.writes == b.writes && a.writebacks == b.writebacks &&
           a.backInvalidations == b.backInvalidations;
}

bool
sameHierarchy(const eval::HierarchyResult& a,
              const eval::HierarchyResult& b)
{
    if (a.accesses != b.accesses || a.totalCycles != b.totalCycles ||
        a.servedBy != b.servedBy || a.levels.size() != b.levels.size())
        return false;
    for (std::size_t i = 0; i < a.levels.size(); ++i)
        if (!sameStats(a.levels[i], b.levels[i]))
            return false;
    return true;
}

std::string
hierRecord(const eval::HierarchyResult& r)
{
    std::ostringstream s;
    s << "cycles=" << r.totalCycles;
    for (const auto& level : r.levels)
        s << '|' << level.misses << '/' << level.writebacks;
    return s.str();
}

} // namespace

PassResult
runPolicySweep(const PassConfig& cfg)
{
    PassResult out;
    Tracer& tracer = *cfg.tracer;

    Inputs in;
    const double setup = medianSetupSeconds(3, [&] {
        in = makeInputs(cfg.seed);
    });
    if (cfg.trace) { // time generation once more, as its own layer
        ScopedSpan span(tracer, "trace.gen");
        in = makeInputs(cfg.seed);
    }

    eval::SweepOptions sweepOpts;
    sweepOpts.seed = cfg.seed;
    sweepOpts.numThreads = cfg.threads;
    sweepOpts.includeOpt = true;
    const std::size_t rows = in.specs.size() + 1; // + OPT
    const std::size_t cols = in.grid.size();

    Grid misses(rows, std::vector<uint64_t>(cols, 0));
    Grid accesses = misses;
    uint64_t compileCalls = 0;
    uint64_t compileOk = 0;
    uint64_t compiledLanes = 0;
    uint64_t lanes = 0;

    const double gridStart = nowSeconds();
    if (!cfg.trace) {
        readGrid(eval::policyWorkloadSweep(kGridGeometry, in.specs,
                                           in.grid, sweepOpts),
                 misses, accesses);
    } else {
        {
            ScopedSpan span(tracer, "policy.compile", "grid");
            for (const auto& spec : in.specs) {
                ++compileCalls;
                if (policy::compiledTableFor(spec, kGridGeometry.ways))
                    ++compileOk;
            }
        }
        eval::MultiPolicyOptions mo;
        mo.numThreads = cfg.threads;
        for (std::size_t c = 0; c < cols; ++c) {
            mo.laneSeeds.clear();
            for (std::size_t r = 0; r + 1 < rows; ++r)
                mo.laneSeeds.push_back(cellSeed(cfg.seed, r, c, cols));
            {
                ScopedSpan span(tracer, "eval.kernel", in.grid[c].name);
                const auto res = eval::simulateMultiPolicy(
                    kGridGeometry, in.specs, in.grid[c].trace, mo);
                for (std::size_t r = 0; r < res.size(); ++r) {
                    misses[r][c] = res[r].stats.misses;
                    accesses[r][c] = res[r].stats.accesses;
                    compiledLanes += res[r].compiled ? 1 : 0;
                    ++lanes;
                }
            }
            ScopedSpan span(tracer, "eval.opt", in.grid[c].name);
            const auto opt =
                eval::simulateOpt(kGridGeometry, in.grid[c].trace);
            misses[rows - 1][c] = opt.misses;
            accesses[rows - 1][c] = opt.accesses;
        }
    }
    const double gridS = nowSeconds() - gridStart;

    uint64_t gridAccesses = 0;
    uint64_t policyAccesses = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            gridAccesses += accesses[r][c];
            if (r + 1 < rows)
                policyAccesses += accesses[r][c];
            const std::string row = r + 1 < rows ? in.specs[r] : "OPT";
            out.counts["grid." + row + "." + in.grid[c].name] =
                std::to_string(misses[r][c]);
        }
    }

    // Hierarchies: one evaluateHierarchy per (machine, workload).
    eval::HierarchyOptions hopts;
    hopts.seed = cfg.seed;
    uint64_t hierRefs = 0;
    uint64_t writebacks = 0;
    uint64_t fullyCompiled = 0;
    double hierS = 0.0;
    double slowestCall = gridS;
    std::vector<std::vector<eval::HierarchyResult>> hier;
    for (const HierInput& h : in.machines) {
        if (cfg.trace) {
            ScopedSpan span(tracer, "policy.compile", h.spec.name);
            fullyCompiled +=
                hier::Hierarchy(h.spec, hopts.seed).fullyCompiled();
        }
        hier.emplace_back();
        for (std::size_t w = 0; w < h.refs.size(); ++w) {
            const double t0 = nowSeconds();
            {
                ScopedSpan span(tracer, "hier.walk",
                                h.spec.name + "/" + h.names[w]);
                hier.back().push_back(
                    eval::evaluateHierarchy(h.spec, h.refs[w], hopts));
            }
            const double dt = nowSeconds() - t0;
            hierS += dt;
            slowestCall = std::max(slowestCall, dt);
            const auto& res = hier.back().back();
            hierRefs += res.accesses;
            for (const auto& level : res.levels)
                writebacks += level.writebacks;
            out.counts["hier." + h.spec.name + "." + h.names[w]] =
                hierRecord(res);
        }
    }

    if (cfg.trace) {
        // Tracing overhead: the traced stages against the same library
        // calls untraced in this now-warm process, which must also
        // reproduce every cell and hierarchy result.
        const double t0 = nowSeconds();
        Grid warmMisses(rows, std::vector<uint64_t>(cols, 0));
        Grid warmAccesses = warmMisses;
        readGrid(eval::policyWorkloadSweep(kGridGeometry, in.specs,
                                           in.grid, sweepOpts),
                 warmMisses, warmAccesses);
        bool agrees = warmMisses == misses && warmAccesses == accesses;
        for (std::size_t m = 0; m < in.machines.size(); ++m)
            for (std::size_t w = 0; w < in.machines[m].refs.size(); ++w)
                agrees &= sameHierarchy(
                    eval::evaluateHierarchy(in.machines[m].spec,
                                            in.machines[m].refs[w], hopts),
                    hier[m][w]);
        const double warmS = nowSeconds() - t0;
        out.tally.record(agrees ? OpResult::kOk : OpResult::kWrong,
                         "traced stages disagree with the library calls");
        const auto self = selfTimeByName(tracer.spans());
        double stagesS = 0.0;
        for (const char* stage : {"eval.kernel", "eval.opt", "hier.walk"})
            if (self.count(stage))
                stagesS += self.at(stage);
        out.layers["trace.overhead_s"] = stagesS - warmS;
    }

    // Correctness: every cell and run is an operation; a seeded
    // sample of them is re-simulated on the interpreted reference.
    Rng rng(cfg.seed ^ 0x5eed);
    std::vector<char> checkedCell(rows * cols, 0);
    for (unsigned k = 0; k < kGridChecks; ++k) {
        const std::size_t r = rng.nextBelow(rows - 1);
        const std::size_t c = rng.nextBelow(cols);
        if (checkedCell[r * cols + c])
            continue;
        checkedCell[r * cols + c] = 1;
        cache::Cache ref(kGridGeometry, in.specs[r], "reference",
                         cellSeed(cfg.seed, r, c, cols));
        eval::simulateOn(ref, in.grid[c].trace);
        const bool ok = ref.stats().misses == misses[r][c] &&
                        ref.stats().accesses == accesses[r][c];
        out.tally.record(ok ? OpResult::kOk : OpResult::kWrong,
                         "grid " + in.specs[r] + " x " +
                             in.grid[c].name);
    }
    for (std::size_t i = 0; i < rows * cols; ++i)
        if (!checkedCell[i])
            out.tally.record(OpResult::kOk);

    eval::HierarchyOptions refOpts = hopts;
    refOpts.forceInterpreted = true;
    std::vector<std::vector<char>> checkedRun;
    for (const auto& m : hier)
        checkedRun.emplace_back(m.size(), 0);
    for (unsigned k = 0; k < kHierChecks; ++k) {
        const std::size_t m = rng.nextBelow(hier.size());
        const std::size_t w = rng.nextBelow(hier[m].size());
        if (checkedRun[m][w])
            continue;
        checkedRun[m][w] = 1;
        const auto ref = eval::evaluateHierarchy(
            in.machines[m].spec, in.machines[m].refs[w], refOpts);
        out.tally.record(sameHierarchy(ref, hier[m][w])
                             ? OpResult::kOk : OpResult::kWrong,
                         "hierarchy " + in.machines[m].spec.name +
                             " x " + in.machines[m].names[w]);
    }
    for (const auto& m : checkedRun)
        for (char checked : m)
            if (!checked)
                out.tally.record(OpResult::kOk);

    const Tally& t = out.tally;
    const double resultS = gridS + hierS;
    const double sim = static_cast<double>(gridAccesses + hierRefs);
    out.endToEnd = {
        {"setup_s", setup},
        {"peak_rss_mb", peakRssMb()},
        {"ok_ratio", static_cast<double>(t.ok()) /
                         static_cast<double>(t.attempted)},
        {"decided_ratio", t.decidedRatio()},
        {"result_s", resultS},
        {"tail_s", slowestCall},
        {"sim_accesses", sim},
        {"rate_per_s", sim / resultS},
    };
    out.detail["grid_s"] = gridS;
    out.detail["hier_s"] = hierS;
    out.detail["grid_accesses_per_s"] =
        static_cast<double>(gridAccesses) / gridS;
    out.detail["hier_refs_per_s"] = static_cast<double>(hierRefs) / hierS;

    if (cfg.trace) {
        const auto self = selfTimeByName(tracer.spans());
        auto selfOf = [&](const char* n) {
            const auto it = self.find(n);
            return it == self.end() ? 0.0 : it->second;
        };
        auto& L = out.layers;
        L["policy.compile_s"] = selfOf("policy.compile");
        L["policy.compile_calls"] = static_cast<double>(compileCalls);
        L["policy.compile_ok_ratio"] = compileCalls
            ? static_cast<double>(compileOk) /
                  static_cast<double>(compileCalls)
            : 0.0;
        L["eval.kernel_s"] = selfOf("eval.kernel");
        L["eval.opt_s"] = selfOf("eval.opt");
        L["eval.policy_accesses"] = static_cast<double>(policyAccesses);
        L["eval.compiled_lane_ratio"] = lanes
            ? static_cast<double>(compiledLanes) /
                  static_cast<double>(lanes)
            : 0.0;
        L["hier.walk_s"] = selfOf("hier.walk");
        L["hier.refs"] = static_cast<double>(hierRefs);
        L["hier.fully_compiled_ratio"] =
            static_cast<double>(fullyCompiled) /
            static_cast<double>(in.machines.size());
        L["hier.writebacks"] = static_cast<double>(writebacks);
        L["trace.gen_s"] = selfOf("trace.gen");
    }
    return out;
}

} // namespace perfbench
