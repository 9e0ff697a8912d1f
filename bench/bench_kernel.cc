/**
 * @file
 * Experiment K1 — Compiled policy automata vs interpreted simulation.
 *
 * For every catalog policy that compiles at the reference geometry,
 * runs the same trace through the interpreted Cache model and the
 * compiled table kernel, checks the statistics agree bit-exactly,
 * and reports single-thread throughput (accesses/second) for both
 * paths plus the speedup. Factored tables (core plus control
 * register) show their states as core x control and count towards
 * the geomean like any compiled row. Policies without a table are
 * listed as fallbacks (the kernel transparently runs them
 * interpreted). Every row also reports the wall-clock time of one
 * compilePolicy() of the spec outside the compiledTableFor() memo —
 * whether it produces a table or gives up. A factored core is
 * memoized inside compilePolicy() itself, so only the first row on
 * each core pays for enumerating it.
 *
 * Writes BENCH_kernel.json. When RECAP_KERNEL_SPEEDUP_FLOOR is set
 * (the CI perf-smoke job sets a conservative floor), exits non-zero
 * if the geometric-mean speedup over compiled policies drops below
 * it — a regression gate for the devirtualized hot loop.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hh"
#include "recap/common/table.hh"
#include "recap/eval/kernel.hh"
#include "recap/hw/catalog.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/trace/generators.hh"

namespace
{

using namespace recap;

const cache::Geometry kGeom = cache::Geometry{64, 64, 8}; // 32 KiB
constexpr uint64_t kAccesses = 200000;
constexpr unsigned kReps = 3;

/** Best-of-kReps wall-clock seconds of one full-trace simulation. */
template <typename Fn>
double
timeBestOf(Fn&& fn)
{
    double best = 1e300;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(fn());
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

struct CompileTiming
{
    double seconds = 0.0;
    uint32_t states = 0;  ///< 0 = no table; core states if factored
    uint32_t control = 0; ///< control states (factored only)
    std::string label = "> budget"; ///< statesOf(), for the table
};

/** States of @p table: "n", or "core x control" when factored. */
std::string
statesOf(const policy::CompiledTable& table)
{
    std::string states = std::to_string(table.numStates());
    if (table.factored())
        states += " x " + std::to_string(table.controlStates());
    return states;
}

/**
 * One fresh compilePolicy() of @p spec at @p ways, outside the
 * compiledTableFor() memo. Timed once: repeating it would only
 * re-measure a warm allocator.
 */
CompileTiming
timeFreshCompile(const std::string& spec, unsigned ways)
{
    const auto proto = policy::makePolicy(spec, ways);
    const auto start = std::chrono::steady_clock::now();
    const auto table = policy::compilePolicy(*proto, {});
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    CompileTiming timing;
    timing.seconds = elapsed.count();
    if (table) {
        timing.states = table->numStates();
        timing.control = table->controlStates();
        timing.label = statesOf(*table);
    }
    return timing;
}

std::string
formatMs(double seconds)
{
    return formatDouble(seconds * 1e3, 1) + " ms";
}

std::string
formatRate(double accPerSec)
{
    return formatDouble(accPerSec / 1e6, 1) + " M/s";
}

int
runComparison()
{
    std::cout << "====================================================\n";
    std::cout << " K1: compiled-table kernel vs interpreted Cache\n";
    std::cout << "     (" << kGeom.describe() << ", "
              << kAccesses << "-access zipf trace, 1 thread)\n";
    std::cout << "====================================================\n\n";

    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);

    TextTable table({"policy", "states", "compile", "interpreted",
                     "compiled", "speedup"});
    benchjson::Writer json(
        "kernel",
        "interpreted vs compiled-automaton simulation throughput");
    json.field("geometry", kGeom.describe());
    json.field("accesses", kAccesses);

    double logSum = 0.0;
    unsigned counted = 0;
    double compileTotal = 0.0;
    bool mismatch = false;

    // The full catalog, modern policies included: at this 8-way
    // geometry the bimodal and dueling automata compile factored,
    // drrip:1,4,3,4 whole; slru exceeds the budget, ship/eaf consume
    // metadata and random is not finite, so those four appear as
    // fallback rows.
    for (const auto& spec : policy::catalogSpecs()) {
        if (!policy::specSupportsWays(spec, kGeom.ways))
            continue;
        const double compileSecs =
            timeFreshCompile(spec, kGeom.ways).seconds;
        compileTotal += compileSecs;
        const std::string compileCell = formatMs(compileSecs);
        const auto compiled =
            policy::compiledTableFor(spec, kGeom.ways, {});

        eval::KernelOptions interpOpts;
        interpOpts.forceInterpreted = true;
        const double interpSecs = timeBestOf([&] {
            return eval::simulateTraceKernel(kGeom, spec, t,
                                             interpOpts)
                .misses;
        });
        const double interpRate = kAccesses / interpSecs;

        if (!compiled) {
            table.addRow({spec, "> budget", compileCell,
                          formatRate(interpRate), "(fallback)", "-"});
            json.row({{"policy", spec},
                      {"mode", std::string("fallback")},
                      {"compile_s", compileSecs},
                      {"interpreted_acc_per_sec", interpRate}});
            continue;
        }

        const double compiledSecs = timeBestOf([&] {
            return eval::simulateCompiled(kGeom, *compiled, t).misses;
        });
        const double compiledRate = kAccesses / compiledSecs;
        const double speedup = compiledRate / interpRate;
        logSum += std::log(speedup);
        ++counted;

        // The whole point is bit-exactness: diff the statistics here
        // too, not only in the unit tests.
        const auto a = eval::simulateTraceKernel(kGeom, spec, t,
                                                 interpOpts);
        const auto b = eval::simulateCompiled(kGeom, *compiled, t);
        if (a.hits != b.hits || a.misses != b.misses ||
            a.evictions != b.evictions) {
            std::cerr << "MISMATCH: " << spec
                      << " interpreted/compiled stats differ\n";
            mismatch = true;
        }

        table.addRow({spec, statesOf(*compiled), compileCell,
                      formatRate(interpRate), formatRate(compiledRate),
                      formatDouble(speedup, 2) + "x"});
        json.row({{"policy", spec},
                  {"mode", std::string(compiled->factored()
                                           ? "factored"
                                           : "compiled")},
                  {"states", uint64_t{compiled->numStates()}},
                  {"control_states",
                   uint64_t{compiled->controlStates()}},
                  {"compile_s", compileSecs},
                  {"interpreted_acc_per_sec", interpRate},
                  {"compiled_acc_per_sec", compiledRate},
                  {"speedup", speedup}});
    }

    const double geomean =
        counted ? std::exp(logSum / counted) : 0.0;
    table.print(std::cout);
    std::cout << "\nGeomean speedup over compiled policies: "
              << formatDouble(geomean, 2) << "x\n";
    std::cout << "Compile time, all rows: "
              << formatDouble(compileTotal, 2) << " s\n\n";
    json.field("geomean_speedup", geomean);
    json.field("compile_s", compileTotal);

    // The wider automata the Intel hierarchies compile per level
    // (each distinct (spec, ways) once, duel constituents included).
    TextTable hierTable({"hierarchy policy", "ways", "states",
                         "compile"});
    std::set<std::pair<std::string, unsigned>> seen;
    double hierTotal = 0.0;
    for (const auto& machine : hw::intelCatalog()) {
        for (const auto& level : machine.levels) {
            for (const auto& spec :
                 {level.policySpec, level.policySpecB}) {
                if (spec.empty() ||
                    !seen.emplace(spec, level.ways).second)
                    continue;
                const CompileTiming c =
                    timeFreshCompile(spec, level.ways);
                hierTotal += c.seconds;
                hierTable.addRow({spec, std::to_string(level.ways),
                                  c.label, formatMs(c.seconds)});
                json.row({{"policy", spec},
                          {"mode", std::string("hierarchy")},
                          {"ways", uint64_t{level.ways}},
                          {"states", uint64_t{c.states}},
                          {"control_states", uint64_t{c.control}},
                          {"compile_s", c.seconds}});
            }
        }
    }
    hierTable.print(std::cout);
    std::cout << "\nCompile time, hierarchy policies: "
              << formatDouble(hierTotal, 2) << " s\n";
    json.field("hier_compile_s", hierTotal);
    const std::string path = json.write();
    if (!path.empty())
        std::cout << "Wrote " << path << "\n";
    std::cout << "\n";

    if (mismatch)
        return 1;
    if (const char* env =
            std::getenv("RECAP_KERNEL_SPEEDUP_FLOOR")) {
        const double floor = std::strtod(env, nullptr);
        if (geomean < floor) {
            std::cerr << "FAIL: geomean speedup "
                      << formatDouble(geomean, 2)
                      << "x below the configured floor of "
                      << formatDouble(floor, 2) << "x\n";
            return 1;
        }
        std::cout << "Speedup floor of " << formatDouble(floor, 2)
                  << "x satisfied.\n\n";
    }
    return 0;
}

void
BM_KernelCompiled(benchmark::State& state)
{
    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);
    const auto table = policy::compiledTableFor("plru", kGeom.ways, {});
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            eval::simulateCompiled(kGeom, *table, t).misses);
        (void)unused;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_KernelCompiled)->Unit(benchmark::kMillisecond);

void
BM_KernelInterpreted(benchmark::State& state)
{
    const auto t = trace::zipf(128 * 1024, kAccesses, 0.9, 1);
    eval::KernelOptions opts;
    opts.forceInterpreted = true;
    for (auto unused : state) {
        benchmark::DoNotOptimize(
            eval::simulateTraceKernel(kGeom, "plru", t, opts).misses);
        (void)unused;
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * t.size()));
}
BENCHMARK(BM_KernelInterpreted)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    const int status = runComparison();
    if (status != 0)
        return status;
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
