/**
 * @file
 * perfbench_pass: runs ONE pass of one workload in this process and
 * prints its result as one JSON line. perfbench/run.py starts a fresh
 * perfbench_pass process per pass and aggregates the passes.
 *
 *   perfbench_pass --workload NAME --seed N [--trace 0|1]
 *                  [--spans PATH]
 *
 * Exit status: 0 when every correctness check passed, 1 when one
 * failed (the line is still printed), 2 on a usage error.
 */

#include <algorithm>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hh"
#include "workloads.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

double
medianSetupSeconds(unsigned reps, const std::function<void()>& make)
{
    std::vector<double> times;
    for (unsigned i = 0; i < reps; ++i) {
        const double t0 = nowSeconds();
        make();
        times.push_back(nowSeconds() - t0);
    }
    return median(times);
}

namespace
{

std::string
mapJson(const std::map<std::string, double>& m)
{
    JsonObject o;
    for (const auto& [k, v] : m)
        o.num(k, v);
    return o.text();
}

std::string
mapJson(const std::map<std::string, std::string>& m)
{
    JsonObject o;
    for (const auto& [k, v] : m)
        o.str(k, v);
    return o.text();
}

int
usage(const std::string& why)
{
    std::cerr << "perfbench_pass: " << why
              << "\nusage: perfbench_pass --workload "
                 "reverse-engineer|learn-unknown|policy-sweep|queryd-mix"
                 " --seed N [--trace 0|1] [--spans PATH]\n";
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    std::string workload;
    std::string spansPath;
    PassConfig cfg;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                workload = value;
            else if (arg == "--seed")
                cfg.seed = std::stoull(value), haveSeed = true;
            else if (arg == "--trace")
                cfg.trace = std::stoi(value) != 0;
            else if (arg == "--spans")
                spansPath = value;
            else
                return usage("unknown option " + arg);
        } catch (const std::exception&) {
            return usage("bad value '" + value + "' for " + arg);
        }
    }
    if (!haveSeed)
        return usage("--seed is required");

    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    // Every library thread count is pinned: at most four, never more
    // than the host has.
    cfg.threads = std::min(4u, nproc);
    Tracer tracer(cfg.trace);
    cfg.tracer = &tracer;

    PassResult res;
    try {
        if (workload == "reverse-engineer")
            res = runReverseEngineer(cfg);
        else if (workload == "learn-unknown")
            res = runLearnUnknown(cfg);
        else if (workload == "policy-sweep")
            res = runPolicySweep(cfg);
        else if (workload == "queryd-mix")
            res = runQuerydMix(cfg);
        else
            return usage("unknown workload '" + workload + "'");
    } catch (const std::exception& e) {
        std::cerr << "perfbench_pass: " << workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
    if (cfg.trace && !spansPath.empty())
        tracer.writeJson(spansPath);

    for (const auto& p : res.tally.firstProblems)
        std::cerr << "check failed: " << p << "\n";

    JsonObject env;
    env.integer("nproc", nproc)
        .integer("threads", cfg.threads)
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE);
    JsonObject line;
    line.boolean("correct", res.tally.correct())
        .integer("attempted", res.tally.attempted)
        .integer("failed", res.tally.failed())
        .raw("end_to_end", mapJson(res.endToEnd))
        .raw("layers", mapJson(res.layers))
        .raw("counts", mapJson(res.counts))
        .raw("detail", mapJson(res.detail))
        .raw("env", env.text());
    std::cout << line.text() << std::endl;
    return res.tally.correct() ? 0 : 1;
}
