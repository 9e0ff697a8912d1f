/**
 * @file
 * The benchmark's workloads. Each runs one pass in this process and
 * fills a PassResult; the runner script starts a fresh process per
 * pass so the process-wide compiled-table cache never carries work
 * from one pass (or workload) into the next.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "harness.hh"

namespace perfbench
{

struct PassConfig
{
    uint64_t seed = 1;
    bool trace = false;
    unsigned threads = 1; ///< every library thread count, <= nproc
    Tracer* tracer = nullptr;
};

/**
 * One pass. `endToEnd` holds the end-to-end metrics (names from
 * BENCHMARK.json), `layers` the per-layer metrics of a traced pass,
 * `counts` the deterministic results that must repeat exactly for a
 * fixed seed (and match between traced and untraced passes), and
 * `detail` the workload's own named figures for the info line.
 */
struct PassResult
{
    Tally tally;
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> layers;
    std::map<std::string, std::string> counts;
    std::map<std::string, double> detail;
};

PassResult runReverseEngineer(const PassConfig& cfg);
PassResult runLearnUnknown(const PassConfig& cfg);
PassResult runPolicySweep(const PassConfig& cfg);
PassResult runQuerydMix(const PassConfig& cfg);

/**
 * Runs @p make @p reps times, timing each, and returns the median
 * seconds; @p make must leave the state it builds in place (the last
 * repetition's state is the one the pass uses).
 */
double medianSetupSeconds(unsigned reps, const std::function<void()>& make);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH_
