/**
 * @file
 * The `queryd-mix` workload: open-loop traffic into
 * query::ServerCore::handle. Sessions spread over two PolicyOracle
 * shards and one noise-free MachineOracle shard; the mix is
 * Zipf-hot membership queries sharing prefixes, unique cold queries,
 * `;` batches, a few `:stats`/`:health` commands and malformed lines.
 *
 * Phase 1 offers a fixed rate and reports latency timed from each
 * request's due time. Phase 2 bisects a fixed geometric ladder of
 * rates for the highest one that meets the p99 limit without a
 * growing backlog. Every answer is then checked against a direct
 * evaluation of the same line on a fresh oracle of the same kind.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "recap/common/rng.hh"
#include "recap/hw/catalog.hh"
#include "recap/hw/machine.hh"
#include "recap/infer/geometry_probe.hh"
#include "recap/infer/measurement.hh"
#include "recap/query/chaos.hh"
#include "recap/query/oracle.hh"
#include "recap/query/server.hh"
#include "recap/query/service.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace recap;

constexpr unsigned kWays = 8;
const char* const kPolicyShards[] = {"qlru:H1,M1,R0,U2", "plru"};
constexpr std::size_t kShards = 3;          ///< two policy, one machine
constexpr std::size_t kSessionsPerShard = 16;
constexpr double kMachineShare = 0.1;       ///< of requests, slow ones
constexpr std::size_t kHotQueries = 48;

constexpr double kFixedRate = 2000.0;       ///< offered qps, phase 1
constexpr std::size_t kSegments = 6;        ///< phase 1 repetitions
constexpr std::size_t kSegmentRequests = 1000; ///< p99 has 10 beyond
constexpr std::size_t kFixedRequests = kSegments * kSegmentRequests;
constexpr double kLadderBase = 1000.0;      ///< ladder rung 0, qps
constexpr double kLadderStep = 1.05;        ///< ratio between rungs
constexpr int kLadderRungs = 96;            ///< up to ~100k qps
constexpr double kProbeSeconds = 0.25;      ///< per ladder probe
constexpr double kP99LimitUs = 5000.0;      ///< the latency limit

/** A request line and the session that sends it. */
struct Request
{
    std::size_t session = 0;
    std::string line;
    enum class Kind
    {
        kQuery,
        kCommand,
        kMalformed
    } kind = Kind::kQuery;
};

std::string
blockName(uint64_t i)
{
    return std::string(1, static_cast<char>('a' + i));
}

/** Random membership query body: accesses with some probes. */
std::string
randomItems(Rng& rng, unsigned n)
{
    std::string s;
    for (unsigned i = 0; i < n; ++i) {
        if (!s.empty())
            s += ' ';
        s += blockName(rng.nextBelow(kWays + 4));
        if (rng.nextBool(0.2))
            s += '?';
    }
    return s;
}

/** Seeded generator of the request mix. */
class MixGenerator
{
  public:
    explicit MixGenerator(uint64_t seed)
        : rng_(seed), zipf_(kHotQueries, 1.1)
    {
        // Hot queries share a handful of prefixes, so both the batch
        // evaluator and any cross-request cache have work to share.
        // Shapes are fixed and only contents vary with the seed, so
        // every seed offers the same amount of work.
        std::vector<std::string> prefixes;
        for (unsigned p = 0; p < 6; ++p)
            prefixes.push_back(randomItems(rng_, 8));
        for (unsigned h = 0; h < kHotQueries; ++h)
            hot_.push_back(prefixes[h % prefixes.size()] + " " +
                           randomItems(rng_, 4) + " " +
                           blockName(h % kWays) + "?");
    }

    Request next()
    {
        Request r;
        const std::size_t shard = rng_.nextBool(kMachineShare)
            ? kShards - 1 : rng_.nextBelow(kShards - 1);
        r.session = shard + kShards * rng_.nextBelow(kSessionsPerShard);
        const double u = rng_.nextDouble();
        if (u < 0.70) {
            r.line = hot_[zipf_.sample(rng_)];
        } else if (u < 0.85) {
            r.line = randomItems(rng_, 20) + " " +
                     blockName(rng_.nextBelow(kWays)) + "?";
        } else if (u < 0.96) {
            const std::string prefix = randomItems(rng_, 6);
            for (unsigned q = 0; q < 4; ++q)
                r.line += (q ? " ; " : "") + prefix + " " +
                          randomItems(rng_, 2) + "?";
        } else if (u < 0.98) {
            r.kind = Request::Kind::kCommand;
            r.line = rng_.nextBool(0.5) ? ":stats" : ":health";
        } else {
            static const char* const bad[] = {
                "a b (c d", "a^0 b?", "a ? b", ") a", "a b ; ; c?",
                "a %% b", ":frobnicate"};
            r.kind = Request::Kind::kMalformed;
            r.line = bad[rng_.nextBelow(std::size(bad))];
        }
        return r;
    }

  private:
    Rng rng_;
    query::ZipfSampler zipf_;
    std::vector<std::string> hot_;
};

/**
 * Forwards to a shard's oracle and totals its prefix-sharing batch
 * statistics (used by the traced pass; the server serializes calls
 * per shard, so the totals need no lock of their own).
 */
class CountingOracle : public query::QueryOracle
{
  public:
    explicit CountingOracle(query::QueryOracle& inner) : inner_(inner) {}

    unsigned ways() const override { return inner_.ways(); }
    std::string describe() const override { return inner_.describe(); }

    query::QueryVerdict
    evaluate(const query::CompiledQuery& q) override
    {
        query::QueryVerdict v = inner_.evaluate(q);
        ++totals_.queries;
        totals_.naiveCost += v.accesses;
        totals_.sharedCost += v.accesses;
        return v;
    }

    std::vector<query::QueryVerdict>
    evaluateBatch(const std::vector<query::CompiledQuery>& queries,
                  const query::BatchOptions& opts,
                  query::BatchStats* stats) override
    {
        query::BatchStats local;
        query::BatchStats* target = stats ? stats : &local;
        const query::BatchStats before = *target;
        auto verdicts = inner_.evaluateBatch(queries, opts, target);
        totals_.queries += target->queries - before.queries;
        totals_.naiveCost += target->naiveCost - before.naiveCost;
        totals_.sharedCost += target->sharedCost - before.sharedCost;
        totals_.prefixReuses +=
            target->prefixReuses - before.prefixReuses;
        return verdicts;
    }

    uint64_t experimentsRun() const override
    {
        return inner_.experimentsRun();
    }
    uint64_t accessesIssued() const override
    {
        return inner_.accessesIssued();
    }
    void setCheckpoint(std::function<void()> hook) override
    {
        inner_.setCheckpoint(std::move(hook));
    }

    const query::BatchStats& totals() const { return totals_; }

  private:
    query::QueryOracle& inner_;
    query::BatchStats totals_;
};

/** The machine the measured shard probes (its L2). */
hw::MachineSpec
machineShardSpec()
{
    return hw::reducedSpec(hw::catalogMachine("core2-e6300"), 64);
}

/** One MachineOracle shard with the machine it measures. */
struct MachineShard
{
    hw::Machine machine;
    infer::MeasurementContext ctx;
    query::MachineOracle oracle;

    explicit MachineShard(const hw::MachineSpec& spec)
        : machine(spec), ctx(machine),
          oracle(ctx, infer::assumedGeometry(spec), 1)
    {}
    MachineShard(const MachineShard&) = delete;
    MachineShard& operator=(const MachineShard&) = delete;
};

/** The service under test plus everything it owns. */
struct Service
{
    std::vector<std::unique_ptr<query::PolicyOracle>> policies;
    std::unique_ptr<MachineShard> measured;
    std::vector<std::unique_ptr<CountingOracle>> counting;
    std::unique_ptr<query::ServerCore> core;

    Service(uint64_t seed, bool counted)
    {
        for (const char* spec : kPolicyShards)
            policies.push_back(
                std::make_unique<query::PolicyOracle>(spec, kWays));
        measured = std::make_unique<MachineShard>(machineShardSpec());
        std::vector<query::QueryOracle*> shards;
        for (auto& p : policies)
            shards.push_back(p.get());
        shards.push_back(&measured->oracle);
        if (counted) {
            for (auto*& shard : shards) {
                counting.push_back(
                    std::make_unique<CountingOracle>(*shard));
                shard = counting.back().get();
            }
        }
        query::ServiceConfig sc;
        sc.maxSessions = kShards * kSessionsPerShard;
        sc.maxConcurrent = 1; // runOpenLoop sends from one thread
        sc.maxQueue = 4;
        sc.seed = seed;
        core = std::make_unique<query::ServerCore>(shards, sc);
    }

    uint64_t accessesIssued() const
    {
        uint64_t total = measured->oracle.accessesIssued();
        for (const auto& p : policies)
            total += p->accessesIssued();
        return total;
    }
};

/** A recorded response: its outcome and a hash of its text. */
struct Reply
{
    query::Outcome outcome = query::Outcome::kSilent;
    std::size_t hash = 0;
    bool okPrefix = false; ///< starts with {"ok":true,
};

/** Runs @p requests open-loop at @p rate, recording every reply. */
OpenLoopResult
offer(Service& svc, const std::vector<Request>& requests,
      std::size_t first, std::size_t count, double rate,
      std::vector<Reply>& replies)
{
    SteadyClock clock;
    OpenLoopConfig cfg;
    cfg.rate = rate;
    cfg.count = count;
    replies.assign(count, Reply{});
    return runOpenLoop(cfg, clock, [&](std::size_t i) {
        const Request& r = requests[(first + i) % requests.size()];
        const auto resp = svc.core->handle(r.session, r.line);
        replies[i] = {resp.outcome, std::hash<std::string>{}(resp.json),
                      resp.json.rfind("{\"ok\":true,", 0) == 0};
    });
}

/**
 * Checks replies against direct evaluation of the same line on a
 * fresh oracle of the shard's kind (memoized per shard and line).
 */
class AnswerChecker
{
  public:
    AnswerChecker()
    {
        for (const char* spec : kPolicyShards)
            policies_.push_back(
                std::make_unique<query::PolicyOracle>(spec, kWays));
        measured_ = std::make_unique<MachineShard>(machineShardSpec());
    }

    void check(const Request& r, const Reply& reply, Tally& tally)
    {
        const std::string what = "'" + r.line + "'";
        switch (reply.outcome) {
        case query::Outcome::kShed:
            tally.record(OpResult::kShed, what);
            return;
        case query::Outcome::kAborted:
            tally.record(OpResult::kAborted, what);
            return;
        case query::Outcome::kSilent:
            tally.record(OpResult::kSilent, what);
            return;
        case query::Outcome::kDegraded:
            tally.record(OpResult::kDegraded, what);
            return;
        case query::Outcome::kAnswered:
            break;
        }
        if (r.kind == Request::Kind::kCommand) {
            // Counters and health move with time; check the shape.
            tally.record(reply.okPrefix ? OpResult::kOk : OpResult::kWrong,
                         what);
            return;
        }
        const std::size_t shard = r.session % kShards;
        auto& memo = expected_[shard];
        auto it = memo.find(r.line);
        if (it == memo.end()) {
            query::QueryOracle& oracle = shard + 1 < kShards
                ? static_cast<query::QueryOracle&>(*policies_[shard])
                : measured_->oracle;
            it = memo.emplace(r.line,
                              query::respondLine(r.line, oracle)).first;
        }
        tally.record(std::hash<std::string>{}(it->second) == reply.hash
                         ? OpResult::kOk : OpResult::kWrong,
                     what + " expected " + it->second.substr(0, 120));
    }

  private:
    std::vector<std::unique_ptr<query::PolicyOracle>> policies_;
    std::unique_ptr<MachineShard> measured_;
    std::map<std::string, std::string> expected_[kShards];
};

double
ladderRate(int rung)
{
    double r = kLadderBase;
    for (int i = 0; i < rung; ++i)
        r *= kLadderStep;
    return r;
}

} // namespace

PassResult
runQuerydMix(const PassConfig& cfg)
{
    PassResult out;

    std::unique_ptr<Service> svc;
    std::vector<Request> requests;
    const double setup = medianSetupSeconds(3, [&] {
        svc = std::make_unique<Service>(cfg.seed, cfg.trace);
        MixGenerator gen(cfg.seed);
        requests.clear();
        for (std::size_t i = 0; i < kFixedRequests; ++i)
            requests.push_back(gen.next());
    });

    // The policy shards compile their tables on first use; do it
    // before the clock starts so the fixed-rate phase measures
    // serving, not one compile stall and its backlog.
    Tracer& tracer = *cfg.tracer;
    uint64_t compiled = 0;
    {
        ScopedSpan span(tracer, "policy.compile", "shards");
        for (auto& p : svc->policies)
            compiled += p->compiledTable() ? 1 : 0;
    }

    // Two measurements, interleaved so that both span the whole pass
    // and a slow stretch of the host lands on some of each:
    //  - the fixed offered rate, in segments; each segment's
    //    percentiles are taken on its own and the median segment is
    //    reported, so one host stall cannot own the tail;
    //  - a bisection of the rate ladder (rungs at or below `lo`
    //    passed, at or above `hi` failed). A rung fails only when two
    //    probes in a row miss the limit, so one stall does not halve
    //    the search range.
    std::vector<Reply> fixedReplies;
    OpenLoopResult fixed;
    std::vector<double> segP50;
    std::vector<double> segTail;
    const double tailP = tailPercentile(kSegmentRequests).value_or(50.0);
    uint64_t fixedAccesses = 0;
    auto segment = [&](std::size_t seg) {
        std::vector<Reply> replies;
        const uint64_t before = svc->accessesIssued();
        const OpenLoopResult r =
            offer(*svc, requests, seg * kSegmentRequests,
                  kSegmentRequests, kFixedRate, replies);
        fixedAccesses += svc->accessesIssued() - before;
        segP50.push_back(percentile(r.latencyUs, 50.0));
        segTail.push_back(percentile(r.latencyUs, tailP));
        auto append = [](auto& to, const auto& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(fixedReplies, replies);
        append(fixed.latencyUs, r.latencyUs);
        append(fixed.serviceUs, r.serviceUs);
        append(fixed.waitUs, r.waitUs);
        fixed.wallS += r.wallS;
    };

    int lo = -1;
    int hi = kLadderRungs;
    double bestAchieved = 0.0;
    std::vector<std::pair<std::size_t, std::vector<Reply>>> ladderReplies;
    std::size_t cursor = kFixedRequests;
    auto probe = [&](double rate) {
        const auto count = static_cast<std::size_t>(rate * kProbeSeconds);
        std::vector<Reply> replies;
        const OpenLoopResult r =
            offer(*svc, requests, cursor, count, rate, replies);
        ladderReplies.emplace_back(cursor, std::move(replies));
        cursor += count;
        const bool pass =
            percentile(r.latencyUs, tailPercentile(count).value_or(50.0)) <=
                kP99LimitUs &&
            r.finalLatenessUs() <= kP99LimitUs;
        return pass ? static_cast<double>(count) / r.wallS : 0.0;
    };

    for (std::size_t seg = 0; seg < kSegments || hi - lo > 1; ++seg) {
        if (seg < kSegments)
            segment(seg);
        if (hi - lo <= 1)
            continue;
        const int mid = lo + (hi - lo) / 2;
        double achieved = probe(ladderRate(mid));
        if (achieved == 0.0)
            achieved = probe(ladderRate(mid));
        if (achieved > 0.0) {
            lo = mid;
            bestAchieved = achieved;
        } else {
            hi = mid;
        }
    }

    // Correctness of every reply, fixed phase and ladder alike.
    AnswerChecker checker;
    for (std::size_t i = 0; i < fixedReplies.size(); ++i)
        checker.check(requests[i], fixedReplies[i], out.tally);
    for (const auto& [first, replies] : ladderReplies)
        for (std::size_t i = 0; i < replies.size(); ++i)
            checker.check(requests[(first + i) % requests.size()],
                          replies[i], out.tally);

    const std::size_t n = fixed.latencyUs.size();
    const double p50 = median(segP50);
    const double tail = median(segTail);
    const Tally& t = out.tally;
    out.endToEnd = {
        {"setup_s", setup},
        {"peak_rss_mb", peakRssMb()},
        {"ok_ratio", static_cast<double>(t.ok()) /
                         static_cast<double>(t.attempted)},
        {"decided_ratio", t.decidedRatio()},
        {"result_s", p50 * 1e-6},
        {"tail_s", tail * 1e-6},
        {"sim_accesses", static_cast<double>(fixedAccesses)},
        {"rate_per_s", bestAchieved},
    };
    out.counts["fixed.accesses"] = std::to_string(fixedAccesses);
    out.counts["fixed.requests"] = std::to_string(n);
    out.detail["q_p50_us"] = p50;
    out.detail["q_tail_us"] = tail;
    out.detail["q_tail_percentile"] = tailP;
    out.detail["q_samples"] = static_cast<double>(n);
    out.detail["q_max_qps"] = bestAchieved;
    out.detail["q_max_rung_qps"] = lo >= 0 ? ladderRate(lo) : 0.0;
    out.detail["q_fixed_rate"] = kFixedRate;
    out.detail["q_generator_max_late_us"] = fixed.maxLatenessUs();

    if (cfg.trace) {
        // Per-request spans from the fixed-rate timings, laid on one
        // schedule timeline: the request (due -> done) parents its
        // wait (due -> send) and its service (send -> done).
        for (std::size_t i = 0; i < n; ++i) {
            const std::string id = "req" + std::to_string(i);
            const double due = static_cast<double>(i) / kFixedRate;
            const double sent = due + fixed.waitUs[i] * 1e-6;
            const double done = due + fixed.latencyUs[i] * 1e-6;
            const int parent =
                tracer.record({"query.request", id, -1, due, done});
            tracer.record({"query.wait", id, parent, due, sent});
            tracer.record({"query.service", id, parent, sent, done});
        }
        query::BatchStats batch;
        for (const auto& c : svc->counting) {
            batch.naiveCost += c->totals().naiveCost;
            batch.sharedCost += c->totals().sharedCost;
            batch.prefixReuses += c->totals().prefixReuses;
        }
        const query::ServiceStats s = svc->core->stats();
        auto& L = out.layers;
        L["policy.compile_s"] =
            selfTimeByName(tracer.spans())["policy.compile"];
        L["policy.compile_calls"] =
            static_cast<double>(svc->policies.size());
        L["policy.compile_ok_ratio"] =
            static_cast<double>(compiled) /
            static_cast<double>(svc->policies.size());
        L["query.naive_cost"] = static_cast<double>(batch.naiveCost);
        L["query.shared_cost"] = static_cast<double>(batch.sharedCost);
        L["query.share_saved_ratio"] = batch.naiveCost
            ? 1.0 - static_cast<double>(batch.sharedCost) /
                        static_cast<double>(batch.naiveCost)
            : 0.0;
        L["query.prefix_reuses"] = static_cast<double>(batch.prefixReuses);
        L["query.service_p50_us"] = percentile(fixed.serviceUs, 50.0);
        L["query.service_p99_us"] = percentile(fixed.serviceUs, tailP);
        L["query.wait_p50_us"] = percentile(fixed.waitUs, 50.0);
        L["query.wait_p99_us"] = percentile(fixed.waitUs, tailP);
        L["query.answered"] = static_cast<double>(s.answered);
        L["query.aborted"] = static_cast<double>(s.aborted);
        L["query.shed"] = static_cast<double>(s.shed);
        L["query.degraded"] = static_cast<double>(s.degraded);
        L["query.retries"] = static_cast<double>(s.retries);
        L["query.cached_degraded"] = static_cast<double>(s.cachedDegraded);
    }
    return out;
}

} // namespace perfbench
