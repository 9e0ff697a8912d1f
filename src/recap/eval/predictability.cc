#include "recap/eval/predictability.hh"

#include <deque>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"

namespace recap::eval
{

namespace
{

using policy::BlockId;
using policy::PolicyPtr;
using policy::SetModel;

/** Key of a full-set game state with the target marked. */
std::string
gameKey(const SetModel& m, BlockId target)
{
    std::map<BlockId, char> names;
    std::string key;
    for (unsigned w = 0; w < m.ways(); ++w) {
        if (!m.isValid(w)) {
            key.push_back('.');
            continue;
        }
        const BlockId b = m.blockAt(w);
        if (b == target) {
            key.push_back('T');
            continue;
        }
        auto [it, ignored] = names.emplace(
            b, static_cast<char>('a' + names.size()));
        (void)ignored;
        key.push_back(it->second);
    }
    key.push_back('/');
    key += m.policy().stateKey();
    return key;
}

/** Compile @p proto under the exploration budget of @p cfg; nullptr
 *  unless the table is monolithic (the metrics walk its state set). */
policy::CompiledTablePtr
compileForMetric(const policy::ReplacementPolicy& proto,
                 const PredictabilityConfig& cfg)
{
    policy::CompileBudget budget;
    budget.maxStates = cfg.maxStates;
    auto table = policy::compilePolicy(proto, budget);
    return table && !table->factored() ? table : nullptr;
}

/**
 * missTurnover over the compiled automaton: the same BFS and the
 * same turnover simulation, but states are table indices and the
 * cycle-detection signature packs (state, originals) into one
 * integer instead of concatenating strings. Requires k <= 32 so the
 * originals mask fits next to the 32-bit state index.
 */
MetricResult
missTurnoverCompiled(const policy::CompiledTable& table,
                     const PredictabilityConfig& cfg)
{
    const unsigned k = table.ways();
    MetricResult result;

    // Canonical fill to a full set from the reset state (index 0).
    uint32_t initial = 0;
    for (unsigned w = 0; w < k; ++w)
        initial = table.fillNext(initial, w);

    std::vector<bool> visited(table.numStates(), false);
    std::deque<uint32_t> frontier;
    visited[initial] = true;
    frontier.push_back(initial);

    uint64_t worst = 0;
    std::unordered_set<uint64_t> seen;

    while (!frontier.empty()) {
        const uint32_t state = frontier.front();
        frontier.pop_front();
        ++result.statesExplored;
        if (result.statesExplored > cfg.maxStates) {
            result.exhaustedBudget = true;
            return result;
        }

        // Turnover from this state: consecutive misses until every
        // currently resident way has been refilled at least once.
        {
            uint32_t sim = state;
            uint64_t originals = (uint64_t{1} << k) - 1;
            uint64_t count = 0;
            seen.clear();
            while (originals != 0) {
                const uint64_t sig =
                    (uint64_t{sim} << 32) | originals;
                if (!seen.insert(sig).second) {
                    result.unbounded = true;
                    return result;
                }
                const unsigned v = table.victim(sim);
                sim = table.fillNext(sim, v);
                originals &= ~(uint64_t{1} << v);
                ++count;
            }
            worst = std::max(worst, count);
        }

        // Successors: touch(w) for each way, plus one filled miss.
        for (unsigned w = 0; w < k; ++w) {
            const uint32_t next = table.touchNext(state, w);
            if (!visited[next]) {
                visited[next] = true;
                frontier.push_back(next);
            }
        }
        {
            const uint32_t next =
                table.fillNext(state, table.victim(state));
            if (!visited[next]) {
                visited[next] = true;
                frontier.push_back(next);
            }
        }
    }

    result.value = worst;
    return result;
}

} // namespace

std::string
MetricResult::render() const
{
    if (unbounded)
        return "unbounded";
    if (exhaustedBudget)
        return ">budget";
    ensure(value.has_value(), "MetricResult: no value computed");
    return std::to_string(*value);
}

MetricResult
missTurnover(const policy::ReplacementPolicy& proto,
             const PredictabilityConfig& cfg)
{
    const unsigned k = proto.ways();

    // Fast path: walk the compiled automaton with integer states.
    // Interning by stateKey makes the traversal isomorphic to the
    // string-keyed one below, so both paths return identical results;
    // when compilation exceeds the budget, fall through.
    if (k <= 32) {
        if (const auto table = compileForMetric(proto, cfg))
            return missTurnoverCompiled(*table, cfg);
    }

    MetricResult result;

    // Enumerate reachable policy states (on a full set, the contents
    // are irrelevant up to renaming, so the policy automaton alone
    // suffices: inputs are touch(w) and miss).
    std::unordered_set<std::string> visited;
    std::deque<PolicyPtr> frontier;

    PolicyPtr initial = proto.clone();
    initial->reset();
    // Canonical fill to a full set.
    for (unsigned w = 0; w < k; ++w)
        initial->fill(w);
    visited.insert(initial->stateKey());
    frontier.push_back(std::move(initial));

    uint64_t worst = 0;

    while (!frontier.empty()) {
        PolicyPtr state = std::move(frontier.front());
        frontier.pop_front();
        ++result.statesExplored;
        if (result.statesExplored > cfg.maxStates) {
            result.exhaustedBudget = true;
            return result;
        }

        // Turnover from this state: consecutive misses until every
        // currently resident way has been refilled at least once.
        {
            PolicyPtr sim = state->clone();
            uint64_t originals = (k >= 64) ? ~uint64_t{0}
                                           : ((uint64_t{1} << k) - 1);
            uint64_t count = 0;
            std::unordered_set<std::string> seen;
            while (originals != 0) {
                const std::string sig = sim->stateKey() + ":" +
                                        std::to_string(originals);
                if (!seen.insert(sig).second) {
                    result.unbounded = true;
                    return result;
                }
                const policy::Way v = sim->victim();
                sim->fill(v);
                originals &= ~(uint64_t{1} << v);
                ++count;
            }
            worst = std::max(worst, count);
        }

        // Successors.
        for (unsigned w = 0; w <= k; ++w) {
            PolicyPtr next = state->clone();
            if (w < k) {
                next->touch(w);
            } else {
                next->fill(next->victim());
            }
            std::string key = next->stateKey();
            if (visited.insert(std::move(key)).second)
                frontier.push_back(std::move(next));
        }
    }

    result.value = worst;
    return result;
}

namespace
{

MetricResult
evictBoundImpl(const policy::ReplacementPolicy& proto,
               const PredictabilityConfig& cfg)
{
    const unsigned k = proto.ways();
    MetricResult result;
    constexpr BlockId kTarget = 0;

    struct Edge
    {
        uint32_t to;
        uint8_t weight; ///< 1 for a (surviving) miss, 0 for a hit
    };

    std::vector<SetModel> models;
    std::vector<std::vector<Edge>> edges;
    std::unordered_map<std::string, uint32_t> index;
    std::deque<uint32_t> frontier;
    std::vector<uint32_t> roots;

    auto intern = [&](SetModel&& m) -> std::optional<uint32_t> {
        std::string key = gameKey(m, kTarget);
        auto it = index.find(key);
        if (it != index.end())
            return it->second;
        if (models.size() >= cfg.maxStates)
            return std::nullopt;
        const auto id = static_cast<uint32_t>(models.size());
        index.emplace(std::move(key), id);
        models.push_back(std::move(m));
        edges.emplace_back();
        frontier.push_back(id);
        return id;
    };

    // Canonical initial states: flush + sequential fill, with the
    // target placed at every fill position in turn.
    for (unsigned t_pos = 0; t_pos < k; ++t_pos) {
        SetModel m(proto.clone());
        m.flush();
        BlockId other = 1;
        for (unsigned i = 0; i < k; ++i)
            m.access(i == t_pos ? kTarget : other++);
        auto id = intern(std::move(m));
        if (id)
            roots.push_back(*id);
    }

    // Build the reachable game graph.
    while (!frontier.empty()) {
        const uint32_t id = frontier.front();
        frontier.pop_front();
        ++result.statesExplored;

        // Collect the resident blocks first; expanding mutates models.
        std::vector<BlockId> resident;
        BlockId max_block = 0;
        for (unsigned w = 0; w < k; ++w) {
            const BlockId b = models[id].blockAt(w);
            resident.push_back(b);
            max_block = std::max(max_block, b);
        }

        for (BlockId b : resident) {
            if (b == kTarget)
                continue; // the adversary may not touch the target
            SetModel next = models[id];
            next.access(b);
            auto nid = intern(std::move(next));
            if (!nid) {
                result.exhaustedBudget = true;
                return result;
            }
            edges[id].push_back({*nid, 0});
        }
        {
            SetModel next = models[id];
            next.access(max_block + 1);
            if (next.contains(kTarget)) {
                auto nid = intern(std::move(next));
                if (!nid) {
                    result.exhaustedBudget = true;
                    return result;
                }
                edges[id].push_back({*nid, 1});
            }
            // A miss that evicts the target ends the game (value 0
            // contribution), so no edge is recorded.
        }
    }

    // Tarjan SCC (iterative).
    const auto n = static_cast<uint32_t>(models.size());
    std::vector<uint32_t> comp(n, UINT32_MAX), low(n), disc(n);
    std::vector<bool> on_stack(n, false);
    std::vector<uint32_t> stack;
    uint32_t timer = 0, comp_count = 0;

    struct Frame
    {
        uint32_t node;
        size_t edge;
    };
    for (uint32_t start = 0; start < n; ++start) {
        if (comp[start] != UINT32_MAX || disc[start] != 0)
            continue;
        std::vector<Frame> call;
        call.push_back({start, 0});
        disc[start] = low[start] = ++timer;
        stack.push_back(start);
        on_stack[start] = true;
        while (!call.empty()) {
            Frame& f = call.back();
            if (f.edge < edges[f.node].size()) {
                const uint32_t to = edges[f.node][f.edge++].to;
                if (disc[to] == 0) {
                    disc[to] = low[to] = ++timer;
                    stack.push_back(to);
                    on_stack[to] = true;
                    call.push_back({to, 0});
                } else if (on_stack[to]) {
                    low[f.node] = std::min(low[f.node], disc[to]);
                }
            } else {
                if (low[f.node] == disc[f.node]) {
                    while (true) {
                        const uint32_t v = stack.back();
                        stack.pop_back();
                        on_stack[v] = false;
                        comp[v] = comp_count;
                        if (v == f.node)
                            break;
                    }
                    ++comp_count;
                }
                const uint32_t done = f.node;
                call.pop_back();
                if (!call.empty()) {
                    low[call.back().node] =
                        std::min(low[call.back().node], low[done]);
                }
            }
        }
    }

    // A miss edge inside an SCC (including a self loop) lets the
    // adversary survive arbitrarily many misses.
    for (uint32_t v = 0; v < n; ++v) {
        for (const Edge& e : edges[v]) {
            if (e.weight == 1 && comp[v] == comp[e.to]) {
                result.unbounded = true;
                return result;
            }
        }
    }

    // Longest path on the condensation. Tarjan numbers components in
    // reverse topological order (edges go from higher comp id to
    // lower or within), so process components in increasing id.
    std::vector<std::vector<uint32_t>> members(comp_count);
    for (uint32_t v = 0; v < n; ++v)
        members[comp[v]].push_back(v);
    std::vector<uint64_t> comp_value(comp_count, 0);
    for (uint32_t c = 0; c < comp_count; ++c) {
        uint64_t best = 0;
        for (uint32_t v : members[c]) {
            for (const Edge& e : edges[v]) {
                if (comp[e.to] == c)
                    continue;
                best = std::max(best,
                                e.weight + comp_value[comp[e.to]]);
            }
        }
        comp_value[c] = best;
    }

    uint64_t answer = 0;
    for (uint32_t r : roots)
        answer = std::max(answer, comp_value[comp[r]]);
    result.value = answer;
    return result;
}

} // namespace

MetricResult
evictBound(const policy::ReplacementPolicy& proto,
           const PredictabilityConfig& cfg)
{
    // The game graph is keyed by set contents plus the policy's
    // stateKey, which CompiledPolicy forwards verbatim from its
    // table, so wrapping the prototype changes nothing about the
    // exploration — it only makes the inner clone/victim/stateKey
    // calls table lookups instead of per-policy virtual work.
    if (const auto table = compileForMetric(proto, cfg)) {
        const policy::CompiledPolicy fast(table);
        return evictBoundImpl(fast, cfg);
    }
    return evictBoundImpl(proto, cfg);
}

std::vector<PredictabilityRow>
predictabilitySweep(const std::vector<std::string>& specs,
                    const std::vector<unsigned>& waysList,
                    const PredictabilityConfig& cfg)
{
    std::vector<PredictabilityRow> rows;
    for (const auto& spec : specs)
        for (unsigned ways : waysList)
            if (policy::specSupportsWays(spec, ways))
                rows.push_back({spec, ways, {}, {}});

    // Each row explores its own automaton; explorations share nothing
    // and use no RNG, so the grid is identical for any thread count.
    parallelFor(rows.size(), cfg.numThreads, [&](std::size_t i) {
        const auto proto = policy::makePolicy(rows[i].spec,
                                              rows[i].ways);
        rows[i].turnover = missTurnover(*proto, cfg);
        rows[i].evictBound = evictBound(*proto, cfg);
    });
    return rows;
}

} // namespace recap::eval
