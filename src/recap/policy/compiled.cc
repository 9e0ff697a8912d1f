#include "recap/policy/compiled.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/policy/factory.hh"

namespace recap::policy
{

namespace
{

/** Hard cap keeping victim_ entries in 16 bits. */
constexpr unsigned kMaxCompiledWays = 1u << 15;

/** Successor edges (2k per frontier state) expanded per round. */
constexpr std::size_t kRoundEdges = std::size_t{1} << 14;

/** Rounds with fewer edges than this expand inline on the caller:
 * chain-shaped automata ("random") and tiny tables never pay a pool
 * dispatch. At 8 ways this is 64 frontier states. */
constexpr std::size_t kInlineEdges = 1024;

constexpr uint32_t kNoState = UINT32_MAX;

uint32_t
hashKey(const std::string& key)
{
    const uint64_t h = std::hash<std::string>{}(key);
    return static_cast<uint32_t>(h ^ (h >> 32));
}

/**
 * Open-addressing (hash, id) index over an id-ordered key list: the
 * interning table of compilePolicy(). The keys themselves live only
 * in @p keys (the table's own keys_), so interning copies no string.
 * find() only reads, so any number of threads may probe while no
 * insert() runs.
 */
class KeyIndex
{
  public:
    explicit KeyIndex(const std::vector<std::string>& keys)
        : keys_(keys), slots_(kInitialSlots), mask_(kInitialSlots - 1)
    {}

    /** Id of @p key (whose hashKey() is @p hash), or kNoState. */
    uint32_t find(const std::string& key, uint32_t hash) const
    {
        for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
            const Slot& slot = slots_[i];
            if (slot.id == kNoState)
                return kNoState;
            if (slot.hash == hash && keys_[slot.id] == key)
                return slot.id;
        }
    }

    /** Indexes key @p id, which must not be indexed yet. */
    void insert(uint32_t hash, uint32_t id)
    {
        if (2 * (count_ + 1) > slots_.size()) {
            std::vector<Slot> old(slots_.size() * 2);
            old.swap(slots_);
            mask_ = slots_.size() - 1;
            for (const Slot& slot : old)
                if (slot.id != kNoState)
                    place(slot);
        }
        place({hash, id});
        ++count_;
    }

  private:
    struct Slot
    {
        uint32_t hash = 0;
        uint32_t id = kNoState;
    };

    static constexpr std::size_t kInitialSlots = 64;

    void place(const Slot& entry)
    {
        std::size_t i = entry.hash & mask_;
        while (slots_[i].id != kNoState)
            i = (i + 1) & mask_;
        slots_[i] = entry;
    }

    const std::vector<std::string>& keys_;
    std::vector<Slot> slots_;
    std::size_t mask_;
    std::size_t count_ = 0;
};

/** Applies input @p edge of a k-way policy: touch(e) for e < k, else
 * fill(e - k) — the row order of the transition tables. */
void
applyEdge(ReplacementPolicy& policy, unsigned edge, unsigned k)
{
    if (edge < k)
        policy.touch(edge);
    else
        policy.fill(edge - k);
}

} // namespace

CompiledTablePtr
compilePolicy(const ReplacementPolicy& proto,
              const CompileBudget& budget)
{
    const unsigned k = proto.ways();
    if (k == 0 || k > kMaxCompiledWays || budget.maxStates == 0)
        return nullptr;
    // Meta-consuming policies (SHiP, EAF) are not functions of the
    // way-index input alphabet alone — a table compiled from
    // touch/fill transitions would silently diverge from the
    // interpreted automaton the moment a driver publishes metadata.
    if (proto.usesMeta())
        return nullptr;

    // Bytes one state costs across the three tables plus its key.
    // Both terms only grow, so checking after every intern rejects
    // exactly the automata whose full reachable set is over budget.
    const auto tableBytes = [&](uint64_t states, uint64_t keyBytes) {
        return states * (uint64_t{2} * k * sizeof(uint32_t) +
                         sizeof(uint16_t)) +
               keyBytes;
    };

    auto table = std::make_shared<CompiledTable>();
    table->ways_ = k;
    table->policyName_ = proto.name();

    // BFS over stateKey-canonical control states. Two states with
    // equal keys must behave identically (the documented
    // ReplacementPolicy contract), so interning by key yields the
    // exact reachable quotient automaton. Ids are assigned in serial
    // BFS edge order; table->keys_ is the id-ordered intern list.
    std::vector<std::string>& keys = table->keys_;
    KeyIndex index(keys);
    uint64_t keyBytes = 0;
    const auto overBudget = [&] {
        return keys.size() > budget.maxStates ||
               tableBytes(keys.size(), keyBytes) > budget.maxTableBytes;
    };

    // Only the unexpanded frontier holds policy objects.
    std::deque<PolicyPtr> frontier;
    const auto intern = [&](std::string&& key, uint32_t hash,
                            PolicyPtr&& state) {
        const auto id = static_cast<uint32_t>(keys.size());
        keyBytes += key.size();
        keys.push_back(std::move(key));
        index.insert(hash, id);
        frontier.push_back(std::move(state));
        return id;
    };

    {
        PolicyPtr initial = proto.clone();
        initial->reset();
        std::string key = initial->stateKey();
        const uint32_t hash = hashKey(key);
        intern(std::move(key), hash, std::move(initial));
    }
    if (overBudget())
        return nullptr;

    // Two-phase rounds over the next chunk of the frontier. Phase 1
    // (parallel, intern table read-only) derives every successor key
    // and probes for it; phase 2 (serial, in BFS edge order) interns
    // only the probe misses, re-deriving a new state's object from
    // its parent, so ids match a purely serial BFS exactly.
    struct Edge
    {
        std::string key;
        uint32_t hash = 0;
        uint32_t id = kNoState;
    };
    const std::size_t fanout = std::size_t{2} * k;
    const std::size_t roundStates =
        std::max<std::size_t>(1, kRoundEdges / fanout);
    std::vector<PolicyPtr> parents;
    std::vector<Way> victims;
    std::vector<Edge> edges;
    bool victimInRange = true;

    while (!frontier.empty()) {
        const std::size_t m = std::min(roundStates, frontier.size());
        parents.assign(std::make_move_iterator(frontier.begin()),
                       std::make_move_iterator(frontier.begin() + m));
        frontier.erase(frontier.begin(), frontier.begin() + m);
        victims.resize(m);
        edges.resize(m * fanout);

        const auto probe = [&](std::size_t i) {
            const ReplacementPolicy& parent = *parents[i];
            victims[i] = parent.victim();
            for (unsigned e = 0; e < fanout; ++e) {
                PolicyPtr succ = parent.clone();
                applyEdge(*succ, e, k);
                Edge& edge = edges[i * fanout + e];
                edge.key = succ->stateKey();
                edge.hash = hashKey(edge.key);
                edge.id = index.find(edge.key, edge.hash);
            }
        };
        if (m * fanout < kInlineEdges) {
            for (std::size_t i = 0; i < m; ++i)
                probe(i);
        } else {
            // Calls from a pool worker run inline (parallelFor).
            parallelFor(m, 0, probe);
        }

        for (std::size_t i = 0; i < m; ++i) {
            victimInRange = victimInRange && victims[i] < k;
            table->victim_.push_back(static_cast<uint16_t>(victims[i]));
            for (unsigned e = 0; e < fanout; ++e) {
                Edge& edge = edges[i * fanout + e];
                uint32_t id = edge.id;
                if (id == kNoState)
                    id = index.find(edge.key, edge.hash);
                if (id == kNoState) { // first reached in this round
                    PolicyPtr succ = parents[i]->clone();
                    applyEdge(*succ, e, k);
                    id = intern(std::move(edge.key), edge.hash,
                                std::move(succ));
                    if (overBudget())
                        return nullptr;
                }
                (e < k ? table->touchNext_ : table->fillNext_)
                    .push_back(id);
            }
        }
    }

    const auto n = static_cast<uint32_t>(keys.size());
    table->numStates_ = n;
    ensure(victimInRange, "compilePolicy: victim out of range");
    // Every interned state was pushed onto the frontier and expanded
    // exactly once, appending one row per table.
    ensure(table->touchNext_.size() ==
                   static_cast<std::size_t>(n) * k &&
               table->victim_.size() == n,
           "compilePolicy: incomplete transition table");

    // Narrow mirrors for the batch kernels (see CompiledTable::narrow).
    if (n <= (uint64_t{1} << 16)) {
        table->touchNext16_.assign(table->touchNext_.begin(),
                                   table->touchNext_.end());
        table->fillNext16_.assign(table->fillNext_.begin(),
                                  table->fillNext_.end());
    }
    return table;
}

CompiledTableView::CompiledTableView(CompiledTablePtr table)
    : table_(std::move(table))
{
    require(table_ != nullptr,
            "CompiledTableView: table must not be null");
}

uint32_t
CompiledTableView::filledState() const
{
    uint32_t state = 0;
    for (unsigned w = 0; w < ways(); ++w)
        state = table_->fillNext(state, w);
    return state;
}

std::vector<uint32_t>
CompiledTableView::fullSetReachable() const
{
    const unsigned k = ways();
    std::vector<bool> visited(numStates(), false);
    std::vector<uint32_t> order;
    std::deque<uint32_t> frontier;
    const uint32_t start = filledState();
    visited[start] = true;
    frontier.push_back(start);
    while (!frontier.empty()) {
        const uint32_t state = frontier.front();
        frontier.pop_front();
        order.push_back(state);
        const auto push = [&](uint32_t next) {
            if (!visited[next]) {
                visited[next] = true;
                frontier.push_back(next);
            }
        };
        for (unsigned w = 0; w < k; ++w)
            push(table_->touchNext(state, w));
        push(table_->fillNext(state, table_->victim(state)));
    }
    return order;
}

TableLanes::TableLanes(std::vector<CompiledTablePtr> tables)
    : tables_(std::move(tables))
{
    require(!tables_.empty(),
            "TableLanes: need at least one compiled table");
    for (const auto& table : tables_) {
        require(table != nullptr,
                "TableLanes: table must not be null");
        if (ways_ == 0)
            ways_ = table->ways();
        require(table->ways() == ways_,
                "TableLanes: lanes disagree on associativity");
        Lane lane;
        if (table->narrow()) {
            lane.touch16 = table->touchData16();
            lane.fill16 = table->fillData16();
        } else {
            lane.touch32 = table->touchData();
            lane.fill32 = table->fillData();
        }
        lane.victim = table->victimData();
        lane.numStates = table->numStates();
        lanes_.push_back(lane);
    }
}

CompiledTablePtr
compiledTableFor(const std::string& spec, unsigned ways,
                 const CompileBudget& budget)
{
    // Negative results are cached too: an over-budget enumeration is
    // the expensive case, and sweeps ask for the same (spec, ways)
    // once per grid cell.
    struct CacheEntry
    {
        bool attempted = false;
        CompiledTablePtr table;
    };
    static std::mutex mutex;
    static std::unordered_map<std::string, CacheEntry> cache;

    const std::string key = spec + "|" + std::to_string(ways) + "|" +
                            std::to_string(budget.maxStates) + "|" +
                            std::to_string(budget.maxTableBytes);
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end() && it->second.attempted)
            return it->second.table;
    }

    // Compile outside the lock (enumerations can take a while and
    // must not serialize unrelated lookups). A racing duplicate
    // compilation is harmless: both produce identical tables and one
    // wins the cache slot. Waiting for the other racer instead would
    // deadlock a pool worker against a compile that is itself waiting
    // for the pool to drain.
    CompiledTablePtr table;
    if (isKnownPolicySpec(spec) && specSupportsWays(spec, ways))
        table = compilePolicy(*makePolicy(spec, ways), budget);

    std::lock_guard<std::mutex> lock(mutex);
    CacheEntry& entry = cache[key];
    if (!entry.attempted) {
        entry.attempted = true;
        entry.table = table;
    }
    return entry.table;
}

CompiledPolicy::CompiledPolicy(CompiledTablePtr table)
    : ReplacementPolicy(table ? table->ways() : 1),
      table_(std::move(table))
{
    require(table_ != nullptr,
            "CompiledPolicy: table must not be null");
}

PolicyPtr
makeCompiledOrFallback(const std::string& spec, unsigned ways,
                       uint64_t seed, const CompileBudget& budget)
{
    if (CompiledTablePtr table = compiledTableFor(spec, ways, budget))
        return std::make_unique<CompiledPolicy>(std::move(table));
    return makePolicy(spec, ways, seed);
}

} // namespace recap::policy
