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
#include "recap/policy/factored.hh"
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

/** The outcome of one state-space enumeration, in BFS id order. */
struct Explored
{
    std::vector<std::string> keys;
    std::vector<uint32_t> next;   ///< [state][edge] successor id
    std::vector<uint8_t> output;  ///< [state][edge] step output bit
    std::vector<uint32_t> label;  ///< [state] victim (0 if none)
    uint64_t keyBytes = 0;
};

/**
 * Enumerates every state reachable from @p initial (already reset)
 * under the @p fanout inputs step(node, e) applies — the one explorer
 * behind every table compilePolicy() builds. States are interned by
 * stateKey(); two states with equal keys must behave identically (the
 * documented contract of every automaton type here), so interning by
 * key yields the exact reachable quotient automaton. step() returns
 * the input's output bit, label() the state's victim.
 *
 * Rounds are two-phase: phase 1 (parallel, intern table read-only)
 * derives every successor key of the next chunk of the frontier and
 * probes for it; phase 2 (serial, in BFS edge order) interns only
 * the probe misses, re-deriving a new state's object from its parent,
 * so ids match a purely serial BFS exactly. Only the unexpanded
 * frontier holds objects.
 *
 * @return false as soon as the states, or their @p bytesPerState
 *         table bytes plus key bytes, exceed @p budget. Both measures
 *         only grow, so checking after every intern rejects exactly
 *         the automata whose full reachable set is over budget.
 */
template <typename Node, typename Step, typename Label>
bool
explore(std::unique_ptr<Node> initial, unsigned fanout,
        uint64_t bytesPerState, const CompileBudget& budget,
        const Step& step, const Label& label, Explored& out)
{
    std::vector<std::string>& keys = out.keys;
    KeyIndex index(keys);
    const auto overBudget = [&] {
        return keys.size() > budget.maxStates ||
               keys.size() * bytesPerState + out.keyBytes >
                   budget.maxTableBytes;
    };

    std::deque<std::unique_ptr<Node>> frontier;
    const auto intern = [&](std::string&& key, uint32_t hash,
                            std::unique_ptr<Node>&& state) {
        const auto id = static_cast<uint32_t>(keys.size());
        out.keyBytes += key.size();
        keys.push_back(std::move(key));
        index.insert(hash, id);
        frontier.push_back(std::move(state));
        return id;
    };

    {
        std::string key = initial->stateKey();
        const uint32_t hash = hashKey(key);
        intern(std::move(key), hash, std::move(initial));
    }
    if (overBudget())
        return false;

    struct Edge
    {
        std::string key;
        uint32_t hash = 0;
        uint32_t id = kNoState;
        uint8_t output = 0;
    };
    const std::size_t roundStates =
        std::max<std::size_t>(1, kRoundEdges / fanout);
    std::vector<std::unique_ptr<Node>> parents;
    std::vector<uint32_t> labels;
    std::vector<Edge> edges;

    while (!frontier.empty()) {
        const std::size_t m = std::min(roundStates, frontier.size());
        parents.assign(std::make_move_iterator(frontier.begin()),
                       std::make_move_iterator(frontier.begin() + m));
        frontier.erase(frontier.begin(), frontier.begin() + m);
        labels.resize(m);
        edges.resize(m * fanout);

        const auto probe = [&](std::size_t i) {
            const Node& parent = *parents[i];
            labels[i] = label(parent);
            for (unsigned e = 0; e < fanout; ++e) {
                std::unique_ptr<Node> succ = parent.clone();
                Edge& edge = edges[i * fanout + e];
                edge.output = step(*succ, e) ? 1 : 0;
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
            out.label.push_back(labels[i]);
            for (unsigned e = 0; e < fanout; ++e) {
                Edge& edge = edges[i * fanout + e];
                uint32_t id = edge.id;
                if (id == kNoState)
                    id = index.find(edge.key, edge.hash);
                if (id == kNoState) { // first reached in this round
                    std::unique_ptr<Node> succ = parents[i]->clone();
                    step(*succ, e);
                    id = intern(std::move(edge.key), edge.hash,
                                std::move(succ));
                    if (overBudget())
                        return false;
                }
                out.next.push_back(id);
                out.output.push_back(edge.output);
            }
        }
    }
    // Every interned state was pushed onto the frontier and expanded
    // exactly once, appending one row.
    ensure(out.next.size() == keys.size() * fanout &&
               out.label.size() == keys.size(),
           "compilePolicy: incomplete transition table");
    return true;
}

} // namespace

namespace detail
{

/** The state-indexed arrays of a table, shareable between tables. */
struct TableArrays
{
    uint32_t numStates = 0;
    unsigned variants = 1;          ///< fill insertion variants
    std::vector<uint32_t> touchNext; ///< [state][way]
    std::vector<uint32_t> fillNext;  ///< [variant][state][way]
    std::vector<uint16_t> victim;
    std::vector<std::string> keys;
    std::vector<uint16_t> touchNext16; ///< narrow mirrors
    std::vector<uint16_t> fillNext16;
    uint64_t bytes = 0; ///< budgeted bytes: tables plus keys

    /** Splits the [state][touch k | fill k per variant] rows of
     *  @p e into the table layout and checks every victim. */
    TableArrays(Explored&& e, unsigned k, unsigned fillVariants,
                uint64_t bytesPerState)
        : numStates(static_cast<uint32_t>(e.keys.size())),
          variants(fillVariants), keys(std::move(e.keys)),
          bytes(numStates * bytesPerState + e.keyBytes)
    {
        const std::size_t n = numStates;
        const std::size_t fanout = std::size_t{k} * (1 + variants);
        touchNext.resize(n * k);
        fillNext.resize(n * k * variants);
        for (std::size_t s = 0; s < n; ++s) {
            const uint32_t* row = &e.next[s * fanout];
            std::copy(row, row + k, &touchNext[s * k]);
            for (unsigned v = 0; v < variants; ++v)
                std::copy(row + k * (1 + v), row + k * (2 + v),
                          &fillNext[(v * n + s) * k]);
        }
        victim.reserve(n);
        for (const uint32_t v : e.label) {
            ensure(v < k, "compilePolicy: victim out of range");
            victim.push_back(static_cast<uint16_t>(v));
        }
        finish();
    }

    /** Arrays already in table layout (the product enumeration). */
    TableArrays(std::vector<uint32_t>&& touch,
                std::vector<uint32_t>&& fill,
                std::vector<uint16_t>&& victims,
                std::vector<std::string>&& stateKeys, uint64_t budgeted)
        : numStates(static_cast<uint32_t>(stateKeys.size())),
          touchNext(std::move(touch)), fillNext(std::move(fill)),
          victim(std::move(victims)), keys(std::move(stateKeys)),
          bytes(budgeted)
    {
        finish();
    }

    /** Narrow mirrors for the batch kernels (see
     *  CompiledTable::narrow). */
    void finish()
    {
        if (numStates <= (uint64_t{1} << 16)) {
            touchNext16.assign(touchNext.begin(), touchNext.end());
            fillNext16.assign(fillNext.begin(), fillNext.end());
        }
    }
};

/** The one place that assembles CompiledTable objects. */
struct TableBuilder
{
    static std::shared_ptr<CompiledTable>
    make(unsigned k, std::string name,
         std::shared_ptr<const TableArrays> arrays)
    {
        auto table = std::make_shared<CompiledTable>();
        table->ways_ = k;
        table->policyName_ = std::move(name);
        table->numStates_ = arrays->numStates;
        table->touch_ = arrays->touchNext.data();
        table->fill_ = arrays->fillNext.data();
        table->victim_ = arrays->victim.data();
        table->keys_ = arrays->keys.data();
        if (!arrays->touchNext16.empty()) {
            table->touch16_ = arrays->touchNext16.data();
            table->fill16_ = arrays->fillNext16.data();
        }
        table->altOffset_ = arrays->variants > 1
                                ? std::size_t{arrays->numStates} * k
                                : 0;
        table->arrays_ = std::move(arrays);
        return table;
    }

    static void
    attachControl(CompiledTable& table, Explored&& control)
    {
        const std::size_t n = control.keys.size();
        table.controlTouch_.resize(n);
        table.controlFill_.resize(n);
        for (std::size_t q = 0; q < n; ++q) {
            table.controlTouch_[q] = control.next[2 * q];
            table.controlFill_[q] = control.next[2 * q + 1] << 1 |
                                    control.output[2 * q + 1];
        }
        table.controlKeys_ = std::move(control.keys);
    }
};

} // namespace detail

namespace
{

using detail::TableArrays;
using detail::TableBuilder;

/** Budgeted bytes per state of a table with @p variants fill rows. */
uint64_t
rowBytes(unsigned k, unsigned variants)
{
    return uint64_t{1 + variants} * k * sizeof(uint32_t) +
           sizeof(uint16_t);
}

/** Budgeted bytes per control state: two rows, no victim. */
constexpr uint64_t kControlRowBytes = 2 * sizeof(uint32_t);

/**
 * The core table of a factored policy, enumerated once per process
 * for each (core name, ways, budget) and shared by every table built
 * on it (bip, dip and dip:4,3,4 share the recency core; brrip and
 * drrip the 2-bit RRPV core). Same single-flight-free memo as
 * compiledTableFor, for the same pool-deadlock reason.
 */
std::shared_ptr<const TableArrays>
coreArraysFor(const CoreAutomaton& proto, const CompileBudget& budget)
{
    struct CacheEntry
    {
        bool attempted = false;
        std::shared_ptr<const TableArrays> arrays;
    };
    static std::mutex mutex;
    static std::unordered_map<std::string, CacheEntry> cache;

    const unsigned k = proto.ways();
    const std::string key = proto.name() + "|" + std::to_string(k) +
                            "|" + std::to_string(budget.maxStates) +
                            "|" +
                            std::to_string(budget.maxTableBytes);
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end() && it->second.attempted)
            return it->second.arrays;
    }

    std::shared_ptr<const TableArrays> arrays;
    std::unique_ptr<CoreAutomaton> initial = proto.clone();
    initial->reset();
    Explored core;
    // Inputs: touch 0..k-1, then fill 0..k-1 with the primary
    // insertion, then fill 0..k-1 with the alternative one.
    const auto step = [k](CoreAutomaton& c, unsigned e) {
        if (e < k)
            c.touch(e);
        else
            c.fill(e % k, e >= 2 * k);
        return false;
    };
    const auto victim = [](const CoreAutomaton& c) {
        return c.victim();
    };
    if (explore(std::move(initial), 3 * k, rowBytes(k, 2), budget,
                step, victim, core)) {
        arrays = std::make_shared<const TableArrays>(
            std::move(core), k, 2, rowBytes(k, 2));
    }

    std::lock_guard<std::mutex> lock(mutex);
    CacheEntry& entry = cache[key];
    if (!entry.attempted) {
        entry.attempted = true;
        entry.arrays = arrays;
    }
    return entry.arrays;
}

/**
 * The monolithic table of a factored policy: a serial BFS over
 * reachable (core, control) pairs in the policy's own edge order
 * (touch 0..k-1, fill 0..k-1), so ids, victims and keys equal those
 * of enumerating the policy itself. nullptr when the bytes exceed
 * @p budget. The caller checks that core x control fits both
 * budget.maxStates and, at four bytes each, budget.maxTableBytes:
 * that bounds the dense pair index.
 */
CompiledTablePtr
productTable(const TableArrays& core, const CompiledTable& control,
             unsigned k, const std::string& name,
             const CompileBudget& budget)
{
    const std::size_t nq = control.controlStates();
    std::vector<uint32_t> idOf(std::size_t{core.numStates} * nq,
                               kNoState);
    std::vector<uint32_t> pairs; // id -> core * nq + control
    uint64_t keyBytes = 0;
    const uint64_t bytesPerState = rowBytes(k, 1);
    bool over = false;
    const auto intern = [&](uint32_t c, uint32_t q) {
        const std::size_t pair = c * nq + q;
        if (idOf[pair] == kNoState) {
            idOf[pair] = static_cast<uint32_t>(pairs.size());
            pairs.push_back(static_cast<uint32_t>(pair));
            keyBytes += core.keys[c].size() + 1 +
                        control.controlKey(q).size();
            over = over || pairs.size() * bytesPerState + keyBytes >
                               budget.maxTableBytes;
        }
        return idOf[pair];
    };

    std::vector<uint32_t> touch;
    std::vector<uint32_t> fill;
    std::vector<uint16_t> victims;
    const std::size_t altOffset = std::size_t{core.numStates} * k;
    intern(0, 0);
    for (std::size_t s = 0; s < pairs.size() && !over; ++s) {
        const uint32_t c = pairs[s] / nq;
        const uint32_t q = pairs[s] % nq;
        const std::size_t row = std::size_t{c} * k;
        victims.push_back(core.victim[c]);
        const uint32_t qt = control.controlTouch(q);
        for (unsigned w = 0; w < k; ++w)
            touch.push_back(intern(core.touchNext[row + w], qt));
        const uint32_t packed = control.controlFill(q);
        const std::size_t base = (packed & 1) ? altOffset : 0;
        for (unsigned w = 0; w < k; ++w)
            fill.push_back(
                intern(core.fillNext[base + row + w], packed >> 1));
    }
    if (over)
        return nullptr;

    std::vector<std::string> keys;
    keys.reserve(pairs.size());
    for (const uint32_t pair : pairs) {
        keys.push_back(core.keys[pair / nq] + ":" +
                       control.controlKey(pair % nq));
    }
    const uint64_t bytes = pairs.size() * bytesPerState + keyBytes;
    return TableBuilder::make(
        k, name,
        std::make_shared<const TableArrays>(
            std::move(touch), std::move(fill), std::move(victims),
            std::move(keys), bytes));
}

/** compilePolicy() of a PolicyShape::kFactored policy. */
CompiledTablePtr
compileFactored(const ReplacementPolicy& proto,
                const CompileBudget& budget)
{
    const unsigned k = proto.ways();
    Factorization parts = proto.factorization();
    require(parts.core && parts.control && parts.core->ways() == k,
            "compilePolicy: " + proto.name() +
                " has an incomplete factorization");

    // The control automaton first: it is tiny, and an over-budget
    // control spares the core enumeration.
    Explored control;
    const auto step = [](ControlAutomaton& c, unsigned e) {
        if (e == 0) {
            c.touch();
            return false;
        }
        return c.fill();
    };
    const auto noVictim = [](const ControlAutomaton&) { return 0u; };
    parts.control->reset();
    if (!explore(std::move(parts.control), 2, kControlRowBytes, budget,
                 step, noVictim, control))
        return nullptr;
    const uint64_t controlBytes =
        control.keys.size() * kControlRowBytes + control.keyBytes;

    const auto core = coreArraysFor(*parts.core, budget);
    if (!core)
        return nullptr;

    auto table = TableBuilder::make(k, proto.name(), core);
    TableBuilder::attachControl(*table, std::move(control));
    const uint64_t pairs =
        uint64_t{core->numStates} * table->controlStates();
    if (pairs <= budget.maxStates &&
        pairs * sizeof(uint32_t) <= budget.maxTableBytes)
        return productTable(*core, *table, k, proto.name(), budget);
    if (core->bytes + controlBytes > budget.maxTableBytes)
        return nullptr;
    return table;
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
    switch (proto.shape()) {
      case PolicyShape::kNotFinite:
        return nullptr;
      case PolicyShape::kFactored:
        return compileFactored(proto, budget);
      case PolicyShape::kMonolithic:
        break;
    }

    PolicyPtr initial = proto.clone();
    initial->reset();
    Explored whole;
    const auto step = [k](ReplacementPolicy& p, unsigned e) {
        if (e < k)
            p.touch(e);
        else
            p.fill(e - k);
        return false;
    };
    const auto victim = [](const ReplacementPolicy& p) {
        return p.victim();
    };
    if (!explore(std::move(initial), 2 * k, rowBytes(k, 1), budget,
                 step, victim, whole))
        return nullptr;
    return TableBuilder::make(
        k, proto.name(),
        std::make_shared<const TableArrays>(std::move(whole), k, 1,
                                            rowBytes(k, 1)));
}

std::string
CompiledTable::stateKey(uint32_t state, uint32_t control) const
{
    if (!factored())
        return keys_[state];
    return keys_[state] + ":" + controlKeys_[control];
}

CompiledTableView::CompiledTableView(CompiledTablePtr table)
    : table_(std::move(table))
{
    require(table_ != nullptr,
            "CompiledTableView: table must not be null");
    require(!table_->factored(),
            "CompiledTableView: a factored table has no explicit "
            "state set");
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
    stepper_ = AnyStepper(*table_);
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
