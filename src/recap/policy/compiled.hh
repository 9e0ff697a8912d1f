/**
 * @file
 * Compiled replacement-policy automata: the interpreter-free fast
 * path of the simulation stack.
 *
 * The interpreted ReplacementPolicy interface pays a virtual
 * touch/fill/victim dispatch plus unique_ptr clone churn on every
 * simulated access. compilePolicy() enumerates the reachable control
 * states of a policy (breadth-first over ReplacementPolicy::stateKey,
 * the same canonicalization the learn:: extraction machinery builds
 * on) into dense state x input -> state transition tables:
 *
 *     touchNext[state * ways + w]  state after a hit on way w
 *     fillNext [state * ways + w]  state after filling way w
 *     victim   [state]             way the next miss would evict
 *
 * so the hot loop becomes three array lookups, state forking becomes
 * an integer copy, and the batch kernels in eval/ and query/ can keep
 * per-set state in structure-of-arrays form.
 *
 * TableStepper is the one definition of how a table steps: hit,
 * fill, victim. visitStepper() picks its element width and shape
 * from a table, AnyStepper dispatches them per call. Every consumer
 * steps through it: the single kernel (eval/kernel.cc), the lockstep
 * lanes and the match loop (eval/multi_kernel.cc), the query
 * snapshot walk (query/batch.cc), CompiledPolicy and the hier::
 * levels.
 *
 * What gets enumerated depends on the policy's PolicyShape:
 *
 *  - kMonolithic: the policy itself, as one automaton.
 *  - kFactored (BIP, BRRIP, DIP, DRRIP; see factored.hh): the core
 *    and the control automaton apart. When core x control states fit
 *    the budget, their reachable product is the monolithic table
 *    above, with the same ids, victims and keys as enumerating the
 *    policy whole. Otherwise the table stays factored: the core's
 *    fill rows come in two insertion variants, and every simulated
 *    set steps one control register next to its core state, taking
 *    the variant from the control's fill row. Identical cores are
 *    enumerated once per process and shared between tables.
 *  - kNotFinite ("random"): nothing is enumerated; compilePolicy()
 *    returns nullptr.
 *
 * Policies whose state space exceeds the budget (big way-order
 * policies such as LRU at k = 16) also fail to compile: every
 * consumer then falls back to the interpreted automaton, with
 * behaviour pinned bit-identical by tests/test_compiled_policy.cc.
 * Analyses that need an explicit state set (sec::, predictability,
 * CompiledTableView) take monolithic tables only.
 *
 * The enumeration runs in two-phase rounds over the BFS frontier:
 * successor keys are derived and probed against a flat intern table
 * in parallel on the shared pool, then the misses are interned
 * serially in edge order, so the tables (ids included) are exactly
 * those of a serial BFS; test_compiled_policy pins them by digest.
 */

#ifndef RECAP_POLICY_COMPILED_HH_
#define RECAP_POLICY_COMPILED_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "recap/common/error.hh"
#include "recap/policy/policy.hh"

namespace recap::policy
{

/** Limits on the state enumeration of compilePolicy(). */
struct CompileBudget
{
    /**
     * Abort compilation beyond this many control states (inclusive:
     * exactly maxStates states still compile). A factored policy is
     * enumerated as one monolithic table when core x control states
     * is at most maxStates (and its four-byte pair index fits
     * maxTableBytes); otherwise its core and its control automaton
     * must each fit maxStates on their own.
     *
     * At k = 8 the default falls back only for slru (too many
     * states), ship and eaf (they consume metadata and never
     * compile) and random (not finite: never enumerated). bip, brrip,
     * dip, drrip and dip:4,3,4 compile factored over the 40 320-state
     * recency core or the 65 536-state 2-bit RRPV core; drrip:1,4,3,4
     * (130 740 states) and every other deterministic catalog policy
     * compiles whole. PLRU and NRU compile up to k = 16; NRU at 24,
     * the two catalog QLRU variants at 12, LRU-order policies at 16
     * (16! states) and the bip/dip (12! recency) and brrip/drrip
     * (4^12 RRPV) cores at 12 fall back.
     * tests/test_compiled_policy.cc pins each of these outcomes.
     */
    uint64_t maxStates = 1u << 17;

    /**
     * Abort when the transition tables plus state keys would exceed
     * this many bytes (inclusive, like maxStates). For a factored
     * table that is the core's tables (three k-wide rows per state)
     * and keys plus the control's two rows and keys, in total.
     */
    uint64_t maxTableBytes = uint64_t{96} << 20;
};

namespace detail
{
struct TableArrays;
struct TableBuilder;
} // namespace detail

template <typename Elem, bool kFactored, unsigned kFixedWays = 0>
class TableStepper;

/**
 * Immutable transition tables of one compiled policy. State 0 is the
 * post-reset state; states are numbered in BFS order (ascending
 * touch-then-fill edge exploration), so compiling the same policy
 * twice yields identical tables.
 *
 * A factored() table holds the core automaton in the state-indexed
 * arrays (numStates() counts core states) plus a control register:
 * a hit steps it by controlTouch(), a fill by controlFill(), whose
 * low bit picks the insertion variant of the core's fill row. The
 * control register, like the core state, starts at 0.
 */
class CompiledTable
{
  public:
    unsigned ways() const { return ways_; }

    /** States of the way-level automaton: the core's, if factored. */
    uint32_t numStates() const { return numStates_; }

    /** name() of the policy this table was compiled from. */
    const std::string& policyName() const { return policyName_; }

    /** True when a control register runs next to the core state. */
    bool factored() const { return !controlTouch_.empty(); }

    uint32_t touchNext(uint32_t state, Way way) const
    {
        return touch_[static_cast<std::size_t>(state) * ways_ + way];
    }

    /** State after filling @p way; a factored core takes insertion
     *  variant @p alt (monolithic tables ignore it). */
    uint32_t fillNext(uint32_t state, Way way, bool alt = false) const
    {
        return fill_[(alt ? altOffset_ : 0) +
                     static_cast<std::size_t>(state) * ways_ + way];
    }

    Way victim(uint32_t state) const { return victim_[state]; }

    /** Interpreted stateKey() of @p state (bit-exact passthrough);
     *  the core's key alone for a factored table. */
    const std::string& stateKey(uint32_t state) const
    {
        return keys_[state];
    }

    /** Interpreted stateKey() of core @p state with control register
     *  @p control (ignored when not factored). */
    std::string stateKey(uint32_t state, uint32_t control) const;

    /** Control states (0 when not factored). */
    uint32_t controlStates() const
    {
        return static_cast<uint32_t>(controlTouch_.size());
    }

    /** Control register after a hit. */
    uint32_t controlTouch(uint32_t control) const
    {
        return controlTouch_[control];
    }

    /** Control register after a fill, shifted left by one, with the
     *  fill's insertion variant in bit 0. */
    uint32_t controlFill(uint32_t control) const
    {
        return controlFill_[control];
    }

    /** Interpreted stateKey() of the control automaton. */
    const std::string& controlKey(uint32_t control) const
    {
        return controlKeys_[control];
    }

    /**
     * True when the automaton has at most 2^16 states; the narrow
     * uint16 mirrors are then populated and TableStepper walks them.
     * Halving the table footprint matters: at 64k states the uint32
     * tables are 2 MiB each and state-indexed lookups thrash L2,
     * while the narrow mirrors keep both tables resident.
     */
    bool narrow() const { return touch16_ != nullptr; }

    /** Base of the uint32 touch rows: tables built on one shared
     *  core (see the file comment) return the same pointer. */
    const uint32_t* touchData() const { return touch_; }

  private:
    friend struct detail::TableBuilder;
    template <typename, bool, unsigned>
    friend class TableStepper;

    unsigned ways_ = 0;
    uint32_t numStates_ = 0;
    std::string policyName_;
    // The arrays live in a shared block: every factored table built
    // on the same core reads one copy. The raw pointers below are
    // hoisted out of it once.
    std::shared_ptr<const detail::TableArrays> arrays_;
    const uint32_t* touch_ = nullptr;
    const uint32_t* fill_ = nullptr;
    const uint16_t* victim_ = nullptr;
    const std::string* keys_ = nullptr;
    const uint16_t* touch16_ = nullptr;
    const uint16_t* fill16_ = nullptr;
    std::size_t altOffset_ = 0;
    std::vector<uint32_t> controlTouch_;
    std::vector<uint32_t> controlFill_;
    std::vector<std::string> controlKeys_;
};

/** Shared, immutable handle: one table serves any number of sets. */
using CompiledTablePtr = std::shared_ptr<const CompiledTable>;

/**
 * Safe read-only view of a compiled table for analysis consumers
 * (the sec:: searches, future model checkers): a copyable value that
 * keeps the shared table alive and exposes exactly the transition
 * and victim lookups plus the canonical derived states every
 * analysis needs, so consumers neither re-compile nor reach into
 * CompiledTable internals. Only monolithic tables have the explicit
 * state set these analyses walk.
 */
class CompiledTableView
{
  public:
    /** @throws UsageError when @p table is null or factored. */
    explicit CompiledTableView(CompiledTablePtr table);

    unsigned ways() const { return table_->ways(); }
    uint32_t numStates() const { return table_->numStates(); }
    const std::string& policyName() const
    {
        return table_->policyName();
    }

    uint32_t touchNext(uint32_t state, Way way) const
    {
        return table_->touchNext(state, way);
    }

    uint32_t fillNext(uint32_t state, Way way) const
    {
        return table_->fillNext(state, way);
    }

    Way victim(uint32_t state) const { return table_->victim(state); }

    /** The post-reset state (always index 0 by construction). */
    uint32_t resetState() const { return 0; }

    /**
     * The canonical full-set state: reset followed by a sequential
     * fill of ways 0..k-1 — the same preparation the predictability
     * metrics and the eviction-game roots use.
     */
    uint32_t filledState() const;

    /**
     * Every state reachable from filledState() under full-set inputs
     * (touch on any way, one filled miss per state), in BFS order —
     * the state universe of a warm set, which the security searches
     * take as the set of possible initial policy configurations.
     */
    std::vector<uint32_t> fullSetReachable() const;

    /** The shared table the view reads from. */
    const CompiledTablePtr& table() const { return table_; }

  private:
    CompiledTablePtr table_;
};

/**
 * The step rule of a compiled table, and its only definition (the
 * file comment lists the consumers). A hit on way w moves the core
 * state along its touch row and, on a factored table, the control
 * register along controlTouch(). A fill of way w first unpacks
 * controlFill() into next << 1 | alt, then moves the core state
 * along the fill row of insertion variant alt. Monolithic tables
 * have no control register: @p c is then neither read nor written.
 *
 * A stepper is a few hoisted table pointers, cheap to copy, valid
 * while its table lives. @p Elem picks the table's element width
 * (uint16_t for a narrow() table, else uint32_t), @p kFactored its
 * shape; a nonzero @p kFixedWays makes the associativity a
 * compile-time constant, so batch loops get a fixed trip count for
 * their tag scans and a shift for the row multiply. visitStepper()
 * picks the parameters from a table.
 */
template <typename Elem, bool kFactored, unsigned kFixedWays>
class TableStepper
{
    static_assert(std::is_same_v<Elem, uint16_t> ||
                  std::is_same_v<Elem, uint32_t>);

  public:
    /** The same stepper with the associativity fixed to @p K. */
    template <unsigned K>
    using WithWays = TableStepper<Elem, kFactored, K>;

    TableStepper() = default;

    /** @throws LogicBug when @p table's width, shape or (if fixed)
     *  associativity differs from the stepper's. */
    explicit TableStepper(const CompiledTable& table)
        : ways_(table.ways()), victim_(table.victim_),
          altOffset_(table.altOffset_),
          controlTouch_(table.controlTouch_.data()),
          controlFill_(table.controlFill_.data())
    {
        if constexpr (std::is_same_v<Elem, uint16_t>) {
            touch_ = table.touch16_;
            fill_ = table.fill16_;
        } else {
            touch_ = table.touch_;
            fill_ = table.fill_;
        }
        ensure(touch_ != nullptr && table.factored() == kFactored &&
                   (kFixedWays == 0 || kFixedWays == table.ways()),
               "TableStepper: table does not match the stepper type");
    }

    unsigned ways() const
    {
        return kFixedWays != 0 ? kFixedWays : ways_;
    }

    /** Way the next miss in core state @p s evicts. */
    Way victim(uint32_t s) const { return victim_[s]; }

    /** A hit on way @p w. */
    void touch(uint32_t& s, uint32_t& c, Way w) const
    {
        s = touch_[row(s) + w];
        if constexpr (kFactored)
            c = controlTouch_[c];
    }

    /** A fill of way @p w. */
    void fill(uint32_t& s, uint32_t& c, Way w) const
    {
        std::size_t variant = 0;
        if constexpr (kFactored) {
            const uint32_t packed = controlFill_[c];
            c = packed >> 1;
            variant = (packed & 1) * altOffset_;
        }
        s = fill_[variant + row(s) + w];
    }

    /** touch() when @p hit, else fill(), with selects instead of a
     *  branch: the lockstep lanes hit and miss independently. */
    void step(bool hit, uint32_t& s, uint32_t& c, Way w) const
    {
        const Elem* next = hit ? touch_ : fill_;
        std::size_t variant = 0;
        if constexpr (kFactored) {
            const uint32_t packed = controlFill_[c];
            const uint32_t touched = controlTouch_[c];
            variant = hit ? 0 : (packed & 1) * altOffset_;
            c = hit ? touched : packed >> 1;
        }
        s = next[variant + row(s) + w];
    }

  private:
    std::size_t row(uint32_t s) const
    {
        return static_cast<std::size_t>(s) * ways();
    }

    unsigned ways_ = 0;
    const Elem* touch_ = nullptr;
    const Elem* fill_ = nullptr;
    const uint16_t* victim_ = nullptr;
    std::size_t altOffset_ = 0;
    const uint32_t* controlTouch_ = nullptr;
    const uint32_t* controlFill_ = nullptr;
};

/** Calls @p f with the TableStepper of @p table's width and shape. */
template <typename F>
decltype(auto)
visitStepper(const CompiledTable& table, F&& f)
{
    if (table.factored()) {
        if (table.narrow())
            return f(TableStepper<uint16_t, true>(table));
        return f(TableStepper<uint32_t, true>(table));
    }
    if (table.narrow())
        return f(TableStepper<uint16_t, false>(table));
    return f(TableStepper<uint32_t, false>(table));
}

/**
 * visitStepper() with the associativity fixed at compile time when
 * it is 2, 4, 8 or 16 (the batch loops' specializations), dynamic
 * otherwise.
 */
template <typename F>
decltype(auto)
visitFixedWaysStepper(const CompiledTable& table, F&& f)
{
    return visitStepper(table, [&](auto stepper) -> decltype(auto) {
        using Stepper = decltype(stepper);
        switch (table.ways()) {
          case 2:
            return f(typename Stepper::template WithWays<2>(table));
          case 4:
            return f(typename Stepper::template WithWays<4>(table));
          case 8:
            return f(typename Stepper::template WithWays<8>(table));
          case 16:
            return f(typename Stepper::template WithWays<16>(table));
          default:
            return f(stepper);
        }
    });
}

/**
 * A stepper over any table, its width and shape dispatched per call:
 * for consumers that keep one table per object instead of one loop
 * per table (CompiledPolicy, the hier:: levels).
 */
class AnyStepper
{
    using Variant = std::variant<TableStepper<uint16_t, false>,
                                 TableStepper<uint32_t, false>,
                                 TableStepper<uint16_t, true>,
                                 TableStepper<uint32_t, true>>;

    /** A plain switch, so every call inlines. */
    template <typename F>
    decltype(auto) visit(F&& f) const
    {
        switch (stepper_.index()) {
          case 0:
            return f(*std::get_if<0>(&stepper_));
          case 1:
            return f(*std::get_if<1>(&stepper_));
          case 2:
            return f(*std::get_if<2>(&stepper_));
          default:
            return f(*std::get_if<3>(&stepper_));
        }
    }

    Variant stepper_;

  public:
    AnyStepper() = default;

    explicit AnyStepper(const CompiledTable& table)
        : stepper_(visitStepper(
              table, [](auto stepper) -> Variant { return stepper; }))
    {}

    Way victim(uint32_t s) const
    {
        return visit([&](const auto& st) { return st.victim(s); });
    }

    void touch(uint32_t& s, uint32_t& c, Way w) const
    {
        visit([&](const auto& st) { st.touch(s, c, w); });
    }

    void fill(uint32_t& s, uint32_t& c, Way w) const
    {
        visit([&](const auto& st) { st.fill(s, c, w); });
    }
};

/**
 * Enumerates the reachable control states of @p proto (closed under
 * every touch(w)/fill(w) input, so the table is total even for fill
 * patterns only adaptive caches produce) and builds its transition
 * tables; a kFactored policy's core and control automaton are
 * enumerated apart (see the file comment). Large frontiers are
 * probed in parallel on sharedPool() (inline when called from a pool
 * worker); the clone(), touch(), fill(), victim() and stateKey() of
 * @p proto and of its factorization() parts must therefore be safe
 * to call on distinct clones from several threads at once, as every
 * policy in the tree is.
 *
 * @return nullptr when the state space exceeds @p budget, the policy
 *         consumes metadata or is not finite — the caller must keep
 *         using the interpreted policy.
 */
CompiledTablePtr compilePolicy(const ReplacementPolicy& proto,
                               const CompileBudget& budget = {});

/**
 * Process-wide memoized compilation of factory specs, thread-safe.
 * Once any call for a (spec, ways, budget) key has returned, every
 * later call returns that same table (or nullptr, for an over-budget
 * key) without enumerating. First callers that race each other may
 * each enumerate; all produce identical tables and the first to
 * finish wins the slot. The lookup deliberately does not block a
 * caller on another caller's in-flight enumeration: a pool worker
 * waiting on a compile that itself waits for that pool to go idle
 * (compilePolicy fans out on sharedPool()) would deadlock.
 * Only deterministic policies compile, so the factory seed is
 * irrelevant to the result; "random" is not finite and returns
 * nullptr without enumerating.
 */
CompiledTablePtr compiledTableFor(const std::string& spec,
                                  unsigned ways,
                                  const CompileBudget& budget = {});

/**
 * Drop-in ReplacementPolicy running on a compiled table: state is one
 * integer (two on a factored table: core and control register),
 * clone() copies no vectors, and name()/stateKey() are bit-exact
 * passthroughs of the source policy so every stateKey-based consumer
 * (equivalence checker, predictability exploration, learn::
 * extraction) behaves identically on the compiled form.
 */
class CompiledPolicy : public ReplacementPolicy
{
  public:
    explicit CompiledPolicy(CompiledTablePtr table);

    void reset() override
    {
        state_ = 0;
        control_ = 0;
    }

    void touch(Way way) override
    {
        checkWay(way);
        stepper_.touch(state_, control_, way);
    }

    Way victim() const override { return stepper_.victim(state_); }

    void fill(Way way) override
    {
        checkWay(way);
        stepper_.fill(state_, control_, way);
    }

    std::string name() const override { return table_->policyName(); }

    PolicyPtr clone() const override
    {
        return std::make_unique<CompiledPolicy>(*this);
    }

    std::string stateKey() const override
    {
        return table_->stateKey(state_, control_);
    }

    /** The shared table this instance runs on. */
    const CompiledTablePtr& table() const { return table_; }

    /** Current (core) state as a table index. */
    uint32_t stateIndex() const { return state_; }

  private:
    CompiledTablePtr table_;
    AnyStepper stepper_;
    uint32_t state_ = 0;
    uint32_t control_ = 0;
};

/**
 * makePolicy(), upgraded to the compiled form when the spec fits the
 * budget; the interpreted policy otherwise. Either result behaves
 * identically — the upgrade is purely a performance choice.
 */
PolicyPtr makeCompiledOrFallback(const std::string& spec,
                                 unsigned ways, uint64_t seed = 1,
                                 const CompileBudget& budget = {});

} // namespace recap::policy

#endif // RECAP_POLICY_COMPILED_HH_
