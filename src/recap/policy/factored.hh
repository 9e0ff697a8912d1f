/**
 * @file
 * Factored replacement policies: a way-level core automaton stepped
 * in lockstep with a small way-blind control automaton.
 *
 * Several catalog policies are a product. BIP and BRRIP put a
 * 1-in-throttle fill counter next to a recency stack or an RRPV
 * vector; DIP and DRRIP add the temporal-dueling PSEL and epoch
 * clock of duel.hh. Enumerated as one automaton, the counter
 * multiplies the state count past any useful budget at 8 ways. The
 * counters never look at way indices, though: they see only whether
 * an input was a hit or a fill, and all they tell the way-level part
 * is which of two insertion variants the fill uses. A policy that
 * declares PolicyShape::kFactored exposes exactly that split:
 *
 *  - a CoreAutomaton over touch(w) and fill(w, alt), whose victim()
 *    is the policy's victim;
 *  - a ControlAutomaton over touch() and fill(), where fill() returns
 *    the insertion variant (alt) of the fill it steps over;
 *  - stateKey() == core.stateKey() + ":" + control.stateKey().
 *
 * policy::compilePolicy() enumerates the two parts separately and
 * shares one core table between every policy built on the same core
 * (see compiled.hh).
 */

#ifndef RECAP_POLICY_FACTORED_HH_
#define RECAP_POLICY_FACTORED_HH_

#include <memory>
#include <string>

#include "recap/common/error.hh"
#include "recap/policy/duel.hh"
#include "recap/policy/policy.hh"

namespace recap::policy
{

/** The way-level part of a factored policy. */
class CoreAutomaton
{
  public:
    virtual ~CoreAutomaton() = default;

    /**
     * Identity of the automaton for table sharing: two cores with
     * equal name() and ways() must behave identically from reset().
     */
    virtual std::string name() const = 0;
    virtual unsigned ways() const = 0;
    virtual void reset() = 0;
    virtual void touch(Way way) = 0;

    /** Installs @p way with the primary insertion, or with the
     *  alternative one when @p alt is set. */
    virtual void fill(Way way, bool alt) = 0;
    virtual Way victim() const = 0;
    virtual std::string stateKey() const = 0;
    virtual std::unique_ptr<CoreAutomaton> clone() const = 0;
};

/** The way-blind part of a factored policy. */
class ControlAutomaton
{
  public:
    virtual ~ControlAutomaton() = default;

    virtual void reset() = 0;

    /** Steps over a hit. */
    virtual void touch() = 0;

    /** Steps over a fill; returns that fill's insertion variant. */
    virtual bool fill() = 0;
    virtual std::string stateKey() const = 0;
    virtual std::unique_ptr<ControlAutomaton> clone() const = 0;
};

/** Fresh (reset) parts of a factored policy. */
struct Factorization
{
    std::unique_ptr<CoreAutomaton> core;
    std::unique_ptr<ControlAutomaton> control;
};

/**
 * The BIP/BRRIP fill throttle: every throttle-th fill takes the
 * primary insertion (MRU, or "long" RRPV), all others the
 * alternative (LRU, or "distant" RRPV). recap uses this
 * deterministic counter rather than a coin flip so that experiments
 * are reproducible.
 */
class ThrottleControl final : public ControlAutomaton
{
  public:
    /** @param throttle Must be >= 1; 1 never takes the alternative. */
    explicit ThrottleControl(unsigned throttle) : throttle_(throttle)
    {
        require(throttle >= 1, "ThrottleControl: throttle must be >= 1");
    }

    unsigned throttle() const { return throttle_; }

    void reset() override { count_ = 0; }
    void touch() override {}

    bool fill() override
    {
        const bool alt = count_ != 0;
        count_ = (count_ + 1) % throttle_;
        return alt;
    }

    std::string stateKey() const override
    {
        return std::to_string(count_);
    }

    std::unique_ptr<ControlAutomaton> clone() const override
    {
        return std::make_unique<ThrottleControl>(*this);
    }

  private:
    unsigned throttle_;
    unsigned count_ = 0;
};

/**
 * The DIP/DRRIP control: a TemporalDuel between constituent A (always
 * the primary insertion) and constituent B (the throttled bimodal
 * insertion). The throttle counter runs on every fill, so constituent
 * B matches a free-standing BIP/BRRIP.
 */
class DuelControl final : public ControlAutomaton
{
  public:
    DuelControl(unsigned throttle, unsigned pselBits, unsigned epochLen)
        : throttle_(throttle), duel_(pselBits, epochLen)
    {}

    const TemporalDuel& duel() const { return duel_; }

    void reset() override
    {
        throttle_.reset();
        duel_.reset();
    }

    void touch() override { duel_.advance(); }

    bool fill() override
    {
        // Train first: the miss is attributed to the constituent that
        // governed the epoch it occurred in.
        const DuelMode mode = duel_.mode();
        duel_.onMiss(mode);
        const bool useB = mode == DuelMode::kLeaderB ||
                          (mode == DuelMode::kFollower &&
                           duel_.followerPicksB());
        const bool bimodalAlt = throttle_.fill();
        duel_.advance();
        return useB && bimodalAlt;
    }

    std::string stateKey() const override
    {
        return throttle_.stateKey() + ":" + duel_.key();
    }

    std::unique_ptr<ControlAutomaton> clone() const override
    {
        return std::make_unique<DuelControl>(*this);
    }

  private:
    ThrottleControl throttle_;
    TemporalDuel duel_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_FACTORED_HH_
