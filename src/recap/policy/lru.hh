/**
 * @file
 * True least-recently-used replacement and its insertion-point
 * variants LIP (LRU-insertion policy) and BIP (bimodal insertion
 * policy), all sharing one recency-stack implementation.
 */

#ifndef RECAP_POLICY_LRU_HH_
#define RECAP_POLICY_LRU_HH_

#include <vector>

#include "recap/policy/factored.hh"
#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * Shared recency-stack machinery for LRU/LIP/BIP.
 *
 * The state is a total order over ways; position 0 is most recently
 * used and position ways-1 is the eviction candidate.
 */
class RecencyStackPolicy : public ReplacementPolicy
{
  public:
    explicit RecencyStackPolicy(unsigned ways);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    std::string stateKey() const override;

    /** Exposes the current recency order (index 0 = MRU) for tests. */
    std::vector<Way> recencyOrder() const { return stack_; }

    /** Installs @p way at the MRU position, or at LRU if @p atLru. */
    void insert(Way way, bool atLru);

  protected:
    /** Moves @p way to the MRU position. */
    void moveToMru(Way way);

    /** Moves @p way to the LRU position. */
    void moveToLru(Way way);

    /** Position of @p way in the stack (0 = MRU). */
    unsigned positionOf(Way way) const;

    /** stack_[i] = way at recency position i; 0 = MRU. */
    std::vector<Way> stack_;
};

/** Classic LRU: hits and fills both promote to MRU. */
class LruPolicy final : public RecencyStackPolicy
{
  public:
    explicit LruPolicy(unsigned ways);

    void fill(Way way) override;
    std::string name() const override { return "LRU"; }
    PolicyPtr clone() const override;
};

/**
 * LIP (Qureshi et al.): fills insert at the LRU position, so a line
 * must be reused once before it gains any retention priority. Hits
 * promote to MRU like LRU.
 */
class LipPolicy final : public RecencyStackPolicy
{
  public:
    explicit LipPolicy(unsigned ways);

    void fill(Way way) override;
    std::string name() const override { return "LIP"; }
    PolicyPtr clone() const override;
};

/**
 * The recency-stack core of the factored BIP and DIP: hits and
 * primary fills go to MRU, alternative fills to LRU.
 */
class RecencyCore final : public CoreAutomaton
{
  public:
    explicit RecencyCore(unsigned ways) : stack_(ways) {}

    std::string name() const override { return "recency"; }
    unsigned ways() const override { return stack_.ways(); }
    void reset() override { stack_.reset(); }
    void touch(Way way) override { stack_.touch(way); }
    void fill(Way way, bool alt) override { stack_.insert(way, alt); }
    Way victim() const override { return stack_.victim(); }
    std::string stateKey() const override { return stack_.stateKey(); }

    std::unique_ptr<CoreAutomaton> clone() const override
    {
        return std::make_unique<RecencyCore>(*this);
    }

  private:
    LruPolicy stack_;
};

/**
 * BIP: like LIP, but every throttle-th fill inserts at MRU instead
 * (a ThrottleControl over a RecencyCore; factored).
 */
class BipPolicy final : public RecencyStackPolicy
{
  public:
    /**
     * @param ways     Associativity.
     * @param throttle Every throttle-th fill goes to MRU; must be >= 1.
     *                 throttle == 1 degenerates to LRU insertion.
     */
    explicit BipPolicy(unsigned ways, unsigned throttle = 32);

    void reset() override;
    void fill(Way way) override;
    std::string name() const override { return "BIP"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    PolicyShape shape() const override { return PolicyShape::kFactored; }
    Factorization factorization() const override;

    unsigned throttle() const { return control_.throttle(); }

  private:
    ThrottleControl control_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_LRU_HH_
