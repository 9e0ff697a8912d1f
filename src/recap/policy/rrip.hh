/**
 * @file
 * Re-reference interval prediction policies: SRRIP and BRRIP
 * (Jaleel et al.), included both as evaluation baselines and as
 * candidate shapes for the age-based L3 policies of the Sandy
 * Bridge / Ivy Bridge generation.
 */

#ifndef RECAP_POLICY_RRIP_HH_
#define RECAP_POLICY_RRIP_HH_

#include <vector>

#include "recap/policy/factored.hh"
#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * SRRIP-HP: each line carries an M-bit re-reference prediction value
 * (RRPV). Hits set RRPV to 0; fills insert with RRPV = max-1
 * ("long"); the victim is the lowest-index way with RRPV == max,
 * aging every line upward until one exists.
 *
 * victim() is pure: the aging needed to expose a victim is computed
 * functionally and committed by fill().
 */
class SrripPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param ways Associativity.
     * @param bits RRPV width in bits; must be in [1, 8].
     */
    explicit SrripPolicy(unsigned ways, unsigned bits = 2);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override;
    PolicyPtr clone() const override;
    std::string stateKey() const override;

    unsigned maxRrpv() const { return maxRrpv_; }

    /** Raw RRPVs, for white-box tests. */
    std::vector<unsigned> rrpvs() const { return rrpv_; }

    /** Commits the aging victim() models, then installs @p way with
     *  RRPV @p rrpv (at most maxRrpv()). */
    void insert(Way way, unsigned rrpv);

  protected:
    /** RRPV a fill assigns to the incoming line. */
    virtual unsigned insertionRrpv();

    /** Ages all lines so at least one reaches maxRrpv_. */
    void ageUntilVictimExists();

    /** Lowest-index way with RRPV == maxRrpv_, or ways() if none. */
    Way findVictim(const std::vector<unsigned>& rrpv) const;

    unsigned bits_;
    unsigned maxRrpv_;
    std::vector<unsigned> rrpv_;
};

/**
 * The RRPV core of the factored BRRIP and DRRIP: SRRIP-HP hits and
 * victims; primary fills insert "long" (max-1), alternative fills
 * "distant" (max).
 */
class RrpvCore final : public CoreAutomaton
{
  public:
    RrpvCore(unsigned ways, unsigned bits) : rrip_(ways, bits) {}

    std::string name() const override;
    unsigned ways() const override { return rrip_.ways(); }
    void reset() override { rrip_.reset(); }
    void touch(Way way) override { rrip_.touch(way); }
    void fill(Way way, bool alt) override;
    Way victim() const override { return rrip_.victim(); }
    std::string stateKey() const override { return rrip_.stateKey(); }

    std::unique_ptr<CoreAutomaton> clone() const override
    {
        return std::make_unique<RrpvCore>(*this);
    }

  private:
    SrripPolicy rrip_;
};

/**
 * BRRIP: like SRRIP but inserts with distant RRPV (max) most of the
 * time and long RRPV (max-1) only every throttle-th fill, making it
 * thrash-resistant (a ThrottleControl over an RrpvCore; factored).
 */
class BrripPolicy final : public SrripPolicy
{
  public:
    explicit BrripPolicy(unsigned ways, unsigned bits = 2,
                         unsigned throttle = 32);

    void reset() override;
    std::string name() const override;
    PolicyPtr clone() const override;
    std::string stateKey() const override;
    PolicyShape shape() const override { return PolicyShape::kFactored; }
    Factorization factorization() const override;

  protected:
    unsigned insertionRrpv() override;

  private:
    ThrottleControl control_;
};

} // namespace recap::policy

#endif // RECAP_POLICY_RRIP_HH_
