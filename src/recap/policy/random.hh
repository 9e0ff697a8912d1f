/**
 * @file
 * Pseudo-random replacement, the classic baseline the paper's
 * evaluation compares the reverse-engineered policies against.
 */

#ifndef RECAP_POLICY_RANDOM_HH_
#define RECAP_POLICY_RANDOM_HH_

#include "recap/common/rng.hh"
#include "recap/policy/policy.hh"

namespace recap::policy
{

/**
 * Random replacement with a deterministic seeded stream.
 *
 * Because victim() must be pure, the victim for the *next* miss is
 * pre-drawn and only advanced by fill(); hits do not consume
 * randomness, matching LFSR-based hardware implementations where the
 * register steps per replacement.
 */
class RandomPolicy final : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(unsigned ways, uint64_t seed = 1);

    void reset() override;
    void touch(Way way) override;
    Way victim() const override;
    void fill(Way way) override;
    std::string name() const override { return "Random"; }
    PolicyPtr clone() const override;
    std::string stateKey() const override;

    /** The stream position grows without bound: never enumerated. */
    PolicyShape shape() const override
    {
        return PolicyShape::kNotFinite;
    }

  private:
    uint64_t seed_;
    Rng rng_;
    Way pending_;
    uint64_t draws_ = 0;
};

} // namespace recap::policy

#endif // RECAP_POLICY_RANDOM_HH_
