#include "recap/policy/policy.hh"

#include "recap/common/error.hh"
#include "recap/policy/factored.hh"

namespace recap::policy
{

ReplacementPolicy::ReplacementPolicy(unsigned ways)
    : ways_(ways)
{
    require(ways >= 1, "ReplacementPolicy: associativity must be >= 1");
}

void
ReplacementPolicy::checkWay(Way way) const
{
    require(way < ways_, "ReplacementPolicy: way index out of range");
}

Factorization
ReplacementPolicy::factorization() const
{
    throw UsageError("ReplacementPolicy: " + name() +
                     " is not a factored policy");
}

} // namespace recap::policy
