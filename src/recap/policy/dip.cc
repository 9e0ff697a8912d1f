#include "recap/policy/dip.hh"

#include "recap/common/error.hh"

namespace recap::policy
{

DipPolicy::DipPolicy(unsigned ways, unsigned throttle,
                     unsigned pselBits, unsigned epochLen)
    : RecencyStackPolicy(ways), control_(throttle, pselBits, epochLen)
{
    require(ways >= 2, "DipPolicy: needs at least 2 ways");
}

void
DipPolicy::reset()
{
    RecencyStackPolicy::reset();
    control_.reset();
}

void
DipPolicy::touch(Way way)
{
    checkWay(way);
    moveToMru(way);
    control_.touch();
}

void
DipPolicy::fill(Way way)
{
    checkWay(way);
    // Constituent A (LRU) inserts at MRU; constituent B (BIP) at LRU
    // except for its 1-in-throttle MRU fill.
    insert(way, control_.fill());
}

PolicyPtr
DipPolicy::clone() const
{
    return std::make_unique<DipPolicy>(*this);
}

std::string
DipPolicy::stateKey() const
{
    return RecencyStackPolicy::stateKey() + ":" + control_.stateKey();
}

Factorization
DipPolicy::factorization() const
{
    Factorization parts{std::make_unique<RecencyCore>(ways_),
                        control_.clone()};
    parts.control->reset();
    return parts;
}

} // namespace recap::policy
