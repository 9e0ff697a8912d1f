#include "recap/policy/drrip.hh"

#include "recap/common/error.hh"

namespace recap::policy
{

DrripPolicy::DrripPolicy(unsigned ways, unsigned bits,
                         unsigned throttle, unsigned pselBits,
                         unsigned epochLen)
    : SrripPolicy(ways, bits), control_(throttle, pselBits, epochLen)
{
    require(ways >= 2, "DrripPolicy: needs at least 2 ways");
}

void
DrripPolicy::reset()
{
    SrripPolicy::reset();
    control_.reset();
}

void
DrripPolicy::touch(Way way)
{
    SrripPolicy::touch(way);
    control_.touch();
}

void
DrripPolicy::fill(Way way)
{
    checkWay(way);
    // SRRIP constituent inserts long; BRRIP inserts distant except
    // for the 1-in-throttle long insert.
    insert(way, control_.fill() ? maxRrpv_ : maxRrpv_ - 1);
}

std::string
DrripPolicy::name() const
{
    return "DRRIP" + std::to_string(bits_);
}

PolicyPtr
DrripPolicy::clone() const
{
    return std::make_unique<DrripPolicy>(*this);
}

std::string
DrripPolicy::stateKey() const
{
    return SrripPolicy::stateKey() + ":" + control_.stateKey();
}

Factorization
DrripPolicy::factorization() const
{
    Factorization parts{std::make_unique<RrpvCore>(ways_, bits_),
                        control_.clone()};
    parts.control->reset();
    return parts;
}

} // namespace recap::policy
