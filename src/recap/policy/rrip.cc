#include "recap/policy/rrip.hh"

#include <algorithm>
#include <bit>

#include "recap/common/error.hh"

namespace recap::policy
{

SrripPolicy::SrripPolicy(unsigned ways, unsigned bits)
    : ReplacementPolicy(ways), bits_(bits),
      maxRrpv_((1u << bits) - 1)
{
    require(bits >= 1 && bits <= 8, "SrripPolicy: bits must be in [1,8]");
    SrripPolicy::reset();
}

void
SrripPolicy::reset()
{
    // All lines start distant, i.e. immediately evictable.
    rrpv_.assign(ways_, maxRrpv_);
}

void
SrripPolicy::touch(Way way)
{
    checkWay(way);
    rrpv_[way] = 0; // hit promotion (HP variant)
}

Way
SrripPolicy::victim() const
{
    Way v = findVictim(rrpv_);
    if (v < ways_)
        return v;
    // Functionally age a copy until a victim appears.
    std::vector<unsigned> aged = rrpv_;
    while (true) {
        const unsigned max_seen = *std::max_element(aged.begin(),
                                                    aged.end());
        const unsigned delta = maxRrpv_ - max_seen;
        for (auto& r : aged)
            r += delta ? delta : 1;
        for (auto& r : aged)
            r = std::min(r, maxRrpv_);
        v = findVictim(aged);
        if (v < ways_)
            return v;
    }
}

void
SrripPolicy::fill(Way way)
{
    checkWay(way);
    insert(way, insertionRrpv());
}

void
SrripPolicy::insert(Way way, unsigned rrpv)
{
    checkWay(way);
    // Commit the aging victim() modelled, then insert.
    ageUntilVictimExists();
    rrpv_[way] = rrpv;
}

std::string
SrripPolicy::name() const
{
    return "SRRIP" + std::to_string(bits_);
}

PolicyPtr
SrripPolicy::clone() const
{
    return std::make_unique<SrripPolicy>(*this);
}

std::string
SrripPolicy::stateKey() const
{
    std::string key;
    key.reserve(rrpv_.size());
    for (unsigned r : rrpv_)
        key.push_back(static_cast<char>('0' + r));
    return key;
}

unsigned
SrripPolicy::insertionRrpv()
{
    return maxRrpv_ == 0 ? 0 : maxRrpv_ - 1;
}

void
SrripPolicy::ageUntilVictimExists()
{
    if (findVictim(rrpv_) < ways_)
        return;
    const unsigned max_seen = *std::max_element(rrpv_.begin(),
                                                rrpv_.end());
    const unsigned delta = maxRrpv_ - max_seen;
    for (auto& r : rrpv_)
        r = std::min(r + (delta ? delta : 1), maxRrpv_);
    ensure(findVictim(rrpv_) < ways_,
           "SrripPolicy: aging failed to expose a victim");
}

Way
SrripPolicy::findVictim(const std::vector<unsigned>& rrpv) const
{
    for (unsigned w = 0; w < ways_; ++w)
        if (rrpv[w] == maxRrpv_)
            return w;
    return ways_;
}

std::string
RrpvCore::name() const
{
    return "rrpv" + std::to_string(std::bit_width(rrip_.maxRrpv()));
}

void
RrpvCore::fill(Way way, bool alt)
{
    const unsigned max = rrip_.maxRrpv();
    rrip_.insert(way, alt ? max : max - 1);
}

BrripPolicy::BrripPolicy(unsigned ways, unsigned bits, unsigned throttle)
    : SrripPolicy(ways, bits), control_(throttle)
{}

void
BrripPolicy::reset()
{
    SrripPolicy::reset();
    control_.reset();
}

std::string
BrripPolicy::name() const
{
    return "BRRIP" + std::to_string(bits_);
}

PolicyPtr
BrripPolicy::clone() const
{
    return std::make_unique<BrripPolicy>(*this);
}

std::string
BrripPolicy::stateKey() const
{
    return SrripPolicy::stateKey() + ":" + control_.stateKey();
}

Factorization
BrripPolicy::factorization() const
{
    return {std::make_unique<RrpvCore>(ways_, bits_),
            std::make_unique<ThrottleControl>(control_.throttle())};
}

unsigned
BrripPolicy::insertionRrpv()
{
    // The 1-in-throttle fill gets the "long" prediction, all others
    // the "distant" one.
    return control_.fill() ? maxRrpv_ : maxRrpv_ - 1;
}

} // namespace recap::policy
