#include "recap/policy/lru.hh"

#include <algorithm>

#include "recap/common/error.hh"

namespace recap::policy
{

RecencyStackPolicy::RecencyStackPolicy(unsigned ways)
    : ReplacementPolicy(ways)
{
    RecencyStackPolicy::reset();
}

void
RecencyStackPolicy::reset()
{
    stack_.resize(ways_);
    // Initial order: way 0 is MRU, way ways-1 is the first victim.
    for (unsigned i = 0; i < ways_; ++i)
        stack_[i] = i;
}

void
RecencyStackPolicy::touch(Way way)
{
    checkWay(way);
    moveToMru(way);
}

Way
RecencyStackPolicy::victim() const
{
    return stack_.back();
}

std::string
RecencyStackPolicy::stateKey() const
{
    std::string key;
    key.reserve(stack_.size());
    for (Way w : stack_)
        key.push_back(static_cast<char>('a' + w));
    return key;
}

void
RecencyStackPolicy::insert(Way way, bool atLru)
{
    checkWay(way);
    if (atLru)
        moveToLru(way);
    else
        moveToMru(way);
}

void
RecencyStackPolicy::moveToMru(Way way)
{
    auto it = std::find(stack_.begin(), stack_.end(), way);
    ensure(it != stack_.end(), "RecencyStackPolicy: way missing in stack");
    stack_.erase(it);
    stack_.insert(stack_.begin(), way);
}

void
RecencyStackPolicy::moveToLru(Way way)
{
    auto it = std::find(stack_.begin(), stack_.end(), way);
    ensure(it != stack_.end(), "RecencyStackPolicy: way missing in stack");
    stack_.erase(it);
    stack_.push_back(way);
}

unsigned
RecencyStackPolicy::positionOf(Way way) const
{
    auto it = std::find(stack_.begin(), stack_.end(), way);
    ensure(it != stack_.end(), "RecencyStackPolicy: way missing in stack");
    return static_cast<unsigned>(it - stack_.begin());
}

LruPolicy::LruPolicy(unsigned ways)
    : RecencyStackPolicy(ways)
{}

void
LruPolicy::fill(Way way)
{
    insert(way, false);
}

PolicyPtr
LruPolicy::clone() const
{
    return std::make_unique<LruPolicy>(*this);
}

LipPolicy::LipPolicy(unsigned ways)
    : RecencyStackPolicy(ways)
{}

void
LipPolicy::fill(Way way)
{
    insert(way, true);
}

PolicyPtr
LipPolicy::clone() const
{
    return std::make_unique<LipPolicy>(*this);
}

BipPolicy::BipPolicy(unsigned ways, unsigned throttle)
    : RecencyStackPolicy(ways), control_(throttle)
{}

void
BipPolicy::reset()
{
    RecencyStackPolicy::reset();
    control_.reset();
}

void
BipPolicy::fill(Way way)
{
    // The 1-in-throttle fill gets full retention priority; all others
    // are inserted as immediate eviction candidates.
    checkWay(way);
    insert(way, control_.fill());
}

PolicyPtr
BipPolicy::clone() const
{
    return std::make_unique<BipPolicy>(*this);
}

std::string
BipPolicy::stateKey() const
{
    return RecencyStackPolicy::stateKey() + ":" + control_.stateKey();
}

Factorization
BipPolicy::factorization() const
{
    return {std::make_unique<RecencyCore>(ways_),
            std::make_unique<ThrottleControl>(control_.throttle())};
}

} // namespace recap::policy
