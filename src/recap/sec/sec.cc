#include "recap/sec/sec.hh"

#include <optional>

namespace recap::sec
{

std::string
outcomeName(SecOutcome outcome)
{
    switch (outcome) {
      case SecOutcome::kComplete:
        return "complete";
      case SecOutcome::kOverBudget:
        return "over-budget";
      case SecOutcome::kNotCompiled:
        return "not-compiled";
    }
    return "unknown";
}

std::optional<policy::CompiledTableView>
viewForSpec(const std::string& spec, unsigned ways,
            const SecBudget& budget)
{
    // A factored table has no explicit state set to search.
    auto table = policy::compiledTableFor(spec, ways, budget.compile);
    if (!table || table->factored())
        return std::nullopt;
    return policy::CompiledTableView(std::move(table));
}

} // namespace recap::sec
