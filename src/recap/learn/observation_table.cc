#include "recap/learn/observation_table.hh"

#include <algorithm>
#include <optional>
#include <string_view>

#include "recap/common/error.hh"

namespace recap::learn
{

std::size_t
ObservationTable::WordHash::operator()(const Word& word) const
{
    // FNV-1a over the symbols.
    uint64_t hash = 14695981039346656037ull;
    for (Symbol symbol : word) {
        hash ^= symbol;
        hash *= 1099511628211ull;
    }
    return static_cast<std::size_t>(hash);
}

ObservationTable::ObservationTable(unsigned alphabet)
    : alphabet_(alphabet), store_(alphabet)
{
    require(alphabet >= 1, "ObservationTable: empty alphabet");
    addShort({}, rowFor(PrefixStore::kRoot));
    for (Symbol a = 0; a < alphabet; ++a)
        addSuffix({a});
}

uint32_t
ObservationTable::rowFor(Node node)
{
    const auto [it, inserted] = rowOfNode_.try_emplace(
        node, static_cast<uint32_t>(rows_.size()));
    if (inserted)
        rows_.push_back(Row{node, false, {}, 0});
    return it->second;
}

void
ObservationTable::addShort(const Word& u, uint32_t row)
{
    rows_[row].isShort = true;
    const Node node = rows_[row].node;
    prefixes_.push_back(u);
    shortRows_.push_back(row);
    for (Symbol a = 0; a < alphabet_; ++a)
        extensionRows_.push_back(rowFor(store_.extend(node, a)));
}

bool
ObservationTable::refreshRow(Row& row, std::vector<Word>* missing) const
{
    // Cells are answered by whole-word recordings (every prefix of an
    // answered word is recorded), so cell (row, e) is known iff every
    // node on e's path below the row's node is. The key only grows
    // in suffix order, so it advances up to the first gap; later
    // suffixes are still scanned to batch all of the row's missing
    // words at once.
    bool advancing = true;
    std::optional<Word> rowWord;
    for (std::size_t idx = row.suffixesDone; idx < suffixes_.size();
         ++idx) {
        const Word& e = suffixes_[idx];
        const std::size_t keyBefore = row.key.size();
        Node node = row.node;
        bool known = true;
        for (Symbol symbol : e) {
            node = store_.child(node, symbol);
            const int outcome = store_.outcome(node);
            if (outcome < 0) {
                known = false;
                break;
            }
            if (advancing)
                row.key += outcome ? '1' : '0';
        }
        if (known) {
            if (advancing) {
                row.key += ';';
                ++row.suffixesDone;
            }
            continue;
        }
        if (advancing)
            row.key.resize(keyBefore);
        advancing = false;
        if (missing == nullptr)
            return false;
        // The full row·e word; answering it records every
        // intermediate prefix at once.
        if (!rowWord)
            rowWord = store_.wordOf(row.node);
        Word full = *rowWord;
        full.insert(full.end(), e.begin(), e.end());
        missing->push_back(std::move(full));
    }
    return advancing;
}

const std::string&
ObservationTable::completeKey(uint32_t row) const
{
    if (!refreshRow(rows_[row], nullptr))
        require(false, "ObservationTable: row not filled");
    return rows_[row].key;
}

std::vector<Word>
ObservationTable::missingWords() const
{
    std::vector<Word> missing;
    for (Row& row : rows_)
        refreshRow(row, &missing);
    std::sort(missing.begin(), missing.end());
    missing.erase(std::unique(missing.begin(), missing.end()),
                  missing.end());
    return missing;
}

std::string
ObservationTable::rowKey(const Word& u) const
{
    const Node node = store_.find(u);
    if (node != PrefixStore::kNone) {
        const auto it = rowOfNode_.find(node);
        if (it != rowOfNode_.end())
            return completeKey(it->second);
    }
    // Not a table row: read its cells without caching them.
    Row row{node, false, {}, 0};
    require(node != PrefixStore::kNone && refreshRow(row, nullptr),
            "ObservationTable: row not filled");
    return row.key;
}

bool
ObservationTable::isClosed(Word* witness) const
{
    // Views into the short rows' keys stay valid below: refreshing
    // a row only ever appends to that row's own key, and short rows
    // are complete once their key is taken.
    std::unordered_set<std::string_view> shortKeys;
    for (uint32_t row : shortRows_)
        shortKeys.insert(completeKey(row));
    for (std::size_t i = 0; i < prefixes_.size(); ++i) {
        for (Symbol a = 0; a < alphabet_; ++a) {
            const uint32_t ext = extensionRows_[i * alphabet_ + a];
            if (!shortKeys.count(completeKey(ext))) {
                if (witness != nullptr) {
                    *witness = prefixes_[i];
                    witness->push_back(a);
                }
                return false;
            }
        }
    }
    return true;
}

bool
ObservationTable::isConsistent() const
{
    std::unordered_map<std::string_view, std::size_t> byRow;
    for (std::size_t i = 0; i < prefixes_.size(); ++i) {
        const auto [it, inserted] =
            byRow.try_emplace(completeKey(shortRows_[i]), i);
        if (inserted)
            continue;
        for (Symbol a = 0; a < alphabet_; ++a) {
            const uint32_t ext1 =
                extensionRows_[it->second * alphabet_ + a];
            const uint32_t ext2 = extensionRows_[i * alphabet_ + a];
            if (completeKey(ext1) != completeKey(ext2))
                return false;
        }
    }
    return true;
}

bool
ObservationTable::promote(const Word& u)
{
    // Every row is in S or S·A, so a word that is a row but not
    // short extends a current S prefix by one symbol.
    const Node node = store_.find(u);
    const auto it = node == PrefixStore::kNone ? rowOfNode_.end()
                                               : rowOfNode_.find(node);
    if (it != rowOfNode_.end() && rows_[it->second].isShort)
        return false;
    require(!u.empty(), "ObservationTable::promote: empty word");
    require(it != rowOfNode_.end(),
            "ObservationTable::promote: would break prefix closure");
    addShort(u, it->second);
    return true;
}

bool
ObservationTable::addSuffix(const Word& e)
{
    require(!e.empty(), "ObservationTable::addSuffix: empty suffix");
    if (!suffixSet_.insert(e).second)
        return false;
    suffixes_.push_back(e);
    return true;
}

MealyMachine
ObservationTable::buildHypothesis(std::vector<Word>* accessWords) const
{
    // States = distinct S rows, numbered by first appearance in S
    // (so state 0 = row(ε), as S starts with ε).
    std::unordered_map<std::string_view, unsigned> stateOf;
    std::vector<std::size_t> representative;
    for (std::size_t i = 0; i < prefixes_.size(); ++i) {
        const auto [it, inserted] = stateOf.try_emplace(
            completeKey(shortRows_[i]),
            static_cast<unsigned>(representative.size()));
        if (inserted)
            representative.push_back(i);
    }

    MealyMachine machine(
        static_cast<unsigned>(representative.size()), alphabet_);
    for (unsigned s = 0; s < representative.size(); ++s) {
        for (Symbol a = 0; a < alphabet_; ++a) {
            const uint32_t ext =
                extensionRows_[representative[s] * alphabet_ + a];
            const auto it = stateOf.find(completeKey(ext));
            require(it != stateOf.end(),
                    "ObservationTable::buildHypothesis: table is "
                    "not closed");
            const int outcome = store_.outcome(rows_[ext].node);
            require(outcome >= 0,
                    "ObservationTable::buildHypothesis: cell not "
                    "filled");
            machine.setTransition(s, a, it->second, outcome != 0);
        }
    }
    if (accessWords != nullptr) {
        accessWords->clear();
        for (std::size_t i : representative)
            accessWords->push_back(prefixes_[i]);
    }
    return machine;
}

} // namespace recap::learn
