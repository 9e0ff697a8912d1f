#include "recap/learn/teacher.hh"

#include <algorithm>

#include "recap/common/error.hh"

namespace recap::learn
{

namespace
{

/** Compiles a word into an observe-every-position query. */
query::CompiledQuery
wordQuery(const Word& word)
{
    std::vector<query::BlockId> blocks;
    blocks.reserve(word.size());
    for (Symbol symbol : word)
        blocks.push_back(static_cast<query::BlockId>(symbol) + 1);
    return query::makeObserveAllQuery(blocks);
}

} // namespace

OracleTeacher::OracleTeacher(query::QueryOracle& oracle,
                             const query::BatchOptions& batch)
    : oracle_(oracle), batch_(batch)
{}

unsigned
OracleTeacher::ways() const
{
    return oracle_.ways();
}

std::string
OracleTeacher::describe() const
{
    return "teacher over " + oracle_.describe();
}

std::vector<TeacherAnswer>
OracleTeacher::answer(const std::vector<Word>& words)
{
    std::vector<query::CompiledQuery> queries;
    queries.reserve(words.size());
    for (const Word& word : words) {
        require(!word.empty(), "OracleTeacher: empty word");
        queries.push_back(wordQuery(word));
    }

    const uint64_t expBefore = oracle_.experimentsRun();
    const uint64_t accBefore = oracle_.accessesIssued();
    const auto verdicts =
        oracle_.evaluateBatch(queries, batch_, &stats_);
    experiments_ += oracle_.experimentsRun() - expBefore;
    accesses_ += oracle_.accessesIssued() - accBefore;
    wordsAsked_ += words.size();

    std::vector<TeacherAnswer> answers(words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
        const query::QueryVerdict& verdict = verdicts[i];
        ensure(verdict.probes.size() == words[i].size(),
               "OracleTeacher: probe count mismatch");
        TeacherAnswer& answer = answers[i];
        answer.outputs.reserve(words[i].size());
        for (const query::ProbeOutcome& probe : verdict.probes) {
            answer.outputs.push_back(probe.hit);
            answer.determined =
                answer.determined && probe.determined;
            answer.confidence =
                std::min(answer.confidence, probe.confidence);
        }
    }
    return answers;
}

PrefixStore::PrefixStore(unsigned alphabet)
    : alphabet_(alphabet), children_(alphabet, kNone), outcomes_{-1},
      parents_{kNone}
{
    require(alphabet >= 1, "PrefixStore: empty alphabet");
}

PrefixStore::Node
PrefixStore::extend(Node node, Symbol symbol)
{
    if (symbol >= alphabet_)
        require(false, "PrefixStore: symbol outside the alphabet");
    const std::size_t slot = std::size_t{node} * alphabet_ + symbol;
    if (children_[slot] != kNone)
        return children_[slot];
    if (outcomes_.size() >= kNone)
        ensure(false, "PrefixStore: trie node space exhausted");
    const auto created = static_cast<Node>(outcomes_.size());
    children_[slot] = created;
    children_.resize(children_.size() + alphabet_, kNone);
    outcomes_.push_back(-1);
    parents_.push_back(node);
    return created;
}

PrefixStore::Recording
PrefixStore::record(const Word& word, const std::vector<bool>& outputs)
{
    require(word.size() == outputs.size(),
            "PrefixStore::record: length mismatch");
    Recording recording;
    Node node = kRoot;
    for (std::size_t i = 0; i < word.size(); ++i) {
        node = extend(node, word[i]);
        const int8_t observed = outputs[i] ? 1 : 0;
        int8_t& known = outcomes_[node];
        if (known < 0) {
            known = observed;
            ++recorded_;
        } else if (known != observed) {
            recording.consistent = false;
            recording.conflictAt = i + 1;
            return recording;
        }
    }
    return recording;
}

Word
PrefixStore::wordOf(Node node) const
{
    Word word;
    while (node != kRoot) {
        const Node parent = parents_[node];
        const Node* slots = &children_[std::size_t{parent} * alphabet_];
        word.push_back(static_cast<Symbol>(
            std::find(slots, slots + alphabet_, node) - slots));
        node = parent;
    }
    std::reverse(word.begin(), word.end());
    return word;
}

template <typename OnMismatch>
void
PrefixStore::mismatchScan(const MealyMachine& machine,
                          OnMismatch mismatch) const
{
    require(machine.alphabet() == alphabet_,
            "PrefixStore: machine alphabet mismatch");
    // Level by level, parents in shortlex order and children in
    // ascending symbol order: every level comes out in shortlex
    // order, so the first mismatch met is the shortest, then
    // lexicographically smallest one.
    const MealyMachine::Walker walker(machine);
    std::vector<std::pair<Node, uint32_t>> level{{kRoot, 0}};
    std::vector<std::pair<Node, uint32_t>> nextLevel;
    while (!level.empty()) {
        nextLevel.clear();
        for (const auto& [node, state] : level) {
            const Node* slots =
                &children_[std::size_t{node} * alphabet_];
            for (Symbol a = 0; a < alphabet_; ++a) {
                const Node next = slots[a];
                if (next == kNone)
                    continue;
                const int8_t known = outcomes_[next];
                if (known >= 0 &&
                    walker.output(state, a) != (known != 0) &&
                    !mismatch(next)) {
                    return;
                }
                nextLevel.emplace_back(next, walker.next(state, a));
            }
        }
        level.swap(nextLevel);
    }
}

uint64_t
PrefixStore::countMismatches(const MealyMachine& machine) const
{
    uint64_t mismatches = 0;
    mismatchScan(machine, [&](Node) {
        ++mismatches;
        return true;
    });
    return mismatches;
}

std::optional<Word>
PrefixStore::firstMismatch(const MealyMachine& machine) const
{
    std::optional<Word> first;
    mismatchScan(machine, [&](Node node) {
        first = wordOf(node);
        return false;
    });
    return first;
}

} // namespace recap::learn
