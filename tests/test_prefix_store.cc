/**
 * @file
 * Differential tests of the learner's evidence trie (PrefixStore)
 * against a word-keyed std::map reference kept here: recordings
 * (consistency and first conflict), lookups of recorded, unrecorded,
 * partially recorded and empty words, the recorded-prefix count, and
 * the free counterexample pass (countMismatches / firstMismatch with
 * its shortest-then-lexicographic tie-break) over random Mealy
 * machines, for alphabets 2–9 with injected conflicts.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "recap/common/error.hh"
#include "recap/common/rng.hh"
#include "recap/learn/mealy.hh"
#include "recap/learn/teacher.hh"

namespace
{

using namespace recap;
using learn::MealyMachine;
using learn::PrefixStore;
using learn::Symbol;
using learn::Word;

/** The word-keyed ledger the trie must reproduce exactly. */
class ReferenceStore
{
  public:
    PrefixStore::Recording record(const Word& word,
                                  const std::vector<bool>& outputs)
    {
        PrefixStore::Recording recording;
        Word prefix;
        for (std::size_t i = 0; i < word.size(); ++i) {
            prefix.push_back(word[i]);
            const auto [it, inserted] =
                outcomes_.try_emplace(prefix, outputs[i]);
            if (!inserted && it->second != outputs[i]) {
                recording.consistent = false;
                recording.conflictAt = i + 1;
                return recording;
            }
        }
        return recording;
    }

    int lookup(const Word& word) const
    {
        const auto it = outcomes_.find(word);
        return it == outcomes_.end() ? -1 : (it->second ? 1 : 0);
    }

    std::size_t size() const { return outcomes_.size(); }

    uint64_t countMismatches(const MealyMachine& machine) const
    {
        uint64_t mismatches = 0;
        for (const auto& [word, outcome] : outcomes_)
            if (machine.lastOutput(word) != outcome)
                ++mismatches;
        return mismatches;
    }

    std::optional<Word> firstMismatch(const MealyMachine& machine) const
    {
        // std::map orders words lexicographically, so the first
        // mismatch of the smallest length met is the shortlex minimum.
        std::optional<Word> best;
        for (const auto& [word, outcome] : outcomes_) {
            if (best && word.size() >= best->size())
                continue;
            if (machine.lastOutput(word) != outcome)
                best = word;
        }
        return best;
    }

    const std::map<Word, bool>& outcomes() const { return outcomes_; }

  private:
    std::map<Word, bool> outcomes_;
};

MealyMachine
randomMachine(Rng& rng, unsigned alphabet, unsigned maxStates)
{
    const auto states =
        static_cast<unsigned>(rng.nextInRange(1, maxStates));
    MealyMachine machine(states, alphabet);
    for (unsigned s = 0; s < states; ++s)
        for (Symbol a = 0; a < alphabet; ++a)
            machine.setTransition(
                s, a, static_cast<unsigned>(rng.nextBelow(states)),
                rng.nextBelow(2) == 1);
    return machine;
}

Word
randomWord(Rng& rng, unsigned alphabet, unsigned maxLength)
{
    Word word(rng.nextBelow(maxLength + 1));
    for (Symbol& symbol : word)
        symbol = static_cast<Symbol>(rng.nextBelow(alphabet));
    return word;
}

void
expectRecordingsEqual(const PrefixStore::Recording& got,
                      const PrefixStore::Recording& want)
{
    EXPECT_EQ(got.consistent, want.consistent);
    EXPECT_EQ(got.conflictAt, want.conflictAt);
}

TEST(PrefixStore, DifferentialAgainstWordKeyedReference)
{
    for (unsigned alphabet = 2; alphabet <= 9; ++alphabet) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE("alphabet " + std::to_string(alphabet) +
                         ", seed " + std::to_string(seed));
            Rng rng(seed * 1000 + alphabet);
            // Mostly answered by one "SUL", with a garbling rate high
            // enough that conflicts occur at every depth.
            const MealyMachine sul = randomMachine(rng, alphabet, 5);
            PrefixStore trie(alphabet);
            ReferenceStore reference;
            std::vector<Word> recorded;
            unsigned conflicts = 0;
            for (unsigned n = 0; n < 400; ++n) {
                Word word = n % 5 == 4 && !recorded.empty()
                                ? recorded[rng.nextBelow(
                                      recorded.size())]
                                : randomWord(rng, alphabet, 10);
                std::vector<bool> outputs = sul.run(word);
                for (std::size_t i = 0; i < outputs.size(); ++i)
                    if (rng.nextBelow(40) == 0)
                        outputs[i] = !outputs[i];
                const auto want = reference.record(word, outputs);
                expectRecordingsEqual(trie.record(word, outputs),
                                      want);
                conflicts += want.consistent ? 0 : 1;
                recorded.push_back(std::move(word));
                ASSERT_EQ(trie.size(), reference.size());
            }
            EXPECT_GT(conflicts, 0u);

            // Every recorded prefix, with its exact outcome.
            for (const auto& [word, outcome] : reference.outcomes())
                ASSERT_EQ(trie.lookup(word), outcome ? 1 : 0);
            // Fresh words, extensions of recorded words (partially
            // recorded) and the empty word.
            EXPECT_EQ(trie.lookup({}), -1);
            for (unsigned n = 0; n < 300; ++n) {
                Word word = randomWord(rng, alphabet, 14);
                EXPECT_EQ(trie.lookup(word), reference.lookup(word));
                Word extended = recorded[rng.nextBelow(recorded.size())];
                const Word tail = randomWord(rng, alphabet, 4);
                extended.insert(extended.end(), tail.begin(), tail.end());
                EXPECT_EQ(trie.lookup(extended),
                          reference.lookup(extended));
            }

            // The free counterexample pass.
            EXPECT_EQ(trie.countMismatches(sul),
                      reference.countMismatches(sul));
            EXPECT_EQ(trie.firstMismatch(sul),
                      reference.firstMismatch(sul));
            for (unsigned m = 0; m < 12; ++m) {
                const MealyMachine machine =
                    randomMachine(rng, alphabet, 6);
                EXPECT_EQ(trie.countMismatches(machine),
                          reference.countMismatches(machine));
                EXPECT_EQ(trie.firstMismatch(machine),
                          reference.firstMismatch(machine));
            }
        }
    }
}

TEST(PrefixStore, ConsistentEvidenceHasNoMismatchAgainstItsSource)
{
    Rng rng(7);
    const MealyMachine sul = randomMachine(rng, 4, 6);
    PrefixStore trie(4);
    for (unsigned n = 0; n < 200; ++n) {
        const Word word = randomWord(rng, 4, 12);
        EXPECT_TRUE(trie.record(word, sul.run(word)).consistent);
    }
    EXPECT_EQ(trie.countMismatches(sul), 0u);
    EXPECT_FALSE(trie.firstMismatch(sul).has_value());
}

TEST(PrefixStore, FirstMismatchIsShortestThenLexicographicallySmallest)
{
    // One state; every output is a miss. Recorded hits are the
    // mismatches: {1, 0} and {0, 1} tie on length, {2} is shorter
    // than both but recorded later, {1, 1, 1} is longer.
    MealyMachine allMiss(1, 3);
    for (Symbol a = 0; a < 3; ++a)
        allMiss.setTransition(0, a, 0, false);
    PrefixStore trie(3);
    trie.record({1, 1, 1}, {false, false, true});
    trie.record({1, 0}, {false, true});
    trie.record({0, 1}, {false, true});
    EXPECT_EQ(trie.firstMismatch(allMiss), (Word{0, 1}));
    EXPECT_EQ(trie.countMismatches(allMiss), 3u);
    trie.record({2}, {true});
    EXPECT_EQ(trie.firstMismatch(allMiss), (Word{2}));
    EXPECT_EQ(trie.countMismatches(allMiss), 4u);
}

TEST(PrefixStore, ConflictKeepsTheFirstRecordingAndStopsThere)
{
    PrefixStore trie(2);
    EXPECT_TRUE(trie.record({0, 1}, {false, true}).consistent);
    const auto conflict = trie.record({0, 1, 1}, {false, false, true});
    EXPECT_FALSE(conflict.consistent);
    EXPECT_EQ(conflict.conflictAt, 2u);
    EXPECT_EQ(trie.lookup({0, 1}), 1);   // not overwritten
    EXPECT_EQ(trie.lookup({0, 1, 1}), -1); // not recorded past it
    EXPECT_EQ(trie.size(), 2u);
}

TEST(PrefixStore, UnrecordedNodesAreNotEvidence)
{
    // Nodes created by addressing (as observation-table rows are)
    // carry no outcome until a word through them is recorded.
    PrefixStore trie(2);
    const auto node = trie.extend(trie.extend(PrefixStore::kRoot, 1), 0);
    EXPECT_EQ(trie.wordOf(node), (Word{1, 0}));
    EXPECT_EQ(trie.find({1, 0}), node);
    EXPECT_EQ(trie.size(), 0u);
    EXPECT_EQ(trie.lookup({1, 0}), -1);
    MealyMachine machine(1, 2);
    EXPECT_EQ(trie.countMismatches(machine), 0u);
    EXPECT_TRUE(trie.record({1, 0}, {true, true}).consistent);
    EXPECT_EQ(trie.size(), 2u);
    EXPECT_EQ(trie.outcome(node), 1);
    EXPECT_EQ(trie.firstMismatch(machine), (Word{1}));
}

TEST(PrefixStore, RejectsMisuse)
{
    EXPECT_THROW(PrefixStore(0), UsageError);
    PrefixStore trie(2);
    EXPECT_THROW(trie.record({0, 2}, {false, false}), UsageError);
    EXPECT_THROW(trie.record({0}, {false, true}), UsageError);
    EXPECT_EQ(trie.lookup({5}), -1); // outside the alphabet: unknown
    EXPECT_THROW(trie.countMismatches(MealyMachine(1, 3)), UsageError);
}

} // namespace
