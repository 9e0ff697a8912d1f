/**
 * @file
 * The L* observation table: the learner's evidence structure.
 *
 * Rows are access words (prefixes) — the short prefixes S plus their
 * one-symbol extensions S·A — and columns are distinguishing
 * suffixes E. Cell (u, e) holds the hit/miss outputs of e's symbols
 * when u·e is replayed from a flush. Two prefixes with equal rows
 * are (as far as the evidence goes) the same SUL state.
 *
 * The table is backed by a PrefixStore of *whole-word* outcomes:
 * because every membership query observes every position, one
 * answered word fills the cells of all its prefixes at once, and the
 * same store doubles as the teacher-consistency ledger. Rows are
 * addressed by their node in the store's evidence trie: a cell read
 * walks the suffix down from the row's node, and only the missing
 * cells are ever materialized as words. S stays
 * prefix-closed and its rows pairwise distinct (the Rivest–Schapire
 * discipline), which keeps the table consistent by construction;
 * isConsistent() still verifies it for the invariant tests.
 *
 * E always contains every single-symbol suffix, so a closed table
 * directly yields a well-defined Mealy hypothesis.
 */

#ifndef RECAP_LEARN_OBSERVATION_TABLE_HH_
#define RECAP_LEARN_OBSERVATION_TABLE_HH_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "recap/learn/mealy.hh"
#include "recap/learn/teacher.hh"

namespace recap::learn
{

/** The L* observation table over a dense learner alphabet. */
class ObservationTable
{
  public:
    /**
     * Starts with S = {ε} and E = all single-symbol suffixes.
     * @param alphabet Learner alphabet size (>= 1).
     */
    explicit ObservationTable(unsigned alphabet);

    unsigned alphabet() const { return alphabet_; }

    /** Short prefixes S, in insertion order (prefix-closed). */
    const std::vector<Word>& prefixes() const { return prefixes_; }

    /** Distinguishing suffixes E, in insertion order. */
    const std::vector<Word>& suffixes() const { return suffixes_; }

    /** The evidence ledger (also records equivalence-test words). */
    PrefixStore& store() { return store_; }
    const PrefixStore& store() const { return store_; }

    /**
     * Words u·e (u in S ∪ S·A, e in E) whose outcome is not yet in
     * the store, deduplicated, in deterministic order. Empty means
     * the table is filled.
     */
    std::vector<Word> missingWords() const;

    /** True iff every cell is answerable from the store. */
    bool filled() const { return missingWords().empty(); }

    /**
     * Row signature of prefix @p u: the concatenated cell outputs
     * over E. Requires the table to be filled for @p u.
     */
    std::string rowKey(const Word& u) const;

    /**
     * Closedness: every row of S·A equals the row of some prefix in
     * S. When it fails, @p witness (if non-null) receives the first
     * offending extension — the prefix to promote into S.
     * Requires filled().
     */
    bool isClosed(Word* witness = nullptr) const;

    /**
     * Consistency: prefixes with equal rows have equal extension
     * rows for every symbol. Holds by construction under the
     * distinct-rows discipline; exposed for the invariant tests.
     * Requires filled().
     */
    bool isConsistent() const;

    /**
     * Moves extension @p u into S (it must extend a current S prefix
     * by one symbol). Returns false (no-op) if already present.
     */
    bool promote(const Word& u);

    /** Adds suffix @p e to E. Returns false (no-op) if present. */
    bool addSuffix(const Word& e);

    /**
     * Builds the hypothesis machine from a filled, closed table:
     * states are the distinct rows of S (state 0 = row(ε)),
     * transitions follow row(u·a), outputs come from the
     * single-symbol cells. Also returns, per state, the access word
     * (its S prefix) via @p accessWords when non-null.
     */
    MealyMachine
    buildHypothesis(std::vector<Word>* accessWords = nullptr) const;

  private:
    using Node = PrefixStore::Node;

    /**
     * One row of S ∪ S·A, addressed by its trie node. The key
     * accumulates cell outputs suffix by suffix (cells are immutable
     * once recorded, and E only grows, so nothing ever invalidates).
     */
    struct Row
    {
        Node node = PrefixStore::kRoot;
        bool isShort = false;
        std::string key;
        std::size_t suffixesDone = 0;
    };

    struct WordHash
    {
        std::size_t operator()(const Word& word) const;
    };

    /**
     * Advances @p row's key over newly answerable suffixes; when
     * @p missing is non-null, unanswerable cell words are appended
     * there. Returns true iff the row is complete.
     */
    bool refreshRow(Row& row, std::vector<Word>* missing) const;

    /** Complete key of row @p row (requires all cells recorded). */
    const std::string& completeKey(uint32_t row) const;

    /** The row addressed by @p node, created if new. */
    uint32_t rowFor(Node node);

    /** Appends @p u (row @p row) to S along with its S·A rows. */
    void addShort(const Word& u, uint32_t row);

    unsigned alphabet_;
    PrefixStore store_;
    std::vector<Word> prefixes_;
    /** Row of each S prefix, in S order. */
    std::vector<uint32_t> shortRows_;
    /** Row of S prefix i extended by a, at [i * alphabet_ + a]. */
    std::vector<uint32_t> extensionRows_;
    std::vector<Word> suffixes_;
    std::unordered_set<Word, WordHash> suffixSet_;
    std::unordered_map<Node, uint32_t> rowOfNode_;
    mutable std::vector<Row> rows_;
};

} // namespace recap::learn

#endif // RECAP_LEARN_OBSERVATION_TABLE_HH_
