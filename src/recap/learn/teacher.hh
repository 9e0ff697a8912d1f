/**
 * @file
 * The learner's view of the system under learning: a Teacher answers
 * batches of membership words ("replay this access sequence from a
 * flush and report every hit/miss") and keeps cost counters.
 *
 * OracleTeacher adapts any query::QueryOracle — the replay-exact
 * PolicyOracle or the measuring MachineOracle — by compiling each
 * word into an observe-all membership query and answering whole
 * batches through evaluateBatch(), so observation-table rows ride
 * the prefix-sharing evaluator (rows extend each other by
 * construction, which is where the learner's measurement savings
 * come from) and machine-side answers inherit the robust voting /
 * abstention semantics of PR 3: an answer whose probes did not all
 * reach a quorum is flagged !determined, and the learner abstains
 * instead of learning from noise.
 *
 * PrefixStore is the teacher-consistency ledger: every answered word
 * contributes the outcome of each of its prefixes (one walk down an
 * evidence trie), and a later answer that contradicts a recorded
 * prefix exposes a garbled (fault-injected) teacher. The learner
 * turns such conflicts into LearnOutcome::kAbstained rather than a
 * wrong automaton.
 */

#ifndef RECAP_LEARN_TEACHER_HH_
#define RECAP_LEARN_TEACHER_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "recap/learn/mealy.hh"
#include "recap/query/oracle.hh"

namespace recap::learn
{

/** One answered membership word. */
struct TeacherAnswer
{
    /** Hit/miss outcome of every position, in access order. */
    std::vector<bool> outputs;

    /**
     * False when any position failed to reach a vote quorum (the
     * outputs are then untrustworthy and the learner must abstain).
     */
    bool determined = true;

    /** Lowest per-position vote confidence behind the answer. */
    double confidence = 1.0;
};

/** Answers membership words; the learner's only window on the SUL. */
class Teacher
{
  public:
    virtual ~Teacher() = default;

    /** Associativity of the set under learning. */
    virtual unsigned ways() const = 0;

    /** Human-readable backend description. */
    virtual std::string describe() const = 0;

    /**
     * Answers every word of @p words (each replayed from a flushed
     * set), in input order.
     */
    virtual std::vector<TeacherAnswer>
    answer(const std::vector<Word>& words) = 0;

    /** Membership words asked so far. */
    virtual uint64_t wordsAsked() const = 0;

    /** Accesses/loads the answers cost so far. */
    virtual uint64_t accessesUsed() const = 0;

    /** Experiments the answers cost so far. */
    virtual uint64_t experimentsUsed() const = 0;
};

/** Teacher over a query::QueryOracle backend. */
class OracleTeacher : public Teacher
{
  public:
    /**
     * Borrows @p oracle. @p batch controls prefix sharing and the
     * policy backend's worker threads; the cost counters below
     * measure this teacher only (not other users of the oracle).
     */
    explicit OracleTeacher(query::QueryOracle& oracle,
                           const query::BatchOptions& batch = {});

    unsigned ways() const override;
    std::string describe() const override;
    std::vector<TeacherAnswer>
    answer(const std::vector<Word>& words) override;
    uint64_t wordsAsked() const override { return wordsAsked_; }
    uint64_t accessesUsed() const override { return accesses_; }
    uint64_t experimentsUsed() const override { return experiments_; }

    /** Cumulative batch statistics (prefix-sharing accounting). */
    const query::BatchStats& batchStats() const { return stats_; }

  private:
    query::QueryOracle& oracle_;
    query::BatchOptions batch_;
    query::BatchStats stats_;
    uint64_t wordsAsked_ = 0;
    uint64_t accesses_ = 0;
    uint64_t experiments_ = 0;
};

/**
 * Prefix-consistency ledger over answered words, kept as an evidence
 * trie: node n stands for one word (the root for ε), children are
 * dense per-symbol slots over the learner alphabet, and each node
 * carries the recorded outcome of its word's last symbol (or none).
 *
 * Deterministic teachers answer every prefix identically wherever it
 * occurs; record() reports a conflict (without overwriting the first
 * recording) when they don't. Nodes may also exist without an
 * outcome: the observation table addresses its rows by node before
 * their cells are answered.
 */
class PrefixStore
{
  public:
    /** Trie node handle; kRoot is ε. */
    using Node = uint32_t;

    static constexpr Node kRoot = 0;

    /** "No such node" (a walk fell off the trie). */
    static constexpr Node kNone = UINT32_MAX;

    /** Result of recording one answered word. */
    struct Recording
    {
        /** False iff some prefix contradicted an earlier answer. */
        bool consistent = true;

        /** First conflicting prefix length (0 when consistent). */
        std::size_t conflictAt = 0;
    };

    /** @param alphabet Learner alphabet size (>= 1). */
    explicit PrefixStore(unsigned alphabet);

    /** Records the per-prefix outcomes of one answered word. */
    Recording record(const Word& word,
                     const std::vector<bool>& outputs);

    /**
     * Looks up the recorded outcome of the last symbol of @p word;
     * returns -1 when unknown, else 0/1.
     */
    int lookup(const Word& word) const
    {
        return outcome(walk(kRoot, word.data(),
                            word.data() + word.size()));
    }

    /** Number of distinct recorded prefixes. */
    std::size_t size() const { return recorded_; }

    /** Child of @p node on @p symbol, or kNone. */
    Node child(Node node, Symbol symbol) const
    {
        return symbol < alphabet_
                   ? children_[std::size_t{node} * alphabet_ + symbol]
                   : kNone;
    }

    /**
     * Node reached from @p from (kNone allowed) along
     * [@p first, @p last), or kNone when the trie has no such word.
     */
    Node walk(Node from, const Symbol* first, const Symbol* last) const
    {
        for (; first != last && from != kNone; ++first)
            from = child(from, *first);
        return from;
    }

    /** Node of @p word, or kNone. */
    Node find(const Word& word) const
    {
        return walk(kRoot, word.data(), word.data() + word.size());
    }

    /** Child of @p node on @p symbol, created (unrecorded) if new. */
    Node extend(Node node, Symbol symbol);

    /** Recorded outcome of @p node: -1 unknown (or kNone), else 0/1. */
    int outcome(Node node) const
    {
        return node == kNone ? -1 : outcomes_[node];
    }

    /** The word @p node stands for. */
    Word wordOf(Node node) const;

    /**
     * Checks @p machine (same alphabet) against every recorded
     * prefix outcome; returns the number of disagreements (0 = the
     * hypothesis explains all evidence seen so far).
     */
    uint64_t countMismatches(const MealyMachine& machine) const;

    /**
     * The first (shortest, then lexicographically smallest) recorded
     * word whose outcome @p machine (same alphabet) mispredicts, if
     * any — a free counterexample before any new query is spent.
     */
    std::optional<Word>
    firstMismatch(const MealyMachine& machine) const;

  private:
    /**
     * Breadth-first walk in shortlex order, stepping @p machine
     * alongside; calls @p mismatch(node) for every recorded node the
     * machine mispredicts and stops when it returns false.
     */
    template <typename OnMismatch>
    void mismatchScan(const MealyMachine& machine,
                      OnMismatch mismatch) const;

    unsigned alphabet_;
    /** children_[node * alphabet_ + symbol], kNone when absent. */
    std::vector<Node> children_;
    /** Per-node outcome: -1 unknown, else 0/1. */
    std::vector<int8_t> outcomes_;
    /** Per-node parent (kNone for the root). */
    std::vector<Node> parents_;
    std::size_t recorded_ = 0;
};

} // namespace recap::learn

#endif // RECAP_LEARN_TEACHER_HH_
