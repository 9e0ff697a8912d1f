/**
 * @file
 * Differential tests of the compiled policy automata: a
 * CompiledPolicy must be bit-exact against the interpreted policy it
 * was compiled from — same victims, same state keys — under long
 * random input words, under clone/reset interleavings, and must fall
 * back cleanly when the state space exceeds the compile budget. The
 * tables themselves are pinned by digest, so a faster enumeration
 * cannot renumber states or move the over-budget line unnoticed.
 * FactoredTable.* holds the factored form (core table plus control
 * register) to the interpreted policies, to the monolithic tables
 * and to cache::Cache through every simulation kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "recap/cache/cache.hh"
#include "recap/common/parallel.hh"
#include "recap/common/rng.hh"
#include "recap/eval/kernel.hh"
#include "recap/eval/multi_kernel.hh"
#include "recap/policy/compiled.hh"
#include "recap/policy/factored.hh"
#include "recap/policy/factory.hh"
#include "recap/policy/set_model.hh"
#include "recap/trace/generators.hh"

namespace recap::policy
{
namespace
{

/** Budget the differential suite compiles under: the default up to
 * 8 ways, so every table the library compiles there — the
 * 130 740-state uint32 drrip:1,4,3,4 included — is held to its
 * interpreted policy. 16-way gets a tighter cap — its tractable
 * automata (PLRU, FIFO) are small, and enumerating 2^16-state ones
 * on every test run is time better spent elsewhere. */
CompileBudget
testBudget(unsigned ways = 8)
{
    CompileBudget budget;
    if (ways >= 16)
        budget.maxStates = 1u << 15;
    return budget;
}

/** The baseline catalog plus drrip:1,4,3,4, whose 8-way table is
 * too big for the narrow uint16 mirrors. */
std::vector<std::string>
differentialSpecs()
{
    auto specs = baselineSpecs();
    specs.push_back("drrip:1,4,3,4");
    return specs;
}

class CompiledDifferential
    : public ::testing::TestWithParam<std::string>
{};

/**
 * 10k random touch/fill inputs in lockstep, comparing victim() at
 * every step and stateKey() throughout. Covers ways 2/4/8/16 (where
 * the spec supports them); specs whose automaton exceeds the budget
 * at a given associativity are exercised via the fallback test
 * below instead.
 */
TEST_P(CompiledDifferential, LockstepAgainstInterpreted)
{
    const std::string spec = GetParam();
    for (const unsigned ways : {2u, 4u, 8u, 16u}) {
        if (!specSupportsWays(spec, ways))
            continue;
        const CompiledTablePtr table =
            compiledTableFor(spec, ways, testBudget(ways));
        if (!table)
            continue; // over budget here; see OverBudgetFallsBack
        ASSERT_EQ(table->ways(), ways);

        PolicyPtr interpreted = makePolicy(spec, ways);
        CompiledPolicy compiled(table);
        interpreted->reset();
        compiled.reset();
        ASSERT_EQ(compiled.name(), interpreted->name());

        Rng rng(0xC0FFEE ^ ways);
        uint64_t hits = 0;
        for (unsigned step = 0; step < 10000; ++step) {
            ASSERT_EQ(compiled.victim(), interpreted->victim())
                << spec << " k=" << ways << " step " << step;
            if (rng.nextBelow(2) == 0) {
                const Way w =
                    static_cast<Way>(rng.nextBelow(ways));
                compiled.touch(w);
                interpreted->touch(w);
                ++hits;
            } else {
                const Way w =
                    static_cast<Way>(rng.nextBelow(ways));
                compiled.fill(w);
                interpreted->fill(w);
            }
            if (step % 64 == 0) {
                ASSERT_EQ(compiled.stateKey(),
                          interpreted->stateKey())
                    << spec << " k=" << ways << " step " << step;
            }
        }
        EXPECT_GT(hits, 0u);
        EXPECT_EQ(compiled.stateKey(), interpreted->stateKey())
            << spec << " k=" << ways << " final state";
    }
}

/**
 * Fuzz: interleave clone(), reset(), touch() and fill() and keep
 * comparing — clones must be independent of their source, and reset
 * must land both sides back on the same state.
 */
TEST_P(CompiledDifferential, CloneResetFillFuzz)
{
    const std::string spec = GetParam();
    const unsigned ways = 4;
    if (!specSupportsWays(spec, ways))
        GTEST_SKIP() << spec << " does not support 4 ways";
    const CompiledTablePtr table =
        compiledTableFor(spec, ways, testBudget());
    if (!table)
        GTEST_SKIP() << spec << " has no compiled table at 4 ways";

    PolicyPtr interpreted = makePolicy(spec, ways);
    PolicyPtr compiled = std::make_unique<CompiledPolicy>(table);
    interpreted->reset();
    compiled->reset();

    Rng rng(2026);
    for (unsigned step = 0; step < 2000; ++step) {
        switch (rng.nextBelow(8)) {
          case 0: {
            // Continue on clones; mutate the originals afterwards to
            // prove the clones do not alias them.
            PolicyPtr interpretedClone = interpreted->clone();
            PolicyPtr compiledClone = compiled->clone();
            interpreted->fill(0);
            compiled->fill(0);
            interpreted = std::move(interpretedClone);
            compiled = std::move(compiledClone);
            break;
          }
          case 1:
            interpreted->reset();
            compiled->reset();
            break;
          case 2:
          case 3:
          case 4: {
            const Way w = static_cast<Way>(rng.nextBelow(ways));
            interpreted->touch(w);
            compiled->touch(w);
            break;
          }
          default: {
            const Way w = static_cast<Way>(rng.nextBelow(ways));
            interpreted->fill(w);
            compiled->fill(w);
            break;
          }
        }
        ASSERT_EQ(compiled->victim(), interpreted->victim())
            << spec << " step " << step;
        ASSERT_EQ(compiled->stateKey(), interpreted->stateKey())
            << spec << " step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, CompiledDifferential,
    ::testing::ValuesIn(differentialSpecs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/**
 * Regression: over-budget (or inherently unbounded) state spaces
 * must yield a clean fallback — compiledTableFor says no, and
 * makeCompiledOrFallback hands back the interpreted policy with
 * unchanged behaviour.
 */
TEST(CompiledFallback, OverBudgetFallsBack)
{
    // Stochastic policy: its state key encodes an unbounded RNG
    // draw counter, so it declares itself not finite.
    EXPECT_EQ(compiledTableFor("random", 8, testBudget()), nullptr);

    // Deliberately tiny budget: true LRU at 4 ways has 4! = 24
    // states, more than the 8 allowed here.
    CompileBudget tiny;
    tiny.maxStates = 8;
    EXPECT_EQ(compiledTableFor("lru", 4, tiny), nullptr);

    // The fallback is the interpreted policy, not a wrapper...
    PolicyPtr fallback = makeCompiledOrFallback("lru", 4, 1, tiny);
    ASSERT_NE(fallback, nullptr);
    EXPECT_EQ(dynamic_cast<CompiledPolicy*>(fallback.get()), nullptr);

    // ...and behaves exactly like one built directly.
    PolicyPtr reference = makePolicy("lru", 4);
    reference->reset();
    fallback->reset();
    Rng rng(99);
    for (unsigned step = 0; step < 500; ++step) {
        const Way w = static_cast<Way>(rng.nextBelow(4));
        if (rng.nextBelow(2) == 0) {
            reference->touch(w);
            fallback->touch(w);
        } else {
            reference->fill(w);
            fallback->fill(w);
        }
        ASSERT_EQ(fallback->victim(), reference->victim());
        ASSERT_EQ(fallback->stateKey(), reference->stateKey());
    }

    // With an adequate budget the same call compiles.
    PolicyPtr compiled = makeCompiledOrFallback("lru", 4, 1);
    ASSERT_NE(compiled, nullptr);
    EXPECT_NE(dynamic_cast<CompiledPolicy*>(compiled.get()), nullptr);
    EXPECT_EQ(compiled->name(), reference->name());
}

/** The memoized lookup returns one shared table per (spec, ways). */
TEST(CompiledFallback, TableIsMemoized)
{
    const CompiledTablePtr a = compiledTableFor("plru", 8, {});
    const CompiledTablePtr b = compiledTableFor("plru", 8, {});
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->numStates(), 128u); // 2^(8-1) PLRU tree states
}

/** Unknown specs and unsupported associativities never compile. */
TEST(CompiledFallback, RejectsInvalidSpecs)
{
    EXPECT_EQ(compiledTableFor("no-such-policy", 8, {}), nullptr);
    EXPECT_EQ(compiledTableFor("plru", 3, {}), nullptr);
}

/**
 * FNV-1a (64-bit) over a whole table in state-id order: per state the
 * touchNext row, the fillNext row (4 little-endian bytes per entry),
 * the alternative fillNext row of a factored core, the victim (2
 * bytes), then the stateKey length (8 bytes) and bytes; a factored
 * table then adds, per control state, its touch and fill entries and
 * its key the same way. Equal digests mean equal ids, transitions,
 * victims and keys.
 */
uint64_t
tableDigest(const CompiledTable& table)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void* data, std::size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= bytes[i];
            h *= 0x100000001b3ULL;
        }
    };
    const auto mixWord = [&mix](uint64_t value, std::size_t size) {
        unsigned char bytes[8];
        for (std::size_t i = 0; i < size; ++i)
            bytes[i] = static_cast<unsigned char>(value >> (8 * i));
        mix(bytes, size);
    };
    const auto mixKey = [&](const std::string& key) {
        mixWord(key.size(), 8);
        mix(key.data(), key.size());
    };
    for (uint32_t s = 0; s < table.numStates(); ++s) {
        for (unsigned w = 0; w < table.ways(); ++w)
            mixWord(table.touchNext(s, w), 4);
        for (unsigned w = 0; w < table.ways(); ++w)
            mixWord(table.fillNext(s, w), 4);
        if (table.factored())
            for (unsigned w = 0; w < table.ways(); ++w)
                mixWord(table.fillNext(s, w, true), 4);
        mixWord(table.victim(s), 2);
        mixKey(table.stateKey(s));
    }
    for (uint32_t q = 0; q < table.controlStates(); ++q) {
        mixWord(table.controlTouch(q), 4);
        mixWord(table.controlFill(q), 4);
        mixKey(table.controlKey(q));
    }
    return h;
}

struct TablePin
{
    const char* spec;
    unsigned ways;
    uint32_t states; ///< 0 = over the default budget (nullptr)
    uint64_t digest;
    uint32_t control = 0; ///< control states; 0 = monolithic
};

/**
 * compilePolicy() under the default CompileBudget, as produced by a
 * plain serial BFS (state, then touch 0..k-1, then fill 0..k-1):
 * every catalogSpecs() entry at 2, 4 and 8 ways, then the wide
 * automata the Intel hierarchies compile (PLRU/NRU at 16, NRU at 24,
 * QLRU at 12). ship/eaf consume metadata and never compile; random
 * is not finite. Rows with a control count are factored tables (core
 * states, core-plus-control digest); every monolithic row predates
 * the factored form unchanged.
 */
const TablePin kTablePins[] = {
    {"lru", 2, 2, 0xd5ead3e7df8b9282ULL},
    {"fifo", 2, 2, 0xb00118dd1ce3e172ULL},
    {"plru", 2, 2, 0x128eabb61fa46e37ULL},
    {"bitplru", 2, 3, 0x7cd47b1a75698d6cULL},
    {"nru", 2, 4, 0xaeef369f0a4f5807ULL},
    {"random", 2, 0, 0},
    {"lip", 2, 2, 0x5cf29258812cbde2ULL},
    {"bip", 2, 64, 0x4c80f48245cadff3ULL},
    {"srrip", 2, 13, 0xdfaa61b876ad39f9ULL},
    {"brrip", 2, 384, 0xf6e4d5882d36c013ULL},
    {"slru", 2, 4, 0x29f6682a6b262af5ULL},
    {"qlru:H1,M1,R0,U2", 2, 16, 0x3acb3b40dead0bebULL},
    {"qlru:H1,M3,R0,U2", 2, 16, 0x90374ffc1b8dc36dULL},
    {"dip", 2, 8192, 0xa6b8a8a92e6e0545ULL},
    {"drrip", 2, 48512, 0x58f1c85b98fd37ebULL},
    {"ship", 2, 0, 0},
    {"eaf", 2, 0, 0},
    {"dip:4,3,4", 2, 1024, 0xb52178dc9f398a2dULL},
    {"drrip:1,4,3,4", 2, 1716, 0xd7c584f90720f2c4ULL},
    {"lru", 4, 24, 0x77a15117a9b94901ULL},
    {"fifo", 4, 24, 0xe47207d27d757999ULL},
    {"plru", 4, 8, 0x0732020570064f7dULL},
    {"bitplru", 4, 15, 0x6eeaf5b16cfbcbaeULL},
    {"nru", 4, 16, 0x05a876ade98ad15aULL},
    {"random", 4, 0, 0},
    {"lip", 4, 24, 0xe85f35318f0a2959ULL},
    {"bip", 4, 768, 0x4b8077756ca3d095ULL},
    {"srrip", 4, 241, 0x7ec22b65b0f2cbbdULL},
    {"brrip", 4, 7680, 0x7c19af5e76d05328ULL},
    {"slru", 4, 72, 0xd26d3a48bcd3605aULL},
    {"qlru:H1,M1,R0,U2", 4, 256, 0x2f366e6358b229aaULL},
    {"qlru:H1,M3,R0,U2", 4, 256, 0x0f3a390139b8a735ULL},
    {"dip", 4, 98304, 0x4d6ddefd2be22705ULL},
    {"drrip", 4, 255, 0xc064e066ddb3ae0dULL, 4096},
    {"ship", 4, 0, 0},
    {"eaf", 4, 0, 0},
    {"dip:4,3,4", 4, 12288, 0xb84a6e5be3cb36e7ULL},
    {"drrip:1,4,3,4", 4, 7860, 0x8195a3a3224fcf9bULL},
    {"lru", 8, 40320, 0xa63f6b1021d08e11ULL},
    {"fifo", 8, 40320, 0x0594fceeee6e62adULL},
    {"plru", 8, 128, 0x4098c8b7e09e534dULL},
    {"bitplru", 8, 255, 0xa489793a4dd0beb6ULL},
    {"nru", 8, 256, 0x5b7fa80da358709eULL},
    {"random", 8, 0, 0},
    {"lip", 8, 40320, 0xd63b7ca271b7a8a1ULL},
    {"bip", 8, 40320, 0xf6acc86b2a418f4aULL, 32},
    {"srrip", 8, 65281, 0x1c9f718931779ddbULL},
    {"brrip", 8, 65535, 0x7776bec61968909cULL, 32},
    {"slru", 8, 0, 0},
    {"qlru:H1,M1,R0,U2", 8, 65536, 0x763c67b920b2a89eULL},
    {"qlru:H1,M3,R0,U2", 8, 65536, 0x41c6621e12804c9bULL},
    {"dip", 8, 40320, 0xe3cd93863ea43dbcULL, 4096},
    {"drrip", 8, 65535, 0xb357b105f74f738aULL, 4096},
    {"ship", 8, 0, 0},
    {"eaf", 8, 0, 0},
    {"dip:4,3,4", 8, 40320, 0x7eec3859b48b0acbULL, 512},
    {"drrip:1,4,3,4", 8, 130740, 0x6d3a6c1253599d49ULL},
    {"plru", 16, 32768, 0x5b6fdee181db740dULL},
    {"nru", 16, 65536, 0x5bd42febc6a4682eULL},
    {"nru", 24, 0, 0},
    {"qlru:H1,M1,R0,U2", 12, 0, 0},
    {"qlru:H1,M3,R0,U2", 12, 0, 0},
};

/** Compiles every pin at @p ways (0 = the wide extras) afresh. */
void
checkTablePins(unsigned ways)
{
    unsigned checked = 0;
    for (const TablePin& pin : kTablePins) {
        const bool wide = pin.ways != 2 && pin.ways != 4 && pin.ways != 8;
        if (ways == 0 ? !wide : pin.ways != ways)
            continue;
        ++checked;
        const CompiledTablePtr table =
            compilePolicy(*makePolicy(pin.spec, pin.ways));
        if (pin.states == 0) {
            EXPECT_EQ(table, nullptr) << pin.spec << " k=" << pin.ways;
            continue;
        }
        ASSERT_NE(table, nullptr) << pin.spec << " k=" << pin.ways;
        EXPECT_EQ(table->numStates(), pin.states)
            << pin.spec << " k=" << pin.ways;
        EXPECT_EQ(table->controlStates(), pin.control)
            << pin.spec << " k=" << pin.ways;
        EXPECT_EQ(tableDigest(*table), pin.digest)
            << pin.spec << " k=" << pin.ways;
    }
    if (ways == 0) {
        EXPECT_EQ(checked, 5u);
        return;
    }
    // The pins cover the whole catalog at this associativity.
    unsigned catalog = 0;
    for (const std::string& spec : catalogSpecs())
        catalog += specSupportsWays(spec, ways) ? 1 : 0;
    EXPECT_EQ(checked, catalog);
}

TEST(CompiledTablePins, CatalogAt2Ways) { checkTablePins(2); }
TEST(CompiledTablePins, CatalogAt4Ways) { checkTablePins(4); }
TEST(CompiledTablePins, CatalogAt8Ways) { checkTablePins(8); }
TEST(CompiledTablePins, HierarchyWideAutomata) { checkTablePins(0); }

/**
 * The budget is exact: LRU at 4 ways has 24 states whose tables plus
 * keys take 24 * (2 * 4 * 4 + 2) + 24 * 4 = 912 bytes; a budget of
 * exactly that compiles, one state or one byte less does not.
 */
TEST(CompiledBudget, LimitsAreInclusive)
{
    const PolicyPtr lru = makePolicy("lru", 4);

    CompileBudget states;
    states.maxStates = 24;
    const CompiledTablePtr table = compilePolicy(*lru, states);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->numStates(), 24u);
    states.maxStates = 23;
    EXPECT_EQ(compilePolicy(*lru, states), nullptr);

    uint64_t keyBytes = 0;
    for (uint32_t s = 0; s < table->numStates(); ++s)
        keyBytes += table->stateKey(s).size();
    const uint64_t exact =
        uint64_t{24} * (2 * 4 * sizeof(uint32_t) + sizeof(uint16_t)) +
        keyBytes;
    EXPECT_EQ(exact, 912u);

    CompileBudget bytes;
    bytes.maxTableBytes = exact;
    EXPECT_NE(compilePolicy(*lru, bytes), nullptr);
    bytes.maxTableBytes = exact - 1;
    EXPECT_EQ(compilePolicy(*lru, bytes), nullptr);
}

/**
 * The enumeration fans its probe phase out on the shared pool when
 * called from an ordinary thread and runs inline inside a pool task;
 * either way — and with two callers sharing the pool at once — the
 * table is the pinned one. Runs under ThreadSanitizer in CI.
 */
TEST(CompiledTablePins, SameTableOnAndOffThePool)
{
    const TablePin& pin = *std::find_if(
        std::begin(kTablePins), std::end(kTablePins),
        [](const TablePin& p) {
            return std::string(p.spec) == "dip:4,3,4" && p.ways == 4;
        });
    const uint64_t pinned = pin.digest;
    const auto digestOf = [&pin] {
        const CompiledTablePtr table =
            compilePolicy(*makePolicy(pin.spec, pin.ways));
        return table ? tableDigest(*table) : 0;
    };

    EXPECT_EQ(digestOf(), pinned);

    uint64_t inTask[2] = {0, 0};
    {
        TaskPool pool(2);
        for (uint64_t& slot : inTask)
            pool.submit([&digestOf, &slot] { slot = digestOf(); });
        pool.wait();
    }
    EXPECT_EQ(inTask[0], pinned);
    EXPECT_EQ(inTask[1], pinned);

    uint64_t concurrent = 0;
    std::thread other([&digestOf, &concurrent] {
        concurrent = digestOf();
    });
    const uint64_t here = digestOf();
    other.join();
    EXPECT_EQ(here, pinned);
    EXPECT_EQ(concurrent, pinned);
}

// --- Factored tables ---------------------------------------------------

/** The factored specs of the catalog. */
const char* const kFactoredSpecs[] = {"bip", "brrip", "dip", "drrip",
                                      "dip:4,3,4"};

/**
 * Core x control states of each factored spec at 4 ways: a budget of
 * the larger part keeps both parts but not their product, so the
 * table compiles factored where the default budget would enumerate
 * the product whole.
 */
CompileBudget
factoredBudget(const std::string& spec, unsigned ways)
{
    CompileBudget budget;
    if (ways != 4)
        return budget; // default: factored at 8 ways
    unsigned control = 32;                  // bip, brrip throttle
    if (spec == "dip" || spec == "drrip")
        control = 16 * 16 * 16;             // throttle x PSEL x epoch
    else if (spec == "dip:4,3,4")
        control = 4 * 8 * 16;
    // 4! recency orders, or 4^4 2-bit RRPV vectors.
    const bool recency = spec == "bip" || spec.rfind("dip", 0) == 0;
    const unsigned core = recency ? 24 : 256;
    budget.maxStates = std::max(core, control);
    return budget;
}

CompiledTablePtr
factoredTable(const std::string& spec, unsigned ways)
{
    return compilePolicy(*makePolicy(spec, ways),
                         factoredBudget(spec, ways));
}

/**
 * 100k seeded touch/fill inputs over every way, comparing victim()
 * and stateKey() after every step: the core plus control register
 * is the interpreted policy.
 */
TEST(FactoredTable, FuzzMatchesInterpreted)
{
    for (const char* spec : kFactoredSpecs) {
        for (const unsigned ways : {4u, 8u}) {
            const CompiledTablePtr table = factoredTable(spec, ways);
            ASSERT_NE(table, nullptr) << spec << " k=" << ways;
            ASSERT_TRUE(table->factored()) << spec << " k=" << ways;
            EXPECT_EQ(makePolicy(spec, ways)->shape(),
                      PolicyShape::kFactored);

            CompiledPolicy compiled(table);
            PolicyPtr interpreted = makePolicy(spec, ways);
            Rng rng(0xFAC7 + ways);
            for (unsigned step = 0; step < 100000; ++step) {
                const Way w = static_cast<Way>(rng.nextBelow(ways));
                if (rng.nextBelow(2) == 0) {
                    compiled.touch(w);
                    interpreted->touch(w);
                } else {
                    compiled.fill(w);
                    interpreted->fill(w);
                }
                ASSERT_EQ(compiled.victim(), interpreted->victim())
                    << spec << " k=" << ways << " step " << step;
                ASSERT_EQ(compiled.stateKey(), interpreted->stateKey())
                    << spec << " k=" << ways << " step " << step;
            }
        }
    }
}

/**
 * Where both forms fit (4 ways, default budget), the product of the
 * factored parts is the pinned monolithic table up to state
 * renaming: a lockstep walk from state 0 maps every monolithic state
 * to exactly one (core, control) pair with the same victim and key,
 * and every transition commutes with the mapping. (drrip at 4 ways
 * has no monolithic table under the default budget.)
 */
TEST(FactoredTable, ProductEqualsMonolithicAt4Ways)
{
    for (const char* spec : {"bip", "brrip", "dip", "dip:4,3,4"}) {
        const unsigned k = 4;
        const CompiledTablePtr mono = compilePolicy(*makePolicy(spec, k));
        const CompiledTablePtr fac = factoredTable(spec, k);
        ASSERT_NE(mono, nullptr) << spec;
        ASSERT_NE(fac, nullptr) << spec;
        ASSERT_FALSE(mono->factored()) << spec;
        ASSERT_TRUE(fac->factored()) << spec;

        using Pair = std::pair<uint32_t, uint32_t>;
        std::vector<Pair> pairOf(mono->numStates());
        std::vector<bool> seen(mono->numStates(), false);
        std::set<Pair> images;
        std::vector<uint32_t> queue{0};
        pairOf[0] = {0, 0};
        seen[0] = true;
        images.insert(pairOf[0]);
        const auto visit = [&](uint32_t m, Pair p) {
            if (seen[m]) {
                EXPECT_EQ(pairOf[m], p) << spec << " state " << m;
                return;
            }
            seen[m] = true;
            pairOf[m] = p;
            EXPECT_TRUE(images.insert(p).second)
                << spec << " two states map to one pair";
            queue.push_back(m);
        };
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const uint32_t m = queue[i];
            const auto [c, q] = pairOf[m];
            ASSERT_EQ(mono->victim(m), fac->victim(c)) << spec;
            ASSERT_EQ(mono->stateKey(m), fac->stateKey(c, q)) << spec;
            for (Way w = 0; w < k; ++w) {
                visit(mono->touchNext(m, w),
                      {fac->touchNext(c, w), fac->controlTouch(q)});
                const uint32_t packed = fac->controlFill(q);
                visit(mono->fillNext(m, w),
                      {fac->fillNext(c, w, (packed & 1) != 0),
                       packed >> 1});
            }
        }
        EXPECT_EQ(queue.size(), mono->numStates()) << spec;
    }
}

/**
 * Every simulation kernel steps the control register: the single
 * kernel, the lockstep lanes (with final images) and the
 * single-set match kernel all equal cache::Cache / SetModel on the
 * factored specs at 8 ways, and on the uint32-wide monolithic
 * drrip:1,4,3,4 beside them.
 */
TEST(FactoredTable, KernelsMatchCacheAt8Ways)
{
    const cache::Geometry geom{64, 32, 8};
    const auto t = trace::zipf(64 * 1024, 40000, 0.9, 23);
    std::vector<std::string> specs(std::begin(kFactoredSpecs),
                                   std::end(kFactoredSpecs));
    specs.push_back("lru"); // a monolithic lane beside them
    specs.push_back("drrip:1,4,3,4"); // and a uint32-wide one

    eval::MultiPolicyOptions mopts;
    mopts.numThreads = 1;
    mopts.captureFinalImages = true;
    const auto lanes = eval::simulateMultiPolicy(geom, specs, t, mopts);
    ASSERT_EQ(lanes.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string& spec = specs[i];
        EXPECT_TRUE(lanes[i].compiled) << spec;
        cache::Cache reference(geom, spec, "ref", 1);
        for (const cache::Addr a : t)
            reference.access(a);
        const auto& want = reference.stats();
        const auto single = eval::simulateTraceKernel(geom, spec, t);
        for (const cache::LevelStats* got :
             {&lanes[i].stats, &single}) {
            EXPECT_EQ(got->hits, want.hits) << spec;
            EXPECT_EQ(got->misses, want.misses) << spec;
            EXPECT_EQ(got->evictions, want.evictions) << spec;
        }
        for (unsigned set = 0; set < geom.numSets; ++set) {
            const auto image = reference.setImage(set);
            EXPECT_EQ(lanes[i].finalImage[set].tags, image.tags)
                << spec << " set " << set;
            EXPECT_EQ(lanes[i].finalImage[set].policyKey,
                      image.policyKey)
                << spec << " set " << set;
        }
    }

    // One observed sequence per spec, matched against every spec's
    // compiled lane: the verdicts equal per-candidate SetModel replay.
    Rng rng(0x5E7);
    std::vector<BlockId> seq(3000);
    for (BlockId& b : seq)
        b = rng.nextBelow(12);
    std::vector<PolicyPtr> protos;
    std::vector<eval::SetLane> setLanes;
    std::vector<std::vector<bool>> hitsOf;
    for (const std::string& spec : specs) {
        protos.push_back(makePolicy(spec, geom.ways));
        setLanes.push_back(
            {compiledTableFor(spec, geom.ways), protos.back().get()});
        SetModel model(makePolicy(spec, geom.ways));
        model.flush();
        std::vector<bool> hits;
        for (const BlockId b : seq)
            hits.push_back(model.access(b));
        hitsOf.push_back(std::move(hits));
    }
    const std::vector<bool> determined(seq.size(), true);
    for (std::size_t j = 0; j < specs.size(); ++j) {
        const auto match = eval::matchObservationMultiPolicy(
            geom.ways, setLanes, seq, hitsOf[j], determined);
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(match[i] != 0, hitsOf[i] == hitsOf[j])
                << specs[i] << " on the observation of " << specs[j];
    }
}

/**
 * bip, dip and dip:4,3,4 run on one recency core table; brrip and
 * drrip (both 2-bit) on one RRPV core table.
 */
TEST(FactoredTable, CoresAreSharedThroughTheMemo)
{
    const auto data = [](const char* spec) {
        const CompiledTablePtr table = compiledTableFor(spec, 8);
        EXPECT_NE(table, nullptr) << spec;
        return table ? table->touchData() : nullptr;
    };
    EXPECT_EQ(data("bip"), data("dip"));
    EXPECT_EQ(data("bip"), data("dip:4,3,4"));
    EXPECT_EQ(data("brrip"), data("drrip"));
    EXPECT_NE(data("bip"), data("brrip"));
    EXPECT_EQ(compiledTableFor("bip", 8)->numStates(), 40320u);
    EXPECT_EQ(compiledTableFor("drrip", 8)->numStates(), 65535u);
}

/**
 * The budget of a factored table covers each part's states and the
 * two parts' bytes together: the recency core at 8 ways needs
 * exactly 40 320 states, and the bytes limit is inclusive.
 */
TEST(FactoredTable, BudgetCoversCoreControlAndBytes)
{
    const PolicyPtr bip = makePolicy("bip", 8);
    CompileBudget states;
    states.maxStates = 40320;
    const CompiledTablePtr table = compilePolicy(*bip, states);
    ASSERT_NE(table, nullptr);
    EXPECT_TRUE(table->factored());
    states.maxStates = 40319;
    EXPECT_EQ(compilePolicy(*bip, states), nullptr);

    uint64_t exact = 0;
    for (uint32_t s = 0; s < table->numStates(); ++s)
        exact += 3 * 8 * sizeof(uint32_t) + sizeof(uint16_t) +
                 table->stateKey(s).size();
    for (uint32_t q = 0; q < table->controlStates(); ++q)
        exact += 2 * sizeof(uint32_t) + table->controlKey(q).size();
    CompileBudget bytes;
    bytes.maxTableBytes = exact;
    EXPECT_NE(compilePolicy(*bip, bytes), nullptr);
    bytes.maxTableBytes = exact - 1;
    EXPECT_EQ(compilePolicy(*bip, bytes), nullptr);
}

/**
 * Racing first callers, on and off the shared pool, each enumerate
 * the recency core under a budget no other test uses and race for
 * its memo slot; every caller still gets the pinned factored table.
 * Runs under ThreadSanitizer in CI.
 */
TEST(FactoredTable, SameTableOnAndOffThePool)
{
    const TablePin& pin = *std::find_if(
        std::begin(kTablePins), std::end(kTablePins),
        [](const TablePin& p) {
            return std::string(p.spec) == "dip:4,3,4" && p.ways == 8;
        });
    CompileBudget budget;
    budget.maxStates = (1u << 17) - 1;
    const auto digestOf = [&pin, &budget] {
        const CompiledTablePtr table =
            compilePolicy(*makePolicy(pin.spec, pin.ways), budget);
        return table && table->factored() ? tableDigest(*table) : 0;
    };

    uint64_t inTask[2] = {0, 0};
    uint64_t concurrent = 0;
    std::thread other([&digestOf, &concurrent] {
        concurrent = digestOf();
    });
    {
        TaskPool pool(2);
        for (uint64_t& slot : inTask)
            pool.submit([&digestOf, &slot] { slot = digestOf(); });
        pool.wait();
    }
    const uint64_t here = digestOf();
    other.join();
    EXPECT_EQ(inTask[0], pin.digest);
    EXPECT_EQ(inTask[1], pin.digest);
    EXPECT_EQ(concurrent, pin.digest);
    EXPECT_EQ(here, pin.digest);
}

/**
 * A one-state automaton that nonetheless declares itself not finite
 * and counts its clones: compilePolicy() must give up before cloning
 * it even once. (Were the declaration ignored it would compile, so a
 * regression fails here instead of enumerating without end.)
 */
class NotFiniteProbe final : public ReplacementPolicy
{
  public:
    explicit NotFiniteProbe(unsigned ways) : ReplacementPolicy(ways) {}

    static inline std::atomic<unsigned> clones{0};

    void reset() override {}
    void touch(Way) override {}
    Way victim() const override { return 0; }
    void fill(Way) override {}
    std::string name() const override { return "probe"; }
    std::string stateKey() const override { return "probe"; }
    PolicyShape shape() const override
    {
        return PolicyShape::kNotFinite;
    }

    PolicyPtr clone() const override
    {
        ++clones;
        return std::make_unique<NotFiniteProbe>(*this);
    }
};

/** random declares itself not finite and never enumerates, at any k. */
TEST(FactoredTable, RandomIsNotFinite)
{
    for (const unsigned ways : {1u, 2u, 4u, 8u, 16u}) {
        const PolicyPtr random = makePolicy("random", ways);
        EXPECT_EQ(random->shape(), PolicyShape::kNotFinite);
        EXPECT_EQ(compilePolicy(*random), nullptr) << ways;
        EXPECT_EQ(compiledTableFor("random", ways), nullptr) << ways;
        EXPECT_EQ(compilePolicy(NotFiniteProbe(ways)), nullptr) << ways;
    }
    EXPECT_EQ(NotFiniteProbe::clones.load(), 0u);
    EXPECT_THROW(makePolicy("random", 4)->factorization(), UsageError);
}

} // namespace
} // namespace recap::policy
