// Unit tests for util: rng, stats, bitset, args, table, errors.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "util/args.h"
#include "util/bitset.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace hios {
namespace {

// ---------------------------------------------------------------- error

TEST(Error, CheckThrowsWithMessage) {
  try {
    HIOS_CHECK(1 == 2, "one is " << 1);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("one is 1"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) { HIOS_CHECK(true, "never"); }

TEST(Error, AssertThrows) { EXPECT_THROW(HIOS_ASSERT(false, "boom"), Error); }

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_int(5, 4), Error);
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.uniform(0.1, 4.0);
    EXPECT_GE(v, 0.1);
    EXPECT_LT(v, 4.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 2000.0, (0.1 + 4.0) / 2.0, 0.15);  // mean check
}

TEST(Rng, FlipProbability) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 5000; ++i) heads += rng.flip(0.25);
  EXPECT_NEAR(heads / 5000.0, 0.25, 0.03);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Rng, ForkIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, IndexRejectsEmpty) {
  Rng rng(1);
  EXPECT_THROW(rng.index(0), Error);
}

// ---------------------------------------------------------------- stats

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.1380899, 1e-6);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 0.5), Error);
  EXPECT_THROW(percentile({1.0}, 1.5), Error);
}

TEST(Stats, StreamingPercentileMatchesSortedPercentile) {
  constexpr int kMaxN = 5000;
  const std::vector<double> qs{0.0, 0.5, 0.99, 1.0};
  Rng rng(77);
  std::vector<std::pair<std::string, std::vector<double>>> sequences(4);
  sequences[0].first = "random";
  sequences[1].first = "levels";  // few distinct values, as dispatch durations are
  sequences[2].first = "ascending";
  sequences[3].first = "descending";
  const std::vector<double> levels{0.9767, 4.8671, 5.1053, 6.5636};
  for (int i = 0; i < kMaxN; ++i) {
    sequences[0].second.push_back(rng.uniform(0.1, 20.0));
    sequences[1].second.push_back(levels[static_cast<std::size_t>(rng.uniform_int(0, 3))]);
    sequences[2].second.push_back(0.25 * i + 1.0);
    sequences[3].second.push_back(kMaxN - 0.5 * i);
  }
  for (const auto& [name, seq] : sequences) {
    std::vector<StreamingPercentile> streams;
    for (double q : qs) streams.emplace_back(q);
    // percentile() sorts its copy anyway; keeping the prefix sorted only
    // makes that sort cheap.
    std::vector<double> prefix;
    for (double x : seq) {
      prefix.insert(std::upper_bound(prefix.begin(), prefix.end(), x), x);
      for (std::size_t k = 0; k < qs.size(); ++k) {
        streams[k].push(x);
        ASSERT_EQ(streams[k].size(), prefix.size());
        const double want = percentile(prefix, qs[k]);
        const double got = streams[k].value();
        ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
            << name << " n=" << prefix.size() << " q=" << qs[k] << ": " << got
            << " != " << want;
      }
    }
  }
  EXPECT_THROW(StreamingPercentile(0.99).value(), Error);
  EXPECT_THROW(StreamingPercentile(1.5), Error);
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_THROW(geomean({1.0, 0.0}), Error);
  EXPECT_THROW(geomean({}), Error);
}

// --------------------------------------------------------------- bitset

TEST(Bitset, SetTestCount) {
  DynBitset b(130);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.set(64, false);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, OutOfRangeThrows) {
  DynBitset b(10);
  EXPECT_THROW(b.test(10), Error);
  EXPECT_THROW(b.set(11), Error);
}

TEST(Bitset, SetAlgebra) {
  DynBitset a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);
  EXPECT_TRUE(a.intersects(b));
  DynBitset u = a | b;
  EXPECT_EQ(u.count(), 3u);
  DynBitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(65));
  a -= b;
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(65));
}

TEST(Bitset, ContainsAll) {
  DynBitset a(100), b(100);
  a.set(3);
  a.set(77);
  b.set(3);
  EXPECT_TRUE(a.contains_all(b));
  b.set(50);
  EXPECT_FALSE(a.contains_all(b));
  EXPECT_TRUE(a.contains_all(DynBitset(100)));  // empty subset
}

TEST(Bitset, ForEachAscending) {
  DynBitset b(200);
  b.set(5);
  b.set(63);
  b.set(64);
  b.set(199);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{5, 63, 64, 199}));
}

TEST(Bitset, ForEachFromAndFindPrev) {
  DynBitset b(200);
  for (std::size_t i : {5, 63, 64, 130, 199}) b.set(i);
  for (std::size_t from : {0, 5, 6, 64, 65, 128, 199, 200}) {
    std::vector<std::size_t> seen, want;
    b.for_each_from(from, [&](std::size_t i) { seen.push_back(i); });
    b.for_each([&](std::size_t i) {
      if (i >= from) want.push_back(i);
    });
    EXPECT_EQ(seen, want) << "from " << from;
  }
  // find_prev(i): highest set bit strictly below i, size() when none.
  for (std::size_t before = 0; before <= 210; ++before) {
    std::size_t want = b.size();
    for (std::size_t i = 0; i < std::min<std::size_t>(before, b.size()); ++i)
      if (b.test(i)) want = i;
    EXPECT_EQ(b.find_prev(before), want) << "before " << before;
  }
  EXPECT_EQ(DynBitset(0).find_prev(0), 0u);
  DynBitset full(128);
  full.set(127);
  EXPECT_EQ(full.find_prev(128), 127u);
  // word(w): bit i of the set at bit i % 64 of word i / 64.
  ASSERT_EQ(b.num_words(), 4u);
  for (std::size_t i = 0; i < 4 * 64; ++i)
    EXPECT_EQ((b.word(i / 64) >> (i % 64)) & 1, i < b.size() && b.test(i) ? 1u : 0u) << i;
  EXPECT_EQ(DynBitset(0).num_words(), 0u);
}

TEST(Bitset, HashAndEquality) {
  DynBitset a(90), b(90);
  a.set(10);
  b.set(10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(11);
  EXPECT_FALSE(a == b);
}

TEST(Bitset, SizeMismatchAsserts) {
  DynBitset a(10), b(11);
  EXPECT_THROW(a |= b, Error);
}

// ----------------------------------------------------------------- args

TEST(Args, ParsesKeyValueForms) {
  ArgParser p("test");
  p.add_flag("gpus", "2", "number of gpus").add_flag("name", "x", "a name");
  const char* argv[] = {"prog", "--gpus=4", "--name", "hello"};
  ASSERT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.get_int("gpus"), 4);
  EXPECT_EQ(p.get("name"), "hello");
}

TEST(Args, DefaultsApply) {
  ArgParser p("test");
  p.add_flag("ratio", "0.8", "p");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.8);
}

TEST(Args, BooleanFlagWithoutValue) {
  ArgParser p("test");
  p.add_flag("verbose", "false", "talk");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(Args, UnknownFlagThrows) {
  ArgParser p("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(p.parse(2, argv), Error);
}

TEST(Args, BadIntThrows) {
  ArgParser p("test");
  p.add_flag("n", "1", "count");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_THROW(p.get_int("n"), Error);
}

TEST(Args, PositionalCollected) {
  ArgParser p("test");
  const char* argv[] = {"prog", "a", "b"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"a", "b"}));
}

TEST(Args, DuplicateFlagThrows) {
  ArgParser p("test");
  p.add_flag("x", "1", "x");
  EXPECT_THROW(p.add_flag("x", "2", "again"), Error);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsAndCsv) {
  TextTable t;
  t.set_header({"alg", "latency"});
  t.add_row({"seq", "10.5"});
  t.add_row({"hios-lp", "4.2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alg"), std::string::npos);
  EXPECT_NE(s.find("hios-lp"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "alg,latency\nseq,10.5\nhios-lp,4.2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

}  // namespace
}  // namespace hios
