// Unit and property tests for dns::Name: parsing, hierarchy ops, canonical
// ordering (RFC 4034 §6.1) and wire form.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/rng.h"
#include "dns/name.h"
#include "dns/name_map.h"

namespace lookaside::dns {
namespace {

TEST(NameTest, ParseBasics) {
  const Name name = Name::parse("www.Example.COM");
  EXPECT_EQ(name.to_text(), "www.example.com.");
  EXPECT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.label(0), "www");
  EXPECT_EQ(name.label(1), "example");
  EXPECT_EQ(name.label(2), "com");
  EXPECT_FALSE(name.is_root());
}

TEST(NameTest, TrailingDotIgnored) {
  EXPECT_EQ(Name::parse("example.com."), Name::parse("example.com"));
}

TEST(NameTest, RootForms) {
  EXPECT_TRUE(Name::parse("").is_root());
  EXPECT_TRUE(Name::parse(".").is_root());
  EXPECT_EQ(Name::root().to_text(), ".");
  EXPECT_EQ(Name::root().label_count(), 0u);
}

TEST(NameTest, RejectsBadNames) {
  EXPECT_THROW(Name::parse("a..b"), std::invalid_argument);
  EXPECT_THROW(Name::parse(".a"), std::invalid_argument);
  EXPECT_THROW(Name::parse(std::string(64, 'x') + ".com"),
               std::invalid_argument);
  // Total wire length > 255.
  std::string long_name;
  for (int i = 0; i < 10; ++i) long_name += std::string(30, 'a') + ".";
  long_name += "com";
  EXPECT_THROW(Name::parse(long_name), std::invalid_argument);
}

TEST(NameTest, MaxLabelLengthAccepted) {
  EXPECT_NO_THROW(Name::parse(std::string(63, 'x') + ".com"));
}

TEST(NameTest, ParentChain) {
  Name name = Name::parse("a.b.c.example.com");
  name = name.parent();
  EXPECT_EQ(name.to_text(), "b.c.example.com.");
  EXPECT_EQ(name.parent().parent().to_text(), "example.com.");
  EXPECT_TRUE(Name::parse("com").parent().is_root());
  EXPECT_THROW(Name::root().parent(), std::logic_error);
}

TEST(NameTest, PrefixAndConcat) {
  const Name base = Name::parse("example.com");
  EXPECT_EQ(base.with_prefix_label("www").to_text(), "www.example.com.");
  EXPECT_EQ(Name::root().with_prefix_label("org").to_text(), "org.");

  const Name dlv = Name::parse("dlv.isc.org");
  EXPECT_EQ(base.concat(dlv).to_text(), "example.com.dlv.isc.org.");
  EXPECT_EQ(Name::root().concat(dlv), dlv);
  EXPECT_EQ(dlv.concat(Name::root()), dlv);
}

TEST(NameTest, SubdomainChecks) {
  const Name com = Name::parse("com");
  const Name example = Name::parse("example.com");
  EXPECT_TRUE(example.is_subdomain_of(com));
  EXPECT_TRUE(example.is_subdomain_of(example));
  EXPECT_TRUE(example.is_subdomain_of(Name::root()));
  EXPECT_FALSE(com.is_subdomain_of(example));
  // Label-boundary matters: notexample.com is not under example.com.
  EXPECT_FALSE(Name::parse("notexample.com").is_subdomain_of(example));
  EXPECT_TRUE(Name::parse("a.example.com").is_subdomain_of(example));
}

TEST(NameTest, WithoutSuffix) {
  const Name full = Name::parse("example.com.dlv.isc.org");
  const Name dlv = Name::parse("dlv.isc.org");
  EXPECT_EQ(full.without_suffix(dlv).to_text(), "example.com.");
  EXPECT_TRUE(dlv.without_suffix(dlv).is_root());
  EXPECT_EQ(full.without_suffix(Name::root()), full);
  EXPECT_THROW(Name::parse("a.com").without_suffix(Name::parse("b.org")),
               std::invalid_argument);
}

TEST(NameTest, CanonicalOrderingRfc4034Example) {
  // RFC 4034 §6.1 gives this exact sorted sequence.
  std::vector<Name> names = {
      Name::parse("example"),       Name::parse("a.example"),
      Name::parse("yljkjljk.a.example"), Name::parse("z.a.example"),
      Name::parse("zabc.a.example"), Name::parse("z.example"),
  };
  std::vector<Name> shuffled = {names[3], names[0], names[5],
                                names[2], names[4], names[1]};
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, names);
}

TEST(NameTest, CanonicalCompareRootFirst) {
  EXPECT_LT(Name::root().canonical_compare(Name::parse("com")), 0);
  EXPECT_EQ(Name::parse("a.com").canonical_compare(Name::parse("A.COM")), 0);
}

TEST(NameTest, CanonicalOrderClustersByTld) {
  // The paper's DLV clustering effect relies on this: all .com names sort
  // together under the DLV apex.
  const Name a = Name::parse("zzz.com.dlv.isc.org");
  const Name b = Name::parse("aaa.net.dlv.isc.org");
  const Name c = Name::parse("aaa.com.dlv.isc.org");
  EXPECT_LT(c.canonical_compare(a), 0);
  EXPECT_LT(a.canonical_compare(b), 0);  // all com.* before net.*
}

TEST(NameTest, WireForm) {
  const Name name = Name::parse("example.com");
  const Bytes wire = name.to_wire();
  const Bytes expected = {7, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
                          3, 'c', 'o', 'm', 0};
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(wire.size(), name.wire_length());
  EXPECT_EQ(Name::root().to_wire(), Bytes{0});
  EXPECT_EQ(Name::root().wire_length(), 1u);
}

TEST(NamePropertyTest, CanonicalCompareIsTotalOrder) {
  crypto::SplitMix64 rng(123);
  std::vector<Name> names;
  const char* tlds[] = {"com", "net", "org"};
  for (int i = 0; i < 60; ++i) {
    std::string text = "d" + std::to_string(rng.next_below(30));
    if (rng.next_below(2) == 0) text = "sub" + std::to_string(i % 5) + "." + text;
    names.push_back(Name::parse(text + "." + tlds[rng.next_below(3)]));
  }
  for (const Name& a : names) {
    for (const Name& b : names) {
      const int ab = a.canonical_compare(b);
      const int ba = b.canonical_compare(a);
      EXPECT_EQ(ab, -ba);
      EXPECT_EQ(ab == 0, a == b || a.to_text() == b.to_text());
      for (const Name& c : names) {
        if (ab < 0 && b.canonical_compare(c) < 0) {
          EXPECT_LT(a.canonical_compare(c), 0);  // transitivity
        }
      }
    }
  }
}

// The label-by-label RFC 4034 §6.1 comparison canonical_compare replaced:
// walk both label sequences from the right, compare each label pair as
// bytes, and let the name that runs out of labels first sort first.
int label_by_label_oracle(const Name& x, const Name& y) {
  std::string_view a = x.internal_text();
  std::string_view b = y.internal_text();
  while (!a.empty() && !b.empty()) {
    const std::size_t dot_a = a.rfind('.');
    const std::size_t dot_b = b.rfind('.');
    const std::string_view label_a =
        dot_a == std::string_view::npos ? a : a.substr(dot_a + 1);
    const std::string_view label_b =
        dot_b == std::string_view::npos ? b : b.substr(dot_b + 1);
    const int cmp = label_a.compare(label_b);
    if (cmp != 0) return cmp < 0 ? -1 : 1;
    a = dot_a == std::string_view::npos ? std::string_view{}
                                        : a.substr(0, dot_a);
    b = dot_b == std::string_view::npos ? std::string_view{}
                                        : b.substr(0, dot_b);
  }
  if (a.empty() != b.empty()) return a.empty() ? -1 : 1;
  return 0;
}

int sign(int value) { return (value > 0) - (value < 0); }

// A pool of names in families that share suffixes: each family holds a
// base name, its ancestors, siblings that differ only in the leftmost
// label, and children. Labels are 1-4 bytes over `a b - 0 0x80 0xFF`, so
// labels that are byte prefixes of each other, bytes above 0x7F and
// equal tails across a dot all come up often. The root is included.
std::vector<Name> canonical_order_pool(crypto::SplitMix64& rng,
                                       std::size_t families) {
  static constexpr char kAlphabet[] = {'a', 'b', '-', '0', '\x80', '\xFF'};
  const auto label = [&rng] {
    std::string out(1 + rng.next_below(4), 'a');
    for (char& c : out) c = kAlphabet[rng.next_below(sizeof kAlphabet)];
    return out;
  };
  std::vector<Name> pool = {Name::root()};
  for (std::size_t f = 0; f < families; ++f) {
    Name base = Name::root();
    const std::size_t depth = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < depth; ++i) {
      base = base.with_prefix_label(label());
    }
    for (Name up = base; !up.is_root(); up = up.parent()) pool.push_back(up);
    for (int s = 0; s < 4; ++s) {
      pool.push_back(base.parent().with_prefix_label(label()));
      pool.push_back(base.with_prefix_label(label()));
    }
  }
  return pool;
}

TEST(NameCanonicalOrderTest, MatchesLabelByLabelOracleOnRandomPairs) {
  crypto::SplitMix64 rng(0x0D3E);
  const std::vector<Name> pool = canonical_order_pool(rng, 4'000);
  // Half the pairs come from one family (ancestor/descendant or siblings
  // under a shared suffix), half from anywhere in the pool.
  constexpr std::size_t kPairs = 1'000'000;
  constexpr std::size_t kFamilySpan = 16;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const std::size_t ia = rng.next_below(pool.size());
    const std::size_t ib =
        i % 2 == 0 ? rng.next_below(pool.size())
                   : std::min(pool.size() - 1,
                              ia - std::min(ia, kFamilySpan / 2) +
                                  rng.next_below(kFamilySpan));
    const Name& a = pool[ia];
    const Name& b = pool[ib];
    const int want = label_by_label_oracle(a, b);
    const int ab = a.canonical_compare(b);
    const int ba = b.canonical_compare(a);
    if (sign(ab) != want || sign(ba) != -want) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << a.to_text() << " vs " << b.to_text() << ": "
                      << ab << " / " << ba << ", oracle " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NameCanonicalOrderTest, SortAgreesWithLabelByLabelOracle) {
  crypto::SplitMix64 rng(0x5047);
  std::vector<Name> pool = canonical_order_pool(rng, 2'000);
  std::sort(pool.begin(), pool.end());
  ASSERT_TRUE(pool.front().is_root());
  for (std::size_t i = 1; i < pool.size(); ++i) {
    ASSERT_LE(label_by_label_oracle(pool[i - 1], pool[i]), 0)
        << pool[i - 1].to_text() << " sorted before " << pool[i].to_text();
    ASSERT_EQ(pool[i - 1].canonical_compare(pool[i]) == 0,
              pool[i - 1] == pool[i]);
  }
  // Sorting with the oracle yields the same sequence.
  std::vector<Name> by_oracle = pool;
  std::reverse(by_oracle.begin(), by_oracle.end());
  std::stable_sort(by_oracle.begin(), by_oracle.end(),
                   [](const Name& a, const Name& b) {
                     return label_by_label_oracle(a, b) < 0;
                   });
  EXPECT_EQ(by_oracle, pool);
}

TEST(NamePropertyTest, ParentIsPrefixInverse) {
  crypto::SplitMix64 rng(5);
  for (int i = 0; i < 100; ++i) {
    const Name base = Name::parse("x" + std::to_string(rng.next()) + ".com");
    const std::string label = "l" + std::to_string(rng.next_below(1000));
    EXPECT_EQ(base.with_prefix_label(label).parent(), base);
  }
}

TEST(NameHashTest, MemoizedHashMatchesCanonicalText) {
  // Every construction path must leave hash() consistent with the
  // lowercase text — hierarchy ops included, since cache keys are often
  // derived names (parent zones, DLV-translated names).
  const Name a = Name::parse("WWW.Example.COM");
  EXPECT_EQ(a.hash(), Name::parse("www.example.com").hash());
  EXPECT_EQ(a.parent().hash(), Name::parse("example.com").hash());
  EXPECT_EQ(a.parent().parent().hash(), Name::parse("com").hash());
  EXPECT_EQ(Name::root().hash(), Name{}.hash());
  EXPECT_EQ(a.with_prefix_label("Sub").hash(),
            Name::parse("sub.www.example.com").hash());
  const Name dlv = Name::parse("dlv.isc.org");
  EXPECT_EQ(Name::parse("example.com").concat(dlv).hash(),
            Name::parse("example.com.dlv.isc.org").hash());
  EXPECT_EQ(Name::parse("example.com.dlv.isc.org").without_suffix(dlv).hash(),
            Name::parse("example.com").hash());
  // Unequal names should essentially never collide in a small corpus.
  std::set<std::size_t> hashes;
  for (int i = 0; i < 1'000; ++i) {
    hashes.insert(Name::parse("d" + std::to_string(i) + ".com").hash());
  }
  EXPECT_EQ(hashes.size(), 1'000u);
}

TEST(NameHashMapTest, InsertFindEraseAcrossRehashes) {
  NameHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(Name::parse("absent.com")), nullptr);
  // Grow well past several doublings of the 16-slot initial table.
  for (int i = 0; i < 500; ++i) {
    map.get_or_insert(Name::parse("d" + std::to_string(i) + ".com")) = i;
  }
  EXPECT_EQ(map.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    const int* value = map.find(Name::parse("d" + std::to_string(i) + ".com"));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i);
  }
  // get_or_insert on a present key returns the existing value.
  map.get_or_insert(Name::parse("d7.com")) = 777;
  EXPECT_EQ(map.size(), 500u);
  EXPECT_EQ(*map.find(Name::parse("d7.com")), 777);
  // Erase half; the rest stay reachable through the tombstones.
  for (int i = 0; i < 500; i += 2) {
    EXPECT_TRUE(map.erase(Name::parse("d" + std::to_string(i) + ".com")));
  }
  EXPECT_FALSE(map.erase(Name::parse("d0.com")));  // already gone
  EXPECT_EQ(map.size(), 250u);
  for (int i = 1; i < 500; i += 2) {
    ASSERT_NE(map.find(Name::parse("d" + std::to_string(i) + ".com")), nullptr)
        << i;
  }
  EXPECT_EQ(map.find(Name::parse("d0.com")), nullptr);
}

TEST(NameHashMapTest, TombstoneSlotsAreReusedAndCompacted) {
  NameHashMap<int> map;
  // Churn far more insert/erase cycles than any capacity could hold
  // without tombstone compaction; the map must stay correct throughout.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      map.get_or_insert(
          Name::parse("r" + std::to_string(round) + "i" + std::to_string(i) +
                      ".com")) = round * 100 + i;
    }
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(map.erase(Name::parse("r" + std::to_string(round) + "i" +
                                        std::to_string(i) + ".com")));
    }
    EXPECT_TRUE(map.empty()) << round;
  }
  map.get_or_insert(Name::parse("survivor.com")) = 1;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_NE(map.find(Name::parse("survivor.com")), nullptr);
}

TEST(NameHashMapTest, ForEachVisitsLiveEntriesOnly) {
  NameHashMap<int> map;
  for (int i = 0; i < 20; ++i) {
    map.get_or_insert(Name::parse("d" + std::to_string(i) + ".com")) = i;
  }
  for (int i = 0; i < 20; i += 2) {
    map.erase(Name::parse("d" + std::to_string(i) + ".com"));
  }
  int sum = 0;
  int count = 0;
  map.for_each([&](const Name& key, int& value) {
    EXPECT_FALSE(key.is_root());
    sum += value;
    ++count;
  });
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sum, 1 + 3 + 5 + 7 + 9 + 11 + 13 + 15 + 17 + 19);
}

TEST(NameHashMapTest, RootNameIsAValidKey) {
  NameHashMap<int> map;
  map.get_or_insert(Name::root()) = 42;
  ASSERT_NE(map.find(Name::root()), nullptr);
  EXPECT_EQ(*map.find(Name::root()), 42);
  EXPECT_TRUE(map.erase(Name::root()));
  EXPECT_EQ(map.find(Name::root()), nullptr);
}

}  // namespace
}  // namespace lookaside::dns
