// SignatureTable unit + differential tests: the open-addressing index
// must behave exactly like the map-of-buckets it replaced
// (unordered_multimap semantics over (signature, node) pairs) across
// random insert/erase/lookup traces, including heavy signature
// collisions that exercise probe clusters and backward-shift deletion.

#include "cache/open_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/random.h"

namespace watchman {
namespace {

struct Node {
  uint64_t sig = 0;
  int id = 0;
};

TEST(SignatureTableTest, InsertFindErase) {
  SignatureTable<Node> table;
  Node a{42, 1}, b{42, 2}, c{7, 3};
  table.Insert(a.sig, &a);
  table.Insert(b.sig, &b);  // duplicate signature, distinct node
  table.Insert(c.sig, &c);
  EXPECT_EQ(table.size(), 3u);

  EXPECT_EQ(table.Find(42, [](const Node* n) { return n->id == 1; }), &a);
  EXPECT_EQ(table.Find(42, [](const Node* n) { return n->id == 2; }), &b);
  EXPECT_EQ(table.Find(42, [](const Node* n) { return n->id == 9; }),
            nullptr);
  EXPECT_EQ(table.Find(7, [](const Node*) { return true; }), &c);
  EXPECT_EQ(table.Find(8, [](const Node*) { return true; }), nullptr);

  EXPECT_TRUE(table.Erase(42, &a));
  EXPECT_FALSE(table.Erase(42, &a));  // already gone
  EXPECT_EQ(table.Find(42, [](const Node* n) { return n->id == 2; }), &b);
  EXPECT_TRUE(table.CheckStructure().ok());
}

TEST(SignatureTableTest, EmptyTableFindsNothing) {
  SignatureTable<Node> table;
  EXPECT_EQ(table.Find(1, [](const Node*) { return true; }), nullptr);
  EXPECT_FALSE(table.Erase(1, nullptr));
  EXPECT_TRUE(table.CheckStructure().ok());
}

TEST(SignatureTableTest, GrowsKeepingEveryEntryReachable) {
  SignatureTable<Node> table;
  std::vector<Node> nodes(1000);
  for (int i = 0; i < 1000; ++i) {
    nodes[i] = Node{static_cast<uint64_t>(i * 2654435761u), i};
    table.Insert(nodes[i].sig, &nodes[i]);
  }
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_TRUE(table.CheckStructure().ok());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.Find(nodes[i].sig,
                         [&](const Node* n) { return n->id == i; }),
              &nodes[i]);
  }
}

/// Differential vs the old map-of-buckets semantics: a random trace of
/// insert/erase/find, with signatures drawn from a tiny pool so probe
/// clusters and duplicate-signature buckets are the common case rather
/// than the exception.
TEST(SignatureTableDifferentialTest, MatchesBucketMapSemantics) {
  SignatureTable<Node> table;
  // The pre-change index shape: signature -> bucket of entries.
  std::unordered_map<uint64_t, std::vector<Node*>> model;

  std::vector<Node> pool(512);
  std::vector<bool> present(pool.size(), false);
  Rng rng(20260730);
  for (size_t i = 0; i < pool.size(); ++i) {
    // ~32 distinct signatures over 512 nodes: dense collision clusters.
    pool[i] = Node{0xABCD000 + rng.NextBounded(32), static_cast<int>(i)};
  }

  size_t model_size = 0;
  for (int op = 0; op < 20000; ++op) {
    const size_t pick = rng.NextBounded(pool.size());
    Node* node = &pool[pick];
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 45) {  // insert if absent
      if (!present[pick]) {
        table.Insert(node->sig, node);
        model[node->sig].push_back(node);
        present[pick] = true;
        ++model_size;
      }
    } else if (roll < 80) {  // erase
      auto& bucket = model[node->sig];
      const auto it = std::find(bucket.begin(), bucket.end(), node);
      const bool in_model = it != bucket.end();
      EXPECT_EQ(table.Erase(node->sig, node), in_model);
      if (in_model) {
        bucket.erase(it);
        present[pick] = false;
        --model_size;
      }
    } else {  // find
      auto& bucket = model[node->sig];
      const bool in_model =
          std::find(bucket.begin(), bucket.end(), node) != bucket.end();
      Node* found =
          table.Find(node->sig, [&](const Node* n) { return n == node; });
      EXPECT_EQ(found != nullptr, in_model);
      if (found != nullptr) {
        EXPECT_EQ(found, node);
      }
    }
    EXPECT_EQ(table.size(), model_size);
    if (op % 500 == 0) {
      ASSERT_TRUE(table.CheckStructure().ok());
      // Full sweep: every model entry findable, nothing extra.
      size_t walked = 0;
      table.ForEach([&](uint64_t sig, Node* n) {
        ++walked;
        auto& bucket = model[sig];
        EXPECT_NE(std::find(bucket.begin(), bucket.end(), n), bucket.end());
      });
      EXPECT_EQ(walked, model_size);
    }
  }
}

}  // namespace
}  // namespace watchman
