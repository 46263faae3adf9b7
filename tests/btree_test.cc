// B+Tree tests: node format, tree operations, splits, SMO accounting,
// latch policies, slice/meld, concurrency, and randomized property tests.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/common/key_encoding.h"
#include "src/common/rng.h"
#include "src/index/btree.h"
#include "src/index/btree_node.h"
#include "src/sync/cs_profiler.h"

namespace plp {
namespace {

TEST(BTreeNodeTest, InitAndAccessors) {
  char data[kPageSize];
  BTreeNode::Init(data, 2);
  BTreeNode node(data);
  EXPECT_EQ(node.count(), 0);
  EXPECT_EQ(node.level(), 2);
  EXPECT_FALSE(node.is_leaf());
  EXPECT_EQ(node.next(), kInvalidPageId);
  EXPECT_EQ(node.leftmost_child(), kInvalidPageId);
}

TEST(BTreeNodeTest, SortedInsertAndSearch) {
  char data[kPageSize];
  BTreeNode::Init(data, 0);
  BTreeNode node(data);
  // Insert out of order at computed positions.
  for (const char* k : {"delta", "alpha", "charlie", "bravo"}) {
    const int pos = node.LowerBound(k);
    ASSERT_TRUE(node.InsertAt(pos, k, "v").ok());
  }
  ASSERT_EQ(node.count(), 4);
  EXPECT_EQ(node.KeyAt(0).ToString(), "alpha");
  EXPECT_EQ(node.KeyAt(3).ToString(), "delta");
  EXPECT_EQ(node.Find("charlie"), 2);
  EXPECT_EQ(node.Find("echo"), -1);
  EXPECT_EQ(node.LowerBound("bz"), 2);
  EXPECT_EQ(node.UpperBound("bravo"), 2);
}

TEST(BTreeNodeTest, RemoveAndCompact) {
  char data[kPageSize];
  BTreeNode::Init(data, 0);
  BTreeNode node(data);
  for (int i = 0; i < 100; ++i) {
    const std::string k = KeyU32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(node.InsertAt(node.LowerBound(k), k, "value").ok());
  }
  for (int i = 0; i < 100; i += 2) {
    const std::string k = KeyU32(static_cast<std::uint32_t>(i));
    node.RemoveAt(node.Find(k));
  }
  EXPECT_EQ(node.count(), 50);
  node.Compact();
  EXPECT_EQ(node.count(), 50);
  EXPECT_EQ(node.Find(KeyU32(1)), 0);
  EXPECT_EQ(node.Find(KeyU32(0)), -1);
}

TEST(BTreeNodeTest, MoveTailSplitsContents) {
  char left_data[kPageSize], right_data[kPageSize];
  BTreeNode::Init(left_data, 0);
  BTreeNode::Init(right_data, 0);
  BTreeNode left(left_data), right(right_data);
  for (int i = 0; i < 10; ++i) {
    const std::string k = KeyU32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(left.InsertAt(i, k, "v").ok());
  }
  left.MoveTail(6, &right);
  EXPECT_EQ(left.count(), 6);
  EXPECT_EQ(right.count(), 4);
  EXPECT_EQ(right.KeyAt(0).ToString(), KeyU32(6));
}

TEST(BTreeNodeTest, ChildForRouting) {
  char data[kPageSize];
  BTreeNode::Init(data, 1);
  BTreeNode node(data);
  node.set_leftmost_child(100);
  PageId c1 = 101, c2 = 102;
  ASSERT_TRUE(node.InsertAt(0, KeyU32(10),
                            Slice(reinterpret_cast<char*>(&c1), 4)).ok());
  ASSERT_TRUE(node.InsertAt(1, KeyU32(20),
                            Slice(reinterpret_cast<char*>(&c2), 4)).ok());
  EXPECT_EQ(node.ChildFor(KeyU32(5)), 100u);
  EXPECT_EQ(node.ChildFor(KeyU32(10)), 101u);
  EXPECT_EQ(node.ChildFor(KeyU32(15)), 101u);
  EXPECT_EQ(node.ChildFor(KeyU32(20)), 102u);
  EXPECT_EQ(node.ChildFor(KeyU32(999)), 102u);
}

class BTreeTest : public ::testing::TestWithParam<LatchPolicy> {
 protected:
  BufferPool pool_;
};

INSTANTIATE_TEST_SUITE_P(Policies, BTreeTest,
                         ::testing::Values(LatchPolicy::kLatched,
                                           LatchPolicy::kNone),
                         [](const auto& info) {
                           return info.param == LatchPolicy::kLatched
                                      ? "Latched"
                                      : "LatchFree";
                         });

TEST_P(BTreeTest, InsertProbeDelete) {
  BTree tree(&pool_, GetParam());
  ASSERT_TRUE(tree.Insert("key1", "value1").ok());
  std::string value;
  ASSERT_TRUE(tree.Probe("key1", &value).ok());
  EXPECT_EQ(value, "value1");
  EXPECT_TRUE(tree.Probe("missing", &value).IsNotFound());
  EXPECT_TRUE(tree.Insert("key1", "dup").IsAlreadyExists());
  ASSERT_TRUE(tree.Delete("key1").ok());
  EXPECT_TRUE(tree.Probe("key1", &value).IsNotFound());
  EXPECT_TRUE(tree.Delete("key1").IsNotFound());
  EXPECT_EQ(tree.num_entries(), 0u);
}

TEST_P(BTreeTest, ManyInsertsForceSplitsAndStaySorted) {
  BTree tree(&pool_, GetParam());
  constexpr int kN = 20000;
  Rng rng(3);
  std::vector<std::uint32_t> keys;
  for (int i = 0; i < kN; ++i) keys.push_back(static_cast<std::uint32_t>(i));
  // Shuffle for non-sequential insertion.
  for (int i = kN - 1; i > 0; --i) {
    std::swap(keys[static_cast<std::size_t>(i)],
              keys[rng.Uniform(static_cast<std::uint64_t>(i + 1))]);
  }
  for (std::uint32_t k : keys) {
    ASSERT_TRUE(tree.Insert(KeyU32(k), KeyU32(k * 2)).ok());
  }
  EXPECT_EQ(tree.num_entries(), static_cast<std::uint64_t>(kN));
  EXPECT_GT(tree.smo_count(), 0u);
  EXPECT_GE(tree.height(), 2);
  ASSERT_TRUE(tree.CheckIntegrity().ok());

  // Full scan returns every key in order.
  std::uint32_t expected = 0;
  ASSERT_TRUE(tree.ScanFrom(Slice(), [&](Slice k, Slice v) {
    EXPECT_EQ(DecodeU32(k), expected);
    EXPECT_EQ(DecodeU32(v), expected * 2);
    ++expected;
    return true;
  }).ok());
  EXPECT_EQ(expected, static_cast<std::uint32_t>(kN));
}

TEST_P(BTreeTest, SequentialInsertGrowsRightmost) {
  BTree tree(&pool_, GetParam());
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), "v").ok());
  }
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  EXPECT_EQ(tree.num_entries(), 5000u);
}

TEST_P(BTreeTest, UpdateValues) {
  BTree tree(&pool_, GetParam());
  ASSERT_TRUE(tree.Insert("k", "old").ok());
  ASSERT_TRUE(tree.Update("k", "new").ok());
  std::string value;
  ASSERT_TRUE(tree.Probe("k", &value).ok());
  EXPECT_EQ(value, "new");
  EXPECT_TRUE(tree.Update("missing", "x").IsNotFound());
  // Different-size update.
  ASSERT_TRUE(tree.Update("k", std::string(300, 'z')).ok());
  ASSERT_TRUE(tree.Probe("k", &value).ok());
  EXPECT_EQ(value.size(), 300u);
}

TEST_P(BTreeTest, RangeScanWindow) {
  BTree tree(&pool_, GetParam());
  for (std::uint32_t i = 0; i < 1000; i += 2) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), "v").ok());
  }
  std::vector<std::uint32_t> seen;
  ASSERT_TRUE(tree.ScanFrom(KeyU32(100), [&](Slice k, Slice) {
    const std::uint32_t v = DecodeU32(k);
    if (v >= 120) return false;
    seen.push_back(v);
    return true;
  }).ok());
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{100, 102, 104, 106, 108, 110,
                                              112, 114, 116, 118}));
}

TEST_P(BTreeTest, RootPageIdNeverChanges) {
  BTree tree(&pool_, GetParam());
  const PageId root = tree.root();
  const std::string payload(100, 'p');
  for (std::uint32_t i = 0; i < 50000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), payload).ok());
  }
  EXPECT_EQ(tree.root(), root);
  EXPECT_GE(tree.height(), 3);
}

TEST_P(BTreeTest, MinAndMedianKeys) {
  BTree tree(&pool_, GetParam());
  std::string key;
  EXPECT_TRUE(tree.MinKey(&key).IsNotFound());
  for (std::uint32_t i = 10; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), "v").ok());
  }
  ASSERT_TRUE(tree.MinKey(&key).ok());
  EXPECT_EQ(DecodeU32(key), 10u);
  ASSERT_TRUE(tree.ApproxMedianKey(&key).ok());
  const std::uint32_t median = DecodeU32(key);
  EXPECT_GT(median, 100u);
  EXPECT_LT(median, 900u);
}

TEST_P(BTreeTest, RandomOpsMatchModel) {
  BTree tree(&pool_, GetParam());
  std::map<std::string, std::string> model;
  Rng rng(77);
  for (int step = 0; step < 20000; ++step) {
    const std::string key = KeyU32(static_cast<std::uint32_t>(
        rng.Uniform(5000)));
    const std::uint64_t op = rng.Uniform(4);
    if (op == 0) {
      Status st = tree.Insert(key, "v" + key);
      EXPECT_EQ(st.ok(), model.emplace(key, "v" + key).second);
    } else if (op == 1) {
      Status st = tree.Delete(key);
      EXPECT_EQ(st.ok(), model.erase(key) > 0);
    } else if (op == 2) {
      std::string value;
      Status st = tree.Probe(key, &value);
      auto it = model.find(key);
      EXPECT_EQ(st.ok(), it != model.end());
      if (st.ok()) {
        EXPECT_EQ(value, it->second);
      }
    } else {
      Status st = tree.Update(key, "u" + key);
      auto it = model.find(key);
      EXPECT_EQ(st.ok(), it != model.end());
      if (st.ok()) it->second = "u" + key;
    }
  }
  EXPECT_EQ(tree.num_entries(), model.size());
  ASSERT_TRUE(tree.CheckIntegrity().ok());
}

TEST(BTreeLatchTest, LatchFreeModeAcquiresNoLatches) {
  CsProfiler::Global().Reset();
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kNone);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), "v").ok());
  }
  std::string value;
  ASSERT_TRUE(tree.Probe(KeyU32(1000), &value).ok());
  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.latches[static_cast<int>(PageClass::kIndex)], 0u);
}

TEST(BTreeLatchTest, LatchedModeAcquiresPerLevel) {
  CsProfiler::Global().Reset();
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kLatched);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), "v").ok());
  }
  const int height = tree.height();
  CsProfiler::Global().Reset();
  std::string value;
  ASSERT_TRUE(tree.Probe(KeyU32(1000), &value).ok());
  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.latches[static_cast<int>(PageClass::kIndex)],
            static_cast<std::uint64_t>(height));
}

TEST(BTreeConcurrencyTest, ParallelInsertersDisjointRanges) {
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kLatched);
  constexpr int kThreads = 4, kEach = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        const auto k = static_cast<std::uint32_t>(t * kEach + i);
        ASSERT_TRUE(tree.Insert(KeyU32(k), "v").ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tree.num_entries(),
            static_cast<std::uint64_t>(kThreads) * kEach);
  ASSERT_TRUE(tree.CheckIntegrity().ok());
}

TEST(BTreeConcurrencyTest, ReadersDuringWrites) {
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kLatched);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i * 2), "stable").ok());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint32_t i = 0; i < 5000 && !stop; ++i) {
      (void)tree.Insert(KeyU32(i * 2 + 1), "new");
    }
  });
  // Readers continuously probe pre-existing keys; they must always hit.
  for (int r = 0; r < 20000; ++r) {
    const auto k = static_cast<std::uint32_t>((r % 1000) * 2);
    std::string value;
    ASSERT_TRUE(tree.Probe(KeyU32(k), &value).ok());
    EXPECT_EQ(value, "stable");
  }
  stop = true;
  writer.join();
  ASSERT_TRUE(tree.CheckIntegrity().ok());
}

TEST(BTreeSliceTest, SliceSplitsAtKey) {
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kNone);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), KeyU32(i)).ok());
  }
  std::unique_ptr<BTree> right;
  ASSERT_TRUE(tree.SliceOff(KeyU32(6000), &right).ok());
  EXPECT_EQ(tree.num_entries(), 6000u);
  EXPECT_EQ(right->num_entries(), 4000u);
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  ASSERT_TRUE(right->CheckIntegrity().ok());

  std::string value;
  EXPECT_TRUE(tree.Probe(KeyU32(5999), &value).ok());
  EXPECT_TRUE(tree.Probe(KeyU32(6000), &value).IsNotFound());
  EXPECT_TRUE(right->Probe(KeyU32(6000), &value).ok());
  EXPECT_TRUE(right->Probe(KeyU32(5999), &value).IsNotFound());

  std::string min_key;
  ASSERT_TRUE(right->MinKey(&min_key).ok());
  EXPECT_EQ(DecodeU32(min_key), 6000u);
}

// Slicing exactly at a separator moves that separator's whole child to
// the right: the left tree keeps no separator equal to the boundary, so
// melding the halves back does not duplicate it.
TEST(BTreeSliceTest, SliceAtSeparatorThenMeldBack) {
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kNone);
  constexpr std::uint32_t kN = 20000;
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), KeyU32(i)).ok());
  }
  ASSERT_GE(tree.height(), 2);
  // The first key of the third leaf is a separator in its parent.
  PageId pid = tree.LeafFor(KeyU32(0));
  for (int hop = 0; hop < 2; ++hop) {
    pid = pool.RefToPid(BTreeNode(pool.FixUnlocked(pid)->data()).next());
    ASSERT_NE(pid, kInvalidPageId);
  }
  const std::string sep =
      BTreeNode(pool.FixUnlocked(pid)->data()).KeyAt(0).ToString();

  std::unique_ptr<BTree> right;
  ASSERT_TRUE(tree.SliceOff(sep, &right).ok());
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  ASSERT_TRUE(right->CheckIntegrity().ok());
  EXPECT_EQ(tree.num_entries() + right->num_entries(), kN);
  std::string max_key;
  ASSERT_TRUE(tree.ScanFrom(Slice(), [&](Slice k, Slice) {
    max_key = k.ToString();
    return true;
  }).ok());
  EXPECT_LT(Slice(max_key), Slice(sep)) << "left leaf chain crosses the cut";

  ASSERT_TRUE(tree.Meld(right.get(), sep).ok());
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  EXPECT_EQ(tree.num_entries(), kN);
  std::uint32_t expected = 0;
  ASSERT_TRUE(tree.ScanFrom(Slice(), [&](Slice k, Slice) {
    EXPECT_EQ(DecodeU32(k), expected);
    ++expected;
    return true;
  }).ok());
  EXPECT_EQ(expected, kN);
}

TEST(BTreeSliceTest, SliceMovesOnlyBoundaryEntries) {
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kNone);
  for (std::uint32_t i = 0; i < 50000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), KeyU32(i)).ok());
  }
  const std::size_t pages_before = pool.num_pages();
  std::unique_ptr<BTree> right;
  ASSERT_TRUE(tree.SliceOff(KeyU32(25000), &right).ok());
  // The slice allocates at most ~height new pages: the boundary path.
  EXPECT_LE(pool.num_pages(), pages_before + 6)
      << "slice must not copy the key range";
}

TEST(BTreeMeldTest, MeldEqualHeights) {
  BufferPool pool;
  BTree left(&pool, LatchPolicy::kNone);
  BTree right(&pool, LatchPolicy::kNone);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(left.Insert(KeyU32(i), "l").ok());
    ASSERT_TRUE(right.Insert(KeyU32(10000 + i), "r").ok());
  }
  ASSERT_TRUE(left.Meld(&right, KeyU32(10000)).ok());
  EXPECT_EQ(left.num_entries(), 6000u);
  ASSERT_TRUE(left.CheckIntegrity().ok());
  std::string value;
  EXPECT_TRUE(left.Probe(KeyU32(5000), &value).IsNotFound());  // in the gap
  EXPECT_TRUE(left.Probe(KeyU32(10500), &value).ok());
  EXPECT_TRUE(left.Probe(KeyU32(500), &value).ok());
  // Ordered scan crosses the meld boundary seamlessly.
  std::uint32_t count = 0;
  ASSERT_TRUE(left.ScanFrom(Slice(), [&](Slice, Slice) {
    ++count;
    return true;
  }).ok());
  EXPECT_EQ(count, 6000u);
}

TEST(BTreeMeldTest, MeldTallerLeft) {
  BufferPool pool;
  BTree left(&pool, LatchPolicy::kNone);
  BTree right(&pool, LatchPolicy::kNone);
  for (std::uint32_t i = 0; i < 30000; ++i) {
    ASSERT_TRUE(left.Insert(KeyU32(i), "l").ok());
  }
  for (std::uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(right.Insert(KeyU32(100000 + i), "r").ok());
  }
  ASSERT_GT(left.height(), right.height());
  ASSERT_TRUE(left.Meld(&right, KeyU32(100000)).ok());
  EXPECT_EQ(left.num_entries(), 30050u);
  ASSERT_TRUE(left.CheckIntegrity().ok());
  std::string value;
  EXPECT_TRUE(left.Probe(KeyU32(100025), &value).ok());
}

TEST(BTreeMeldTest, MeldTallerRight) {
  BufferPool pool;
  BTree left(&pool, LatchPolicy::kNone);
  BTree right(&pool, LatchPolicy::kNone);
  for (std::uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(left.Insert(KeyU32(i), "l").ok());
  }
  for (std::uint32_t i = 0; i < 30000; ++i) {
    ASSERT_TRUE(right.Insert(KeyU32(1000 + i), "r").ok());
  }
  ASSERT_LT(left.height(), right.height());
  ASSERT_TRUE(left.Meld(&right, KeyU32(1000)).ok());
  EXPECT_EQ(left.num_entries(), 30050u);
  ASSERT_TRUE(left.CheckIntegrity().ok());
  std::string value;
  EXPECT_TRUE(left.Probe(KeyU32(25), &value).ok());
  EXPECT_TRUE(left.Probe(KeyU32(15000), &value).ok());
}

TEST(BTreeHookTest, LeafMovedHookFiresOnSplit) {
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kNone);
  int moved = 0;
  tree.set_leaf_moved_hook([&](Slice, Slice, PageId) -> std::string {
    ++moved;
    return std::string();  // keep original values
  });
  // Descending keys split mid-leaf (an ascending load appends and moves
  // nothing; see BTreeSplitPolicyTest).
  for (std::uint32_t i = 2000; i-- > 0;) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), "0123456789012345").ok());
  }
  EXPECT_GT(moved, 0) << "leaf splits must invoke the relocation hook";
  ASSERT_TRUE(tree.CheckIntegrity().ok());
}

TEST(BTreeHookTest, HookCanRewriteValues) {
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kNone);
  tree.set_leaf_moved_hook([&](Slice, Slice, PageId) -> std::string {
    return std::string("REWRITTEN0123456");  // same length as original
  });
  for (std::uint32_t i = 2000; i-- > 0;) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), "originalvalue123").ok());
  }
  int rewritten = 0;
  tree.ForEachEntry([&](Slice, Slice v) {
    if (v.ToString() == "REWRITTEN0123456") ++rewritten;
  });
  EXPECT_GT(rewritten, 0);
}

// Split-point rule: a rightmost leaf receiving a key past its last entry
// splits at the insertion point (nothing moves); every other split is a
// middle split that relocates the upper half through the hook. Descending
// inserts are BTreeHookTest's case.
class BTreeSplitPolicyTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kN = 5000;
  static constexpr const char* kValue = "0123456789012345";

  // Inserts `keys` with a counting leaf-moved hook; returns the count.
  int InsertCountingMoves(const std::vector<std::uint32_t>& keys) {
    int moved = 0;
    tree_.set_leaf_moved_hook([&](Slice, Slice, PageId) -> std::string {
      ++moved;
      return std::string();
    });
    for (std::uint32_t k : keys) {
      EXPECT_TRUE(tree_.Insert(KeyU32(k), kValue).ok()) << k;
    }
    EXPECT_EQ(tree_.num_entries(), keys.size());
    EXPECT_TRUE(tree_.CheckIntegrity().ok());
    return moved;
  }

  static std::vector<std::uint32_t> Ascending() {
    std::vector<std::uint32_t> keys(kN);
    for (std::uint32_t i = 0; i < kN; ++i) keys[i] = i;
    return keys;
  }

  BufferPool pool_;
  BTree tree_{&pool_, LatchPolicy::kNone};
};

TEST_F(BTreeSplitPolicyTest, AscendingInsertsMoveNothingAndFillLeaves) {
  EXPECT_EQ(InsertCountingMoves(Ascending()), 0);
  EXPECT_GT(tree_.smo_count(), 0u);
  // Walk the leaf chain: every leaf but the last is full.
  int leaves = 0;
  PageId pid = tree_.LeafFor(KeyU32(0));
  while (pid != kInvalidPageId) {
    BTreeNode leaf(pool_.FixUnlocked(pid)->data());
    pid = pool_.RefToPid(leaf.next());
    ++leaves;
    if (pid != kInvalidPageId) {
      EXPECT_FALSE(leaf.HasRoomFor(KeyU32(kN), kValue))
          << "leaf " << leaves << " of an ascending load is not full";
    }
  }
  EXPECT_GT(leaves, 2);
}

TEST_F(BTreeSplitPolicyTest, ShuffledInsertsSplitMidLeaf) {
  std::vector<std::uint32_t> keys = Ascending();
  Rng rng(11);
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  EXPECT_GT(InsertCountingMoves(keys), 0);
}

TEST(BTreeStatsTest, NodesVisitedTracksHeight) {
  BufferPool pool;
  BTree tree(&pool, LatchPolicy::kNone);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(tree.Insert(KeyU32(i), "v").ok());
  }
  const int height = tree.height();
  const std::uint64_t before = tree.nodes_visited();
  std::string value;
  ASSERT_TRUE(tree.Probe(KeyU32(5000), &value).ok());
  EXPECT_EQ(tree.nodes_visited() - before,
            static_cast<std::uint64_t>(height));
}

}  // namespace
}  // namespace plp
