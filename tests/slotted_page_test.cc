// Tests for the slotted heap-page layout, including property-style
// fill/compaction sweeps.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/storage/slotted_page.h"

namespace plp {
namespace {

// A page buffer formatted on construction, so it is initialised before
// the SlottedPage view over it is built.
struct FormattedPage {
  FormattedPage() { SlottedPage::Init(data); }
  char data[kPageSize];
};

class SlottedPageTest : public ::testing::Test {
 protected:
  FormattedPage buf_;
  SlottedPage page_{buf_.data};
};

TEST_F(SlottedPageTest, InitGivesEmptyPage) {
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.live_count(), 0);
  EXPECT_GT(page_.ContiguousFreeSpace(), kPageSize - 64);
}

TEST_F(SlottedPageTest, InsertAndGet) {
  SlotId slot;
  ASSERT_TRUE(page_.Insert("hello", &slot).ok());
  Slice rec;
  ASSERT_TRUE(page_.Get(slot, &rec).ok());
  EXPECT_EQ(rec.ToString(), "hello");
  EXPECT_EQ(page_.live_count(), 1);
}

TEST_F(SlottedPageTest, EmptyRecordRejected) {
  SlotId slot;
  EXPECT_EQ(page_.Insert(Slice(), &slot).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SlottedPageTest, GetMissingSlot) {
  Slice rec;
  EXPECT_TRUE(page_.Get(0, &rec).IsNotFound());
  SlotId slot;
  ASSERT_TRUE(page_.Insert("x", &slot).ok());
  EXPECT_TRUE(page_.Get(slot + 1, &rec).IsNotFound());
}

TEST_F(SlottedPageTest, DeleteLeavesTombstoneAndStableRids) {
  SlotId a, b;
  ASSERT_TRUE(page_.Insert("first", &a).ok());
  ASSERT_TRUE(page_.Insert("second", &b).ok());
  ASSERT_TRUE(page_.Delete(a).ok());
  EXPECT_TRUE(page_.Delete(a).IsNotFound());  // double delete
  Slice rec;
  ASSERT_TRUE(page_.Get(b, &rec).ok());  // other slot untouched
  EXPECT_EQ(rec.ToString(), "second");
  EXPECT_EQ(page_.live_count(), 1);
}

TEST_F(SlottedPageTest, TombstoneSlotReused) {
  SlotId a, b, c;
  ASSERT_TRUE(page_.Insert("one", &a).ok());
  ASSERT_TRUE(page_.Insert("two", &b).ok());
  ASSERT_TRUE(page_.Delete(a).ok());
  ASSERT_TRUE(page_.Insert("three", &c).ok());
  EXPECT_EQ(c, a);  // freed slot recycled
}

TEST_F(SlottedPageTest, UpdateInPlaceAndGrow) {
  SlotId slot;
  ASSERT_TRUE(page_.Insert("0123456789", &slot).ok());
  ASSERT_TRUE(page_.Update(slot, "short").ok());
  Slice rec;
  ASSERT_TRUE(page_.Get(slot, &rec).ok());
  EXPECT_EQ(rec.ToString(), "short");
  // Growing re-allocates on the same page with the same slot id.
  const std::string big(100, 'B');
  ASSERT_TRUE(page_.Update(slot, big).ok());
  ASSERT_TRUE(page_.Get(slot, &rec).ok());
  EXPECT_EQ(rec.ToString(), big);
}

TEST_F(SlottedPageTest, FillUntilNoSpace) {
  const std::string rec(100, 'r');
  SlotId slot;
  int inserted = 0;
  while (page_.Insert(rec, &slot).ok()) ++inserted;
  // ~8KB / (100 + 4) per record.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  EXPECT_FALSE(page_.HasRoomFor(rec.size()));
}

TEST_F(SlottedPageTest, CompactionReclaimsDeletedSpace) {
  const std::string rec(512, 'r');
  std::vector<SlotId> slots;
  SlotId slot;
  while (page_.Insert(rec, &slot).ok()) slots.push_back(slot);
  // Free every other record, then insert records that only fit after
  // compaction (insert does it internally).
  for (std::size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.Delete(slots[i]).ok());
  }
  const std::string big(1024, 'B');
  ASSERT_TRUE(page_.Insert(big, &slot).ok());
  Slice out;
  ASSERT_TRUE(page_.Get(slot, &out).ok());
  EXPECT_EQ(out.ToString(), big);
  // Survivors intact after compaction.
  for (std::size_t i = 1; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.Get(slots[i], &out).ok());
    EXPECT_EQ(out.ToString(), rec);
  }
}

TEST_F(SlottedPageTest, ForEachVisitsLiveOnly) {
  SlotId a, b, c;
  ASSERT_TRUE(page_.Insert("a", &a).ok());
  ASSERT_TRUE(page_.Insert("b", &b).ok());
  ASSERT_TRUE(page_.Insert("c", &c).ok());
  ASSERT_TRUE(page_.Delete(b).ok());
  std::vector<std::string> seen;
  page_.ForEach([&](SlotId, Slice rec) { seen.push_back(rec.ToString()); });
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "c"}));
}

TEST_F(SlottedPageTest, OwnerField) {
  EXPECT_EQ(page_.owner(), 0u);
  page_.set_owner(1234);
  EXPECT_EQ(page_.owner(), 1234u);
}

TEST_F(SlottedPageTest, PutAtCreatesExactSlot) {
  ASSERT_TRUE(page_.PutAt(5, "redo-me").ok());
  EXPECT_EQ(page_.slot_count(), 6);
  EXPECT_EQ(page_.live_count(), 1);
  Slice rec;
  ASSERT_TRUE(page_.Get(5, &rec).ok());
  EXPECT_EQ(rec.ToString(), "redo-me");
  // Intermediate slots are tombstones.
  EXPECT_TRUE(page_.Get(2, &rec).IsNotFound());
}

TEST_F(SlottedPageTest, PutAtReplaces) {
  ASSERT_TRUE(page_.PutAt(0, "v1").ok());
  ASSERT_TRUE(page_.PutAt(0, "v2-longer").ok());
  Slice rec;
  ASSERT_TRUE(page_.Get(0, &rec).ok());
  EXPECT_EQ(rec.ToString(), "v2-longer");
  EXPECT_EQ(page_.live_count(), 1);
}

// Property test: a randomized op sequence against an in-memory model.
TEST_F(SlottedPageTest, RandomOpsMatchModel) {
  Rng rng(2024);
  std::map<SlotId, std::string> model;
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t op = rng.Uniform(3);
    if (op == 0) {
      std::string rec(rng.Range(1, 64), static_cast<char>('a' + step % 26));
      SlotId slot;
      Status st = page_.Insert(rec, &slot);
      if (st.ok()) {
        EXPECT_EQ(model.count(slot), 0u);
        model[slot] = rec;
      }
    } else if (op == 1 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.Uniform(model.size())));
      ASSERT_TRUE(page_.Delete(it->first).ok());
      model.erase(it);
    } else if (op == 2 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.Uniform(model.size())));
      std::string rec(rng.Range(1, 64), 'u');
      if (page_.Update(it->first, rec).ok()) it->second = rec;
    }
    if (step % 500 == 0) {
      EXPECT_EQ(page_.live_count(), model.size());
      for (const auto& [slot, expected] : model) {
        Slice rec;
        ASSERT_TRUE(page_.Get(slot, &rec).ok());
        EXPECT_EQ(rec.ToString(), expected);
      }
    }
  }
}

}  // namespace
}  // namespace plp
