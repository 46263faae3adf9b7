// The paper's count claims, asserted as inequalities on the numbers the
// figure programs print in their count columns (Figures 1-3 and 5-7) and
// Table 1's slice, all measured by bench/paper_shape.h: each experiment
// loads a workload on one design and runs a fixed number of seeded
// transactions from one client, so the counts do not depend on the
// host's scheduling.
// Table 2 and Figures 11-12 are asserted in cost_model_test and
// fragmentation_test.
//
// Claims of the figures that this tree does not reproduce, and so are not
// asserted (values from bench_fig* on a 4-vCPU x86-64 VM):
//  * Figure 2: index pages take 60-80% of the conventional system's page
//    latches. TATP does (66%, asserted below); TPC-C puts 57% on index
//    pages and TPC-B 50%.
//  * Figure 3: PLP-Regular removes >80% of the conventional latches. It
//    removes 66%, all of them index latches (asserted: < 50% remain).
//  * Figure 6: Conv./Logical spend 15-20% of their time in index-latch
//    and SMO waits. At 8 clients they spend under 1%.
//  * Figure 7: heap-latch waits take >50% of Conv./Logical/PLP-Regular
//    time at high utilization. At 8 clients they take under 5%; the
//    conventional system's time goes to record-lock waits instead.
// The other timing claims (Figure 5 Ktps ordering, Figure 8's dips,
// Figure 9's ~10% MRBT gain, Figure 10's SMO waits) are printed by their
// programs and not asserted: they depend on the host's hardware contexts.
#include <gtest/gtest.h>

#include <array>

#include "bench/paper_shape.h"

namespace plp {
namespace {

using bench::CountRun;
using bench::CountWorkload;
using bench::kCountTxns;
using bench::MeasureCounts;
using bench::Variant;

constexpr Variant kConv{"Conv.", SystemDesign::kConventional};
constexpr Variant kLogical{"Logical", SystemDesign::kLogical};
constexpr Variant kPlpReg{"PLP-Reg", SystemDesign::kPlpRegular};
constexpr Variant kPlpLeaf{"PLP-Leaf", SystemDesign::kPlpLeaf};

// Figures 1 and 3 share one TATP run per Figure 1 variant.
class TatpCountsTest : public ::testing::Test {
 protected:
  enum { kBaseline, kSli, kLogicalOnly, kPlp, kLeaf, kNumVariants };

  static void SetUpTestSuite() {
    for (int i = 0; i < kNumVariants; ++i) {
      runs_[i] = MeasureCounts(bench::kFig1Variants[i], CountWorkload::kTatp,
                               kCountTxns);
      ASSERT_GT(runs_[i].committed, kCountTxns / 2u)
          << bench::kFig1Variants[i].label;
    }
  }

  static const CountRun& run(int v) { return runs_[v]; }

  static std::array<CountRun, kNumVariants> runs_;
};

std::array<CountRun, TatpCountsTest::kNumVariants> TatpCountsTest::runs_;

// Figure 1: locking dominates the baseline, SLI trims it, and the
// partitioned designs replace it with message passing.
TEST_F(TatpCountsTest, Fig1LockManagerGivesWayToMessagePassing) {
  const CountRun& baseline = run(kBaseline);
  for (int c = 0; c < kNumCsCategories; ++c) {
    EXPECT_GE(baseline.Entries(CsCategory::kLockMgr),
              baseline.Entries(static_cast<CsCategory>(c)))
        << CsCategoryName(static_cast<CsCategory>(c));
  }
  EXPECT_LT(run(kSli).Entries(CsCategory::kLockMgr),
            baseline.Entries(CsCategory::kLockMgr));
  for (int v = 0; v < kNumVariants; ++v) {
    SCOPED_TRACE(bench::kFig1Variants[v].label);
    const bool partitioned = v >= kLogicalOnly;
    if (partitioned) {
      EXPECT_EQ(run(v).cs.entries[static_cast<int>(CsCategory::kLockMgr)],
                0u);
      EXPECT_GT(run(v).Entries(CsCategory::kMessagePassing), 0.0);
    } else {
      EXPECT_GT(run(v).Entries(CsCategory::kLockMgr), 1.0)
          << "the conventional system acquires several locks per txn";
      EXPECT_EQ(
          run(v).cs.entries[static_cast<int>(CsCategory::kMessagePassing)],
          0u);
    }
  }
}

// Figure 1's log-manager column is the same on every design: all five
// share one log, and the same seeded transactions append the same
// records.
TEST_F(TatpCountsTest, Fig1LogManagerIsDesignIndependent) {
  for (int v = 1; v < kNumVariants; ++v) {
    SCOPED_TRACE(bench::kFig1Variants[v].label);
    EXPECT_EQ(run(v).committed, run(kBaseline).committed);
    EXPECT_EQ(run(v).cs.entries[static_cast<int>(CsCategory::kLogMgr)],
              run(kBaseline).cs.entries[static_cast<int>(CsCategory::kLogMgr)]);
  }
}

// Headline claim: PLP-Leaf enters far fewer critical sections per
// transaction than the conventional design (about 58% of them here).
TEST_F(TatpCountsTest, Fig1TotalCriticalSectionsShrink) {
  EXPECT_LT(run(kLeaf).PerTxn(run(kLeaf).cs.TotalEntries()),
            0.75 * run(kSli).PerTxn(run(kSli).cs.TotalEntries()));
}

// Figure 3: PLP-Regular drops every index latch, PLP-Leaf every heap
// latch too, leaving (almost) nothing.
TEST_F(TatpCountsTest, Fig3PageLatchHierarchy) {
  const double conv = run(kSli).TotalLatches();
  EXPECT_NEAR(run(kLogicalOnly).TotalLatches(), conv, 0.05 * conv)
      << "logical partitioning latches every page the conventional does";
  EXPECT_EQ(run(kPlp).cs.latches[static_cast<int>(PageClass::kIndex)], 0u);
  EXPECT_LT(run(kPlp).TotalLatches(), conv / 2);
  EXPECT_EQ(run(kLeaf).cs.latches[static_cast<int>(PageClass::kIndex)], 0u);
  EXPECT_EQ(run(kLeaf).cs.latches[static_cast<int>(PageClass::kHeap)], 0u);
  EXPECT_LE(run(kLeaf).TotalLatches(), 0.01);
}

// Figure 2 (TATP row): index pages take 60-80% of the conventional
// system's page latches, heap pages the rest.
TEST_F(TatpCountsTest, Fig2TatpLatchesMostlyOnIndexPages) {
  const CountRun& conv = run(kSli);
  const double total = static_cast<double>(conv.cs.TotalLatches());
  const double index = conv.cs.latches[static_cast<int>(PageClass::kIndex)];
  const double heap = conv.cs.latches[static_cast<int>(PageClass::kHeap)];
  EXPECT_GE(index / total, 0.6);
  EXPECT_LE(index / total, 0.8);
  EXPECT_EQ(index + heap, total);
}

// Figure 5: the critical sections that limit scaling on parallel hardware
// (lock manager, page latches, buffer pool) order the designs
// PLP-Regular < Logical < Conventional on GetSubscriberData.
TEST(PaperShapeTest, Fig5UnscalableCriticalSectionsOrdered) {
  const CountRun conv =
      MeasureCounts(kConv, CountWorkload::kTatpGetSubscriber, kCountTxns);
  const CountRun logical =
      MeasureCounts(kLogical, CountWorkload::kTatpGetSubscriber, kCountTxns);
  const CountRun plp =
      MeasureCounts(kPlpReg, CountWorkload::kTatpGetSubscriber, kCountTxns);
  EXPECT_LT(plp.Unscalable(), logical.Unscalable());
  EXPECT_LT(logical.Unscalable(), conv.Unscalable());
}

// Figure 6: on the insert/delete-heavy CALL_FORWARDING mix the latched
// designs take index latches and serialize SMOs behind the tree's SMO
// mutex; the PLP rows take no index latch and never enter the SMO mutex.
TEST(PaperShapeTest, Fig6PlpIndexesTakeNoLatchesAndNoSmoMutex) {
  for (const Variant& v : {kConv, kLogical}) {
    SCOPED_TRACE(v.label);
    const CountRun r =
        MeasureCounts(v, CountWorkload::kTatpInsertDelete, kCountTxns);
    EXPECT_GT(r.Latches(PageClass::kIndex), 1.0);
    EXPECT_GT(r.SmoMutex(), 0.0);
  }
  for (const Variant& v : {kPlpReg, kPlpLeaf}) {
    SCOPED_TRACE(v.label);
    const CountRun r =
        MeasureCounts(v, CountWorkload::kTatpInsertDelete, kCountTxns);
    EXPECT_GT(r.committed, kCountTxns / 2u);
    EXPECT_EQ(r.cs.latches[static_cast<int>(PageClass::kIndex)], 0u);
    EXPECT_EQ(r.SmoMutex(), 0.0);
  }
}

// Figure 7: with unpadded TPC-B records the hot branch/teller rows share
// heap pages, which the conventional system latches; PLP-Leaf owns each
// heap page from one leaf and takes no heap latch.
TEST(PaperShapeTest, Fig7PlpLeafTakesNoHeapLatches) {
  const CountRun conv = MeasureCounts(kConv, CountWorkload::kTpcb, kCountTxns);
  const CountRun leaf =
      MeasureCounts(kPlpLeaf, CountWorkload::kTpcb, kCountTxns);
  EXPECT_GT(conv.Latches(PageClass::kHeap), 1.0);
  EXPECT_GT(leaf.committed, kCountTxns / 2u);
  EXPECT_EQ(leaf.cs.latches[static_cast<int>(PageClass::kHeap)], 0u);
}

// Table 1: an MRBTree slice moves only the boundary path, allocating at
// most one new page per level.
TEST(PaperShapeTest, Table1SliceAllocatesOnlyTheBoundaryPath) {
  const bench::SliceRun slice = bench::MeasureSlice();
  EXPECT_GE(slice.height, 3);
  EXPECT_GT(slice.new_pages, 0u);
  EXPECT_LE(slice.new_pages, static_cast<std::size_t>(slice.height));
}

}  // namespace
}  // namespace plp
