/**
 * PageTable unit tests: the refcounted ownership layer under the KV
 * cache. Exercised with synthetic storage hooks so the sharing
 * semantics — refcount bumps on attach, copy-on-write of a visible
 * open tail, pinned pages surviving their sequences, typed
 * double-release errors, token-metered capacity pressure driving the
 * reclaim hook, one kv.alloc fault check per append — are pinned down
 * independently of any real cache storage.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "runtime/fault_injection.hh"
#include "runtime/page_table.hh"
#include "runtime/status.hh"

namespace moelight {
namespace {

/** Synthetic block store: tracks alloc/copy/free calls. */
struct FakeStore
{
    std::vector<bool> live;
    std::vector<BlockId> freeIds;
    int allocs = 0, copies = 0, frees = 0;
    BlockId lastCopyDst{0}, lastCopySrc{0};
    std::size_t lastCopyTokens = 0;

    PageTableHooks
    hooks()
    {
        return PageTableHooks{
            [this] {
                ++allocs;
                if (!freeIds.empty()) {
                    BlockId id = freeIds.back();
                    freeIds.pop_back();
                    live[id.value()] = true;
                    return id;
                }
                live.push_back(true);
                return BlockId(live.size() - 1);
            },
            [this](BlockId dst, BlockId src, std::size_t tokens) {
                ++copies;
                lastCopyDst = dst;
                lastCopySrc = src;
                lastCopyTokens = tokens;
            },
            [this](BlockId id) {
                ++frees;
                live[id.value()] = false;
                freeIds.push_back(id);
            },
        };
    }
};

TEST(PageTable, AppendOpensPagesAndTracksCounters)
{
    FakeStore store;
    PageTable t(2, 1, 4, 64, store.hooks());
    for (int i = 0; i < 6; ++i) {
        AppendSlot s = t.appendToken(SeqId(0), LayerIdx(0));
        EXPECT_EQ(s.fresh, i % 4 == 0) << i;
        EXPECT_EQ(s.offset, static_cast<std::size_t>(i % 4)) << i;
        EXPECT_FALSE(s.copied);
    }
    EXPECT_EQ(t.streamLen(SeqId(0), LayerIdx(0)), 6u);
    EXPECT_EQ(t.residentBlocks(), 2u);
    EXPECT_EQ(t.referencedBlocks(), 2u);
    EXPECT_EQ(t.residentTokens(), 6u);
    EXPECT_EQ(store.allocs, 2);

    t.freeSequence(SeqId(0));
    EXPECT_EQ(t.residentBlocks(), 0u);
    EXPECT_EQ(t.residentTokens(), 0u);
    EXPECT_EQ(store.frees, 2);
    EXPECT_FALSE(t.sequenceLive(SeqId(0)));
}

TEST(PageTable, AttachSharedBumpsRefcountsAndFreesOnlyOnce)
{
    FakeStore store;
    PageTable t(3, 1, 4, 64, store.hooks());
    for (int i = 0; i < 8; ++i)
        t.appendToken(SeqId(0), LayerIdx(0));
    std::vector<BlockId> blocks(t.streamBlocks(SeqId(0), LayerIdx(0)).begin(),
                                t.streamBlocks(SeqId(0), LayerIdx(0)).end());
    ASSERT_EQ(blocks.size(), 2u);

    t.attachShared(SeqId(1), LayerIdx(0), blocks);
    t.attachShared(SeqId(2), LayerIdx(0), blocks);
    EXPECT_EQ(t.streamLen(SeqId(1), LayerIdx(0)), 8u);
    EXPECT_EQ(t.blockStreamRefs(blocks[0]), 3u);
    // Shared blocks count once in every physical counter.
    EXPECT_EQ(t.residentBlocks(), 2u);
    EXPECT_EQ(t.residentTokens(), 8u);

    t.freeSequence(SeqId(0));
    t.freeSequence(SeqId(1));
    EXPECT_EQ(store.frees, 0) << "a still-shared block must survive";
    EXPECT_EQ(t.blockStreamRefs(blocks[0]), 1u);
    t.freeSequence(SeqId(2));
    EXPECT_EQ(store.frees, 2);
    EXPECT_EQ(t.residentBlocks(), 0u);
}

TEST(PageTable, AttachSharedRejectsPartialAndNonEmptyStreams)
{
    FakeStore store;
    PageTable t(2, 1, 4, 64, store.hooks());
    for (int i = 0; i < 6; ++i)  // 1 closed page + 2-token open tail
        t.appendToken(SeqId(0), LayerIdx(0));
    std::vector<BlockId> blocks(t.streamBlocks(SeqId(0), LayerIdx(0)).begin(),
                                t.streamBlocks(SeqId(0), LayerIdx(0)).end());
    // The open tail is not shareable.
    EXPECT_THROW(t.attachShared(SeqId(1), LayerIdx(0), blocks), PanicError);
    // A closed page is — but only into an empty stream.
    std::vector<BlockId> closed{blocks[0]};
    t.attachShared(SeqId(1), LayerIdx(0), closed);
    EXPECT_THROW(t.attachShared(SeqId(1), LayerIdx(0), closed), PanicError);
}

TEST(PageTable, CopyOnWriteFiresOnSharedOpenTail)
{
    FakeStore store;
    PageTable t(2, 1, 4, 64, store.hooks());
    // Build one closed page for seq 0, then pin its open successor
    // via a pin (the "another holder can see it" case without a
    // second stream, since streams can only share closed pages).
    for (int i = 0; i < 6; ++i)
        t.appendToken(SeqId(0), LayerIdx(0));
    BlockId open = t.streamBlocks(SeqId(0), LayerIdx(0))[1];
    t.pin(open);
    AppendSlot s = t.appendToken(SeqId(0), LayerIdx(0));
    EXPECT_TRUE(s.copied);
    EXPECT_TRUE(s.fresh);
    EXPECT_NE(s.block, open);
    EXPECT_EQ(store.lastCopySrc, open);
    EXPECT_EQ(store.lastCopyDst, s.block);
    EXPECT_EQ(store.lastCopyTokens, 2u) << "copies the open prefix";
    // The pinned original keeps its 2 tokens; the copy took them plus
    // the appended one.
    EXPECT_EQ(t.blockTokens(open), 2u);
    EXPECT_EQ(t.blockTokens(s.block), 3u);
    EXPECT_EQ(t.streamLen(SeqId(0), LayerIdx(0)), 7u);
    EXPECT_EQ(t.blockStreamRefs(open), 0u);
    EXPECT_EQ(t.blockPins(open), 1u);
}

TEST(PageTable, PinSurvivesSequenceAndUnpinIsTypedOnDoubleRelease)
{
    FakeStore store;
    PageTable t(2, 1, 4, 64, store.hooks());
    for (int i = 0; i < 4; ++i)
        t.appendToken(SeqId(0), LayerIdx(0));
    BlockId b = t.streamBlocks(SeqId(0), LayerIdx(0))[0];
    t.pin(b);
    EXPECT_EQ(t.pinnedTokens(), 4u);

    t.freeSequence(SeqId(0));
    EXPECT_EQ(store.frees, 0) << "pinned page outlives its sequence";
    EXPECT_EQ(t.residentBlocks(), 1u);
    EXPECT_EQ(t.referencedBlocks(), 0u)
        << "pinned-but-unreferenced is cached capacity, not usage";

    t.unpin(b);
    EXPECT_EQ(store.frees, 1);
    EXPECT_EQ(t.pinnedTokens(), 0u);
    try {
        t.unpin(b);
        FAIL() << "double unpin must throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvDoubleFree);
        EXPECT_EQ(e.site(), "kv.free");
    }
}

TEST(PageTable, FreeSequenceErrorsAreTyped)
{
    FakeStore store;
    PageTable t(2, 1, 4, 64, store.hooks());
    try {
        t.freeSequence(SeqId(9));
        FAIL() << "out-of-range freeSequence must throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvInvalidSequence);
        EXPECT_EQ(e.site(), "kv.free");
    }
    t.appendToken(SeqId(0), LayerIdx(0));
    t.freeSequence(SeqId(0));
    try {
        t.freeSequence(SeqId(0));
        FAIL() << "double freeSequence must throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvDoubleFree);
        EXPECT_EQ(e.site(), "kv.free");
    }
}

TEST(PageTable, ReleaseWhileSharedKeepsOtherStreamIntact)
{
    FakeStore store;
    PageTable t(2, 1, 4, 64, store.hooks());
    for (int i = 0; i < 4; ++i)
        t.appendToken(SeqId(0), LayerIdx(0));
    std::vector<BlockId> blocks(t.streamBlocks(SeqId(0), LayerIdx(0)).begin(),
                                t.streamBlocks(SeqId(0), LayerIdx(0)).end());
    t.attachShared(SeqId(1), LayerIdx(0), blocks);
    t.freeSequence(SeqId(0));
    // Releasing seq 0 again is a typed double free; seq 1's view of
    // the shared block is untouched by either call.
    EXPECT_THROW(t.freeSequence(SeqId(0)), EngineError);
    EXPECT_EQ(t.streamLen(SeqId(1), LayerIdx(0)), 4u);
    EXPECT_EQ(t.blockTokens(blocks[0]), 4u);
    t.freeSequence(SeqId(1));
    EXPECT_EQ(t.residentBlocks(), 0u);
}

TEST(PageTable, CapacityPressureDrivesReclaimThenThrowsTyped)
{
    FakeStore store;
    PageTable t(2, 1, 4, 8, store.hooks());
    for (int i = 0; i < 8; ++i)
        t.appendToken(SeqId(0), LayerIdx(0));  // exactly the 8-token budget
    bool reclaimed = false;
    std::vector<BlockId> cached;
    t.setReclaimHook([&] {
        if (cached.empty())
            return false;
        t.unpin(cached.back());
        cached.pop_back();
        reclaimed = true;
        return true;
    });
    try {
        t.appendToken(SeqId(0), LayerIdx(0));
        FAIL() << "over-budget append must throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvExhausted);
        EXPECT_EQ(e.site(), "kv.alloc");
    }
    EXPECT_EQ(t.streamLen(SeqId(0), LayerIdx(0)), 8u) << "failed append mutates nothing";

    // Park a cached (pinned, unreferenced) page the hook can evict:
    // now the same append succeeds by reclaiming it.
    BlockId b = t.streamBlocks(SeqId(0), LayerIdx(0))[0];
    t.pin(b);
    cached.push_back(b);
    t.freeSequence(SeqId(0));
    EXPECT_EQ(t.residentBlocks(), 1u);  // the cached page
    for (int i = 0; i < 8; ++i)
        t.appendToken(SeqId(1), LayerIdx(0));
    EXPECT_TRUE(reclaimed);
    EXPECT_EQ(t.streamLen(SeqId(1), LayerIdx(0)), 8u);
    EXPECT_EQ(t.residentBlocks(), 2u);
}

TEST(PageTable, CapacityMetersExactTokens)
{
    FakeStore store;
    PageTable t(1, 1, 4, 5, store.hooks());
    for (int i = 0; i < 5; ++i)
        t.appendToken(SeqId(0), LayerIdx(0));
    EXPECT_THROW(t.appendToken(SeqId(0), LayerIdx(0)), EngineError);
    EXPECT_EQ(t.residentTokens(), 5u);
    t.freeSequence(SeqId(0));
    EXPECT_EQ(t.residentTokens(), 0u);
}

TEST(PageTable, CopyOnWriteChargesTheCopiedPrefix)
{
    // Copy-on-write duplicates the open prefix, so the append needs
    // room for prefix + 1 tokens; without it the append is rejected
    // before any mutation.
    FakeStore store;
    PageTable t(1, 1, 4, 8, store.hooks());
    for (int i = 0; i < 6; ++i)  // 1 closed page + 2-token open tail
        t.appendToken(SeqId(0), LayerIdx(0));
    BlockId open = t.streamBlocks(SeqId(0), LayerIdx(0))[1];
    t.pin(open);
    try {
        t.appendToken(SeqId(0), LayerIdx(0));  // 6 + 2 + 1 > 8
        FAIL() << "copy-on-write over budget must throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvExhausted);
    }
    EXPECT_EQ(store.copies, 0);
    EXPECT_EQ(t.streamLen(SeqId(0), LayerIdx(0)), 6u);
    EXPECT_EQ(t.residentTokens(), 6u);
    t.checkInvariants();

    t.unpin(open);  // tail private again: appends in place
    EXPECT_FALSE(t.appendToken(SeqId(0), LayerIdx(0)).copied);
    EXPECT_EQ(t.residentTokens(), 7u);
    t.checkInvariants();
}

TEST(PageTable, AllocFaultInjectionFiresPerAppend)
{
    // One kv.alloc check per append, whether or not it opens a page.
    FakeStore store;
    PageTable t(1, 1, 4, 0, store.hooks());
    ScopedFault fault("kv.alloc", 2);  // second check fires
    t.appendToken(SeqId(0), LayerIdx(0));  // opens page 1: check #1 passes
    try {
        t.appendToken(SeqId(0), LayerIdx(0));  // within page: check #2 fires
        FAIL() << "armed kv.alloc fault must throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::FaultInjected);
        EXPECT_EQ(e.site(), "kv.alloc");
    }
    EXPECT_EQ(fault.hits(), 1u);
    EXPECT_EQ(t.streamLen(SeqId(0), LayerIdx(0)), 1u);
    EXPECT_EQ(t.residentTokens(), 1u);
    t.checkInvariants();
    t.appendToken(SeqId(0), LayerIdx(0));  // one-shot: recovers after firing
    EXPECT_EQ(t.streamLen(SeqId(0), LayerIdx(0)), 2u);
}

TEST(PageTable, CheckInvariantsHoldsAcrossSharingAndRelease)
{
    FakeStore store;
    PageTable t(3, 2, 4, 0, store.hooks());
    t.checkInvariants();
    for (int i = 0; i < 9; ++i)
        for (std::size_t layer = 0; layer < 2; ++layer)
            t.appendToken(SeqId(0), LayerIdx(layer));
    t.checkInvariants();
    std::vector<BlockId> closed(
        t.streamBlocks(SeqId(0), LayerIdx(1)).begin(),
        t.streamBlocks(SeqId(0), LayerIdx(1)).begin() + 2);
    t.attachShared(SeqId(1), LayerIdx(1), closed);
    t.pin(closed[0]);
    t.checkInvariants();
    t.freeSequence(SeqId(0));
    t.checkInvariants();
    t.freeSequence(SeqId(1));
    t.checkInvariants();
    EXPECT_EQ(t.residentBlocks(), 1u) << "only the pinned page";
    t.unpin(closed[0]);
    t.checkInvariants();
    EXPECT_EQ(t.residentTokens(), 0u);
}

} // namespace
} // namespace moelight
