#include "runtime/page_table.hh"

#include <string>

#include "common/logging.hh"
#include "runtime/fault_injection.hh"
#include "runtime/status.hh"

namespace moelight {

PageTable::PageTable(std::size_t numSeqs, std::size_t layers,
                     std::size_t pageTokens, std::size_t capacityTokens,
                     PageTableHooks hooks)
    : numSeqs_(numSeqs),
      layers_(layers),
      pageTokens_(pageTokens),
      capacityTokens_(capacityTokens),
      hooks_(std::move(hooks)),
      streams_(numSeqs * layers)
{
    fatalIf(numSeqs == 0, "page table for zero sequences");
    fatalIf(layers == 0, "page table for zero layers");
    fatalIf(pageTokens == 0, "KV page must hold at least one token");
    fatalIf(!hooks_.allocBlock || !hooks_.copyBlock ||
                !hooks_.freeBlock,
            "page table needs all three storage hooks");
}

PageTable::Stream &
PageTable::at(SeqId seq, LayerIdx layer)
{
    panicIf(seq.value() >= numSeqs_ || layer.value() >= layers_,
            "KV slot (", seq, ",", layer, ") out of range");
    return streams_[seq.value() * layers_ + layer.value()];
}

const PageTable::Stream &
PageTable::at(SeqId seq, LayerIdx layer) const
{
    return const_cast<PageTable *>(this)->at(seq, layer);
}

PageTable::BlockMeta &
PageTable::meta(BlockId b)
{
    if (static_cast<std::size_t>(b.value()) >= meta_.size())
        meta_.resize(static_cast<std::size_t>(b.value()) + 1);
    return meta_[b.value()];
}

const PageTable::BlockMeta &
PageTable::meta(BlockId b) const
{
    panicIf(static_cast<std::size_t>(b.value()) >= meta_.size(),
            "unknown KV block ", b);
    return meta_[b.value()];
}

void
PageTable::ensureCapacity(SeqId seq, LayerIdx layer,
                          std::size_t len, std::size_t needTokens)
{
    while (capacityTokens_ != 0 &&
           residentTokens_ + needTokens > capacityTokens_)
        if (!reclaim_ || !reclaim_())
            throw EngineError(
                ErrorCode::KvExhausted, "kv.alloc",
                "KV cache out of token capacity appending token " +
                    std::to_string(len) +
                    " of (seq " + std::to_string(seq.value()) +
                    ", layer " + std::to_string(layer.value()) + ")");
}

BlockId
PageTable::allocFresh()
{
    BlockId b = hooks_.allocBlock();
    BlockMeta &m = meta(b);
    panicIf(m.resident, "allocBlock returned a resident block ", b);
    m = BlockMeta{};
    m.resident = true;
    ++residentBlocks_;
    return b;
}

void
PageTable::ref(BlockId b)
{
    BlockMeta &m = meta(b);
    if (m.streamRefs++ == 0)
        ++referencedBlocks_;
}

void
PageTable::releasePhysical(BlockId b)
{
    BlockMeta &m = meta(b);
    panicIf(!m.resident, "releasing non-resident KV block ", b);
    panicIf(residentTokens_ < m.tokens,
            "KV token accounting underflow");
    residentTokens_ -= m.tokens;
    --residentBlocks_;
    m.resident = false;
    m.tokens = 0;
    hooks_.freeBlock(b);
}

void
PageTable::deref(BlockId b)
{
    BlockMeta &m = meta(b);
    panicIf(m.streamRefs == 0, "deref of unreferenced KV block ", b);
    if (--m.streamRefs == 0) {
        --referencedBlocks_;
        if (m.pins == 0)
            releasePhysical(b);
    }
}

AppendSlot
PageTable::appendToken(SeqId seq, LayerIdx layer)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    Stream &st = at(seq, layer);
    std::size_t off = st.len % pageTokens_;
    FaultInjector::check("kv.alloc");

    // Copy-on-write: another holder can see this open tail, so
    // appending in place would corrupt it. Take a private copy of the
    // prefix and release the shared original. (The engines never hit
    // this — shared prefix blocks are always full — but the invariant
    // is enforced here, not by caller discipline.)
    bool cow = false;
    if (off != 0) {
        const BlockMeta &m = meta(st.blocks.back());
        cow = m.streamRefs > 1 || m.pins > 0;
    }
    // One budget check per append, before any mutation: the token,
    // plus the copied prefix when copy-on-write duplicates it.
    ensureCapacity(seq, layer, st.len, cow ? off + 1 : 1);

    AppendSlot slot;
    if (off == 0) {
        BlockId b = allocFresh();
        ref(b);
        st.blocks.push_back(b);
        slot.fresh = true;
    } else if (cow) {
        BlockId last = st.blocks.back();
        BlockId fresh = allocFresh();
        hooks_.copyBlock(fresh, last, off);
        meta(fresh).tokens = off;
        residentTokens_ += off;
        ref(fresh);
        deref(last);
        st.blocks.back() = fresh;
        slot.fresh = true;
        slot.copied = true;
    }
    BlockId b = st.blocks.back();
    meta(b).tokens += 1;
    residentTokens_ += 1;
    st.len += 1;
    slot.block = b;
    slot.offset = off;
    return slot;
}

void
PageTable::attachShared(SeqId seq, LayerIdx layer,
                        std::span<const BlockId> blocks)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    Stream &st = at(seq, layer);
    panicIf(!st.blocks.empty() || st.len != 0,
            "attachShared to a non-empty stream (seq ", seq,
            ", layer ", layer, ")");
    for (BlockId b : blocks) {
        const BlockMeta &m = meta(b);
        panicIf(!m.resident, "attachShared to freed block ", b);
        panicIf(m.tokens != pageTokens_,
                "attachShared to a partial block ", b,
                " (only closed pages are shareable)");
    }
    st.blocks.assign(blocks.begin(), blocks.end());
    for (BlockId b : st.blocks)
        ref(b);
    st.len = st.blocks.size() * pageTokens_;
}

void
PageTable::pin(BlockId block)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    BlockMeta &m = meta(block);
    panicIf(!m.resident, "pin of non-resident KV block ", block);
    // A pinned block's token count cannot change (appends into it
    // copy-on-write), so the pinned-token counter only moves on the
    // 0<->1 pin transitions.
    if (m.pins++ == 0)
        pinnedTokens_ += m.tokens;
}

void
PageTable::unpin(BlockId block)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    BlockMeta &m = meta(block);
    if (!m.resident || m.pins == 0)
        throw EngineError(ErrorCode::KvDoubleFree, "kv.free",
                          "unpin of block " +
                              std::to_string(block.value()) +
                              " that holds no pin — double release");
    if (--m.pins == 0) {
        panicIf(pinnedTokens_ < m.tokens,
                "pinned KV token accounting underflow");
        pinnedTokens_ -= m.tokens;
        if (m.streamRefs == 0)
            releasePhysical(block);
    }
}

bool
PageTable::sequenceLive(SeqId seq) const
{
    if (seq.value() >= numSeqs_)
        return false;
    for (LayerIdx layer : IndexRange(LayerIdx(layers_))) {
        const Stream &st = at(seq, layer);
        if (st.len != 0 || !st.blocks.empty())
            return true;
    }
    return false;
}

void
PageTable::freeSequence(SeqId seq)
{
    MOELIGHT_ASSERT_SERIAL(gate_);
    if (seq.value() >= numSeqs_)
        throw EngineError(ErrorCode::KvInvalidSequence, "kv.free",
                          "freeSequence(" +
                              std::to_string(seq.value()) +
                              ") with only " +
                              std::to_string(numSeqs_) +
                              " sequences");
    if (!sequenceLive(seq))
        throw EngineError(ErrorCode::KvDoubleFree, "kv.free",
                          "freeSequence(" +
                              std::to_string(seq.value()) +
                              ") holds no KV state — double free or "
                              "never-appended sequence");
    for (LayerIdx layer : IndexRange(LayerIdx(layers_))) {
        Stream &st = at(seq, layer);
        for (BlockId b : st.blocks)
            deref(b);
        st.blocks.clear();
        st.len = 0;
    }
}

std::size_t
PageTable::streamLen(SeqId seq, LayerIdx layer) const
{
    return at(seq, layer).len;
}

std::span<const BlockId>
PageTable::streamBlocks(SeqId seq, LayerIdx layer) const
{
    return at(seq, layer).blocks;
}

std::size_t
PageTable::blockTokens(BlockId block) const
{
    return meta(block).tokens;
}

std::size_t
PageTable::blockStreamRefs(BlockId block) const
{
    return meta(block).streamRefs;
}

std::size_t
PageTable::blockPins(BlockId block) const
{
    return meta(block).pins;
}

void
PageTable::checkInvariants() const
{
    // Recount every stream's attachments per block.
    std::vector<std::size_t> attached(meta_.size(), 0);
    for (const Stream &st : streams_) {
        std::size_t tokens = 0;
        for (std::size_t i = 0; i < st.blocks.size(); ++i) {
            BlockId b = st.blocks[i];
            const BlockMeta &m = meta(b);
            panicIf(!m.resident, "stream references freed block ", b);
            panicIf(i + 1 < st.blocks.size() && m.tokens != pageTokens_,
                    "non-tail block ", b, " holds ", m.tokens,
                    " tokens, not a full page");
            ++attached[b.value()];
            tokens += m.tokens;
        }
        panicIf(tokens != st.len, "stream length ", st.len,
                " != its blocks' fill ", tokens);
    }
    std::size_t resident = 0, referenced = 0, residentTokens = 0,
                pinnedTokens = 0;
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        const BlockMeta &m = meta_[i];
        panicIf(m.streamRefs != attached[i], "block ", i,
                " refcount ", m.streamRefs, " != ", attached[i],
                " stream attachments");
        if (!m.resident) {
            panicIf(m.pins != 0, "freed block ", i, " is pinned");
            panicIf(m.tokens != 0, "freed block ", i, " holds tokens");
            continue;
        }
        panicIf(m.tokens > pageTokens_, "block ", i, " overfull");
        panicIf(m.streamRefs == 0 && m.pins == 0, "block ", i,
                " resident with no reference or pin (leaked)");
        ++resident;
        referenced += m.streamRefs != 0 ? 1 : 0;
        residentTokens += m.tokens;
        pinnedTokens += m.pins != 0 ? m.tokens : 0;
    }
    panicIf(resident != residentBlocks_, "residentBlocks ",
            residentBlocks_, " != ", resident, " resident blocks");
    panicIf(referenced != referencedBlocks_, "referencedBlocks ",
            referencedBlocks_, " != ", referenced);
    panicIf(residentTokens != residentTokens_, "residentTokens ",
            residentTokens_, " != block fill sum ", residentTokens);
    panicIf(pinnedTokens != pinnedTokens_, "pinnedTokens ",
            pinnedTokens_, " != pinned fill sum ", pinnedTokens);
    panicIf(capacityTokens_ != 0 && residentTokens_ > capacityTokens_,
            "residentTokens ", residentTokens_, " over capacity ",
            capacityTokens_);
}

} // namespace moelight
