/**
 * @file
 * Strong index types: one phantom-tagged integer wrapper per index
 * domain, so the runtime's parallel index spaces — sequence slots,
 * layers, token positions, KV/Q heads, experts, page-table blocks,
 * arena pages — stop being freely interchangeable `std::size_t`s. A
 * transposed (seq, layer) pair or a BlockId used as a PageId is a
 * compile error, not silent KV corruption at a distance.
 *
 * Zero-overhead by construction: every member is a constexpr inline
 * one-liner over the underlying integer, there is no .cc file, and
 * scripts/check_zero_overhead.py asserts (as a ctest entry) that a
 * StrongIndex loop compiles to the same instructions as the raw
 * integer loop it replaces.
 *
 * Conversion rules (enforced by tests/compile_fail/):
 *  - construction from a raw integer is explicit: `SeqId(3)` yes,
 *    `SeqId s = 3` no;
 *  - no implicit conversion back: `value()` is the only way out;
 *  - no cross-tag anything: comparing, assigning, adding or
 *    subtracting two different domains does not compile;
 *  - same-domain arithmetic is the pointer-like subset: index +/-
 *    raw offset = index, index - index = raw distance, ++/--.
 *
 * The checked narrowing helper `narrowIndex<>` covers the one place a
 * domain legitimately crosses width (a container size becoming a
 * uint32_t BlockId): it throws EngineError(IndexOverflow,
 * "index.narrow") instead of wrapping silently.
 *
 * Domain registry (owner, range, conversion points) lives in
 * docs/index_domains.md. Kernels are exempt by contract: they receive
 * raw pointers plus a validated ShapeContract, never strong indices
 * (see src/kernels/simd/README.md).
 */

#ifndef MOELIGHT_COMMON_STRONG_TYPES_HH
#define MOELIGHT_COMMON_STRONG_TYPES_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>

#include "runtime/status.hh"

namespace moelight {

/**
 * A value of index domain @p Tag, stored as @p Rep. @p Tag is a
 * phantom type (never defined); two StrongIndex instantiations with
 * different tags share no conversions, so the type checker separates
 * the domains while codegen sees a bare integer.
 */
template <class Tag, class Rep = std::size_t>
class StrongIndex
{
    static_assert(std::is_integral_v<Rep>,
                  "StrongIndex storage must be an integer type");

  public:
    using rep_type = Rep;
    using tag_type = Tag;

    constexpr StrongIndex() = default;

    /** Explicit entry from a raw integer — the visible, greppable
     *  point where a value claims membership in this domain. Widths
     *  are cast silently here (construction is already explicit);
     *  use narrowIndex<>() where an overflow is a runtime
     *  possibility rather than a static impossibility. */
    template <std::integral T>
    constexpr explicit StrongIndex(T v) : v_(static_cast<Rep>(v))
    {
    }

    /** The only exit back to a raw integer. */
    constexpr Rep value() const { return v_; }

    /** Same-domain ordering and equality (cross-domain comparison
     *  does not compile: no implicit conversion feeds this). */
    constexpr auto operator<=>(const StrongIndex &) const = default;

    // Pointer-like same-domain arithmetic: index +/- raw offset.
    constexpr StrongIndex &operator++()
    {
        ++v_;
        return *this;
    }
    constexpr StrongIndex operator++(int)
    {
        StrongIndex old = *this;
        ++v_;
        return old;
    }
    constexpr StrongIndex &operator--()
    {
        --v_;
        return *this;
    }
    constexpr StrongIndex operator--(int)
    {
        StrongIndex old = *this;
        --v_;
        return old;
    }
    template <std::integral T>
    constexpr StrongIndex &operator+=(T d)
    {
        v_ = static_cast<Rep>(v_ + static_cast<Rep>(d));
        return *this;
    }
    template <std::integral T>
    constexpr StrongIndex &operator-=(T d)
    {
        v_ = static_cast<Rep>(v_ - static_cast<Rep>(d));
        return *this;
    }
    template <std::integral T>
    constexpr StrongIndex operator+(T d) const
    {
        return StrongIndex(static_cast<Rep>(v_ + static_cast<Rep>(d)));
    }
    template <std::integral T>
    constexpr StrongIndex operator-(T d) const
    {
        return StrongIndex(static_cast<Rep>(v_ - static_cast<Rep>(d)));
    }
    /** Distance between two indices of the same domain. */
    constexpr Rep operator-(StrongIndex o) const { return v_ - o.v_; }

    /** Formats as the bare number, so error messages and logs read
     *  exactly as they did with raw integers. */
    friend std::ostream &operator<<(std::ostream &os, StrongIndex i)
    {
        return os << +i.v_;  // promote: int8-width reps print numerically
    }

  private:
    Rep v_ = 0;
};

/**
 * Half-open range [first, last) of one index domain, so loops over a
 * domain bind the strong type directly:
 *
 *     for (LayerIdx l : IndexRange(LayerIdx(layers)))  // 0 .. layers-1
 *
 * Iterating one domain's range as another domain's index does not
 * compile (the iterator yields @p Index, nothing else).
 */
template <class Index>
class IndexRange
{
  public:
    class iterator
    {
      public:
        using value_type = Index;
        using difference_type = std::ptrdiff_t;

        constexpr iterator() = default;
        constexpr explicit iterator(Index i) : i_(i) {}
        constexpr Index operator*() const { return i_; }
        constexpr iterator &operator++()
        {
            ++i_;
            return *this;
        }
        constexpr iterator operator++(int)
        {
            iterator old = *this;
            ++i_;
            return old;
        }
        constexpr bool operator==(const iterator &) const = default;

      private:
        Index i_{};
    };

    constexpr IndexRange(Index first, Index last)
        : first_(first), last_(last)
    {
    }
    /** [Index(0), last). */
    constexpr explicit IndexRange(Index last) : first_(Index(0)), last_(last)
    {
    }

    constexpr iterator begin() const { return iterator(first_); }
    constexpr iterator end() const { return iterator(last_); }
    constexpr std::size_t size() const
    {
        return static_cast<std::size_t>(last_.value() - first_.value());
    }
    constexpr bool empty() const { return first_ == last_; }

  private:
    Index first_;
    Index last_;
};

/**
 * Checked narrowing into a strong index whose storage is narrower
 * than the source (the uint32_t BlockId fed from a container size):
 * throws EngineError(IndexOverflow, "index.narrow") when @p v does
 * not fit @p Index's representation, instead of wrapping silently
 * the way static_cast did.
 */
template <class Index, std::integral From>
constexpr Index
narrowIndex(From v)
{
    using Rep = typename Index::rep_type;
    if (!std::in_range<Rep>(v))
        throw EngineError(
            ErrorCode::IndexOverflow, "index.narrow",
            "index value " + std::to_string(v) +
                " does not fit the domain's " +
                std::to_string(sizeof(Rep) * 8) + "-bit storage");
    return Index(static_cast<Rep>(v));
}

// ------------------------------------------------------------------
// Concrete domains. BlockId (page-table block, uint32_t) and PageId
// (arena page, int32_t with a -1 sentinel) live with their owners in
// runtime/page_table.hh and runtime/arena.hh; the registry of all
// domains is docs/index_domains.md.

/** A sequence slot in the KV caches / page table (== the engine's
 *  SlotIdx by the identity mapping, converted at the cache boundary). */
using SeqId = StrongIndex<struct SeqIdTag>;
/** A transformer layer. */
using LayerIdx = StrongIndex<struct LayerIdxTag>;
/** A token position within one sequence's context. */
using TokenPos = StrongIndex<struct TokenPosTag>;
/** A KV (grouped) attention head. */
using KvHeadIdx = StrongIndex<struct KvHeadIdxTag>;
/** A query attention head. */
using QHeadIdx = StrongIndex<struct QHeadIdxTag>;
/** A serving-engine sequence slot (scheduling domain). */
using SlotIdx = StrongIndex<struct SlotIdxTag>;
/** A routed expert within one layer's MoE FFN. */
using ExpertIdx = StrongIndex<struct ExpertIdxTag>;

} // namespace moelight

/** Hashing delegates to the raw representation, so strong indices
 *  drop into unordered containers as map keys unchanged. */
template <class Tag, class Rep>
struct std::hash<moelight::StrongIndex<Tag, Rep>>
{
    std::size_t operator()(moelight::StrongIndex<Tag, Rep> i) const
        noexcept
    {
        return std::hash<Rep>{}(i.value());
    }
};

#endif // MOELIGHT_COMMON_STRONG_TYPES_HH
