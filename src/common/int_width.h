#ifndef HETEX_COMMON_INT_WIDTH_H_
#define HETEX_COMMON_INT_WIDTH_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace hetex {

/// \name Stored integer widths
///
/// A placed column, a packed wire column and a join hash-table field store
/// each value as a signed integer of 1, 2, 4 or 8 bytes, sign-extended into a
/// 64-bit register on load, after the frame-of-reference base of its code
/// (IntCode) is taken off. These helpers are the one definition of that
/// encoding; the tier-2 codegen emits the same typed loads and decodes.
/// @{

/// True for the widths a stored integer takes: 1, 2, 4 and 8 bytes.
constexpr bool IsIntWidth(uint32_t width) {
  return width == 1 || width == 2 || width == 4 || width == 8;
}

/// The narrowest of those widths whose signed range holds [lo, hi].
constexpr uint32_t NarrowestIntWidth(int64_t lo, int64_t hi) {
  if (lo >= INT8_MIN && hi <= INT8_MAX) return 1;
  if (lo >= INT16_MIN && hi <= INT16_MAX) return 2;
  if (lo >= INT32_MIN && hi <= INT32_MAX) return 4;
  return 8;
}

/// The signed integer type `W` bytes wide.
template <uint32_t W>
using IntOfWidth = std::conditional_t<
    W == 1, int8_t,
    std::conditional_t<W == 2, int16_t, std::conditional_t<W == 4, int32_t, int64_t>>>;

/// Calls `fn(std::integral_constant<uint32_t, W>{})` for `width`, so a loop
/// over many values branches on the width once, outside it. Any width but 1,
/// 2 and 4 dispatches as 8.
template <typename Fn>
decltype(auto) DispatchIntWidth(uint32_t width, Fn&& fn) {
  switch (width) {
    case 1: return fn(std::integral_constant<uint32_t, 1>{});
    case 2: return fn(std::integral_constant<uint32_t, 2>{});
    case 4: return fn(std::integral_constant<uint32_t, 4>{});
    default: return fn(std::integral_constant<uint32_t, 8>{});
  }
}

/// Sign-extending load of the `W`-byte integer at `p` (any alignment).
template <uint32_t W>
inline int64_t LoadIntAs(const void* p) {
  IntOfWidth<W> v;
  std::memcpy(&v, p, W);
  return v;
}

/// Truncating store of `v` as a `W`-byte integer at `p` (any alignment).
template <uint32_t W>
inline void StoreIntAs(void* p, int64_t v) {
  const auto narrow = static_cast<IntOfWidth<W>>(v);
  std::memcpy(p, &narrow, W);
}

/// LoadIntAs for a width known only at run time.
inline int64_t LoadInt(const void* p, uint32_t width) {
  return DispatchIntWidth(width, [p](auto w) { return LoadIntAs<w()>(p); });
}

/// StoreIntAs for a width known only at run time.
inline void StoreInt(void* p, uint32_t width, int64_t v) {
  DispatchIntWidth(width, [p, v](auto w) { StoreIntAs<w()>(p, v); });
}

/// \brief The code a column's values are stored in: each value v is stored
/// as v − base in `width` bytes, and a load adds `base` back while it
/// sign-extends (frame-of-reference coding).
///
/// Table::Place picks a column's code from its value range
/// (NarrowestIntCode); the column's scans, packed wire columns and join
/// hash-table fields all store it in that code. A base of 0 stores plain
/// signed integers.
struct IntCode {
  uint32_t width = 8;
  int64_t base = 0;

  friend constexpr bool operator==(const IntCode&, const IntCode&) = default;
};

/// v − base in two's complement: what a code stores for v before the store
/// truncates it to the code's width.
constexpr int64_t EncodeInt(int64_t v, int64_t base) {
  return static_cast<int64_t>(static_cast<uint64_t>(v) - static_cast<uint64_t>(base));
}

/// stored + base in two's complement: the value a sign-extended stored
/// integer of a code with `base` stands for.
constexpr int64_t DecodeInt(int64_t stored, int64_t base) {
  return static_cast<int64_t>(static_cast<uint64_t>(stored) + static_cast<uint64_t>(base));
}

/// The narrowest width whose 2^(8 width) values cover a range of `span` =
/// hi − lo.
constexpr uint32_t SpanIntWidth(uint64_t span) {
  if (span <= UINT8_MAX) return 1;
  if (span <= UINT16_MAX) return 2;
  if (span <= UINT32_MAX) return 4;
  return 8;
}

/// The code of values in [lo, hi]: base 0 at NarrowestIntWidth when a base
/// would not narrow it; otherwise SpanIntWidth(hi − lo), with the base at
/// lo + ⌈(hi − lo) / 2⌉, so the stored values [−⌈span/2⌉, ⌊span/2⌋] fit the
/// narrower signed width. The span is unsigned, so int64 extremes cannot
/// overflow it.
constexpr IntCode NarrowestIntCode(int64_t lo, int64_t hi) {
  const uint32_t plain = NarrowestIntWidth(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const uint32_t width = SpanIntWidth(span);
  if (width >= plain) return {plain, 0};
  return {width, static_cast<int64_t>(static_cast<uint64_t>(lo) + (span - span / 2))};
}

/// Loads the value `code` stores at `p`: sign-extended, base added.
inline int64_t LoadInt(const void* p, IntCode code) {
  return DecodeInt(LoadInt(p, code.width), code.base);
}

/// Stores `v` at `p` in `code`: v − base, truncated to the width.
inline void StoreInt(void* p, IntCode code, int64_t v) {
  StoreInt(p, code.width, EncodeInt(v, code.base));
}

/// @}

}  // namespace hetex

#endif  // HETEX_COMMON_INT_WIDTH_H_
