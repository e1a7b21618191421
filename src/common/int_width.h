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
/// 64-bit register on load. These helpers are the one definition of that
/// encoding; the tier-2 codegen emits the same typed loads.
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

/// @}

}  // namespace hetex

#endif  // HETEX_COMMON_INT_WIDTH_H_
