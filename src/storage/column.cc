#include "storage/column.h"

#include <algorithm>
#include <cstring>

namespace hetex::storage {

namespace {

/// A plain typed loop the compiler vectorizes: Place runs it over every
/// staged value.
template <typename T>
void CopyNarrowed(const T* __restrict src, uint64_t rows, uint32_t width,
                  std::byte* dst) {
  DispatchIntWidth(width, [&](auto w) {
    using N = IntOfWidth<w()>;
    if constexpr (sizeof(N) == sizeof(T)) {
      std::memcpy(dst, src, rows * sizeof(T));
    } else {
      N* __restrict out = reinterpret_cast<N*>(dst);
      for (uint64_t r = 0; r < rows; ++r) out[r] = static_cast<N>(src[r]);
    }
  });
}

}  // namespace

void Column::CopyPlaced(uint64_t begin, uint64_t rows, std::byte* dst) const {
  if (type_ == ColType::kInt32) {
    CopyNarrowed(data32_.data() + begin, rows, width_, dst);
  } else {
    CopyNarrowed(data64_.data() + begin, rows, width_, dst);
  }
}

Dictionary::Dictionary(std::vector<std::string> values) : values_(std::move(values)) {
  std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  HETEX_CHECK(!values_.empty());
}

int32_t Dictionary::Code(std::string_view value) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), value);
  HETEX_CHECK(it != values_.end() && *it == value)
      << "value not in dictionary: " << value;
  return static_cast<int32_t>(it - values_.begin());
}

int32_t Dictionary::LowerBound(std::string_view value) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), value);
  return static_cast<int32_t>(it - values_.begin());
}

int32_t Dictionary::UpperBound(std::string_view value) const {
  auto it = std::upper_bound(values_.begin(), values_.end(), value);
  return static_cast<int32_t>(it - values_.begin());
}

}  // namespace hetex::storage
