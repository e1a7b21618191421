#include "storage/column.h"

#include <algorithm>
#include <cstring>

namespace hetex::storage {

namespace {

/// A plain typed loop the compiler vectorizes: Place runs it over every
/// staged value, storing each as value − base at the code's width.
template <typename T>
void CopyEncoded(const T* __restrict src, uint64_t rows, IntCode code,
                 std::byte* dst) {
  DispatchIntWidth(code.width, [&](auto w) {
    using N = IntOfWidth<w()>;
    if (sizeof(N) == sizeof(T) && code.base == 0) {
      std::memcpy(dst, src, rows * sizeof(T));
    } else {
      N* __restrict out = reinterpret_cast<N*>(dst);
      for (uint64_t r = 0; r < rows; ++r) {
        out[r] = static_cast<N>(EncodeInt(src[r], code.base));
      }
    }
  });
}

}  // namespace

void Column::CopyPlaced(uint64_t begin, uint64_t rows, std::byte* dst) const {
  if (type_ == ColType::kInt32) {
    CopyEncoded(data32_.data() + begin, rows, code_, dst);
  } else {
    CopyEncoded(data64_.data() + begin, rows, code_, dst);
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
