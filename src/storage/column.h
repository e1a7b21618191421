#ifndef HETEX_STORAGE_COLUMN_H_
#define HETEX_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"

namespace hetex::storage {

/// Physical column types. Strings are stored as order-preserving dictionary codes
/// (kInt32) with the Dictionary kept alongside — standard columnar practice.
enum class ColType { kInt32, kInt64 };

inline uint32_t ColWidth(ColType t) { return t == ColType::kInt32 ? 4 : 8; }

/// \brief Order-preserving string dictionary.
///
/// Codes are assigned in sorted order, so string range predicates (e.g. SSB Q2.2's
/// `p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228'`) translate to integer range
/// predicates on codes.
class Dictionary {
 public:
  /// Builds from the (deduplicated, then sorted) value domain.
  explicit Dictionary(std::vector<std::string> values);

  /// Code of an exact value; CHECK-fails if absent.
  int32_t Code(std::string_view value) const;

  /// First code whose value is >= `value` (for range predicate bounds).
  int32_t LowerBound(std::string_view value) const;
  /// First code whose value is > `value`.
  int32_t UpperBound(std::string_view value) const;

  const std::string& Value(int32_t code) const { return values_.at(code); }
  int32_t size() const { return static_cast<int32_t>(values_.size()); }

 private:
  std::vector<std::string> values_;
};

/// \brief In-build (staging) column: typed append storage filled by data
/// generators, host-resident. Table::Place() copies staging data into per-node
/// chunks for engine execution; staging stays available for the reference
/// evaluator.
class Column {
 public:
  Column(std::string name, ColType type) : name_(std::move(name)), type_(type) {}

  void Append(int64_t v) {
    if (type_ == ColType::kInt32) {
      data32_.push_back(static_cast<int32_t>(v));
    } else {
      data64_.push_back(v);
    }
  }

  int64_t At(uint64_t row) const {
    return type_ == ColType::kInt32 ? data32_[row] : data64_[row];
  }

  uint64_t rows() const {
    return type_ == ColType::kInt32 ? data32_.size() : data64_.size();
  }

  const std::byte* raw() const {
    return type_ == ColType::kInt32
               ? reinterpret_cast<const std::byte*>(data32_.data())
               : reinterpret_cast<const std::byte*>(data64_.data());
  }

  const std::string& name() const { return name_; }
  ColType type() const { return type_; }
  uint32_t width() const { return ColWidth(type_); }
  uint64_t bytes() const { return rows() * width(); }

  /// Attaches the dictionary of a string-encoded column.
  void set_dictionary(const Dictionary* dict) { dict_ = dict; }
  const Dictionary* dictionary() const { return dict_; }

  /// Declares the column's values distinct (a primary key): a hash join
  /// built on it stops probing at the first match. Table::Place verifies it.
  void set_unique(bool unique) { unique_ = unique; }
  bool unique() const { return unique_; }

 private:
  std::string name_;
  ColType type_;
  std::vector<int32_t> data32_;
  std::vector<int64_t> data64_;
  const Dictionary* dict_ = nullptr;
  bool unique_ = false;
};

}  // namespace hetex::storage

#endif  // HETEX_STORAGE_COLUMN_H_
