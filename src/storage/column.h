#ifndef HETEX_STORAGE_COLUMN_H_
#define HETEX_STORAGE_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/int_width.h"
#include "common/logging.h"

namespace hetex::storage {

/// Staging column types: the integer a data generator appends. Strings are
/// order-preserving dictionary codes in a kInt32 column, with the Dictionary
/// kept alongside — standard columnar practice. The type bounds what a column
/// may hold, not what it stores: Table::Place stores every column, codes
/// included, in the narrowest code its values need (Column::code).
enum class ColType { kInt32, kInt64 };

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
/// chunks for engine execution, each value in the column's placed code;
/// staging stays available for the reference evaluator.
class Column {
 public:
  Column(std::string name, ColType type)
      : name_(std::move(name)),
        type_(type),
        code_{type == ColType::kInt32 ? 4u : 8u, 0} {}

  void Append(int64_t v) {
    if (type_ == ColType::kInt32) {
      v = static_cast<int32_t>(v);  // the value the column holds
      data32_.push_back(static_cast<int32_t>(v));
    } else {
      data64_.push_back(v);
    }
    lo_ = std::min(lo_, v);
    hi_ = std::max(hi_, v);
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
  /// The code placed values are stored in (IntCode): each value v as
  /// v − base() in width() bytes. Table::Place picks it from the range of
  /// the staged values (NarrowestIntCode: base 0 unless a base narrows the
  /// width) and DropStaging keeps it; before the first placement it is the
  /// type's width with base 0. Scans, packed wire columns and hash-table
  /// fields all store the column in this code.
  IntCode code() const { return code_; }
  /// Bytes one placed value takes (code().width: 1, 2, 4 or 8).
  uint32_t width() const { return code_.width; }
  /// What a load adds back to a stored value (code().base).
  int64_t base() const { return code_.base; }
  uint64_t bytes() const { return rows() * width(); }

  /// Attaches the dictionary of a string-encoded column.
  void set_dictionary(const Dictionary* dict) { dict_ = dict; }
  const Dictionary* dictionary() const { return dict_; }

  /// Declares the column's values distinct (a primary key): a hash join
  /// built on it stops probing at the first match. Table::Place verifies it.
  void set_unique(bool unique) { unique_ = unique; }
  bool unique() const { return unique_; }

 private:
  friend class Table;

  /// The narrowest code of the staged values (1 byte, base 0 when empty):
  /// Append keeps their range, so placement scans nothing for it.
  IntCode NarrowestCode() const {
    return rows() == 0 ? IntCode{1, 0} : NarrowestIntCode(lo_, hi_);
  }
  /// Writes staged rows [begin, begin + rows) to `dst` in code().
  void CopyPlaced(uint64_t begin, uint64_t rows, std::byte* dst) const;

  std::string name_;
  ColType type_;
  IntCode code_;
  int64_t lo_ = INT64_MAX;  ///< least staged value
  int64_t hi_ = INT64_MIN;  ///< greatest staged value
  std::vector<int32_t> data32_;
  std::vector<int64_t> data64_;
  const Dictionary* dict_ = nullptr;
  bool unique_ = false;
};

}  // namespace hetex::storage

#endif  // HETEX_STORAGE_COLUMN_H_
