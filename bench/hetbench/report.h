#ifndef HETEX_BENCH_HETBENCH_REPORT_H_
#define HETEX_BENCH_HETBENCH_REPORT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace hetex::hetbench {

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Geometric mean of positive values; 0 for an empty sample.
inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Minimal JSON object writer: keys in insertion order, numbers with every
/// significant digit.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// \brief What one workload run reports: correctness counts, the effective
/// configuration and every metric by name with its unit.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }

  /// Counts one executed query; `ok` is false when its status was not OK or
  /// its rows differed from the reference.
  void CountQuery(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A failed check that is not a query (traced/untraced parity).
  void FailCheck() { ++failed_checks_; }

  bool correct() const { return failed_ == 0 && failed_checks_ == 0; }

  JsonObject& config() { return config_; }
  /// Per-query detail (median modeled latency, picked plan, ...).
  JsonObject& queries() { return queries_; }

  std::string ToJson(const std::string& workload, uint64_t seed) const {
    JsonObject metrics;
    for (const auto& [name, m] : metrics_) {
      metrics.Raw(name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
    }
    return JsonObject()
        .Str("workload", workload)
        .Int("seed", static_cast<int64_t>(seed))
        .Raw("config", config_.str())
        .Raw("queries", queries_.str())
        .Bool("correct", correct())
        .Int("attempted", static_cast<int64_t>(attempted_))
        .Int("failed", static_cast<int64_t>(failed_))
        .Raw("metrics", metrics.str())
        .str();
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
  JsonObject config_;
  JsonObject queries_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failed_checks_ = 0;
};

}  // namespace hetex::hetbench

#endif  // HETEX_BENCH_HETBENCH_REPORT_H_
