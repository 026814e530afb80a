#include "dataframe/dataframe.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace sagesim::df {

const char* to_string(Agg a) {
  switch (a) {
    case Agg::kSum: return "sum";
    case Agg::kMean: return "mean";
    case Agg::kCount: return "count";
    case Agg::kMin: return "min";
    case Agg::kMax: return "max";
  }
  return "?";
}

DataFrame::DataFrame(std::vector<Column> columns)
    : columns_(std::move(columns)) {
  check_rectangular();
  std::set<std::string> names;
  for (const auto& c : columns_)
    if (!names.insert(c.name()).second)
      throw std::invalid_argument("DataFrame: duplicate column '" + c.name() +
                                  "'");
}

void DataFrame::check_rectangular() const {
  if (columns_.empty()) return;
  const std::size_t rows = columns_.front().size();
  for (const auto& c : columns_)
    if (c.size() != rows)
      throw std::invalid_argument("DataFrame: column '" + c.name() +
                                  "' has mismatched length");
}

std::size_t DataFrame::num_rows() const {
  return columns_.empty() ? 0 : columns_.front().size();
}

const Column& DataFrame::col(const std::string& name) const {
  for (const auto& c : columns_)
    if (c.name() == name) return c;
  throw std::invalid_argument("DataFrame: no column '" + name + "'");
}

bool DataFrame::has_col(const std::string& name) const {
  for (const auto& c : columns_)
    if (c.name() == name) return true;
  return false;
}

std::vector<std::string> DataFrame::column_names() const {
  std::vector<std::string> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.name());
  return out;
}

DataFrame& DataFrame::with_column(Column column) {
  if (!columns_.empty() && column.size() != num_rows())
    throw std::invalid_argument("with_column: length mismatch");
  for (auto& c : columns_) {
    if (c.name() == column.name()) {
      c = std::move(column);
      return *this;
    }
  }
  columns_.push_back(std::move(column));
  return *this;
}

DataFrame DataFrame::select(const std::vector<std::string>& names) const {
  std::vector<Column> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(col(n));
  return DataFrame(std::move(out));
}

namespace {

bool apply_cmp(double a, Cmp cmp, double b) {
  switch (cmp) {
    case Cmp::kLt: return a < b;
    case Cmp::kLe: return a <= b;
    case Cmp::kGt: return a > b;
    case Cmp::kGe: return a >= b;
    case Cmp::kEq: return a == b;
    case Cmp::kNe: return a != b;
  }
  return false;
}

}  // namespace

DataFrame DataFrame::filter(gpu::Device* dev, const std::string& col_name,
                            Cmp cmp, double value) const {
  const Column& c = col(col_name);
  if (!c.is_numeric())
    throw std::invalid_argument("filter: column '" + col_name +
                                "' is not numeric");
  const std::size_t n = c.size();
  std::vector<std::uint8_t> mask(n, 0);

  auto eval = [&](std::size_t i) {
    mask[i] = apply_cmp(c.numeric_at(i), cmp, value) ? 1 : 0;
  };
  if (dev != nullptr && n > 0) {
    dev->launch_linear("df_filter", n, 256, [&](const gpu::ThreadCtx& ctx) {
      eval(ctx.global_x());
      ctx.add_flops(1.0);
      ctx.add_bytes(static_cast<double>(sizeof(double) + 1));
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) eval(i);
  }

  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n; ++i)
    if (mask[i] != 0) rows.push_back(i);
  return gather(rows);
}

DataFrame DataFrame::gather(std::span<const std::size_t> rows) const {
  std::vector<Column> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.gather(rows));
  return DataFrame(std::move(out));
}

namespace {

/// Group keys as strings for unified hashing across key dtypes.
std::vector<std::size_t> group_assignments(const Column& key,
                                           std::vector<std::size_t>& order) {
  std::unordered_map<std::string, std::size_t> group_of;
  std::vector<std::size_t> assign(key.size());
  for (std::size_t i = 0; i < key.size(); ++i) {
    std::string k;
    switch (key.dtype()) {
      case DType::kInt64: k = std::to_string(key.i64()[i]); break;
      case DType::kString: k = key.str()[i]; break;
      case DType::kFloat64:
        throw std::invalid_argument("group_by: float64 keys unsupported");
    }
    auto [it, inserted] = group_of.emplace(std::move(k), group_of.size());
    if (inserted) order.push_back(i);  // first occurrence row
    assign[i] = it->second;
  }
  return assign;
}

}  // namespace

DataFrame DataFrame::group_by(gpu::Device* dev, const std::string& key_name,
                              const std::string& value_name, Agg agg) const {
  const Column& key = col(key_name);
  const Column& value = col(value_name);
  if (!value.is_numeric() && agg != Agg::kCount)
    throw std::invalid_argument("group_by: value column must be numeric");

  std::vector<std::size_t> first_rows;
  const auto assign = group_assignments(key, first_rows);
  const std::size_t groups = first_rows.size();

  std::vector<double> sums(groups, 0.0);
  std::vector<double> mins(groups, std::numeric_limits<double>::infinity());
  std::vector<double> maxs(groups, -std::numeric_limits<double>::infinity());
  std::vector<std::int64_t> counts(groups, 0);

  auto accumulate = [&](std::size_t i) {
    const std::size_t grp = assign[i];
    ++counts[grp];
    if (value.is_numeric()) {
      const double v = value.numeric_at(i);
      sums[grp] += v;
      mins[grp] = std::min(mins[grp], v);
      maxs[grp] = std::max(maxs[grp], v);
    }
  };
  // The scatter-reduce is executed serially (host) for determinism; a real
  // GPU hash aggregate's cost is charged analytically.
  for (std::size_t i = 0; i < key.size(); ++i) accumulate(i);
  if (dev != nullptr && key.size() > 0)
    dev->charge_kernel("df_groupby",
                       {3.0 * static_cast<double>(key.size()),
                        static_cast<double>(key.size()) *
                            (sizeof(double) + sizeof(std::int64_t))});

  std::vector<Column> out;
  out.push_back(key.gather(first_rows));
  const std::string out_name =
      std::string(to_string(agg)) + "_" + value_name;
  switch (agg) {
    case Agg::kSum:
      out.emplace_back(out_name, sums);
      break;
    case Agg::kMean: {
      std::vector<double> means(groups);
      for (std::size_t g = 0; g < groups; ++g)
        means[g] = counts[g] > 0 ? sums[g] / static_cast<double>(counts[g])
                                 : 0.0;
      out.emplace_back(out_name, std::move(means));
      break;
    }
    case Agg::kCount:
      out.emplace_back(out_name, counts);
      break;
    case Agg::kMin:
      out.emplace_back(out_name, mins);
      break;
    case Agg::kMax:
      out.emplace_back(out_name, maxs);
      break;
  }
  return DataFrame(std::move(out));
}

DataFrame DataFrame::sort_by(const std::string& col_name,
                             bool ascending) const {
  const Column& c = col(col_name);
  std::vector<std::size_t> order(c.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (c.is_numeric()) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ascending ? c.numeric_at(a) < c.numeric_at(b)
                                        : c.numeric_at(a) > c.numeric_at(b);
                     });
  } else {
    const auto s = c.str();
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ascending ? s[a] < s[b] : s[b] < s[a];
                     });
  }
  return gather(order);
}

DataFrame DataFrame::join(gpu::Device* dev, const DataFrame& right,
                          const std::string& key) const {
  const Column& lk = col(key);
  const Column& rk = right.col(key);
  if (lk.dtype() != rk.dtype())
    throw std::invalid_argument("join: key dtype mismatch");
  if (lk.dtype() == DType::kFloat64)
    throw std::invalid_argument("join: float64 keys unsupported");

  auto key_str = [](const Column& c, std::size_t i) {
    return c.dtype() == DType::kInt64 ? std::to_string(c.i64()[i])
                                      : c.str()[i];
  };

  // Build on the smaller side is the real optimization; here build right.
  std::unordered_map<std::string, std::vector<std::size_t>> build;
  for (std::size_t i = 0; i < rk.size(); ++i)
    build[key_str(rk, i)].push_back(i);

  std::vector<std::size_t> left_rows, right_rows;
  for (std::size_t i = 0; i < lk.size(); ++i) {
    auto it = build.find(key_str(lk, i));
    if (it == build.end()) continue;
    for (std::size_t r : it->second) {
      left_rows.push_back(i);
      right_rows.push_back(r);
    }
  }
  if (dev != nullptr)
    dev->charge_kernel(
        "df_hash_join",
        {0.0, static_cast<double>(lk.size() + rk.size()) * 16.0});

  std::vector<Column> out;
  for (const auto& c : columns_) out.push_back(c.gather(left_rows));
  std::set<std::string> names;
  for (const auto& c : out) names.insert(c.name());
  for (const auto& name : right.column_names()) {
    if (name == key) continue;
    Column rc = right.col(name).gather(right_rows);
    if (names.contains(rc.name())) rc = rc.renamed(rc.name() + "_r");
    out.push_back(std::move(rc));
  }
  return DataFrame(std::move(out));
}

double DataFrame::reduce(gpu::Device* dev, const std::string& col_name,
                         Agg agg) const {
  const Column& c = col(col_name);
  if (!c.is_numeric())
    throw std::invalid_argument("reduce: column must be numeric");
  if (c.size() == 0) throw std::invalid_argument("reduce: empty column");

  double sum = 0.0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double v = c.numeric_at(i);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  if (dev != nullptr)
    dev->charge_kernel("df_reduce",
                       {static_cast<double>(c.size()),
                        static_cast<double>(c.size()) * sizeof(double)});
  switch (agg) {
    case Agg::kSum: return sum;
    case Agg::kMean: return sum / static_cast<double>(c.size());
    case Agg::kCount: return static_cast<double>(c.size());
    case Agg::kMin: return mn;
    case Agg::kMax: return mx;
  }
  return 0.0;
}

std::string DataFrame::head(std::size_t n) const {
  std::ostringstream os;
  for (const auto& c : columns_) os << std::setw(14) << c.name();
  os << '\n';
  const std::size_t rows = std::min(n, num_rows());
  for (std::size_t r = 0; r < rows; ++r) {
    for (const auto& c : columns_) {
      switch (c.dtype()) {
        case DType::kFloat64:
          os << std::setw(14) << std::fixed << std::setprecision(3)
             << c.f64()[r];
          break;
        case DType::kInt64: os << std::setw(14) << c.i64()[r]; break;
        case DType::kString: os << std::setw(14) << c.str()[r]; break;
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace sagesim::df
