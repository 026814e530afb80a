#include "dataframe/column.hpp"

#include <stdexcept>

#include "prof/check.hpp"

namespace sagesim::df {

const char* to_string(DType t) {
  switch (t) {
    case DType::kFloat64: return "float64";
    case DType::kInt64: return "int64";
    case DType::kString: return "string";
  }
  return "?";
}

Column::Column(std::string name, std::vector<double> values)
    : name_(std::move(name)), data_(mem::TypedBuffer<double>(values)) {}
Column::Column(std::string name, std::vector<std::int64_t> values)
    : name_(std::move(name)), data_(mem::TypedBuffer<std::int64_t>(values)) {}
Column::Column(std::string name, std::vector<std::string> values)
    : name_(std::move(name)), data_(std::move(values)) {}

DType Column::dtype() const {
  return static_cast<DType>(data_.index());
}

std::size_t Column::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

std::span<const double> Column::f64() const {
  if (auto* v = std::get_if<mem::TypedBuffer<double>>(&data_))
    return v->span();
  throw std::logic_error("Column '" + name_ + "' is not float64");
}

std::span<const std::int64_t> Column::i64() const {
  if (auto* v = std::get_if<mem::TypedBuffer<std::int64_t>>(&data_))
    return v->span();
  throw std::logic_error("Column '" + name_ + "' is not int64");
}

std::span<const std::string> Column::str() const {
  if (auto* v = std::get_if<std::vector<std::string>>(&data_)) return *v;
  throw std::logic_error("Column '" + name_ + "' is not string");
}

double Column::numeric_at(std::size_t row) const {
  switch (dtype()) {
    case DType::kFloat64: return f64()[row];
    case DType::kInt64: return static_cast<double>(i64()[row]);
    case DType::kString:
      throw std::logic_error("Column '" + name_ + "': numeric_at on string");
  }
  return 0.0;
}

namespace {

/// Typed gather loop: bounds check per row, one dtype dispatch per call.
template <typename T>
std::vector<T> gather_values(std::span<const T> src,
                             std::span<const std::size_t> rows) {
  std::vector<T> out;
  out.reserve(rows.size());
  for (std::size_t r : rows) {
    if (r >= src.size())
      throw std::out_of_range("Column::gather: row out of range");
    out.push_back(src[r]);
  }
  return out;
}

}  // namespace

Column Column::gather(std::span<const std::size_t> rows) const {
  // Dispatch on dtype once up front; the per-row loops are monomorphic.
  Column out = [&]() -> Column {
    switch (dtype()) {
      case DType::kFloat64:
        return Column(name_, gather_values<double>(f64(), rows));
      case DType::kInt64:
        return Column(name_, gather_values<std::int64_t>(i64(), rows));
      case DType::kString: {
        const auto src = str();
        std::vector<std::string> vals;
        vals.reserve(rows.size());
        for (std::size_t r : rows) {
          if (r >= src.size())
            throw std::out_of_range("Column::gather: row out of range");
          vals.push_back(src[r]);
        }
        return Column(name_, std::move(vals));
      }
    }
    throw std::logic_error("Column::gather: unknown dtype");
  }();
  SAGESIM_CHECK_MSG(out.size() == rows.size(),
                    "gathered column size must match the index span");
  return out;
}

Column Column::renamed(std::string new_name) const {
  Column c = *this;
  c.name_ = std::move(new_name);
  return c;
}

Status Column::to_device(gpu::Device& device, int stream) {
  if (auto* v = std::get_if<mem::TypedBuffer<double>>(&data_))
    return v->to_device(device, stream);
  if (auto* v = std::get_if<mem::TypedBuffer<std::int64_t>>(&data_))
    return v->to_device(device, stream);
  return Status::failed_precondition("Column '" + name_ +
                                     "': string columns are host-only");
}

Status Column::to_host(int stream) {
  if (auto* v = std::get_if<mem::TypedBuffer<double>>(&data_))
    return v->to_host(stream);
  if (auto* v = std::get_if<mem::TypedBuffer<std::int64_t>>(&data_))
    return v->to_host(stream);
  return Status::failed_precondition("Column '" + name_ +
                                     "': string columns are host-only");
}

mem::Placement Column::placement() const {
  if (auto* v = std::get_if<mem::TypedBuffer<double>>(&data_))
    return v->placement();
  if (auto* v = std::get_if<mem::TypedBuffer<std::int64_t>>(&data_))
    return v->placement();
  return mem::Placement::kHost;
}

}  // namespace sagesim::df
