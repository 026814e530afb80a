// Typed columns for the cuDF-like dataframe.  Numeric columns store their
// values in mem::TypedBuffer (pooled, placement-aware) so dataframe data is
// visible to the device-memory simulation; string columns stay host-only.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "mem/buffer.hpp"
#include "runtime/status.hpp"

namespace sagesim::gpu {
class Device;
}

namespace sagesim::df {

enum class DType : std::uint8_t { kFloat64, kInt64, kString };

const char* to_string(DType t);

class Column {
 public:
  Column(std::string name, std::vector<double> values);
  Column(std::string name, std::vector<std::int64_t> values);
  Column(std::string name, std::vector<std::string> values);

  const std::string& name() const { return name_; }
  DType dtype() const;
  std::size_t size() const;

  bool is_numeric() const { return dtype() != DType::kString; }

  /// Typed access; throws std::logic_error on dtype mismatch.
  std::span<const double> f64() const;
  std::span<const std::int64_t> i64() const;
  std::span<const std::string> str() const;

  /// Value at @p row as double (int64 widened); throws for string columns.
  double numeric_at(std::size_t row) const;

  /// Gathers rows into a new column (order given by @p rows).
  Column gather(std::span<const std::size_t> rows) const;

  /// Renamed copy.
  Column renamed(std::string new_name) const;

  // --- placement ---------------------------------------------------------

  /// Moves numeric storage to @p device (accounted H2D); string columns
  /// fail with kFailedPrecondition.
  Status to_device(gpu::Device& device, int stream = 0);

  /// Moves numeric storage back to the host (accounted D2H).
  Status to_host(int stream = 0);

  /// kHost for string columns, the buffer placement otherwise.
  mem::Placement placement() const;

 private:
  std::string name_;
  std::variant<mem::TypedBuffer<double>, mem::TypedBuffer<std::int64_t>,
               std::vector<std::string>>
      data_;
};

}  // namespace sagesim::df
