#include "dataset/dataset.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"

namespace skycube {

namespace {

std::vector<std::string> DefaultDimNames(int num_dims) {
  std::vector<std::string> names;
  names.reserve(num_dims);
  for (int i = 0; i < num_dims; ++i) {
    if (num_dims <= 26) {
      names.push_back(std::string(1, static_cast<char>('A' + i)));
    } else {
      names.push_back("D" + std::to_string(i + 1));
    }
  }
  return names;
}

}  // namespace

Dataset::Dataset(int num_dims, std::vector<std::string> dim_names)
    : num_dims_(num_dims), dim_names_(std::move(dim_names)) {
  SKYCUBE_CHECK_MSG(num_dims >= 1 && num_dims <= kMaxDims,
                    "dimensionality must be in [1, 64]");
  if (dim_names_.empty()) {
    dim_names_ = DefaultDimNames(num_dims);
  }
  SKYCUBE_CHECK_MSG(static_cast<int>(dim_names_.size()) == num_dims,
                    "dimension name count must match num_dims");
}

Result<Dataset> Dataset::FromRows(std::vector<std::vector<double>> rows,
                                  std::vector<std::string> dim_names) {
  if (rows.empty() && dim_names.empty()) {
    return Status::InvalidArgument(
        "cannot infer dimensionality from empty rows without names");
  }
  const size_t width = rows.empty() ? dim_names.size() : rows.front().size();
  if (width == 0 || width > static_cast<size_t>(kMaxDims)) {
    return Status::InvalidArgument("dimensionality must be in [1, 64]");
  }
  Dataset dataset(static_cast<int>(width), std::move(dim_names));
  for (const std::vector<double>& row : rows) {
    if (row.size() != width) {
      return Status::InvalidArgument("ragged rows in dataset");
    }
    dataset.AddRow(row);
  }
  return dataset;
}

Result<Dataset> Dataset::FromCsvFile(const std::string& path,
                                     bool has_header) {
  CsvReadOptions options;
  options.has_header = has_header;
  Result<CsvTable> table = ReadNumericCsv(path, options);
  if (!table.ok()) return table.status();
  return FromRows(std::move(table.value().rows),
                  std::move(table.value().column_names));
}

Status Dataset::ToCsvFile(const std::string& path) const {
  CsvTable table;
  table.column_names = dim_names_;
  table.rows.reserve(num_objects());
  for (ObjectId id = 0; id < num_objects(); ++id) {
    table.rows.emplace_back(Row(id), Row(id) + num_dims_);
  }
  return WriteNumericCsv(path, table);
}

void Dataset::AddRow(const std::vector<double>& values) {
  SKYCUBE_CHECK_MSG(static_cast<int>(values.size()) == num_dims_,
                    "row width must equal num_dims");
  values_.insert(values_.end(), values.begin(), values.end());
}

Result<DimMask> MaskFromNameList(const std::vector<std::string>& dim_names,
                                 const std::string& names) {
  DimMask mask = 0;
  std::string current;
  auto flush = [&]() -> Status {
    if (current.empty()) return Status::Ok();
    for (size_t dim = 0; dim < dim_names.size(); ++dim) {
      if (dim_names[dim] == current) {
        mask |= DimBit(static_cast<int>(dim));
        current.clear();
        return Status::Ok();
      }
    }
    return Status::NotFound("unknown dimension name: " + current);
  };
  for (char c : names) {
    if (c == ',' || c == '+') {
      Status status = flush();
      if (!status.ok()) return status;
    } else if (c != ' ') {
      current.push_back(c);
    }
  }
  Status status = flush();
  if (!status.ok()) return status;
  if (mask == 0) {
    return Status::InvalidArgument("empty dimension name list");
  }
  return mask;
}

Result<DimMask> Dataset::MaskFromNames(const std::string& names) const {
  return MaskFromNameList(dim_names_, names);
}

std::vector<double> Dataset::Projection(ObjectId id, DimMask subspace) const {
  std::vector<double> projection;
  projection.reserve(MaskSize(subspace));
  const double* row = Row(id);
  ForEachDim(subspace, [&](int dim) { projection.push_back(row[dim]); });
  return projection;
}

bool Dataset::ProjectionsEqual(ObjectId a, ObjectId b,
                               DimMask subspace) const {
  const double* ra = Row(a);
  const double* rb = Row(b);
  bool equal = true;
  ForEachDim(subspace, [&](int dim) { equal &= (ra[dim] == rb[dim]); });
  return equal;
}

DimMask Dataset::CoincidenceMask(ObjectId a, ObjectId b,
                                 DimMask universe) const {
  const double* ra = Row(a);
  const double* rb = Row(b);
  DimMask mask = 0;
  ForEachDim(universe, [&](int dim) {
    mask |= DimBit(dim) & -static_cast<DimMask>(ra[dim] == rb[dim]);
  });
  return mask;
}

DimMask Dataset::DominanceMask(ObjectId a, ObjectId b,
                               DimMask universe) const {
  const double* ra = Row(a);
  const double* rb = Row(b);
  DimMask mask = 0;
  ForEachDim(universe, [&](int dim) {
    mask |= DimBit(dim) & -static_cast<DimMask>(ra[dim] < rb[dim]);
  });
  return mask;
}

Dataset Dataset::WithPrefixDims(int d) const {
  SKYCUBE_CHECK_MSG(d >= 1 && d <= num_dims_, "prefix dims out of range");
  Dataset out(d, std::vector<std::string>(dim_names_.begin(),
                                          dim_names_.begin() + d));
  std::vector<double> row(d);
  for (ObjectId id = 0; id < num_objects(); ++id) {
    const double* src = Row(id);
    for (int i = 0; i < d; ++i) row[i] = src[i];
    out.AddRow(row);
  }
  return out;
}

Dataset Dataset::WithFirstRows(size_t n) const {
  SKYCUBE_CHECK_MSG(n <= num_objects(), "row prefix out of range");
  Dataset out(num_dims_, dim_names_);
  std::vector<double> row(num_dims_);
  for (ObjectId id = 0; id < n; ++id) {
    const double* src = Row(id);
    row.assign(src, src + num_dims_);
    out.AddRow(row);
  }
  return out;
}

Dataset Dataset::Negated() const {
  Dataset out(num_dims_, dim_names_);
  out.values_ = values_;
  for (double& value : out.values_) value = -value;
  return out;
}

Dataset Dataset::Truncated(int decimals) const {
  SKYCUBE_CHECK_MSG(decimals >= 0 && decimals <= 12,
                    "decimals must be in [0, 12]");
  double scale = 1.0;
  for (int i = 0; i < decimals; ++i) scale *= 10.0;
  Dataset out(num_dims_, dim_names_);
  out.values_ = values_;
  for (double& value : out.values_) {
    value = std::trunc(value * scale) / scale;
  }
  return out;
}

}  // namespace skycube
