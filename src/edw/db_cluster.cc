#include "edw/db_cluster.h"

#include <mutex>
#include <shared_mutex>
#include <numeric>

#include "common/hash.h"
#include "types/batch_scatter.h"

namespace hybridjoin {

namespace {

std::string IndexKey(const std::vector<std::string>& columns) {
  std::string key;
  for (const auto& c : columns) {
    if (!key.empty()) key += ',';
    key += c;
  }
  return key;
}

}  // namespace

DbCluster::DbCluster(const DbConfig& config) : config_(config) {
  HJ_CHECK_GT(config_.num_workers, 0u);
  workers_.reserve(config_.num_workers);
  for (uint32_t i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<DbWorker>(this, i));
  }
}

Status DbCluster::CreateTable(DbTableMeta meta) {
  if (meta.schema == nullptr || !meta.schema->HasColumn(
          meta.distribution_column)) {
    return Status::InvalidArgument(
        "distribution column missing from schema");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = tables_.try_emplace(meta.name);
  if (!inserted) {
    return Status::AlreadyExists("db table '" + meta.name +
                                 "' already exists");
  }
  it->second.meta = std::move(meta);
  it->second.partitions.resize(config_.num_workers);
  it->second.indexes.resize(config_.num_workers);
  return Status::OK();
}

Status DbCluster::LoadTable(const std::string& name,
                            const RecordBatch& rows) {
  // Exclusive for the whole load: concurrent readers of this table must
  // never observe a partition vector mid-append.
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("db table '" + name + "' does not exist");
  }
  TableData* table = &it->second;
  if (!(*rows.schema() == *table->meta.schema)) {
    return Status::InvalidArgument("batch schema does not match table");
  }
  HJ_ASSIGN_OR_RETURN(
      size_t dist_col,
      rows.schema()->IndexOf(table->meta.distribution_column));
  const PhysicalType key_type = rows.column(dist_col).physical_type();
  if (key_type != PhysicalType::kInt32 && key_type != PhysicalType::kInt64) {
    return Status::InvalidArgument("distribution column must be integer");
  }
  // Distribution hash is deliberately different from the JEN "agreed hash";
  // the paper stresses that DB2's internal partitioning is opaque to HDFS.
  constexpr uint64_t kDistSeed = 0xd157ULL;
  const uint32_t workers = config_.num_workers;
  BatchScatter scatter(table->meta.schema, workers, config_.batch_rows,
                       [table](size_t w, RecordBatch& batch) {
                         table->partitions[w].push_back(std::move(batch));
                         return Status::OK();
                       });
  HJ_RETURN_IF_ERROR(scatter.Append(rows, dist_col, [workers](int64_t key) {
    return static_cast<uint32_t>(
        HashInt64(static_cast<uint64_t>(key), kDistSeed) % workers);
  }));
  return scatter.FlushAll();
}

Status DbCluster::CreateIndex(const std::string& table,
                              const std::vector<std::string>& columns) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("db table '" + table + "' does not exist");
  }
  TableData* data = &it->second;
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  // Validate against the schema up front: partitions may be empty at DDL
  // time, so the per-partition Build() cannot be relied on to reject bad
  // column lists.
  for (const std::string& column : columns) {
    HJ_ASSIGN_OR_RETURN(size_t idx, data->meta.schema->IndexOf(column));
    const PhysicalType type =
        PhysicalTypeOf(data->meta.schema->field(idx).type);
    if (type != PhysicalType::kInt32 && type != PhysicalType::kInt64) {
      return Status::InvalidArgument("index column '" + column +
                                     "' is not integer-typed");
    }
  }
  const std::string key = IndexKey(columns);
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    HJ_ASSIGN_OR_RETURN(DbPartitionIndex index,
                        DbPartitionIndex::Build(data->partitions[w], columns));
    data->indexes[w].emplace(key, std::move(index));
  }
  return Status::OK();
}

Result<DbTableMeta> DbCluster::LookupTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("db table '" + name + "' does not exist");
  }
  return it->second.meta;
}

Result<uint64_t> DbCluster::TableRows(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const TableData* table = FindTableLocked(name);
  if (table == nullptr) {
    return Status::NotFound("db table '" + name + "' does not exist");
  }
  uint64_t total = 0;
  for (const auto& part : table->partitions) {
    for (const auto& batch : part) total += batch.num_rows();
  }
  return total;
}

const DbCluster::TableData* DbCluster::FindTableLocked(
    const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Result<const std::vector<RecordBatch>*> DbWorker::Partition(
    const std::string& table) const {
  std::shared_lock<std::shared_mutex> lock(cluster_->mu_);
  const DbCluster::TableData* data = cluster_->FindTableLocked(table);
  if (data == nullptr) {
    return Status::NotFound("db table '" + table + "' does not exist");
  }
  return &data->partitions[index_];
}

Result<RecordBatch> DbWorker::SampleFirstBatch(
    const std::string& table) const {
  std::shared_lock<std::shared_mutex> lock(cluster_->mu_);
  const DbCluster::TableData* data = cluster_->FindTableLocked(table);
  if (data == nullptr) {
    return Status::NotFound("db table '" + table + "' does not exist");
  }
  const std::vector<RecordBatch>& partition = data->partitions[index_];
  if (partition.empty()) return RecordBatch(data->meta.schema);
  return partition[0];
}

Result<RecordBatch> DbWorker::SampleStoredBatch(const std::string& table,
                                                uint64_t seed) const {
  std::shared_lock<std::shared_mutex> lock(cluster_->mu_);
  const DbCluster::TableData* data = cluster_->FindTableLocked(table);
  if (data == nullptr) {
    return Status::NotFound("db table '" + table + "' does not exist");
  }
  const std::vector<RecordBatch>& partition = data->partitions[index_];
  if (partition.empty()) return RecordBatch(data->meta.schema);
  return partition[seed % partition.size()];
}

Result<std::vector<RecordBatch>> DbWorker::ScanFilterProject(
    const std::string& table, const PredicatePtr& predicate,
    const std::vector<std::string>& projection, Metrics* metrics) const {
  trace::Span span(cluster_->tracer(), trace::span::kDbScan,
                   trace::span::kCatScan, node());
  std::shared_lock<std::shared_mutex> lock(cluster_->mu_);
  const DbCluster::TableData* data = cluster_->FindTableLocked(table);
  if (data == nullptr) {
    return Status::NotFound("db table '" + table + "' does not exist");
  }
  const std::vector<RecordBatch>* partition = &data->partitions[index_];
  std::vector<RecordBatch> out;
  int64_t scanned = 0;
  int64_t kept = 0;
  for (const RecordBatch& batch : *partition) {
    scanned += static_cast<int64_t>(batch.num_rows());
    std::vector<uint32_t> sel(batch.num_rows());
    for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
    if (predicate != nullptr) {
      HJ_RETURN_IF_ERROR(predicate->Filter(batch, &sel));
    }
    kept += static_cast<int64_t>(sel.size());
    if (sel.empty()) continue;
    std::vector<size_t> indices;
    indices.reserve(projection.size());
    for (const std::string& name : projection) {
      HJ_ASSIGN_OR_RETURN(size_t idx, batch.schema()->IndexOf(name));
      indices.push_back(idx);
    }
    out.push_back(batch.Project(indices).Gather(sel));
  }
  if (metrics != nullptr) {
    metrics->Add(metric::kDbTuplesScanned, scanned);
    metrics->Add(metric::kDbTuplesAfterFilter, kept);
  }
  return out;
}

Result<BloomFilter> DbWorker::BuildLocalBloom(const std::string& table,
                                              const PredicatePtr& predicate,
                                              const std::string& key_column,
                                              const BloomParams& params,
                                              bool* used_index,
                                              HeavyHitterSketch* sketch,
                                              uint64_t* qualifying_rows) const {
  trace::Span span(cluster_->tracer(), trace::span::kDbBloomBuild,
                   trace::span::kCatScan, node());
  std::shared_lock<std::shared_mutex> lock(cluster_->mu_);
  const DbCluster::TableData* data = cluster_->FindTableLocked(table);
  if (data == nullptr) {
    return Status::NotFound("db table '" + table + "' does not exist");
  }
  BloomFilter bloom(params);
  if (used_index != nullptr) *used_index = false;
  if (qualifying_rows != nullptr) *qualifying_rows = 0;

  // Index-only plan: any index covering the predicate and the key column.
  if (predicate != nullptr) {
    for (const auto& [name, index] : data->indexes[index_]) {
      if (!index.Covers(*predicate, key_column)) continue;
      std::vector<ConjunctiveIntCmp> cmps;
      predicate->CollectConjunctiveIntCmps(&cmps);
      uint64_t rows = 0;
      HJ_RETURN_IF_ERROR(index.ScanValues(
          cmps, key_column, [&bloom, &rows, sketch](int64_t key) {
            bloom.Add(key);
            ++rows;
            if (sketch != nullptr) sketch->Add(key);
          }));
      if (used_index != nullptr) *used_index = true;
      if (qualifying_rows != nullptr) *qualifying_rows = rows;
      return bloom;
    }
  }

  // Fallback: base-table scan.
  for (const RecordBatch& batch : data->partitions[index_]) {
    std::vector<uint32_t> sel(batch.num_rows());
    for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
    if (predicate != nullptr) {
      HJ_RETURN_IF_ERROR(predicate->Filter(batch, &sel));
    }
    if (qualifying_rows != nullptr) *qualifying_rows += sel.size();
    HJ_ASSIGN_OR_RETURN(size_t key_idx, batch.schema()->IndexOf(key_column));
    const ColumnVector& key = batch.column(key_idx);
    if (key.physical_type() == PhysicalType::kInt32) {
      bloom.AddKeys(std::span<const int32_t>(key.i32()),
                    std::span<const uint32_t>(sel));
      if (sketch != nullptr) {
        for (uint32_t r : sel) sketch->Add(key.i32()[r]);
      }
    } else {
      bloom.AddKeys(std::span<const int64_t>(key.i64()),
                    std::span<const uint32_t>(sel));
      if (sketch != nullptr) {
        for (uint32_t r : sel) sketch->Add(key.i64()[r]);
      }
    }
  }
  return bloom;
}

}  // namespace hybridjoin
