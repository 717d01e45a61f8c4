#include "hdfs/table_writer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

namespace hybridjoin {

HdfsTableWriter::HdfsTableWriter(NameNode* namenode, HCatalog* hcatalog,
                                 std::string name, SchemaPtr schema,
                                 HdfsWriteOptions options, ThreadPool* pool)
    : namenode_(namenode),
      hcatalog_(hcatalog),
      name_(std::move(name)),
      path_("/warehouse/" + name_),
      schema_(std::move(schema)),
      options_(options),
      pool_(pool),
      pending_(schema_) {}

Status HdfsTableWriter::Open() {
  if (open_) return Status::Internal("writer already open");
  HJ_RETURN_IF_ERROR(namenode_->CreateFile(path_));
  open_ = true;
  return Status::OK();
}

Status HdfsTableWriter::Append(const RecordBatch& batch) {
  if (!open_ || closed_) return Status::Internal("writer not open");
  if (!(*batch.schema() == *schema_)) {
    return Status::InvalidArgument("batch schema does not match table");
  }
  const size_t block_rows = std::max<uint32_t>(options_.rows_per_block, 1);
  const size_t hold = pool_ != nullptr ? 2 * pool_->num_threads() : 1;
  bool cut = false;  // whether full_ points into `batch`
  for (size_t at = 0; at < batch.num_rows();) {
    const size_t left = batch.num_rows() - at;
    if (pending_.num_rows() == 0 && left >= block_rows) {
      full_.push_back({&batch, at, block_rows, nullptr});
      cut = true;
      at += block_rows;
      continue;
    }
    const size_t take = std::min(left, block_rows - pending_.num_rows());
    pending_.AppendRange(batch, at, take);
    at += take;
    if (pending_.num_rows() == block_rows) HoldPending();
    if (full_.size() >= hold) HJ_RETURN_IF_ERROR(FlushBlocks());
  }
  if (cut) HJ_RETURN_IF_ERROR(FlushBlocks());
  return Status::OK();
}

void HdfsTableWriter::HoldPending() {
  auto owned = std::make_unique<const RecordBatch>(
      std::exchange(pending_, RecordBatch(schema_)));
  const RecordBatch* batch = owned.get();
  full_.push_back({batch, 0, batch->num_rows(), std::move(owned)});
}

Status HdfsTableWriter::FlushBlocks() {
  if (full_.empty()) return Status::OK();
  // A task encodes one text block, or one column chunk of a columnar block.
  const bool text = options_.format == HdfsFormat::kText;
  const size_t parts = text ? 1 : schema_->num_fields();
  std::vector<std::vector<uint8_t>> texts(text ? full_.size() : 0);
  std::vector<ColumnarBlock> blocks(text ? 0 : full_.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    blocks[i].num_rows = static_cast<uint32_t>(full_[i].rows);
    blocks[i].chunks.resize(parts);
  }
  auto encode = [&](size_t task) {
    const size_t i = task / parts;
    const FullBlock& full = full_[i];
    if (text) {
      texts[i] = EncodeText(*full.batch, full.offset, full.offset + full.rows);
      return;
    }
    ColumnChunk& chunk = blocks[i].chunks[task % parts];
    const ColumnVector& column = full.batch->column(task % parts);
    if (full.rows == column.size()) {
      chunk = EncodeColumnChunk(column, options_.columnar);
      return;
    }
    ColumnVector part(column.type());
    part.AppendRange(column, full.offset, full.rows);
    chunk = EncodeColumnChunk(part, options_.columnar);
  };
  // The caller and up to one pool task per further task take tasks in turn
  // until none is left.
  const size_t tasks = full_.size() * parts;
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t t; (t = next.fetch_add(1)) < tasks;) encode(t);
  };
  const size_t helpers =
      pool_ != nullptr ? std::min(pool_->num_threads(), tasks - 1) : 0;
  std::mutex mu;
  std::condition_variable done;
  size_t running = helpers;
  for (size_t h = 0; h < helpers; ++h) {
    pool_->Submit([&] {
      drain();
      std::lock_guard<std::mutex> lock(mu);
      if (--running == 0) done.notify_one();
    });
  }
  drain();
  {
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] { return running == 0; });
  }
  for (size_t i = 0; i < full_.size(); ++i) {
    auto block = std::make_shared<StoredBlock>();
    block->format = options_.format;
    block->num_rows = static_cast<uint32_t>(full_[i].rows);
    if (text) {
      block->text =
          std::make_shared<const std::vector<uint8_t>>(std::move(texts[i]));
    } else {
      block->columnar =
          std::make_shared<const ColumnarBlock>(std::move(blocks[i]));
    }
    rows_written_ += full_[i].rows;
    HJ_RETURN_IF_ERROR(namenode_->AppendBlock(path_, std::move(block)));
  }
  full_.clear();
  return Status::OK();
}

Status HdfsTableWriter::Close() {
  if (!open_ || closed_) return Status::Internal("writer not open");
  if (pending_.num_rows() > 0) HoldPending();
  HJ_RETURN_IF_ERROR(FlushBlocks());
  closed_ = true;
  HdfsTableMeta meta;
  meta.name = name_;
  meta.path = path_;
  meta.schema = schema_;
  meta.format = options_.format;
  meta.num_rows = rows_written_;
  return hcatalog_->RegisterTable(std::move(meta));
}

}  // namespace hybridjoin
