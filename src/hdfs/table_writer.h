// HdfsTableWriter: loads record batches into an HDFS table — chunks rows
// into blocks, encodes them in the chosen format (on a thread pool when one
// is given), places replicas through the NameNode and registers the table
// in HCatalog.

#ifndef HYBRIDJOIN_HDFS_TABLE_WRITER_H_
#define HYBRIDJOIN_HDFS_TABLE_WRITER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "hdfs/hcatalog.h"
#include "hdfs/namenode.h"

namespace hybridjoin {

struct HdfsWriteOptions {
  HdfsFormat format = HdfsFormat::kColumnar;
  ColumnarWriteOptions columnar;
  /// Target rows per HDFS block (a block is the scan/assignment unit).
  uint32_t rows_per_block = 64 * 1024;
};

/// Streams batches into one HDFS file. Usage:
///   HdfsTableWriter w(namenode, hcatalog, "L", schema, options, pool);
///   HJ_RETURN_IF_ERROR(w.Open());
///   w.Append(batch); ...; w.Close();
/// Blocks that lie whole inside one appended batch are encoded straight
/// from it before Append returns; rows of blocks that span batches are
/// copied into a pending block first. With a `pool`, the caller and pool
/// tasks encode full blocks in parallel, and blocks filled across batches
/// are held back until there are two per pool thread; without one, the
/// caller encodes each block. Either way blocks are appended in row order
/// and are byte-identical. The caller must not be a task of `pool`.
class HdfsTableWriter {
 public:
  HdfsTableWriter(NameNode* namenode, HCatalog* hcatalog, std::string name,
                  SchemaPtr schema, HdfsWriteOptions options,
                  ThreadPool* pool = nullptr);

  /// Creates the file. Fails if the table or file already exists.
  Status Open();

  /// Buffers rows, encoding full blocks and appending them to HDFS.
  Status Append(const RecordBatch& batch);

  /// Flushes the tail block and registers the table in HCatalog.
  Status Close();

  uint64_t rows_written() const { return rows_written_; }

 private:
  /// A full block not yet encoded: `rows` rows at `offset` of `*batch`,
  /// which is the batch being appended or, for a block filled across
  /// batches, `owned`.
  struct FullBlock {
    const RecordBatch* batch;
    size_t offset;
    size_t rows;
    std::unique_ptr<const RecordBatch> owned;
  };

  /// Moves the pending rows into full_ as one block.
  void HoldPending();

  /// Encodes the full blocks and appends them in order.
  Status FlushBlocks();

  NameNode* namenode_;
  HCatalog* hcatalog_;
  const std::string name_;
  const std::string path_;
  SchemaPtr schema_;
  const HdfsWriteOptions options_;
  ThreadPool* const pool_;

  RecordBatch pending_;          // the block being filled
  std::vector<FullBlock> full_;  // full blocks not yet encoded
  uint64_t rows_written_ = 0;
  bool open_ = false;
  bool closed_ = false;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HDFS_TABLE_WRITER_H_
