// Format fuzzing for the CSR on-disk format. The readers' contract on
// hostile input is total: every corruption is answered with a clean
// error status — InvalidArgument for structural damage, NotSupported for
// a future version — and never a crash, hang, or out-of-bounds access.
// The targeted cases pin each validation path by name; the seed-driven
// mutator then sprays randomized damage (header bytes, truncation,
// section patches) and asserts the same totality. The suite is tier1, so
// the ASan/UBSan CI legs run every mutation under instrumentation — an
// OOB read the status machinery happened to survive still fails here.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/sparse_mapped_dataset.h"
#include "data/sparse_dataset.h"
#include "io/file.h"
#include "la/sparse.h"
#include "util/random.h"
#include "util/status.h"

namespace m3::data {
namespace {

using util::StatusCode;

class SparseFormatFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_sparse_fuzz_test_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
    const std::string valid_path = dir_ + "/valid.m3s";
    SparseSyntheticOptions options;
    options.rows = 96;
    options.cols = 64;
    options.nnz_per_row = 6;
    options.seed = 7;
    ASSERT_TRUE(GenerateSparseDataset(valid_path, options).ok());
    valid_bytes_ = io::ReadFileToString(valid_path).ValueOrDie();
    meta_ = ReadSparseDatasetMeta(valid_path).ValueOrDie();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `bytes` to a fresh file and attempts the full open path
  /// (header validation + mmap + deep structural validation). Returns the
  /// status the reader produced.
  util::Status TryOpen(const std::string& bytes, const std::string& name) {
    const std::string path = dir_ + "/" + name;
    EXPECT_TRUE(io::WriteStringToFile(path, bytes).ok());
    auto opened = MappedSparseDataset::Open(path);
    if (!opened.ok()) {
      return opened.status();
    }
    // An accepted file must be internally consistent end to end — probe
    // the view the way a training scan would.
    const la::CsrView csr = opened.value().csr();
    EXPECT_EQ(csr.nnz(), opened.value().nnz());
    const std::vector<double> w(csr.cols(), 1.0);
    double sink = 0;
    for (size_t r = 0; r < csr.rows(); ++r) {
      const la::SparseRowView row = csr.Row(r);
      for (size_t k = 0; k < row.nnz; ++k) {
        EXPECT_LT(row.cols[k], csr.cols());
        if (k > 0) {
          EXPECT_GT(row.cols[k], row.cols[k - 1]);
        }
        sink += row.values[k];
      }
      sink += la::SparseDot(row, la::ConstVectorView(w.data(), w.size()));
    }
    (void)sink;
    return util::Status();
  }

  /// The valid bytes with the raw header mutated in place.
  std::string WithHeader(
      const std::function<void(SparseRawHeader*)>& mutate) const {
    std::string bytes = valid_bytes_;
    SparseRawHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    mutate(&header);
    std::memcpy(bytes.data(), &header, sizeof(header));
    return bytes;
  }

  void ExpectRejected(const std::string& bytes, const std::string& name,
                      StatusCode want = StatusCode::kInvalidArgument) {
    const util::Status status = TryOpen(bytes, name);
    EXPECT_FALSE(status.ok()) << name << " accepted corrupt input";
    EXPECT_EQ(static_cast<int>(status.code()), static_cast<int>(want))
        << name << ": " << status.ToString();
  }

  std::string dir_;
  std::string valid_bytes_;
  SparseDatasetMeta meta_;
};

TEST_F(SparseFormatFuzzTest, ValidFileOpens) {
  EXPECT_TRUE(TryOpen(valid_bytes_, "ok.m3s").ok());
}

TEST_F(SparseFormatFuzzTest, BadMagicRejected) {
  std::string bytes = valid_bytes_;
  bytes[0] = 'X';
  ExpectRejected(bytes, "magic.m3s");
}

TEST_F(SparseFormatFuzzTest, FutureVersionRejectedAsNotSupported) {
  ExpectRejected(WithHeader([](SparseRawHeader* h) { h->version = 999; }),
                 "version.m3s", StatusCode::kNotSupported);
}

TEST_F(SparseFormatFuzzTest, TruncatedSectionsRejected) {
  // One byte short of any section's end is a truncation.
  ExpectRejected(valid_bytes_.substr(0, valid_bytes_.size() - 1),
                 "trunc_tail.m3s");
  ExpectRejected(valid_bytes_.substr(0, meta_.col_idx_offset + 2),
                 "trunc_colidx.m3s");
  ExpectRejected(valid_bytes_.substr(0, kSparseDatasetHeaderBytes),
                 "trunc_header_only.m3s");
}

TEST_F(SparseFormatFuzzTest, FileShorterThanTheHeaderRejectedCleanly) {
  // Too short to even read the raw header: an I/O-layer error, still no
  // crash and no partial acceptance.
  const util::Status status =
      TryOpen(valid_bytes_.substr(0, 40), "trunc_tiny.m3s");
  EXPECT_FALSE(status.ok());
}

TEST_F(SparseFormatFuzzTest, MisalignedOffsetsRejected) {
  ExpectRejected(
      WithHeader([](SparseRawHeader* h) { h->values_offset += 4; }),
      "misaligned_values.m3s");
  ExpectRejected(
      WithHeader([](SparseRawHeader* h) { h->col_idx_offset += 2; }),
      "misaligned_colidx.m3s");
  ExpectRejected(
      WithHeader([](SparseRawHeader* h) { h->row_ptr_offset += 1; }),
      "misaligned_rowptr.m3s");
}

TEST_F(SparseFormatFuzzTest, SectionsOutsideTheFileRejected) {
  ExpectRejected(
      WithHeader([](SparseRawHeader* h) { h->row_ptr_offset = 0; }),
      "section_in_header.m3s");
  ExpectRejected(WithHeader([&](SparseRawHeader* h) {
                   h->values_offset = valid_bytes_.size() + (64ull << 10);
                 }),
                 "section_past_eof.m3s");
  ExpectRejected(WithHeader([](SparseRawHeader* h) {
                   // Offset + size overflows uint64: the bounds check must
                   // be overflow-safe, not wrap and accept.
                   h->labels_offset = UINT64_MAX - 4096 + 1;
                 }),
                 "section_offset_overflow.m3s");
}

TEST_F(SparseFormatFuzzTest, ImplausibleShapesRejected) {
  ExpectRejected(WithHeader([](SparseRawHeader* h) { h->rows = UINT64_MAX; }),
                 "huge_rows.m3s");
  ExpectRejected(
      WithHeader([](SparseRawHeader* h) { h->nnz = 1ull << 60; }),
      "huge_nnz.m3s");
  ExpectRejected(WithHeader([](SparseRawHeader* h) { h->cols = 0; }),
                 "zero_cols.m3s");
  ExpectRejected(
      WithHeader([](SparseRawHeader* h) { h->cols = 1ull << 33; }),
      "cols_past_uint32.m3s");
}

TEST_F(SparseFormatFuzzTest, HeaderNnzDisagreeingWithRowPtrRejected) {
  // Shrinking the header's nnz keeps every section in bounds (padding
  // absorbs the difference), so only the deep check can catch it.
  ExpectRejected(WithHeader([](SparseRawHeader* h) { h->nnz -= 1; }),
                 "nnz_mismatch.m3s");
}

TEST_F(SparseFormatFuzzTest, NonMonotoneRowPtrRejected) {
  std::string bytes = valid_bytes_;
  uint64_t* row_ptr =
      reinterpret_cast<uint64_t*>(bytes.data() + meta_.row_ptr_offset);
  const size_t victim = meta_.rows / 2;
  uint64_t bumped = row_ptr[victim + 1] + 10;
  std::memcpy(&row_ptr[victim], &bumped, sizeof(bumped));
  ExpectRejected(bytes, "non_monotone.m3s");
}

TEST_F(SparseFormatFuzzTest, RowPtrNotStartingAtZeroRejected) {
  std::string bytes = valid_bytes_;
  const uint64_t one = 1;
  std::memcpy(bytes.data() + meta_.row_ptr_offset, &one, sizeof(one));
  ExpectRejected(bytes, "rowptr_nonzero_start.m3s");
}

TEST_F(SparseFormatFuzzTest, OutOfRangeColIdxRejected) {
  std::string bytes = valid_bytes_;
  const uint32_t bad = static_cast<uint32_t>(meta_.cols) + 3;
  std::memcpy(bytes.data() + meta_.col_idx_offset + 4 * (meta_.nnz / 2),
              &bad, sizeof(bad));
  ExpectRejected(bytes, "colidx_oob.m3s");
}

// Columns must be strictly increasing within a row: la::SparseDot walks a
// row as ascending blocks of 2^16 columns, so the width here spans several
// blocks and the damaged rows step backwards across and within them.
TEST_F(SparseFormatFuzzTest, UnsortedOrRepeatedColumnsRejected) {
  const std::string wide_path = dir_ + "/wide.m3s";
  SparseSyntheticOptions options;
  options.rows = 8;
  options.cols = 3 * (uint64_t{1} << 16) + 5;
  options.nnz_per_row = 6;
  options.seed = 11;
  ASSERT_TRUE(GenerateSparseDataset(wide_path, options).ok());
  const std::string wide_bytes = io::ReadFileToString(wide_path).ValueOrDie();
  const SparseDatasetMeta meta = ReadSparseDatasetMeta(wide_path).ValueOrDie();
  ASSERT_TRUE(TryOpen(wide_bytes, "wide_ok.m3s").ok());

  std::vector<uint64_t> row_ptr(meta.rows + 1);
  std::memcpy(row_ptr.data(), wide_bytes.data() + meta.row_ptr_offset,
              8 * row_ptr.size());
  uint64_t row = 0;
  while (row < meta.rows && row_ptr[row + 1] - row_ptr[row] < 2) {
    ++row;
  }
  ASSERT_LT(row, meta.rows) << "no row with two entries to damage";
  const size_t first = meta.col_idx_offset + 4 * row_ptr[row];
  const auto with_cols = [&](uint32_t a, uint32_t b) {
    std::string bytes = wide_bytes;
    std::memcpy(bytes.data() + first, &a, sizeof(a));
    std::memcpy(bytes.data() + first + 4, &b, sizeof(b));
    return bytes;
  };
  ExpectRejected(with_cols(70000, 5), "back_a_block.m3s");
  ExpectRejected(with_cols(9, 5), "back_in_block.m3s");
  ExpectRejected(with_cols(5, 5), "repeated.m3s");
}

// The randomized sweep: every seed picks a mutation class and random
// parameters. Whatever happens, the reader must answer with ok() or a
// clean error — and an accepted file must scan safely (TryOpen probes
// it). Random damage can be harmless (a values byte, header padding), so
// acceptance is legitimate; crashing or reporting an unknown code is not.
TEST_F(SparseFormatFuzzTest, SeededMutationSweepNeverCrashes) {
  for (uint64_t seed = 0; seed < 128; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    std::string bytes = valid_bytes_;
    const uint64_t mutation = rng.UniformInt(uint64_t{4});
    switch (mutation) {
      case 0: {  // random header-page byte flips
        const size_t flips = 1 + rng.UniformInt(uint64_t{8});
        for (size_t i = 0; i < flips; ++i) {
          const size_t at = rng.UniformInt(kSparseDatasetHeaderBytes);
          bytes[at] = static_cast<char>(rng.UniformInt(uint64_t{256}));
        }
        break;
      }
      case 1:  // random truncation anywhere
        bytes.resize(rng.UniformInt(bytes.size() + 1));
        break;
      case 2: {  // random row_ptr damage
        const size_t at =
            meta_.row_ptr_offset + 8 * rng.UniformInt(meta_.rows + 1);
        uint64_t value = rng.Next();
        std::memcpy(bytes.data() + at, &value, sizeof(value));
        break;
      }
      default: {  // random col_idx damage
        const size_t at = meta_.col_idx_offset + 4 * rng.UniformInt(meta_.nnz);
        uint32_t value = static_cast<uint32_t>(rng.Next());
        std::memcpy(bytes.data() + at, &value, sizeof(value));
        break;
      }
    }
    const util::Status status =
        TryOpen(bytes, "sweep_" + std::to_string(seed) + ".m3s");
    if (!status.ok()) {
      const StatusCode code = status.code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kNotSupported ||
                  code == StatusCode::kIoError)
          << status.ToString();
    }
  }
}

}  // namespace
}  // namespace m3::data
