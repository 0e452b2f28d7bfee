// Sparse kernel correctness, pinned to the dense kernels: SparseDot and
// SparseAxpy over a CSR row must be the bitwise twins of Dot/Axpy over
// the densified row (the skipped zero terms are additive identities), so
// every ulp-conformance claim upstream (objectives, trainers) reduces to
// these loops.

#include "la/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "la/blas.h"
#include "la/matrix.h"
#include "util/random.h"

namespace m3::la {
namespace {

/// In-memory CSR holder for tests (the view is non-owning).
struct Csr {
  std::vector<uint64_t> row_ptr{0};
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  size_t cols = 0;

  CsrView View(size_t rows) const {
    return CsrView(row_ptr.data(), col_idx.data(), values.data(), rows, cols);
  }
};

/// Random ragged CSR: per-row nnz in [0, max_nnz], sorted distinct
/// columns, values in [-1, 1] with zeros remapped so every stored entry
/// is a genuine nonzero.
Csr RandomCsr(size_t rows, size_t cols, size_t max_nnz, uint64_t seed) {
  util::Rng rng(seed);
  Csr csr;
  csr.cols = cols;
  for (size_t r = 0; r < rows; ++r) {
    const size_t nnz = static_cast<size_t>(rng.UniformInt(
        static_cast<uint64_t>(std::min(cols, max_nnz) + 1)));
    std::vector<uint32_t> picked;
    while (picked.size() < nnz) {
      const uint32_t c = static_cast<uint32_t>(rng.UniformInt(
          static_cast<uint64_t>(cols)));
      bool dup = false;
      for (const uint32_t existing : picked) {
        dup = dup || existing == c;
      }
      if (!dup) {
        picked.push_back(c);
      }
    }
    std::sort(picked.begin(), picked.end());
    for (const uint32_t c : picked) {
      double v = rng.Uniform(-1.0, 1.0);
      if (v == 0.0) {
        v = 0.5;
      }
      csr.col_idx.push_back(c);
      csr.values.push_back(v);
    }
    csr.row_ptr.push_back(csr.col_idx.size());
  }
  return csr;
}

Vector RandomVector(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  Vector v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng.Uniform(-2.0, 2.0);
  }
  return v;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(CsrViewTest, ShapeAndRowAccess) {
  Csr csr;
  csr.cols = 5;
  // Row 0: (1, 2.0), (3, -1.0); row 1: empty; row 2: (0, 4.0).
  csr.col_idx = {1, 3, 0};
  csr.values = {2.0, -1.0, 4.0};
  csr.row_ptr = {0, 2, 2, 3};
  const CsrView view = csr.View(3);
  EXPECT_EQ(view.rows(), 3u);
  EXPECT_EQ(view.cols(), 5u);
  EXPECT_EQ(view.nnz(), 3u);
  EXPECT_EQ(view.Row(0).nnz, 2u);
  EXPECT_EQ(view.Row(0).cols[1], 3u);
  EXPECT_EQ(view.Row(1).nnz, 0u);
  EXPECT_EQ(view.Row(2).values[0], 4.0);
  EXPECT_EQ(CsrView().nnz(), 0u);
}

TEST(DensifyTest, ScattersStoredEntriesAndZeroesTheRest) {
  Csr csr;
  csr.cols = 4;
  csr.col_idx = {0, 3, 2};
  csr.values = {1.5, -2.5, 7.0};
  csr.row_ptr = {0, 2, 2, 3};
  const Matrix dense = Densify(csr.View(3));
  ASSERT_EQ(dense.rows(), 3u);
  ASSERT_EQ(dense.cols(), 4u);
  EXPECT_EQ(dense(0, 0), 1.5);
  EXPECT_EQ(dense(0, 1), 0.0);
  EXPECT_EQ(dense(0, 3), -2.5);
  EXPECT_EQ(dense(1, 2), 0.0);
  EXPECT_EQ(dense(2, 2), 7.0);

  Vector row(4);
  row[1] = 99.0;  // stale garbage DensifyRow must clear
  DensifyRow(csr.View(3).Row(0), row.View());
  EXPECT_EQ(row[0], 1.5);
  EXPECT_EQ(row[1], 0.0);
  EXPECT_EQ(row[3], -2.5);
}

TEST(SparseDotTest, BitwiseMatchesDenseDotOnDensifiedRows) {
  const size_t kRows = 64, kCols = 40;
  const Csr csr = RandomCsr(kRows, kCols, 12, /*seed=*/7);
  const CsrView view = csr.View(kRows);
  const Matrix dense = Densify(view);
  const Vector w = RandomVector(kCols, /*seed=*/11);
  for (size_t r = 0; r < kRows; ++r) {
    const double sparse = SparseDot(view.Row(r), w);
    const double reference = Dot(dense.Row(r), w);
    EXPECT_TRUE(BitwiseEqual(sparse, reference))
        << "row " << r << ": " << sparse << " vs " << reference;
  }
}

/// Appends one row of (column, value) entries, columns ascending.
void AddRow(Csr* csr, const std::vector<std::pair<size_t, double>>& entries) {
  for (const auto& [c, v] : entries) {
    csr->col_idx.push_back(static_cast<uint32_t>(c));
    csr->values.push_back(v);
  }
  csr->row_ptr.push_back(csr->col_idx.size());
}

/// Appends `rows` random rows of up to `max_nnz` entries.
void AddRandomRows(Csr* csr, size_t rows, size_t max_nnz, uint64_t seed) {
  const Csr random = RandomCsr(rows, csr->cols, max_nnz, seed);
  for (size_t r = 0; r < rows; ++r) {
    const SparseRowView row = random.View(rows).Row(r);
    std::vector<std::pair<size_t, double>> entries;
    for (size_t k = 0; k < row.nnz; ++k) {
      entries.emplace_back(row.cols[k], row.values[k]);
    }
    AddRow(csr, entries);
  }
}

/// Checks SparseDot(row, w) against Dot(densify(row), w) bitwise for every
/// row; returns how many rows a serial sum over the stored entries gets
/// wrong, i.e. how many rows the fixed blocks actually change.
size_t ExpectBlockedDotTwins(const Csr& csr, ConstVectorView w) {
  const size_t rows = csr.row_ptr.size() - 1;
  const CsrView view = csr.View(rows);
  Vector dense(csr.cols);
  size_t blocked_rows = 0;
  for (size_t r = 0; r < rows; ++r) {
    const SparseRowView row = view.Row(r);
    DensifyRow(row, dense.View());
    const double sparse = SparseDot(row, w);
    const double reference = Dot(dense, w);
    EXPECT_TRUE(BitwiseEqual(sparse, reference))
        << "row " << r << ": " << sparse << " vs " << reference;
    double serial = 0.0;
    for (size_t k = 0; k < row.nnz; ++k) {
      serial += row.values[k] * w[row.cols[k]];
    }
    blocked_rows += BitwiseEqual(serial, reference) ? 0 : 1;
  }
  return blocked_rows;
}

TEST(SparseDotTest, BitwiseMatchesBlockedDenseDotOnWideRows) {
  // Past la::kParallelKernelMinLength Dot sums fixed blocks and adds the
  // block sums in order; SparseDot must mirror those blocks.
  const size_t b = kParallelKernelMinLength;
  Csr csr;
  csr.cols = 2 * b + 7;
  Vector w = RandomVector(csr.cols, /*seed=*/31);  // negative entries too
  // Signed zeros in w: a positive value times -0.0 (or a negative value
  // times +0.0) is a -0.0 product.
  for (const size_t c : {size_t{10}, b + 3, b + 9, 2 * b + 1}) {
    w[c] = -0.0;
  }
  w[b + 5] = 0.0;

  AddRow(&csr, {{5, 0.5}, {100, -1.25}, {b - 1, 2.0}});  // one block
  AddRow(&csr, {{b - 6, 1.5}, {b, -0.75}, {b + 40, 3.0}, {2 * b - 1, -2.0},
                {2 * b, 1.0}, {2 * b + 6, 0.25}});      // spans all three
  AddRow(&csr, {{b + 1, 0.375}, {b + 100, -1.5}});      // starts past 0
  AddRow(&csr, {{2 * b + 2, 1.75}, {2 * b + 6, -0.5}});  // last block only
  AddRow(&csr, {});                                      // empty
  AddRow(&csr, {{b + 3, 2.0}, {b + 5, -1.0}, {b + 9, 0.5}});  // only -0.0
  AddRow(&csr, {{10, 1.0}, {b + 3, 4.0}, {2 * b + 1, 1.5},
                {2 * b + 4, -0.125}});  // -0.0 products among others
  AddRandomRows(&csr, 40, 30, /*seed=*/41);

  EXPECT_GT(ExpectBlockedDotTwins(csr, w), 0u);
  const CsrView view = csr.View(csr.row_ptr.size() - 1);
  EXPECT_TRUE(BitwiseEqual(SparseDot(view.Row(4), w), 0.0));  // empty
  EXPECT_TRUE(BitwiseEqual(SparseDot(view.Row(5), w), 0.0));  // not -0.0
}

TEST(SparseDotTest, BitwiseMatchesBlockedDenseDotAcrossManyBlocks) {
  // Rows spanning dozens of blocks, with gaps of many empty blocks.
  const size_t b = kParallelKernelMinLength;
  Csr csr;
  csr.cols = 40 * b + 3;
  const Vector w = RandomVector(csr.cols, /*seed=*/51);
  std::vector<std::pair<size_t, double>> every_block;
  for (size_t block = 0; block < 41; ++block) {
    every_block.emplace_back(block * b, 0.5 + static_cast<double>(block));
    if (block < 40) {
      every_block.emplace_back(block * b + b / 2, -1.25);
    }
  }
  AddRow(&csr, every_block);
  AddRow(&csr, {{3, 1.0}, {15 * b + 2, -2.0}, {16 * b, 0.75},
                {17 * b + 9, 1.5}, {33 * b, -0.5}, {40 * b + 2, 2.5}});
  AddRow(&csr, {{5 * b + 1, 1.0}, {20 * b, -3.0}, {21 * b, 0.125},
                {39 * b, 1.0}});
  AddRow(&csr, {{36 * b + 4, -1.0}, {40 * b, 2.0}});
  AddRandomRows(&csr, 30, 200, /*seed=*/61);
  EXPECT_GT(ExpectBlockedDotTwins(csr, w), 0u);
}

TEST(SparseAxpyTest, BitwiseMatchesDenseAxpyOnDensifiedRows) {
  const size_t kRows = 48, kCols = 32;
  const Csr csr = RandomCsr(kRows, kCols, 10, /*seed=*/21);
  const CsrView view = csr.View(kRows);
  const Matrix dense = Densify(view);
  Vector sparse_acc = RandomVector(kCols, /*seed=*/5);
  Vector dense_acc(kCols);
  Copy(sparse_acc, dense_acc);
  for (size_t r = 0; r < kRows; ++r) {
    const double alpha = 0.25 + static_cast<double>(r) * 0.125;
    SparseAxpy(alpha, view.Row(r), sparse_acc.View());
    Axpy(alpha, dense.Row(r), dense_acc.View());
  }
  EXPECT_EQ(std::memcmp(sparse_acc.data(), dense_acc.data(),
                        kCols * sizeof(double)),
            0);
}

TEST(SparseDotTest, EmptyRowIsExactlyZero) {
  const SparseRowView empty;
  const Vector w = RandomVector(16, /*seed=*/3);
  EXPECT_EQ(SparseDot(empty, w), 0.0);
  Vector acc = RandomVector(16, /*seed=*/4);
  Vector before(16);
  Copy(acc, before);
  SparseAxpy(2.0, empty, acc.View());
  EXPECT_EQ(std::memcmp(acc.data(), before.data(), 16 * sizeof(double)), 0);
}

}  // namespace
}  // namespace m3::la
