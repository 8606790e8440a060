#include "linalg/engine/layout.h"

namespace vitcod::linalg::engine {

namespace {

/**
 * CSR structure of @p mask without values: bulk two-pass scan
 * (count, fill), no per-nonzero callback.
 */
void
maskToCsrStructure(const sparse::BitMask &mask,
                   std::vector<uint32_t> &row_ptr,
                   std::vector<uint32_t> &col_idx)
{
    const size_t rows = mask.rows();
    const size_t cols = mask.cols();
    // Count pass (vectorizable byte sum per row), then a branchless
    // fill pass: every cell stores its column, the cursor advances
    // only on set bits — random masks would mispredict a branch on
    // nearly every nonzero.
    row_ptr.assign(rows + 1, 0);
    for (size_t r = 0; r < rows; ++r) {
        uint32_t n = 0;
        for (size_t c = 0; c < cols; ++c)
            n += mask.get(r, c) ? 1u : 0u;
        row_ptr[r + 1] = row_ptr[r] + n;
    }
    // One lane of slack: the final iteration writes one past the
    // last nonzero's slot.
    col_idx.resize(row_ptr[rows] + 1);
    uint32_t *out = col_idx.data();
    for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
            *out = static_cast<uint32_t>(c);
            out += mask.get(r, c) ? 1 : 0;
        }
    }
    col_idx.resize(row_ptr[rows]);
}

/**
 * CSC structure from an existing CSR structure in O(nnz) (no second
 * mask scan): count column occupancy, prefix-sum, fill. Row indices
 * within each column come out ascending because CSR rows are walked
 * in order.
 */
void
csrToCscStructure(size_t rows, size_t cols,
                  const std::vector<uint32_t> &row_ptr,
                  const std::vector<uint32_t> &col_idx,
                  std::vector<uint32_t> &col_ptr,
                  std::vector<uint32_t> &row_idx)
{
    col_ptr.assign(cols + 1, 0);
    for (const uint32_t c : col_idx)
        ++col_ptr[c + 1];
    for (size_t c = 0; c < cols; ++c)
        col_ptr[c + 1] += col_ptr[c];
    row_idx.resize(col_idx.size());
    std::vector<uint32_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
    for (size_t r = 0; r < rows; ++r) {
        const uint32_t end = row_ptr[r + 1];
        for (uint32_t i = row_ptr[r]; i < end; ++i)
            row_idx[cursor[col_idx[i]]++] = static_cast<uint32_t>(r);
    }
}

} // namespace

HeadLayout
buildHeadLayout(const sparse::BitMask &mask)
{
    HeadLayout l;
    maskToCsrStructure(mask, l.rowPtr, l.colIdx);
    const auto nnz = static_cast<double>(l.colIdx.size());
    l.useCsc = nnz < (1.0 - kCscSparsityThreshold) *
                         static_cast<double>(mask.rows() * mask.cols());
    if (l.useCsc)
        csrToCscStructure(mask.rows(), mask.cols(), l.rowPtr, l.colIdx,
                          l.colPtr, l.rowIdx);
    return l;
}

} // namespace vitcod::linalg::engine
