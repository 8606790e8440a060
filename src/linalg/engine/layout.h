/**
 * @file
 * Compressed visit-order layout of one attention mask — the one
 * place a mask's structure is built. ViTCoD masks are fixed after
 * finetuning (paper Sec. IV-B), so the CSR/CSC index the sparser
 * engine walks is preprocessing: the ScheduleBuilder calls
 * buildHeadLayout() once per (layer, head) per plan, and the
 * KernelEngine executes from the result.
 */

#ifndef VITCOD_LINALG_ENGINE_LAYOUT_H
#define VITCOD_LINALG_ENGINE_LAYOUT_H

#include <cstdint>
#include <vector>

#include "sparse/bitmask.h"

namespace vitcod::linalg::engine {

/**
 * Mask sparsity at or above which a layout also carries the
 * K-stationary CSC traversal and the SDDMM walks it (the sparser-
 * engine order of paper Sec. V-B1).
 */
inline constexpr double kCscSparsityThreshold = 0.95;

/**
 * Borrowed view of a prebuilt compressed mask layout: what the
 * KernelEngine's layout overload of sparseAttentionInto() executes
 * from, so a caller that already compiled its masks does no O(n^2)
 * mask scan on the execution path. The referenced arrays must
 * outlive the call and describe the same mask the caller passes
 * alongside.
 */
struct MaskLayoutView
{
    size_t rows = 0;
    size_t cols = 0;
    const std::vector<uint32_t> *rowPtr = nullptr; //!< CSR, rows+1
    const std::vector<uint32_t> *colIdx = nullptr;
    const std::vector<uint32_t> *colPtr = nullptr; //!< useCsc only
    const std::vector<uint32_t> *rowIdx = nullptr;
    bool useCsc = false; //!< K-stationary CSC walk for the SDDMM
};

/**
 * Compressed layout of one head's full pruned mask: CSR always (the
 * softmax/SpMM order), CSC additionally when the mask is at least
 * kCscSparsityThreshold sparse.
 */
struct HeadLayout
{
    std::vector<uint32_t> rowPtr, colIdx; //!< CSR
    std::vector<uint32_t> colPtr, rowIdx; //!< CSC (useCsc only)
    bool useCsc = false;

    /** Borrowed view for the @p rows x @p cols mask it was built from. */
    MaskLayoutView view(size_t rows, size_t cols) const
    {
        return {rows, cols, &rowPtr, &colIdx, &colPtr, &rowIdx, useCsc};
    }

    bool operator==(const HeadLayout &) const = default;
};

/** Build the layout of @p mask: one mask scan, CSC derived in O(nnz). */
HeadLayout buildHeadLayout(const sparse::BitMask &mask);

} // namespace vitcod::linalg::engine

#endif // VITCOD_LINALG_ENGINE_LAYOUT_H
