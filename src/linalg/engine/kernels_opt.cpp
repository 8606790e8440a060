#include "linalg/engine/kernels_opt.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vitcod::linalg::engine {

namespace {

/**
 * Four-lane dot product: independent accumulators break the serial
 * add chain so the compiler can keep the loop in SIMD registers.
 */
inline float
dot4(const float *__restrict a, const float *__restrict b, size_t n)
{
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    for (; i < n; ++i)
        s0 += a[i] * b[i];
    return (s0 + s1) + (s2 + s3);
}

/** out[0..n) += s * v[0..n), the SpMM/GEMM inner update. */
inline void
axpy(float *__restrict out, const float *__restrict v, float s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] += s * v[i];
}

} // namespace

void
gemmPanel(const Matrix &a, const Matrix &b, Matrix &c, size_t r0,
          size_t r1, size_t k_block, size_t j_block)
{
    const size_t K = a.cols();
    const size_t N = b.cols();
    if (k_block == 0)
        k_block = K;
    if (j_block == 0)
        j_block = N;
    // Block k and j so the touched B panel (k_block x j_block floats)
    // stays cache-resident while every row of the C panel streams it.
    for (size_t kb = 0; kb < K; kb += k_block) {
        const size_t ke = std::min(K, kb + k_block);
        for (size_t jb = 0; jb < N; jb += j_block) {
            const size_t je = std::min(N, jb + j_block);
            const size_t jn = je - jb;
            for (size_t i = r0; i < r1; ++i) {
                const float *__restrict a_row = a.rowData(i);
                float *__restrict c_row = c.rowData(i) + jb;
                for (size_t k = kb; k < ke; ++k) {
                    const float aik = a_row[k];
                    if (aik == 0.0f)
                        continue;
                    axpy(c_row, b.rowData(k) + jb, aik, jn);
                }
            }
        }
    }
}

void
gemmTransBPanel(const Matrix &a, const Matrix &b, Matrix &c, size_t r0,
                size_t r1)
{
    const size_t K = a.cols();
    for (size_t i = r0; i < r1; ++i) {
        const float *a_row = a.rowData(i);
        float *c_row = c.rowData(i);
        for (size_t j = 0; j < b.rows(); ++j)
            c_row[j] = dot4(a_row, b.rowData(j), K);
    }
}

void
sddmmCsrPanel(const Matrix &q, const Matrix &k,
              const std::vector<uint32_t> &row_ptr,
              const std::vector<uint32_t> &col_idx, float *values,
              size_t r0, size_t r1, float scale)
{
    const size_t d = q.cols();
    const uint32_t nnz = row_ptr[r1];
    for (size_t r = r0; r < r1; ++r) {
        const float *q_row = q.rowData(r);
        const uint32_t end = row_ptr[r + 1];
        for (uint32_t i = row_ptr[r]; i < end; ++i) {
            // The gathered K rows are the only irregular accesses;
            // fetch a few entries ahead while this dot computes.
            if (i + 4 < nnz)
                __builtin_prefetch(k.rowData(col_idx[i + 4]));
            values[i] = scale * dot4(q_row, k.rowData(col_idx[i]), d);
        }
    }
}

void
sddmmCscPanel(const Matrix &q, const Matrix &k,
              const std::vector<uint32_t> &col_ptr,
              const std::vector<uint32_t> &row_idx, float *values,
              size_t c0, size_t c1, float scale)
{
    const size_t d = q.cols();
    const uint32_t nnz = col_ptr[c1];
    for (size_t c = c0; c < c1; ++c) {
        const float *k_row = k.rowData(c); // stationary across the column
        const uint32_t end = col_ptr[c + 1];
        for (uint32_t i = col_ptr[c]; i < end; ++i) {
            if (i + 4 < nnz)
                __builtin_prefetch(q.rowData(row_idx[i + 4]));
            values[i] = scale * dot4(q.rowData(row_idx[i]), k_row, d);
        }
    }
}

void
softmaxCsrPanel(const std::vector<uint32_t> &row_ptr, float *values,
                size_t r0, size_t r1)
{
    for (size_t r = r0; r < r1; ++r) {
        const uint32_t begin = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        if (begin == end)
            continue;
        float max_v = -std::numeric_limits<float>::infinity();
        for (uint32_t i = begin; i < end; ++i)
            max_v = std::max(max_v, values[i]);
        // Single-precision exp (the scores and weights are float
        // anyway); the running sum stays double so normalization
        // matches the reference to the last few ulps.
        double sum = 0.0;
        for (uint32_t i = begin; i < end; ++i) {
            const float e = std::exp(values[i] - max_v);
            values[i] = e;
            sum += e;
        }
        const auto inv = static_cast<float>(1.0 / sum);
        for (uint32_t i = begin; i < end; ++i)
            values[i] *= inv;
    }
}

void
spmmPanel(const std::vector<uint32_t> &row_ptr,
          const std::vector<uint32_t> &col_idx, const float *values,
          const Matrix &v, Matrix &out, size_t r0, size_t r1)
{
    const size_t d = v.cols();
    for (size_t r = r0; r < r1; ++r) {
        float *__restrict out_row = out.rowData(r);
        uint32_t i = row_ptr[r];
        const uint32_t end = row_ptr[r + 1];
        // Paired update halves the out_row load/store traffic.
        for (; i + 2 <= end; i += 2) {
            const float s0 = values[i];
            const float s1 = values[i + 1];
            const float *__restrict v0 = v.rowData(col_idx[i]);
            const float *__restrict v1 = v.rowData(col_idx[i + 1]);
            for (size_t j = 0; j < d; ++j)
                out_row[j] += s0 * v0[j] + s1 * v1[j];
        }
        for (; i < end; ++i)
            axpy(out_row, v.rowData(col_idx[i]), values[i], d);
    }
}

void
cscValuesToCsr(size_t rows, const std::vector<uint32_t> &col_ptr,
               const std::vector<uint32_t> &row_idx,
               const std::vector<float> &csc_values,
               const std::vector<uint32_t> &csr_row_ptr,
               std::vector<float> &csr_values)
{
    csr_values.resize(csc_values.size());
    // Walking columns left to right emits each row's entries in
    // increasing column order, so a per-row cursor lands every value
    // in its exact CSR slot.
    std::vector<uint32_t> cursor(csr_row_ptr.begin(),
                                 csr_row_ptr.begin() +
                                     static_cast<ptrdiff_t>(rows));
    const size_t cols = col_ptr.size() - 1;
    for (size_t c = 0; c < cols; ++c) {
        const uint32_t end = col_ptr[c + 1];
        for (uint32_t i = col_ptr[c]; i < end; ++i)
            csr_values[cursor[row_idx[i]]++] = csc_values[i];
    }
}

} // namespace vitcod::linalg::engine
