/**
 * @file
 * KernelEngine: the dispatch layer between callers (reference block,
 * serving backends, benches) and kernel implementations. Dispatch is
 * two-level (see variant.h):
 *
 *  - **Tier** — per call it chooses the scalar golden kernels
 *    (src/linalg/{kernels,sparse_kernels}) for tiny shapes or when
 *    pinned to KernelTier::Reference (the oracle stays the oracle),
 *    or the cache-blocked optimized panels: row-stationary CSR SDDMM
 *    for moderate sparsity, the K-stationary CSC walk when the mask
 *    layout carries one (kCscSparsityThreshold, layout.h — mirroring
 *    the accelerator's denser / sparser split), and a ThreadPool
 *    parallel-for over row panels when the work amortizes the fork.
 *  - **ISA** — the optimized panels themselves are dispatched through
 *    a per-ISA kernel table (isa/isa.h) resolved once at engine
 *    construction: EngineConfig::isa, else `VITCOD_ISA`, else the
 *    highest level CPUID proves the host supports.
 *
 * Dispatch decisions are counted (DispatchStats, including which ISA
 * ran) so tests and benches can assert which path actually executed.
 * The engine holds no per-mask state and no lock: mask layouts are
 * built by buildHeadLayout() (layout.h), once per plan by the
 * ScheduleBuilder. Engines are safe to share across threads: all
 * methods are const apart from the atomic counters.
 */

#ifndef VITCOD_LINALG_ENGINE_ENGINE_H
#define VITCOD_LINALG_ENGINE_ENGINE_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>

#include "linalg/engine/isa/isa.h"
#include "linalg/engine/layout.h"
#include "linalg/engine/thread_pool.h"
#include "linalg/engine/variant.h"
#include "linalg/matrix.h"

namespace vitcod::linalg::engine {

/** Tuning knobs; defaults fit the 196x196 DeiT attention shapes. */
struct EngineConfig
{
    /**
     * Algorithm tier pin. Unset = Auto: per call, shapes below 2048
     * MACs run the scalar reference, everything else the optimized
     * panels.
     */
    std::optional<KernelTier> tier;

    /**
     * ISA pin for the optimized panels. Unset defers to the
     * `VITCOD_ISA` environment variable, then CPUID auto-detection.
     * A pinned level the host cannot run clamps down (see
     * isa::resolveIsa); KernelEngine::variant() reports what
     * actually resolved.
     */
    std::optional<IsaLevel> isa;

    /** Rows per parallel panel. */
    size_t rowPanel = 16;

    /** Below this many MACs a single thread runs. */
    size_t minParallelMacs = 1u << 16;
};

/** Cumulative dispatch counters (one engine instance). */
struct DispatchStats
{
    uint64_t gemmReference = 0;
    uint64_t gemmOptimized = 0;
    uint64_t sddmmReference = 0;
    uint64_t sddmmCsr = 0;
    uint64_t sddmmCsc = 0;
    uint64_t softmaxReference = 0;
    uint64_t softmaxOptimized = 0;
    uint64_t spmmReference = 0;
    uint64_t spmmOptimized = 0;
    uint64_t parallelLaunches = 0; //!< calls that fanned out to the pool
    uint64_t structureMisses = 0;  //!< mask layouts built on the call path

    /** @name Optimized kernel launches by executing ISA
     *  (declaration order matches IsaLevel's enumerator order)
     *  @{ */
    uint64_t isaScalar = 0;
    uint64_t isaAvx2 = 0;
    uint64_t isaAvx512 = 0;
    /** @} */

    bool operator==(const DispatchStats &) const = default;
};

/** One DispatchStats counter: serialization name + member pointer. */
struct DispatchStatsField
{
    const char *name;
    uint64_t DispatchStats::*member;
};

/**
 * Every DispatchStats counter, in declaration order. Arithmetic,
 * serializers and comparators iterate this single table so a newly
 * added counter cannot be silently dropped by one of them.
 */
std::span<const DispatchStatsField> dispatchStatsFields();

/**
 * Counter-wise difference (a - b): the dispatch activity between two
 * stats() snapshots of the same engine. @pre a >= b counter-wise.
 */
DispatchStats operator-(const DispatchStats &a, const DispatchStats &b);

/** Shape/sparsity/ISA-dispatching kernel executor. */
class KernelEngine
{
  public:
    /**
     * @param pool Parallel-for provider; nullptr runs single-threaded.
     *        Not owned; must outlive the engine.
     */
    explicit KernelEngine(EngineConfig cfg = {},
                          ThreadPool *pool = nullptr);

    KernelEngine(const KernelEngine &) = delete;
    KernelEngine &operator=(const KernelEngine &) = delete;

    const EngineConfig &config() const { return cfg_; }

    /**
     * The variant optimized-eligible dispatches execute with. A
     * Reference-pinned engine reports {Reference, Scalar} (the
     * oracle is host-independent by construction); otherwise the
     * tier is Optimized — what every hot shape runs — and the ISA is
     * the resolved level.
     */
    KernelVariant variant() const;

    /** The resolved ISA level of the optimized panels. */
    IsaLevel isaLevel() const { return kernels_->level; }

    /** Worker threads available to parallel-for (1 = serial). */
    size_t threads() const;

    /**
     * C = A * B into a caller-owned buffer: @p c is reshaped (its
     * capacity is reused, so steady-state callers never allocate —
     * the ModelExecutor's BufferArena path).
     */
    void gemmInto(const Matrix &a, const Matrix &b, Matrix &c) const;

    /** C = A * B^T into a caller-owned buffer (dense score kernel). */
    void gemmTransBInto(const Matrix &a, const Matrix &b,
                        Matrix &c) const;

    /**
     * Fused sparse attention into a caller-owned output buffer:
     * spmm(softmax(sddmm(q,k,mask))) without materializing
     * intermediate Csr objects. The optimized path builds the mask's
     * layout (buildHeadLayout, counted in structureMisses) and runs
     * the layout overload's kernels; a reference dispatch builds no
     * layout and materializes its Csr intermediates. Callers that
     * run a mask more than once should build its layout once and
     * use the layout overload, as the ModelExecutor does.
     */
    void sparseAttentionInto(const Matrix &q, const Matrix &k,
                             const Matrix &v,
                             const sparse::BitMask &mask, float scale,
                             Matrix &out) const;

    /**
     * Fused sparse attention over a prebuilt layout (the Schedule
     * IR's visit order): no mask scan, no structure counters.
     * @p mask must be the mask @p layout was compiled from; it is
     * consulted only by the reference dispatch (tiny shapes /
     * KernelTier::Reference), which keeps dispatch decisions
     * identical to the mask-only overload.
     */
    void sparseAttentionInto(const Matrix &q, const Matrix &k,
                             const Matrix &v,
                             const sparse::BitMask &mask,
                             const MaskLayoutView &layout, float scale,
                             Matrix &out) const;

    /** @name Allocating conveniences over the *Into primaries
     *  @{ */

    /** C = A * B. */
    Matrix gemm(const Matrix &a, const Matrix &b) const
    {
        Matrix c;
        gemmInto(a, b, c);
        return c;
    }

    /** C = A * B^T. */
    Matrix gemmTransB(const Matrix &a, const Matrix &b) const
    {
        Matrix c;
        gemmTransBInto(a, b, c);
        return c;
    }

    /** Fused sparse attention returning a fresh output matrix. */
    Matrix sparseAttention(const Matrix &q, const Matrix &k,
                           const Matrix &v, const sparse::BitMask &mask,
                           float scale = 1.0f) const
    {
        Matrix out;
        sparseAttentionInto(q, k, v, mask, scale, out);
        return out;
    }

    /** @} */

    /** Snapshot of the dispatch counters. */
    DispatchStats stats() const;

    /** Zero the dispatch counters. */
    void resetStats() const;

    /**
     * Process-wide default engine: Auto tier, env/CPUID-resolved
     * ISA, over ThreadPool::shared(). What reference_block and the
     * serving backends use unless handed a specific engine.
     */
    static const KernelEngine &shared();

  private:
    bool useOptimized(size_t macs) const;
    bool useParallel(size_t rows, size_t macs) const;
    void forPanels(size_t rows, size_t macs,
                   const std::function<void(size_t, size_t)> &body) const;

    /** Count one optimized kernel launch at @p level. */
    void noteIsaLaunch(IsaLevel level) const;

    /** The kernel table + noteIsaLaunch() in one step. */
    const isa::IsaKernelTable &kernelsForLaunch() const;

    /**
     * Scalar-oracle attention when the tier (or a tiny shape) calls
     * for it, counting the three reference launches. Returns false,
     * doing nothing, when the optimized panels should run instead.
     */
    bool referenceAttention(const Matrix &q, const Matrix &k,
                            const Matrix &v,
                            const sparse::BitMask &mask, float scale,
                            Matrix &out) const;

    /** Optimized SDDMM core over a pre-built layout. */
    void sddmmInto(const Matrix &q, const Matrix &k,
                   const MaskLayoutView &layout, float scale,
                   std::vector<float> &values) const;

    /** Optimized fused attention core over a pre-built layout. */
    void sparseAttentionOpt(const Matrix &q, const Matrix &k,
                            const Matrix &v,
                            const MaskLayoutView &layout, float scale,
                            Matrix &out) const;

    EngineConfig cfg_;
    ThreadPool *pool_;

    /** Per-ISA panel table, resolved once at construction. */
    const isa::IsaKernelTable *const kernels_;

    // One per DispatchStats counter, indexed by the private Counter
    // enum in engine.cpp.
    mutable std::atomic<uint64_t>
        counters_[sizeof(DispatchStats) / sizeof(uint64_t)];
};

} // namespace vitcod::linalg::engine

#endif // VITCOD_LINALG_ENGINE_ENGINE_H
