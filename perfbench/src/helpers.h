/**
 * @file
 * Measurement helpers of the benchmark runner, kept apart from the
 * workloads so tests/test_helpers.cpp can pin them:
 *
 *  - the tail-percentile rule: report the highest percentile of a
 *    fixed ladder that still has at least kTailBeyond samples
 *    beyond it, together with the sample count, over a whole run
 *    or window by window;
 *  - due-time latency for the open-loop generator: each request is
 *    timed from when it was due, not from when it was submitted,
 *    and every admitted id must complete exactly once;
 *  - the DSE frontier digest the design_sweep output check compares
 *    against the value stored with the benchmark.
 */

#ifndef PERFBENCH_HELPERS_H
#define PERFBENCH_HELPERS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dse/pareto.h"

namespace perfbench {

/** Samples a reported tail percentile must have beyond it. */
inline constexpr size_t kTailBeyond = 10;

/** One order statistic of a sample, with what supports it. */
struct Percentile
{
    double pct = 0;     //!< percentile rank, e.g. 99.9
    double value = 0;   //!< the sample at that rank
    size_t samples = 0; //!< sample size it was taken from
    size_t beyond = 0;  //!< samples strictly after its rank
};

/**
 * Nearest-rank percentile @p pct of @p samples (sorted in place):
 * the value at 1-based rank ceil(pct/100 * n).
 * @pre !samples.empty(), 0 < pct <= 100.
 */
Percentile percentile(std::vector<double> &samples, double pct);

/** Median (nearest-rank p50) of @p samples. @pre non-empty. */
double median(std::vector<double> samples);

/**
 * The highest percentile of the ladder 50, 75, 90, 95, 99, 99.5,
 * 99.9, 99.95, 99.99, 99.995, 99.999 with at least kTailBeyond
 * samples beyond its rank. When not even p50 qualifies (fewer than
 * 20 samples) it returns p50 with beyond < kTailBeyond, so callers
 * can flag the tail as unsupported.
 * @pre !samples.empty().
 */
Percentile tailPercentile(std::vector<double> samples);

/** Printable "p99.9 of 400000 (40 beyond)" form. */
std::string describe(const Percentile &p);

/** Tail of a long run taken window by window. */
struct WindowedTail
{
    Percentile perWindow; //!< rule applied to one full window
    size_t windows = 0;   //!< full windows the median is over
    double value = 0;     //!< median of the windows' tails
};

/**
 * Split @p samples (in arrival order) into consecutive windows of
 * @p window samples, apply tailPercentile() to each full window and
 * take the median of those tails. Of a long open-loop run this
 * reports how the tail looks in a typical stretch of the run, so
 * one host stall -- which lands in one or two windows -- does not
 * decide it. A trailing partial window is dropped unless it is the
 * only one.
 * @pre !samples.empty(), window > 0.
 */
WindowedTail windowedTail(const std::vector<double> &samples,
                          size_t window);

/** One completion seen by the open-loop generator's callback. */
struct Completion
{
    uint64_t id = 0;
    double seconds = 0; //!< completion time on the generator's clock
};

/** Outcome of matching an open-loop run's completions to arrivals. */
struct OpenLoopOutcome
{
    /** Due-time latency per completed arrival, in arrival order. */
    std::vector<double> latencies;
    size_t missing = 0;    //!< admitted ids that never completed
    size_t duplicates = 0; //!< completions beyond the first per id
    size_t unknown = 0;    //!< completions of ids never admitted
    size_t late = 0;       //!< completed later than the limit

    /** Every admitted id completed exactly once, nothing foreign. */
    bool exactlyOnce() const
    {
        return missing == 0 && duplicates == 0 && unknown == 0;
    }
};

/**
 * Join an open-loop run: arrival i was due at @p due[i] and admitted
 * under id @p ids[i] (0 = refused by the server); @p done lists the
 * completion callbacks in any order. Latency runs from the due time
 * to completion, so a generator that submits late charges its
 * lateness to the request. Arrivals completing after
 * due + @p limit_seconds count as late.
 * @pre due.size() == ids.size().
 */
OpenLoopOutcome matchCompletions(const std::vector<double> &due,
                                 const std::vector<uint64_t> &ids,
                                 const std::vector<Completion> &done,
                                 double limit_seconds);

/**
 * 64-bit FNV-1a digest of a frontier's points: each point's grid
 * index and its three objectives printed at 17 significant digits.
 * Provenance fields are left out, so the digest names the search
 * result only.
 */
uint64_t frontierDigest(const vitcod::dse::ParetoFrontier &frontier);

/** 16 lowercase hex digits. */
std::string hexDigest(uint64_t digest);

/**
 * Read the digest stored in @p path (first whitespace-separated
 * token). Returns false when the file is missing or malformed.
 */
bool readDigestFile(const std::string &path, std::string &digest);

} // namespace perfbench

#endif // PERFBENCH_HELPERS_H
