/**
 * @file
 * The benchmark runner. One invocation runs one workload for a fixed
 * wall time and prints, as the last line of stdout, one JSON object
 * {"correct", "attempted", "failed", "metrics"}; lines before it
 * start with "# " and carry the host fingerprint, the percentile
 * each tail stands for and the output-check details.
 *
 *   perfbench_runner --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> --digest-file <path>
 *
 * Workloads (end-to-end metrics, --trace 0):
 *   vit_batch     one closed loop, each op one forwardBatch of 4
 *                 DeiT-Tiny@90% inputs on an engine over a ThreadPool
 *                 of nproc - 1 threads (the caller is the nproc-th);
 *   serve_sim     open-loop Poisson traffic at 20k req/s into an
 *                 InferenceServer of one simulated ViTCoD worker.
 *
 * --trace 1 ignores the workload's loop and runs the per-layer
 * replay instead (see runTraced): every layer is driven through its
 * public API and timed from spans in this file.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "accel/vitcod_accel.h"
#include "common/rng.h"
#include "core/model_exec/model_executor.h"
#include "core/pipeline.h"
#include "core/schedule/builder.h"
#include "dse/explorer.h"
#include "linalg/engine/engine.h"
#include "linalg/engine/thread_pool.h"
#include "linalg/kernels.h"
#include "obs/trace.h"
#include "serve/load_gen.h"
#include "serve/server.h"

#include "helpers.h"

using namespace vitcod;
using core::model_exec::ExecTrace;
using core::model_exec::ExecutorConfig;
using core::model_exec::ModelExecutor;
using core::model_exec::ModelWeights;
using linalg::Matrix;
using linalg::engine::KernelEngine;
using linalg::engine::KernelTier;
using linalg::engine::ThreadPool;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Wall seconds of one call of @p fn. */
template <typename Fn>
double
timeIt(Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/** Median wall seconds of @p reps calls of @p fn. */
template <typename Fn>
double
medianSeconds(size_t reps, Fn &&fn)
{
    std::vector<double> t;
    t.reserve(reps);
    for (size_t i = 0; i < reps; ++i)
        t.push_back(timeIt(fn));
    return perfbench::median(std::move(t));
}

/** An engine config pinned to @p tier (everything else default). */
linalg::engine::EngineConfig
tierConfig(KernelTier tier)
{
    linalg::engine::EngineConfig cfg;
    cfg.tier = tier;
    return cfg;
}

// ------------------------------------------------------------ config

/** The fixed workload constants (the seed only varies the inputs). */
constexpr const char *kModel = "DeiT-Tiny";
constexpr double kSparsity = 0.90;
constexpr double kSparsityHigh = 0.95;
constexpr size_t kClasses = 1000;
constexpr size_t kBatch = 4;
constexpr double kServeRate = 20000.0; //!< req/s offered
/**
 * serve_sim latency limit. More than 10x the worst p99 seen on
 * healthy code, so ok_frac stays 1.0 through host stalls (README.md).
 */
constexpr double kServeLimitMs = 100.0;
constexpr size_t kServeWarmRequests = 2000;
/** Requests per serve_sim tail window (~10 ms at kServeRate). */
constexpr size_t kServeTailWindow = 200;
/** Setups per run; setup_s reports their median. */
constexpr size_t kSetupReps = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string digestFile;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\n"
                 "usage: perfbench_runner --workload "
                 "vit_batch|serve_sim "
                 "--seed N --seconds S --trace 0|1 --digest-file PATH\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            a.trace = std::strcmp(val, "1") == 0;
            if (!a.trace && std::strcmp(val, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (key == "--digest-file") {
            a.digestFile = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + key).c_str());
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (a.workload != "vit_batch" && a.workload != "serve_sim")
        usage(("unknown workload " + a.workload).c_str());
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    if (a.digestFile.empty())
        usage("--digest-file is required");
    return a;
}

// ------------------------------------------------------------ report

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one run prints: the verdict, counts and named metrics. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Fail the output check with a reason on a "# " line. */
    void fail(const std::string &why)
    {
        correct = false;
        std::printf("# CHECK FAILED: %s\n", why.c_str());
    }

    void print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
        std::printf("}}\n");
    }
};

/** Peak resident set of this process in MiB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

size_t
hostThreads()
{
    return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void
printHost(const Args &args)
{
    const KernelEngine probe(tierConfig(KernelTier::Optimized));
    std::printf("# host: {\"cpu\": \"%s\", \"nproc\": %zu, \"isa\": "
                "\"%s\", \"compiler\": \"g++ %s\"}\n",
                cpuModel().c_str(), hostThreads(),
                linalg::engine::isaName(probe.isaLevel()), __VERSION__);
    std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
}

/**
 * The six end-to-end metrics every workload reports. With
 * @p tail_window > 0 the tail is windowedTail() over windows of that
 * many samples (in arrival order), else the whole-run rule.
 */
void
addEndToEnd(Report &rep, const char *op, double setup_s,
            std::vector<double> latencies_s, double ok_ops_per_s,
            size_t tail_window = 0)
{
    rep.add("setup_s", setup_s, "s");
    rep.add("rss_mb", peakRssMb(), "MiB");
    if (latencies_s.empty()) {
        rep.fail("no operation completed");
        latencies_s.push_back(0);
    }
    for (double &l : latencies_s)
        l *= 1e3;
    const perfbench::Percentile whole =
        perfbench::tailPercentile(latencies_s);
    double tail = whole.value;
    if (tail_window > 0) {
        const perfbench::WindowedTail w =
            perfbench::windowedTail(latencies_s, tail_window);
        tail = w.value;
        std::printf("# lat_tail_ms is the median over %zu windows of "
                    "each window's %s %s latencies; whole run: %s = "
                    "%.4f ms\n",
                    w.windows, perfbench::describe(w.perWindow).c_str(),
                    op, perfbench::describe(whole).c_str(), whole.value);
    } else {
        std::printf("# lat_tail_ms is %s %s latencies\n",
                    perfbench::describe(whole).c_str(), op);
    }
    rep.add("lat_p50_ms", perfbench::median(std::move(latencies_s)),
            "ms");
    rep.add("lat_tail_ms", tail, "ms");
    rep.add("throughput_per_s", ok_ops_per_s, "1/s");
    const uint64_t ok = rep.attempted - rep.failed;
    rep.add("ok_frac",
            rep.attempted ? static_cast<double>(ok) /
                                static_cast<double>(rep.attempted)
                          : 0.0,
            "frac");
}

// ------------------------------------------------------- closed loops

/** What a closed loop recorded. */
struct ClosedLoop
{
    std::vector<double> latencies; //!< seconds per operation
    uint64_t failed = 0;           //!< operations whose check failed
    double wall = 0;               //!< start to the last op's end
};

/**
 * One closed loop for @p seconds: op() back to back until the time
 * is up. op returns whether its output passed the check.
 */
template <typename Op>
ClosedLoop
closedLoop(double seconds, Op &&op)
{
    ClosedLoop out;
    const auto start = Clock::now();
    while (secondsSince(start) < seconds) {
        bool ok = false;
        out.latencies.push_back(timeIt([&] { ok = op(); }));
        if (!ok)
            ++out.failed;
    }
    out.wall = secondsSince(start);
    return out;
}

// ------------------------------------------------------ vit workloads

/** ulp distance between two finite floats (huge when signs differ). */
uint64_t
ulpDiff(float a, float b)
{
    if (a == b)
        return 0;
    int32_t ia = 0, ib = 0;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    if ((ia < 0) != (ib < 0))
        return UINT64_MAX;
    return static_cast<uint64_t>(
        std::llabs(static_cast<int64_t>(ia) - static_cast<int64_t>(ib)));
}

/**
 * The whole-model budget of tests/core/test_model_exec.cpp: 4096
 * ulps per layer, with a 1e-4 absolute band for values cancelling
 * toward zero. Returns the worst ulp distance outside the band, or
 * UINT64_MAX on a shape mismatch.
 */
uint64_t
worstUlps(const Matrix &got, const Matrix &want)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return UINT64_MAX;
    uint64_t worst = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        const float a = got.data()[i];
        const float b = want.data()[i];
        if (std::fabs(a - b) <= 1e-4f)
            continue;
        worst = std::max(worst, ulpDiff(a, b));
    }
    return worst;
}

bool
bitwiseEqual(const std::vector<Matrix> &a, const std::vector<Matrix> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
            std::memcmp(a[i].data(), b[i].data(),
                        a[i].size() * sizeof(float)) != 0)
            return false;
    return true;
}

/**
 * Everything one vit_* operation runs on, declared in destruction-
 * safe order: the executor borrows plan and engine, the engine
 * borrows the pool.
 */
struct VitRig
{
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<KernelEngine> engine;
    std::unique_ptr<core::ModelPlan> plan;
    std::unique_ptr<ModelExecutor> exec;
    std::vector<Matrix> inputs;

    /** One operation: forward() for one input, else forwardBatch. */
    std::vector<Matrix> run(ExecTrace *trace = nullptr)
    {
        if (inputs.size() == 1)
            return {exec->forward(inputs[0], trace)};
        return exec->forwardBatch(inputs, trace);
    }
};

/**
 * Plan, schedule (built by the executor), weights and inputs for
 * DeiT-Tiny at @p sparsity, on an Optimized engine over @p threads
 * pool threads (0 = no pool, single-threaded).
 */
VitRig
buildVitRig(double sparsity, uint64_t seed, size_t batch, size_t threads)
{
    VitRig rig;
    if (threads > 0)
        rig.pool = std::make_unique<ThreadPool>(threads);
    rig.engine = std::make_unique<KernelEngine>(
        tierConfig(KernelTier::Optimized), rig.pool.get());
    const model::VitModelConfig m = model::modelByName(kModel);
    rig.plan = std::make_unique<core::ModelPlan>(core::buildModelPlan(
        m, core::makePipelineConfig(sparsity, false)));
    Rng rng(seed);
    ModelWeights w = ModelWeights::random(m, 0, kClasses, rng);
    for (size_t i = 0; i < batch; ++i)
        rig.inputs.push_back(Matrix::randomNormal(
            m.stages[0].tokens, m.stages[0].embedDim, rng));
    rig.exec = std::make_unique<ModelExecutor>(
        rig.plan.get(), std::move(w),
        ExecutorConfig{.numClasses = kClasses}, rig.engine.get());
    return rig;
}

/**
 * Check @p first (one op's logits) against a Reference-tier executor
 * over the same plan, weights and inputs.
 */
bool
matchesReference(const VitRig &rig, const std::vector<Matrix> &first)
{
    const KernelEngine ref(tierConfig(KernelTier::Reference));
    ModelExecutor oracle(rig.plan.get(), ModelWeights(rig.exec->weights()),
                         rig.exec->config(), &ref);
    const uint64_t budget = 4096 * rig.plan->model.totalLayers();
    uint64_t worst = 0;
    for (size_t i = 0; i < rig.inputs.size(); ++i)
        worst = std::max(worst,
                         worstUlps(first.at(i), oracle.forward(rig.inputs[i])));
    std::printf("# reference check: worst %llu ulps (budget %llu)\n",
                static_cast<unsigned long long>(worst),
                static_cast<unsigned long long>(budget));
    return worst <= budget;
}

/**
 * Pool threads of vit_batch: nproc - 1, because parallelFor's caller
 * runs chunks too, so the batch keeps exactly nproc threads on nproc
 * cores and no pool thread waits for a core.
 */
size_t
batchPoolThreads()
{
    return std::max<size_t>(1, hostThreads() - 1);
}

/**
 * vit_batch: one client over a pool of batchPoolThreads(), which with
 * its caller fills every core.
 */
Report
runBatch(const Args &args)
{
    const size_t threads = batchPoolThreads();
    Report rep;

    // setup: plan, schedule, weights, executor, one warm-up op.
    std::vector<double> setups;
    std::optional<VitRig> rig;
    for (size_t r = 0; r < kSetupReps; ++r) {
        rig.reset();
        setups.push_back(timeIt([&] {
            rig.emplace(buildVitRig(kSparsity, args.seed, kBatch, threads));
            rig->run();
        }));
    }

    std::vector<Matrix> first;
    const ClosedLoop loop = closedLoop(args.seconds, [&] {
        std::vector<Matrix> out = rig->run();
        if (first.empty()) {
            first = std::move(out);
            return true;
        }
        return bitwiseEqual(out, first);
    });
    rep.attempted = loop.latencies.size();
    rep.failed = loop.failed;

    if (rep.failed)
        rep.fail(std::to_string(rep.failed) +
                 " operations differ bitwise from the first");
    if (!matchesReference(*rig, first)) {
        rep.fail("first operation's logits exceed the ulp budget "
                 "against the Reference tier");
        rep.failed = rep.attempted;
    }
    if (rig->exec->arena().growths() != 0)
        rep.fail("activation arena grew " +
                 std::to_string(rig->exec->arena().growths()) + " times");

    const double okImages =
        static_cast<double>((rep.attempted - rep.failed) * kBatch);
    std::printf("# op: forwardBatch of %zu DeiT-Tiny@%.0f%% inputs on an "
                "engine over a %zu-thread pool plus the caller; "
                "throughput counts images\n",
                kBatch, kSparsity * 100, threads);
    addEndToEnd(rep, "operation", perfbench::median(setups),
                loop.latencies, okImages / loop.wall);
    return rep;
}

// ---------------------------------------------------------- serve_sim

/** Completion sink of the open-loop generator (worker threads write). */
struct ServeRecorder
{
    Clock::time_point epoch;
    std::vector<perfbench::Completion> done;
    std::vector<double> queueSeconds; //!< InferenceResponse echo
    std::vector<double> execSeconds;  //!< wall latency - queue
    std::atomic<size_t> count{0};

    explicit ServeRecorder(size_t capacity)
        : epoch(Clock::now()), done(capacity), queueSeconds(capacity),
          execSeconds(capacity)
    {
    }

    void onResponse(const serve::InferenceResponse &r)
    {
        const double t = secondsSince(epoch);
        const size_t slot = count.fetch_add(1, std::memory_order_relaxed);
        if (slot >= done.size())
            return; // overflow: reported as duplicates by count
        done[slot] = {r.id, t};
        queueSeconds[slot] = r.queueSeconds;
        execSeconds[slot] = r.wallLatencySeconds - r.queueSeconds;
    }
};

/** The two tasks of the 50/50 mix: DeiT-Tiny end to end, AE on. */
std::vector<serve::PlanKey>
serveKeys()
{
    return {{kModel, kSparsity, true, true},
            {kModel, kSparsityHigh, true, true}};
}

/**
 * One simulated ViTCoD worker, continuous batching. Pacing
 * (realtimeFactor) and admission control stay off: with pacing the
 * latency would measure the OS timer, and the admission backlog
 * counts simulated seconds while unpaced workers drain in wall
 * time, so its shed count would follow host timing. One worker,
 * because with two the workers' wake-ups blocked submit() hundreds
 * of times more often on the measured KVM guest (README.md).
 */
serve::ServerConfig
serveConfig()
{
    serve::ServerConfig cfg;
    cfg.backends = {"ViTCoD"};
    cfg.scheduler.policy = serve::SchedulerPolicy::Continuous;
    cfg.admission.enabled = false;
    cfg.realtimeFactor = 0.0;
    return cfg;
}

/** Server + its recorder, built and warmed. */
struct ServeRig
{
    std::unique_ptr<ServeRecorder> rec;
    std::unique_ptr<serve::InferenceServer> server;
};

ServeRig
buildServeRig(size_t capacity)
{
    ServeRig rig;
    rig.rec = std::make_unique<ServeRecorder>(capacity);
    ServeRecorder *rec = rig.rec.get();
    rig.server = std::make_unique<serve::InferenceServer>(
        serveConfig(),
        [rec](const serve::InferenceResponse &r) { rec->onResponse(r); });
    const auto keys = serveKeys();
    rig.server->warmup(keys);
    // Price both plans on the worker before anything is timed.
    for (size_t i = 0; i < kServeWarmRequests; ++i)
        rig.server->submit(keys[i % keys.size()]);
    rig.server->drain();
    return rig;
}

/** What one open-loop pass measured. */
struct OpenLoopRun
{
    perfbench::OpenLoopOutcome outcome;
    std::vector<double> lateness; //!< submit - due, per arrival
    std::vector<double> submitSeconds; //!< submit() call, traced only
    size_t shed = 0;
    double wall = 0; //!< first due -> drain complete
    size_t arrivals = 0;
};

/**
 * Offer @p seconds of Poisson traffic at kServeRate from seed
 * @p seed to @p rig: spin to each due time, submit, then drain.
 */
OpenLoopRun
openLoop(ServeRig &rig, uint64_t seed, double seconds, bool time_submits)
{
    serve::TrafficConfig tc;
    tc.process = serve::ArrivalProcess::Poisson;
    tc.ratePerSec = kServeRate;
    tc.requests = static_cast<size_t>(kServeRate * seconds);
    tc.seed = seed;
    const std::vector<double> arrivals = serve::generateArrivalTimes(tc);
    const auto keys = serveKeys();
    Rng mixRng(seed ^ 0x6d69787374726561ULL);
    std::vector<uint8_t> which(arrivals.size());
    for (uint8_t &w : which)
        w = static_cast<uint8_t>(mixRng.uniformInt(keys.size()));

    OpenLoopRun run;
    run.arrivals = arrivals.size();
    ServeRecorder &rec = *rig.rec;
    rec.count.store(0);
    std::vector<double> due(arrivals.size());
    std::vector<uint64_t> ids(arrivals.size());
    run.lateness.resize(arrivals.size());
    if (time_submits)
        run.submitSeconds.resize(arrivals.size());

    const double base = secondsSince(rec.epoch) + 1e-3;
    for (size_t i = 0; i < arrivals.size(); ++i) {
        due[i] = base + arrivals[i];
        double now = secondsSince(rec.epoch);
        while (now < due[i])
            now = secondsSince(rec.epoch);
        run.lateness[i] = now - due[i];
        ids[i] = rig.server->submit(keys[which[i]]);
        if (time_submits)
            run.submitSeconds[i] = secondsSince(rec.epoch) - now;
        if (ids[i] == 0)
            ++run.shed;
    }
    rig.server->drain();
    run.wall = secondsSince(rec.epoch) - base;

    const size_t seen = rec.count.load();
    std::vector<perfbench::Completion> done(
        rec.done.begin(),
        rec.done.begin() + static_cast<std::ptrdiff_t>(
                               std::min(seen, rec.done.size())));
    run.outcome = perfbench::matchCompletions(due, ids, done,
                                              kServeLimitMs * 1e-3);
    run.outcome.duplicates += seen - done.size();
    return run;
}

/** Fail @p rep unless the open loop completed every id once. */
void
checkOpenLoop(Report &rep, const OpenLoopRun &run)
{
    const auto &o = run.outcome;
    if (run.shed)
        rep.fail(std::to_string(run.shed) + " requests shed");
    if (!o.exactlyOnce())
        rep.fail("completions not exactly once: " +
                 std::to_string(o.missing) + " missing, " +
                 std::to_string(o.duplicates) + " duplicate, " +
                 std::to_string(o.unknown) + " unknown");
}

Report
runServe(const Args &args)
{
    Report rep;
    const size_t capacity =
        static_cast<size_t>(kServeRate * args.seconds) +
        kServeWarmRequests + 1024;

    std::vector<double> setups;
    std::optional<ServeRig> built;
    for (size_t r = 0; r < kSetupReps; ++r) {
        built.reset();
        setups.push_back(
            timeIt([&] { built.emplace(buildServeRig(capacity)); }));
    }
    ServeRig &rig = *built;

    const OpenLoopRun run =
        openLoop(rig, args.seed, args.seconds, false);
    checkOpenLoop(rep, run);
    const auto &o = run.outcome;
    const size_t ok = o.latencies.size() - o.late;
    rep.attempted = run.arrivals;
    rep.failed = run.arrivals - ok;

    std::vector<double> lateness = run.lateness;
    const perfbench::Percentile late99 =
        perfbench::percentile(lateness, 99);
    std::printf("# open loop: %zu Poisson arrivals at %.0f/s, 50/50 "
                "DeiT-Tiny@90%%/95%% end to end, 1 ViTCoD worker, "
                "continuous policy, no pacing, no admission control\n",
                run.arrivals, kServeRate);
    std::printf("# latency runs from due time to the completion "
                "callback; limit %g ms: %zu late, %zu shed; generator "
                "lateness p99 %.4f ms\n",
                kServeLimitMs, o.late, run.shed, late99.value * 1e3);
    addEndToEnd(rep, "request", perfbench::median(setups), o.latencies,
                static_cast<double>(ok) / run.wall, kServeTailWindow);
    return rep;
}

// ---------------------------------------------- dse (traced run only)

/** The tuning bundle: DeiT-Tiny and DeiT-Small, end to end. */
std::vector<dse::WorkloadSpec>
sweepBundle()
{
    return {{"DeiT-Tiny", kSparsity, true, true, 1.0},
            {"DeiT-Small", kSparsity, true, true, 1.0}};
}

/** A 1-thread Explorer of the pipelined model over the default space. */
std::unique_ptr<dse::Explorer>
buildExplorer()
{
    dse::ExplorerConfig ec;
    ec.threads = 1;
    ec.simMode = sim::SimMode::Pipelined;
    return std::make_unique<dse::Explorer>(
        sweepBundle(), dse::HwConfigSpace::defaultSpace(), ec);
}

/** The stored frontier digest; exits (no result) when unreadable. */
std::string
storedDigest(const Args &args)
{
    std::string d;
    if (!perfbench::readDigestFile(args.digestFile, d)) {
        std::fprintf(stderr, "perfbench_runner: cannot read digest %s\n",
                     args.digestFile.c_str());
        std::exit(2);
    }
    return d;
}

/** The digest of @p res's frontier, as stored. */
std::string
digestOf(const dse::DseResult &res)
{
    return perfbench::hexDigest(perfbench::frontierDigest(res.frontier));
}

// ------------------------------------------------------ traced replay

/** One replayed kernel call with its shape-derived work. */
struct ReplayRow
{
    const char *name;
    double seconds; //!< median per call
    double flops;   //!< 2 * MACs from shapes (0 = memory bound)
    double bytes;   //!< compulsory bytes from shapes
};

void
printRow(const ReplayRow &r)
{
    std::printf("# replay %-22s %9.4f ms  %8.2f GFLOP/s  %8.2f GB/s "
                "(work from shapes: %.3g FLOP, %.3g B)\n",
                r.name, r.seconds * 1e3,
                r.flops / r.seconds * 1e-9, r.bytes / r.seconds * 1e-9,
                r.flops, r.bytes);
}

/**
 * Per-head fused sparse attention of @p plan's layer 0 through the
 * schedule layouts, single-threaded: seconds, FLOPs (SDDMM + SpMM,
 * 2 per MAC) and compulsory bytes (Q, K, V, output and the CSR
 * index) per head, averaged over the layer's heads.
 */
ReplayRow
replayAttention(const char *name, const KernelEngine &eng,
                const core::ModelPlan &plan,
                const core::schedule::ModelSchedule &sched, Rng &rng,
                size_t reps)
{
    const core::schedule::LayerSchedule &ls = sched.layers[0];
    const size_t n = ls.shape.tokens;
    const size_t dk = ls.shape.headDim;
    const auto scale =
        static_cast<float>(1.0 / std::sqrt(static_cast<double>(dk)));
    const Matrix q = Matrix::randomNormal(n, dk, rng);
    const Matrix k = Matrix::randomNormal(n, dk, rng);
    const Matrix v = Matrix::randomNormal(n, dk, rng);
    Matrix out;
    ReplayRow row{name, 0, 0, 0};
    for (size_t h = 0; h < ls.heads.size(); ++h) {
        const auto &hs = ls.heads[h];
        const auto &mask = plan.planOf(0, h).mask;
        const linalg::engine::MaskLayoutView view{
            mask.rows(),         mask.cols(),          &hs.layout.rowPtr,
            &hs.layout.colIdx,   &hs.layout.colPtr,    &hs.layout.rowIdx,
            hs.layout.useCsc};
        row.seconds += medianSeconds(reps, [&] {
            eng.sparseAttentionInto(q, k, v, mask, view, scale, out);
        });
        const auto nnz = static_cast<double>(hs.maskNnz());
        row.flops += 4.0 * nnz * static_cast<double>(dk);
        row.bytes += 4.0 * (4.0 * static_cast<double>(n * dk) + nnz +
                            static_cast<double>(n + 1));
    }
    const double heads = static_cast<double>(ls.heads.size());
    row.seconds /= heads;
    row.flops /= heads;
    row.bytes /= heads;
    printRow(row);
    return row;
}

Report
runTraced(const Args &args)
{
    Report rep;
    const model::VitModelConfig m = model::modelByName(kModel);
    const model::StageConfig &st = m.stages[0];
    const size_t n = st.tokens, d = st.embedDim,
                 hid = st.embedDim * st.mlpRatio;
    Rng rng(args.seed);
    const size_t reps = 60;

    std::printf("# traced replay: every span below is timed in this "
                "runner around one public call; MACs and bytes are "
                "computed from shapes\n");
    // core + core/schedule ------------------------------------------
    core::ModelPlan plan90, plan95;
    const double planS = timeIt([&] {
        plan90 = core::buildModelPlan(
            m, core::makePipelineConfig(kSparsity, false));
    });
    plan95 = core::buildModelPlan(
        m, core::makePipelineConfig(kSparsityHigh, false));
    rep.add("core.plan_build_s", planS, "s");
    const core::schedule::ScheduleBuilder layoutBuilder;
    core::schedule::ModelSchedule sched90, sched95;
    rep.add("schedule.build_ms", 1e3 * medianSeconds(5, [&] {
                sched90 = layoutBuilder.build(plan90, false);
            }),
            "ms");
    sched95 = layoutBuilder.build(plan95, false);

    // linalg/engine: one DeiT-Tiny layer's calls ---------------------
    const KernelEngine eng1(tierConfig(KernelTier::Optimized));
    const core::BlockWeights w = core::BlockWeights::random(st, rng);
    const Matrix x = Matrix::randomNormal(n, d, rng);
    Matrix norm, q, k, v, proj, h1, h1Copy, out;
    const auto gemmRow = [&](const char *name, const Matrix &a,
                             const Matrix &b, Matrix &c) {
        const double s =
            medianSeconds(reps, [&] { eng1.gemmInto(a, b, c); });
        const double macs =
            static_cast<double>(a.rows() * a.cols() * b.cols());
        const ReplayRow row{
            name, s, 2 * macs,
            4.0 * static_cast<double>(a.size() + b.size() +
                                      a.rows() * b.cols())};
        printRow(row);
        return row;
    };
    const ReplayRow ln{"engine.layernorm", medianSeconds(reps * 4, [&] {
                     linalg::layerNormRowsInto(x, w.ln1Gamma, w.ln1Beta,
                                               norm);
                 }),
                 0, 8.0 * n * d};
    printRow(ln);
    // Q, K and V are three separate GEMMs in the executor.
    const double qkvMacs = 3.0 * n * d * w.wq.cols();
    const ReplayRow qkv3 = {
        "engine.gemm_qkv", medianSeconds(reps, [&] {
            eng1.gemmInto(norm, w.wq, q);
            eng1.gemmInto(norm, w.wk, k);
            eng1.gemmInto(norm, w.wv, v);
        }),
        2 * qkvMacs,
        4.0 * 3 * (norm.size() + w.wq.size() + n * w.wq.cols())};
    printRow(qkv3);
    const ReplayRow prj = gemmRow("engine.gemm_proj", q, w.wo, proj);
    const ReplayRow fc1 = gemmRow("engine.gemm_fc1", norm, w.fc1, h1);
    h1Copy = h1;
    std::vector<double> geluT;
    for (size_t i = 0; i < reps; ++i) {
        h1 = h1Copy; // GELU is in place: restore the FC1 output
        geluT.push_back(timeIt([&] { linalg::geluInPlace(h1); }));
    }
    const ReplayRow gelu{"engine.gelu", perfbench::median(geluT), 0,
                         8.0 * n * hid};
    printRow(gelu);
    const ReplayRow fc2 = gemmRow("engine.gemm_fc2", h1, w.fc2, out);

    const ReplayRow attn = replayAttention("engine.attn_head@90%", eng1,
                                           plan90, sched90, rng, reps * 4);
    const ReplayRow attn95 = replayAttention(
        "engine.attn_head@95%", eng1, plan95, sched95, rng, reps * 4);
    const double attnS = attn.seconds;

    const double gemmS = qkv3.seconds + prj.seconds + fc1.seconds +
                         fc2.seconds;
    const double gemmFlops =
        qkv3.flops + prj.flops + fc1.flops + fc2.flops;
    rep.add("engine.gemm_qkv_ms", qkv3.seconds * 1e3, "ms");
    rep.add("engine.gemm_proj_ms", prj.seconds * 1e3, "ms");
    rep.add("engine.gemm_fc1_ms", fc1.seconds * 1e3, "ms");
    rep.add("engine.gemm_fc2_ms", fc2.seconds * 1e3, "ms");
    rep.add("engine.gemm_gflops", gemmFlops / gemmS * 1e-9, "GFLOP/s");
    rep.add("engine.gelu_ms", gelu.seconds * 1e3, "ms");
    rep.add("engine.layernorm_ms", ln.seconds * 1e3, "ms");
    rep.add("engine.attn_head_ms", attnS * 1e3, "ms");
    rep.add("engine.attn_gflops", attn.flops / attnS * 1e-9, "GFLOP/s");
    rep.add("engine.attn_head_s95_ms", attn95.seconds * 1e3, "ms");

    // core/model_exec + obs: traced vs untraced forwards, interleaved.
    VitRig rig = buildVitRig(kSparsity, args.seed, 1, 0);
    std::vector<Matrix> first = rig.run();
    std::vector<double> plainT, tracedT;
    ExecTrace tr;
    double embedS = 0, qkvS = 0, attnPhaseS = 0, projS = 0, mlpS = 0,
           clsS = 0, totalS = 0, macs = 0;
    const double fwdBudget = 0.35 * args.seconds;
    const auto fwdStart = Clock::now();
    while (plainT.size() < 6 || secondsSince(fwdStart) < fwdBudget) {
        std::vector<Matrix> outPlain, outTraced;
        plainT.push_back(timeIt([&] { outPlain = rig.run(); }));
        obs::TraceSession::instance().start();
        tracedT.push_back(timeIt([&] { outTraced = rig.run(&tr); }));
        obs::TraceSession::instance().stop();
        rep.attempted += 2;
        if (!bitwiseEqual(outPlain, first) ||
            !bitwiseEqual(outTraced, first))
            rep.failed += 1;
        embedS += tr.patchEmbedSeconds;
        clsS += tr.classifierSeconds;
        totalS += tr.totalSeconds;
        macs += static_cast<double>(tr.totalMacs);
        for (const auto &lt : tr.layers) {
            qkvS += lt.qkvSeconds;
            attnPhaseS += lt.attnSeconds;
            projS += lt.projSeconds;
            mlpS += lt.mlpSeconds;
        }
    }
    if (rep.failed)
        rep.fail(std::to_string(rep.failed) +
                 " traced or untraced forwards differ bitwise");
    if (!matchesReference(rig, first)) {
        rep.fail("forward logits exceed the ulp budget");
        ++rep.failed;
    }
    const double plainP50 = perfbench::median(plainT);
    const double tracedP50 = perfbench::median(tracedT);
    rep.add("model_exec.embed_share", embedS / totalS, "frac");
    rep.add("model_exec.qkv_share", qkvS / totalS, "frac");
    rep.add("model_exec.attn_share", attnPhaseS / totalS, "frac");
    rep.add("model_exec.proj_share", projS / totalS, "frac");
    rep.add("model_exec.mlp_share", mlpS / totalS, "frac");
    rep.add("model_exec.cls_share", clsS / totalS, "frac");
    std::printf("# model_exec shares are ExecTrace phase sums over %zu "
                "traced forwards; unattributed (LN1, head permutes) "
                "%.4f\n",
                tracedT.size(),
                1 - (embedS + qkvS + attnPhaseS + projS + mlpS + clsS) /
                        totalS);
    rep.add("model_exec.gmacs_per_s", macs / totalS * 1e-9, "GMAC/s");
    rep.add("obs.trace_overhead_frac", tracedP50 / plainP50 - 1, "frac");
    std::printf("# obs: traced forward p50 %.3f ms vs untraced %.3f ms "
                "(ExecTrace + TraceSession on)\n",
                tracedP50 * 1e3, plainP50 * 1e3);

    // Replay coverage: one layer's replayed calls against a layer of
    // the measured (untraced) forward.
    const double layers = static_cast<double>(m.totalLayers());
    const double replaySum = 2 * ln.seconds + qkv3.seconds +
                             static_cast<double>(st.heads) * attnS +
                             prj.seconds + fc1.seconds + gelu.seconds +
                             fc2.seconds;
    const double measuredLayer =
        (plainP50 - (embedS + clsS) / static_cast<double>(tracedT.size())) /
        layers;
    rep.add("replay.layer_sum_ms", replaySum * 1e3, "ms");
    rep.add("replay.layer_measured_ms", measuredLayer * 1e3, "ms");
    rep.add("replay.coverage_ratio", replaySum / measuredLayer, "ratio");
    std::printf("# replay coverage: summed per-layer replay %.3f ms / "
                "measured per-layer forward %.3f ms (untraced p50 %.3f "
                "ms minus embed+classifier, over %.0f layers) = %.3f\n",
                replaySum * 1e3, measuredLayer * 1e3, plainP50 * 1e3,
                layers, replaySum / measuredLayer);

    // accel + sim: price the DeiT-Tiny end-to-end schedule ------------
    const accel::ViTCoDAccelerator acc;
    core::schedule::BuilderConfig bc;
    bc.hw = accel::scheduleParams(acc.config());
    bc.buildLayouts = false;
    const core::schedule::ModelSchedule e2e =
        core::schedule::ScheduleBuilder(bc).build(plan90, true);
    accel::RunStats analytic, piped;
    rep.add("accel.price_analytic_us", 1e6 * medianSeconds(200, [&] {
                analytic = acc.runSchedule(e2e, sim::SimMode::Analytic);
            }),
            "us");
    const double pipedS = medianSeconds(5, [&] {
        piped = acc.runSchedule(e2e, sim::SimMode::Pipelined);
    });
    rep.add("accel.price_pipelined_ms", pipedS * 1e3, "ms");
    rep.add("sim.events_per_s",
            static_cast<double>(piped.pipeline.events) / pipedS,
            "events/s");
    rep.add("sim.cycles", static_cast<double>(piped.cycles), "cycles");
    rep.add("sim.stall_cycles",
            static_cast<double>(piped.pipeline.stallCycles()), "cycles");
    if (piped.cycles < analytic.cycles)
        rep.fail("pipelined cycles below the analytic model's");

    // dse: cold sweep on a fresh explorer -----------------------------
    const std::string want = storedDigest(args);
    const std::unique_ptr<dse::Explorer> ex = buildExplorer();
    dse::DseResult cold;
    rep.add("dse.cold_sweep_ms",
            1e3 * timeIt([&] { cold = ex->exhaustive(); }), "ms");
    rep.add("dse.frontier_points",
            static_cast<double>(cold.frontier.points().size()), "count");
    ++rep.attempted;
    if (digestOf(cold) != want) {
        ++rep.failed;
        rep.fail("frontier digest " + digestOf(cold) + " != stored " +
                 want);
    }

    // ThreadPool + batched executor -----------------------------------
    VitRig pooled = buildVitRig(kSparsity, args.seed, kBatch,
                                 batchPoolThreads());
    ThreadPool &pool = *pooled.pool;
    // One empty chunk per pool thread plus one for the caller.
    rep.add("engine.parallel_for_us", 1e6 * medianSeconds(2000, [&] {
                pool.parallelFor(0, pool.threads() + 1, 1,
                                 [](size_t, size_t) {});
            }),
            "us");
    pooled.run(); // warm
    const auto before = pooled.engine->stats();
    pooled.exec->forward(pooled.inputs[0]);
    const auto one = pooled.engine->stats() - before;
    const double batchS = medianSeconds(3, [&] { pooled.run(); });
    const auto all = pooled.engine->stats() - before;
    rep.add("engine.parallel_launches_per_fwd",
            static_cast<double>(one.parallelLaunches), "count");
    rep.add("engine.structure_misses",
            static_cast<double>(all.structureMisses), "count");
    rep.add("model_exec.batch_per_sample_ms",
            batchS / static_cast<double>(kBatch) * 1e3, "ms");
    const size_t growths =
        rig.exec->arena().growths() + pooled.exec->arena().growths();
    rep.add("model_exec.arena_growths", static_cast<double>(growths),
            "count");
    if (growths)
        rep.fail("activation arena grew");

    // serve + load generator ------------------------------------------
    const double serveSeconds = std::max(1.0, 0.15 * args.seconds);
    ServeRig srv = buildServeRig(
        static_cast<size_t>(kServeRate * serveSeconds) + 1024);
    const OpenLoopRun run =
        openLoop(srv, args.seed, serveSeconds, true);
    checkOpenLoop(rep, run);
    rep.attempted += run.arrivals;
    rep.failed += run.arrivals - run.outcome.latencies.size();
    const ServeRecorder &rec = *srv.rec;
    const size_t seen = std::min(rec.count.load(), rec.done.size());
    const std::vector<double> queue(rec.queueSeconds.begin(),
                                    rec.queueSeconds.begin() +
                                        static_cast<std::ptrdiff_t>(seen));
    const std::vector<double> exec(rec.execSeconds.begin(),
                                   rec.execSeconds.begin() +
                                       static_cast<std::ptrdiff_t>(seen));
    const serve::StatsSnapshot snap = srv.server->snapshot();
    uint64_t switches = 0;
    for (const auto &b : snap.backends)
        switches += b.planSwitches;
    std::vector<double> lateness = run.lateness;
    rep.add("serve.submit_us",
            1e6 * perfbench::median(run.submitSeconds), "us");
    rep.add("serve.queue_p50_ms", 1e3 * perfbench::median(queue), "ms");
    rep.add("serve.exec_p50_ms", 1e3 * perfbench::median(exec), "ms");
    rep.add("serve.batch_mean", snap.meanBatchSize, "requests");
    rep.add("serve.plan_switches", static_cast<double>(switches),
            "count");
    rep.add("serve.plan_cache_hit_rate",
            srv.server->planCacheStats().hitRate(), "frac");
    rep.add("serve.shed", static_cast<double>(snap.shed), "count");
    rep.add("loadgen.late_p99_ms",
            1e3 * perfbench::percentile(lateness, 99).value, "ms");
    std::printf("# serve counters, serve.shed included, cover warm-up "
                "(%zu requests) and a %.1f s open loop of %zu requests\n",
                kServeWarmRequests, serveSeconds, run.arrivals);
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    printHost(args);
    Report rep;
    if (args.trace)
        rep = runTraced(args);
    else if (args.workload == "vit_batch")
        rep = runBatch(args);
    else
        rep = runServe(args);
    rep.print();
    std::fflush(stdout);
    return 0;
}
