#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

constexpr double kLadder[] = {50,   75,    90,    95,     99,    99.5,
                              99.9, 99.95, 99.99, 99.995, 99.999};

} // namespace

Percentile
percentile(std::vector<double> &samples, double pct)
{
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    auto rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n);
    return {pct, samples[rank - 1], n, n - rank};
}

double
median(std::vector<double> samples)
{
    return percentile(samples, 50).value;
}

Percentile
tailPercentile(std::vector<double> samples)
{
    Percentile best = percentile(samples, kLadder[0]);
    for (double pct : kLadder) {
        const Percentile p = percentile(samples, pct);
        if (p.beyond < kTailBeyond)
            break;
        best = p;
    }
    return best;
}

std::string
describe(const Percentile &p)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p%g of %zu (%zu beyond)%s", p.pct,
                  p.samples, p.beyond,
                  p.beyond < kTailBeyond ? " UNSUPPORTED" : "");
    return buf;
}

WindowedTail
windowedTail(const std::vector<double> &samples, size_t window)
{
    WindowedTail out;
    std::vector<double> tails;
    for (size_t b = 0; b + window <= samples.size(); b += window) {
        const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b);
        out.perWindow = tailPercentile(
            std::vector<double>(first, first + static_cast<std::ptrdiff_t>(window)));
        tails.push_back(out.perWindow.value);
    }
    if (tails.empty()) {
        out.perWindow = tailPercentile(samples);
        tails.push_back(out.perWindow.value);
    }
    out.windows = tails.size();
    out.value = median(std::move(tails));
    return out;
}

OpenLoopOutcome
matchCompletions(const std::vector<double> &due,
                 const std::vector<uint64_t> &ids,
                 const std::vector<Completion> &done,
                 double limit_seconds)
{
    // (id, arrival) sorted by id: one binary search per completion.
    std::vector<std::pair<uint64_t, size_t>> byId;
    byId.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i)
        if (ids[i] != 0)
            byId.emplace_back(ids[i], i);
    std::sort(byId.begin(), byId.end());

    std::vector<double> finished(ids.size(), -1.0);
    OpenLoopOutcome out;
    for (const Completion &c : done) {
        const auto it = std::lower_bound(
            byId.begin(), byId.end(), std::make_pair(c.id, size_t{0}));
        if (it == byId.end() || it->first != c.id) {
            ++out.unknown;
            continue;
        }
        double &slot = finished[it->second];
        if (slot >= 0) {
            ++out.duplicates;
            continue;
        }
        slot = c.seconds;
    }

    out.latencies.reserve(byId.size());
    for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] == 0)
            continue;
        if (finished[i] < 0) {
            ++out.missing;
            continue;
        }
        const double lat = finished[i] - due[i];
        out.latencies.push_back(lat);
        if (lat > limit_seconds)
            ++out.late;
    }
    return out;
}

uint64_t
frontierDigest(const vitcod::dse::ParetoFrontier &frontier)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const char *s) {
        for (; *s; ++s) {
            h ^= static_cast<unsigned char>(*s);
            h *= 0x100000001b3ULL;
        }
    };
    char buf[128];
    for (const vitcod::dse::DsePoint &p : frontier.points()) {
        std::snprintf(buf, sizeof(buf), "%zu %.17g %.17g %.17g\n",
                      p.index, p.obj.latencySeconds,
                      p.obj.energyJoules, p.obj.areaMm2);
        mix(buf);
    }
    return h;
}

std::string
hexDigest(uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

bool
readDigestFile(const std::string &path, std::string &digest)
{
    std::ifstream in(path);
    std::string token;
    if (!(in >> token) || token.size() != 16 ||
        token.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    digest = token;
    return true;
}

} // namespace perfbench
