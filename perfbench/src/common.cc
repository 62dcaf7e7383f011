#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

namespace pb
{

double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

void
sleepUntil(double t)
{
    const double d = t - nowSec();
    if (d > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * (v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

void
Result::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

bool
Result::check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     what.c_str());
        if (!opFailed_) {
            opFailed_ = true;
            ++failed_;
        }
    }
    return ok;
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", metrics_[i].value);
        out += (i ? ", \"" : "\"") + metrics_[i].name +
               "\": {\"value\": " + num + ", \"unit\": \"" +
               metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

WorkDir::WorkDir(const std::string &tag)
{
    path_ = ".bench_work/" + tag + "-" + std::to_string(getpid());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    // Leave .bench_work itself only if another run still uses it.
    std::filesystem::remove(".bench_work", ec);
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

} // namespace pb
