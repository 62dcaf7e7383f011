/**
 * @file
 * Shared plumbing of the repository benchmark: options, the result
 * line, timing and order statistics, and the correctness ledger.
 *
 * Every workload fills one Result.  The last line m4ps_perfbench prints
 * is Result::json(): {"correct", "attempted", "failed", "metrics"}.
 */

#ifndef M4PS_PERFBENCH_COMMON_HH
#define M4PS_PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pb
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
};

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Monotonic seconds. */
double nowSec();

/** Sleep until the monotonic clock reads @p t (seconds). */
void sleepUntil(double t);

/** splitmix64 step: derive independent seeds from one run seed. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 if empty. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Peak resident set of this process, MB (getrusage). */
double peakRssMb();

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * The run's outcome.  check() records one correctness verdict: a
 * failed check marks the current operation failed (counted once per
 * operation) and is logged to stderr with its reason.
 */
class Result
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** Begin one attempted operation. */
    void beginOp() { ++attempted_; opFailed_ = false; }

    /** Record a check of the current operation; returns @p ok. */
    bool check(bool ok, const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** The final JSON object (one line). */
    std::string json() const;

  private:
    std::vector<Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool opFailed_ = false;
};

/**
 * A scratch directory under the benchmark's working tree, removed
 * with everything in it when the object dies.
 */
class WorkDir
{
  public:
    explicit WorkDir(const std::string &tag);
    ~WorkDir();
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    const std::string &path() const { return path_; }
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/** Read a whole file; empty vector if it cannot be read. */
std::vector<uint8_t> readFile(const std::string &path);

} // namespace pb

#endif // M4PS_PERFBENCH_COMMON_HH
