/**
 * @file
 * perfctr correctness without a PMU: every test injects a fake SysApi
 * (support/perfctr/perfctr.hh), so the suite is deterministic on any
 * host, including CI runners where perf_event_open is denied.
 *
 * Covered contracts:
 *  - graceful degradation: open failure selects the software backend
 *    and never errors, with the cycles slot still functional;
 *  - multiplex scaling: counts extrapolate by time_enabled /
 *    time_running, exactly scaleCount();
 *  - monotonic clamp: cumulative scaled counts never step backwards,
 *    so PerfRegion deltas are never negative;
 *  - group-width fallback: when a sibling cannot join the leader's
 *    PMU group, every event reopens independently (grouped()==false)
 *    and stays on the hardware backend;
 *  - obs integration: PerfRegion spans nest exactly like obs::Span
 *    scopes and carry the counter deltas as span args.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "support/obs/obs.hh"
#include "support/perfctr/perfctr.hh"

namespace m4ps
{
namespace
{

using perfctr::Backend;
using perfctr::CounterGroup;
using perfctr::Counts;
using perfctr::Event;
using perfctr::EventSpec;
using perfctr::kEventCount;
using perfctr::Sample;
using perfctr::SysApi;

/** RAII: drop the process counter group and any injected API. */
class PerfSandbox
{
  public:
    PerfSandbox() { perfctr::resetForTest(nullptr); }
    ~PerfSandbox()
    {
        perfctr::resetForTest(nullptr);
        obs::setTracing(false);
        obs::clearTrace();
    }
};

/** SysApi whose open always fails (EACCES, as perf_event_paranoid). */
SysApi
denyAllApi()
{
    SysApi api;
    api.open = [](const EventSpec &, int) { return -13; };
    api.read = [](int, uint64_t *, int) { return -13L; };
    api.close = [](int) {};
    return api;
}

/**
 * Fake grouped PMU: all eight events join one group; each leader
 * read() reports raw value (i+1)*base for slot i with the given
 * enabled/running times, advancing base every read so regions see
 * positive deltas.
 */
struct GroupedFake
{
    uint64_t enabled = 1000;
    uint64_t running = 1000;
    uint64_t base = 100;
    uint64_t step = 100;
    int opens = 0;
    int closes = 0;

    SysApi api()
    {
        SysApi a;
        a.open = [this](const EventSpec &, int) { return 100 + opens++; };
        a.read = [this](int fd, uint64_t *buf, int bufWords) -> long {
            EXPECT_EQ(fd, 100) << "grouped mode must read the leader";
            EXPECT_GE(bufWords, 3 + kEventCount);
            buf[0] = kEventCount;
            buf[1] = enabled;
            buf[2] = running;
            for (int i = 0; i < kEventCount; ++i)
                buf[3 + i] = (static_cast<uint64_t>(i) + 1) * base;
            base += step;
            enabled += 1000;
            running += 1000;
            return 3 + kEventCount;
        };
        a.close = [this](int) { ++closes; };
        return a;
    }
};

TEST(Perfctr, OpenFailureFallsBackToSoftware)
{
    PerfSandbox sandbox;
    const SysApi deny = denyAllApi();
    CounterGroup g(deny);
    EXPECT_EQ(g.backend(), Backend::Software);
    EXPECT_FALSE(g.grouped());

    const Sample a = g.read();
    ASSERT_TRUE(a.valid[0]) << "software backend must report cycles";
    for (int i = 1; i < kEventCount; ++i)
        EXPECT_FALSE(a.valid[i]) << perfctr::eventName(i);

    // Busy a little so both the tick source and the clock advance.
    volatile double sink = 0;
    for (int i = 0; i < 200000; ++i)
        sink = sink + i;
    const Sample b = g.read();
    EXPECT_GE(b.count[0], a.count[0]) << "cycles must be monotonic";
    EXPECT_GE(b.timeEnabledNs, a.timeEnabledNs);
    EXPECT_EQ(b.timeEnabledNs, b.timeRunningNs)
        << "software backend never multiplexes";
}

TEST(Perfctr, ScaleCountExtrapolatesMultiplexedWindows)
{
    // Counted half the time -> counts double.
    EXPECT_DOUBLE_EQ(perfctr::scaleCount(100, 2000, 1000), 200.0);
    // Fully counted -> unscaled.
    EXPECT_DOUBLE_EQ(perfctr::scaleCount(100, 1000, 1000), 100.0);
    // Never scheduled: report the raw value rather than divide by 0.
    EXPECT_DOUBLE_EQ(perfctr::scaleCount(7, 0, 0), 7.0);
}

TEST(Perfctr, GroupedReadScalesByEnabledOverRunning)
{
    PerfSandbox sandbox;
    GroupedFake fake;
    fake.enabled = 2000; // 2x extrapolation on the first read
    fake.running = 1000;
    const SysApi api = fake.api();
    CounterGroup g(api);
    EXPECT_EQ(g.backend(), Backend::Hardware);
    EXPECT_TRUE(g.grouped());
    EXPECT_EQ(fake.opens, kEventCount);

    const Sample s = g.read();
    for (int i = 0; i < kEventCount; ++i) {
        ASSERT_TRUE(s.valid[i]) << perfctr::eventName(i);
        EXPECT_DOUBLE_EQ(s.count[i], (i + 1) * 100.0 * 2.0)
            << perfctr::eventName(i);
    }
    EXPECT_EQ(s.timeEnabledNs, 2000u);
    EXPECT_EQ(s.timeRunningNs, 1000u);
}

TEST(Perfctr, ScaledCountsAreClampedMonotonic)
{
    PerfSandbox sandbox;
    GroupedFake fake;
    // First read extrapolates 2x; later reads run fully counted with
    // a small raw advance, so the *scaled* value would step backwards
    // without the clamp.
    fake.enabled = 2000;
    fake.running = 1000;
    fake.step = 1;
    const SysApi api = fake.api();
    CounterGroup g(api);

    const Sample a = g.read();
    fake.running = fake.enabled; // stop multiplexing from now on
    const Sample b = g.read();
    for (int i = 0; i < kEventCount; ++i) {
        ASSERT_TRUE(b.valid[i]);
        EXPECT_GE(b.count[i], a.count[i])
            << perfctr::eventName(i)
            << ": cumulative scaled count stepped backwards";
    }
}

TEST(Perfctr, GroupWidthFailureReopensIndependently)
{
    PerfSandbox sandbox;
    int opens = 0;
    int closes = 0;
    std::vector<uint64_t> value(kEventCount, 0);
    SysApi api;
    // Siblings cannot join a group (narrow PMU): any open with a
    // group leader other than the event's own fd fails with EINVAL.
    api.open = [&](const EventSpec &spec, int groupFd) {
        if (groupFd >= 0 && spec.eventIndex != 0)
            return -22;
        return 200 + spec.eventIndex + (opens++, 0);
    };
    api.read = [&](int fd, uint64_t *buf, int bufWords) -> long {
        EXPECT_GE(bufWords, 3);
        const int idx = fd - 200;
        value[idx] += 10 * (idx + 1);
        buf[0] = value[idx];
        buf[1] = 1000; // fully counted
        buf[2] = 1000;
        return 3;
    };
    api.close = [&](int) { ++closes; };

    CounterGroup g(api);
    EXPECT_EQ(g.backend(), Backend::Hardware);
    EXPECT_FALSE(g.grouped());
    // The leader from the failed group attempt was closed before the
    // independent reopen.
    EXPECT_GE(closes, 1);

    const Sample s = g.read();
    for (int i = 0; i < kEventCount; ++i) {
        ASSERT_TRUE(s.valid[i]) << perfctr::eventName(i);
        EXPECT_DOUBLE_EQ(s.count[i], 10.0 * (i + 1));
    }
}

TEST(Perfctr, RegionDisabledIsInert)
{
    PerfSandbox sandbox;
    ASSERT_FALSE(perfctr::enabled());
    perfctr::PerfRegion region("perf", "noop");
    EXPECT_FALSE(region.active());
    const Counts d = region.stop();
    for (int i = 0; i < kEventCount; ++i)
        EXPECT_FALSE(d.valid[i]);
}

TEST(Perfctr, RegionDeltasNonNegativeOnSoftwareBackend)
{
    PerfSandbox sandbox;
    static const SysApi deny = denyAllApi();
    perfctr::resetForTest(&deny);
    perfctr::setEnabled(true);
    EXPECT_EQ(perfctr::activeBackend(), Backend::Software);
    EXPECT_STREQ(perfctr::activeBackendName(), "software");

    perfctr::PerfRegion region("perf", "soft");
    ASSERT_TRUE(region.active());
    volatile double sink = 0;
    for (int i = 0; i < 200000; ++i)
        sink = sink + i;
    const Counts d = region.stop();
    ASSERT_TRUE(d.has(Event::Cycles));
    EXPECT_GE(d.get(Event::Cycles), 0.0);
    EXPECT_FALSE(d.multiplexed());
    // stop() is idempotent.
    const Counts again = region.stop();
    EXPECT_FALSE(again.has(Event::Cycles));
}

TEST(Perfctr, CountsJsonCarriesBackendAndEvents)
{
    Counts d;
    d.valid[0] = true;
    d.count[0] = 1234;
    d.valid[3] = true;
    d.count[3] = 56;
    d.enabledNs = 2000;
    d.runningNs = 1000;
    const std::string json =
        perfctr::countsJson(d, Backend::Hardware);
    EXPECT_NE(json.find("\"perf_backend\":\"hardware\""),
              std::string::npos);
    EXPECT_NE(json.find("\"hw_cycles\":1234"), std::string::npos);
    EXPECT_NE(json.find("\"hw_l1d_misses\":56"), std::string::npos);
    EXPECT_NE(json.find("\"multiplexed\":true"), std::string::npos);
    EXPECT_EQ(json.find("hw_instructions"), std::string::npos)
        << "invalid slots must not appear";
}

#if M4PS_OBS // trace spans exist only with observability compiled in

/**
 * Regions destruct LIFO, so their trace spans must nest exactly like
 * obs::Span scopes: inner contained in outer, both carrying counter
 * args.
 */
TEST(Perfctr, RegionSpansNestLikeObsSpans)
{
    PerfSandbox sandbox;
    static GroupedFake fake; // static: outlives the process group
    static const SysApi api = fake.api();
    perfctr::resetForTest(&api);
    perfctr::setEnabled(true);
    obs::setTracing(true);
    obs::clearTrace();

    {
        perfctr::PerfRegion outer("perf", "outer");
        obs::Span span("test", "plain-span");
        {
            perfctr::PerfRegion inner("perf", "inner");
            volatile int sink = 0;
            for (int i = 0; i < 1000; ++i)
                sink = sink + i;
        }
    }

    const std::vector<obs::TraceEvent> trace = obs::snapshotTrace();
    const obs::TraceEvent *outer = nullptr;
    const obs::TraceEvent *inner = nullptr;
    const obs::TraceEvent *plain = nullptr;
    for (const obs::TraceEvent &e : trace) {
        if (e.name == "outer")
            outer = &e;
        else if (e.name == "inner")
            inner = &e;
        else if (e.name == "plain-span")
            plain = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(plain, nullptr);

    // Containment: outer ⊇ plain ⊇ inner, all on one thread.
    EXPECT_EQ(outer->tid, inner->tid);
    EXPECT_LE(outer->tsNs, plain->tsNs);
    EXPECT_GE(outer->tsNs + outer->durNs, plain->tsNs + plain->durNs);
    EXPECT_LE(plain->tsNs, inner->tsNs);
    EXPECT_GE(plain->tsNs + plain->durNs, inner->tsNs + inner->durNs);

    // Perf spans carry the hardware deltas as args.
    EXPECT_NE(outer->args.find("\"perf_backend\":\"hardware\""),
              std::string::npos);
    EXPECT_NE(outer->args.find("\"hw_cycles\""), std::string::npos);
    EXPECT_NE(inner->args.find("\"hw_cycles\""), std::string::npos);
    EXPECT_EQ(plain->args.find("perf_backend"), std::string::npos)
        << "ordinary spans must not grow perf args";
}

#endif // M4PS_OBS

} // namespace
} // namespace m4ps
