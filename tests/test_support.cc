/**
 * @file
 * Unit tests for the support module: RNG, tables, error discipline,
 * and the slice-by-8 CRC-32 against a bitwise oracle.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "service/checkpoint.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/serialize.hh"
#include "support/table.hh"

namespace m4ps
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    std::set<int64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.uniformInt(-3, 5);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 5);
        seen.insert(v);
    }
    // All nine values should appear in 10k draws.
    EXPECT_EQ(seen.size(), 9u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(TextTable, AlignsColumns)
{
    TextTable t("Title");
    t.header({"a", "long-header", "c"});
    t.row({"xxxx", "y", "z"});
    const std::string s = t.str();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("long-header"), std::string::npos);
    EXPECT_NE(s.find("xxxx"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.0, 1), "3.0");
    EXPECT_EQ(TextTable::pct(0.1234, 2), "12.34%");
    EXPECT_EQ(TextTable::pct(0.004, 1), "0.4%");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(M4PS_PANIC("boom ", 42), "panic: boom 42");
}

TEST(LoggingDeathTest, FatalExitsWithOne)
{
    EXPECT_EXIT(M4PS_FATAL("bad config"),
                ::testing::ExitedWithCode(1), "fatal: bad config");
}

TEST(LoggingDeathTest, AssertFiresOnFalse)
{
    EXPECT_DEATH(M4PS_ASSERT(1 == 2, "math broke"),
                 "assertion '1 == 2' failed");
}

TEST(Logging, AssertPassesOnTrue)
{
    M4PS_ASSERT(2 + 2 == 4);
    SUCCEED();
}

/** Bitwise reflected CRC-32 (0xEDB88320): the oracle. */
uint32_t
bitwiseCrc32(const uint8_t *data, size_t n)
{
    uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < n; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    return crc ^ 0xffffffffu;
}

std::vector<uint8_t>
seededBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

TEST(Crc32, KnownAnswers)
{
    const std::string check = "123456789";
    EXPECT_EQ(support::crc32(
                  reinterpret_cast<const uint8_t *>(check.data()),
                  check.size()),
              0xcbf43926u);
    EXPECT_EQ(support::crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndOffset)
{
    const auto buf = seededBytes(320, 5);
    for (size_t off = 0; off < 8; ++off) {
        for (size_t len = 0; len <= 300; ++len) {
            ASSERT_EQ(support::crc32(buf.data() + off, len),
                      bitwiseCrc32(buf.data() + off, len))
                << "offset " << off << " length " << len;
        }
    }
    // A checkpoint-sized run (a CIF encoder state is about 667 KB).
    const auto big = seededBytes(667 * 1024 + 3, 6);
    EXPECT_EQ(support::crc32(big.data(), big.size()),
              bitwiseCrc32(big.data(), big.size()));
}

TEST(Crc32, OracleSidecarLoadsAndCorruptionIsRejected)
{
    // A checkpoint written with the bitwise CRC must still load: the
    // sidecar format did not change with the table-driven CRC.
    const std::string path =
        testing::TempDir() + "m4ps_crc_oracle_ckpt.bin";
    const auto state = seededBytes(4099, 8);
    support::StateWriter sw;
    sw.u32(0x4d34434b); // "M4CK"
    sw.u32(1);
    sw.u64(77);
    sw.i32(5);
    sw.bytes(state.data(), state.size());
    sw.u32(bitwiseCrc32(state.data(), state.size()));
    auto write = [&path](const std::vector<uint8_t> &bytes) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    };
    write(sw.buffer());

    service::Checkpoint back;
    ASSERT_TRUE(service::loadCheckpoint(path, 77, &back));
    EXPECT_EQ(back.nextFrame, 5);
    EXPECT_EQ(back.state, state);

    // A fresh save of the same checkpoint is byte-identical.
    service::saveCheckpoint(path, back);
    {
        std::ifstream f(path, std::ios::binary);
        const std::vector<uint8_t> saved{
            std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
        EXPECT_EQ(saved, sw.buffer());
    }

    // One flipped state byte fails the CRC.
    std::vector<uint8_t> bad = sw.buffer();
    bad[bad.size() - 4 - state.size() / 2] ^= 0x10;
    write(bad);
    EXPECT_FALSE(service::loadCheckpoint(path, 77, &back));
    std::remove(path.c_str());
}

} // namespace
} // namespace m4ps
