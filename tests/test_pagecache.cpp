/**
 * @file
 * Page-cache layer tests: the 128-bit content digest (stability,
 * sensitivity to byte order, collision freedom over a workload-shaped
 * corpus), the content-addressed LRU PageCache, and the digest
 * handshake of a small cache-enabled fleet (have/need split, fewer
 * prefetch bytes on the medium).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "arch/endian.hpp"
#include "compiler/driver.hpp"
#include "frontend/codegen.hpp"
#include "runtime/offload.hpp"
#include "runtime/server.hpp"
#include "sim/pagedmemory.hpp"

using namespace nol;
using namespace nol::runtime;

// ---------------------------------------------------------------------------
// PageDigest
// ---------------------------------------------------------------------------

namespace {

std::vector<uint8_t>
patternPage(uint64_t seed)
{
    std::vector<uint8_t> page(sim::kPageSize);
    uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    for (uint64_t i = 0; i < sim::kPageSize; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        page[i] = static_cast<uint8_t>(state >> 33);
    }
    return page;
}

} // namespace

TEST(PageDigest, IdenticalBytesDigestEqually)
{
    std::vector<uint8_t> a = patternPage(7);
    std::vector<uint8_t> b = a; // independent buffer, same content
    EXPECT_EQ(sim::digestPage(a.data()), sim::digestPage(b.data()));
}

TEST(PageDigest, SingleByteFlipChangesDigest)
{
    std::vector<uint8_t> a = patternPage(7);
    std::vector<uint8_t> b = a;
    b[sim::kPageSize / 2] ^= 0x01;
    EXPECT_NE(sim::digestPage(a.data()), sim::digestPage(b.data()));
}

TEST(PageDigest, ZeroPageAndLengthAreDistinguished)
{
    std::vector<uint8_t> zero(sim::kPageSize, 0);
    sim::PageDigest full = sim::digestPage(zero.data());
    sim::PageDigest half = sim::digestBytes(zero.data(), sim::kPageSize / 2);
    EXPECT_NE(full, half);
    EXPECT_FALSE(full == sim::PageDigest{}); // never the all-zero digest
}

// The digest keys on the *byte image*. MemUnifier pins every unified
// page to the mobile ABI's byte order, so equal logical content means
// equal bytes; this test pins the other direction — the same scalars
// stored under different byte orders are different content and must
// not collide into one cache entry.
TEST(PageDigest, ByteOrderOfStoredScalarsMatters)
{
    std::vector<uint8_t> little(sim::kPageSize, 0);
    std::vector<uint8_t> big(sim::kPageSize, 0);
    for (uint64_t i = 0; i + 4 <= sim::kPageSize; i += 4) {
        uint64_t value = 0x01020304u + i;
        arch::storeScalar(little.data() + i, 4, arch::Endianness::Little,
                          value);
        arch::storeScalar(big.data() + i, 4, arch::Endianness::Big, value);
    }
    EXPECT_NE(sim::digestPage(little.data()), sim::digestPage(big.data()));

    // Same scalars, same byte order → same image, same digest.
    std::vector<uint8_t> little2(sim::kPageSize, 0);
    for (uint64_t i = 0; i + 4 <= sim::kPageSize; i += 4) {
        arch::storeScalar(little2.data() + i, 4, arch::Endianness::Little,
                          0x01020304u + i);
    }
    EXPECT_EQ(sim::digestPage(little.data()),
              sim::digestPage(little2.data()));
}

TEST(PageDigest, CollisionFreeOverWorkloadShapedCorpus)
{
    std::set<sim::PageDigest> seen;
    uint64_t corpus = 0;
    auto admit = [&](const std::vector<uint8_t> &page) {
        ++corpus;
        seen.insert(sim::digestPage(page.data()));
    };

    // Pseudo-random pages.
    for (uint64_t seed = 0; seed < 256; ++seed)
        admit(patternPage(seed));

    // Structured pages a real heap produces: near-zero pages with one
    // scalar set, striding counters, repeated small records.
    for (uint64_t i = 0; i < 128; ++i) {
        std::vector<uint8_t> page(sim::kPageSize, 0);
        arch::storeScalar(page.data() + (i * 32) % (sim::kPageSize - 8), 8,
                          arch::Endianness::Little, i + 1);
        admit(page);
    }
    for (uint64_t stride = 1; stride <= 64; ++stride) {
        std::vector<uint8_t> page(sim::kPageSize);
        for (uint64_t i = 0; i < sim::kPageSize; ++i)
            page[i] = static_cast<uint8_t>((i / stride) * stride);
        admit(page);
    }

    EXPECT_EQ(seen.size(), corpus);
}

TEST(PageDigest, MatchesPagedMemoryPageDigest)
{
    sim::PagedMemory mem;
    std::vector<uint8_t> page = patternPage(99);
    mem.installPage(5, page.data());
    EXPECT_EQ(mem.pageDigest(5), sim::digestPage(page.data()));
}

// ---------------------------------------------------------------------------
// PageCache
// ---------------------------------------------------------------------------

TEST(PageCacheUnit, InsertThenLookupReturnsSameBytes)
{
    PageCache cache(4);
    std::vector<uint8_t> page = patternPage(1);
    sim::PageDigest digest = sim::digestPage(page.data());

    EXPECT_FALSE(cache.contains(digest));
    EXPECT_EQ(cache.lookup(digest), nullptr);
    cache.insert(digest, page.data());
    EXPECT_TRUE(cache.contains(digest));
    const uint8_t *bytes = cache.lookup(digest);
    ASSERT_NE(bytes, nullptr);
    EXPECT_EQ(std::memcmp(bytes, page.data(), sim::kPageSize), 0);
    EXPECT_EQ(cache.pages(), 1u);
    EXPECT_EQ(cache.insertedPages(), 1u);
}

TEST(PageCacheUnit, EvictsLeastRecentlyUsedAtCapacity)
{
    PageCache cache(2);
    std::vector<uint8_t> a = patternPage(1), b = patternPage(2),
                         c = patternPage(3);
    sim::PageDigest da = sim::digestPage(a.data());
    sim::PageDigest db = sim::digestPage(b.data());
    sim::PageDigest dc = sim::digestPage(c.data());

    cache.insert(da, a.data());
    cache.insert(db, b.data());
    ASSERT_NE(cache.lookup(da), nullptr); // bump A: B is now LRU
    cache.insert(dc, c.data());

    EXPECT_TRUE(cache.contains(da));
    EXPECT_FALSE(cache.contains(db));
    EXPECT_TRUE(cache.contains(dc));
    EXPECT_EQ(cache.pages(), 2u);
    EXPECT_EQ(cache.evictedPages(), 1u);
}

TEST(PageCacheUnit, ReinsertRefreshesLruInsteadOfDuplicating)
{
    PageCache cache(2);
    std::vector<uint8_t> a = patternPage(1), b = patternPage(2),
                         c = patternPage(3);
    sim::PageDigest da = sim::digestPage(a.data());
    sim::PageDigest db = sim::digestPage(b.data());
    sim::PageDigest dc = sim::digestPage(c.data());

    cache.insert(da, a.data());
    cache.insert(db, b.data());
    cache.insert(da, a.data()); // refresh, not a second copy
    EXPECT_EQ(cache.pages(), 2u);
    EXPECT_EQ(cache.insertedPages(), 2u);

    cache.insert(dc, c.data()); // B (least recent) goes
    EXPECT_TRUE(cache.contains(da));
    EXPECT_FALSE(cache.contains(db));
}

// A page one session dirties gets a *new* digest: the old entry keeps
// serving sessions that still hold (and re-offer) the old content —
// content addressing needs no cross-session invalidation protocol.
TEST(PageCacheUnit, DirtiedPageCoexistsWithItsOldContent)
{
    PageCache cache(4);
    std::vector<uint8_t> v1 = patternPage(1);
    std::vector<uint8_t> v2 = v1;
    v2[0] ^= 0xff; // one session wrote the page
    sim::PageDigest d1 = sim::digestPage(v1.data());
    sim::PageDigest d2 = sim::digestPage(v2.data());
    ASSERT_NE(d1, d2);

    cache.insert(d1, v1.data());
    cache.insert(d2, v2.data());
    const uint8_t *old_bytes = cache.lookup(d1);
    const uint8_t *new_bytes = cache.lookup(d2);
    ASSERT_NE(old_bytes, nullptr);
    ASSERT_NE(new_bytes, nullptr);
    EXPECT_EQ(std::memcmp(old_bytes, v1.data(), sim::kPageSize), 0);
    EXPECT_EQ(std::memcmp(new_bytes, v2.data(), sim::kPageSize), 0);
}

// ---------------------------------------------------------------------------
// Digest handshake end to end (small cache-enabled fleet)
// ---------------------------------------------------------------------------

namespace {

/**
 * Compute kernel over a malloc'd unified heap buffer: main dirties the
 * buffer before each of the three offloaded calls, so every offload
 * prefetches real pages (same shape as test_fleet's compute case).
 */
const char *kComputeSrc = R"(
double* data;
int N;

double crunch(int rounds) {
    double acc = 0.0;
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < N; i++) {
            data[i] = data[i] * 1.0001 + (double)((i * r) % 17) * 0.01;
            acc += data[i];
        }
    }
    return acc;
}

int main() {
    scanf("%d", &N);
    data = (double*)malloc(sizeof(double) * N);
    for (int i = 0; i < N; i++) data[i] = (double)i * 0.5;
    double total = 0.0;
    for (int turn = 0; turn < 3; turn++) {
        total += crunch(40);
        data[turn] = total;
    }
    printf("total=%.3f first=%.3f\n", total, data[0]);
    return ((int)total) % 97;
}
)";

compiler::CompiledProgram
compileCompute()
{
    auto mod = frontend::compileSource(kComputeSrc, "compute");
    compiler::CompileOptions options;
    options.profilingInput.stdinText = "1500";
    return compiler::compileForOffload(std::move(mod), options);
}

std::vector<FleetClient>
sameBinaryClients(size_t n, bool cache_on)
{
    SystemConfig cfg;
    cfg.network = net::makeWifi80211ac();
    cfg.pageCacheEnabled = cache_on;
    std::vector<FleetClient> clients;
    for (size_t i = 0; i < n; ++i) {
        FleetClient client;
        client.name = "client-" + std::to_string(i);
        client.config = cfg;
        client.input.stdinText = "3000";
        client.startSeconds = static_cast<double>(i) * 0.0005;
        clients.push_back(client);
    }
    return clients;
}

uint64_t
categoryBytes(const FleetReport &fleet, const std::string &category)
{
    uint64_t total = 0;
    for (const FleetClientResult &result : fleet.clients) {
        auto it = result.report.bytesByCategory.find(category);
        if (it != result.report.bytesByCategory.end())
            total += it->second;
    }
    return total;
}

} // namespace

TEST(PageCacheFleet, HaveNeedHandshakeSharesIdenticalPages)
{
    compiler::CompiledProgram prog = compileCompute();

    ServerRuntime server_off(prog);
    FleetReport off = server_off.run(sameBinaryClients(2, false));

    ServerRuntime server_on(prog);
    FleetReport on = server_on.run(sameBinaryClients(2, true));

    // Identical results per client, cache on or off.
    ASSERT_EQ(on.clients.size(), off.clients.size());
    for (size_t i = 0; i < on.clients.size(); ++i) {
        EXPECT_EQ(on.clients[i].report.console,
                  off.clients[i].report.console);
        EXPECT_EQ(on.clients[i].report.exitValue,
                  off.clients[i].report.exitValue);
    }

    // The handshake actually ran and served pages out of the cache.
    uint64_t handshakes = 0, cached = 0, sent = 0;
    for (const FleetClientResult &result : on.clients) {
        handshakes += result.report.digestHandshakes;
        cached += result.report.prefetchPagesCached;
        sent += result.report.prefetchPagesSent;
    }
    EXPECT_GT(handshakes, 0u);
    EXPECT_GT(cached, 0u);
    EXPECT_GT(sent, 0u); // somebody still carries each unique page
    EXPECT_GT(on.cache.lookups, 0u);
    EXPECT_GT(on.cache.hitPages + on.cache.coalescedPages, 0u);
    EXPECT_GT(on.cache.insertedPages, 0u);
    EXPECT_GT(categoryBytes(on, "digest"), 0u);

    // Shared pages cross the medium once, not once per client.
    EXPECT_LT(categoryBytes(on, "prefetch"), categoryBytes(off, "prefetch"));
    EXPECT_LT(on.mediumBytes, off.mediumBytes);

    // The cache-off fleet never speaks the digest protocol.
    EXPECT_EQ(categoryBytes(off, "digest"), 0u);
    EXPECT_EQ(off.cache.lookups, 0u);
    for (const FleetClientResult &result : off.clients) {
        EXPECT_EQ(result.report.digestHandshakes, 0u);
        EXPECT_EQ(result.report.prefetchPagesCached, 0u);
    }
}

TEST(PageCacheFleet, SoloClientNeverActivatesTheCache)
{
    compiler::CompiledProgram prog = compileCompute();
    ServerRuntime server(prog);
    // The client opts in, but a 1-client fleet has nobody to share
    // with: its prefetch pages are pushed directly.
    FleetReport fleet = server.run(sameBinaryClients(1, true));
    EXPECT_FALSE(server.cacheActive());
    EXPECT_EQ(fleet.cache.lookups, 0u);
    EXPECT_EQ(fleet.clients.at(0).report.digestHandshakes, 0u);
    EXPECT_EQ(categoryBytes(fleet, "digest"), 0u);
    EXPECT_GT(fleet.clients.at(0).report.prefetchPagesSent, 0u);
}
