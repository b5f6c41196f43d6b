#include "runtime/comm.hpp"

#include "compress/lz.hpp"
#include "net/medium.hpp"
#include "sim/costmodel.hpp"

namespace nol::runtime {

namespace {

/** Per-page wire header (page number + length). */
constexpr uint64_t kPageHeader = 16;

/** Compression cost: ~4 bytes per cost unit on the compressor. */
uint64_t
compressCost(uint64_t bytes)
{
    return bytes / 4;
}

/** Decompression is ~4x cheaper (paper Sec. 4). */
uint64_t
decompressCost(uint64_t bytes)
{
    return bytes / 16;
}

} // namespace

double
retryBackoffNs(uint32_t retry)
{
    double delay = kBaseBackoffNs;
    for (uint32_t i = 0; i < retry; ++i) {
        delay *= kBackoffMultiplier;
        if (delay >= kMaxBackoffNs)
            return kMaxBackoffNs;
    }
    return delay < kMaxBackoffNs ? delay : kMaxBackoffNs;
}

double
retryTimeoutNs(double expected_ns)
{
    return expected_ns * kTimeoutMultiplier + kTimeoutGraceNs;
}

const char *
commCategoryName(CommCategory category)
{
    switch (category) {
      case CommCategory::Control: return "control";
      case CommCategory::Prefetch: return "prefetch";
      case CommCategory::Demand: return "copy-on-demand";
      case CommCategory::WriteBack: return "write-back";
      case CommCategory::RemoteIo: return "remote-io";
      case CommCategory::Digest: return "digest";
    }
    return "?";
}

CommManager::CommManager(sim::SimMachine &mobile, sim::SimMachine &server,
                         net::SimNetwork &network, bool compression_enabled)
    : mobile_(mobile), server_(server), network_(network),
      compression_(compression_enabled)
{
}

void
CommManager::syncClocks()
{
    double t = std::max(mobile_.nowNs(), server_.nowNs());
    mobile_.syncTo(t, sim::PowerState::Waiting);
    server_.syncTo(t, sim::PowerState::Idle);
}

net::AttemptPlan
CommManager::timedAttempt(uint64_t bytes, bool unscaled)
{
    // The SimNetwork decides the attempt's fate and link parameters
    // (its RNG stream must not depend on fleet interleaving). In fleet
    // mode the SharedMedium then serializes the bytes against every
    // other session's flows; callers synced the clocks, so mobile time
    // is the flow's start on the shared timeline. Only delivered or
    // dropped attempts occupy the medium.
    net::AttemptPlan plan = network_.planAttempt(bytes, unscaled);
    if (medium_ != nullptr &&
        plan.outcome != net::TransferOutcome::LinkDown) {
        plan.ns = medium_->transfer(*strand_, mobile_.nowNs(), bytes,
                                    plan.bitsPerSecond, plan.latencyNs,
                                    plan.ns);
    }
    return plan;
}

double
CommManager::transferWithRetry(net::Direction direction, uint64_t bytes,
                               CommCategory category)
{
    syncClocks();
    // Remote-I/O control messages were never scaled down with the
    // workload, so they see the true link rate.
    bool unscaled = category == CommCategory::RemoteIo;
    sim::PowerState radio_state =
        direction == net::Direction::MobileToServer
            ? sim::PowerState::Transmit
            : sim::PowerState::Receive;
    double expected_ns = network_.transferTimeNs(bytes, unscaled);
    CommTotals &totals = totals_[category];
    double total_ns = 0;
    bool link_down = false;
    for (uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
        if (attempt > 0) {
            double backoff = retryBackoffNs(attempt - 1);
            mobile_.advanceTime(backoff, sim::PowerState::Waiting);
            server_.advanceTime(backoff, sim::PowerState::Idle);
            ++totals.retries;
            totals.retrySeconds += backoff * 1e-9;
            total_ns += backoff;
        }
        net::AttemptPlan result = timedAttempt(bytes, unscaled);
        if (result.outcome == net::TransferOutcome::Delivered) {
            mobile_.advanceTime(result.ns, radio_state);
            server_.advanceTime(result.ns, sim::PowerState::Idle);
            return total_ns + result.ns;
        }
        link_down = result.outcome == net::TransferOutcome::LinkDown;
        if (result.outcome == net::TransferOutcome::Dropped) {
            // The radio burned the whole send before the loss.
            mobile_.advanceTime(result.ns, radio_state);
            server_.advanceTime(result.ns, sim::PowerState::Idle);
            totals.retryWireBytes += bytes;
            totals.retrySeconds += result.ns * 1e-9;
            total_ns += result.ns;
        }
        // Wait out the acknowledgement timeout before retrying.
        double timeout = retryTimeoutNs(expected_ns);
        mobile_.advanceTime(timeout, sim::PowerState::Waiting);
        server_.advanceTime(timeout, sim::PowerState::Idle);
        totals.retrySeconds += timeout * 1e-9;
        total_ns += timeout;
    }
    ++totals.failures;
    throw CommFailure{category, link_down};
}

void
CommManager::account(CommCategory category, uint64_t wire, uint64_t raw,
                     double ns)
{
    CommTotals &totals = totals_[category];
    ++totals.messages;
    totals.wireBytes += wire;
    totals.rawBytes += raw;
    totals.seconds += ns * 1e-9;
}

void
CommManager::sendToServer(uint64_t bytes, CommCategory category)
{
    double ns =
        transferWithRetry(net::Direction::MobileToServer, bytes, category);
    account(category, bytes, bytes, ns);
}

void
CommManager::sendToMobile(uint64_t raw_bytes, CommCategory category,
                          bool compressible,
                          const std::vector<uint8_t> *payload)
{
    uint64_t wire = raw_bytes;
    if (compression_ && compressible && raw_bytes > 0) {
        if (payload != nullptr) {
            wire = compress::lzCompress(*payload).size();
        } else {
            wire = raw_bytes / 2; // conservative default ratio
        }
        compress_units_server_ += compressCost(raw_bytes);
        server_.advanceCompute(compressCost(raw_bytes));
    }
    double ns =
        transferWithRetry(net::Direction::ServerToMobile, wire, category);
    if (compression_ && compressible && raw_bytes > 0) {
        decompress_units_mobile_ += decompressCost(raw_bytes);
        mobile_.advanceCompute(decompressCost(raw_bytes));
    }
    account(category, wire, raw_bytes, ns);
}

void
CommManager::pushPagesToServer(const std::vector<uint64_t> &pages,
                               CommCategory category)
{
    if (pages.empty())
        return;
    // Batched: one message carries every page (the paper's batching
    // amortizes per-message overheads).
    uint64_t bytes = pages.size() * (sim::kPageSize + kPageHeader);
    double ns =
        transferWithRetry(net::Direction::MobileToServer, bytes, category);
    account(category, bytes, bytes, ns);
    for (uint64_t page_num : pages) {
        server_.mem().installPage(page_num,
                                  mobile_.mem().pageData(page_num));
        mobile_.mem().clearDirty(page_num);
    }
}

void
CommManager::sendDigestsToServer(uint64_t page_count)
{
    // 16-byte batch header, then per page: 8-byte page number plus the
    // 16-byte content digest.
    sendToServer(16 + page_count * 24, CommCategory::Digest);
}

void
CommManager::sendHaveNeedToMobile(uint64_t page_count)
{
    // 16-byte header plus a have/need bitmap, one bit per offered page.
    sendToMobile(16 + (page_count + 7) / 8, CommCategory::Digest);
}

void
CommManager::fetchPageToServer(uint64_t page_num)
{
    ++demand_faults_;
    // Request (server→mobile, small) then the page (mobile→server).
    double ns1 = transferWithRetry(net::Direction::ServerToMobile, 64,
                                   CommCategory::Demand);
    account(CommCategory::Demand, 64, 64, ns1);
    double ns2 = transferWithRetry(net::Direction::MobileToServer,
                                   sim::kPageSize + kPageHeader,
                                   CommCategory::Demand);
    account(CommCategory::Demand, sim::kPageSize + kPageHeader,
            sim::kPageSize + kPageHeader, ns2);
    server_.mem().installPage(page_num, mobile_.mem().pageData(page_num));
}

uint64_t
CommManager::writeBackDirtyPages()
{
    std::vector<uint64_t> dirty = server_.mem().dirtyPages();
    if (dirty.empty()) {
        sendToMobile(64, CommCategory::Control); // bare termination signal
        return 0;
    }

    // Serialize page numbers + contents so the compressor sees real
    // bytes (ratio depends on actual data, like the paper's runtime).
    std::vector<uint8_t> payload;
    payload.reserve(dirty.size() * (sim::kPageSize + kPageHeader));
    for (uint64_t page_num : dirty) {
        for (int b = 0; b < 8; ++b)
            payload.push_back(static_cast<uint8_t>(page_num >> (8 * b)));
        const uint8_t *data = server_.mem().pageData(page_num);
        payload.insert(payload.end(), data, data + sim::kPageSize);
    }
    sendToMobile(payload.size(), CommCategory::WriteBack,
                 /*compressible=*/true, &payload);

    for (uint64_t page_num : dirty) {
        mobile_.mem().installPage(page_num,
                                  server_.mem().pageData(page_num));
    }
    return payload.size();
}

double
CommManager::secondsIn(CommCategory category) const
{
    auto it = totals_.find(category);
    return it == totals_.end() ? 0.0 : it->second.seconds;
}

uint64_t
CommManager::bytesIn(CommCategory category) const
{
    auto it = totals_.find(category);
    return it == totals_.end() ? 0 : it->second.wireBytes;
}

uint64_t
CommManager::totalRawBytes() const
{
    uint64_t total = 0;
    for (const auto &[category, totals] : totals_)
        total += totals.rawBytes;
    return total;
}

uint64_t
CommManager::totalWireBytes() const
{
    uint64_t total = 0;
    for (const auto &[category, totals] : totals_)
        total += totals.wireBytes + totals.retryWireBytes;
    return total;
}

uint64_t
CommManager::totalRetries() const
{
    uint64_t total = 0;
    for (const auto &[category, totals] : totals_)
        total += totals.retries;
    return total;
}

uint64_t
CommManager::totalFailures() const
{
    uint64_t total = 0;
    for (const auto &[category, totals] : totals_)
        total += totals.failures;
    return total;
}

} // namespace nol::runtime
