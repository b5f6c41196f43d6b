#include "runtime/server.hpp"

#include <algorithm>

#include "net/medium.hpp"
#include "sim/eventloop.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"

namespace nol::runtime {

// ---------------------------------------------------------------------------
// PageCache
// ---------------------------------------------------------------------------

const uint8_t *
PageCache::lookup(const sim::PageDigest &digest)
{
    auto it = entries_.find(digest);
    if (it == entries_.end())
        return nullptr;
    lru_.erase(it->second.tick);
    it->second.tick = ++tick_;
    lru_[it->second.tick] = digest;
    return it->second.bytes.data();
}

void
PageCache::insert(const sim::PageDigest &digest, const uint8_t *data)
{
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
        // Content-addressed: same digest, same bytes. Refresh LRU only.
        lru_.erase(it->second.tick);
        it->second.tick = ++tick_;
        lru_[it->second.tick] = digest;
        return;
    }
    while (entries_.size() >= capacity_ && !lru_.empty()) {
        auto oldest = lru_.begin();
        entries_.erase(oldest->second);
        lru_.erase(oldest);
        ++evicted_;
    }
    Entry entry;
    entry.bytes.assign(data, data + sim::kPageSize);
    entry.tick = ++tick_;
    lru_[entry.tick] = digest;
    entries_.emplace(digest, std::move(entry));
    ++inserted_;
}

// ---------------------------------------------------------------------------
// ServerRuntime
// ---------------------------------------------------------------------------

ServerRuntime::ServerRuntime(const compiler::CompiledProgram &program,
                             AdmissionConfig admission)
    : program_(program), admission_(admission),
      policy_(makeAdmissionPolicy(admission.kind)),
      slots_(admission.maxConcurrentSessions)
{
    NOL_ASSERT(admission_.maxConcurrentSessions > 0,
               "server must admit at least one session");
}

ServerRuntime::~ServerRuntime() = default;

/** Forget all run-scoped admission state and publish the empty load. */
void
ServerRuntime::resetAdmission()
{
    active_ = 0;
    slots_ = admission_.maxConcurrentSessions;
    queue_.clear();
    policy_->reset();
    admission_waits_ = 0;
    admission_denials_ = 0;
    admission_wait_ns_ = 0;
    peak_active_ = 0;
    hold_start_ns_.clear();
    hold_total_ns_ = 0;
    hold_count_ = 0;
    publishLoad(0.0);
}

AdmissionResult
ServerRuntime::acquire(sim::Strand &strand, uint64_t session_id,
                       double now_ns, AdmissionRequest request)
{
    NOL_ASSERT(loop_ != nullptr, "admission outside a fleet run");
    AdmissionResult res;
    // Admission is shared state: decide inside an event so concurrent
    // requests serialize in virtual-time order (see eventloop.hpp).
    loop_->schedule(now_ns, [this, &strand, &res, session_id, now_ns,
                             request] {
        bool free_slot = active_ < slots_;
        if (!free_slot && admission_.autoscale &&
            slots_ < admission_.maxConcurrentSessions * kAutoscalePoolFactor &&
            static_cast<double>(queue_.size() + 1) >
                kAutoscaleQueueDepthPerSlot * static_cast<double>(slots_)) {
            // Backlog crossed the growth threshold: provision one more
            // slot and hand it straight to this request.
            ++slots_;
            free_slot = true;
        }
        if (free_slot) {
            ++active_;
            peak_active_ = std::max(peak_active_, active_);
            hold_start_ns_[session_id] = now_ns;
            policy_->onGrant(session_id);
            publishLoad(now_ns);
            res.granted = true;
            loop_->wake(strand, now_ns);
            return;
        }
        Waiter waiter;
        waiter.strand = &strand;
        waiter.result = &res;
        waiter.sessionId = session_id;
        waiter.enqueueNs = now_ns;
        waiter.request = request;
        double deadline = now_ns + admission_.maxQueueWaitSeconds * 1e9;
        waiter.timeoutEvent =
            loop_->schedule(deadline, [this, &strand, &res, deadline] {
                for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                    if (it->strand == &strand) {
                        queue_.erase(it);
                        break;
                    }
                }
                res.granted = false;
                ++admission_denials_;
                publishLoad(deadline);
                loop_->wake(strand, deadline);
            });
        queue_.push_back(waiter);
        ++admission_waits_;
        publishLoad(now_ns);
    });
    double wake_ns = loop_->block(strand);
    res.wakeNs = wake_ns;
    res.waitedNs = wake_ns - now_ns;
    admission_wait_ns_ += res.waitedNs;
    return res;
}

void
ServerRuntime::release(uint64_t session_id, double now_ns)
{
    NOL_ASSERT(loop_ != nullptr, "release outside a fleet run");
    loop_->schedule(now_ns, [this, session_id, now_ns] {
        freeSlot(session_id, now_ns);
    });
}

/**
 * Close @p session_id's slot hold (if one is open) and free the slot:
 * the policy's pick among the waiters inherits it, else the pool
 * shrinks back toward its base. Runs inside a loop event.
 */
void
ServerRuntime::freeSlot(uint64_t session_id, double now_ns)
{
    auto held = hold_start_ns_.find(session_id);
    if (held != hold_start_ns_.end()) {
        hold_total_ns_ += now_ns - held->second;
        ++hold_count_;
        hold_start_ns_.erase(held);
    }
    if (queue_.empty()) {
        NOL_ASSERT(active_ > 0, "slot released but none held");
        --active_;
        maybeShrinkPool();
        publishLoad(now_ns);
        return;
    }
    // The freed slot passes directly to a waiter — the policy's pick —
    // and active_ is unchanged (one out, one in).
    grantSelected(now_ns);
    publishLoad(now_ns);
}

/** Grant the freed slot to the policy's pick (queue must be nonempty). */
void
ServerRuntime::grantSelected(double now_ns)
{
    std::deque<AdmissionTicket> tickets;
    for (const Waiter &waiter : queue_) {
        AdmissionTicket ticket;
        ticket.sessionId = waiter.sessionId;
        ticket.enqueueNs = waiter.enqueueNs;
        ticket.request = waiter.request;
        tickets.push_back(ticket);
    }
    size_t index = policy_->selectNext(tickets);
    NOL_ASSERT(index < queue_.size(), "admission policy picked index %zu "
               "of a %zu-deep queue", index, queue_.size());
    Waiter waiter = queue_[index];
    queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(index));
    grant(waiter, now_ns);
}

void
ServerRuntime::grant(Waiter waiter, double now_ns)
{
    loop_->cancel(waiter.timeoutEvent);
    hold_start_ns_[waiter.sessionId] = now_ns;
    policy_->onGrant(waiter.sessionId);
    waiter.result->granted = true;
    loop_->wake(*waiter.strand, now_ns);
}

/** Autoscale shrink: retire surplus slots once the backlog is gone. */
void
ServerRuntime::maybeShrinkPool()
{
    if (!admission_.autoscale)
        return;
    if (!queue_.empty())
        return;
    uint32_t floor = std::max(admission_.maxConcurrentSessions, active_);
    if (slots_ > floor)
        slots_ = floor;
}

void
ServerRuntime::publishLoad(double now_ns)
{
    load_.slotPool = slots_;
    load_.activeSessions = active_;
    load_.queueDepth = static_cast<uint32_t>(queue_.size());
    load_.completedHolds = hold_count_;
    load_.meanHoldSeconds =
        hold_count_ > 0
            ? (hold_total_ns_ * 1e-9) / static_cast<double>(hold_count_)
            : 0.0;
    if (load_observer_)
        load_observer_(now_ns, load_);
}

// ---------------------------------------------------------------------------
// Page cache + prefetch batching
// ---------------------------------------------------------------------------

PrefetchPlan
ServerRuntime::planPrefetch(sim::Strand &strand, uint64_t session_id,
                            double now_ns, std::vector<PrefetchOffer> offers)
{
    NOL_ASSERT(loop_ != nullptr && cache_active_,
               "cache-aware prefetch outside an active-cache fleet run");
    PrefetchPlan plan;
    loop_->schedule(now_ns, [this, &strand, &plan, session_id, now_ns,
                             offers = std::move(offers)]() mutable {
        if (open_wave_ == 0) {
            uint64_t id = next_wave_++;
            open_wave_ = id;
            waves_[id].id = id;
            double flush_at = now_ns + kPrefetchBatchWindowSeconds * 1e9;
            loop_->schedule(flush_at, [this, id, flush_at] {
                flushWave(id, flush_at);
            });
        }
        PrefetchWave &wave = waves_[open_wave_];
        PrefetchWave::Member member;
        member.strand = &strand;
        member.sessionId = session_id;
        member.offers = std::move(offers);
        member.plan = &plan;
        wave.members.push_back(std::move(member));
        ++wave.expected;
    });
    plan.flushNs = loop_->block(strand);
    return plan;
}

void
ServerRuntime::flushWave(uint64_t wave_id, double now_ns)
{
    PrefetchWave &wave = waves_[wave_id];
    wave.flushed = true;
    if (open_wave_ == wave_id)
        open_wave_ = 0;
    ++cache_stats_.prefetchWaves;
    if (wave.members.size() >= 2)
        cache_stats_.batchedSessions += wave.members.size();

    // Assign each unique digest to its first offerer; later offers of
    // the same content — in this wave or while an earlier wave is
    // still in flight — ride that one transfer.
    std::set<sim::PageDigest> assigned_here;
    for (PrefetchWave::Member &member : wave.members) {
        PrefetchPlan &plan = *member.plan;
        plan.waveId = wave_id;
        std::set<uint64_t> depends;
        for (const PrefetchOffer &offer : member.offers) {
            ++cache_stats_.lookups;
            if (cache_->contains(offer.digest)) {
                ++cache_stats_.hitPages;
                plan.cached.push_back(offer);
                continue;
            }
            if (assigned_here.count(offer.digest) != 0) {
                ++cache_stats_.coalescedPages;
                plan.cached.push_back(offer); // own-wave barrier covers it
                continue;
            }
            auto pending = pending_.find(offer.digest);
            if (pending != pending_.end()) {
                ++cache_stats_.coalescedPages;
                plan.cached.push_back(offer);
                depends.insert(pending->second);
                continue;
            }
            ++cache_stats_.missPages;
            plan.carry.push_back(offer);
            assigned_here.insert(offer.digest);
            pending_[offer.digest] = wave_id;
        }
        plan.dependsOnWaves.assign(depends.begin(), depends.end());
    }
    for (PrefetchWave::Member &member : wave.members)
        loop_->wake(*member.strand, now_ns);
}

double
ServerRuntime::finishPrefetch(sim::Strand &strand, uint64_t wave_id,
                              const std::vector<uint64_t> &depends_on,
                              double now_ns,
                              const std::vector<PrefetchOffer> &carried,
                              const sim::PagedMemory &server_mem)
{
    loop_->schedule(now_ns, [this, &strand, wave_id, depends_on, &carried,
                             &server_mem, now_ns] {
        // The strand is blocked, so its server memory is stable: admit
        // the carried bytes now — they are on the server from here on.
        for (const PrefetchOffer &offer : carried) {
            cache_->insert(offer.digest, server_mem.pageData(offer.pageNum));
            pending_.erase(offer.digest);
        }
        waveArrived(wave_id, now_ns);

        WaveWaiter waiter;
        waiter.strand = &strand;
        for (uint64_t dep : {wave_id}) {
            if (!waves_[dep].done)
                waiter.remaining.insert(dep);
        }
        for (uint64_t dep : depends_on) {
            if (!waves_[dep].done)
                waiter.remaining.insert(dep);
        }
        if (waiter.remaining.empty()) {
            loop_->wake(strand, now_ns);
            return;
        }
        wave_waiters_.push_back(std::move(waiter));
    });
    return loop_->block(strand);
}

void
ServerRuntime::abortPrefetch(uint64_t wave_id,
                             const std::vector<PrefetchOffer> &carried,
                             double now_ns)
{
    // Copy the offers: the aborting session is about to unwind its
    // stack into failover, so the reference won't outlive this call.
    std::vector<PrefetchOffer> lost(carried);
    loop_->schedule(now_ns, [this, wave_id, lost = std::move(lost),
                             now_ns] {
        for (const PrefetchOffer &offer : lost) {
            auto it = pending_.find(offer.digest);
            if (it != pending_.end() && it->second == wave_id)
                pending_.erase(it);
        }
        waveArrived(wave_id, now_ns);
    });
}

void
ServerRuntime::waveArrived(uint64_t wave_id, double now_ns)
{
    PrefetchWave &wave = waves_[wave_id];
    ++wave.arrived;
    if (wave.arrived < wave.expected || wave.done)
        return;
    wave.done = true;
    for (auto it = wave_waiters_.begin(); it != wave_waiters_.end();) {
        it->remaining.erase(wave_id);
        if (it->remaining.empty()) {
            loop_->wake(*it->strand, now_ns);
            it = wave_waiters_.erase(it);
        } else {
            ++it;
        }
    }
}

std::vector<uint64_t>
ServerRuntime::collectCachedPages(sim::Strand &strand, double now_ns,
                                  const std::vector<PrefetchOffer> &wanted,
                                  sim::PagedMemory &server_mem)
{
    std::vector<uint64_t> served;
    loop_->schedule(now_ns, [this, &strand, &wanted, &server_mem, &served,
                             now_ns] {
        for (const PrefetchOffer &offer : wanted) {
            const uint8_t *bytes = cache_->lookup(offer.digest);
            if (bytes == nullptr)
                continue; // carrier aborted — copy-on-demand backfills
            server_mem.installPage(offer.pageNum, bytes);
            served.push_back(offer.pageNum);
        }
        loop_->wake(strand, now_ns);
    });
    loop_->block(strand);
    return served;
}

void
ServerRuntime::admitWriteBack(double now_ns,
                              std::vector<PrefetchOffer> pages,
                              std::vector<std::vector<uint8_t>> contents)
{
    NOL_ASSERT(pages.size() == contents.size(),
               "write-back admission shape mismatch");
    loop_->schedule(now_ns, [this, pages = std::move(pages),
                             contents = std::move(contents)] {
        for (size_t i = 0; i < pages.size(); ++i)
            cache_->insert(pages[i].digest, contents[i].data());
    });
}

void
ServerRuntime::attachLoopForTesting(sim::EventLoop *loop)
{
    loop_ = loop;
    if (loop != nullptr)
        resetAdmission();
}

FleetReport
ServerRuntime::run(const std::vector<FleetClient> &clients)
{
    NOL_ASSERT(!clients.empty(), "fleet run without clients");
    sim::EventLoop loop;
    net::SharedMedium medium(loop);
    loop_ = &loop;
    // Run-scoped state: fresh admission queue, load ledger and priors.
    priors_ = decision::FleetPriors{};
    resetAdmission();

    // Sharing pages across sessions only makes sense with peers; a
    // 1-client fleet pushes its prefetch pages directly, like a solo run.
    cache_active_ = clients.size() >= 2;
    cache_.reset(new PageCache(kPageCacheCapacityPages));
    waves_.clear();
    open_wave_ = 0;
    next_wave_ = 1;
    pending_.clear();
    wave_waiters_.clear();
    cache_stats_ = PageCacheStats{};

    std::vector<std::unique_ptr<Session>> sessions;
    sessions.reserve(clients.size());
    FleetReport fleet;
    fleet.clients.resize(clients.size());

    for (size_t i = 0; i < clients.size(); ++i) {
        FleetHooks hooks;
        hooks.loop = &loop;
        hooks.medium = &medium;
        hooks.server = this;
        hooks.sessionId = static_cast<uint64_t>(i) + 1;
        hooks.startNs = clients[i].startSeconds * 1e9;
        hooks.priority = clients[i].priority;
        const compiler::CompiledProgram &prog =
            clients[i].program != nullptr ? *clients[i].program : program_;
        sessions.emplace_back(new Session(prog, clients[i].config, hooks));
    }
    for (size_t i = 0; i < clients.size(); ++i) {
        Session *session = sessions[i].get();
        const FleetClient &client = clients[i];
        RunReport *slot = &fleet.clients[i].report;
        sim::Strand *strand = loop.spawn(
            client.name, client.startSeconds * 1e9,
            [session, &client, slot] { *slot = session->run(client.input); });
        session->setStrand(strand);
    }

    loop.run();
    loop_ = nullptr;

    // --- Aggregate -----------------------------------------------------
    std::vector<double> latencies;
    latencies.reserve(clients.size());
    for (size_t i = 0; i < clients.size(); ++i) {
        FleetClientResult &result = fleet.clients[i];
        result.name = clients[i].name;
        result.startSeconds = clients[i].startSeconds;
        result.finishSeconds = result.report.mobileSeconds;
        result.latencySeconds = result.finishSeconds - result.startSeconds;
        latencies.push_back(result.latencySeconds);

        fleet.makespanSeconds =
            std::max(fleet.makespanSeconds, result.finishSeconds);
        fleet.totalOffloads += result.report.offloads;
        fleet.totalLocalRuns += result.report.localRuns;
        fleet.totalFailovers += result.report.failovers;
        fleet.totalColdStartOffloads += result.report.coldStartOffloads;
        fleet.totalQueueAvoidedLocals += result.report.queueAvoidedLocals;
        fleet.serverBusySeconds += result.report.breakdown.serverCompute +
                                   result.report.breakdown.fnPtrTranslation;
    }
    fleet.admissionWaits = admission_waits_;
    fleet.admissionDenials = admission_denials_;
    fleet.admissionWaitSeconds = admission_wait_ns_ * 1e-9;
    fleet.peakConcurrentSessions = peak_active_;
    fleet.peakConcurrentFlows = medium.stats().peakConcurrentFlows;
    fleet.mediumBusySeconds = medium.stats().busySeconds;
    fleet.mediumBytes = medium.stats().bytesCarried;
    fleet.cache = cache_stats_;
    fleet.cache.insertedPages = cache_->insertedPages();
    fleet.cache.evictedPages = cache_->evictedPages();
    fleet.priorsSeededSessions = priors_.seededSessions();
    fleet.priorsSeededTargets = priors_.seededTargets();
    if (fleet.makespanSeconds > 0) {
        fleet.offloadsPerSecond =
            static_cast<double>(fleet.totalOffloads) / fleet.makespanSeconds;
    }

    LatencySummary summary = summarizeLatencies(std::move(latencies));
    fleet.latencyP50Seconds = summary.p50;
    fleet.latencyP95Seconds = summary.p95;
    fleet.latencyP99Seconds = summary.p99;
    fleet.latencyP999Seconds = summary.p999;
    return fleet;
}

} // namespace nol::runtime
