/**
 * @file
 * Substrate probes: fixed amounts of work on hot paths that the
 * workloads reach millions of times but cannot time from outside one
 * run — page translation, charge replay, event-loop schedule/cancel,
 * the admission policy and the write-back compressor. Each reports the
 * median of five repetitions.
 */
#include <deque>

#include "compress/lz.hpp"
#include "perfbench.hpp"
#include "runtime/admission.hpp"
#include "sim/eventloop.hpp"
#include "sim/pagedmemory.hpp"
#include "sim/simmachine.hpp"

namespace perfbench {

namespace {

constexpr int kRepetitions = 5;

/** Median over repetitions of @p body's seconds per operation. */
template <typename Body>
double
nsPerOp(uint64_t ops, Body body)
{
    std::vector<double> samples;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        double t0 = hostNow();
        body();
        samples.push_back((hostNow() - t0) * 1e9 / static_cast<double>(ops));
    }
    return median(samples);
}

/** Scalar reads cycling over @p pages consecutive guest pages. */
double
translateNs(uint64_t pages)
{
    constexpr uint64_t kBase = 0x10000000;
    constexpr uint64_t kReads = 1u << 22;
    sim::PagedMemory mem;
    for (uint64_t p = 0; p < pages; ++p) {
        uint64_t value = p;
        mem.write(kBase + p * sim::kPageSize, 8,
                  reinterpret_cast<const uint8_t *>(&value));
    }
    volatile uint64_t sink = 0;
    return nsPerOp(kReads, [&] {
        uint64_t sum = 0;
        for (uint64_t k = 0; k < kReads; ++k) {
            uint64_t addr = kBase + (k % pages) * sim::kPageSize +
                            ((k * 8) & (sim::kPageSize - 8));
            uint64_t value = 0;
            mem.read(addr, 8, reinterpret_cast<uint8_t *>(&value));
            sum += value;
        }
        sink = sink + sum;
    });
}

/** A compressible megabyte: the workloads' own source text, repeated. */
std::vector<uint8_t>
lzInput()
{
    std::string text;
    for (const workloads::WorkloadSpec &spec : workloads::allWorkloads())
        text += spec.source;
    std::vector<uint8_t> out;
    while (out.size() < (1u << 20))
        out.insert(out.end(), text.begin(), text.end());
    out.resize(1u << 20);
    return out;
}

} // namespace

Probes
runProbes(uint32_t queue_depth, Tally &tally)
{
    Probes p;
    // Within the 64-entry translation cache, and strided beyond it.
    p.translateHitNs = translateNs(32);
    p.translateMissNs = translateNs(4096);

    constexpr uint64_t kCharges = 1u << 22;
    p.chargeNs = nsPerOp(kCharges, [&] {
        sim::SimMachine machine(sim::MachineRole::Mobile, arch::makeArm32());
        for (uint64_t k = 0; k < kCharges; ++k)
            machine.advanceCompute((k & 7) + 1);
        tally.record(machine.nowNs() > 0, "charge probe: clock did not move");
    });

    constexpr uint64_t kEvents = 1u << 18;
    p.eventLoopNs = nsPerOp(kEvents, [&] {
        sim::EventLoop loop;
        for (uint64_t k = 0; k < kEvents; ++k)
            loop.cancel(loop.schedule(static_cast<double>(k), [] {}));
    });

    constexpr uint64_t kSelects = 1u << 22;
    std::deque<runtime::AdmissionTicket> queue(std::max<uint32_t>(queue_depth, 1));
    for (size_t i = 0; i < queue.size(); ++i)
        queue[i].sessionId = i;
    auto policy = runtime::makeAdmissionPolicy(runtime::AdmissionPolicyKind::Fifo);
    volatile size_t picked = 0;
    p.admissionSelectNs = nsPerOp(kSelects, [&] {
        size_t sum = 0;
        for (uint64_t k = 0; k < kSelects; ++k)
            sum += policy->selectNext(queue);
        picked = picked + sum;
    });

    std::vector<uint8_t> input = lzInput();
    std::vector<uint8_t> packed;
    double ns_per_byte = nsPerOp(input.size(), [&] {
        packed = compress::lzCompress(input);
    });
    p.lzMbPerSecond = 1e3 / ns_per_byte; // bytes/ns → MB/s
    tally.record(compress::lzDecompress(packed) == input,
                 "lz probe: round trip changed the data");
    return p;
}

} // namespace perfbench
