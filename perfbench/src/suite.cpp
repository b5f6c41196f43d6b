#include "perfbench.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "codegen/artifact.hpp"
#include "support/rng.hpp"

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Digest &
Digest::add(const std::string &text)
{
    for (unsigned char c : text) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
    // Field separator, so ("ab","c") and ("a","bc") differ.
    h_ ^= 0xff;
    h_ *= 0x100000001b3ull;
    return *this;
}

Digest &
Digest::add(double value)
{
    return add(format("%a", value));
}

Digest &
Digest::add(uint64_t value)
{
    return add(std::to_string(value));
}

std::string
Digest::hex() const
{
    return format("%016llx", static_cast<unsigned long long>(h_));
}

std::string
fnv1a(const std::string &text)
{
    return Digest().add(text).hex();
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    int n = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    if (n < 0)
        return {};
    if (static_cast<size_t>(n) < sizeof buf)
        return std::string(buf, static_cast<size_t>(n));
    std::string out(static_cast<size_t>(n) + 1, '\0');
    va_start(args, fmt);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    va_end(args);
    out.resize(static_cast<size_t>(n));
    return out;
}

void
Tally::record(bool ok, const std::string &why)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (reasons_.size() < 8)
        reasons_.push_back(why);
}

Spans::Scope::Scope(Spans *spans, std::string name, std::string arg)
    : spans_(spans), start_(hostNow())
{
    if (spans_ == nullptr)
        return;
    id_ = static_cast<int>(spans_->spans_.size());
    Span span;
    span.name = std::move(name);
    span.arg = std::move(arg);
    span.parent = spans_->open_;
    span.start = start_;
    spans_->spans_.push_back(std::move(span));
    spans_->open_ = id_;
}

Spans::Scope::~Scope()
{
    if (spans_ == nullptr)
        return;
    Span &span = spans_->spans_[static_cast<size_t>(id_)];
    span.end = hostNow();
    spans_->open_ = span.parent;
}

double
Spans::Scope::elapsed() const
{
    return hostNow() - start_;
}

double
Spans::total(const std::string &name) const
{
    double sum = 0;
    for (const Span &span : spans_) {
        if (span.name == name)
            sum += span.end - span.start;
    }
    return sum;
}

double
Spans::total(const std::string &name, const std::string &arg) const
{
    double sum = 0;
    for (const Span &span : spans_) {
        if (span.name == name && span.arg == arg)
            sum += span.end - span.start;
    }
    return sum;
}

std::string
Spans::chromeTrace() const
{
    double origin = spans_.empty() ? 0 : spans_.front().start;
    std::ostringstream out;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << format("  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"arg\": \"%s\", \"parent\": %d}}%s\n",
                      span.name.c_str(), (span.start - origin) * 1e6,
                      (span.end - span.start) * 1e6, span.arg.c_str(),
                      span.parent, i + 1 < spans_.size() ? "," : "");
    }
    out << "]}\n";
    return out.str();
}

Oracle
Oracle::load(const std::string &dir)
{
    Oracle oracle;
    std::string key, digest;
    std::ifstream outputs(dir + "/outputs.txt");
    while (outputs >> key >> digest)
        oracle.expected_[key] = digest;
    std::ifstream sim(dir + "/sim-digests.txt");
    while (sim >> key >> digest)
        oracle.sim_[key] = digest;
    return oracle;
}

const std::string *
Oracle::simDigest(const std::string &key) const
{
    auto it = sim_.find(key);
    return it == sim_.end() ? nullptr : &it->second;
}

std::string
Oracle::outputDigest(const runtime::RunReport &report)
{
    return Digest()
        .add(report.console)
        .add(std::to_string(report.exitValue))
        .hex();
}

bool
Oracle::matches(const std::string &id, const runtime::RunReport &report) const
{
    auto it = expected_.find(id);
    return it != expected_.end() && it->second == outputDigest(report);
}

std::string
reportDigest(const runtime::RunReport &r)
{
    // The fields runtime::reportsBitIdentical compares, in its order.
    Digest d;
    d.add(std::to_string(r.exitValue)).add(r.console);
    d.add(r.mobileSeconds).add(r.energyMillijoules);
    d.add(r.breakdown.mobileCompute).add(r.breakdown.serverCompute);
    d.add(r.breakdown.fnPtrTranslation).add(r.breakdown.remoteIo);
    d.add(r.breakdown.communication);
    d.add(r.wireBytes).add(r.rawBytes);
    for (const auto &[category, bytes] : r.bytesByCategory)
        d.add(category).add(bytes);
    d.add(r.offloads).add(r.localRuns).add(r.demandFaults);
    d.add(r.retries).add(r.failovers);
    d.add(r.admissionWaits).add(r.admissionDenials);
    d.add(r.admissionWaitSeconds);
    d.add(r.digestHandshakes).add(r.prefetchPagesSent);
    d.add(r.prefetchPagesCached);
    d.add(r.coldStartOffloads).add(r.queueAvoidedLocals);
    d.add(r.priorsSeededTargets);
    for (const decision::DecisionRecord &rec : r.decisions) {
        d.add(rec.target).add(rec.sequence).add(rec.nowSeconds);
        d.add(static_cast<uint64_t>(rec.verdict));
        d.add(static_cast<uint64_t>(rec.offload));
        d.add(static_cast<uint64_t>(rec.suppressed));
        d.add(static_cast<uint64_t>(rec.probe));
    }
    for (const runtime::OffloadEvent &e : r.events) {
        d.add(e.target);
        d.add(static_cast<uint64_t>(e.offloaded) |
              static_cast<uint64_t>(e.ideal) << 1 |
              static_cast<uint64_t>(e.failedOver) << 2 |
              static_cast<uint64_t>(e.suppressed) << 3 |
              static_cast<uint64_t>(e.overflow) << 4 |
              static_cast<uint64_t>(e.queueAvoided) << 5);
        d.add(e.estimatedGain).add(e.trafficBytes).add(e.rawTrafficBytes);
        d.add(e.serverSeconds);
    }
    for (const sim::PowerSegment &s : r.powerTimeline) {
        d.add(s.startNs).add(s.endNs);
        d.add(static_cast<uint64_t>(s.state)).add(s.milliwatts);
    }
    return d.hex();
}

namespace {

/** bench_fleet's heavy-workload classes (solo speed-up table). */
std::string
heavyClassOf(const std::string &id)
{
    static const std::map<std::string, std::string> classes = {
        {"175.vpr", "arith"},   {"177.mesa", "arith"},
        {"401.bzip2", "arith"}, {"445.gobmk", "arith"},
        {"458.sjeng", "arith"}, {"179.art", "mem"},
        {"188.ammp", "mem"},    {"433.milc", "mem"},
        {"470.lbm", "mem"},
    };
    auto it = classes.find(id);
    return it == classes.end() ? std::string() : it->second;
}

} // namespace

std::vector<Case>
suiteCases(uint64_t seed, bool with_chess)
{
    std::vector<Case> cases;
    for (const workloads::WorkloadSpec &spec : workloads::allWorkloads())
        cases.push_back({spec.id, spec, heavyClassOf(spec.id)});
    if (with_chess) {
        workloads::WorkloadSpec chess = workloads::makeChess(3);
        cases.push_back({chess.id, chess, ""});
    }
    // The seed picks the order programs are processed in.
    std::vector<Case> out;
    for (size_t i : seededOrder(cases.size(), seed))
        out.push_back(std::move(cases[i]));
    return out;
}

std::vector<size_t>
seededOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

core::CompileRequest
compileRequest(const workloads::WorkloadSpec &spec)
{
    core::CompileRequest req;
    req.name = spec.id;
    req.source = spec.source;
    req.profilingInput = spec.profilingInput;
    req.staticBandwidthMbps = 844.0 / spec.memScale;
    return req;
}

std::vector<SweepConfig>
sweepConfigs(double mem_scale)
{
    std::vector<SweepConfig> out(4);
    out[0].name = "local";
    out[0].config.forceLocal = true;
    out[1].name = "802.11n";
    out[1].config.network = net::makeWifi80211n();
    out[2].name = "802.11ac";
    out[2].config.network = net::makeWifi80211ac();
    out[3].name = "ideal";
    out[3].config.idealOffload = true;
    for (SweepConfig &sc : out) {
        sc.config.memScale = mem_scale;
        sc.config.backend = interp::BackendKind::NativeC;
    }
    return out;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of
    // the address space the process had before exec (the launcher's).
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

size_t
artifactCount()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    size_t count = 0;
    for (const auto &entry :
         fs::directory_iterator(codegen::artifactCacheDir(), ec)) {
        std::string name = entry.path().filename().string();
        if (name.size() > 3 && name.compare(name.size() - 3, 3, ".so") == 0)
            ++count;
    }
    return count;
}

} // namespace perfbench
