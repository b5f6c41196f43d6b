#include "runtime/offload.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "runtime/session.hpp"

namespace nol::runtime {

SystemConfig::SystemConfig() : network(net::makeWifi80211ac()) {}

namespace {

/** Builds reportText(): one `name=value` line per field. */
class FieldWriter
{
  public:
    void
    add(const std::string &name, const std::string &value)
    {
        text_ += name;
        text_ += '=';
        for (char c : value) {
            // Escape so every field stays on its own line.
            if (c == '\\')
                text_ += "\\\\";
            else if (c == '\n')
                text_ += "\\n";
            else
                text_ += c;
        }
        text_ += '\n';
    }

    /** Numbers: floats as %a (every bit), integers and bools decimal. */
    template <typename T>
    void
    add(const std::string &name, T value)
    {
        if constexpr (std::is_floating_point_v<T>) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%a", value);
            add(name, std::string(buf));
        } else {
            add(name, std::to_string(value));
        }
    }

    std::string take() { return std::move(text_); }

  private:
    std::string text_;
};

} // namespace

std::string
reportText(const RunReport &r)
{
    FieldWriter w;
    w.add("exitValue", r.exitValue);
    w.add("console", r.console);
    w.add("mobileSeconds", r.mobileSeconds);
    w.add("energyMillijoules", r.energyMillijoules);
    w.add("breakdown.mobileCompute", r.breakdown.mobileCompute);
    w.add("breakdown.serverCompute", r.breakdown.serverCompute);
    w.add("breakdown.fnPtrTranslation", r.breakdown.fnPtrTranslation);
    w.add("breakdown.remoteIo", r.breakdown.remoteIo);
    w.add("breakdown.communication", r.breakdown.communication);
    w.add("wireBytes", r.wireBytes);
    w.add("rawBytes", r.rawBytes);
    std::string categories;
    for (const auto &[category, bytes] : r.bytesByCategory) {
        if (!categories.empty())
            categories += ',';
        categories += category + ':' + std::to_string(bytes);
    }
    w.add("bytesByCategory", categories);
    w.add("offloads", r.offloads);
    w.add("localRuns", r.localRuns);
    w.add("demandFaults", r.demandFaults);
    w.add("retries", r.retries);
    w.add("failovers", r.failovers);
    w.add("admissionWaits", r.admissionWaits);
    w.add("admissionDenials", r.admissionDenials);
    w.add("admissionWaitSeconds", r.admissionWaitSeconds);
    w.add("digestHandshakes", r.digestHandshakes);
    w.add("prefetchPagesSent", r.prefetchPagesSent);
    w.add("prefetchPagesCached", r.prefetchPagesCached);
    w.add("coldStartOffloads", r.coldStartOffloads);
    w.add("queueAvoidedLocals", r.queueAvoidedLocals);
    w.add("priorsSeededTargets", r.priorsSeededTargets);

    w.add("decisions.size", r.decisions.size());
    for (size_t i = 0; i < r.decisions.size(); ++i) {
        const decision::DecisionRecord &d = r.decisions[i];
        std::string tag = "decisions[" + std::to_string(i) + "].";
        w.add(tag + "target", d.target);
        w.add(tag + "sequence", d.sequence);
        w.add(tag + "nowSeconds", d.nowSeconds);
        w.add(tag + "verdict", std::string(decision::verdictName(d.verdict)));
        w.add(tag + "offload", d.offload);
        w.add(tag + "suppressed", d.suppressed);
        w.add(tag + "probe", d.probe);
    }

    w.add("events.size", r.events.size());
    for (size_t i = 0; i < r.events.size(); ++i) {
        const OffloadEvent &e = r.events[i];
        std::string tag = "events[" + std::to_string(i) + "].";
        w.add(tag + "target", e.target);
        w.add(tag + "offloaded", e.offloaded);
        w.add(tag + "ideal", e.ideal);
        w.add(tag + "failedOver", e.failedOver);
        w.add(tag + "suppressed", e.suppressed);
        w.add(tag + "overflow", e.overflow);
        w.add(tag + "queueAvoided", e.queueAvoided);
        w.add(tag + "estimatedGain", e.estimatedGain);
        w.add(tag + "trafficBytes", e.trafficBytes);
        w.add(tag + "rawTrafficBytes", e.rawTrafficBytes);
        w.add(tag + "serverSeconds", e.serverSeconds);
    }

    w.add("powerTimeline.size", r.powerTimeline.size());
    for (size_t i = 0; i < r.powerTimeline.size(); ++i) {
        const sim::PowerSegment &s = r.powerTimeline[i];
        std::string tag = "powerTimeline[" + std::to_string(i) + "].";
        w.add(tag + "startNs", s.startNs);
        w.add(tag + "endNs", s.endNs);
        w.add(tag + "state", std::string(sim::powerStateName(s.state)));
        w.add(tag + "milliwatts", s.milliwatts);
    }
    return w.take();
}

bool
reportsBitIdentical(const RunReport &a, const RunReport &b, std::string *why)
{
    std::string text_a = reportText(a);
    std::string text_b = reportText(b);
    if (text_a == text_b)
        return true;
    if (why != nullptr) {
        // The first line that differs names the field.
        size_t line = 0;
        size_t n = std::min(text_a.size(), text_b.size());
        for (size_t i = 0; i < n && text_a[i] == text_b[i]; ++i) {
            if (text_a[i] == '\n')
                line = i + 1;
        }
        const std::string &text = line < text_a.size() ? text_a : text_b;
        *why = text.substr(line, text.find('=', line) - line);
    }
    return false;
}

OffloadSystem::OffloadSystem(const compiler::CompiledProgram &program,
                             SystemConfig config)
    : program_(program), config_(std::move(config))
{
    NOL_ASSERT(program_.partition.mobileModule != nullptr,
               "program was not partitioned");
}

RunReport
OffloadSystem::run(const RunInput &input)
{
    // The legacy single-client entry point: one solo Session, private
    // machines and network, no shared timeline — the exact behavior
    // (and timing) this class had before the fleet layering.
    Session session(program_, config_);
    return session.run(input);
}

} // namespace nol::runtime
