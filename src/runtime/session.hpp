/**
 * @file
 * One client's offloading session: the per-client state machine of the
 * Fig. 5 life cycle (local execution, dynamic decision, initialization,
 * offloading execution, finalization), extracted from the old
 * single-client OffloadSystem so it can run either solo — exactly the
 * legacy behavior, same machines, same private network, same timing to
 * the bit — or as one of N concurrent sessions inside a ServerRuntime
 * fleet, where it additionally:
 *
 *  - acquires a server slot per offload (admission control; on denial
 *    the target runs locally and the event is marked `overflow`),
 *  - times its transfers on the fleet's SharedMedium instead of the
 *    closed-form private pipe.
 *
 * Either way the session owns its UVA namespace (a private UvaManager).
 */
#ifndef NOL_RUNTIME_SESSION_HPP
#define NOL_RUNTIME_SESSION_HPP

#include <memory>

#include "runtime/offload.hpp"

namespace nol::sim {
class EventLoop;
class Strand;
} // namespace nol::sim

namespace nol::net {
class SharedMedium;
} // namespace nol::net

namespace nol::runtime {

class ServerRuntime;

/** Wiring a fleet session receives from its ServerRuntime. */
struct FleetHooks {
    sim::EventLoop *loop = nullptr;
    net::SharedMedium *medium = nullptr;
    ServerRuntime *server = nullptr;
    sim::Strand *strand = nullptr; ///< set via setStrand() after spawn
    uint64_t sessionId = 0;
    double startNs = 0; ///< client arrival time on the fleet timeline
    int priority = 0;   ///< admission priority (FleetClient::priority)
};

/** One client's run, solo or fleet. */
class Session
{
  public:
    /** Solo session: the legacy OffloadSystem::run() behavior. */
    Session(const compiler::CompiledProgram &program,
            const SystemConfig &config);

    /** Fleet session: shared timeline, medium and server runtime. */
    Session(const compiler::CompiledProgram &program,
            const SystemConfig &config, const FleetHooks &hooks);

    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Bind the cooperative strand this session runs on (fleet mode). */
    void setStrand(sim::Strand *strand);

    /** Execute the program end to end. Call once per Session. */
    RunReport run(const RunInput &input);

    struct Impl; ///< defined in session.cpp

  private:
    std::unique_ptr<Impl> impl_;
};

} // namespace nol::runtime

#endif // NOL_RUNTIME_SESSION_HPP
