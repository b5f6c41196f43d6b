/**
 * @file
 * Discrete-event scheduler: the virtual timeline the sessions of a
 * fleet share. Each machine keeps its own clock; the EventLoop orders
 * every interaction of N concurrent sessions with shared state as a
 * timestamped event.
 *
 * Two pieces:
 *
 *  - Events: (time, seq, callback) entries dispatched in time order,
 *    insertion order breaking ties. All mutation of *shared* fleet
 *    state (the contended medium, server admission) happens inside
 *    events, never directly from session code, which is what makes N
 *    interleaved sessions deterministic.
 *
 *  - Strands: cooperative session threads. Exactly one of
 *    {controller, one strand} ever runs (a baton, not parallelism), so
 *    simulation state needs no locking and every run is reproducible.
 *    A strand runs its session until it must touch the shared world,
 *    posts an event at its current virtual time, and blocks; the
 *    controller resumes whichever entity — pending event or runnable
 *    strand — is earliest on the timeline.
 *
 * Causality rule: a strand may only be resumed while its ready time is
 * ≤ every pending event time, and strands interact with shared state
 * only through events posted at their own current time. Together these
 * guarantee events fire in nondecreasing virtual-time order even
 * though each session's machines advance asynchronously.
 */
#ifndef NOL_SIM_EVENTLOOP_HPP
#define NOL_SIM_EVENTLOOP_HPP

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace nol::sim {

/**
 * One cooperative strand of execution (a fleet session). Created via
 * EventLoop::spawn; its body runs on a dedicated thread but only while
 * it holds the baton, so strands never truly run concurrently.
 */
class Strand
{
  public:
    const std::string &name() const { return name_; }
    bool done() const { return state_ == State::Done; }

  private:
    friend class EventLoop;
    enum class State { Ready, Running, Blocked, Done };

    explicit Strand(std::string name, uint64_t id, double start_ns,
                    std::function<void()> body)
        : name_(std::move(name)), id_(id), ready_at_ns_(start_ns),
          body_(std::move(body))
    {}

    std::string name_;
    uint64_t id_ = 0;
    State state_ = State::Ready;
    /** Virtual time it may next resume at; block() returns it. */
    double ready_at_ns_ = 0;
    std::function<void()> body_;
    std::thread thread_;
    std::condition_variable cv_;
    bool baton_ = false;
    bool started_ = false;
};

/** The scheduler itself. */
class EventLoop
{
  public:
    EventLoop() = default;
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /**
     * Post @p fn to run at virtual time @p at_ns. Events at equal
     * times fire in posting order. Returns an id usable with cancel().
     */
    uint64_t schedule(double at_ns, std::function<void()> fn);

    /** Drop a pending event; unknown/already-fired ids are ignored. */
    void cancel(uint64_t event_id);

    /**
     * Create a strand that becomes runnable at @p start_ns. Must be
     * called before run(); the body executes cooperatively inside it.
     */
    Strand *spawn(std::string name, double start_ns,
                  std::function<void()> body);

    /**
     * Drive the timeline: resume strands and fire events in virtual
     * time order until every strand completed and the queue drained.
     * Panics on a stall (strands blocked with no event to wake them —
     * always a bug, never a legitimate steady state).
     */
    void run();

    /**
     * From inside a strand: yield to the controller until an event
     * calls wake(). Returns the virtual time passed to wake().
     */
    double block(Strand &strand);

    /** From an event: make @p strand runnable at @p at_ns. */
    void wake(Strand &strand, double at_ns);

  private:
    /**
     * Heap key: (time, id). Event ids are handed out monotonically, so
     * popping the smallest key dispatches equal-time events in posting
     * order — the exact order the old (time, seq) map produced.
     */
    using HeapKey = std::pair<double, uint64_t>;
    using MinHeap =
        std::priority_queue<HeapKey, std::vector<HeapKey>,
                            std::greater<HeapKey>>;

    void resume(Strand &strand);
    void strandMain(Strand &strand);
    const HeapKey *peekEvent();
    const HeapKey *peekReadyStrand();

    uint64_t next_event_id_ = 1;
    // Dispatch order is a lazy-deletion binary heap over (time, id);
    // callbacks live in a flat id → fn table so cancel() is O(1) (it
    // just drops the fn — the orphaned heap key is skipped at pop).
    // This replaced a pair of std::maps whose per-event node churn was
    // the #1 hot spot once open-loop traffic pushed a single run to
    // thousands of sessions (see DESIGN.md §12).
    MinHeap event_heap_;
    std::unordered_map<uint64_t, std::function<void()>> event_fns_;
    // Ready strands mirror the same shape: (ready time, strand id)
    // keys replace an O(strands) scan per dispatch. A strand has at
    // most one live key (pushed by spawn/wake, consumed at resume);
    // stale keys are recognized by state/time mismatch and skipped.
    MinHeap ready_heap_;
    std::vector<std::unique_ptr<Strand>> strands_;

    std::mutex mu_;
    std::condition_variable controller_cv_;
};

} // namespace nol::sim

#endif // NOL_SIM_EVENTLOOP_HPP
