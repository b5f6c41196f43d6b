#include "sim/eventloop.hpp"

#include "support/logging.hpp"

namespace nol::sim {

EventLoop::~EventLoop()
{
    // Normally run() completed and every strand body returned; joining
    // is then immediate. Joining unfinished strands would deadlock, so
    // that case is a hard error (run() panics on stalls first).
    for (auto &strand : strands_) {
        if (strand->thread_.joinable()) {
            NOL_ASSERT(strand->done(),
                       "EventLoop destroyed with live strand \"%s\"",
                       strand->name_.c_str());
            strand->thread_.join();
        }
    }
}

uint64_t
EventLoop::schedule(double at_ns, std::function<void()> fn)
{
    uint64_t id = next_event_id_++;
    event_heap_.push({at_ns, id});
    event_fns_.emplace(id, std::move(fn));
    return id;
}

void
EventLoop::cancel(uint64_t event_id)
{
    // The heap key stays behind as a tombstone; peekEvent() skips it.
    event_fns_.erase(event_id);
}

Strand *
EventLoop::spawn(std::string name, double start_ns,
                 std::function<void()> body)
{
    strands_.emplace_back(new Strand(std::move(name), strands_.size(),
                                     start_ns, std::move(body)));
    ready_heap_.push({start_ns, strands_.back()->id_});
    return strands_.back().get();
}

const EventLoop::HeapKey *
EventLoop::peekEvent()
{
    while (!event_heap_.empty()) {
        const HeapKey &top = event_heap_.top();
        if (event_fns_.count(top.second) != 0)
            return &top;
        event_heap_.pop(); // cancelled: tombstone
    }
    return nullptr;
}

const EventLoop::HeapKey *
EventLoop::peekReadyStrand()
{
    while (!ready_heap_.empty()) {
        const HeapKey &top = ready_heap_.top();
        Strand &strand = *strands_[top.second];
        if (strand.state_ == Strand::State::Ready &&
            strand.ready_at_ns_ == top.first)
            return &top;
        ready_heap_.pop(); // stale: strand moved on since this key
    }
    return nullptr;
}

void
EventLoop::run()
{
    for (;;) {
        const HeapKey *ready = peekReadyStrand();
        const HeapKey *ev = peekEvent();

        if (ready != nullptr &&
            (ev == nullptr || ready->first <= ev->first)) {
            Strand &strand = *strands_[ready->second];
            ready_heap_.pop();
            resume(strand);
            continue;
        }
        if (ev != nullptr) {
            auto stored = event_fns_.find(ev->second);
            std::function<void()> fn = std::move(stored->second);
            event_heap_.pop();
            event_fns_.erase(stored);
            fn();
            continue;
        }

        // No runnable strand, no event. Either everything finished or
        // some strands are blocked forever — a scheduling bug.
        size_t blocked = 0;
        for (auto &s : strands_) {
            if (s->state_ == Strand::State::Blocked)
                ++blocked;
        }
        NOL_ASSERT(blocked == 0,
                   "event loop stalled: %zu strand(s) blocked with an "
                   "empty event queue",
                   blocked);
        break;
    }

    for (auto &strand : strands_) {
        if (strand->thread_.joinable())
            strand->thread_.join();
    }
}

void
EventLoop::resume(Strand &strand)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (!strand.started_) {
        strand.started_ = true;
        strand.thread_ = std::thread([this, &strand] { strandMain(strand); });
    }
    strand.state_ = Strand::State::Running;
    strand.baton_ = true;
    strand.cv_.notify_one();
    controller_cv_.wait(lock, [&strand] { return !strand.baton_; });
}

void
EventLoop::strandMain(Strand &strand)
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        strand.cv_.wait(lock, [&strand] { return strand.baton_; });
    }
    strand.body_();
    {
        std::unique_lock<std::mutex> lock(mu_);
        strand.state_ = Strand::State::Done;
        strand.baton_ = false;
    }
    controller_cv_.notify_one();
}

double
EventLoop::block(Strand &strand)
{
    std::unique_lock<std::mutex> lock(mu_);
    strand.state_ = Strand::State::Blocked;
    strand.baton_ = false;
    controller_cv_.notify_one();
    strand.cv_.wait(lock, [&strand] { return strand.baton_; });
    return strand.ready_at_ns_;
}

void
EventLoop::wake(Strand &strand, double at_ns)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        NOL_ASSERT(strand.state_ == Strand::State::Blocked,
                   "wake of strand \"%s\" which is not blocked",
                   strand.name_.c_str());
        strand.state_ = Strand::State::Ready;
        strand.ready_at_ns_ = at_ns;
    }
    // wake() is only called from controller-side event code, so the
    // ready heap needs no lock (the mutex above guards the strand's
    // baton handshake, not scheduler structures).
    ready_heap_.push({at_ns, strand.id_});
}

} // namespace nol::sim
