#include "profile/profiler.hpp"

#include <array>
#include <unordered_map>
#include <unordered_set>

#include "interp/externals.hpp"

namespace nol::profile {

const RegionProfile *
ProfileResult::byName(const std::string &name) const
{
    auto it = regions.find(name);
    return it == regions.end() ? nullptr : &it->second;
}

double
ProfileResult::coverage(const std::string &name) const
{
    const RegionProfile *region = byName(name);
    if (region == nullptr || totalNs <= 0)
        return 0.0;
    return region->execNs / totalNs;
}

namespace {

/** A region's profile and the page set behind its memPages. */
struct Region {
    RegionProfile profile;
    std::unordered_set<uint64_t> pages; ///< unique pages touched
    bool active = false; ///< its timed activation is on the stack
};

/** Live activation of a region on the tracking stack. */
struct Activation {
    Region *region = nullptr;
    double startNs = 0;
    bool timed = false; ///< false for recursive re-entry (time not doubled)
    int callDepth = 0;  ///< guest call depth at activation (for unwinding)
};

/**
 * Drives an interpreter run with region-tracking hooks. They run only
 * at region edges — call boundaries, loop entries and loop exits — and
 * on each page touch, where a filter skips every page already recorded
 * since the last push.
 */
class ProfilingSession
{
  public:
    ProfilingSession(const ir::Module &module, sim::SimMachine &machine)
        : module_(module), machine_(machine)
    {
        // Pre-index loops by header block; regions resolve on first entry.
        for (const auto &fn : module.functions()) {
            for (const ir::LoopMeta &loop : fn->loops())
                loops_[loop.header] = {&loop, nullptr};
        }
    }

    ProfileResult
    run(const std::string &entry)
    {
        interp::ProgramImage image = interp::loadProgram(module_, machine_);
        interp::DefaultEnv env;
        interp::Interp interp(machine_, module_, image, env);

        interp.hooks().callBoundary = [&](const ir::Function *fn,
                                          bool entering) {
            if (entering) {
                ++call_depth_;
                Region *&region = fn_regions_[fn];
                if (region == nullptr)
                    region = regionFor(fn, nullptr);
                pushRegion(region, call_depth_);
            } else {
                // Pop loop activations abandoned by an early return,
                // then the function activation itself.
                while (!stack_.empty() &&
                       stack_.back().callDepth >= call_depth_) {
                    popRegion();
                }
                --call_depth_;
            }
        };

        interp.hooks().loopEdge = [&](const ir::Function *fn,
                                      const ir::BasicBlock *to,
                                      const ir::BasicBlock *from) {
            // Loop exit: innermost active loop whose exit block is hit.
            if (!stack_.empty() && stack_.back().region->profile.isLoop &&
                stack_.back().region->profile.loop->exit == to &&
                stack_.back().callDepth == call_depth_) {
                popRegion();
            }
            // Loop entry: header reached from its preheader.
            auto it = loops_.find(to);
            if (it != loops_.end() && it->second.loop->preheader == from) {
                if (it->second.region == nullptr)
                    it->second.region = regionFor(fn, it->second.loop);
                pushRegion(it->second.region, call_depth_);
            }
        };

        // Every activation on the stack records the page. The stack only
        // shrinks between pushes, so a page recorded since the last push
        // is already in every set the walk would insert it into.
        machine_.mem().setTouchObserver([&](uint64_t page_num) {
            RecordedPage &seen = recorded_[page_num % kRecordedPages];
            if (seen.page == page_num && seen.push == pushes_)
                return;
            seen = {page_num, pushes_};
            for (Activation &act : stack_) {
                if (act.region->pages.insert(page_num).second)
                    ++act.region->profile.memPages;
            }
        });

        ir::Function *entry_fn = module_.functionByName(entry);
        if (entry_fn == nullptr)
            fatal("profiling entry function '%s' not found", entry.c_str());

        ProfileResult result;
        result.exitValue = interp.call(entry_fn, {}).i;

        // Close any regions still open (exit() mid-run).
        while (!stack_.empty())
            popRegion();

        machine_.mem().setTouchObserver(nullptr);
        result.totalNs = machine_.nowNs();
        for (auto &[name, region] : regions_)
            result.regions.emplace(name, std::move(region.profile));
        return result;
    }

  private:
    /** A loop and its region, once entered. */
    struct Loop {
        const ir::LoopMeta *loop = nullptr;
        Region *region = nullptr;
    };

    /** Direct-mapped filter slot: a page and the push count when the
     *  stack last recorded it. */
    struct RecordedPage {
        uint64_t page = ~0ull;
        uint64_t push = 0;
    };
    static constexpr size_t kRecordedPages = 256;

    Region *
    regionFor(const ir::Function *fn, const ir::LoopMeta *loop)
    {
        std::string name = loop != nullptr ? loop->name : fn->name();
        auto [it, inserted] = regions_.try_emplace(name);
        if (inserted) {
            RegionProfile &profile = it->second.profile;
            profile.name = name;
            profile.isLoop = loop != nullptr;
            profile.fn = fn;
            profile.loop = loop;
        }
        return &it->second;
    }

    void
    pushRegion(Region *region, int depth)
    {
        ++region->profile.invocations;
        bool already_active = region->active;
        region->active = true;
        stack_.push_back(
            {region, machine_.nowNs(), !already_active, depth});
        ++pushes_;
    }

    void
    popRegion()
    {
        Activation act = stack_.back();
        stack_.pop_back();
        if (act.timed) {
            act.region->profile.execNs += machine_.nowNs() - act.startNs;
            act.region->active = false;
        }
    }

    const ir::Module &module_;
    sim::SimMachine &machine_;
    std::unordered_map<const ir::BasicBlock *, Loop> loops_;
    std::unordered_map<const ir::Function *, Region *> fn_regions_;
    std::map<std::string, Region> regions_;
    std::vector<Activation> stack_;
    int call_depth_ = 0;
    uint64_t pushes_ = 0;
    std::array<RecordedPage, kRecordedPages> recorded_{};
};

} // namespace

ProfileResult
profileModule(const ir::Module &module, const arch::ArchSpec &spec,
              const ProfileInput &input, const std::string &entry)
{
    sim::SimMachine machine(sim::MachineRole::Mobile, spec);
    machine.setInput(input.stdinText);
    for (const auto &[path, contents] : input.files)
        machine.fs().putFile(path, contents);
    ProfilingSession session(module, machine);
    return session.run(entry);
}

} // namespace nol::profile
