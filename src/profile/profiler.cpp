#include "profile/profiler.hpp"

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

/** Live activation of a region on the tracking stack. */
struct Activation {
    RegionProfile *region = nullptr;
    double startNs = 0;
    bool timed = false; ///< false for recursive re-entry (time not doubled)
    int callDepth = 0;  ///< guest call depth at activation (for unwinding)
};

/** Drives an interpreter run with region-tracking hooks. */
class ProfilingSession
{
  public:
    ProfilingSession(const ir::Module &module, sim::SimMachine &machine)
        : module_(module), machine_(machine)
    {
        // Pre-index loops by (function, header block).
        for (const auto &fn : module.functions()) {
            for (const ir::LoopMeta &loop : fn->loops())
                loop_by_header_[loop.header] = &loop;
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
                pushRegion(regionFor(fn, nullptr), call_depth_);
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

        interp.hooks().blockEntry = [&](const ir::Function *fn,
                                        const ir::BasicBlock *to,
                                        const ir::BasicBlock *from) {
            (void)fn;
            // Loop exit: innermost active loop whose exit block is hit.
            if (!stack_.empty() && stack_.back().region->isLoop &&
                stack_.back().region->loop->exit == to &&
                stack_.back().callDepth == call_depth_) {
                popRegion();
            }
            // Loop entry: header reached from its preheader.
            auto it = loop_by_header_.find(to);
            if (it != loop_by_header_.end() &&
                it->second->preheader == from) {
                pushRegion(regionFor(fn, it->second), call_depth_);
            }
        };

        machine_.mem().setTouchObserver(
            [&](uint64_t page_num, bool is_write) {
                (void)is_write;
                for (Activation &act : stack_) {
                    auto [iter, inserted] =
                        touched_[act.region].insert(page_num);
                    if (inserted)
                        ++act.region->memPages;
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
        result.regions = std::move(regions_);
        return result;
    }

  private:
    RegionProfile *
    regionFor(const ir::Function *fn, const ir::LoopMeta *loop)
    {
        std::string name = loop != nullptr ? loop->name : fn->name();
        auto it = regions_.find(name);
        if (it == regions_.end()) {
            RegionProfile region;
            region.name = name;
            region.isLoop = loop != nullptr;
            region.fn = fn;
            region.loop = loop;
            it = regions_.emplace(name, std::move(region)).first;
        }
        return &it->second;
    }

    void
    pushRegion(RegionProfile *region, int depth)
    {
        ++region->invocations;
        bool already_active = active_.count(region) != 0;
        active_.insert(region);
        stack_.push_back(
            {region, machine_.nowNs(), !already_active, depth});
    }

    void
    popRegion()
    {
        Activation act = stack_.back();
        stack_.pop_back();
        if (act.timed) {
            act.region->execNs += machine_.nowNs() - act.startNs;
            active_.erase(act.region);
        }
    }

    const ir::Module &module_;
    sim::SimMachine &machine_;
    std::unordered_map<const ir::BasicBlock *, const ir::LoopMeta *>
        loop_by_header_;
    std::map<std::string, RegionProfile> regions_;
    std::vector<Activation> stack_;
    std::unordered_set<RegionProfile *> active_;
    std::unordered_map<RegionProfile *, std::unordered_set<uint64_t>>
        touched_;
    int call_depth_ = 0;
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
