#include "ir/loopinfo.hpp"

#include <algorithm>

namespace nol::ir {

std::map<const BasicBlock *, std::vector<BasicBlock *>>
predecessors(const Function &fn)
{
    std::map<const BasicBlock *, std::vector<BasicBlock *>> preds;
    for (const auto &bb : fn.blocks()) {
        preds[bb.get()]; // ensure presence
        for (BasicBlock *succ : bb->successors())
            preds[succ].push_back(bb.get());
    }
    return preds;
}

DominatorTree::DominatorTree(const Function &fn) : fn_(fn)
{
    NOL_ASSERT(fn.hasBody(), "dominator tree of bodyless function %s",
               fn.name().c_str());
    const auto &blocks = fn.blocks();
    uint32_t n = static_cast<uint32_t>(blocks.size());
    index_.reserve(n);
    for (uint32_t b = 0; b < n; ++b)
        index_.emplace(blocks[b].get(), b);

    // Successors by position. An edge out of the function is the
    // verifier's to report; it adds nothing here.
    std::vector<std::vector<uint32_t>> succs(n);
    for (uint32_t b = 0; b < n; ++b) {
        const Instruction *term = blocks[b]->terminator();
        if (term == nullptr)
            continue;
        for (const BasicBlock *s : term->successors()) {
            auto it = index_.find(s);
            if (it != index_.end())
                succs[b].push_back(it->second);
        }
    }

    // Postorder numbers of the blocks the entry reaches.
    std::vector<int32_t> post(n, -1);
    std::vector<uint32_t> order;
    std::vector<std::pair<uint32_t, size_t>> stack{{0, 0}};
    std::vector<bool> seen(n, false);
    seen[0] = true;
    while (!stack.empty()) {
        auto &[b, next] = stack.back();
        if (next < succs[b].size()) {
            uint32_t s = succs[b][next++];
            if (!seen[s]) {
                seen[s] = true;
                stack.push_back({s, 0});
            }
            continue;
        }
        post[b] = static_cast<int32_t>(order.size());
        order.push_back(b);
        stack.pop_back();
    }
    std::vector<std::vector<uint32_t>> preds(n);
    for (uint32_t b : order) {
        for (uint32_t s : succs[b])
            preds[s].push_back(b);
    }

    idom_.assign(n, -1);
    idom_[0] = 0;
    for (bool changed = true; changed;) {
        changed = false;
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            uint32_t b = *it;
            if (b == 0)
                continue;
            int32_t best = -1;
            for (uint32_t p : preds[b]) {
                if (idom_[p] < 0)
                    continue; // not processed yet
                if (best < 0) {
                    best = static_cast<int32_t>(p);
                    continue;
                }
                int32_t x = static_cast<int32_t>(p), y = best;
                while (x != y) {
                    while (post[x] < post[y])
                        x = idom_[x];
                    while (post[y] < post[x])
                        y = idom_[y];
                }
                best = x;
            }
            if (idom_[b] != best) {
                idom_[b] = best;
                changed = true;
            }
        }
    }
}

uint32_t
DominatorTree::indexOf(const BasicBlock *bb) const
{
    auto it = index_.find(bb);
    NOL_ASSERT(it != index_.end(), "block %s is not in %s",
               bb->name().c_str(), fn_.name().c_str());
    return it->second;
}

BasicBlock *
DominatorTree::idom(const BasicBlock *bb) const
{
    uint32_t b = indexOf(bb);
    if (b == 0 || idom_[b] < 0)
        return nullptr;
    return fn_.blocks()[idom_[b]].get();
}

bool
DominatorTree::dominates(const BasicBlock *a, const BasicBlock *b) const
{
    int32_t target = static_cast<int32_t>(indexOf(a));
    int32_t x = static_cast<int32_t>(indexOf(b));
    if (idom_[x] < 0)
        return true;
    for (;;) {
        if (x == target)
            return true;
        if (x == 0)
            return false;
        x = idom_[x];
    }
}

std::vector<NaturalLoop>
findNaturalLoops(const Function &fn)
{
    std::vector<NaturalLoop> loops;
    if (!fn.hasBody())
        return loops;

    DominatorTree dom(fn);
    auto preds = predecessors(fn);

    // Find back edges: tail -> header where header dominates tail.
    std::map<BasicBlock *, NaturalLoop> by_header;
    for (const auto &bb : fn.blocks()) {
        if (!dom.reachable(bb.get()))
            continue;
        for (BasicBlock *succ : bb->successors()) {
            if (dom.dominates(succ, bb.get())) {
                NaturalLoop &loop = by_header[succ];
                loop.header = succ;
                loop.latches.push_back(bb.get());
            }
        }
    }

    // Loop body = header plus everything that reaches a latch without
    // passing through the header.
    for (auto &[header, loop] : by_header) {
        loop.blocks.insert(header);
        std::vector<BasicBlock *> work(loop.latches.begin(),
                                       loop.latches.end());
        while (!work.empty()) {
            BasicBlock *bb = work.back();
            work.pop_back();
            if (!loop.blocks.insert(bb).second)
                continue;
            for (BasicBlock *pred : preds[bb])
                work.push_back(pred);
        }
        for (BasicBlock *bb : loop.blocks) {
            for (BasicBlock *succ : bb->successors()) {
                if (loop.blocks.count(succ) == 0)
                    loop.exitTargets.insert(succ);
            }
        }
        loops.push_back(loop);
    }

    // Stable order: by position of header in the function.
    std::sort(loops.begin(), loops.end(),
              [&](const NaturalLoop &a, const NaturalLoop &b) {
                  return fn.blockIndex(a.header) < fn.blockIndex(b.header);
              });
    return loops;
}

} // namespace nol::ir
