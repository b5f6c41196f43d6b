/**
 * @file
 * Regenerates Table 3: profiling and static performance estimation of
 * the chess example. Two parts:
 *
 *  1. the paper's own profiling numbers pushed through our Equation-1
 *     estimator (exact golden reproduction of the Tideal/Tc/Tg
 *     columns), and
 *  2. our own profiler's measurements of the chess workload with the
 *     estimates computed from them.
 */
#include <cstdio>

#include "bench/benchlib.hpp"
#include "decision/model.hpp"
#include "support/strings.hpp"

using namespace nol;
using namespace nol::compiler;

int
main()
{
    std::printf("=== Table 3: profiling + static estimation (chess) ===\n");
    std::printf("estimator assumptions (paper): R = 5, BW = 80 Mbps\n\n");

    // --- Part 1: the paper's profile rows through our Eq. 1 -----------
    struct PaperRow {
        const char *name;
        double exec_s;
        int invocations;
        double mem_mb;
        double t_ideal, t_c, t_g; // the paper's printed results
    };
    const PaperRow kPaperRows[] = {
        {"runGame", 27.0, 1, 20, 21.6, 4.0, 17.6},
        {"getAITurn", 26.0, 3, 12, 20.8, 7.2, 13.6},
        {"for_i", 26.0, 3, 12, 20.8, 7.2, 13.6},
        {"for_j", 25.0, 36, 12, 20.0, 86.4, -66.4},
        {"getPlayerTurn", 1.5, 3, 10, 1.2, 6.0, -4.8},
    };

    decision::ModelParams params{5.0, 80.0};
    TextTable golden;
    golden.header({"Candidate", "Exec(s)", "Invo", "Mem(MB)", "Tideal",
                   "Tc", "Tg", "paper Tg"});
    for (const PaperRow &row : kPaperRows) {
        decision::Terms est = decision::evaluate(
            row.exec_s, static_cast<uint64_t>(row.mem_mb * 1e6),
            static_cast<uint64_t>(row.invocations), params);
        golden.row({row.name, fixed(row.exec_s, 1),
                    std::to_string(row.invocations), fixed(row.mem_mb, 0),
                    fixed(est.idealGain, 1), fixed(est.commSeconds, 1),
                    fixed(est.gain, 1), fixed(row.t_g, 1)});
    }
    std::printf("Part 1 — paper profile -> our Eq. 1 (columns must match "
                "the paper):\n%s\n", golden.render().c_str());

    // --- Part 2: our own profiling of the chess workload ---------------
    workloads::WorkloadSpec chess = workloads::makeChess(7);
    core::Program prog = bench::compileWorkload(chess);
    const auto &profile = prog.compiled().profile;
    const auto &selection = prog.compiled().selection;

    TextTable measured;
    measured.header({"Candidate", "Exec(s)", "Invo", "Mem(KB)", "Tideal",
                     "Tc", "Tg", "verdict"});
    for (const Candidate &cand : selection.candidates) {
        const auto *region = profile.byName(cand.name);
        if (region == nullptr)
            continue;
        std::string verdict =
            cand.selected ? "SELECTED"
                          : (cand.machineSpecific ? "machine-specific"
                                                  : cand.rejectReason);
        measured.row({cand.name, fixed(region->execSeconds(), 2),
                      std::to_string(region->invocations),
                      fixed(region->memBytes() / 1024.0, 0),
                      fixed(cand.estimate.idealGain, 2),
                      fixed(cand.estimate.commSeconds, 2),
                      fixed(cand.estimate.gain, 2), verdict});
    }
    std::printf("Part 2 — our profiler on the chess workload "
                "(difficulty 7):\n%s\n", measured.render().c_str());
    std::printf("(like the paper, the interactive getPlayerTurn chain is\n"
                " filtered and getAITurn is the chosen target)\n");
    return 0;
}
