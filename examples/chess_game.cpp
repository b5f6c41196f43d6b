/**
 * @file
 * The paper's running example (Fig. 3): a chess game whose interactive
 * getPlayerTurn stays on the device while getAITurn — discovered
 * automatically — runs on the server. Plays a short scripted game at
 * several difficulty levels and shows how the AI's thinking time drops
 * when offloaded, reproducing the Sec. 1 motivation ("mobile users
 * suffer more than 5x longer waiting time ... or play with a stupider
 * AI").
 *
 * Build & run:  cmake --build build && ./build/examples/chess_game
 */
#include <cstdio>

#include "core/nativeoffloader.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

using namespace nol;

int
main()
{
    std::printf("Chess with an offloaded AI (the paper's Fig. 3 "
                "example)\n");
    std::printf("====================================================\n\n");

    TextTable table;
    table.header({"Difficulty", "local AI (s)", "offloaded AI (s)",
                  "speedup", "offloads"});
    for (int difficulty : {5, 6, 7, 8}) {
        workloads::WorkloadSpec chess = workloads::makeChess(difficulty);

        core::CompileRequest request;
        request.name = "chess";
        request.source = chess.source;
        request.profilingInput = chess.profilingInput;
        core::Program program = core::Program::compile(request);

        const runtime::RunInput &input = chess.evalInput;

        runtime::RunReport local = program.runLocal(input);
        runtime::RunReport off =
            program.run(runtime::SystemConfig{}, input);

        if (local.console != off.console) {
            std::printf("ERROR: game transcripts diverge at difficulty "
                        "%d\n", difficulty);
            return 1;
        }
        table.row({std::to_string(difficulty),
                   fixed(local.mobileSeconds, 2),
                   fixed(off.mobileSeconds, 2),
                   fixed(local.mobileSeconds / off.mobileSeconds, 2) + "x",
                   std::to_string(off.offloads)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("The offloaded game stays responsive as difficulty grows\n"
                "— the user keeps the smarter AI without the wait.\n");
    return 0;
}
