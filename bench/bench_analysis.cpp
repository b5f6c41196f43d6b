/**
 * @file
 * Analysis-framework bench: for all 17 workloads + chess, reports the
 * points-to graph shape (nodes, objects, edges, fixpoint passes), the
 * machine-specific function count and — the paper payoff — how much
 * the analysis shrinks what must be shipped to the server versus the
 * conservative call-graph treatment: UVA-resident globals (Sec. 3.2)
 * and the function-pointer translation map (Sec. 3.4). Also re-runs
 * the offload-safety verifier so the shrink numbers are only reported
 * on partitions it accepts, and exits 1 if it rejects any. Results
 * land in BENCH_analysis.json next to the table.
 *
 * Every shrink number is quoted field-sensitive next to its
 * field-insensitive oracle so the table shows what the per-field
 * dimension buys. The output is deterministic; the analysis passes'
 * host time is perfbench's compiler.*_s.
 */
#include <cstdio>

#include "analysis/pointsto.hpp"
#include "analysis/taint.hpp"
#include "bench/benchlib.hpp"
#include "support/strings.hpp"

using namespace nol;
using namespace nol::bench;

namespace {

struct Row {
    std::string id;
    analysis::PointsToStats stats;
    size_t taintedFns = 0;
    size_t uvaGlobals = 0;
    size_t uvaGlobalsInsensitive = 0;
    size_t uvaGlobalsConservative = 0;
    size_t uvaPages = 0;
    size_t uvaPagesInsensitive = 0;
    size_t uvaFieldLimited = 0;
    size_t totalGlobals = 0;
    size_t fptrMap = 0;
    size_t fptrMapInsensitive = 0;
    size_t fptrMapConservative = 0;
    size_t diagnostics = 0;
    bool verified = false;
};

Row
measure(const workloads::WorkloadSpec &spec)
{
    Row row;
    row.id = spec.id;
    core::Program program = compileWorkload(spec);
    const compiler::CompiledProgram &prog = program.compiled();
    // The field-insensitive oracle compile supplies the *-flat counts.
    core::Program flat_program = compileWorkload(spec, false);
    const compiler::CompiledProgram &flat = flat_program.compiled();

    // Re-run the analysis stack over the unified module for its shape.
    analysis::PointsToResult pts = analysis::analyzePointsTo(*prog.unified);
    row.stats = pts.stats();
    row.taintedFns =
        analysis::machineSpecificTaint(*prog.unified, pts, {}).members().size();

    row.uvaGlobals = prog.unifyStats.uvaGlobals;
    row.uvaGlobalsInsensitive = flat.unifyStats.uvaGlobals;
    row.uvaGlobalsConservative = prog.unifyStats.uvaGlobalsConservative;
    row.uvaPages = prog.unifyStats.uvaPages;
    row.uvaPagesInsensitive = flat.unifyStats.uvaPages;
    row.uvaFieldLimited = prog.unifyStats.uvaFieldLimitedGlobals;
    row.totalGlobals = prog.unifyStats.totalGlobals;
    row.fptrMap = prog.partition.fptrMap.size();
    row.fptrMapInsensitive = flat.partition.fptrMap.size();
    row.fptrMapConservative = prog.partition.fptrMapConservative;

    support::DiagnosticEngine engine = program.verify();
    row.diagnostics = engine.size();
    row.verified = !engine.hasErrors();
    return row;
}

} // namespace

int
main()
{
    std::printf("=== Analysis framework: cost and shrink vs the "
                "conservative call graph ===\n");
    std::printf("UVA globals / fptr map: points-to-refined size vs what "
                "the address-taken fallback ships\n\n");

    std::vector<workloads::WorkloadSpec> specs = workloads::allWorkloads();
    specs.push_back(workloads::makeChess(3));

    std::vector<Row> rows;
    for (const auto &spec : specs)
        rows.push_back(measure(spec));

    TextTable table;
    table.header({"Program", "nodes", "slots",
                  "edges", "passes", "tainted", "UVA", "UVA-flat",
                  "UVA-cons", "pages", "pg-flat", "fld-lim", "fptr",
                  "fptr-flat", "verified"});
    size_t shrunk = 0;
    size_t field_shrunk = 0;
    for (const Row &row : rows) {
        bool shrank = row.uvaGlobals < row.uvaGlobalsConservative ||
                      row.fptrMap < row.fptrMapConservative;
        shrunk += shrank ? 1 : 0;
        field_shrunk += (row.uvaGlobals < row.uvaGlobalsInsensitive ||
                         row.uvaPages < row.uvaPagesInsensitive)
                            ? 1
                            : 0;
        table.row({row.id, std::to_string(row.stats.nodes),
                   std::to_string(row.stats.fieldSlots),
                   std::to_string(row.stats.totalEdges),
                   std::to_string(row.stats.iterations),
                   std::to_string(row.taintedFns),
                   std::to_string(row.uvaGlobals),
                   std::to_string(row.uvaGlobalsInsensitive),
                   std::to_string(row.uvaGlobalsConservative),
                   std::to_string(row.uvaPages),
                   std::to_string(row.uvaPagesInsensitive),
                   std::to_string(row.uvaFieldLimited),
                   std::to_string(row.fptrMap),
                   std::to_string(row.fptrMapInsensitive),
                   row.verified ? "yes" : "NO"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("points-to shrank the shipped set on %zu of %zu "
                "programs; the field dimension alone shrank %zu\n\n",
                shrunk, rows.size(), field_shrunk);

    FILE *json = std::fopen("BENCH_analysis.json", "w");
    NOL_ASSERT(json != nullptr, "cannot write BENCH_analysis.json");
    std::fprintf(json, "{\n  \"programs\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        std::fprintf(
            json,
            "    {\"id\": \"%s\", "
            "\"pts_nodes\": %zu, \"pts_objects\": %zu, "
            "\"pts_field_slots\": %zu, "
            "\"pts_edges\": %zu, \"pts_max_set\": %zu, "
            "\"pts_passes\": %zu, \"tainted_fns\": %zu, "
            "\"uva_globals\": %zu, \"uva_globals_insensitive\": %zu, "
            "\"uva_globals_conservative\": %zu, "
            "\"uva_pages\": %zu, \"uva_pages_insensitive\": %zu, "
            "\"uva_field_limited\": %zu, "
            "\"total_globals\": %zu, \"fptr_map\": %zu, "
            "\"fptr_map_insensitive\": %zu, "
            "\"fptr_map_conservative\": %zu, \"diagnostics\": %zu, "
            "\"verified\": %s}%s\n",
            row.id.c_str(), row.stats.nodes, row.stats.objects, row.stats.fieldSlots,
            row.stats.totalEdges, row.stats.maxSetSize,
            row.stats.iterations, row.taintedFns, row.uvaGlobals,
            row.uvaGlobalsInsensitive, row.uvaGlobalsConservative,
            row.uvaPages, row.uvaPagesInsensitive, row.uvaFieldLimited,
            row.totalGlobals, row.fptrMap, row.fptrMapInsensitive,
            row.fptrMapConservative, row.diagnostics,
            row.verified ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_analysis.json\n");

    // Any unverified partition is a bench failure: the shrink numbers
    // only count on partitions the safety verifier accepts.
    for (const Row &row : rows) {
        if (!row.verified)
            return 1;
    }
    return 0;
}
