#include "traffic/mix.hpp"

#include "compiler/driver.hpp"
#include "frontend/codegen.hpp"
#include "workloads/workloads.hpp"

namespace nol::traffic {

namespace {

/** Interactive-scale kernel: the common, cheap request. */
const char *kShortSrc = R"(
int cells[1024];

int spin(int rounds) {
    int acc = 0;
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < 1024; i++) {
            cells[i] = cells[i] * 3 + r + i;
            acc = acc + cells[i] % 7;
        }
    }
    return acc;
}

int main() {
    int rounds;
    scanf("%d", &rounds);
    int acc = spin(rounds);
    printf("spin=%d c0=%d\n", acc, cells[0]);
    return acc % 113;
}
)";

/** An order of magnitude heavier. */
const char *kMediumSrc = R"(
int lattice[2048];

int grind(int rounds) {
    int acc = 0;
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < 2048; i++) {
            lattice[i] = lattice[i] * 5 + r * 2 + i;
            acc = acc + lattice[i] % 11;
        }
    }
    return acc;
}

int main() {
    int rounds;
    scanf("%d", &rounds);
    int acc = grind(rounds);
    printf("grind=%d l0=%d\n", acc, lattice[0]);
    return acc % 101;
}
)";

/** The heavy tail: parks on a slot for ~100x a short job. */
const char *kLongSrc = R"(
int field[4096];

int crunch(int rounds) {
    int acc = 0;
    for (int r = 0; r < rounds; r++) {
        for (int i = 0; i < 4096; i++) {
            field[i] = field[i] * 7 + r * 3 + i;
            acc = acc + field[i] % 13;
        }
    }
    return acc;
}

int main() {
    int rounds;
    scanf("%d", &rounds);
    int acc = crunch(rounds);
    printf("crunch=%d f0=%d\n", acc, field[0]);
    return acc % 127;
}
)";

std::shared_ptr<compiler::CompiledProgram>
compileMixProgram(const char *name, const char *source,
                  const char *rounds)
{
    auto module = frontend::compileSource(source, name);
    compiler::CompileOptions options;
    // Profile on the evaluation input: the seeded Tm the decision
    // engine (and through it the SPJF policy) predicts with should
    // match what the job actually costs.
    options.profilingInput.stdinText = rounds;
    return std::make_shared<compiler::CompiledProgram>(
        compiler::compileForOffload(std::move(module), options));
}

TrafficProgram
makeClass(const std::string &name,
          const std::shared_ptr<compiler::CompiledProgram> &program,
          const net::NetworkSpec &network, const char *rounds,
          int priority)
{
    TrafficProgram cls;
    cls.name = name;
    cls.program = program.get();
    cls.config.network = network;
    cls.input.stdinText = rounds;
    cls.priority = priority;
    return cls;
}

} // namespace

BuiltinMix
makeBuiltinMix(const net::NetworkSpec &network, interp::BackendKind backend)
{
    // Service demands ~10x apart (inner-loop iterations: ~2k / ~20k /
    // ~200k), sized so thousand-arrival stress runs stay inside CI
    // budgets. Rounds double as profiling and evaluation input.
    const char *short_rounds = "2";
    const char *medium_rounds = "10";
    const char *long_rounds = "50";

    BuiltinMix mix;
    mix.owned.push_back(compileMixProgram("short", kShortSrc, short_rounds));
    mix.owned.push_back(
        compileMixProgram("medium", kMediumSrc, medium_rounds));
    mix.owned.push_back(compileMixProgram("long", kLongSrc, long_rounds));

    mix.programs.push_back(
        makeClass("short", mix.owned[0], network, short_rounds, 2));
    mix.programs.push_back(
        makeClass("medium", mix.owned[1], network, medium_rounds, 1));
    mix.programs.push_back(
        makeClass("long", mix.owned[2], network, long_rounds, 0));
    for (TrafficProgram &cls : mix.programs)
        cls.config.backend = backend;
    return mix;
}

BuiltinMix
makeSuiteMix(const net::NetworkSpec &network, interp::BackendKind backend)
{
    BuiltinMix mix;
    for (const workloads::WorkloadSpec &spec : workloads::allWorkloads()) {
        auto module = frontend::compileSource(spec.source, spec.id);
        compiler::CompileOptions options;
        options.profilingInput = spec.profilingInput;
        mix.owned.push_back(std::make_shared<compiler::CompiledProgram>(
            compiler::compileForOffload(std::move(module), options)));

        TrafficProgram cls;
        cls.name = spec.id;
        cls.program = mix.owned.back().get();
        cls.config.network = network;
        cls.config.memScale = spec.memScale;
        cls.config.backend = backend;
        cls.input = spec.evalInput;
        // Interactive-first, as in the built-in mix: workloads the
        // paper finishes fastest get admission priority over the
        // slot-parking heavy tail.
        cls.priority = spec.paper.execSeconds < 150.0
                           ? 2
                           : (spec.paper.execSeconds < 400.0 ? 1 : 0);
        mix.programs.push_back(std::move(cls));
    }
    return mix;
}

} // namespace nol::traffic
