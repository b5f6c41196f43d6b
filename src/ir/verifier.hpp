/**
 * @file
 * Structural and type checks on IR modules. The verifier runs after
 * the front end and after every compiler transformation; a verification
 * failure is always an internal bug (panic), never a user error.
 *
 * One of its rules is also what both execution backends require of
 * every function they run: each use of a value is dominated by its
 * definition. Each backend asserts it, with assertRunnable(), when it
 * first decodes or lowers a function.
 */
#ifndef NOL_IR_VERIFIER_HPP
#define NOL_IR_VERIFIER_HPP

#include <string>
#include <vector>

#include "ir/module.hpp"

namespace nol::ir {

/** Check @p module; returns the list of problems (empty = valid). */
std::vector<std::string> verifyModule(const Module &module);

/** Check @p module and panic with the first problem if invalid. */
void verifyModuleOrDie(const Module &module);

/** An operand that names no value available where it is used. */
struct UndefinedUse {
    const Instruction *user = nullptr;
    const Value *value = nullptr;
};

/**
 * Every operand of @p fn, in block and operand order, that is an
 * argument or instruction but not a value of @p fn there: it belongs
 * to another function, it is an instruction that yields nothing, or
 * its definition does not dominate the use (an instruction dominates
 * the later ones of its block and every block its block dominates).
 * A use in a block the entry cannot reach is exempt from dominance,
 * since it never runs.
 */
std::vector<UndefinedUse> undefinedUses(const Function &fn);

/**
 * Panic unless @p fn can run: every block ends in exactly one
 * terminator whose successors are blocks of @p fn, and undefinedUses()
 * is empty ("use of undefined value '<name>'").
 */
void assertRunnable(const Function &fn);

} // namespace nol::ir

#endif // NOL_IR_VERIFIER_HPP
