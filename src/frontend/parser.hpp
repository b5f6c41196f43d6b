/**
 * @file
 * Recursive-descent parser for MiniC. Tracks typedef names to
 * disambiguate declarations from expressions (the classic C lexer hack,
 * kept inside the parser); it evaluates nothing, and codegen types and
 * folds what it builds.
 */
#ifndef NOL_FRONTEND_PARSER_HPP
#define NOL_FRONTEND_PARSER_HPP

#include <memory>
#include <string>
#include <string_view>

#include "frontend/ast.hpp"

namespace nol::frontend {

/**
 * How deep a program may nest: each statement, initializer, prefix
 * operator, parenthesis, call argument and conditional branch inside
 * another counts a level, and so does each binary or postfix operator
 * applied to a previous result and each pointer, array or function
 * level of a declarator. It bounds the depth of the AST and its types,
 * and with it the host-stack recursion of the parser, the lowering and
 * the AST's destructor. C11 5.2.4.1 asks for 63 levels of parentheses
 * and 127 of blocks.
 */
constexpr int kMaxNesting = 256;

/** Parse @p source into an AST; throws FatalError on syntax errors and
 *  on nesting deeper than kMaxNesting. */
std::unique_ptr<TranslationUnit> parse(std::string_view source,
                                       const std::string &unit_name);

} // namespace nol::frontend

#endif // NOL_FRONTEND_PARSER_HPP
