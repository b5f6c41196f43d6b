/*
 * The semantics of every guest operation, written once for both
 * execution engines. The interpreter includes this header as C++; the
 * C emitter pastes its text into every generated module and emits a
 * call per operation, so the two engines run the same definitions.
 *
 * Values are canonical: an integer is an int64 sign-extended from its
 * width w (a compare's i1 result is 0 or 1), a pointer a zero-extended
 * address, and a float a double (an f32 value is rounded through float
 * at each operation).
 *
 * The text must compile as C and as C++, and no helper may reach
 * undefined behaviour on any operand: the host compiler folds a
 * generated module's constant operands, and a fold of undefined
 * behaviour need not agree with the run-time result.
 */
#ifndef NOL_INTERP_GUESTOPS_H
#define NOL_INTERP_GUESTOPS_H

#include <stdint.h>
#include <string.h>

/* Guest traps; 0 is none. ExecBackend::raiseTrap words each one. */
enum {
    NOL_TRAP_NONE = 0,
    NOL_TRAP_DIV_ZERO = 1,
    NOL_TRAP_REM_ZERO = 2,
    NOL_TRAP_STACK_OVERFLOW = 3,
    NOL_TRAP_UNREACHABLE = 4
};

/* All-ones mask of the low bits (bits in [1, 64]). */
static inline uint64_t nol_mask(uint32_t bits) {
    return bits >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << bits) - 1;
}

/* Sign-extend the low bits of v to 64 bits. */
static inline int64_t nol_sext(uint64_t v, uint32_t bits) {
    uint64_t m;
    if (bits >= 64) return (int64_t)v;
    m = (uint64_t)1 << (bits - 1);
    return (int64_t)(((v & nol_mask(bits)) ^ m) - m);
}

/* The low w bits of a, zero-extended. */
static inline uint64_t nol_low(int64_t a, uint32_t w) {
    return (uint64_t)a & nol_mask(w);
}

/* ---- Integer arithmetic at width w -------------------------------------
 * Arithmetic wraps: it runs on uint64, where overflow is defined, and
 * sign-extends the result. A shift count is taken modulo w. */
static inline int64_t nol_add(int64_t a, int64_t b, uint32_t w) {
    return nol_sext((uint64_t)a + (uint64_t)b, w);
}
static inline int64_t nol_sub(int64_t a, int64_t b, uint32_t w) {
    return nol_sext((uint64_t)a - (uint64_t)b, w);
}
static inline int64_t nol_mul(int64_t a, int64_t b, uint32_t w) {
    return nol_sext((uint64_t)a * (uint64_t)b, w);
}
static inline int64_t nol_and(int64_t a, int64_t b, uint32_t w) {
    return nol_sext((uint64_t)(a & b), w);
}
static inline int64_t nol_or(int64_t a, int64_t b, uint32_t w) {
    return nol_sext((uint64_t)(a | b), w);
}
static inline int64_t nol_xor(int64_t a, int64_t b, uint32_t w) {
    return nol_sext((uint64_t)(a ^ b), w);
}
static inline uint32_t nol_shift_count(int64_t b, uint32_t w) {
    return (uint32_t)(nol_low(b, w) & (w == 1 ? 0 : w - 1));
}
static inline int64_t nol_shl(int64_t a, int64_t b, uint32_t w) {
    return nol_sext(nol_low(a, w) << nol_shift_count(b, w), w);
}
static inline int64_t nol_lshr(int64_t a, int64_t b, uint32_t w) {
    return nol_sext(nol_low(a, w) >> nol_shift_count(b, w), w);
}
static inline int64_t nol_ashr(int64_t a, int64_t b, uint32_t w) {
    return nol_sext((uint64_t)(nol_sext((uint64_t)a, w) >>
                               nol_shift_count(b, w)), w);
}

/* Division and remainder store the result through out and return
 * NOL_TRAP_NONE, or return the trap of a zero divisor. Signed division
 * by -1 negates, so INT64_MIN / -1 wraps to INT64_MIN (remainder 0)
 * where the host's division would trap. Unsigned ones divide the
 * operands' low w bits. */
static inline uint32_t nol_sdiv(int64_t a, int64_t b, uint32_t w,
                                int64_t *out) {
    if (b == 0) return NOL_TRAP_DIV_ZERO;
    *out = nol_sext(b == -1 ? 0 - (uint64_t)a : (uint64_t)(a / b), w);
    return NOL_TRAP_NONE;
}
static inline uint32_t nol_srem(int64_t a, int64_t b, uint32_t w,
                                int64_t *out) {
    if (b == 0) return NOL_TRAP_REM_ZERO;
    *out = nol_sext(b == -1 ? 0 : (uint64_t)(a % b), w);
    return NOL_TRAP_NONE;
}
static inline uint32_t nol_udiv(int64_t a, int64_t b, uint32_t w,
                                int64_t *out) {
    if (nol_low(b, w) == 0) return NOL_TRAP_DIV_ZERO;
    *out = nol_sext(nol_low(a, w) / nol_low(b, w), w);
    return NOL_TRAP_NONE;
}
static inline uint32_t nol_urem(int64_t a, int64_t b, uint32_t w,
                                int64_t *out) {
    if (nol_low(b, w) == 0) return NOL_TRAP_REM_ZERO;
    *out = nol_sext(nol_low(a, w) % nol_low(b, w), w);
    return NOL_TRAP_NONE;
}

/* ---- Compares: 1 or 0 --------------------------------------------------
 * Equality and unsigned order compare the operands' low w bits (w is
 * the pointer width for pointers), signed order the canonical values.
 * Float compares are IEEE: with a NaN operand only != holds. */
static inline int64_t nol_icmp_eq(int64_t a, int64_t b, uint32_t w) {
    return nol_low(a, w) == nol_low(b, w);
}
static inline int64_t nol_icmp_ne(int64_t a, int64_t b, uint32_t w) {
    return nol_low(a, w) != nol_low(b, w);
}
static inline int64_t nol_icmp_ult(int64_t a, int64_t b, uint32_t w) {
    return nol_low(a, w) < nol_low(b, w);
}
static inline int64_t nol_icmp_ule(int64_t a, int64_t b, uint32_t w) {
    return nol_low(a, w) <= nol_low(b, w);
}
static inline int64_t nol_icmp_ugt(int64_t a, int64_t b, uint32_t w) {
    return nol_low(a, w) > nol_low(b, w);
}
static inline int64_t nol_icmp_uge(int64_t a, int64_t b, uint32_t w) {
    return nol_low(a, w) >= nol_low(b, w);
}
static inline int64_t nol_icmp_slt(int64_t a, int64_t b, uint32_t w) {
    (void)w; return a < b;
}
static inline int64_t nol_icmp_sle(int64_t a, int64_t b, uint32_t w) {
    (void)w; return a <= b;
}
static inline int64_t nol_icmp_sgt(int64_t a, int64_t b, uint32_t w) {
    (void)w; return a > b;
}
static inline int64_t nol_icmp_sge(int64_t a, int64_t b, uint32_t w) {
    (void)w; return a >= b;
}
static inline int64_t nol_fcmp_eq(double a, double b) { return a == b; }
static inline int64_t nol_fcmp_ne(double a, double b) { return a != b; }
static inline int64_t nol_fcmp_lt(double a, double b) { return a < b; }
static inline int64_t nol_fcmp_le(double a, double b) { return a <= b; }
static inline int64_t nol_fcmp_gt(double a, double b) { return a > b; }
static inline int64_t nol_fcmp_ge(double a, double b) { return a >= b; }

/* ---- Float arithmetic: in double; an f32 result rounds through float -- */
static inline double nol_round(double r, uint32_t f32) {
    return f32 ? (double)(float)r : r;
}
static inline double nol_fadd(double a, double b, uint32_t f32) {
    return nol_round(a + b, f32);
}
static inline double nol_fsub(double a, double b, uint32_t f32) {
    return nol_round(a - b, f32);
}
static inline double nol_fmul(double a, double b, uint32_t f32) {
    return nol_round(a * b, f32);
}
static inline double nol_fdiv(double a, double b, uint32_t f32) {
    return nol_round(a / b, f32);
}

/* ---- Conversions -------------------------------------------------------
 * Trunc also serves PtrToInt: the address wraps to w bits. FPToSI
 * truncates toward zero. NaN and every value outside [-2^63, 2^63) give
 * INT64_MIN, as x86-64's cvttsd2si does; the result then wraps to w
 * bits. */
static inline int64_t nol_trunc(int64_t a, uint32_t w) {
    return nol_sext((uint64_t)a, w);
}
static inline int64_t nol_zext(int64_t a, uint32_t from, uint32_t w) {
    return nol_sext(nol_low(a, from), w);
}
static inline int64_t nol_fptosi(double x, uint32_t w) {
    int64_t r = INT64_MIN;
    if (x >= -9223372036854775808.0 && x < 9223372036854775808.0)
        r = (int64_t)x;
    return nol_sext((uint64_t)r, w);
}
static inline double nol_sitofp(int64_t a, uint32_t f32) {
    return nol_round((double)a, f32);
}
static inline double nol_fptrunc(double x) { return (double)(float)x; }
static inline int64_t nol_inttoptr(int64_t a, uint32_t ptr_bits) {
    return (int64_t)nol_low(a, ptr_bits);
}

/* ---- Float bit moves: guest memory words and float constants -------- */
static inline double nol_f64_from(uint64_t bits) {
    double d; memcpy(&d, &bits, 8); return d;
}
static inline double nol_f32_from(uint32_t bits) {
    float f; memcpy(&f, &bits, 4); return (double)f;
}
static inline uint64_t nol_f64_bits(double d) {
    uint64_t b; memcpy(&b, &d, 8); return b;
}
static inline uint32_t nol_f32_bits(double d) {
    float f = (float)d; uint32_t b; memcpy(&b, &f, 4); return b;
}

/* ---- The opcode table ----------------------------------------------------
 * Each row maps an IR opcode (ir::Opcode) to its helper; each list
 * holds one signature. Both engines expand the lists, one case per
 * opcode. */
/* int64_t (int64_t a, int64_t b, uint32_t w), w the operands' width */
#define NOL_GUEST_INT_OPS(X)                                               \
    X(Add, nol_add) X(Sub, nol_sub) X(Mul, nol_mul) X(And, nol_and)        \
    X(Or, nol_or) X(Xor, nol_xor) X(Shl, nol_shl) X(LShr, nol_lshr)        \
    X(AShr, nol_ashr) X(ICmpEq, nol_icmp_eq) X(ICmpNe, nol_icmp_ne)        \
    X(ICmpSlt, nol_icmp_slt) X(ICmpSle, nol_icmp_sle)                      \
    X(ICmpSgt, nol_icmp_sgt) X(ICmpSge, nol_icmp_sge)                      \
    X(ICmpUlt, nol_icmp_ult) X(ICmpUle, nol_icmp_ule)                      \
    X(ICmpUgt, nol_icmp_ugt) X(ICmpUge, nol_icmp_uge)
/* uint32_t (int64_t a, int64_t b, uint32_t w, int64_t *out): a trap */
#define NOL_GUEST_DIV_OPS(X)                                               \
    X(SDiv, nol_sdiv) X(SRem, nol_srem) X(UDiv, nol_udiv) X(URem, nol_urem)
/* double (double a, double b, uint32_t f32) */
#define NOL_GUEST_FLOAT_OPS(X)                                             \
    X(FAdd, nol_fadd) X(FSub, nol_fsub) X(FMul, nol_fmul) X(FDiv, nol_fdiv)
/* int64_t (double a, double b) */
#define NOL_GUEST_FCMP_OPS(X)                                              \
    X(FCmpEq, nol_fcmp_eq) X(FCmpNe, nol_fcmp_ne) X(FCmpLt, nol_fcmp_lt)   \
    X(FCmpLe, nol_fcmp_le) X(FCmpGt, nol_fcmp_gt) X(FCmpGe, nol_fcmp_ge)

#endif /* NOL_INTERP_GUESTOPS_H */
