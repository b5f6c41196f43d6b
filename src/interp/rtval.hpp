/**
 * @file
 * Runtime value representation of the interpreter. Integer and pointer
 * values live in `i` (integers canonically sign-extended from their
 * declared width; pointers zero-extended addresses); floating values
 * live in `f` as doubles (f32 values round through float at each
 * operation).
 */
#ifndef NOL_INTERP_RTVAL_HPP
#define NOL_INTERP_RTVAL_HPP

#include <cstdint>

namespace nol::interp {

/** One dynamic value. */
struct RtVal {
    int64_t i = 0;
    double f = 0.0;

    static RtVal
    ofInt(int64_t v)
    {
        RtVal out;
        out.i = v;
        return out;
    }

    static RtVal
    ofFloat(double v)
    {
        RtVal out;
        out.f = v;
        return out;
    }

    static RtVal
    ofPtr(uint64_t addr)
    {
        RtVal out;
        out.i = static_cast<int64_t>(addr);
        return out;
    }

    uint64_t ptr() const { return static_cast<uint64_t>(i); }
};

} // namespace nol::interp

#endif // NOL_INTERP_RTVAL_HPP
