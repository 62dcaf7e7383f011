/**
 * @file
 * Test helpers for running code under each kernel backend, shared by
 * the kernel equivalence suite (tests/test_kernels.cc) and the FEC
 * suite (tests/test_fec.cc), whose Viterbi decoder dispatches through
 * the same table.
 */

#ifndef M4PS_TESTS_KERNEL_BACKENDS_HH
#define M4PS_TESTS_KERNEL_BACKENDS_HH

#include <vector>

#include "codec/kernels/kernels.hh"

namespace m4ps::testing_kernels
{

namespace kn = codec::kernels;

/** Restores the previously active backend when a test scope ends. */
class ScopedKernels
{
  public:
    explicit ScopedKernels(kn::Isa isa) : prev_(kn::activeIsa())
    {
        kn::select(kn::isaName(isa));
    }
    ~ScopedKernels() { kn::select(kn::isaName(prev_)); }

  private:
    kn::Isa prev_;
};

/** Backends other than scalar this host can actually run. */
inline std::vector<kn::Isa>
simdBackends()
{
    std::vector<kn::Isa> out;
    for (kn::Isa isa : kn::compiledIsas()) {
        if (isa != kn::Isa::Scalar && kn::hostSupports(isa))
            out.push_back(isa);
    }
    return out;
}

} // namespace m4ps::testing_kernels

#endif // M4PS_TESTS_KERNEL_BACKENDS_HH
