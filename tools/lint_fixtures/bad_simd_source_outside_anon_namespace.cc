// dash-lint-fixture-as: src/core/kernels/stats_kernels_fixture.cc
// Fixture: the shared SIMD kernel source included outside an anonymous
// namespace (DL006). Its template instances would get external
// linkage, so the linker could pick one ISA unit's instance for the
// other unit's callers. The include inside `namespace {` is accepted.
// EXPECT-LINT: DL006@11

namespace dash {
namespace kernels {

#include "core/kernels/stats_kernels_simd.inc"

namespace {
#include "core/kernels/stats_kernels_simd.inc"
}  // namespace

}  // namespace kernels
}  // namespace dash

#include "core/kernels/stats_kernels_simd.inc"  // dash-lint: disable=DL006
