// dash-lint-fixture-as: src/linalg/vector_ops.cc
// Fixture: a GCC/Clang vector-extension type outside src/core/kernels/
// (DL006). Without a per-file target flag it silently compiles to
// narrow code, and under the default -ffp-contract the compiler may
// fuse its multiply-adds and break bit-identity.
// EXPECT-LINT: DL006@9
// EXPECT-LINT: DL006@10

typedef double Vec4 __attribute__((vector_size(32)));
typedef double Float4 __attribute__((ext_vector_type(4)));

namespace dash {
// A comment naming vector_size(32) is not a finding.
static double Dot(Vec4 a, Vec4 b) {
  const Vec4 p = a * b;
  return p[0] + p[1] + p[2] + p[3];
}
}  // namespace dash
