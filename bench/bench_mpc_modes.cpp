// E8 / Table 3 — cost of the secure-sum primitive by mode and party
// count (the paper's "these SMC protocols (if needed at all!) are fast
// because they require only simple secret sharing on tiny data").
//
// google-benchmark timings of one vector aggregation per (mode, P, len),
// with the exact wire bytes attached as counters.

#include <benchmark/benchmark.h>

#include <memory>

#include "mpc/secure_sum.h"
#include "transport/inprocess_mesh.h"
#include "util/random.h"

namespace {

using namespace dash;

std::vector<Vector> MakeInputs(int parties, int64_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> inputs(static_cast<size_t>(parties),
                             Vector(static_cast<size_t>(len)));
  for (auto& v : inputs) {
    for (auto& x : v) x = rng.Uniform(-100.0, 100.0);
  }
  return inputs;
}

void RunMode(benchmark::State& state, AggregationMode mode) {
  const int parties = static_cast<int>(state.range(0));
  const int64_t len = state.range(1);
  InProcessMesh net(parties);
  SecureSumOptions opts;
  opts.mode = mode;
  opts.frac_bits = 32;
  SecureVectorSum sum(&net, opts);
  auto setup = sum.Setup();
  DASH_CHECK(setup.ok());
  const auto inputs = ToSecretInputs(MakeInputs(parties, len, 42));

  const int64_t setup_bytes = net.metrics().total_bytes();
  int64_t runs = 0;
  for (auto _ : state) {
    auto r = sum.Run(inputs);
    benchmark::DoNotOptimize(r);
    DASH_CHECK(r.ok());
    ++runs;
  }
  state.SetItemsProcessed(state.iterations() * len);
  state.counters["P"] = parties;
  state.counters["len"] = static_cast<double>(len);
  state.counters["bytes_per_run"] =
      runs > 0 ? static_cast<double>(net.metrics().total_bytes() -
                                     setup_bytes) /
                     static_cast<double>(runs)
               : 0.0;
}

void BM_SecureSumPublic(benchmark::State& state) {
  RunMode(state, AggregationMode::kPublicShare);
}
void BM_SecureSumAdditive(benchmark::State& state) {
  RunMode(state, AggregationMode::kAdditive);
}
void BM_SecureSumMasked(benchmark::State& state) {
  RunMode(state, AggregationMode::kMasked);
}
void BM_SecureSumShamir(benchmark::State& state) {
  RunMode(state, AggregationMode::kShamir);
}

#define DASH_SUM_ARGS                       \
  ->Args({3, 1000})                         \
      ->Args({3, 10000})                    \
      ->Args({8, 10000})                    \
      ->Args({16, 10000})

BENCHMARK(BM_SecureSumPublic) DASH_SUM_ARGS;
BENCHMARK(BM_SecureSumAdditive) DASH_SUM_ARGS;
BENCHMARK(BM_SecureSumMasked) DASH_SUM_ARGS;
BENCHMARK(BM_SecureSumShamir) DASH_SUM_ARGS;

// One-time masked-aggregation key agreement (the setup the steady-state
// rounds amortize away).
void BM_MaskedKeyAgreement(benchmark::State& state) {
  const int parties = static_cast<int>(state.range(0));
  for (auto _ : state) {
    InProcessMesh net(parties);
    SecureSumOptions opts;
    opts.mode = AggregationMode::kMasked;
    SecureVectorSum sum(&net, opts);
    auto r = sum.Setup();
    DASH_CHECK(r.ok());
    int64_t bytes = net.metrics().total_bytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["P"] = parties;
}
BENCHMARK(BM_MaskedKeyAgreement)->Arg(3)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
