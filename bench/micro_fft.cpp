// google-benchmark microbenchmarks of the FFT substrate on the host:
// mixed-radix vs Bluestein dispatch (each case labelled by the path it
// takes), R2C transforms, and the padded-length trade-off (2 N_t vs
// next-pow-2) the circulant embedding creates.
#include <benchmark/benchmark.h>

#include "fft/complex_engine.hpp"
#include "fft/real_engine.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace {

using namespace fftmv;

void BM_ComplexFft(benchmark::State& state) {
  const index_t n = state.range(0);
  fft::ComplexFftEngine<double> eng(n);
  fft::FftScratch<double> scratch;
  util::Rng rng(1);
  std::vector<cdouble> x(static_cast<std::size_t>(n)), y(x.size());
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) {
    eng.transform(x.data(), y.data(), -1, scratch);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel(eng.uses_bluestein() ? "bluestein" : "mixed-radix");
  state.SetItemsProcessed(state.iterations() * n);
}
// 2310 = 2*3*5*7*11 keeps the remaining Bluestein cost visible.
BENCHMARK(BM_ComplexFft)
    ->Arg(256)->Arg(1000)->Arg(1024)->Arg(2000)->Arg(2048)->Arg(2310);

void BM_RealFftForward(benchmark::State& state) {
  const index_t L = state.range(0);
  fft::RealFftEngine<double> eng(L);
  fft::FftScratch<double> scratch;
  util::Rng rng(2);
  std::vector<double> x(static_cast<std::size_t>(L));
  std::vector<cdouble> X(static_cast<std::size_t>(eng.spectrum_size()));
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    eng.forward(x.data(), X.data(), scratch);
    benchmark::DoNotOptimize(X.data());
  }
  state.SetItemsProcessed(state.iterations() * L);
}
BENCHMARK(BM_RealFftForward)->Arg(512)->Arg(2000)->Arg(2048)->Arg(4096);

// The pipeline pads to L = 2 N_t (paper) which is rarely a power of
// two; padding further to next_pow2 would trade a mixed-radix length
// for a power of two at a larger size.  This benchmark quantifies that
// choice for the paper's N_t = 1000.
void BM_PaddingChoice(benchmark::State& state) {
  const index_t L = state.range(0);  // 2000 (paper) or 2048 (pow2)
  fft::RealFftEngine<double> eng(L);
  fft::FftScratch<double> scratch;
  util::Rng rng(3);
  std::vector<double> x(static_cast<std::size_t>(L), 0.0);
  for (index_t i = 0; i < 1000; ++i) x[static_cast<std::size_t>(i)] = rng.uniform(-1, 1);
  std::vector<cdouble> X(static_cast<std::size_t>(eng.spectrum_size()));
  for (auto _ : state) {
    eng.forward(x.data(), X.data(), scratch);
    benchmark::DoNotOptimize(X.data());
  }
}
BENCHMARK(BM_PaddingChoice)->Arg(2000)->Arg(2048);

void BM_FloatVsDouble(benchmark::State& state) {
  const index_t L = 2048;
  if (state.range(0) == 4) {
    fft::RealFftEngine<float> eng(L);
    fft::FftScratch<float> scratch;
    std::vector<float> x(static_cast<std::size_t>(L), 0.5f);
    std::vector<cfloat> X(static_cast<std::size_t>(eng.spectrum_size()));
    for (auto _ : state) {
      eng.forward(x.data(), X.data(), scratch);
      benchmark::DoNotOptimize(X.data());
    }
  } else {
    fft::RealFftEngine<double> eng(L);
    fft::FftScratch<double> scratch;
    std::vector<double> x(static_cast<std::size_t>(L), 0.5);
    std::vector<cdouble> X(static_cast<std::size_t>(eng.spectrum_size()));
    for (auto _ : state) {
      eng.forward(x.data(), X.data(), scratch);
      benchmark::DoNotOptimize(X.data());
    }
  }
  state.SetLabel(state.range(0) == 4 ? "float" : "double");
}
BENCHMARK(BM_FloatVsDouble)->Arg(4)->Arg(8);

}  // namespace
