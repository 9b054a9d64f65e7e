// One-dimensional complex-to-complex FFT engine.
//
// Two paths, chosen once per length at construction:
//
//  * Mixed radix (every length whose prime factors are 2, 3 and 5,
//    powers of two included): an iterative Stockham autosort network
//    over radix-4 stages first, then radix 2, 3 and 5.  Each stage is
//    a hand-written butterfly in explicit real/imaginary arithmetic
//    (no complex-multiply library calls) followed by a twiddle
//    product from a per-stage table precomputed in the constructor.
//    The paper's N_t = 1000 packs to n = 1000 = 2^3 * 5^3 and runs
//    here, as it would in the mixed-radix vendor libraries
//    (cuFFT/hipFFT/rocFFT) the paper's application calls.
//  * Bluestein's chirp-z algorithm for lengths with a prime factor
//    above 5: a length-n DFT becomes a circular convolution of
//    power-of-two length m >= 2n - 1, which runs on the same Stockham
//    network.
//
// Both give the c * eps * log2(N) rounding behaviour the paper's
// error analysis (§3.2.1, citing Van Loan) assumes.
//
// Transforms are unnormalised in both directions; callers apply the
// 1/N inverse scaling (RealFftEngine does this for the pipeline).
#pragma once

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

#include "fft/scratch.hpp"
#include "util/math.hpp"
#include "util/types.hpp"

namespace fftmv::fft {

template <class Real>
class ComplexFftEngine {
 public:
  using C = std::complex<Real>;

  explicit ComplexFftEngine(index_t n) : n_(n) {
    if (n <= 0) throw std::invalid_argument("ComplexFftEngine: n must be >= 1");
    if (Stockham::supports(n_)) {
      stockham_ = Stockham(n_);
    } else {
      build_bluestein_tables();
    }
  }

  index_t size() const { return n_; }
  bool uses_bluestein() const { return m_ != 0; }

  /// Length of the internal power-of-two convolution (0 when the
  /// direct mixed-radix path is used).  Exposed for the cost model.
  index_t bluestein_length() const { return m_; }

  /// out[k] = sum_j in[j] exp(sign 2 pi i j k / n); sign=-1 forward.
  /// `in` and `out` may alias.  Thread-safe given a caller-owned
  /// scratch.
  void transform(const C* in, C* out, int sign, FftScratch<Real>& scratch) const {
    if (sign != -1 && sign != 1) {
      throw std::invalid_argument("ComplexFftEngine: sign must be +/-1");
    }
    if (!uses_bluestein()) {
      scratch.ensure_c2c(n_);
      stockham_.run(in, out, sign, scratch);
    } else {
      bluestein(in, out, sign, scratch);
    }
  }

  /// Model flop count for one transform (used by the device cost
  /// model): 5 N log2 N for a mixed-radix length, three length-m
  /// sub-FFTs plus pointwise work for Bluestein.
  double flops_per_transform() const {
    if (!uses_bluestein()) {
      return 5.0 * static_cast<double>(n_) * std::log2(static_cast<double>(n_));
    }
    return 3.0 * 5.0 * static_cast<double>(m_) * util::log2_ceil(m_) +
           8.0 * static_cast<double>(m_);
  }

 private:
  /// a * b in explicit real/imaginary arithmetic: std::complex's
  /// operator* calls __mulsc3/__muldc3 to rescue inf/NaN operands.
  static C mul(const C& a, const C& b) {
    return C(a.real() * b.real() - a.imag() * b.imag(),
             a.real() * b.imag() + a.imag() * b.real());
  }

  /// Stockham autosort network for one 2,3,5-smooth length.  Stage t
  /// with radix r has s = r_0 * ... * r_{t-1} (the product of earlier
  /// radices) and m = n / (s r).  For p < m and q < s it reads
  /// x_j = a[q + s (p + j m)], forms the radix-r DFT y_k and writes
  /// b[q + s (r p + k)] = y_k * w^{k p}, w = exp(sign 2 pi i / (m r)),
  /// so the output lands in natural order without a bit reversal.
  class Stockham {
   public:
    Stockham() = default;

    explicit Stockham(index_t n) : n_(n) {
      index_t rest = n, s = 1;
      for (index_t r : {4, 2, 3, 5}) {
        for (; rest % r == 0; rest /= r, s *= r) {
          // tw[p (r-1) + k-1] = exp(-2 pi i k p / (m r)), m = n / (s r).
          stages_.push_back({r, twiddles_.size()});
          const index_t len = n / s;
          for (index_t p = 0; p < len / r; ++p) {
            for (index_t k = 1; k < r; ++k) {
              const double theta = -2.0 * M_PI * static_cast<double>(k * p) /
                                   static_cast<double>(len);
              twiddles_.emplace_back(static_cast<Real>(std::cos(theta)),
                                     static_cast<Real>(std::sin(theta)));
            }
          }
        }
      }
    }

    static bool supports(index_t n) {
      for (index_t f : {2, 3, 5}) {
        while (n % f == 0) n /= f;
      }
      return n == 1;
    }

    /// Needs scratch.ensure_c2c(n).  The first stage reads `in` and
    /// the last writes `out`, with ping/pong in between; a one-stage
    /// network reads every input before it writes, so `in` and `out`
    /// may alias.
    void run(const C* in, C* out, int sign, FftScratch<Real>& scratch) const {
      if (stages_.empty()) {  // n == 1
        out[0] = in[0];
        return;
      }
      if (sign == -1) {
        run_signed<false>(in, out, scratch);
      } else {
        run_signed<true>(in, out, scratch);
      }
    }

   private:
    struct Stage {
      index_t radix;
      std::size_t tw_offset;
    };

    template <bool Inv>
    void run_signed(const C* in, C* out, FftScratch<Real>& scratch) const {
      C* buf[2] = {scratch.ping.data(), scratch.pong.data()};
      const C* src = in;
      index_t s = 1;
      const std::size_t last = stages_.size() - 1;
      for (std::size_t t = 0; t <= last; ++t) {
        C* dst = (t == last) ? out : buf[t % 2];
        const Stage& st = stages_[t];
        const index_t m = n_ / (s * st.radix);
        const C* tw = twiddles_.data() + st.tw_offset;
        switch (st.radix) {
          case 4: stage<4, Inv>(src, dst, s, m, tw); break;
          case 2: stage<2, Inv>(src, dst, s, m, tw); break;
          case 3: stage<3, Inv>(src, dst, s, m, tw); break;
          default: stage<5, Inv>(src, dst, s, m, tw); break;
        }
        src = dst;
        s *= st.radix;
      }
    }

    // (a * w) with w conjugated for the inverse direction.
    template <bool Inv>
    static C twiddle(const C& a, const C& w) {
      return mul(a, Inv ? std::conj(w) : w);
    }
    // sign * i * a, sign = +1 inverse / -1 forward.
    template <bool Inv>
    static C times_si(const C& a) {
      return Inv ? C(-a.imag(), a.real()) : C(a.imag(), -a.real());
    }

    /// In-place radix-R DFT of x, exp(-2 pi i / R) roots (conjugated if Inv).
    template <int R, bool Inv>
    static void butterfly(C* x) {
      if constexpr (R == 2) {
        const C a = x[0], b = x[1];
        x[0] = a + b;
        x[1] = a - b;
      } else if constexpr (R == 4) {
        const C s02 = x[0] + x[2], d02 = x[0] - x[2];
        const C s13 = x[1] + x[3], d13 = times_si<Inv>(x[1] - x[3]);
        x[0] = s02 + s13;
        x[1] = d02 + d13;
        x[2] = s02 - s13;
        x[3] = d02 - d13;
      } else if constexpr (R == 3) {
        constexpr Real kHalf = Real(0.5);
        constexpr Real kSin = Real(0.866025403784438646763723170752936183L);
        const C t1 = x[1] + x[2];
        const C t2 = x[0] - t1 * kHalf;
        const C t3 = times_si<Inv>((x[1] - x[2]) * kSin);
        x[0] = x[0] + t1;
        x[1] = t2 + t3;
        x[2] = t2 - t3;
      } else {
        static_assert(R == 5);
        constexpr Real kC1 = Real(0.309016994374947424102293417182819059L);
        constexpr Real kC2 = Real(-0.809016994374947424102293417182819059L);
        constexpr Real kS1 = Real(0.951056516295153572116439333379382143L);
        constexpr Real kS2 = Real(0.587785252292473129168705954639072769L);
        const C a1 = x[1] + x[4], b1 = x[1] - x[4];
        const C a2 = x[2] + x[3], b2 = x[2] - x[3];
        const C e1 = x[0] + a1 * kC1 + a2 * kC2;
        const C e2 = x[0] + a1 * kC2 + a2 * kC1;
        const C o1 = times_si<Inv>(b1 * kS1 + b2 * kS2);
        const C o2 = times_si<Inv>(b1 * kS2 - b2 * kS1);
        x[0] = x[0] + a1 + a2;
        x[1] = e1 + o1;
        x[4] = e1 - o1;
        x[2] = e2 + o2;
        x[3] = e2 - o2;
      }
    }

    template <int R, bool Inv>
    static void stage(const C* a, C* b, index_t s, index_t m, const C* tw) {
      for (index_t p = 0; p < m; ++p) {
        const C* w = tw + p * (R - 1);
        const C* src = a + s * p;
        C* dst = b + s * R * p;
        for (index_t q = 0; q < s; ++q) {
          C x[R];
          for (int j = 0; j < R; ++j) x[j] = src[q + s * m * j];
          butterfly<R, Inv>(x);
          dst[q] = x[0];
          if (p == 0) {  // w^0 = 1 for every k
            for (int k = 1; k < R; ++k) dst[q + s * k] = x[k];
          } else {
            for (int k = 1; k < R; ++k) dst[q + s * k] = twiddle<Inv>(x[k], w[k - 1]);
          }
        }
      }
    }

    index_t n_ = 0;
    std::vector<Stage> stages_;
    std::vector<C> twiddles_;
  };

  void build_bluestein_tables() {
    m_ = util::next_pow2(2 * n_ - 1);
    stockham_ = Stockham(m_);

    chirp_fwd_.resize(static_cast<std::size_t>(n_));
    const double theta0 = -M_PI / static_cast<double>(n_);
    for (index_t j = 0; j < n_; ++j) {
      // exponent j^2 mod 2n keeps the argument small and exact.
      const index_t e = (j * j) % (2 * n_);
      const double theta = theta0 * static_cast<double>(e);
      chirp_fwd_[static_cast<std::size_t>(j)] =
          C(static_cast<Real>(std::cos(theta)), static_cast<Real>(std::sin(theta)));
    }
    chirp_inv_.resize(static_cast<std::size_t>(n_));
    for (index_t j = 0; j < n_; ++j) {
      chirp_inv_[static_cast<std::size_t>(j)] =
          std::conj(chirp_fwd_[static_cast<std::size_t>(j)]);
    }

    // The convolution kernel b_j = conj(chirp_j), wrapped symmetrically
    // into length m; its forward FFT is precomputed once per direction
    // (the inverse direction's chirp is the conjugate).
    FftScratch<Real> scratch;
    scratch.ensure_c2c(m_);
    auto kernel_fft = [&](const std::vector<C>& chirp, std::vector<C>& out) {
      std::vector<C> b(static_cast<std::size_t>(m_), C{});
      b[0] = std::conj(chirp[0]);
      for (index_t j = 1; j < n_; ++j) {
        const C v = std::conj(chirp[static_cast<std::size_t>(j)]);
        b[static_cast<std::size_t>(j)] = v;
        b[static_cast<std::size_t>(m_ - j)] = v;
      }
      out.resize(static_cast<std::size_t>(m_));
      stockham_.run(b.data(), out.data(), -1, scratch);
    };
    kernel_fft(chirp_fwd_, chirp_fft_fwd_);
    kernel_fft(chirp_inv_, chirp_fft_inv_);
  }

  void bluestein(const C* in, C* out, int sign, FftScratch<Real>& scratch) const {
    scratch.ensure_bluestein(m_);
    const std::vector<C>& chirp = (sign == -1) ? chirp_fwd_ : chirp_inv_;
    const std::vector<C>& bfft = (sign == -1) ? chirp_fft_fwd_ : chirp_fft_inv_;

    // a_j = x_j * chirp_j, zero padded to m.
    C* a = scratch.chirp.data();
    for (index_t j = 0; j < n_; ++j) a[j] = mul(in[j], chirp[static_cast<std::size_t>(j)]);
    for (index_t j = n_; j < m_; ++j) a[j] = C{};

    // A = FFT_m(a); pointwise multiply by FFT_m(b); inverse FFT_m.
    // The network stages through ping/pong, so in-place calls on the
    // chirp buffer are safe.
    stockham_.run(a, a, -1, scratch);
    for (index_t k = 0; k < m_; ++k) a[k] = mul(a[k], bfft[static_cast<std::size_t>(k)]);
    stockham_.run(a, a, 1, scratch);

    const Real inv_m = Real(1) / static_cast<Real>(m_);
    for (index_t k = 0; k < n_; ++k) {
      out[k] = mul(a[k], chirp[static_cast<std::size_t>(k)]) * inv_m;
    }
  }

  index_t n_;
  index_t m_ = 0;  // Bluestein convolution length; 0 = mixed-radix path
  Stockham stockham_;  // length n_, or m_ for Bluestein
  std::vector<C> chirp_fwd_, chirp_inv_;
  std::vector<C> chirp_fft_fwd_, chirp_fft_inv_;
};

}  // namespace fftmv::fft
