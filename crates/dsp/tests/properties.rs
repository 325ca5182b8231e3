//! Property-based tests for the DSP front-end.

use proptest::prelude::*;
use thnt_dsp::fft::dft_reference;
use thnt_dsp::{dct_ii, fft_in_place, hz_to_mel, mel_to_hz, power_spectrum, Complex, RealFft};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fft_is_linear(
        a in proptest::collection::vec(-1.0f32..1.0, 32),
        b in proptest::collection::vec(-1.0f32..1.0, 32),
        alpha in -2.0f32..2.0,
    ) {
        // FFT(alpha·a + b) == alpha·FFT(a) + FFT(b)
        let mk = |v: &[f32]| -> Vec<Complex> { v.iter().map(|&x| Complex::new(x, 0.0)).collect() };
        let mut combo: Vec<Complex> =
            a.iter().zip(&b).map(|(&x, &y)| Complex::new(alpha * x + y, 0.0)).collect();
        fft_in_place(&mut combo);
        let mut fa = mk(&a);
        fft_in_place(&mut fa);
        let mut fb = mk(&b);
        fft_in_place(&mut fb);
        for i in 0..32 {
            let want_re = alpha * fa[i].re + fb[i].re;
            let want_im = alpha * fa[i].im + fb[i].im;
            prop_assert!((combo[i].re - want_re).abs() < 1e-3);
            prop_assert!((combo[i].im - want_im).abs() < 1e-3);
        }
    }

    #[test]
    fn fft_matches_dft_for_any_signal(signal in proptest::collection::vec(-1.0f32..1.0, 16)) {
        let buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let mut fast = buf.clone();
        fft_in_place(&mut fast);
        let slow = dft_reference(&buf);
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!((f.re - s.re).abs() < 1e-3 && (f.im - s.im).abs() < 1e-3);
        }
    }

    #[test]
    fn power_spectrum_is_nonnegative(signal in proptest::collection::vec(-1.0f32..1.0, 1..100)) {
        let ps = power_spectrum(&signal, 128);
        prop_assert!(ps.iter().all(|&v| v >= 0.0));
        prop_assert_eq!(ps.len(), 65);
    }

    #[test]
    fn mel_scale_is_monotone_and_invertible(hz in 1.0f32..7900.0) {
        let mel = hz_to_mel(hz);
        prop_assert!(mel > 0.0);
        prop_assert!((mel_to_hz(mel) - hz).abs() < 0.5);
        prop_assert!(hz_to_mel(hz + 10.0) > mel);
    }

    #[test]
    fn rfft_matches_the_complex_fft(
        signal in proptest::collection::vec(-1.0f32..1.0, 0..256),
        log_n in 1u32..11,
    ) {
        // The packed real-input transform must agree with the full complex
        // FFT on random real signals for every power-of-two size, including
        // signals shorter than the transform (zero padding).
        let n = 1usize << log_n;
        let signal = &signal[..signal.len().min(n)];
        let plan = RealFft::new(n);
        let got = plan.power(signal);
        let want = power_spectrum(signal, n);
        prop_assert_eq!(got.len(), want.len());
        // Tolerance scales with the energy that lands in a bin.
        let scale: f32 = 1.0f32.max(want.iter().cloned().fold(0.0, f32::max));
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() <= 1e-5 * scale, "bin {}: {} vs {}", k, g, w);
        }
    }

    #[test]
    fn rfft_power_is_nonnegative_and_reusable(
        signal in proptest::collection::vec(-1.0f32..1.0, 1..128),
    ) {
        // Scratch reuse across calls must not leak state between signals.
        let plan = RealFft::new(128);
        let mut scratch = vec![0.0f32; plan.scratch_len()];
        let mut out = vec![0.0f32; plan.num_bins()];
        plan.power_into(&signal, &mut scratch, &mut out);
        let first = out.clone();
        prop_assert!(first.iter().all(|&v| v >= 0.0));
        plan.power_into(&[0.5; 64], &mut scratch, &mut out);
        plan.power_into(&signal, &mut scratch, &mut out);
        prop_assert_eq!(out, first);
    }

    #[test]
    fn dct_energy_never_exceeds_input(signal in proptest::collection::vec(-2.0f32..2.0, 8..64)) {
        // Orthonormal transform: truncated coefficient energy <= signal energy.
        let keep = signal.len() / 2;
        let coeffs = dct_ii(&signal, keep.max(1));
        let e_in: f32 = signal.iter().map(|v| v * v).sum();
        let e_out: f32 = coeffs.iter().map(|v| v * v).sum();
        prop_assert!(e_out <= e_in + 1e-2 * e_in.max(1.0));
    }
}
