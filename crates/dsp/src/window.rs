//! Windowing and framing.

/// Periodic Hann window of length `n`.
///
/// The periodic (DFT-even) variant matches common speech front-ends.
pub fn hann_window(n: usize) -> Vec<f32> {
    (0..n).map(|i| 0.5 - 0.5 * (2.0 * std::f32::consts::PI * i as f32 / n as f32).cos()).collect()
}

/// Splits `signal` into overlapping frames of `frame_len` samples advanced by
/// `hop` samples. Frames that would run past the end are dropped.
///
/// Returns a flat row-major buffer of `num_frames * frame_len` samples plus
/// the frame count.
///
/// # Panics
///
/// Panics if `frame_len` or `hop` is zero.
pub fn frame_signal(signal: &[f32], frame_len: usize, hop: usize) -> (Vec<f32>, usize) {
    assert!(frame_len > 0 && hop > 0, "frame_len and hop must be positive");
    if signal.len() < frame_len {
        return (Vec::new(), 0);
    }
    let num_frames = (signal.len() - frame_len) / hop + 1;
    let mut out = Vec::with_capacity(num_frames * frame_len);
    for f in 0..num_frames {
        out.extend_from_slice(&signal[f * hop..f * hop + frame_len]);
    }
    (out, num_frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_endpoints_and_midpoint() {
        let w = hann_window(8);
        assert!((w[4] - 1.0).abs() < 1e-6);
        assert_eq!(w.len(), 8);
        // The first tap is exactly zero, not merely small: a serving frame
        // cache reuses a window's frame 0 from the previous window, where
        // its first sample was pre-emphasised and here it is not, and that
        // is exact only because this tap multiplies it away.
        for n in [8, 256, 640] {
            assert_eq!(hann_window(n)[0], 0.0, "first tap of a {n}-tap window");
        }
    }

    #[test]
    fn hann_is_symmetric_periodic() {
        let w = hann_window(16);
        for i in 1..8 {
            assert!((w[i] - w[16 - i]).abs() < 1e-6, "asymmetry at {i}");
        }
    }

    #[test]
    fn paper_framing_geometry() {
        // 1 s @ 16 kHz, 40 ms frames (640), 20 ms hop (320) -> 49 frames.
        let signal = vec![0.0f32; 16_000];
        let (_, frames) = frame_signal(&signal, 640, 320);
        assert_eq!(frames, 49);
    }

    #[test]
    fn frames_copy_correct_samples() {
        let signal: Vec<f32> = (0..10).map(|x| x as f32).collect();
        let (buf, n) = frame_signal(&signal, 4, 2);
        assert_eq!(n, 4);
        assert_eq!(&buf[0..4], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(&buf[4..8], &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(&buf[12..16], &[6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn short_signal_yields_no_frames() {
        let (buf, n) = frame_signal(&[1.0, 2.0], 4, 2);
        assert_eq!(n, 0);
        assert!(buf.is_empty());
    }
}
