//! Chunked, autovectorizable distance-accumulation kernels.
//!
//! A textbook Euclidean distance loop is a serial dependency chain — every
//! `sum += d * d` waits on the previous one — so the compiler cannot issue
//! the independent per-dimension work as vector lanes. The kernels here
//! restructure that accumulation into fixed-width lanes ([`LANES`]) with an
//! explicit accumulator array, processed in [`BLOCK`]-element super-blocks
//! with the remainder handled scalar. The compiler autovectorizes the block
//! body (independent subtract/multiply/add per lane — and for the normalized
//! kernel, independent divides), which is where the signature-resolution and
//! k-means hot paths spend their time at fleet scale.
//!
//! Chunking changes floating-point summation order only once a vector fills
//! a whole block: below [`BLOCK`] elements — the paper's 8-metric signature
//! included — the kernels never enter the block loop and *are* the textbook
//! serial loop, bit for bit. From [`BLOCK`] elements up they agree with it
//! within 1e-9 relative error, and the bounded kernels only ever disagree on
//! `Some`-vs-`None` when the true sum sits within rounding distance of the
//! bound — callers treat the bound as a tolerance, never as a semantic
//! cliff. Both facts are pinned against serial reference loops by this
//! module's tests and by a property test across random dims and lengths.

/// Accumulator-array width: 4 × f64 fills a 256-bit vector register (AVX2),
/// and narrower SIMD ISAs split it into two 128-bit halves for free.
pub const LANES: usize = 4;

/// Super-block length between early-exit checks of the bounded kernels: four
/// [`LANES`]-wide chunks, so the horizontal reduction (which serializes) is
/// paid once per 16 dimensions instead of once per element.
pub const BLOCK: usize = 4 * LANES;

/// Horizontal sum of the accumulator array, pairwise so the reduction tree
/// is fixed regardless of how the lanes were filled.
#[inline(always)]
fn hsum(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// Squared Euclidean distance, lane-parallel accumulation.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance_within(a, b, f64::INFINITY).expect("infinite bound never exits early")
}

/// Early-exit squared distance, lane-parallel: accumulates [`BLOCK`]-element
/// super-blocks and abandons the pair once the partial sum exceeds `bound`
/// (checked per block rather than per element, so the block body stays
/// branch-free and vectorizable).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn squared_distance_within(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let n = a.len();
    let mut sum = 0.0;
    let mut idx = 0;
    while n - idx >= BLOCK {
        let xa = &a[idx..idx + BLOCK];
        let xb = &b[idx..idx + BLOCK];
        let mut acc = [0.0f64; LANES];
        for c in 0..BLOCK / LANES {
            for l in 0..LANES {
                let d = xa[c * LANES + l] - xb[c * LANES + l];
                acc[l] += d * d;
            }
        }
        sum += hsum(acc);
        if sum > bound {
            return None;
        }
        idx += BLOCK;
    }
    for (x, y) in a[idx..].iter().zip(&b[idx..]) {
        let d = x - y;
        sum += d * d;
        if sum > bound {
            return None;
        }
    }
    Some(sum)
}

/// Early-exit *normalized* squared-difference sum, lane-parallel: accumulates
/// `((x - y) / max(|x|, |y|, floor))²` per dimension — the scale-invariant
/// distance of the shared signature repository. The per-dimension divides are
/// independent across lanes, which is exactly what a serial formulation
/// denies the vector units.
///
/// Returns `None` once the partial sum exceeds `bound` (checked per
/// [`BLOCK`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn normalized_sq_sum(a: &[f64], b: &[f64], floor: f64, bound: f64) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let n = a.len();
    let mut sum = 0.0;
    let mut idx = 0;
    while n - idx >= BLOCK {
        let xa = &a[idx..idx + BLOCK];
        let xb = &b[idx..idx + BLOCK];
        let mut acc = [0.0f64; LANES];
        for c in 0..BLOCK / LANES {
            for l in 0..LANES {
                let x = xa[c * LANES + l];
                let y = xb[c * LANES + l];
                let scale = x.abs().max(y.abs()).max(floor);
                let d = (x - y) / scale;
                acc[l] += d * d;
            }
        }
        sum += hsum(acc);
        if sum > bound {
            return None;
        }
        idx += BLOCK;
    }
    for (&x, &y) in a[idx..].iter().zip(&b[idx..]) {
        let scale = x.abs().max(y.abs()).max(floor);
        let d = (x - y) / scale;
        sum += d * d;
        if sum > bound {
            return None;
        }
    }
    Some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial reference: the textbook early-exit loop the kernels replace.
    fn serial_squared_distance_within(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
        assert_eq!(a.len(), b.len());
        let mut sum = 0.0;
        for (x, y) in a.iter().zip(b) {
            let d = x - y;
            sum += d * d;
            if sum > bound {
                return None;
            }
        }
        Some(sum)
    }

    /// Serial reference: the historical signature-resolution loop.
    fn serial_normalized_sq_sum(a: &[f64], b: &[f64], floor: f64, bound: f64) -> Option<f64> {
        assert_eq!(a.len(), b.len());
        let mut sum = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            let scale = x.abs().max(y.abs()).max(floor);
            let d = (x - y) / scale;
            sum += d * d;
            if sum > bound {
                return None;
            }
        }
        Some(sum)
    }

    fn vecs(len: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = dejavu_simcore::SimRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..len)
            .map(|_| rng.uniform(-100.0, 100.0) * 10f64.powi(rng.uniform_usize(6) as i32 - 3))
            .collect();
        let b: Vec<f64> = a
            .iter()
            .map(|x| x + rng.uniform(-1.0, 1.0) * x.abs().max(1.0) * 0.3)
            .collect();
        (a, b)
    }

    fn rel_close(a: f64, b: f64) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!(
            ((a - b) / scale).abs() <= 1e-9,
            "kernel {a} vs serial {b} diverged"
        );
    }

    const FLOOR: f64 = 1e-9;

    #[test]
    fn kernels_are_the_serial_loop_below_one_block() {
        // Why there is no exact-order fallback: a vector shorter than BLOCK
        // (the paper's 8-metric signature is one) never enters the block
        // loop, so every kernel is the serial loop bit for bit — under any
        // bound, whether the pair survives it or not.
        const TABLE_1_METRICS: usize = 8;
        const _: () = assert!(TABLE_1_METRICS < BLOCK);
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        for len in 0..BLOCK {
            for seed in 0..8 {
                let (a, b) = vecs(len, 0xB17 ^ (len as u64) << 8 ^ seed);
                let sq = serial_squared_distance_within(&a, &b, f64::INFINITY).unwrap();
                let nm = serial_normalized_sq_sum(&a, &b, FLOOR, f64::INFINITY).unwrap();
                assert_eq!(squared_distance(&a, &b).to_bits(), sq.to_bits(), "{len}");
                for (sq_bound, nm_bound) in [
                    (f64::INFINITY, f64::INFINITY),
                    (sq, nm),
                    (sq * 0.5, nm * 0.5),
                    (0.0, 0.0),
                ] {
                    assert_eq!(
                        bits(squared_distance_within(&a, &b, sq_bound)),
                        bits(serial_squared_distance_within(&a, &b, sq_bound)),
                        "len {len} bound {sq_bound}"
                    );
                    assert_eq!(
                        bits(normalized_sq_sum(&a, &b, FLOOR, nm_bound)),
                        bits(serial_normalized_sq_sum(&a, &b, FLOOR, nm_bound)),
                        "len {len} bound {nm_bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_match_the_serial_loop_across_remainders() {
        // From one block up the summation order differs: 30 is the full
        // metric catalogue, the rest cover len % LANES ∈ {0, 1, LANES-1}
        // tails after one and after several blocks.
        for len in [
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            BLOCK + LANES - 1,
            30,
            2 * BLOCK,
            2 * BLOCK + 1,
            3 * BLOCK + LANES - 1,
            8 * BLOCK,
        ] {
            let (a, b) = vecs(len, 0x5EED ^ len as u64);
            let sq = serial_squared_distance_within(&a, &b, f64::INFINITY).unwrap();
            let nm = serial_normalized_sq_sum(&a, &b, FLOOR, f64::INFINITY).unwrap();
            rel_close(squared_distance(&a, &b), sq);
            // Away from the bound the kernels and the serial loop agree on
            // Some-vs-None; only a sum within rounding of it may differ.
            rel_close(squared_distance_within(&a, &b, sq * 2.0).unwrap(), sq);
            rel_close(normalized_sq_sum(&a, &b, FLOOR, nm * 2.0).unwrap(), nm);
            assert!(sq > 0.0 && nm > 0.0, "len {len}: degenerate pair");
            assert_eq!(squared_distance_within(&a, &b, sq * 0.5), None);
            assert_eq!(serial_squared_distance_within(&a, &b, sq * 0.5), None);
            assert_eq!(normalized_sq_sum(&a, &b, FLOOR, nm * 0.5), None);
            assert_eq!(serial_normalized_sq_sum(&a, &b, FLOOR, nm * 0.5), None);
        }
    }

    #[test]
    fn bounded_kernels_exit_on_far_pairs() {
        let a = vec![0.0; 64];
        let b = vec![10.0; 64];
        assert_eq!(squared_distance_within(&a, &b, 1.0), None);
        assert_eq!(normalized_sq_sum(&a, &b, FLOOR, 1.0), None);
        assert!(squared_distance_within(&a, &a, 1.0).is_some());
        assert_eq!(normalized_sq_sum(&a, &a, FLOOR, 1.0), Some(0.0));
    }

    #[test]
    fn bounded_sum_is_independent_of_the_bound() {
        // The returned value must not depend on where the early-exit checks
        // landed: a surviving pair yields the same sum under any bound.
        let (a, b) = vecs(37, 77);
        let loose = squared_distance_within(&a, &b, f64::INFINITY).unwrap();
        let tight = squared_distance_within(&a, &b, loose * (1.0 + 1e-12)).unwrap();
        assert_eq!(loose.to_bits(), tight.to_bits());
    }
}
