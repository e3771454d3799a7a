//! Codec property battery: for every aggregation codec, the wire pipeline
//! `encode contribution → switch-sum → decode` must land within the
//! codec's documented error bound of the exact host-side sum — and the
//! edge cases (saturation, tiny exponents, all-zero blocks, non-finite
//! inputs) must behave by design rather than by accident.

use std::sync::Arc;

use iswitch_core::{
    num_segments, segment_gradient, topk_indices, Accelerator, AcceleratorConfig, AggregationCodec,
    CodecKind, DataSegment, FixedPointCodec, SegmentMeta, TOPK_DIVISOR,
};

/// Deterministic xorshift values in `[-scale, scale]` — random tensors
/// without dragging an RNG crate into the core's dev-deps.
fn random_values(seed: u64, len: usize, scale: f32) -> Vec<f32> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Map the top 24 bits to [-1, 1) — exactly representable steps.
            let unit = (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
            unit * scale
        })
        .collect()
}

/// Pushes every worker's values through the codec's wire pipeline — one
/// encoded contribution each, accumulated in the codec's native
/// representation — and decodes the aggregate, exactly as a switch does.
fn switch_sum(codec: CodecKind, workers: &[Vec<f32>]) -> Vec<f32> {
    let c = codec.codec();
    let len = workers[0].len();
    let mut acc = c.new_acc(len);
    for w in workers {
        let payload = c.encode_contribution(7, w).expect("finite values");
        let meta = c.decode_meta(&payload).expect("well-formed payload");
        assert_eq!(meta.seg, 7);
        assert_eq!(meta.count, 1);
        assert_eq!(meta.len, len);
        c.accumulate(&mut acc, &payload).expect("codec matches");
    }
    c.decode_acc(&acc)
}

/// The exact reference sum, in f64 so codec error is measured against
/// ground truth rather than f32 rounding.
fn exact_sum(workers: &[Vec<f32>]) -> Vec<f64> {
    let len = workers[0].len();
    let mut sum = vec![0.0f64; len];
    for w in workers {
        for (s, &v) in sum.iter_mut().zip(w) {
            *s += v as f64;
        }
    }
    sum
}

#[test]
fn switch_sum_stays_within_each_codecs_error_bound() {
    // Lengths straddle the segment capacities (partial tails, multiple
    // segments' worth handled one segment at a time) and the block size.
    for &len in &[1usize, 31, 32, 33, 365, 366, 704] {
        for workers in 2..=5usize {
            for codec in [CodecKind::F32, CodecKind::FixedPoint, CodecKind::BlockFloat] {
                if len > codec.elems_per_segment() {
                    continue;
                }
                let vals: Vec<Vec<f32>> = (0..workers)
                    .map(|w| random_values(0x9E37 + w as u64 * 131 + len as u64, len, 50.0))
                    .collect();
                let got = switch_sum(codec, &vals);
                let exact = exact_sum(&vals);
                let max_abs = vals.iter().flatten().fold(0.0f32, |m, &v| m.max(v.abs()));
                let bound = codec.codec().error_bound(max_abs, workers) as f64;
                for (i, (&g, &e)) in got.iter().zip(&exact).enumerate() {
                    let err = (g as f64 - e).abs();
                    // f32's bound is 0.0 quantization error; allow only its
                    // native rounding — each of the `workers` adds can be
                    // off by an ulp of a partial sum (≤ workers·max_abs,
                    // even when the final value cancels toward zero).
                    let tol =
                        bound + (workers * workers) as f64 * max_abs as f64 * f32::EPSILON as f64;
                    assert!(
                        err <= tol,
                        "{codec}: len={len} workers={workers} elem {i}: \
                         |{g} - {e}| = {err} > {tol}"
                    );
                }
            }
        }
    }
}

#[test]
fn f32_switch_sum_is_bit_exact_against_sequential_adds() {
    let len = 366;
    let vals: Vec<Vec<f32>> = (0..4)
        .map(|w| random_values(0xF00D + w as u64, len, 1e6))
        .collect();
    let got = switch_sum(CodecKind::F32, &vals);
    let mut reference = vec![0.0f32; len];
    for w in &vals {
        for (r, &v) in reference.iter_mut().zip(w) {
            *r += v;
        }
    }
    for (g, r) in got.iter().zip(&reference) {
        assert_eq!(g.to_bits(), r.to_bits(), "f32 aggregation must be exact");
    }
}

#[test]
fn topk_aggregate_is_the_sum_of_the_sparsified_contributions() {
    let len = 365;
    let k = len / TOPK_DIVISOR;
    let vals: Vec<Vec<f32>> = (0..3)
        .map(|w| random_values(0x70C0 + w as u64, len, 10.0))
        .collect();
    let got = switch_sum(CodecKind::TopK, &vals);
    // Host-side reference: scatter-add exactly the coordinates each
    // worker's top-k selection keeps.
    let mut reference = vec![0.0f32; len];
    for w in &vals {
        for idx in topk_indices(w, k) {
            reference[idx] += w[idx];
        }
    }
    assert_eq!(got, reference, "top-k sums the kept coordinates exactly");
}

#[test]
fn fixed_point_saturates_instead_of_wrapping() {
    // Wide (result-format) mantissas for 3e8 land at 6e8 against exponent
    // -1, so four equal contributions (2.4e9) overflow i32. The
    // accumulator must clamp — a monotone, same-sign aggregate — never
    // wrap negative.
    let seg = DataSegment {
        seg: 3,
        count: 1,
        values: vec![3.0e8f32; 8],
    };
    let c = CodecKind::FixedPoint.codec();
    let payload = c.encode_result(&seg);
    let mut acc = c.new_acc(8);
    for _ in 0..4 {
        c.accumulate(&mut acc, &payload).expect("wide payload");
    }
    let got = c.decode_acc(&acc);
    for &v in &got {
        assert!(
            v.is_finite() && v > 0.0,
            "saturation must keep the sign, got {v}"
        );
        assert!(
            v >= 3.0 * 3.0e8,
            "clamp landed below three contributions: {v}"
        );
        assert!(v < 4.0 * 3.0e8, "i32 clamp never engaged: {v}");
    }
}

#[test]
fn tiny_values_survive_negative_exponents() {
    // Values ~1e-6 force the scaling exponent well below zero; they must
    // round-trip with relative precision, not flush to zero.
    for codec in [CodecKind::FixedPoint, CodecKind::BlockFloat] {
        let vals: Vec<Vec<f32>> = (0..3)
            .map(|w| random_values(0x7E57 + w as u64, 64, 1e-6))
            .collect();
        let got = switch_sum(codec, &vals);
        let exact = exact_sum(&vals);
        let max_abs = vals.iter().flatten().fold(0.0f32, |m, &v| m.max(v.abs()));
        let bound = codec.codec().error_bound(max_abs, 3) as f64;
        assert!(bound < 1e-6, "bound must scale down with the values");
        let mut nonzero = 0;
        for (&g, &e) in got.iter().zip(&exact) {
            assert!(
                (g as f64 - e).abs() <= bound,
                "{codec}: |{g} - {e}| > {bound}"
            );
            nonzero += (g != 0.0) as usize;
        }
        assert!(nonzero > 32, "{codec}: tiny values flushed to zero");
    }
}

#[test]
fn all_zero_blocks_decode_to_exact_zeros() {
    // One zero block embedded between nonzero blocks (and a worker whose
    // entire vector is zero): zeros must come back as exact +0.0.
    let len = 96; // three 32-element blocks
    let mut a = random_values(0xB10C, len, 5.0);
    for v in &mut a[32..64] {
        *v = 0.0;
    }
    let b = vec![0.0f32; len];
    for codec in [
        CodecKind::FixedPoint,
        CodecKind::BlockFloat,
        CodecKind::TopK,
    ] {
        let got = switch_sum(codec, &[a.clone(), b.clone()]);
        for (i, &v) in got.iter().enumerate().take(64).skip(32) {
            assert_eq!(v.to_bits(), 0.0f32.to_bits(), "{codec}: elem {i} = {v}");
        }
    }
}

#[test]
fn quantized_codecs_reject_non_finite_gradients() {
    for codec in [
        CodecKind::FixedPoint,
        CodecKind::BlockFloat,
        CodecKind::TopK,
    ] {
        let c = codec.codec();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut vals = vec![1.0f32; 16];
            vals[7] = bad;
            assert!(
                c.encode_contribution(0, &vals).is_err(),
                "{codec} must reject {bad}"
            );
        }
    }
    // f32 stays bit-transparent (the legacy wire): a NaN's exact bit
    // pattern rides through untouched.
    let c = CodecKind::F32.codec();
    let vals = vec![f32::NAN; 4];
    let payload = c.encode_contribution(0, &vals).expect("f32 is transparent");
    let seg = c.decode_values(&payload).expect("decodes");
    assert_eq!(seg.values[0].to_bits(), f32::NAN.to_bits());
}

#[test]
fn accelerator_wire_path_matches_the_codec_module() {
    // The same contributions through a real Accelerator configured for the
    // codec (full wire payloads, threshold completion) must equal the
    // codec-module reference — the datapath adds no error of its own.
    let len = 1000;
    for codec in CodecKind::ALL {
        let elems = codec.elems_per_segment();
        let segs = num_segments(len).max(codec.num_segments(len));
        let mut accel = Accelerator::with_codec(AcceleratorConfig::default(), segs, 3, codec);
        let vals: Vec<Vec<f32>> = (0..3)
            .map(|w| random_values(0xACCE1 + w as u64, len, 20.0))
            .collect();
        let c = codec.codec();
        let mut done: Vec<Arc<DataSegment>> = Vec::new();
        for w in &vals {
            for (idx, chunk) in w.chunks(elems).enumerate() {
                let payload = c.encode_contribution(idx as u64, chunk).expect("finite");
                let meta = c.decode_meta(&payload).expect("well-formed");
                let (out, _latency) = accel.ingest_wire(meta, &payload);
                if let Some(seg) = out {
                    done.push(seg);
                }
            }
        }
        assert_eq!(done.len(), codec.num_segments(len), "{codec}: all complete");
        done.sort_by_key(|s| s.seg);
        let flat: Vec<f32> = done.iter().flat_map(|s| s.values.iter().copied()).collect();
        let reference: Vec<f32> = vals[0]
            .chunks(elems)
            .enumerate()
            .flat_map(|(idx, _)| {
                let per_seg: Vec<Vec<f32>> = vals
                    .iter()
                    .map(|w| w[idx * elems..(idx * elems + elems).min(len)].to_vec())
                    .collect();
                switch_sum(codec, &per_seg)
            })
            .collect();
        assert_eq!(flat.len(), reference.len());
        for (i, (&g, &r)) in flat.iter().zip(&reference).enumerate() {
            assert_eq!(g.to_bits(), r.to_bits(), "{codec}: elem {i}: {g} vs {r}");
        }
    }
}

#[test]
fn legacy_f32_segments_and_codec_payloads_interoperate() {
    // The f32 codec's contribution payload IS the legacy segment encoding:
    // a pre-codec worker and a codec worker produce identical bytes.
    let vals = random_values(0x1E9A, 500, 3.0);
    let legacy: Vec<DataSegment> = segment_gradient(&vals);
    let c = CodecKind::F32.codec();
    for seg in &legacy {
        let payload = c.encode_contribution(seg.seg, &seg.values).expect("finite");
        assert_eq!(payload, seg.encode(), "byte-identical legacy layout");
        let meta = c.decode_meta(&payload).expect("well-formed");
        assert_eq!(
            meta,
            SegmentMeta {
                seg: seg.seg,
                count: 1,
                len: seg.values.len()
            }
        );
    }
}

#[test]
fn exponent_stamp_bias_inflates_the_decoded_aggregate() {
    // The chaos harness's seeded bug: mantissas scaled with the honest
    // exponent but the header stamps `exp + bias` — every decoded value
    // arrives scaled by 2^bias. The wire stays well-formed, which is
    // exactly why only a value-level invariant can catch it.
    let vals = random_values(0xB1A5, 64, 8.0);
    let c = FixedPointCodec;
    let honest = c.encode_contribution(0, &vals).expect("finite");
    let biased = c.encode_contribution_biased(0, &vals, 2).expect("finite");
    let codec = CodecKind::FixedPoint.codec();
    let mut acc_h = codec.new_acc(64);
    codec.accumulate(&mut acc_h, &honest).expect("honest");
    let mut acc_b = codec.new_acc(64);
    codec
        .accumulate(&mut acc_b, &biased)
        .expect("well-formed bug");
    let h = codec.decode_acc(&acc_h);
    let b = codec.decode_acc(&acc_b);
    for (x, y) in h.iter().zip(&b) {
        assert!(
            (y - 4.0 * x).abs() <= 4.0 * x.abs() * 1e-3 + 1e-6,
            "{y} != 4*{x}"
        );
    }
}
