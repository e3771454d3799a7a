//! `EncodedGradient::packets_round` against a fresh encoding, for every
//! codec and a run of rounds that may cross the 16-bit round-tag wrap.
//!
//! The cache re-tags its payloads in place when the previous round's
//! packets are gone, and copies them when a packet still holds one (a
//! retained retransmission train, a pacing queue). Either way, every packet
//! must carry exactly the bytes `gradient_packets_round_codec` builds, and
//! a held packet must never change under its holder.

use iswitch_core::{gradient_packets_round_codec, CodecKind, EncodedGradient};
use iswitch_netsim::{IpAddr, Packet};
use proptest::prelude::*;

/// Everything a packet carries, payload bytes included.
fn render(pkts: &[Packet]) -> Vec<String> {
    pkts.iter().map(|p| format!("{p:?}")).collect()
}

fn payload_ptrs(pkts: &[Packet]) -> Vec<*const u8> {
    pkts.iter().map(|p| p.payload.as_ptr()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packets_round_matches_a_fresh_encoding(
        grad in prop::collection::vec(-1e3f32..1e3f32, 1..1_500),
        codec in 0usize..CodecKind::ALL.len(),
        start in any::<u32>(),
        near_wrap in any::<bool>(),
        holds in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let codec = CodecKind::ALL[codec];
        // Half the cases start within eight rounds of 0xFFFF → 0.
        let start = if near_wrap { 0xFFF8 + start % 8 } else { start };
        let src = IpAddr::new(10, 0, 0, 7);
        let enc = EncodedGradient::with_codec(src, &grad, codec, 0);
        let fresh = |round: u32| gradient_packets_round_codec(src, &grad, round, codec, 0);
        let mut held: Vec<(u32, Vec<Packet>)> = Vec::new();
        // Payload addresses of the previous round, when its packets were
        // dropped before this round was built.
        let mut dropped_ptrs: Option<Vec<*const u8>> = None;
        for (k, &hold) in holds.iter().enumerate() {
            let round = start.wrapping_add(k as u32);
            let pkts = enc.packets_round(round);
            prop_assert_eq!(render(&pkts), render(&fresh(round)));
            if let Some(prev) = dropped_ptrs.take() {
                // Nobody held the previous round: re-tagged in place.
                prop_assert_eq!(payload_ptrs(&pkts), prev);
            }
            if hold {
                held.push((round, pkts));
            } else {
                dropped_ptrs = Some(payload_ptrs(&pkts));
            }
            // Copy path: trains held from earlier rounds kept their bytes.
            for (r, train) in &held {
                prop_assert_eq!(render(train), render(&fresh(*r)));
            }
        }
    }
}
