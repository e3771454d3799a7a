//! Worker-side packet helpers: building gradient/control packets and
//! parsing what comes back from the switch.

use std::cell::RefCell;

use bytes::Bytes;
use iswitch_netsim::{CausalKey, IpAddr, Packet};

use crate::protocol::codec::{CodecKind, FixedPointCodec};
use crate::protocol::{
    dscp, encode_segment, seg_index, seg_round, tag_round, ControlMessage, DataSegment,
    SegmentMeta, FLOATS_PER_SEGMENT, ISWITCH_UDP_PORT, SEG_HEADER_BYTES, TOS_CONTROL, TOS_DATA,
};
use crate::switch_ext::UPSTREAM_IP;

/// Encodes one contribution chunk under `codec`, honoring the seeded
/// exponent-stamp bias for fixed-point (the chaos harness's codec bug; a
/// bias of zero is correct operation and the only value other codecs
/// accept a stamp for).
fn encode_codec_segment(codec: CodecKind, seg: u64, values: &[f32], exp_bias: i8) -> Bytes {
    let payload = if exp_bias != 0 && codec == CodecKind::FixedPoint {
        FixedPointCodec.encode_contribution_biased(seg, values, exp_bias)
    } else {
        codec.codec().encode_contribution(seg, values)
    };
    payload.expect("gradient values are finite")
}

/// Builds the sequence of data packets carrying `grad` from a worker at
/// `src` toward its switch. One packet per segment, in segment order.
///
/// The destination address is the upstream aggregation address: iSwitch
/// switches intercept by ToS, so data packets never need a concrete
/// switch IP.
pub fn gradient_packets(src: IpAddr, grad: &[f32]) -> Vec<Packet> {
    gradient_packets_round(src, grad, 0)
}

/// Like [`gradient_packets`] with an explicit aggregation-round tag in the
/// `Seg` field (see [`crate::tag_round`]); receivers use the tag to ignore
/// stale re-broadcasts.
pub fn gradient_packets_round(src: IpAddr, grad: &[f32], round: u32) -> Vec<Packet> {
    // Encode each chunk of the gradient straight into its payload — no
    // intermediate owned `DataSegment` per packet (this runs once per
    // worker per iteration on the hot path).
    grad.chunks(FLOATS_PER_SEGMENT)
        .enumerate()
        .map(|(i, chunk)| {
            let seg = tag_round(i as u64, round);
            sealed_data_packet(src, UPSTREAM_IP, seg, encode_segment(seg, 1, chunk))
        })
        .collect()
}

/// Like [`gradient_packets_round`] with the contribution payloads encoded
/// under `codec`. `exp_bias` seeds the fixed-point exponent-stamp bug
/// (zero for correct operation; ignored by other codecs). For
/// [`CodecKind::F32`] with zero bias the packets are byte-identical to
/// [`gradient_packets_round`].
///
/// # Panics
///
/// Panics if the gradient contains non-finite values — quantized codecs
/// reject NaN/Inf at encode time.
pub fn gradient_packets_round_codec(
    src: IpAddr,
    grad: &[f32],
    round: u32,
    codec: CodecKind,
    exp_bias: i8,
) -> Vec<Packet> {
    if codec == CodecKind::F32 {
        return gradient_packets_round(src, grad, round);
    }
    grad.chunks(codec.elems_per_segment())
        .enumerate()
        .map(|(i, chunk)| {
            let seg = tag_round(i as u64, round);
            sealed_data_packet(
                src,
                UPSTREAM_IP,
                seg,
                encode_codec_segment(codec, seg, chunk, exp_bias),
            )
        })
        .collect()
}

/// Pre-encoded contribution payloads for a gradient vector whose contents
/// do not change between iterations (timing-mode synthetic gradients).
///
/// [`gradient_packets_round`] re-reads and byteswaps every f32 each
/// iteration even though only the 8-byte round-tagged header differs
/// between rounds. This cache encodes the vector once and keeps one
/// payload per segment. Per round, each payload's header is re-tagged in
/// place when no packet still holds it (the previous round's packets were
/// delivered and dropped), so a steady run allocates no payloads at all.
/// A payload an earlier round's packet still shares (a retained train, a
/// pacing queue) is copied instead, never mutated under its holder.
/// Output is byte-for-byte identical to [`gradient_packets_round`].
pub struct EncodedGradient {
    src: IpAddr,
    /// Encoded payloads, each tagged with the round it was last sent for
    /// (round 0 at construction). Behind a `RefCell` so that
    /// [`EncodedGradient::packets_round`] can re-tag them through `&self`.
    templates: RefCell<Vec<Bytes>>,
}

impl EncodedGradient {
    /// Encodes `grad` once as worker contributions (count = 1).
    pub fn new(src: IpAddr, grad: &[f32]) -> Self {
        Self::with_codec(src, grad, CodecKind::F32, 0)
    }

    /// Encodes `grad` once under `codec` (`exp_bias` seeds the fixed-point
    /// exponent-stamp bug; zero is correct operation). The per-round header
    /// patch in [`EncodedGradient::packets_round`] works for every codec —
    /// all layouts share the 8-byte `Seg` header and nothing else in the
    /// payload depends on the round.
    ///
    /// # Panics
    ///
    /// Panics if the gradient contains non-finite values and the codec is
    /// quantized.
    pub fn with_codec(src: IpAddr, grad: &[f32], codec: CodecKind, exp_bias: i8) -> Self {
        let encode = |i: usize, chunk: &[f32]| {
            let seg = tag_round(i as u64, 0);
            if codec == CodecKind::F32 {
                encode_segment(seg, 1, chunk)
            } else {
                encode_codec_segment(codec, seg, chunk, exp_bias)
            }
        };
        EncodedGradient {
            src,
            templates: RefCell::new(
                grad.chunks(codec.elems_per_segment())
                    .enumerate()
                    .map(|(i, chunk)| encode(i, chunk))
                    .collect(),
            ),
        }
    }

    /// Builds the packet sequence for `round` — the cached-template
    /// equivalent of [`gradient_packets_round`].
    pub fn packets_round(&self, round: u32) -> Vec<Packet> {
        let mut templates = self.templates.borrow_mut();
        templates
            .iter_mut()
            .enumerate()
            .map(|(i, template)| {
                let seg = tag_round(i as u64, round);
                let header = ((seg << 16) | 1).to_be_bytes();
                if template[..SEG_HEADER_BYTES] != header {
                    match template.get_mut() {
                        Some(bytes) => bytes[..SEG_HEADER_BYTES].copy_from_slice(&header),
                        None => {
                            let mut buf = template.to_vec();
                            buf[..SEG_HEADER_BYTES].copy_from_slice(&header);
                            *template = Bytes::from(buf);
                        }
                    }
                }
                sealed_data_packet(self.src, UPSTREAM_IP, seg, template.clone())
            })
            .collect()
    }
}

/// Builds a single data packet carrying `seg`.
///
/// The packet is stamped with a [`CausalKey`] derived from the tagged `Seg`
/// field (round and spatial segment index) plus the sender's address as the
/// producer identity, so per-hop trace events can be tied back to the unit
/// of training work the packet carries.
pub fn data_packet(src: IpAddr, dst: IpAddr, seg: &DataSegment) -> Packet {
    sealed_data_packet(src, dst, seg.seg, seg.encode())
}

/// Builds a result packet carrying an aggregate in `codec`'s wide result
/// format — what iSwitch switches broadcast down (and intermediates send
/// up). For [`CodecKind::F32`] this is exactly [`data_packet`].
pub fn result_packet(src: IpAddr, dst: IpAddr, seg: &DataSegment, codec: CodecKind) -> Packet {
    sealed_data_packet(src, dst, seg.seg, codec.codec().encode_result(seg))
}

/// Re-wraps an already-encoded data payload into a packet from `src` —
/// the zero-copy relay path: an intermediate switch fanning out a result
/// from its parent forwards the payload [`Bytes`] as-is, no decode or
/// re-encode (`meta` comes from [`decode_data_meta`] on the way in).
pub fn data_packet_wire(src: IpAddr, dst: IpAddr, meta: SegmentMeta, payload: Bytes) -> Packet {
    sealed_data_packet(src, dst, meta.seg, payload)
}

/// Wraps an encoded payload whose `Seg` field is `seg` into a data packet
/// with the standard causal stamp.
fn sealed_data_packet(src: IpAddr, dst: IpAddr, seg: u64, payload: Bytes) -> Packet {
    Packet::udp(src, dst, ISWITCH_UDP_PORT, ISWITCH_UDP_PORT, TOS_DATA)
        .with_payload(payload)
        .with_cause(CausalKey {
            round: u64::from(seg_round(seg)),
            segment: seg_index(seg),
            worker: u64::from(src.as_u32()),
            tenant: 0,
        })
}

/// Builds a control packet carrying `msg` from `src` to `dst`.
pub fn control_packet(src: IpAddr, dst: IpAddr, msg: &ControlMessage) -> Packet {
    Packet::udp(src, dst, ISWITCH_UDP_PORT, ISWITCH_UDP_PORT, TOS_CONTROL)
        .with_payload(msg.encode())
}

/// Parses an iSwitch data packet, returning `None` for anything else
/// (wrong ToS or malformed payload).
pub fn decode_data(pkt: &Packet) -> Option<DataSegment> {
    if dscp(pkt.ip.tos) != TOS_DATA {
        return None;
    }
    DataSegment::decode(&pkt.payload).ok()
}

/// Parses just the header of an iSwitch data packet — the cheap peek for
/// consumers that do not need the values materialized (arrival bookkeeping,
/// [`crate::Accelerator::ingest_wire`]).
pub fn decode_data_meta(pkt: &Packet) -> Option<SegmentMeta> {
    if dscp(pkt.ip.tos) != TOS_DATA {
        return None;
    }
    DataSegment::decode_meta(&pkt.payload).ok()
}

/// Parses an iSwitch control packet, returning `None` for anything else.
pub fn decode_control(pkt: &Packet) -> Option<ControlMessage> {
    if dscp(pkt.ip.tos) != TOS_CONTROL {
        return None;
    }
    ControlMessage::decode(&pkt.payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FLOATS_PER_SEGMENT;

    #[test]
    fn gradient_packets_cover_the_vector_in_order() {
        let grad: Vec<f32> = (0..FLOATS_PER_SEGMENT + 5).map(|i| i as f32).collect();
        let pkts = gradient_packets(IpAddr::new(10, 0, 0, 1), &grad);
        assert_eq!(pkts.len(), 2);
        let seg0 = decode_data(&pkts[0]).unwrap();
        let seg1 = decode_data(&pkts[1]).unwrap();
        assert_eq!(seg0.seg, 0);
        assert_eq!(seg1.seg, 1);
        assert_eq!(seg0.values.len(), FLOATS_PER_SEGMENT);
        assert_eq!(seg1.values.len(), 5);
        assert_eq!(seg1.values[4], (FLOATS_PER_SEGMENT + 4) as f32);
    }

    #[test]
    fn decode_rejects_wrong_tos() {
        let grad = vec![1.0f32; 4];
        let mut pkt = gradient_packets(IpAddr::new(10, 0, 0, 1), &grad).remove(0);
        pkt.ip.tos = 0;
        assert!(decode_data(&pkt).is_none());

        let ctrl = control_packet(
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 0, 255, 1),
            &ControlMessage::Reset,
        );
        assert!(decode_control(&ctrl).is_some());
        assert!(decode_data(&ctrl).is_none());
    }
}
