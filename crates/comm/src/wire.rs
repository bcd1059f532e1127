//! Binary wire encoding for the federated exchange.
//!
//! One typed message travels the simulated link as a frame:
//! [`UpdateUp`] (client → server: the trained submodel with the
//! client's data size). The downlink is charged by size alone
//! ([`dense_payload_bytes`]). Frames are big-endian, magic-prefixed and
//! versioned, and payloads carry raw `f32` bit patterns (lossless,
//! NaN-preserving).
//!
//! Decoding never panics: truncated or corrupt frames return
//! [`CoreError::MalformedFrame`], which the transport treats as a lost
//! upload.

use adaptivefl_core::compress::FrameReader;
use adaptivefl_core::CoreError;
use adaptivefl_nn::ParamMap;
use adaptivefl_tensor::Tensor;
use bytes::{BufMut, Bytes, BytesMut};

/// Frame magic: `AFL1` in ASCII.
pub const MAGIC: u32 = 0x4146_4C31;
/// Wire format version.
pub const VERSION: u8 = 1;

const MSG_UPDATE_UP: u8 = 2;

/// Parameter payload encoding for the uplink. Its discriminant is the
/// codec byte of an [`UpdateUp`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCodec {
    /// Raw `f32` bit patterns — lossless, 4 bytes per element.
    Dense = 0,
}

/// Client → server: the trained submodel.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateUp {
    /// Round index.
    pub round: u32,
    /// Uploading client id.
    pub client: u32,
    /// Local data size `|d_c|` (the aggregation weight).
    pub data_size: u32,
    /// The trained parameters.
    pub params: ParamMap,
}

/// Payload bytes of `params` elements sent as dense `f32`.
pub fn dense_payload_bytes(params: u64) -> u64 {
    params * 4
}

fn put_header(buf: &mut BytesMut, msg: u8) {
    buf.put_u32(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(msg);
}

/// Encodes a [`ParamMap`] into `buf` in the dense wire layout: entry
/// count, then per entry `name_len u16 | name | ndim u8 | dims u32… |
/// f32 bit patterns`. Exposed so other crates (e.g. the snapshot
/// store) can reuse the exact lossless layout.
pub fn encode_param_map(buf: &mut BytesMut, map: &ParamMap) {
    buf.put_u32(map.len() as u32);
    for (name, t) in map.iter() {
        buf.put_u16(name.len() as u16);
        buf.put_slice(name.as_bytes());
        buf.put_u8(t.shape().len() as u8);
        for &d in t.shape() {
            buf.put_u32(d as u32);
        }
        for &v in t.as_slice() {
            buf.put_u32(v.to_bits());
        }
    }
}

fn read_header(r: &mut FrameReader<'_>, want_msg: u8) -> Result<(), CoreError> {
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(CoreError::MalformedFrame(format!(
            "bad magic {magic:#010x}"
        )));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CoreError::MalformedFrame(format!(
            "unsupported version {version}"
        )));
    }
    let msg = r.u8()?;
    if msg != want_msg {
        return Err(CoreError::MalformedFrame(format!(
            "unexpected message type {msg}, want {want_msg}"
        )));
    }
    Ok(())
}

/// Decodes a [`ParamMap`] written by [`encode_param_map`], with
/// bounded allocation and duplicate-name rejection.
pub fn decode_param_map(r: &mut FrameReader<'_>) -> Result<ParamMap, CoreError> {
    let count = r.u32()? as usize;
    let mut map = ParamMap::new();
    for _ in 0..count {
        let name_len = r.u16()? as usize;
        let name = String::from_utf8(r.bytes(name_len)?.to_vec())
            .map_err(|_| CoreError::MalformedFrame("non-utf8 parameter name".into()))?;
        let ndim = r.u8()? as usize;
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(r.u32()? as usize);
        }
        // Bound the allocation by what the frame can actually hold so a
        // corrupt shape cannot overflow or become an allocation bomb.
        let numel = shape
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .filter(|n| n.checked_mul(4).is_some_and(|b| b <= r.remaining()))
            .ok_or_else(|| {
                CoreError::MalformedFrame(format!(
                    "{name}: shape {shape:?} exceeds remaining frame"
                ))
            })?;
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            data.push(f32::from_bits(r.u32()?));
        }
        if map
            .insert(name.clone(), Tensor::from_vec(data, &shape))
            .is_some()
        {
            return Err(CoreError::MalformedFrame(format!(
                "duplicate parameter {name}"
            )));
        }
    }
    Ok(map)
}

/// Encodes an [`UpdateUp`] frame with the chosen payload codec.
pub fn encode_update_up(msg: &UpdateUp, codec: WireCodec) -> Bytes {
    let mut buf = BytesMut::with_capacity(20 + msg.params.byte_size());
    put_header(&mut buf, MSG_UPDATE_UP);
    buf.put_u32(msg.round);
    buf.put_u32(msg.client);
    buf.put_u32(msg.data_size);
    buf.put_u8(codec as u8);
    encode_param_map(&mut buf, &msg.params);
    buf.freeze()
}

/// Decodes an [`UpdateUp`] frame.
pub fn decode_update_up(frame: &[u8]) -> Result<UpdateUp, CoreError> {
    let mut r = FrameReader::new(frame);
    read_header(&mut r, MSG_UPDATE_UP)?;
    let round = r.u32()?;
    let client = r.u32()?;
    let data_size = r.u32()?;
    let codec = r.u8()?;
    if codec != WireCodec::Dense as u8 {
        return Err(CoreError::MalformedFrame(format!("unknown codec {codec}")));
    }
    let params = decode_param_map(&mut r)?;
    if !r.is_empty() {
        return Err(CoreError::MalformedFrame(
            "trailing bytes after frame".into(),
        ));
    }
    Ok(UpdateUp {
        round,
        client,
        data_size,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_tensor::{init, rng};

    fn sample_map() -> ParamMap {
        let mut r = rng::seeded(7);
        let mut m = ParamMap::new();
        m.insert("conv.weight", init::normal(&[4, 3, 3, 3], 0.1, &mut r));
        m.insert("conv.bias", Tensor::zeros(&[4]));
        m.insert("fc.weight", init::normal(&[2, 36], 0.1, &mut r));
        m
    }

    #[test]
    fn update_up_dense_roundtrips_exactly() {
        let msg = UpdateUp {
            round: 3,
            client: 17,
            data_size: 12,
            params: sample_map(),
        };
        let frame = encode_update_up(&msg, WireCodec::Dense);
        let back = decode_update_up(&frame).expect("intact frame");
        assert_eq!(msg, back);
    }

    #[test]
    fn non_finite_values_survive_dense() {
        let mut params = ParamMap::new();
        params.insert(
            "w",
            Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0], &[4]),
        );
        let msg = UpdateUp {
            round: 0,
            client: 0,
            data_size: 1,
            params,
        };
        let back = decode_update_up(&encode_update_up(&msg, WireCodec::Dense)).unwrap();
        let w = back.params.get("w").unwrap().as_slice().to_vec();
        assert!(w[0].is_nan());
        assert_eq!(w[1], f32::INFINITY);
        assert_eq!(w[2], f32::NEG_INFINITY);
        assert_eq!(w[3].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn every_strict_prefix_errors() {
        let msg = UpdateUp {
            round: 3,
            client: 17,
            data_size: 12,
            params: sample_map(),
        };
        let frame = encode_update_up(&msg, WireCodec::Dense);
        for cut in 0..frame.len() {
            assert!(
                decode_update_up(&frame[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    fn sample_frame() -> Vec<u8> {
        let msg = UpdateUp {
            round: 0,
            client: 0,
            data_size: 1,
            params: sample_map(),
        };
        encode_update_up(&msg, WireCodec::Dense).to_vec()
    }

    #[test]
    fn wrong_message_type_is_rejected() {
        let mut frame = sample_frame();
        assert!(decode_update_up(&frame).is_ok());
        for msg in [0, 1, 3, 0xff] {
            frame[5] = msg;
            assert!(
                matches!(decode_update_up(&frame), Err(CoreError::MalformedFrame(_))),
                "message type {msg} decoded"
            );
        }
    }

    #[test]
    fn unknown_codec_is_rejected() {
        let mut frame = sample_frame();
        for codec in [1, 2, 0xff] {
            frame[18] = codec;
            assert!(
                matches!(decode_update_up(&frame), Err(CoreError::MalformedFrame(_))),
                "codec {codec} decoded"
            );
        }
    }

    /// A shape whose element count overflows `usize` (`65536⁴ = 2⁶⁴`)
    /// must be refused, not wrapped to an empty tensor or a panic.
    #[test]
    fn overflowing_shape_is_rejected() {
        let mut frame = BytesMut::new();
        put_header(&mut frame, MSG_UPDATE_UP);
        frame.put_u32(0); // round
        frame.put_u32(0); // client
        frame.put_u32(1); // data size
        frame.put_u8(WireCodec::Dense as u8);
        frame.put_u32(1); // one tensor
        frame.put_u16(1);
        frame.put_slice(b"w");
        frame.put_u8(4);
        for _ in 0..4 {
            frame.put_u32(65536);
        }
        assert_eq!(frame.len(), 43);
        assert!(matches!(
            decode_update_up(&frame),
            Err(CoreError::MalformedFrame(_))
        ));
    }
}
