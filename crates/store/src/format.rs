//! The `.afs` (AdaptiveFL Snapshot) binary format.
//!
//! A file is `MAGIC u32 | VERSION u8 | payload_len u64 | payload |
//! crc32 u32`, big-endian throughout. The CRC covers exactly the
//! payload bytes, so truncation, bit rot and partial writes are all
//! caught before any field is interpreted.
//!
//! The payload is a sequence of tagged sections, each `tag u8 |
//! body_len u64 | body`. Readers skip unknown tags by length, so newer
//! writers can append sections without breaking older readers; the
//! five sections below are all required and may appear in any order.
//!
//! | tag | section  | contents                                        |
//! |-----|----------|-------------------------------------------------|
//! | 1   | config   | cfg fingerprint, method kind + name             |
//! | 2   | progress | completed rounds, pool shape                    |
//! | 3   | rng      | the run RNG's reconstruction words              |
//! | 4   | method   | named parameter maps, RL tables, opaque extras  |
//! | 5   | history  | accumulated round + eval records                |
//!
//! Parameter maps reuse the dense layout of
//! [`adaptivefl_comm::wire::encode_param_map`] (raw `f32` bit patterns
//! — lossless); floats elsewhere are stored as raw bits too, so a
//! decoded snapshot is bit-identical to the encoded one.

use adaptivefl_comm::wire::{decode_param_map, encode_param_map};
use adaptivefl_core::checkpoint::{MethodState, ServerSnapshot};
use adaptivefl_core::compress::FrameReader;
use adaptivefl_core::methods::MethodKind;
use adaptivefl_core::metrics::{EvalRecord, RoundRecord};
use adaptivefl_core::rl::RlState;
use adaptivefl_core::select::SelectionStrategy;
use adaptivefl_core::CoreError;
use bytes::{BufMut, BytesMut};

use crate::crc::crc32;

/// File magic: `AFS1` in ASCII.
pub const MAGIC: u32 = 0x4146_5331;
/// Format version. Bump on any incompatible layout change; readers
/// refuse other versions.
pub const VERSION: u8 = 1;

const SEC_CONFIG: u8 = 1;
const SEC_PROGRESS: u8 = 2;
const SEC_RNG: u8 = 3;
const SEC_METHOD: u8 = 4;
const SEC_HISTORY: u8 = 5;

fn bad(msg: impl Into<String>) -> CoreError {
    CoreError::Snapshot(msg.into())
}

/// Serialises a snapshot into a complete `.afs` file image.
pub fn encode_snapshot(snap: &ServerSnapshot) -> Vec<u8> {
    let mut payload = BytesMut::new();
    put_section(&mut payload, SEC_CONFIG, |b| {
        put_str32(b, &snap.cfg_fingerprint);
        encode_kind(b, snap.kind);
        put_str16(b, &snap.method_name);
    });
    put_section(&mut payload, SEC_PROGRESS, |b| {
        b.put_u64(snap.completed_rounds as u64);
        b.put_u32(snap.pool_p as u32);
        b.put_u32(snap.pool_params.len() as u32);
        for &p in &snap.pool_params {
            b.put_u64(p);
        }
    });
    put_section(&mut payload, SEC_RNG, |b| {
        b.put_u32(snap.rng_words.len() as u32);
        for &w in &snap.rng_words {
            b.put_u32(w);
        }
    });
    put_section(&mut payload, SEC_METHOD, |b| {
        encode_method_state(b, &snap.method);
    });
    put_section(&mut payload, SEC_HISTORY, |b| {
        b.put_u32(snap.rounds.len() as u32);
        for r in &snap.rounds {
            r.encode(b);
        }
        b.put_u32(snap.evals.len() as u32);
        for e in &snap.evals {
            e.encode(b);
        }
    });

    let mut out = BytesMut::with_capacity(payload.len() + 17);
    out.put_u32(MAGIC);
    out.put_u8(VERSION);
    out.put_u64(payload.len() as u64);
    out.put_slice(&payload);
    out.put_u32(crc32(&payload));
    out.to_vec()
}

/// Parses and validates a `.afs` file image. Any corruption — bad
/// magic, wrong version, truncation, CRC mismatch, malformed section —
/// yields [`CoreError::Snapshot`]; decoding never panics.
pub fn decode_snapshot(file: &[u8]) -> Result<ServerSnapshot, CoreError> {
    let mut r = FrameReader::new(file);
    let magic = r.u32().map_err(|_| bad("file too short for header"))?;
    if magic != MAGIC {
        return Err(bad(format!("bad magic {magic:#010x}")));
    }
    let version = r.u8().map_err(|_| bad("file too short for header"))?;
    if version != VERSION {
        return Err(bad(format!("unsupported snapshot version {version}")));
    }
    let payload_len = r.u64().map_err(|_| bad("file too short for header"))? as usize;
    if r.remaining() < payload_len + 4 {
        return Err(bad(format!(
            "payload declares {payload_len} bytes, file holds {}",
            r.remaining().saturating_sub(4)
        )));
    }
    let payload = r
        .bytes(payload_len)
        .map_err(|_| bad("truncated payload"))?
        .to_vec();
    let stored_crc = r.u32().map_err(|_| bad("missing checksum"))?;
    let actual_crc = crc32(&payload);
    if stored_crc != actual_crc {
        return Err(bad(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    if !r.is_empty() {
        return Err(bad("trailing bytes after checksum"));
    }
    decode_payload(&payload)
}

fn decode_payload(payload: &[u8]) -> Result<ServerSnapshot, CoreError> {
    let mut config = None;
    let mut progress = None;
    let mut rng_words = None;
    let mut method = None;
    let mut history = None;

    let mut r = FrameReader::new(payload);
    while !r.is_empty() {
        let tag = r.u8().map_err(|_| bad("truncated section tag"))?;
        let len = r.u64().map_err(|_| bad("truncated section length"))? as usize;
        let body = r
            .bytes(len)
            .map_err(|_| bad(format!("section {tag} truncated")))?;
        let mut s = FrameReader::new(body);
        match tag {
            SEC_CONFIG => {
                let fp = get_str32(&mut s)?;
                let kind = decode_kind(&mut s)?;
                let name = get_str16(&mut s)?;
                config = Some((fp, kind, name));
            }
            SEC_PROGRESS => {
                let completed = s.u64().map_err(|_| bad("progress: rounds"))? as usize;
                let pool_p = s.u32().map_err(|_| bad("progress: p"))? as usize;
                let n = s.u32().map_err(|_| bad("progress: pool count"))? as usize;
                if s.remaining() < n * 8 {
                    return Err(bad("progress: pool entries exceed section"));
                }
                let mut pool_params = Vec::with_capacity(n);
                for _ in 0..n {
                    pool_params.push(s.u64().map_err(|_| bad("progress: pool entry"))?);
                }
                progress = Some((completed, pool_p, pool_params));
            }
            SEC_RNG => {
                let n = s.u32().map_err(|_| bad("rng: count"))? as usize;
                if s.remaining() < n * 4 {
                    return Err(bad("rng: words exceed section"));
                }
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(s.u32().map_err(|_| bad("rng: word"))?);
                }
                rng_words = Some(words);
            }
            SEC_METHOD => {
                method = Some(decode_method_state(&mut s)?);
            }
            SEC_HISTORY => {
                let nr = s.u32().map_err(|_| bad("history: round count"))? as usize;
                let mut rounds = Vec::with_capacity(nr.min(s.remaining()));
                for _ in 0..nr {
                    rounds.push(RoundRecord::decode(&mut s)?);
                }
                let ne = s.u32().map_err(|_| bad("history: eval count"))? as usize;
                let mut evals = Vec::with_capacity(ne.min(s.remaining()));
                for _ in 0..ne {
                    evals.push(EvalRecord::decode(&mut s)?);
                }
                history = Some((rounds, evals));
            }
            // Unknown section from a newer writer: skipped by length.
            _ => continue,
        }
        if !s.is_empty() {
            return Err(bad(format!("section {tag}: trailing bytes")));
        }
    }

    let (cfg_fingerprint, kind, method_name) =
        config.ok_or_else(|| bad("missing config section"))?;
    let (completed_rounds, pool_p, pool_params) =
        progress.ok_or_else(|| bad("missing progress section"))?;
    let rng_words = rng_words.ok_or_else(|| bad("missing rng section"))?;
    let method = method.ok_or_else(|| bad("missing method section"))?;
    let (rounds, evals) = history.ok_or_else(|| bad("missing history section"))?;
    Ok(ServerSnapshot {
        kind,
        method_name,
        completed_rounds,
        rng_words,
        method,
        rounds,
        evals,
        cfg_fingerprint,
        pool_p,
        pool_params,
    })
}

fn put_section(buf: &mut BytesMut, tag: u8, fill: impl FnOnce(&mut BytesMut)) {
    let mut body = BytesMut::new();
    fill(&mut body);
    buf.put_u8(tag);
    buf.put_u64(body.len() as u64);
    buf.put_slice(&body);
}

fn put_str16(buf: &mut BytesMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn put_str32(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str16(r: &mut FrameReader<'_>) -> Result<String, CoreError> {
    let len = r.u16().map_err(|_| bad("truncated string length"))? as usize;
    let bytes = r.bytes(len).map_err(|_| bad("truncated string"))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-utf8 string"))
}

fn get_str32(r: &mut FrameReader<'_>) -> Result<String, CoreError> {
    let len = r.u32().map_err(|_| bad("truncated string length"))? as usize;
    if r.remaining() < len {
        return Err(bad("string exceeds section"));
    }
    let bytes = r.bytes(len).map_err(|_| bad("truncated string"))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| bad("non-utf8 string"))
}

/// Encodes a [`MethodKind`] as a flag byte (always 1), a kind tag, and
/// the kind's payload: a strategy tag for selection variants, the cap's
/// `f64` bits for capped AdaptiveFL. The numeric tags are part of the
/// on-disk format: append-only, never reassign.
fn encode_kind(buf: &mut BytesMut, kind: MethodKind) {
    buf.put_u8(1);
    match kind {
        MethodKind::AdaptiveFl => buf.put_u8(0),
        MethodKind::AdaptiveFlVariant(s) => {
            buf.put_u8(1);
            buf.put_u8(match s {
                SelectionStrategy::Random => 0,
                SelectionStrategy::CuriosityOnly => 1,
                SelectionStrategy::ResourceOnly => 2,
                SelectionStrategy::CuriosityAndResource => 3,
            });
        }
        MethodKind::AdaptiveFlGreedy => buf.put_u8(2),
        MethodKind::AllLarge => buf.put_u8(3),
        MethodKind::Decoupled => buf.put_u8(4),
        MethodKind::HeteroFl => buf.put_u8(5),
        MethodKind::ScaleFl => buf.put_u8(6),
        MethodKind::AdaptiveFlCapped(bits) => {
            buf.put_u8(7);
            buf.put_u64(bits);
        }
    }
}

/// Decodes [`encode_kind`]'s layout. Flag 0 marks a kind-less file;
/// resume has no method to instantiate for it, so it is rejected like
/// a corrupt file.
fn decode_kind(r: &mut FrameReader<'_>) -> Result<MethodKind, CoreError> {
    match r.u8().map_err(|_| bad("truncated kind flag"))? {
        0 => return Err(bad("snapshot has no method kind")),
        1 => {}
        f => return Err(bad(format!("bad kind flag {f}"))),
    }
    Ok(match r.u8().map_err(|_| bad("truncated kind tag"))? {
        0 => MethodKind::AdaptiveFl,
        1 => {
            let s = match r.u8().map_err(|_| bad("truncated strategy tag"))? {
                0 => SelectionStrategy::Random,
                1 => SelectionStrategy::CuriosityOnly,
                2 => SelectionStrategy::ResourceOnly,
                3 => SelectionStrategy::CuriosityAndResource,
                t => return Err(bad(format!("unknown selection strategy tag {t}"))),
            };
            MethodKind::AdaptiveFlVariant(s)
        }
        2 => MethodKind::AdaptiveFlGreedy,
        3 => MethodKind::AllLarge,
        4 => MethodKind::Decoupled,
        5 => MethodKind::HeteroFl,
        6 => MethodKind::ScaleFl,
        7 => {
            let bits = r.u64().map_err(|_| bad("truncated reward cap"))?;
            let cap = f64::from_bits(bits);
            // Instantiating the kind asserts this range; reject here so
            // a decodable file can never panic the resume.
            if !(cap > 0.0 && cap <= 1.0) {
                return Err(bad(format!("reward cap {cap} outside (0, 1]")));
            }
            MethodKind::AdaptiveFlCapped(bits)
        }
        t => return Err(bad(format!("unknown method kind tag {t}"))),
    })
}

fn encode_method_state(buf: &mut BytesMut, state: &MethodState) {
    buf.put_u32(state.params.len() as u32);
    for (name, map) in &state.params {
        put_str16(buf, name);
        encode_param_map(buf, map);
    }
    match &state.rl {
        None => buf.put_u8(0),
        Some(rl) => {
            buf.put_u8(1);
            rl.encode(buf);
        }
    }
    buf.put_u32(state.extra.len() as u32);
    for (key, bytes) in &state.extra {
        put_str16(buf, key);
        buf.put_u64(bytes.len() as u64);
        buf.put_slice(bytes);
    }
}

fn decode_method_state(r: &mut FrameReader<'_>) -> Result<MethodState, CoreError> {
    let np = r.u32().map_err(|_| bad("method: map count"))? as usize;
    let mut params = Vec::with_capacity(np.min(r.remaining()));
    for _ in 0..np {
        let name = get_str16(r)?;
        let map = decode_param_map(r)?;
        params.push((name, map));
    }
    let rl = match r.u8().map_err(|_| bad("method: rl flag"))? {
        0 => None,
        1 => Some(RlState::decode(r)?),
        f => return Err(bad(format!("method: bad rl flag {f}"))),
    };
    let ne = r.u32().map_err(|_| bad("method: extra count"))? as usize;
    let mut extra = Vec::with_capacity(ne.min(r.remaining()));
    for _ in 0..ne {
        let key = get_str16(r)?;
        let len = r.u64().map_err(|_| bad("method: extra length"))? as usize;
        if r.remaining() < len {
            return Err(bad("method: extra exceeds section"));
        }
        extra.push((
            key,
            r.bytes(len)
                .map_err(|_| bad("method: extra body"))?
                .to_vec(),
        ));
    }
    Ok(MethodState { params, rl, extra })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivefl_nn::ParamMap;
    use adaptivefl_tensor::Tensor;

    fn sample_snapshot() -> ServerSnapshot {
        let mut map = ParamMap::new();
        map.insert(
            "w",
            Tensor::from_vec(vec![1.5, -0.25, f32::MIN_POSITIVE], &[3]),
        );
        map.insert("b", Tensor::zeros(&[2, 2]));
        ServerSnapshot {
            kind: MethodKind::AdaptiveFlVariant(SelectionStrategy::CuriosityOnly),
            method_name: "AdaptiveFL+C".into(),
            completed_rounds: 7,
            rng_words: (0..33).collect(),
            method: MethodState {
                params: vec![("global".into(), map)],
                rl: Some(RlState::new(2, 5)),
                extra: vec![("blob".into(), vec![1, 2, 3])],
            },
            rounds: Vec::new(),
            evals: Vec::new(),
            cfg_fingerprint: "SimConfig { .. }".into(),
            pool_p: 2,
            pool_params: vec![10, 20, 30, 40, 50],
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample_snapshot();
        let file = encode_snapshot(&snap);
        let back = decode_snapshot(&file).expect("valid file decodes");
        assert_eq!(snap, back);
    }

    #[test]
    fn kind_tags_roundtrip_for_every_variant() {
        let kinds = [
            MethodKind::AdaptiveFl,
            MethodKind::AdaptiveFlVariant(SelectionStrategy::Random),
            MethodKind::AdaptiveFlVariant(SelectionStrategy::CuriosityOnly),
            MethodKind::AdaptiveFlVariant(SelectionStrategy::ResourceOnly),
            MethodKind::AdaptiveFlVariant(SelectionStrategy::CuriosityAndResource),
            MethodKind::AdaptiveFlGreedy,
            MethodKind::AllLarge,
            MethodKind::Decoupled,
            MethodKind::HeteroFl,
            MethodKind::ScaleFl,
            MethodKind::adaptive_fl_capped(1.0),
            MethodKind::adaptive_fl_capped(0.5),
        ];
        for kind in kinds {
            let mut buf = BytesMut::new();
            encode_kind(&mut buf, kind);
            let mut r = FrameReader::new(&buf);
            assert_eq!(decode_kind(&mut r).expect("valid tag"), kind);
            assert!(r.is_empty());
        }
    }

    /// `sample_snapshot()` as written by the original v1 encoder.
    const V1_FIXTURE: &[u8] = include_bytes!("../tests/fixtures/v1-adaptivefl-c.afs");
    /// The same snapshot written without a method kind (flag 0).
    const V1_KINDLESS: &[u8] = include_bytes!("../tests/fixtures/v1-kindless.afs");

    #[test]
    fn v1_fixture_decodes_to_the_same_snapshot() {
        assert_eq!(
            decode_snapshot(V1_FIXTURE).expect("v1 file decodes"),
            sample_snapshot()
        );
    }

    #[test]
    fn kindless_v1_fixture_is_rejected_without_panicking() {
        match decode_snapshot(V1_KINDLESS) {
            Err(CoreError::Snapshot(msg)) => assert!(msg.contains("no method kind"), "{msg}"),
            other => panic!("kind-less file must be a snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn capped_kind_outside_the_cap_range_is_rejected() {
        for cap in [0.0, -0.5, 1.5, f64::NAN] {
            let mut buf = BytesMut::new();
            encode_kind(&mut buf, MethodKind::AdaptiveFlCapped(cap.to_bits()));
            assert!(
                decode_kind(&mut FrameReader::new(&buf)).is_err(),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn every_corrupting_byte_flip_is_detected() {
        let snap = sample_snapshot();
        let mut file = encode_snapshot(&snap);
        // Flip one bit in every byte; decode must either fail or (never)
        // silently return a different snapshot.
        for i in 0..file.len() {
            file[i] ^= 0x40;
            match decode_snapshot(&file) {
                Err(_) => {}
                Ok(back) => panic!("flip at byte {i} survived decode (equal: {})", back == snap),
            }
            file[i] ^= 0x40;
        }
        assert_eq!(decode_snapshot(&file).expect("restored"), snap);
    }

    #[test]
    fn truncation_is_detected() {
        let file = encode_snapshot(&sample_snapshot());
        for cut in [0, 1, 4, 12, file.len() / 2, file.len() - 1] {
            assert!(decode_snapshot(&file[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_trailing_section_is_skipped() {
        let snap = sample_snapshot();
        let file = encode_snapshot(&snap);
        // Rebuild the file with an extra unknown section appended to the
        // payload (as a newer writer would produce).
        let payload_len = u64::from_be_bytes(file[5..13].try_into().unwrap()) as usize;
        let mut payload = file[13..13 + payload_len].to_vec();
        payload.push(200); // unknown tag
        payload.extend_from_slice(&3u64.to_be_bytes());
        payload.extend_from_slice(&[9, 9, 9]);
        let mut rebuilt = Vec::new();
        rebuilt.extend_from_slice(&MAGIC.to_be_bytes());
        rebuilt.push(VERSION);
        rebuilt.extend_from_slice(&(payload.len() as u64).to_be_bytes());
        rebuilt.extend_from_slice(&payload);
        rebuilt.extend_from_slice(&crc32(&payload).to_be_bytes());
        assert_eq!(decode_snapshot(&rebuilt).expect("skips unknown"), snap);
    }
}
