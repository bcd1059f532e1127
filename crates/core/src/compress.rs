//! Bounds-checked reading of binary frames.
//!
//! [`FrameReader`] is the one primitive under every decoder of
//! untrusted bytes: the comm crate's wire frames and the store crate's
//! snapshot files both read through it, so a truncated or corrupt
//! input surfaces as [`CoreError::MalformedFrame`], never a panic.

use crate::error::CoreError;

/// A bounds-checked big-endian frame reader: every read returns
/// [`CoreError::MalformedFrame`] on underflow instead of panicking,
/// so decoders can safely consume frames truncated in transit.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    /// Wraps a byte slice for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the frame is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        if self.remaining() < n {
            return Err(CoreError::MalformedFrame(format!(
                "frame truncated: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CoreError> {
        let b = self.bytes(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CoreError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CoreError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }
}
