//! A reusable buffer arena for hot-path temporaries.
//!
//! Aggregation, the optimizer, and local training all need short-lived
//! `f32` buffers (accumulators, momentum tensors, decayed gradients)
//! whose sizes repeat every round. Allocating them per parameter per
//! round dominates small-model rounds; a [`Scratch`] arena recycles
//! them so each distinct size is allocated roughly once per run.
//!
//! # Determinism contract
//!
//! Buffers leave the arena in a content-defined state: [`Scratch::take`]
//! returns an all-zero buffer, regardless of what a recycled buffer
//! previously held.
//! Parallel client jobs may therefore take and recycle in any
//! interleaving — results never depend on which buffer was handed out,
//! so a run sharing one arena is bit-identical to a run allocating
//! fresh (asserted by `tests/scratch_determinism.rs`).

use std::sync::{Arc, Mutex};

use crate::Tensor;

/// A shared, thread-safe pool of reusable `f32` buffers.
///
/// `Scratch` is a cheap-to-clone handle; clones share the same pool, so
/// one arena can be threaded through an entire simulation (server
/// aggregation and parallel client jobs alike).
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    pool: Arc<Mutex<Pool>>,
}

#[derive(Debug, Default)]
struct Pool {
    free: Vec<Vec<f32>>,
    takes: u64,
    fresh: u64,
}

impl Scratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zeroed buffer of exactly `len` elements.
    pub fn take(&self, len: usize) -> Vec<f32> {
        let mut buf = self.pop(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Takes a zeroed tensor of the given shape.
    pub fn take_tensor(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(self.take(shape.iter().product()), shape)
    }

    /// Returns a buffer to the arena for reuse.
    pub fn recycle(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.lock().free.push(buf);
    }

    /// Returns a tensor's backing buffer to the arena.
    pub fn recycle_tensor(&self, t: Tensor) {
        self.recycle(t.into_vec());
    }

    /// Total number of `take*` calls served so far.
    pub fn takes(&self) -> u64 {
        self.lock().takes
    }

    /// Number of takes served from a recycled buffer.
    pub fn reuses(&self) -> u64 {
        let p = self.lock();
        p.takes - p.fresh
    }

    /// Number of buffers currently parked in the arena.
    pub fn free_buffers(&self) -> usize {
        self.lock().free.len()
    }

    fn pop(&self, len: usize) -> Vec<f32> {
        let mut p = self.lock();
        p.takes += 1;
        // Prefer a buffer that already has the capacity; otherwise grow
        // the most recently recycled one (it keeps its larger capacity
        // on the next round trip).
        if let Some(i) = p.free.iter().rposition(|b| b.capacity() >= len) {
            return p.free.swap_remove(i);
        }
        if let Some(b) = p.free.pop() {
            return b;
        }
        p.fresh += 1;
        Vec::new()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Pool> {
        self.pool.lock().expect("scratch pool poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_always_zeroed() {
        let s = Scratch::new();
        let mut b = s.take(4);
        b.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        s.recycle(b);
        assert_eq!(s.take(4), vec![0.0; 4]);
        // A shorter take from the same dirty buffer is zeroed too.
        let mut b = s.take(4);
        b.fill(9.0);
        s.recycle(b);
        assert_eq!(s.take(2), vec![0.0; 2]);
    }

    #[test]
    fn reuse_is_counted() {
        let s = Scratch::new();
        let b = s.take(8);
        s.recycle(b);
        let _ = s.take(8);
        assert_eq!(s.takes(), 2);
        assert_eq!(s.reuses(), 1);
    }

    #[test]
    fn clones_share_the_pool() {
        let a = Scratch::new();
        let b = a.clone();
        b.recycle(vec![0.0; 16]);
        assert_eq!(a.free_buffers(), 1);
        let _ = a.take(16);
        assert_eq!(b.reuses(), 1);
    }

    #[test]
    fn tensor_round_trip() {
        let s = Scratch::new();
        let t = s.take_tensor(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
        s.recycle_tensor(t);
        let u = s.take_tensor(&[6]);
        assert_eq!(u.as_slice(), &[0.0; 6]);
        assert_eq!(s.reuses(), 1);
    }
}
