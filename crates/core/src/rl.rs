//! The RL state of §3.3: curiosity table `T_c`, resource table `T_r`,
//! the reward functions, and the table updates of Algorithm 1
//! (lines 12–26).

use bytes::{BufMut, BytesMut};
use serde::{Deserialize, Serialize};

use crate::compress::FrameReader;
use crate::error::CoreError;
use crate::pool::{Level, ModelPool};

/// The paper's resource-reward cap (§3.3): the "50 % success-rate
/// cap" that keeps strong clients from starving the rest.
pub const PAPER_REWARD_CAP: f64 = 0.5;

/// Curiosity table `T_c[type][client]` and resource table
/// `T_r[pool index][client]`, both initialised to 1 (Algorithm 1,
/// lines 1–2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlState {
    t_c: Vec<Vec<f64>>, // [3][clients]
    t_r: Vec<Vec<f64>>, // [2p+1][clients]
    p: usize,
    /// Upper bound on the resource reward (paper: 0.5, the "50 %
    /// success-rate cap"); configurable for the ablation benches.
    reward_cap: f64,
}

impl RlState {
    /// Creates the tables for a pool of `2p+1` entries and
    /// `num_clients` clients.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(p: usize, num_clients: usize) -> Self {
        assert!(p > 0 && num_clients > 0, "tables need positive dimensions");
        RlState {
            t_c: vec![vec![1.0; num_clients]; 3],
            t_r: vec![vec![1.0; num_clients]; 2 * p + 1],
            p,
            reward_cap: PAPER_REWARD_CAP,
        }
    }

    /// Overrides the resource-reward cap (paper default 0.5). A cap of
    /// 1.0 disables it — used by the design-choice ablation.
    ///
    /// # Panics
    ///
    /// Panics unless `cap` is in `(0, 1]`.
    pub fn with_reward_cap(mut self, cap: f64) -> Self {
        assert!(cap > 0.0 && cap <= 1.0, "cap must be in (0, 1]");
        self.reward_cap = cap;
        self
    }

    /// Number of clients tracked.
    pub fn num_clients(&self) -> usize {
        self.t_c[0].len()
    }

    /// Curiosity count for `(level, client)`.
    pub fn curiosity(&self, level: Level, client: usize) -> f64 {
        self.t_c[level.type_index()][client]
    }

    /// Training score `T_r[model][client]`.
    pub fn score(&self, pool_index: usize, client: usize) -> f64 {
        self.t_r[pool_index][client]
    }

    /// Curiosity reward `R_c = 1/√(T_c[type][c])` (MBIE-EB).
    pub fn curiosity_reward(&self, level: Level, client: usize) -> f64 {
        1.0 / self.curiosity(level, client).sqrt()
    }

    /// Resource reward `R_s(m_i, c)` (paper §3.3): for each pool index
    /// `k` in `m_i`'s level, sum the scores of every model from `k` up
    /// to `L_1`, normalised by `p × Σ_k T_r[k][c]`.
    pub fn resource_reward(&self, pool: &ModelPool, pool_index: usize, client: usize) -> f64 {
        let level = pool.entry(pool_index).level;
        let top = pool.len(); // exclusive upper bound (L_1 inclusive)
        let level_indices = pool.level_indices(level);
        let numerator: f64 = level_indices
            .iter()
            .map(|&k| (k..top).map(|t| self.t_r[t][client]).sum::<f64>())
            .sum();
        let total: f64 = (0..top).map(|k| self.t_r[k][client]).sum();
        if total <= 0.0 {
            return 0.0;
        }
        numerator / (self.p as f64 * total)
    }

    /// Combined reward `R = min(0.5, R_s) · R_c` (paper §3.3: the 50 %
    /// success-rate cap keeps strong clients from starving the rest).
    pub fn reward(&self, pool: &ModelPool, pool_index: usize, client: usize) -> f64 {
        let level = pool.entry(pool_index).level;
        let rs = self.resource_reward(pool, pool_index, client);
        rs.min(self.reward_cap) * self.curiosity_reward(level, client)
    }

    /// Appends the tables to a binary frame (big-endian, `f64` as raw
    /// bits) — the stable snapshot encoding.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(self.p as u32);
        buf.put_u64(self.reward_cap.to_bits());
        for table in [&self.t_c, &self.t_r] {
            buf.put_u32(table.len() as u32);
            buf.put_u32(table.first().map_or(0, Vec::len) as u32);
            for row in table {
                for &v in row {
                    buf.put_u64(v.to_bits());
                }
            }
        }
    }

    /// Parses tables encoded by [`RlState::encode`]. Never panics:
    /// truncated or structurally inconsistent frames return
    /// [`CoreError::MalformedFrame`].
    pub fn decode(r: &mut FrameReader<'_>) -> Result<Self, CoreError> {
        let p = r.u32()? as usize;
        let reward_cap = f64::from_bits(r.u64()?);
        if p == 0 || !(reward_cap > 0.0 && reward_cap <= 1.0) {
            return Err(CoreError::MalformedFrame(format!(
                "rl tables: invalid p={p} or cap={reward_cap}"
            )));
        }
        let mut tables = Vec::with_capacity(2);
        for (label, want_rows) in [("t_c", 3), ("t_r", 2 * p + 1)] {
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            if rows != want_rows || cols == 0 {
                return Err(CoreError::MalformedFrame(format!(
                    "rl tables: {label} is {rows}×{cols}, want {want_rows} rows"
                )));
            }
            if r.remaining() < rows * cols * 8 {
                return Err(CoreError::MalformedFrame(format!(
                    "rl tables: {label} exceeds remaining frame"
                )));
            }
            let mut table = Vec::with_capacity(rows);
            for _ in 0..rows {
                let mut row = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(f64::from_bits(r.u64()?));
                }
                table.push(row);
            }
            tables.push(table);
        }
        let t_r = tables.pop().expect("two tables pushed");
        let t_c = tables.pop().expect("two tables pushed");
        if t_c[0].len() != t_r[0].len() {
            return Err(CoreError::MalformedFrame(
                "rl tables: client dimensions disagree".into(),
            ));
        }
        Ok(RlState {
            t_c,
            t_r,
            p,
            reward_cap,
        })
    }

    /// Dispatch-time update (Algorithm 1, line 12): bump the curiosity
    /// count for the sent model's type.
    pub fn update_on_dispatch(&mut self, level: Level, client: usize) {
        self.t_c[level.type_index()][client] += 1.0;
    }

    /// Return-time update (Algorithm 1, lines 13–26).
    ///
    /// * `sent` / `returned` are pool indices of `m_i` and `m'_i`;
    ///   `returned = None` models a client that could not train even
    ///   the smallest entry.
    pub fn update_on_return(
        &mut self,
        pool: &ModelPool,
        sent: usize,
        returned: Option<usize>,
        client: usize,
    ) {
        let top = pool.len();
        match returned {
            Some(ret) if ret == sent => {
                // Line 13: curiosity for the returned type.
                self.t_c[pool.entry(ret).level.type_index()][client] += 1.0;
                // Lines 15–18: the client trained the model unpruned,
                // so every size ≥ sent gains a point, with an extra
                // `p−1` bonus on `L_1`.
                for t in sent..top {
                    self.t_r[t][client] += 1.0;
                }
                self.t_r[top - 1][client] += (self.p - 1) as f64;
            }
            Some(ret) => {
                self.t_c[pool.entry(ret).level.type_index()][client] += 1.0;
                // Lines 20–25: reward the size the client actually
                // managed, punish everything larger with a growing τ.
                self.t_r[ret][client] += self.p as f64;
                let mut tau = 0.0;
                for t in ret..top {
                    self.t_r[t][client] = (self.t_r[t][client] - tau).max(0.0);
                    tau += 1.0;
                }
            }
            None => {
                // The client failed entirely: punish every size.
                let mut tau = 1.0;
                for t in 0..top {
                    self.t_r[t][client] = (self.t_r[t][client] - tau).max(0.0);
                    tau += 1.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ModelPool, DEFAULT_RATIOS};
    use adaptivefl_models::ModelConfig;

    fn pool() -> ModelPool {
        ModelPool::split(&ModelConfig::tiny(10), 3, DEFAULT_RATIOS)
    }

    #[test]
    fn tables_initialise_to_one() {
        let rl = RlState::new(3, 5);
        assert_eq!(rl.curiosity(Level::Small, 0), 1.0);
        assert_eq!(rl.score(6, 4), 1.0);
        assert_eq!(rl.num_clients(), 5);
    }

    #[test]
    fn curiosity_reward_decays_with_selection() {
        let mut rl = RlState::new(3, 2);
        let before = rl.curiosity_reward(Level::Medium, 0);
        rl.update_on_dispatch(Level::Medium, 0);
        rl.update_on_dispatch(Level::Medium, 0);
        let after = rl.curiosity_reward(Level::Medium, 0);
        assert!(after < before);
        // Untouched client unchanged.
        assert_eq!(rl.curiosity_reward(Level::Medium, 1), before);
    }

    #[test]
    fn successful_training_raises_resource_reward_for_large_models() {
        let p = pool();
        let mut rl = RlState::new(p.p(), 3);
        let l1 = p.len() - 1;
        let before = rl.resource_reward(&p, l1, 0);
        // Client 0 repeatedly trains L_1 without pruning.
        for _ in 0..5 {
            rl.update_on_return(&p, l1, Some(l1), 0);
        }
        let after = rl.resource_reward(&p, l1, 0);
        assert!(
            after > before,
            "resource reward should grow after successes: {before} → {after}"
        );
        // Compared to an untouched client, client 0 looks stronger.
        assert!(after > rl.resource_reward(&p, l1, 1));
    }

    #[test]
    fn local_pruning_punishes_larger_sizes() {
        let p = pool();
        let mut rl = RlState::new(p.p(), 2);
        let l1 = p.len() - 1;
        // Sent L_1, client pruned it down to S_1 (index 2).
        rl.update_on_return(&p, l1, Some(2), 0);
        // S_1 got the +p bonus (minus τ=0): 1 + 3 = 4.
        assert_eq!(rl.score(2, 0), 4.0);
        // Larger sizes progressively punished: index 3 → 1-1=0, …
        assert_eq!(rl.score(3, 0), 0.0);
        assert_eq!(rl.score(l1, 0), 0.0);
        // Resource reward for L_1 on this client now lower than on a
        // fresh client.
        assert!(rl.resource_reward(&p, l1, 0) < rl.resource_reward(&p, l1, 1));
    }

    #[test]
    fn reward_is_capped_at_half_resource() {
        let p = pool();
        let mut rl = RlState::new(p.p(), 2);
        // Make client 0 look extremely strong.
        for _ in 0..50 {
            rl.update_on_return(&p, p.len() - 1, Some(p.len() - 1), 0);
        }
        let rs = rl.resource_reward(&p, 0, 0);
        assert!(rs > 0.5, "small models should look near-certain: {rs}");
        let r = rl.reward(&p, 0, 0);
        let rc = rl.curiosity_reward(Level::Small, 0);
        assert!(
            (r - 0.5 * rc).abs() < 1e-9,
            "cap not applied: {r} vs {}",
            0.5 * rc
        );
    }

    #[test]
    fn total_failure_zeroes_scores() {
        let p = pool();
        let mut rl = RlState::new(p.p(), 1);
        rl.update_on_return(&p, 0, None, 0);
        for t in 0..p.len() {
            assert_eq!(rl.score(t, 0), 0.0);
        }
    }

    #[test]
    fn encode_decode_roundtrips_trained_tables() {
        let p = pool();
        let mut rl = RlState::new(p.p(), 4).with_reward_cap(0.7);
        rl.update_on_dispatch(Level::Medium, 1);
        rl.update_on_return(&p, 6, Some(2), 1);
        rl.update_on_return(&p, 0, None, 3);
        let mut buf = bytes::BytesMut::new();
        rl.encode(&mut buf);
        let mut r = FrameReader::new(&buf);
        let back = RlState::decode(&mut r).expect("intact frame");
        assert!(r.is_empty());
        assert_eq!(rl, back);
    }

    #[test]
    fn decode_rejects_truncation() {
        let rl = RlState::new(2, 3);
        let mut buf = bytes::BytesMut::new();
        rl.encode(&mut buf);
        for cut in [0, 4, 11, buf.len() / 2, buf.len() - 1] {
            assert!(
                RlState::decode(&mut FrameReader::new(&buf[..cut])).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn fresh_state_resource_reward_scales_with_level() {
        // With all-ones tables, smaller models have larger numerators
        // (more upward mass), so R_s(S) > R_s(M) > R_s(L).
        let p = pool();
        let rl = RlState::new(p.p(), 1);
        let rs_s = rl.resource_reward(&p, 0, 0);
        let rs_m = rl.resource_reward(&p, 3, 0);
        let rs_l = rl.resource_reward(&p, 6, 0);
        assert!(rs_s > rs_m && rs_m > rs_l, "{rs_s} {rs_m} {rs_l}");
    }
}
