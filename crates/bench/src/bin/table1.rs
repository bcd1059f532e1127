//! Table 1: split settings of VGG16 — level, pruning configuration
//! `(r_w, I)`, #PARAMS, #FLOPS and size ratio, computed analytically on
//! the full-size architecture (3×32×32 input, 10 classes). It only
//! prints: `tests/paper_invariants.rs` and the pool tests pin the
//! numbers.
//!
//! ```text
//! cargo run --release -p adaptivefl-bench --bin table1
//! ```

use adaptivefl_core::pool::{ModelPool, DEFAULT_RATIOS};
use adaptivefl_models::cost::cost_of;
use adaptivefl_models::ModelConfig;

/// Prints a fixed-width table.
fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let width = 12usize;
    let head: Vec<String> = headers.iter().map(|h| format!("{h:>width$}")).collect();
    println!("{}", head.join(" "));
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| format!("{c:>width$}")).collect();
        println!("{}", cells.join(" "));
    }
}

fn main() {
    let cfg = ModelConfig::vgg16_cifar();
    let pool = ModelPool::split(&cfg, 3, DEFAULT_RATIOS);
    let full = pool.largest().params as f64;

    let mut rows = Vec::new();
    // Paper order: L_1, M_1..M_3, S_1..S_3.
    let mut entries: Vec<_> = pool.entries().iter().collect();
    entries.reverse();
    entries.sort_by_key(|e| (std::cmp::Reverse(e.level), e.rank));
    for e in entries {
        let bp = cfg.full_blueprint(&e.plan);
        let c = cost_of(&bp, cfg.input);
        let i_str = if e.spec.is_full() {
            "N/A".to_string()
        } else {
            e.spec.start_unit.to_string()
        };
        rows.push(vec![
            e.name(),
            if e.spec.is_full() {
                "1.00".into()
            } else {
                format!("{:.2}", e.spec.r_w)
            },
            i_str,
            format!("{:.2}M", c.params as f64 / 1e6),
            format!("{:.2}M", c.macs as f64 / 1e6),
            format!("{:.2}", c.params as f64 / full),
        ]);
    }

    print_table(
        "Table 1: VGG16 split settings (paper: L1 33.65M/333.22M, M1 16.81M/0.50, S1 8.39M/0.25)",
        &["Level", "r_w", "I", "#PARAMS", "#FLOPS", "ratio"],
        &rows,
    );
}
