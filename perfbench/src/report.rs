//! Turns traced replays into per-layer metrics and the per-layer table,
//! and renders the result line.

use std::collections::{BTreeMap, BTreeSet};

use cr_spectre_hid::detector::HidKind;

use crate::trace::SpanRec;

/// Span names that are not layer work: the replay's own root and the
/// caller's wait inside a fanned-out `par_map`.
const ROOT: &str = "replay";
const WAIT: &str = "core.parallel.wait";

/// The layer an operation belongs to: the repository module it calls.
pub fn layer_of(op: &str) -> &'static str {
    const LAYERS: [&str; 9] = [
        "core.attack",
        "core.parallel",
        "core.perturb",
        "core.campaign",
        "sim",
        "hpc",
        "asm",
        "rop",
        "hid",
    ];
    LAYERS
        .into_iter()
        .find(|l| op == *l || op.starts_with(&format!("{l}.")))
        .unwrap_or("untraced")
}

/// Time totals over all replays, per operation.
#[derive(Debug, Default, Clone)]
pub struct OpTotals {
    /// Spans seen.
    pub calls: u64,
    /// Summed span durations.
    pub incl_s: f64,
    /// Summed self time (duration minus same-thread children).
    pub self_s: f64,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default, Clone)]
pub struct Aggregate {
    /// Replays aggregated.
    pub replays: usize,
    /// Summed replay wall time.
    pub wall_s: f64,
    /// Summed replay wall time covered by layer spans on the caller.
    pub covered_s: f64,
    /// Per operation, keyed `name` or `name/label`.
    pub ops: BTreeMap<String, OpTotals>,
    /// Summed counters.
    pub counters: BTreeMap<String, f64>,
}

impl Aggregate {
    /// Adds one replay's spans and counters.
    pub fn add(&mut self, spans: &[SpanRec], counters: &BTreeMap<String, f64>) {
        self.replays += 1;
        let by_id: BTreeMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
        let mut child_same_thread: BTreeMap<u64, f64> = BTreeMap::new();
        let mut child_other_thread: BTreeSet<u64> = BTreeSet::new();
        for span in spans {
            let Some(parent) = span.parent.and_then(|p| by_id.get(&p)) else {
                continue;
            };
            if parent.thread == span.thread {
                *child_same_thread.entry(parent.id).or_insert(0.0) += span.secs();
            } else {
                child_other_thread.insert(parent.id);
            }
        }
        for span in spans {
            let self_s =
                (span.secs() - child_same_thread.get(&span.id).copied().unwrap_or(0.0)).max(0.0);
            if span.name == ROOT {
                self.wall_s += span.secs();
                self.covered_s += span.secs() - self_s;
            }
            // A caller whose jobs ran on worker threads was waiting, not
            // working: keep that apart from the layers' busy time.
            let name = if child_other_thread.contains(&span.id) {
                WAIT
            } else {
                span.name
            };
            let mut keys = vec![name.to_string()];
            if let Some(label) = span.label {
                keys.push(format!("{name}/{label}"));
            }
            for key in keys {
                let op = self.ops.entry(key).or_default();
                op.calls += 1;
                op.incl_s += span.secs();
                op.self_s += self_s;
            }
        }
        for (name, value) in counters {
            *self.counters.entry(name.clone()).or_insert(0.0) += value;
        }
    }

    fn per_call(&self, total: f64) -> f64 {
        total / self.replays.max(1) as f64
    }

    fn incl(&self, op: &str) -> f64 {
        self.ops.get(op).map_or(0.0, |o| o.incl_s)
    }

    fn calls(&self, op: &str) -> f64 {
        self.ops.get(op).map_or(0.0, |o| o.calls as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Caller-thread wall time covered by layer spans, over replay wall.
    pub fn coverage(&self) -> f64 {
        ratio(self.covered_s, self.wall_s)
    }

    /// Every per-layer metric except the `trace.*` ones, per driver call.
    /// Rates are ratios of totals, never sums of rates.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put =
            |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
        let time = |op: &str| self.per_call(self.incl(op));
        let count = |name: &str| self.per_call(self.counter(name));

        put("hpc.profile_s", time("hpc.profile"), "s");
        put("hpc.profile_calls", count("hpc.profile_calls"), "count");
        put("hpc.windows", count("hpc.windows"), "count");
        put("hpc.features_s", time("hpc.features"), "s");
        put("hpc.dataset_s", time("hpc.dataset"), "s");

        put("sim.load_s", time("sim.load"), "s");
        put(
            "sim.guest_instructions",
            count("sim.guest_instructions"),
            "count",
        );
        put("sim.guest_cycles", count("sim.guest_cycles"), "count");
        put(
            "sim.guest_mips",
            ratio(
                self.counter("sim.guest_instructions"),
                self.incl("hpc.profile"),
            ) / 1e6,
            "MIPS",
        );
        put("sim.l1d_misses", count("sim.l1d_misses"), "count");
        put(
            "sim.branch_mispredicts",
            count("sim.branch_mispredicts"),
            "count",
        );
        put("sim.spec_squashes", count("sim.spec_squashes"), "count");
        put("sim.clflushes", count("sim.clflushes"), "count");

        put("asm.image_s", time("asm.image"), "s");
        put("asm.images", count("asm.images"), "count");

        put("rop.scan_s", time("rop.scan"), "s");
        put("rop.gadgets", count("rop.gadgets"), "count");
        put("rop.probe_s", time("rop.probe"), "s");
        put(
            "rop.probe_ok_ratio",
            ratio(self.counter("rop.probe_ok"), self.counter("rop.probes")),
            "ratio",
        );
        put("rop.payload_s", time("rop.payload"), "s");

        put("core.attack.setup_s", time("core.attack.setup"), "s");
        put("core.attack.runs", count("core.attack.runs"), "count");
        put(
            "core.attack.leak_ok_ratio",
            ratio(
                self.counter("core.attack.leak_ok"),
                self.counter("core.attack.runs"),
            ),
            "ratio",
        );

        put("hid.train_s", time("hid.train"), "s");
        put(
            "hid.train_calls",
            self.per_call(self.calls("hid.train")),
            "count",
        );
        put("hid.train_rows", count("hid.train_rows"), "count");
        put(
            "hid.train_rows_per_s",
            ratio(self.counter("hid.train_rows"), self.incl("hid.train")),
            "rows/s",
        );
        put("hid.retrain_s", time("hid.retrain"), "s");
        put(
            "hid.retrain_calls",
            self.per_call(self.calls("hid.retrain")),
            "count",
        );
        put("hid.retrain_rows", count("hid.retrain_rows"), "count");
        put(
            "hid.retrain_rows_per_s",
            ratio(self.counter("hid.retrain_rows"), self.incl("hid.retrain")),
            "rows/s",
        );
        for kind in HidKind::ALL {
            let k = kind.name();
            put(
                &format!("hid.{k}.train_s"),
                time(&format!("hid.train/{k}")),
                "s",
            );
            put(
                &format!("hid.{k}.retrain_s"),
                time(&format!("hid.retrain/{k}")),
                "s",
            );
        }
        put("hid.score_s", time("hid.score"), "s");
        put("hid.score_rows", count("hid.score_rows"), "count");
        put(
            "hid.score_rows_per_s",
            ratio(self.counter("hid.score_rows"), self.incl("hid.score")),
            "rows/s",
        );
        put("hid.ingest_s", time("hid.ingest"), "s");

        put("core.campaign.noise_s", time("core.campaign.noise"), "s");
        put(
            "core.campaign.evaded_attempts",
            count("core.campaign.evaded_attempts"),
            "count",
        );
        put(
            "core.campaign.detected_attempts",
            count("core.campaign.detected_attempts"),
            "count",
        );
        put(
            "core.perturb.adaptations",
            count("core.perturb.adaptations"),
            "count",
        );

        put("core.parallel.calls", count("core.parallel.calls"), "count");
        put("core.parallel.busy_s", count("core.parallel.busy_s"), "s");
        put("core.parallel.idle_s", count("core.parallel.idle_s"), "s");
        put(
            "core.parallel.critical_s",
            count("core.parallel.critical_s"),
            "s",
        );
        m
    }

    /// The per-layer table: self time per operation and layer, its share
    /// of all busy self time, and calls, per driver call.
    pub fn table(&self) -> String {
        let busy: f64 = self
            .ops
            .iter()
            .filter(|(k, _)| !k.contains('/') && k.as_str() != WAIT)
            .map(|(_, o)| o.self_s)
            .sum();
        let mut rows: Vec<(&str, &str, &OpTotals)> = self
            .ops
            .iter()
            .filter(|(k, _)| !k.contains('/'))
            .map(|(k, o)| (layer_of(k), k.as_str(), o))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(b.0).then(b.2.self_s.total_cmp(&a.2.self_s)));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:<26} {:>9} {:>11} {:>7} {:>11}\n",
            "layer", "operation", "calls", "self_s", "share", "incl_s"
        ));
        let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
        for (layer, op, o) in &rows {
            let share = if *op == WAIT {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * ratio(o.self_s, busy))
            };
            if *op != WAIT {
                *layer_self.entry(layer).or_insert(0.0) += o.self_s;
            }
            out.push_str(&format!(
                "{:<14} {:<26} {:>9.1} {:>11.6} {:>7} {:>11.6}\n",
                layer,
                if *op == ROOT { "(replay glue)" } else { op },
                self.per_call(o.calls as f64),
                self.per_call(o.self_s),
                share,
                self.per_call(o.incl_s),
            ));
        }
        out.push_str("\nper layer (busy self time, all threads):\n");
        for (layer, s) in &layer_self {
            out.push_str(&format!(
                "{:<14} {:>11.6} s {:>6.1}%\n",
                layer,
                self.per_call(*s),
                100.0 * ratio(*s, busy)
            ));
        }
        out.push_str(&format!(
            "\nreplays {}  wall/replay {:.6} s  coverage {:.4}\n",
            self.replays,
            self.per_call(self.wall_s),
            self.coverage()
        ));
        out
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line stays valid JSON.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
