//! Perf-regression harness for the HID's flat math core.
//!
//! For each classifier family (LR, SVM, MLP, NN, kNN) it measures
//! **training** and **prediction** throughput in rows/sec, fast path
//! (flat [`Mat`] storage, batched GEMM prediction) against the seed
//! baseline kept verbatim in `cr_spectre_hid::reference` — the same
//! before/after role `fast_path = false` plays for `sim_throughput`.
//!
//! The run doubles as an equivalence check: every family's fast batch
//! predictions must equal the reference model's per-row predictions
//! exactly (the full bit-identity contract is locked by
//! `crates/hid/tests/fastmath_equivalence.rs`).
//!
//! Each rate is reported as the median, minimum and maximum over its
//! repetitions (speedups are ratios of medians), next to the host's
//! core count, CPU model and `rustc` version.
//!
//! Flags: `--quick` (smaller corpus, fewer reps), `--quiet` (result
//! lines only), `--telemetry PATH` (JSONL trace) and `--out PATH`
//! (default `BENCH_hid.json`).
//!
//! Run with `cargo run --release -p cr-spectre-bench --bin hid_throughput`.

use std::time::Instant;

use cr_spectre_core::cli::{self, Args, Kind, Spec};
use cr_spectre_hid::detector::Detector;
use cr_spectre_hid::linalg::Mat;
use cr_spectre_hid::reference::{RefDenseNet, RefKnn, RefLinearSvm, RefLogisticRegression};
use cr_spectre_hid::{DenseNet, Knn, LinearSvm, LogisticRegression};

/// One measured configuration: the rows/sec of each repetition.
struct Throughput {
    /// Rows pushed through per repetition.
    rows: u64,
    /// Rows per wall-clock second, one entry per repetition, sorted.
    rates: Vec<f64>,
}

impl Throughput {
    fn new(rows: u64, mut rates: Vec<f64>) -> Throughput {
        assert!(!rates.is_empty(), "at least one rep");
        rates.sort_by(f64::total_cmp);
        Throughput { rows, rates }
    }

    /// Median rate (the mean of the two middle reps for an even count).
    fn median(&self) -> f64 {
        let n = self.rates.len();
        (self.rates[(n - 1) / 2] + self.rates[n / 2]) / 2.0
    }

    fn min(&self) -> f64 {
        self.rates[0]
    }

    fn max(&self) -> f64 {
        self.rates[self.rates.len() - 1]
    }
}

/// Deterministic two-cluster dataset, the shape of normalized counter
/// windows (fig5 scale by default).
fn clusters(n: usize, dim: usize, sep: f64, seed: u64) -> (Mat, Vec<u8>) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2000) as f64 / 1000.0 - 1.0
    };
    let mut x = Mat::zeros(0, dim);
    let mut y = Vec::with_capacity(n);
    let mut row = vec![0.0; dim];
    for i in 0..n {
        let label = (i % 2) as u8;
        let center = if label == 1 { sep } else { -sep };
        row.fill_with(|| center + next());
        x.push_row(&row);
        y.push(label);
    }
    (x, y)
}

/// Training throughput of a freshly built model per rep, after one
/// warm-up fit. A reference model's time includes copying `x` into
/// jagged rows.
fn measure_train(
    build: &dyn Fn() -> Box<dyn Detector>,
    x: &Mat,
    y: &[u8],
    reps: u32,
) -> Throughput {
    let mut warm = build();
    warm.fit(x, y);
    let rates = (0..reps)
        .map(|_| {
            let mut model = build();
            let t0 = Instant::now();
            model.fit(x, y);
            x.rows() as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    Throughput::new(x.rows() as u64, rates)
}

/// Prediction throughput: `passes` full sweeps over the corpus per rep.
/// The fast model scores through `predict_batch` (`batch`); the
/// baseline through the seed's per-row `predict`.
fn measure_predict(
    model: &dyn Detector,
    x: &Mat,
    batch: bool,
    passes: u32,
    reps: u32,
) -> Throughput {
    let rows = (x.rows() as u64) * u64::from(passes);
    let rates = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let mut flagged = 0usize;
            for _ in 0..passes {
                flagged += if batch {
                    model.predict_batch(x).iter().filter(|&&p| p == 1).count()
                } else {
                    x.iter_rows().filter(|row| model.predict(row) == 1).count()
                };
            }
            let wall = t0.elapsed().as_secs_f64();
            std::hint::black_box(flagged);
            rows as f64 / wall
        })
        .collect();
    Throughput::new(rows, rates)
}

fn json_entry(t: &Throughput) -> String {
    format!(
        "{{\"rows_per_sec\": {{\"median\": {:.1}, \"min\": {:.1}, \"max\": {:.1}}}, \"reps\": {}, \"rows\": {}}}",
        t.median(),
        t.min(),
        t.max(),
        t.rates.len(),
        t.rows,
    )
}

struct FamilyResult {
    name: &'static str,
    train_fast: Throughput,
    train_base: Throughput,
    predict_fast: Throughput,
    predict_base: Throughput,
}

impl FamilyResult {
    /// Ratio of the median rates.
    fn train_speedup(&self) -> f64 {
        self.train_fast.median() / self.train_base.median()
    }

    /// Ratio of the median rates.
    fn predict_speedup(&self) -> f64 {
        self.predict_fast.median() / self.predict_base.median()
    }

    fn json(&self) -> String {
        format!(
            "  \"{}\": {{\n    \"train\": {{\"fast\": {}, \"baseline\": {}, \"speedup\": {:.3}}},\n    \
             \"predict\": {{\"fast\": {}, \"baseline\": {}, \"speedup\": {:.3}}}\n  }}",
            self.name,
            json_entry(&self.train_fast),
            json_entry(&self.train_base),
            self.train_speedup(),
            json_entry(&self.predict_fast),
            json_entry(&self.predict_base),
            self.predict_speedup(),
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn measure_family(
    args: &Args,
    name: &'static str,
    build_fast: &dyn Fn() -> Box<dyn Detector>,
    build_base: &dyn Fn() -> Box<dyn Detector>,
    x: &Mat,
    y: &[u8],
    passes: u32,
    reps: u32,
) -> FamilyResult {
    let train_fast = measure_train(build_fast, x, y, reps);
    let train_base = measure_train(build_base, x, y, reps);

    let mut fast = build_fast();
    fast.fit(x, y);
    let mut base = build_base();
    base.fit(x, y);
    // Before/after must agree before the numbers mean anything.
    let fast_pred = fast.predict_batch(x);
    let base_pred: Vec<u8> = x.iter_rows().map(|row| base.predict(row)).collect();
    assert_eq!(fast_pred, base_pred, "{name}: fast and baseline predictions diverge");

    let predict_fast = measure_predict(fast.as_ref(), x, true, passes, reps);
    let predict_base = measure_predict(base.as_ref(), x, false, passes, reps);
    let result = FamilyResult { name, train_fast, train_base, predict_fast, predict_base };
    args.note(&format!(
        "  {name:<4} train {:>10.0} -> {:>10.0} rows/s ({:.2}x)   predict {:>10.0} -> {:>10.0} rows/s ({:.2}x)",
        result.train_base.median(),
        result.train_fast.median(),
        result.train_speedup(),
        result.predict_base.median(),
        result.predict_fast.median(),
        result.predict_speedup(),
    ));
    result
}

const SPEC: &Spec = &[
    ("quick", Kind::Switch),
    ("quiet", Kind::Switch),
    ("telemetry", Kind::Text),
    ("out", Kind::Text),
];

const USAGE: &str =
    "usage: hid_throughput [--quick] [--quiet] [--telemetry PATH] [--out PATH]\n";

fn main() {
    let args = cli::parse_env_or_exit(SPEC, USAGE);
    if let Err(e) = args.install_telemetry() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let quick = args.switch("quick");
    let out_path = args.text("out").unwrap_or("BENCH_hid.json");

    // fig5 scale (800 × 4) at full size; --quick shrinks the corpus and
    // the rep counts but keeps every family and both directions.
    let (n, passes, reps) = if quick { (240, 20, 3) } else { (800, 50, 5) };
    let (x, y) = clusters(n, 4, 1.5, 0xb1d0);

    args.note(&format!("HID math-core throughput, {n} rows x 4 features:"));
    type Build = dyn Fn() -> Box<dyn Detector>;
    let families: [(&'static str, Box<Build>, Box<Build>); 5] = [
        (
            "LR",
            Box::new(|| Box::new(LogisticRegression::new()) as Box<dyn Detector>),
            Box::new(|| Box::new(RefLogisticRegression::new()) as Box<dyn Detector>),
        ),
        (
            "SVM",
            Box::new(|| Box::new(LinearSvm::new()) as Box<dyn Detector>),
            Box::new(|| Box::new(RefLinearSvm::new()) as Box<dyn Detector>),
        ),
        (
            "MLP",
            Box::new(|| Box::new(DenseNet::mlp()) as Box<dyn Detector>),
            Box::new(|| Box::new(RefDenseNet::mlp()) as Box<dyn Detector>),
        ),
        (
            "NN",
            Box::new(|| Box::new(DenseNet::nn6()) as Box<dyn Detector>),
            Box::new(|| Box::new(RefDenseNet::nn6()) as Box<dyn Detector>),
        ),
        (
            "kNN",
            Box::new(|| Box::new(Knn::new()) as Box<dyn Detector>),
            Box::new(|| Box::new(RefKnn::new()) as Box<dyn Detector>),
        ),
    ];

    let results: Vec<FamilyResult> = families
        .iter()
        .map(|(name, fast, base)| {
            measure_family(&args, name, fast.as_ref(), base.as_ref(), &x, &y, passes, reps)
        })
        .collect();

    let body: Vec<String> = results.iter().map(FamilyResult::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"hid_throughput\",\n  \"quick\": {},\n  \"rows\": {},\n  \"dim\": 4,\n  \"host\": {},\n{}\n}}\n",
        quick,
        n,
        cr_spectre_bench::host_json(),
        body.join(",\n"),
    );
    std::fs::write(out_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {out_path:?}: {e}"));

    for r in &results {
        println!(
            "{}: train {:.0} -> {:.0} rows/s ({:.2}x), predict {:.0} -> {:.0} rows/s ({:.2}x)",
            r.name,
            r.train_base.median(),
            r.train_fast.median(),
            r.train_speedup(),
            r.predict_base.median(),
            r.predict_fast.median(),
            r.predict_speedup(),
        );
    }
    println!("wrote {out_path}");
    let _ = cr_spectre_telemetry::shutdown();
}
