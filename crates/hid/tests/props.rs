//! Property-based tests of the detector stack.

use proptest::prelude::*;

use cr_spectre_hid::detector::{Detector, Hid, HidKind, HidMode};
use cr_spectre_hid::linalg::{dot, gemm_nt, matvec_into, sigmoid, Mat};
use cr_spectre_hid::reference::RefDenseNet;
use cr_spectre_hid::{DenseNet, LinearSvm, LogisticRegression};
use cr_spectre_hpc::dataset::{Dataset, Label};

fn separable(n: usize, dim: usize, sep: f64, seed: u64) -> Dataset {
    let mut d = Dataset::new();
    let mut state = seed | 1;
    for i in 0..n {
        let label = if i % 2 == 0 { Label::Benign } else { Label::Attack };
        let center = if i % 2 == 0 { -sep } else { sep };
        let row = (0..dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                center + (state % 1000) as f64 / 1000.0 - 0.5
            })
            .collect();
        d.push_row(row, label);
    }
    d
}

proptest! {
    // Model fitting is expensive (especially unoptimized); a handful of
    // seeds per property keeps the suite fast while still fuzzing.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sigmoid is bounded, monotone and symmetric for all inputs.
    #[test]
    fn sigmoid_properties(z in -1e6f64..1e6) {
        let s = sigmoid(z);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(sigmoid(z + 1.0) >= s);
        prop_assert!((s + sigmoid(-z) - 1.0).abs() < 1e-9);
    }

    /// Dot product is symmetric and linear for all vectors.
    #[test]
    fn dot_is_symmetric_bilinear(
        a in proptest::collection::vec(-1e3f64..1e3, 4),
        b in proptest::collection::vec(-1e3f64..1e3, 4),
        k in -10.0f64..10.0,
    ) {
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-6);
        let ka: Vec<f64> = a.iter().map(|x| x * k).collect();
        prop_assert!((dot(&ka, &b) - k * dot(&a, &b)).abs() < 1e-3);
    }

    /// Every classifier family fits cleanly separable data to high
    /// accuracy regardless of the sampling seed.
    #[test]
    fn all_models_fit_separable_data(seed in any::<u64>()) {
        let data = separable(120, 3, 4.0, seed);
        let x = Mat::from_rows(&data.x);
        for kind in HidKind::ALL {
            let mut model = kind.build();
            model.fit(&x, &data.y);
            let acc = model.accuracy(&x, &data.y);
            prop_assert!(acc > 0.9, "{}: {}", kind.name(), acc);
        }
    }

    /// Predictions are deterministic: the same trained model classifies
    /// the same row identically forever.
    #[test]
    fn prediction_is_pure(seed in any::<u64>(), probe in proptest::collection::vec(-5.0f64..5.0, 3)) {
        let data = separable(60, 3, 3.0, seed);
        let x = Mat::from_rows(&data.x);
        let mut lr = LogisticRegression::new();
        lr.fit(&x, &data.y);
        prop_assert_eq!(lr.predict(&probe), lr.predict(&probe));
        let mut svm = LinearSvm::new();
        svm.fit(&x, &data.y);
        prop_assert_eq!(svm.predict(&probe), svm.predict(&probe));
        let mut net = DenseNet::mlp();
        net.fit(&x, &data.y);
        prop_assert_eq!(net.predict(&probe), net.predict(&probe));
    }

    /// detection_rate is always a probability, and equals 1 − rate of
    /// the complement set.
    #[test]
    fn detection_rate_is_a_probability(seed in any::<u64>()) {
        let data = separable(100, 3, 3.0, seed);
        let hid = Hid::train(HidKind::Svm, HidMode::Offline, data.clone());
        let rate = hid.detection_rate(&data.x);
        prop_assert!((0.0..=1.0).contains(&rate));
        let flagged = data.x.iter().filter(|r| hid.classify(r) == 1).count();
        prop_assert!((rate - flagged as f64 / data.len() as f64).abs() < 1e-12);
    }

    /// The online corpus cap is respected after any number of observes.
    #[test]
    fn observed_cap_bounds_corpus(batches in proptest::collection::vec(10usize..80, 1..6)) {
        let initial = separable(60, 3, 3.0, 5);
        let mut hid = Hid::train(HidKind::Lr, HidMode::Online, initial);
        hid.set_observed_cap(100);
        for (i, n) in batches.iter().enumerate() {
            let rows: Vec<Vec<f64>> = (0..*n).map(|k| vec![k as f64, i as f64, 0.0]).collect();
            hid.observe(&rows, Label::Attack);
            prop_assert!(hid.corpus_len() <= 60 + 100);
        }
    }

    /// Blocked GEMM equals the naive per-element `dot` **bit for bit**
    /// across random shapes, including degenerate ones (empty matrices,
    /// single rows, widths straddling the block size). This is the
    /// contract every fast prediction path rests on.
    #[test]
    fn gemm_nt_is_bitwise_naive_dot(
        m in 0usize..70,
        n in 0usize..70,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let (a, b) = random_pair(m, n, k, seed);
        let mut out = Mat::zeros(m, n);
        gemm_nt(&a, &b, &mut out);
        for i in 0..m {
            for j in 0..n {
                let expect = dot(a.row(i), b.row(j));
                prop_assert_eq!(
                    out.row(i)[j].to_bits(),
                    expect.to_bits(),
                    "element ({}, {})", i, j
                );
            }
        }
    }

    /// 1×N edge case: a single-row GEMM is exactly a matvec, and
    /// `matvec_into` is exactly a stack of naive dots.
    #[test]
    fn matvec_is_bitwise_naive_dot(
        rows in 0usize..70,
        k in 1usize..40,
        seed in any::<u64>(),
    ) {
        let (m, xmat) = random_pair(rows, 1, k, seed);
        let x = xmat.row(0);
        let mut out = vec![0.0; rows];
        matvec_into(&m, x, &mut out);
        let mut gemm_out = Mat::zeros(rows, 1);
        gemm_nt(&m, &xmat, &mut gemm_out);
        for (i, v) in out.iter().enumerate() {
            let expect = dot(m.row(i), x);
            prop_assert_eq!(v.to_bits(), expect.to_bits(), "row {}", i);
            prop_assert_eq!(gemm_out.row(i)[0].to_bits(), expect.to_bits(), "row {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lockstep kernel behind `matvec_into` is bitwise a stack of
    /// per-row `dot`s for every row count around the lane width (0..=19
    /// covers every tail length), over values that expose a different
    /// fold: signed zeros (an all-`-0.0` sum must stay `-0.0`),
    /// subnormals, infinities and NaN.
    #[test]
    fn lockstep_matvec_is_bitwise_dot_on_special_values(
        rows in 0usize..20,
        k in 0usize..10,
        palette in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut draw = stress_values(palette, seed);
        let m = Mat::from_vec((0..rows * k).map(|_| draw()).collect(), rows, k);
        let x: Vec<f64> = (0..k).map(|_| draw()).collect();
        let mut out = vec![f64::NAN; rows];
        matvec_into(&m, &x, &mut out);
        for (r, v) in out.iter().enumerate() {
            prop_assert_eq!(bits(*v), bits(dot(m.row(r), &x)), "row {}", r);
        }
    }

    /// Same contract for `gemm_nt`, whose tile rows run the same kernel.
    #[test]
    fn lockstep_gemm_is_bitwise_dot_on_special_values(
        m in 0usize..6,
        n in 0usize..20,
        k in 0usize..10,
        palette in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut draw = stress_values(palette, seed);
        let a = Mat::from_vec((0..m * k).map(|_| draw()).collect(), m, k);
        let b = Mat::from_vec((0..n * k).map(|_| draw()).collect(), n, k);
        let mut out = Mat::zeros(m, n);
        gemm_nt(&a, &b, &mut out);
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(
                    bits(out.row(i)[j]),
                    bits(dot(a.row(i), b.row(j))),
                    "element ({}, {})", i, j
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flat DenseNet trains to bit-identical weights and biases as
    /// the seed network at random layer widths up to 40 and input dims
    /// up to 17 (the paper's shapes are all multiples of four), so the
    /// forward kernel's lane tails and the backward pass's 8-, 4- and
    /// 1-wide blocks run in every mix.
    #[test]
    fn dense_net_matches_reference_at_any_width(
        hidden in proptest::collection::vec(1usize..41, 1..=3),
        dim in 1usize..18,
        seed in any::<u64>(),
    ) {
        assert_dense_net_matches_reference(hidden, dim, seed);
    }
}

/// Every upstream width from 1 to 40 — each count of full 8-blocks
/// from none to five, with every 4- and 1-wide tail after it — in both
/// propagating layers, trained bit for bit against the seed network.
#[test]
fn dense_net_matches_reference_at_every_width_to_40() {
    for w in 1..=40 {
        assert_dense_net_matches_reference(vec![w, 41 - w], 1 + w % 17, w as u64);
    }
}

/// Trains `DenseNet` and `RefDenseNet` for four epochs on the same data
/// and asserts every weight and bias bit-identical.
fn assert_dense_net_matches_reference(hidden: Vec<usize>, dim: usize, seed: u64) {
    let data = separable(48, dim, 1.5, seed);
    let mut fast = DenseNet::new("fast", hidden.clone());
    let mut slow = RefDenseNet::new("slow", hidden.clone());
    fast.epochs = 4;
    slow.epochs = 4;
    let x = Mat::from_rows(&data.x);
    fast.fit(&x, &data.y);
    slow.fit(&x, &data.y);
    assert_eq!(fast.layers().len(), slow.weights().len());
    for (l, (w, w_ref)) in fast.layers().iter().zip(slow.weights()).enumerate() {
        for (j, row_ref) in w_ref.iter().enumerate() {
            for (i, v) in row_ref.iter().enumerate() {
                assert_eq!(
                    w.row(j)[i].to_bits(),
                    v.to_bits(),
                    "{hidden:?} dim {dim}: w[{l}][{j}][{i}]"
                );
            }
        }
        for (j, (b, b_ref)) in fast.layer_biases()[l].iter().zip(&slow.biases()[l]).enumerate() {
            assert_eq!(b.to_bits(), b_ref.to_bits(), "{hidden:?} dim {dim}: b[{l}][{j}]");
        }
    }
}

/// Every family, the ablations' DT and kNN included, trains through
/// [`Hid::train`] on degenerate corpora without panicking and scores a
/// detection rate in [0, 1]: a NaN row, a constant column, and a
/// single-class label set.
#[test]
fn every_kind_survives_degenerate_corpora() {
    let mut nan_row = separable(40, 2, 3.0, 7);
    nan_row.x[5] = vec![f64::NAN, 1.0];
    let mut constant_column = separable(40, 2, 3.0, 11);
    for row in &mut constant_column.x {
        row[1] = 4.0;
    }
    let mut single_class = Dataset::new();
    for row in separable(40, 2, 3.0, 13).x {
        single_class.push_row(row, Label::Attack);
    }
    let probe = separable(20, 2, 3.0, 17).x;
    for (name, corpus) in [
        ("NaN row", nan_row),
        ("constant column", constant_column),
        ("single class", single_class),
    ] {
        for kind in HidKind::ALL.into_iter().chain([HidKind::Tree, HidKind::Knn]) {
            let hid = Hid::train(kind, HidMode::Offline, corpus.clone());
            let rate = hid.detection_rate(&probe);
            assert!((0.0..=1.0).contains(&rate), "{kind} on {name}: rate {rate}");
        }
    }
}

/// Bit pattern of a result. A NaN compares as "some NaN": Rust leaves
/// the sign and payload of a NaN produced by arithmetic unspecified, so
/// only NaN-ness is a property of the fold.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// A deterministic value stream for the kernel proptests. Palette 0 is
/// ordinary magnitudes with one special value (±0.0, ±subnormal, ±inf,
/// NaN) in eight; palette 1 is only ±0.0 and ±1.0, so all-signed-zero
/// products are common; palette 2 mixes subnormals with signed zeros.
fn stress_values(palette: usize, seed: u64) -> impl FnMut() -> f64 {
    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        5e-324,
        -2.5e-310,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e-300,
    ];
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let pick = (state >> 32) as usize;
        match palette {
            0 if pick.is_multiple_of(8) => SPECIALS[(pick / 8) % SPECIALS.len()],
            0 => (state % 2000) as f64 / 100.0 - 10.0,
            1 => [0.0, -0.0, 1.0, -1.0][pick % 4],
            _ => [0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5][pick % 6],
        }
    }
}

/// Deterministic pseudo-random `m×k` / `n×k` pair sharing the inner
/// dimension, from a simple xorshift stream (proptest drives the seed).
fn random_pair(m: usize, n: usize, k: usize, seed: u64) -> (Mat, Mat) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2000) as f64 / 100.0 - 10.0
    };
    let a = Mat::from_vec((0..m * k).map(|_| next()).collect(), m, k);
    let b = Mat::from_vec((0..n * k).map(|_| next()).collect(), n, k);
    (a, b)
}
