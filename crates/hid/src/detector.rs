//! The HID: a trained detector with offline or online learning, plus the
//! paper's evasion/detection thresholds.

use cr_spectre_hpc::dataset::{Dataset, Label};
use cr_spectre_telemetry as telemetry;

use crate::knn::Knn;
use crate::linalg::{Mat, Normalizer};
use crate::logreg::LogisticRegression;
use crate::net::DenseNet;
use crate::svm::LinearSvm;
use crate::tree::DecisionTree;

/// Accuracy below which the paper considers the attack to have evaded
/// detection ("we consider accuracy of 55% or less").
pub const EVADED_THRESHOLD: f64 = 0.55;
/// Accuracy above which the paper considers the attack detected
/// ("detects the attack with high accuracy (>80%)").
pub const DETECTED_THRESHOLD: f64 = 0.80;

/// A binary attack/benign classifier.
///
/// `Send + Sync` so trained detectors (and the [`Hid`] wrapping them)
/// can be scored from the campaign engine's worker threads;
/// [`CloneDetector`] so a trained [`Hid`] can be copied instead of
/// trained twice.
pub trait Detector: std::fmt::Debug + Send + Sync + CloneDetector {
    /// Model display name (paper legend).
    fn name(&self) -> &'static str;

    /// (Re)trains from scratch on the row-major matrix `x` and its
    /// labels (0 = benign, 1 = attack).
    ///
    /// # Panics
    ///
    /// Implementations panic on empty or inconsistent inputs.
    fn fit(&mut self, x: &Mat, y: &[u8]);

    /// Classifies one feature row (0 = benign, 1 = attack).
    fn predict(&self, row: &[f64]) -> u8;

    /// Classifies every row of a flat matrix.
    ///
    /// The default is the per-row loop, correct for any custom
    /// detector; most built-in families override it with whole-batch
    /// (GEMM / buffer-reusing) implementations that are bit-identical
    /// to the per-row path.
    fn predict_batch(&self, x: &Mat) -> Vec<u8> {
        x.iter_rows().map(|row| self.predict(row)).collect()
    }

    /// Fraction of rows classified correctly (routed through
    /// [`Detector::predict_batch`]); 0 for an empty matrix.
    ///
    /// # Panics
    ///
    /// Panics when `x` and `y` disagree in length.
    fn accuracy(&self, x: &Mat, y: &[u8]) -> f64 {
        assert_eq!(x.rows(), y.len(), "features/labels mismatch");
        if x.rows() == 0 {
            return 0.0;
        }
        let correct = self
            .predict_batch(x)
            .iter()
            .zip(y)
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / x.rows() as f64
    }
}

/// Object-safe cloning of boxed detectors, trained state included.
/// Every `Clone` detector gets it for free.
pub trait CloneDetector {
    /// A boxed copy of this detector.
    fn clone_box(&self) -> Box<dyn Detector>;
}

impl<T: Detector + Clone + 'static> CloneDetector for T {
    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Detector> {
    fn clone(&self) -> Box<dyn Detector> {
        self.clone_box()
    }
}

/// The classifier families: the four the paper evaluates (Figures 5
/// and 6 legends: MLP \[2\], NN \[4\], LR and SVM \[3\]) plus two extra
/// families for the ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HidKind {
    /// 3-layer MLP (the Sklearn classifier of \[4\]).
    Mlp,
    /// 6-layer ReLU network (the TensorFlow classifier of \[5\], \[6\]).
    Nn,
    /// Logistic regression.
    Lr,
    /// Linear-kernel SVM.
    Svm,
    /// CART decision tree (not in the paper; ablations only).
    Tree,
    /// k-nearest neighbours (not in the paper; ablations only).
    Knn,
}

impl HidKind {
    /// The paper's four families, in paper-legend order.
    pub const ALL: [HidKind; 4] = [HidKind::Mlp, HidKind::Nn, HidKind::Lr, HidKind::Svm];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            HidKind::Mlp => "MLP",
            HidKind::Nn => "NN",
            HidKind::Lr => "LR",
            HidKind::Svm => "SVM",
            HidKind::Tree => "DT",
            HidKind::Knn => "kNN",
        }
    }

    /// Instantiates an untrained detector of this family.
    pub fn build(self) -> Box<dyn Detector> {
        match self {
            HidKind::Mlp => Box::new(DenseNet::mlp()),
            HidKind::Nn => Box::new(DenseNet::nn6()),
            HidKind::Lr => Box::new(LogisticRegression::new()),
            HidKind::Svm => Box::new(LinearSvm::new()),
            HidKind::Tree => Box::new(DecisionTree::new()),
            HidKind::Knn => Box::new(Knn::new()),
        }
    }
}

impl std::fmt::Display for HidKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Learning mode of the deployed HID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HidMode {
    /// Static: trained once, never retrained (Figure 5).
    Offline,
    /// Retrained on the augmented dataset after each observed attack
    /// attempt (Figure 6).
    Online,
}

/// A deployed hardware-assisted intrusion detector: model + normalizer +
/// (for online mode) the growing training corpus, raw rows in one
/// [`Mat`]. A clone is an independent detector in the same trained
/// state.
#[derive(Debug, Clone)]
pub struct Hid {
    kind: HidKind,
    mode: HidMode,
    model: Box<dyn Detector>,
    normalizer: Normalizer,
    corpus: Mat,
    labels: Vec<u8>,
    initial_len: usize,
    observed_cap: usize,
}

impl Hid {
    /// Trains a fresh HID of `kind` on `training` data (raw counter rows;
    /// normalization is fit here).
    ///
    /// # Panics
    ///
    /// Panics when `training` is empty.
    pub fn train(kind: HidKind, mode: HidMode, training: Dataset) -> Hid {
        assert!(!training.is_empty(), "cannot train an HID on no data");
        let mut span = telemetry::span("hid.train");
        span.field("kind", kind.name())
            .field("mode", if mode == HidMode::Online { "online" } else { "offline" })
            .field("rows", training.len());
        let Dataset { x, y: labels } = training;
        let corpus = Mat::from_rows(&x);
        // Free the jagged rows before `refit` allocates the normalized copy.
        drop(x);
        let mut hid = Hid {
            kind,
            mode,
            model: kind.build(),
            normalizer: Normalizer::fit(&corpus),
            initial_len: corpus.rows(),
            corpus,
            labels,
            observed_cap: 2_400,
        };
        hid.refit();
        hid
    }

    /// Bounds how many *observed* (post-deployment) windows the online
    /// corpus retains; the initial training set is always kept. Online
    /// retraining over an unbounded history is neither realistic nor
    /// affordable for a real-time detector.
    pub fn set_observed_cap(&mut self, cap: usize) {
        self.observed_cap = cap;
    }

    /// The model family.
    pub fn kind(&self) -> HidKind {
        self.kind
    }

    /// The learning mode.
    pub fn mode(&self) -> HidMode {
        self.mode
    }

    /// Classifies one raw counter row.
    pub fn classify(&self, row: &[f64]) -> u8 {
        let mut r = row.to_vec();
        self.normalizer.apply(&mut r);
        self.model.predict(&r)
    }

    /// Classifies a batch of raw counter rows through the flat fast
    /// path: one contiguous normalization pass, then the model's
    /// whole-batch predictor. Bit-identical to calling
    /// [`Hid::classify`] per row.
    pub fn classify_batch(&self, rows: &[Vec<f64>]) -> Vec<u8> {
        if rows.is_empty() {
            return Vec::new();
        }
        self.model.predict_batch(&self.normalized(rows))
    }

    /// Overall accuracy on a labelled raw dataset (Figure 4's metric).
    pub fn test_accuracy(&self, test: &Dataset) -> f64 {
        self.model.accuracy(&self.normalized(&test.x), &test.y)
    }

    /// Fraction of the given attack windows flagged as attack — the
    /// accuracy metric plotted per attempt in Figures 5 and 6.
    pub fn detection_rate(&self, attack_rows: &[Vec<f64>]) -> f64 {
        if attack_rows.is_empty() {
            return 0.0;
        }
        let hits =
            self.classify_batch(attack_rows).iter().filter(|&&p| p == 1).count();
        hits as f64 / attack_rows.len() as f64
    }

    /// Whether `rate` means the attack evaded (paper: ≤ 55 %).
    pub fn evaded(rate: f64) -> bool {
        rate <= EVADED_THRESHOLD
    }

    /// Whether `rate` means the attack was detected (paper: > 80 %).
    pub fn detected(rate: f64) -> bool {
        rate > DETECTED_THRESHOLD
    }

    /// Feeds newly observed, defender-labelled windows back to the HID
    /// and retrains. An [`HidMode::Online`] detector augments its corpus
    /// and refits (normalizer included); an offline detector ignores the
    /// data.
    pub fn observe(&mut self, rows: &[Vec<f64>], label: Label) {
        self.ingest(rows, label);
        self.retrain();
    }

    /// Appends labelled windows to the corpus **without** retraining
    /// (online mode only); call [`Hid::retrain`] afterwards.
    pub fn ingest(&mut self, rows: &[Vec<f64>], label: Label) {
        if self.mode == HidMode::Offline {
            return;
        }
        for row in rows {
            self.corpus.push_row(row);
            self.labels.push(label.as_u8());
        }
    }

    /// Appends windows labelled by the detector's **own current
    /// classification** — the semi-supervised self-training a deployed
    /// online HID performs on traffic it has no ground truth for. Call
    /// [`Hid::retrain`] afterwards.
    pub fn ingest_self_labeled(&mut self, rows: &[Vec<f64>]) {
        if self.mode == HidMode::Offline {
            return;
        }
        let labels = self.classify_batch(rows);
        for row in rows {
            self.corpus.push_row(row);
        }
        self.labels.extend(labels);
    }

    /// Refits the normalizer and model on the current corpus (online mode
    /// only), first trimming observed windows beyond the retention cap
    /// (oldest observations age out; the initial training set is kept).
    pub fn retrain(&mut self) {
        if self.mode == HidMode::Offline {
            return;
        }
        let mut span = telemetry::span("hid.retrain");
        let observed = self.corpus.rows() - self.initial_len;
        let trimmed = observed.saturating_sub(self.observed_cap);
        let aged = self.initial_len..self.initial_len + trimmed;
        self.corpus.remove_rows(aged.clone());
        self.labels.drain(aged);
        // `corpus` is the size the model is fitted on, after the trim.
        span.field("kind", self.kind.name())
            .field("corpus", self.corpus.rows())
            .field("trimmed", trimmed);
        self.normalizer = Normalizer::fit(&self.corpus);
        self.refit();
    }

    /// Current training-corpus size (grows only in online mode).
    pub fn corpus_len(&self) -> usize {
        self.corpus.rows()
    }

    /// A normalized flat copy of raw rows.
    fn normalized(&self, rows: &[Vec<f64>]) -> Mat {
        let mut mat = Mat::from_rows(rows);
        self.normalizer.apply(mat.as_mut_slice());
        mat
    }

    /// Fits the model on a normalized copy of the corpus under the
    /// training-throughput telemetry: a `hid.train.rows_per_sec`
    /// histogram sample (corpus rows per wall-clock second of the full
    /// fit — a rate, so it is never summed) inside whichever
    /// `hid.train` / `hid.retrain` span is active. Observation only —
    /// the fit itself is identical with telemetry on or off.
    fn refit(&mut self) {
        let mut x = self.corpus.clone();
        self.normalizer.apply(x.as_mut_slice());
        let t0 = telemetry::enabled().then(std::time::Instant::now);
        self.model.fit(&x, &self.labels);
        let wall = t0.map_or(0.0, |t0| t0.elapsed().as_secs_f64());
        if wall > 0.0 {
            telemetry::histogram("hid.train.rows_per_sec", x.rows() as f64 / wall);
        }
    }
}

/// Synthetic data generators shared by the model unit tests.
#[cfg(test)]
pub mod testdata {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::linalg::Mat;

    /// Two Gaussian-ish blobs separated by `sep` in every dimension.
    pub fn blobs(n: usize, dim: usize, sep: f64, seed: u64) -> (Mat, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Mat::zeros(0, dim);
        let mut y = Vec::with_capacity(n);
        let mut row = vec![0.0; dim];
        for i in 0..n {
            let label = (i % 2) as u8;
            let center = if label == 1 { sep } else { -sep };
            row.fill_with(|| center + rng.random_range(-1.0..1.0));
            x.push_row(&row);
            y.push(label);
        }
        (x, y)
    }

    /// The XOR problem in 2D (not linearly separable).
    pub fn xor_data(n: usize, seed: u64) -> (Mat, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Mat::zeros(0, 2);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.random_range(-1.0..1.0f64);
            let b = rng.random_range(-1.0..1.0f64);
            x.push_row(&[a, b]);
            y.push(u8::from((a > 0.0) != (b > 0.0)));
        }
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_dataset(n: usize, sep: f64, seed: u64) -> Dataset {
        let (x, y) = testdata::blobs(n, 4, sep, seed);
        let mut d = Dataset::new();
        for (row, label) in x.iter_rows().zip(y) {
            d.push_row(row.to_vec(), if label == 1 { Label::Attack } else { Label::Benign });
        }
        d
    }

    #[test]
    fn every_kind_trains_and_detects_separable_data() {
        let train = blob_dataset(200, 2.5, 1);
        let test = blob_dataset(100, 2.5, 2);
        for kind in HidKind::ALL.into_iter().chain([HidKind::Tree, HidKind::Knn]) {
            let hid = Hid::train(kind, HidMode::Offline, train.clone());
            let acc = hid.test_accuracy(&test);
            assert!(acc > 0.9, "{kind}: accuracy {acc}");
            assert_eq!(hid.kind(), kind);
        }
    }

    #[test]
    fn detection_rate_is_recall_on_attack_rows() {
        let train = blob_dataset(200, 3.0, 3);
        let hid = Hid::train(HidKind::Lr, HidMode::Offline, train);
        let (x, y) = testdata::blobs(100, 4, 3.0, 4);
        let attacks: Vec<Vec<f64>> =
            x.iter_rows().zip(&y).filter(|(_, &l)| l == 1).map(|(r, _)| r.to_vec()).collect();
        let rate = hid.detection_rate(&attacks);
        assert!(rate > 0.9, "rate {rate}");
        assert!(Hid::detected(rate));
        assert!(!Hid::evaded(rate));
    }

    #[test]
    fn ablation_kinds_stay_out_of_the_paper_set() {
        for (kind, name) in [(HidKind::Tree, "DT"), (HidKind::Knn, "kNN")] {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.build().name(), name);
            assert!(!HidKind::ALL.contains(&kind));
        }
    }

    #[test]
    fn thresholds_match_the_paper() {
        assert!(Hid::evaded(0.55));
        assert!(!Hid::evaded(0.56));
        assert!(Hid::detected(0.81));
        assert!(!Hid::detected(0.80));
    }

    #[test]
    fn offline_hid_ignores_observations() {
        let train = blob_dataset(100, 2.5, 5);
        let mut hid = Hid::train(HidKind::Svm, HidMode::Offline, train);
        let before = hid.corpus_len();
        hid.observe(&[vec![9.0, 9.0, 9.0, 9.0]], Label::Attack);
        assert_eq!(hid.corpus_len(), before);
    }

    #[test]
    fn online_hid_retrains_on_observations() {
        // Train on blobs where the attack class sits at +2.5; then show
        // the online HID a "shifted" attack cluster at -6 (previously
        // classified benign) and verify retraining captures it. Needs a
        // nonlinear model — two attack clusters straddling benign.
        let train = blob_dataset(200, 2.5, 6);
        let mut hid = Hid::train(HidKind::Mlp, HidMode::Online, train);
        let shifted: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![-6.0 + (i % 3) as f64 * 0.1; 4])
            .collect();
        let before = hid.detection_rate(&shifted);
        assert!(before < 0.5, "shifted cluster initially evades: {before}");
        hid.observe(&shifted, Label::Attack);
        let after = hid.detection_rate(&shifted);
        assert!(after > 0.9, "online retraining catches the variant: {after}");
    }

    #[test]
    fn empty_detection_rate_is_zero() {
        let hid = Hid::train(HidKind::Lr, HidMode::Offline, blob_dataset(50, 2.0, 7));
        assert_eq!(hid.detection_rate(&[]), 0.0);
        assert_eq!(hid.test_accuracy(&Dataset::new()), 0.0);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn training_on_empty_dataset_panics() {
        let _ = Hid::train(HidKind::Lr, HidMode::Offline, Dataset::new());
    }
}
