//! Traced replays of the campaign drivers.
//!
//! Each replay makes the same calls as its driver in
//! `cr_spectre_core::campaign`, in the same order, with the same inputs
//! and the same `par_map` fan-outs, but through the public functions of
//! each layer so that every call can be wrapped in a span. The attack
//! runs are replayed step by step (`run_cr_spectre` and
//! `run_standalone_spectre`), so image assembly, machine loading, gadget
//! scan, crash probe, payload build and profiling are timed apart.
//!
//! A replay is faithful only while it computes what the driver computes:
//! the benchmark compares the digest of every replay's result with the
//! digest of the untraced driver call on the same inputs.

use cr_spectre_core::attack::{AttackConfig, AttackError, AttackOutcome, ATTACK_BINARY};
use cr_spectre_core::campaign::{
    host_ipc, CampaignConfig, DetectorSeries, EvasionResult, NoiseModel, Table1Row,
};
use cr_spectre_core::perturb::{PerturbParams, VariantGenerator};
use cr_spectre_core::spectre::{build_spectre_image, SpectreConfig, SpectreVariant};
use cr_spectre_hid::detector::{Hid, HidKind, HidMode};
use cr_spectre_hpc::dataset::{Dataset, Label};
use cr_spectre_hpc::features::FeatureSet;
use cr_spectre_hpc::profiler::{profile, Trace};
use cr_spectre_rop::chain::Chain;
use cr_spectre_rop::exploit::probe_ret_offset;
use cr_spectre_rop::payload::PayloadBuilder;
use cr_spectre_rop::scanner::Scanner;
use cr_spectre_sim::config::MachineConfig;
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::isa::Reg;
use cr_spectre_sim::pmu::HpcEvent;
use cr_spectre_sim::Image;
use cr_spectre_workloads::benign::BenignApp;
use cr_spectre_workloads::host::{
    standalone_image, vulnerable_host, RESUME_SYMBOL, SECRET, SECRET_SYMBOL,
};
use cr_spectre_workloads::mibench::Mibench;

use crate::trace::Tracer;

/// The drivers' noise-stream namespaces (private to the campaign
/// module, so restated here; a change there shows as a digest mismatch).
mod streams {
    pub const FIG5_TRAIN: u64 = 0x0500_0000;
    pub const FIG5_SPECTRE: u64 = 0x0501_0000;
    pub const FIG5_CR: u64 = 0x0502_0000;
    pub const FIG6_TRAIN: u64 = 0x0600_0000;
    pub const FIG6_SPECTRE: u64 = 0x0601_0000;
    pub const FIG6_CR: u64 = 0x0602_0000;
    pub const FIG6_BENIGN: u64 = 0x0603_0000;
}

/// The drivers' sampling-phase jitter between attempts.
fn jittered_interval(base: u64, attempt: usize) -> u64 {
    base + (attempt as u64 * 37) % (base / 10 + 1)
}

/// The drivers' class balancing: up to `per_class` shuffled rows each.
fn balance(mut benign: Dataset, mut attack: Dataset, per_class: usize, seed: u64) -> Dataset {
    benign.shuffle(seed);
    attack.shuffle(seed.wrapping_add(1));
    let mut out = Dataset::new();
    for (src, label) in [(&benign, Label::Benign), (&attack, Label::Attack)] {
        for row in src.x.iter().take(per_class) {
            out.push_row(row.clone(), label);
        }
    }
    out
}

fn init_series() -> Vec<DetectorSeries> {
    HidKind::ALL
        .iter()
        .map(|&kind| DetectorSeries {
            kind,
            accuracy: Vec::new(),
        })
        .collect()
}

/// Counters whose values are simulated, not timed: they repeat exactly
/// for a given input, whatever the host or thread count, and make up
/// the simulated-count digest.
pub const SIM_COUNTERS: [&str; 13] = [
    "hpc.profile_calls",
    "hpc.windows",
    "sim.guest_instructions",
    "sim.guest_cycles",
    "sim.l1d_misses",
    "sim.branch_mispredicts",
    "sim.spec_squashes",
    "sim.clflushes",
    "rop.gadgets",
    "rop.probes",
    "rop.probe_ok",
    "core.attack.runs",
    "core.attack.leak_ok",
];

/// A replay of the drivers that records into one [`Tracer`].
#[derive(Debug)]
pub struct Replay<'t> {
    tr: &'t Tracer,
}

impl<'t> Replay<'t> {
    /// A replay recording into `tr`.
    pub fn new(tr: &'t Tracer) -> Replay<'t> {
        Replay { tr }
    }

    // -----------------------------------------------------------------
    // Layer calls
    // -----------------------------------------------------------------

    fn image<R>(&self, build: impl FnOnce() -> R) -> R {
        self.tr.count("asm.images", 1.0);
        self.tr.time("asm.image", build)
    }

    fn profile(&self, machine: &mut Machine, app: &str, interval: u64) -> Trace {
        let trace = self
            .tr
            .time("hpc.profile", || profile(machine, app, interval));
        let sum = |event| trace.samples.iter().map(|s| s.count(event)).sum::<u64>() as f64;
        self.tr.count("hpc.profile_calls", 1.0);
        self.tr.count("hpc.windows", trace.len() as f64);
        self.tr
            .count("sim.guest_instructions", trace.outcome.instructions as f64);
        self.tr
            .count("sim.guest_cycles", trace.outcome.cycles as f64);
        self.tr.count("sim.l1d_misses", sum(HpcEvent::L1dMiss));
        self.tr
            .count("sim.branch_mispredicts", sum(HpcEvent::BranchMispredicts));
        self.tr
            .count("sim.spec_squashes", sum(HpcEvent::SpecSquashes));
        self.tr.count("sim.clflushes", sum(HpcEvent::Flushes));
        trace
    }

    fn profile_standalone(
        &self,
        machine_cfg: &MachineConfig,
        image: &Image,
        interval: u64,
    ) -> Trace {
        let mut machine = self.tr.time("sim.load", || {
            let mut machine = Machine::new(machine_cfg.clone());
            let loaded = machine.load(image).expect("benign image loads");
            machine.start(loaded.entry);
            machine
        });
        self.profile(&mut machine, &image.name, interval)
    }

    fn train(&self, kind: HidKind, mode: HidMode, training: &Dataset) -> Hid {
        let data = self.tr.time("hpc.dataset", || training.clone());
        self.tr.count("hid.train_rows", data.len() as f64);
        self.tr
            .time_labeled("hid.train", kind.name(), || Hid::train(kind, mode, data))
    }

    fn retrain(&self, hid: &mut Hid) {
        self.tr
            .time_labeled("hid.retrain", hid.kind().name(), || hid.retrain());
        self.tr.count("hid.retrain_rows", hid.corpus_len() as f64);
    }

    fn score(&self, hid: &Hid, rows: &[Vec<f64>]) -> f64 {
        self.tr.count("hid.score_rows", rows.len() as f64);
        self.tr.time("hid.score", || hid.detection_rate(rows))
    }

    fn noise(&self, noise: &NoiseModel, rows: &mut [Vec<f64>], seed: u64, stream: u64) {
        self.tr
            .time("core.campaign.noise", || noise.apply(rows, seed, stream));
    }

    fn attack_rows(&self, outcome: &AttackOutcome, features: &FeatureSet) -> Vec<Vec<f64>> {
        self.tr
            .time("hpc.features", || outcome.attack_rows(features))
    }

    fn record_leak(&self, secret_len: u32, recovered: &[u8]) {
        let want = &SECRET[..(secret_len as usize).min(SECRET.len())];
        self.tr.count("core.attack.runs", 1.0);
        self.tr.count(
            "core.attack.leak_ok",
            f64::from(u8::from(recovered == want)),
        );
    }

    // -----------------------------------------------------------------
    // Attack runs, step by step
    // -----------------------------------------------------------------

    /// `run_standalone_spectre`, one span per step.
    pub fn standalone_spectre(&self, config: &AttackConfig) -> AttackOutcome {
        let _attack = self.tr.span("core.attack");
        let setup = self.tr.span("core.attack.setup");
        let victim = self.image(|| standalone_image(config.host));
        let (mut machine, loaded) = self.tr.time("sim.load", || {
            let mut machine = Machine::new(config.machine.clone());
            let loaded = machine.load(&victim).expect("victim loads");
            (machine, loaded)
        });
        let spectre = SpectreConfig {
            binary_name: ATTACK_BINARY.to_string(),
            secret_addr: loaded.addr(SECRET_SYMBOL),
            secret_len: config.secret_len,
            variant: config.variant,
            covert: config.covert,
            train_rounds: 8,
            rounds_per_byte: 2,
            perturb: config.perturb,
        };
        let image = self.image(|| build_spectre_image(&spectre));
        self.tr.time("sim.load", || {
            let attack_loaded = machine.load(&image).expect("attack binary loads");
            machine.start(attack_loaded.entry);
        });
        drop(setup);
        let trace = self.profile(&mut machine, spectre.variant.name(), config.sample_interval);
        let recovered = machine.take_stdout();
        self.record_leak(config.secret_len, &recovered);
        AttackOutcome {
            trace,
            recovered,
            injection_spans: Vec::new(),
            sample_interval: config.sample_interval,
        }
    }

    /// `run_cr_spectre`, one span per step.
    ///
    /// # Errors
    ///
    /// As `run_cr_spectre`.
    pub fn cr_spectre(&self, config: &AttackConfig) -> Result<AttackOutcome, AttackError> {
        let _attack = self.tr.span("core.attack");
        let setup = self.tr.span("core.attack.setup");
        let host = self.image(|| vulnerable_host(config.host, config.host_options));
        let (mut machine, loaded) = self.tr.time("sim.load", || {
            let mut machine = Machine::new(config.machine.clone());
            let loaded = machine.load(&host.image);
            (machine, loaded)
        });
        let loaded = loaded.map_err(AttackError::Load)?;
        let spectre = SpectreConfig {
            binary_name: ATTACK_BINARY.to_string(),
            secret_addr: loaded.addr(SECRET_SYMBOL),
            secret_len: config.secret_len,
            variant: config.variant,
            covert: config.covert,
            train_rounds: 8,
            rounds_per_byte: 2,
            perturb: config.perturb,
        };
        let image = self.image(|| build_spectre_image(&spectre));
        self.tr.time("sim.load", || machine.register_image(image));

        let gadgets = self.tr.time("rop.scan", || {
            Scanner::default().scan_image(&machine, &loaded)
        });
        self.tr.count("rop.gadgets", gadgets.len() as f64);
        let probed = self.tr.time("rop.probe", || {
            probe_ret_offset(&machine, loaded.entry, host.offset_to_ret() + 128)
        });
        self.tr.count("rop.probes", 1.0);
        self.tr
            .count("rop.probe_ok", f64::from(u8::from(probed.is_some())));
        let offset = probed.unwrap_or(host.offset_to_ret());

        let payload = self
            .tr
            .time("rop.payload", || -> Result<Vec<u8>, AttackError> {
                let buffer_addr = machine.initial_sp()
                    - 8
                    - if host.canary { 8 } else { 0 }
                    - u64::from(host.frame_size);
                let chain_len_words = 4u64;
                let name_addr = buffer_addr + offset as u64 + chain_len_words * 8;
                let mut chain = Chain::new(&gadgets);
                chain.set_reg(Reg::R1, name_addr)?;
                chain.invoke(loaded.addr("sys_exec"));
                chain.resume(loaded.addr(RESUME_SYMBOL));
                let mut builder = PayloadBuilder::new(offset);
                if let Some(canary_off) = host.canary_offset() {
                    builder = builder.with_canary(canary_off, machine.canary());
                }
                let mut payload = builder.build(chain.words());
                payload.extend_from_slice(ATTACK_BINARY.as_bytes());
                payload.push(0);
                Ok(payload)
            })?;
        self.tr.time("sim.load", || {
            machine.start_with_arg(loaded.entry, &payload)
        });
        drop(setup);

        let trace = self.profile(
            &mut machine,
            &format!("cr_{}", config.host.name()),
            config.sample_interval,
        );
        let recovered = machine.take_stdout();
        self.record_leak(config.secret_len, &recovered);
        Ok(AttackOutcome {
            trace,
            recovered,
            injection_spans: machine.injection_spans().to_vec(),
            sample_interval: config.sample_interval,
        })
    }

    fn spectre_trace(
        &self,
        cfg: &CampaignConfig,
        variant: SpectreVariant,
        attempt: usize,
    ) -> AttackOutcome {
        let mut attack = AttackConfig::new(Mibench::Bitcount50M).with_variant(variant);
        attack.machine = cfg.machine.clone();
        attack.sample_interval = jittered_interval(cfg.sample_interval, attempt);
        self.standalone_spectre(&attack)
    }

    fn cr_attack(
        &self,
        cfg: &CampaignConfig,
        host: Mibench,
        perturb: PerturbParams,
        interval: u64,
    ) -> AttackOutcome {
        let mut attack = AttackConfig::new(host).with_perturb(perturb);
        attack.machine = cfg.machine.clone();
        attack.sample_interval = interval;
        self.cr_spectre(&attack).expect("attack launches")
    }

    // -----------------------------------------------------------------
    // Shared driver steps
    // -----------------------------------------------------------------

    fn build_training_data(
        &self,
        cfg: &CampaignConfig,
        hosts: &[Mibench],
        features: &FeatureSet,
    ) -> Dataset {
        let mut images: Vec<Image> = hosts
            .iter()
            .map(|&host| self.image(|| standalone_image(host)))
            .collect();
        images.extend(
            BenignApp::ALL
                .into_iter()
                .map(|app| self.image(|| app.image())),
        );
        let traces = self.tr.par_map(images, cfg.threads, |image| {
            self.profile_standalone(&cfg.machine, &image, cfg.sample_interval)
        });
        let benign = self.tr.time("hpc.features", || {
            let mut benign = Dataset::new();
            for trace in &traces {
                benign.push_trace(trace, Label::Benign, features);
            }
            benign
        });
        let outcomes = self.tr.par_map((0..4).collect(), cfg.threads, |i| {
            self.spectre_trace(cfg, SpectreVariant::ALL[i % SpectreVariant::ALL.len()], i)
        });
        let attack = self.tr.time("hpc.features", || {
            let mut attack = Dataset::new();
            for outcome in &outcomes {
                attack.push_trace(&outcome.trace, Label::Attack, features);
            }
            attack
        });
        self.tr.time("hpc.dataset", || {
            balance(benign, attack, cfg.samples_per_class, cfg.seed)
        })
    }

    fn fit_noise(&self, cfg: &CampaignConfig, training: &mut Dataset, stream: u64) -> NoiseModel {
        self.tr.time("core.campaign.noise", || {
            let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
            noise.apply(&mut training.x, cfg.seed, stream);
            noise
        })
    }

    /// Counts a CR-Spectre attempt's outcome by the rule `fig6` adapts
    /// on: detected when any detector is above the detection bar,
    /// evaded when every detector is at or below the evasion bar.
    /// Returns whether the attacker would adapt.
    fn judge(&self, rates: &[f64]) -> bool {
        let detected = rates.iter().any(|&r| Hid::detected(r));
        let evaded = rates.iter().all(|&r| Hid::evaded(r));
        self.tr.count(
            "core.campaign.detected_attempts",
            f64::from(u8::from(detected)),
        );
        self.tr
            .count("core.campaign.evaded_attempts", f64::from(u8::from(evaded)));
        detected || !evaded
    }

    // -----------------------------------------------------------------
    // Drivers
    // -----------------------------------------------------------------

    /// Replays `campaign::fig5`.
    pub fn fig5(&self, cfg: &CampaignConfig) -> EvasionResult {
        let features = FeatureSet::paper_default();
        let mut training = self.build_training_data(cfg, &Mibench::FIG4_HOSTS, &features);
        let noise = self.fit_noise(cfg, &mut training, streams::FIG5_TRAIN);
        let hids: Vec<Hid> = self.tr.par_map(HidKind::ALL.to_vec(), cfg.threads, |kind| {
            self.train(kind, HidMode::Offline, &training)
        });

        let per_attempt = self.tr.par_map(
            (0..cfg.attempts).collect(),
            cfg.threads,
            |attempt: usize| {
                let variant = SpectreVariant::ALL[attempt % 2];
                let outcome = self.spectre_trace(cfg, variant, attempt);
                let mut spectre_rows = self.attack_rows(&outcome, &features);
                self.noise(
                    &noise,
                    &mut spectre_rows,
                    cfg.seed,
                    streams::FIG5_SPECTRE + attempt as u64,
                );
                let outcome = self.cr_attack(
                    cfg,
                    Mibench::FIG4_HOSTS[attempt % 4],
                    PerturbParams::evasive_default(),
                    jittered_interval(cfg.sample_interval, attempt),
                );
                let mut cr_rows = self.attack_rows(&outcome, &features);
                self.noise(
                    &noise,
                    &mut cr_rows,
                    cfg.seed,
                    streams::FIG5_CR + attempt as u64,
                );
                (spectre_rows, cr_rows)
            },
        );

        let scored = self
            .tr
            .par_map((0..hids.len()).collect(), cfg.threads, |h: usize| {
                let hid = &hids[h];
                let spectre: Vec<f64> = per_attempt
                    .iter()
                    .map(|(rows, _)| self.score(hid, rows))
                    .collect();
                let cr: Vec<f64> = per_attempt
                    .iter()
                    .map(|(_, rows)| self.score(hid, rows))
                    .collect();
                (spectre, cr)
            });
        let _decide = self.tr.span("core.campaign");
        let mut spectre_series = init_series();
        let mut cr_series = init_series();
        for (h, (spectre, cr)) in scored.into_iter().enumerate() {
            spectre_series[h].accuracy = spectre;
            cr_series[h].accuracy = cr;
        }
        for attempt in 0..cfg.attempts {
            let rates: Vec<f64> = cr_series.iter().map(|s| s.accuracy[attempt]).collect();
            self.judge(&rates);
        }
        EvasionResult {
            spectre: spectre_series,
            cr_spectre: cr_series,
        }
    }

    /// Replays `campaign::fig6`.
    pub fn fig6(&self, cfg: &CampaignConfig) -> EvasionResult {
        let features = FeatureSet::paper_default();
        let mut training = self.build_training_data(cfg, &Mibench::FIG4_HOSTS, &features);
        let noise = self.fit_noise(cfg, &mut training, streams::FIG6_TRAIN);

        // Panel (a).
        let hids: Vec<Hid> = self.tr.par_map(HidKind::ALL.to_vec(), cfg.threads, |kind| {
            self.train(kind, HidMode::Online, &training)
        });
        let attempt_rows = self.tr.par_map(
            (0..cfg.attempts).collect(),
            cfg.threads,
            |attempt: usize| {
                let variant = SpectreVariant::ALL[attempt % 2];
                let outcome = self.spectre_trace(cfg, variant, attempt);
                let mut rows = self.attack_rows(&outcome, &features);
                self.noise(
                    &noise,
                    &mut rows,
                    cfg.seed,
                    streams::FIG6_SPECTRE + attempt as u64,
                );
                rows
            },
        );
        let folded = self.tr.par_map(hids, cfg.threads, |mut hid| {
            let mut accuracy = Vec::with_capacity(attempt_rows.len());
            for rows in &attempt_rows {
                accuracy.push(self.score(&hid, rows));
                // `Hid::observe` is exactly `ingest` then `retrain`.
                self.tr
                    .time("hid.ingest", || hid.ingest(rows, Label::Attack));
                self.retrain(&mut hid);
            }
            accuracy
        });
        let mut spectre_series = init_series();
        for (series, accuracy) in spectre_series.iter_mut().zip(folded) {
            series.accuracy = accuracy;
        }

        // Panel (b).
        let mut hids: Vec<Hid> = self.tr.par_map(HidKind::ALL.to_vec(), cfg.threads, |kind| {
            self.train(kind, HidMode::Online, &training)
        });
        let mut cr_series = init_series();
        let (mut generator, mut variant) = self.tr.time("core.perturb", || {
            let mut generator = VariantGenerator::new(cfg.seed);
            let variant = generator.next_variant();
            (generator, variant)
        });
        for attempt in 0..cfg.attempts {
            let outcome = self.cr_attack(
                cfg,
                Mibench::FIG4_HOSTS[attempt % 4],
                variant,
                jittered_interval(cfg.sample_interval, attempt),
            );
            let mut rows = self.attack_rows(&outcome, &features);
            self.noise(
                &noise,
                &mut rows,
                cfg.seed,
                streams::FIG6_CR + attempt as u64,
            );
            let mut benign_rows: Vec<Vec<f64>> = self
                .tr
                .par_map(BenignApp::ALL.to_vec(), cfg.threads, |app| {
                    let image = self.image(|| app.image());
                    let trace = self.profile_standalone(
                        &cfg.machine,
                        &image,
                        jittered_interval(cfg.sample_interval, attempt + 5),
                    );
                    self.tr
                        .time("hpc.features", || trace.feature_rows(features.events()))
                })
                .into_iter()
                .flatten()
                .collect();
            self.noise(
                &noise,
                &mut benign_rows,
                cfg.seed,
                streams::FIG6_BENIGN + attempt as u64,
            );
            let scored = self
                .tr
                .par_map(std::mem::take(&mut hids), cfg.threads, |mut hid| {
                    let rate = self.score(&hid, &rows);
                    self.tr.time("hid.ingest", || {
                        if Hid::evaded(rate) {
                            hid.ingest_self_labeled(&rows);
                        } else {
                            hid.ingest(&rows, Label::Attack);
                        }
                        hid.ingest(&benign_rows, Label::Benign);
                    });
                    self.retrain(&mut hid);
                    (rate, hid)
                });
            let decide = self.tr.span("core.campaign");
            let mut rates = Vec::with_capacity(scored.len());
            for (series, (rate, hid)) in cr_series.iter_mut().zip(scored) {
                series.accuracy.push(rate);
                rates.push(rate);
                hids.push(hid);
            }
            let adapt = self.judge(&rates);
            drop(decide);
            if adapt {
                variant = self.tr.time("core.perturb", || generator.next_variant());
                self.tr.count("core.perturb.adaptations", 1.0);
            }
        }
        EvasionResult {
            spectre: spectre_series,
            cr_spectre: cr_series,
        }
    }

    /// Replays `campaign::table1`.
    pub fn table1(&self, cfg: &CampaignConfig, iterations: usize) -> Vec<Table1Row> {
        let jobs: Vec<(Mibench, usize, PerturbParams)> = self.tr.time("core.perturb", || {
            Mibench::TABLE1_ROWS
                .iter()
                .flat_map(|&host| {
                    let mut generator = VariantGenerator::new(cfg.seed);
                    let _ = generator.next_variant();
                    (0..iterations)
                        .map(|i| (host, i, generator.next_variant()))
                        .collect::<Vec<_>>()
                })
                .collect()
        });
        let measurements = self
            .tr
            .par_map(jobs, cfg.threads, |(host, i, online_variant)| {
                let interval = jittered_interval(cfg.sample_interval, i);
                let image = self.image(|| standalone_image(host));
                let trace = self.profile_standalone(&cfg.machine, &image, interval);
                let original = trace.outcome.ipc();
                let outcome = self.cr_attack(cfg, host, PerturbParams::evasive_default(), interval);
                let offline = self.tr.time("hpc.features", || host_ipc(&outcome));
                let outcome = self.cr_attack(cfg, host, online_variant, interval);
                let online = self.tr.time("hpc.features", || host_ipc(&outcome));
                (original, offline, online)
            });

        let _aggregate = self.tr.span("core.campaign");
        let n = iterations as f64;
        Mibench::TABLE1_ROWS
            .iter()
            .enumerate()
            .map(|(host_index, &host)| {
                let per_host =
                    &measurements[host_index * iterations..(host_index + 1) * iterations];
                let (mut original, mut offline, mut online) = (0.0, 0.0, 0.0);
                for &(o, off, on) in per_host {
                    original += o;
                    offline += off;
                    online += on;
                }
                Table1Row {
                    host,
                    ipc_original: original / n,
                    ipc_offline: offline / n,
                    ipc_online: online / n,
                }
            })
            .collect()
    }
}
