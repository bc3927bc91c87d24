//! The benchmark's statistics helpers, digest and argument parser.

use cr_spectre_perfbench::cli::{parse, Command, RunOpts};
use cr_spectre_perfbench::digest::{fnv1a, of_debug};
use cr_spectre_perfbench::stats::{median, quartiles, spread, tail, Summary};
use cr_spectre_perfbench::workload::{gap, parse_recorded, Workload};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(data, n=4)`.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[3.5, 1.25, 9.0], [1.25, 3.5, 9.0]),
        (&[2.0, 1.0], [0.75, 1.5, 2.25]),
        (
            &[0.47, 0.51, 0.46, 0.49, 0.55, 0.48, 0.5, 0.52, 0.47, 0.6],
            [0.47, 0.495, 0.5275],
        ),
    ];
    for (data, want) in cases {
        let got = quartiles(data);
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{data:?}: got {got:?}, want {want:?}");
        }
    }
}

#[test]
fn median_and_spread() {
    assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    assert!(close(median(&[4.0, 1.0, 2.0, 3.0]), 2.5));
    assert_eq!(median(&[]), 0.0);
    // (8.25 - 2.75) / 5.5
    assert!(close(
        spread(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
        1.0
    ));
    assert_eq!(spread(&[0.0, 0.0]), 0.0);
    assert_eq!(quartiles(&[7.0]), [7.0; 3]);
}

#[test]
fn tail_keeps_ten_samples_beyond_it() {
    assert_eq!(tail(&[1.0; 20]), None);
    let values: Vec<f64> = (1..=50).map(f64::from).collect();
    let (p, v) = tail(&values).expect("50 samples have a tail");
    assert_eq!(p, 80);
    assert_eq!(values.iter().filter(|&&x| x > v).count(), 10);
    let values: Vec<f64> = (1..=200).map(f64::from).collect();
    let (p, v) = tail(&values).expect("200 samples have a tail");
    assert_eq!(p, 95);
    assert_eq!(values.iter().filter(|&&x| x > v).count(), 10);
    let s = Summary::of(&values);
    assert_eq!((s.n, s.min, s.max), (200, 1.0, 200.0));
}

#[test]
fn fnv1a_known_vectors_and_debug_digest() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(of_debug(&vec![0.5f64, 1.0]), fnv1a(b"[0.5, 1.0]"));
    // One ulp apart must digest differently.
    assert_ne!(
        of_debug(&0.1f64),
        of_debug(&f64::from_bits(0.1f64.to_bits() + 1))
    );
}

#[test]
fn recorded_table_parses_and_skips_malformed_lines() {
    let table =
        parse_recorded("# comment\nipc-overhead 3 00000000000000ff 0000000000000001\nbad line\n");
    assert_eq!(table.len(), 1);
    let r = table[&("ipc-overhead".to_string(), 3)];
    assert_eq!((r.result, r.sim), (0xff, 1));
}

#[test]
fn paper_gap_is_zero_inside_the_band() {
    assert_eq!(gap(90.0, 86.0, 96.0), 0.0);
    assert!(close(gap(80.0, 86.0, 96.0), 6.0));
    assert!(close(gap(60.0, 0.0, 55.0), 5.0));
    assert!(close(gap(0.5, 0.6, 0.6), 0.1));
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn parser_accepts_the_benchmark_command_line() {
    let got = parse(&args(&[
        "--workload",
        "ipc-overhead",
        "--seed",
        "0",
        "--seconds",
        "10",
        "--trace",
        "1",
    ]));
    assert_eq!(
        got,
        Ok(Command::Run(RunOpts {
            workload: Workload::IpcOverhead,
            seed: 0,
            seconds: 10,
            trace: true
        }))
    );
    assert_eq!(parse(&args(&["record"])), Ok(Command::Record));
}

#[test]
fn parser_rejects_what_it_does_not_know() {
    let base = [
        "--workload",
        "online-retrain",
        "--seed",
        "3",
        "--seconds",
        "5",
        "--trace",
        "0",
    ];
    let with = |extra: &[&str]| {
        let mut a = args(&base);
        a.extend(args(extra));
        parse(&a)
    };
    for bad in [
        with(&["--thread", "2"]),
        with(&["--seed", "4"]),
        parse(&args(&[
            "--workload",
            "fig6",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ])),
        parse(&args(&[
            "--workload",
            "ipc-overhead",
            "--seed",
            "x",
            "--seconds",
            "5",
            "--trace",
            "0",
        ])),
        parse(&args(&[
            "--workload",
            "ipc-overhead",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])),
        parse(&args(&[
            "--workload",
            "ipc-overhead",
            "--seed",
            "1",
            "--seconds",
            "-3",
            "--trace",
            "0",
        ])),
        parse(&args(&[
            "--workload",
            "ipc-overhead",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2",
        ])),
        parse(&args(&[
            "--workload",
            "ipc-overhead",
            "--seed",
            "1",
            "--seconds",
            "5",
        ])),
        parse(&args(&[
            "--workload",
            "ipc-overhead",
            "--seed",
            "1",
            "--seconds",
        ])),
        parse(&args(&["record", "--seed", "1"])),
    ] {
        assert!(bad.is_err(), "accepted {bad:?}");
    }
}
