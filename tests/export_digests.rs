//! The exports of an observed three-way comparison, pinned: one FNV-1a-64
//! digest per file `repro --trace --profile --slo compare` writes for a
//! run (the JSONL and Chrome traces, the Prometheus snapshot, the metrics
//! CSV, the collapsed stacks and the SLO CSV). Their renderers get
//! rewritten for speed; these literals say the bytes did not move. Every
//! export is a function of the merged recorders, so the digests are the
//! same at every `GRIDMON_SHARDS` value.

use gridmon::core::scenarios::three_way_specs;
use gridmon::core::{run_all, ExperimentResult, Observe};

/// Messages per generator (the paper's runs are 180).
const MSGS: u32 = 20;

/// One line per contender: each export's digest.
const EXPECTED: [&str; 3] = [
    "compare/narada: jsonl=0x5f13583faaa79d96 chrome=0x328babea647df337 \
     prometheus=0x24c077722aa6bfba metrics_csv=0x909be9dd019551ca \
     collapsed=0x16f7734d88db14ea slo_csv=0x9217c354c1b1d104",
    "compare/rgma: jsonl=0x4d09a3520d79e10e chrome=0x9b9bd6164a883a08 \
     prometheus=0xc99e3757e1a37314 metrics_csv=0x8deef27633f22829 \
     collapsed=0x203203f42bf1e4a6 slo_csv=0x86bf24962e1d7abb",
    "compare/gridlog: jsonl=0x36f5aeb47d545caf chrome=0xe7c12a25aedc8bb6 \
     prometheus=0x72d57429d79b800f metrics_csv=0x1de2a64fef491aed \
     collapsed=0xebd0cbc23e9edb60 slo_csv=0x6597824334084830",
];

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digests(r: &ExperimentResult) -> String {
    let trace = r.trace.as_ref().expect("traced");
    let profile = r.profile.as_ref().expect("profiled");
    let slo = r.slo.as_ref().expect("measured against an SLO");
    let files = [
        ("jsonl", &trace.jsonl),
        ("chrome", &trace.chrome),
        ("prometheus", &profile.prometheus),
        ("metrics_csv", &profile.metrics_csv),
        ("collapsed", &profile.collapsed),
        ("slo_csv", &slo.csv),
    ];
    let digests: Vec<String> = files
        .iter()
        .map(|(file, text)| format!("{file}={:#018x}", fnv1a(text.as_bytes())))
        .collect();
    format!("{}: {}", r.name, digests.join(" "))
}

#[test]
fn observed_three_way_exports_keep_their_bytes() {
    let specs: Vec<_> = three_way_specs(MSGS)
        .into_iter()
        .map(|s| s.traced().profiled().observed(Observe::SLO))
        .collect();
    let lines: Vec<String> = run_all(&specs, 0).iter().map(digests).collect();
    assert_eq!(lines, EXPECTED);
}

/// The metrics files of a profiled run without the trace are the observed
/// run's: no count may depend on the trace plane being on.
#[test]
fn an_untraced_run_counts_what_a_traced_run_counts() {
    let specs: Vec<_> = three_way_specs(MSGS)
        .into_iter()
        .map(|s| s.profiled().observed(Observe::SLO))
        .collect();
    for (r, expected) in run_all(&specs, 0).iter().zip(EXPECTED) {
        assert!(r.trace.is_none(), "untraced");
        let profile = r.profile.as_ref().expect("profiled");
        for (file, text) in [
            ("prometheus", &profile.prometheus),
            ("metrics_csv", &profile.metrics_csv),
        ] {
            let digest = format!("{file}={:#018x}", fnv1a(text.as_bytes()));
            assert!(expected.contains(&digest), "{}: {digest}", r.name);
        }
    }
}
