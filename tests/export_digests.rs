//! The exports of an observed three-way comparison, pinned: one FNV-1a-64
//! digest per file `repro --trace --profile --slo compare` writes for a
//! run (the JSONL and Chrome traces, the Prometheus snapshot, the metrics
//! CSV, the collapsed stacks and the SLO CSV). Their renderers get
//! rewritten for speed; these literals say the bytes did not move. Every
//! export is a function of the merged recorders, so the digests are the
//! same at every `GRIDMON_SHARDS` value.

use gridmon::core::scenarios::three_way_specs;
use gridmon::core::{run_all, ExperimentResult, SloSpec};

/// Messages per generator (the paper's runs are 180).
const MSGS: u32 = 20;

/// One line per contender: each export's digest.
const EXPECTED: [&str; 3] = [
    "compare/narada: jsonl=0x7c58844161a02620 chrome=0x1a7186813c4eed30 \
     prometheus=0xcddee1d6fe4206d5 metrics_csv=0x89cc4b222b3743da \
     collapsed=0x16f7734d88db14ea slo_csv=0x9217c354c1b1d104",
    "compare/rgma: jsonl=0xa50eeb25efa61760 chrome=0xdfbe6e52b2558913 \
     prometheus=0x634085630330f60e metrics_csv=0x27795e67b93122b1 \
     collapsed=0x203203f42bf1e4a6 slo_csv=0x86bf24962e1d7abb",
    "compare/gridlog: jsonl=0x2cd541496d9bcb11 chrome=0x18a126cc4933a593 \
     prometheus=0x2edfa5115e792f8a metrics_csv=0x932fb17ce1b7cd1e \
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
        .map(|s| s.traced().profiled().with_slo(SloSpec::grid_default()))
        .collect();
    let lines: Vec<String> = run_all(&specs, 0).iter().map(digests).collect();
    assert_eq!(lines, EXPECTED);
}
