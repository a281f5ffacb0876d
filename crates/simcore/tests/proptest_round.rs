//! `round_u64` against the library rounding it replaces: every `f64`
//! bit pattern — negatives, NaNs, infinities, subnormals, values past
//! 2^53 and 2^64 — rounds to what `x.round() as u64` gives.

use proptest::prelude::*;
use simcore::round_u64;

/// Raw bit patterns, and `k + 1/2` and its two neighbours, where
/// rounding turns.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u64..1 << 52, 0u64..3)
            .prop_map(|(k, d)| f64::from_bits((k as f64 + 0.5).to_bits() + d - 1)),
    ]
}

#[test]
fn edges_round_like_the_library() {
    for x in [
        0.0,
        -0.0,
        0.5,
        -0.5,
        0.49999999999999994,
        1.5,
        2.5,
        4503599627370495.5,
        9007199254740993.0,
        1.8446744073709552e19,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
    ] {
        assert_eq!(round_u64(x), x.round() as u64, "{x:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn rounds_every_f64_like_the_library(x in arb_f64()) {
        prop_assert_eq!(round_u64(x), x.round() as u64, "{:e} ({:#x})", x, x.to_bits());
    }
}
