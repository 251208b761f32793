//! Golden digests of [`hbm_workload::generate`]: every experiment and the
//! fleet benchmark are driven by these traces, so any change to the
//! generator's arithmetic must leave every sample bit-identical.
//!
//! The digest is 64-bit FNV-1a over each sample's `f64::to_bits` in
//! little-endian order, plus the sample count. To re-derive after an
//! intended change of the trace model, print `digest(&generate(&config))`
//! for each case below.

use hbm_workload::{generate, PowerTrace, TraceConfig};

fn digest(trace: &PowerTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: [u8; 8]| {
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat((trace.len() as u64).to_le_bytes());
    for p in trace {
        eat(p.as_watts().to_bits().to_le_bytes());
    }
    h
}

/// Two simulated days: the fleet benchmark's per-lane trace length.
const FLEET_SLOTS: usize = 2 * 1440;

#[test]
fn generated_traces_match_golden_digests() {
    let cases = [
        (
            "facebook-baidu year",
            TraceConfig::paper_default_year(1),
            0x0cdc_a9ce_c496_6271,
        ),
        (
            "google year",
            TraceConfig::paper_alternate_year(1),
            0xc13d_4b2a_7a30_3980,
        ),
        (
            "facebook-baidu fleet",
            TraceConfig::paper_default_year(7).with_len(FLEET_SLOTS),
            0xd50f_0de1_7713_40c1,
        ),
        (
            "google fleet",
            TraceConfig::paper_alternate_year(7).with_len(FLEET_SLOTS),
            0x75c9_f0e2_410e_1c9e,
        ),
    ];
    for (name, config, expected) in cases {
        let got = digest(&generate(&config));
        assert_eq!(
            got, expected,
            "{name}: trace digest {got:#018x} != golden {expected:#018x}"
        );
    }
}
