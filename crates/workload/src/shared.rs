//! Process-wide sharing of generated traces.
//!
//! [`generate`] is a pure function of its [`TraceConfig`], so every
//! simulator built from one config can alias one immutable trace instead of
//! synthesizing its own copy. The table only holds [`Weak`] handles: a trace
//! lives exactly as long as some caller holds it, and a long-running
//! process stays bounded by what its live simulators reference.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

use crate::{generate, PowerTrace, TraceConfig, TraceShape};

/// [`TraceConfig`] by value, with the `f64` fields as raw bits so it can
/// be hashed. Configs that compare equal but differ in bits (`0.0` vs
/// `-0.0`) merely miss each other's entry.
type Key = (TraceShape, u64, u64, usize, u64, u64);

fn key_of(c: &TraceConfig) -> Key {
    let (slot, mean, peak) = (c.slot.as_seconds(), c.mean.as_watts(), c.peak.as_watts());
    (
        c.shape,
        c.seed,
        slot.to_bits(),
        c.len,
        mean.to_bits(),
        peak.to_bits(),
    )
}

struct Table {
    entries: HashMap<Key, Weak<PowerTrace>>,
    /// Size at which the next insert sweeps out dead entries; doubles past
    /// the live count after each sweep, so pruning stays amortized O(1).
    prune_at: usize,
}

static TABLE: Mutex<Option<Table>> = Mutex::new(None);

/// The table lock. Nothing that can panic runs while it is held, so a
/// poisoned lock means a bug elsewhere in the process.
fn table() -> std::sync::MutexGuard<'static, Option<Table>> {
    TABLE.lock().expect("trace table lock poisoned")
}

fn lookup(key: &Key) -> Option<Arc<PowerTrace>> {
    table().as_ref()?.entries.get(key)?.upgrade()
}

/// [`generate`], but shared: while any handle from an earlier call with an
/// equal config is alive, returns a clone of that handle instead of
/// generating again. Samples are always identical to `generate(config)`.
///
/// Generation runs outside the table lock; if two threads race on one
/// config, both generate and the later insert adopts the earlier trace.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use hbm_workload::{generate, generate_shared, TraceConfig};
///
/// let cfg = TraceConfig::paper_default_year(9).with_len(1440);
/// let a = generate_shared(&cfg);
/// let b = generate_shared(&cfg);
/// assert!(Arc::ptr_eq(&a, &b));
/// assert_eq!(*a, generate(&cfg));
/// ```
///
/// # Panics
///
/// As [`generate`].
pub fn generate_shared(config: &TraceConfig) -> Arc<PowerTrace> {
    let key = key_of(config);
    if let Some(trace) = lookup(&key) {
        return trace;
    }
    let fresh = Arc::new(generate(config));
    let mut guard = table();
    let table = guard.get_or_insert_with(|| Table {
        entries: HashMap::new(),
        prune_at: 16,
    });
    if let Some(won) = table.entries.get(&key).and_then(Weak::upgrade) {
        return won;
    }
    if table.entries.len() >= table.prune_at {
        table.entries.retain(|_, w| w.strong_count() > 0);
        table.prune_at = (2 * table.entries.len()).max(16);
    }
    table.entries.insert(key, Arc::downgrade(&fresh));
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_units::Power;

    /// Each test uses its own seed range: the table is process-wide and
    /// the tests of this binary run concurrently.
    fn config(seed: u64) -> TraceConfig {
        TraceConfig::paper_default_year(seed).with_len(2 * 1440)
    }

    #[test]
    fn equal_configs_share_one_trace() {
        let cfg = config(0x5A_0010);
        let a = generate_shared(&cfg);
        let b = generate_shared(&cfg);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, generate(&cfg));
    }

    #[test]
    fn table_keeps_nothing_alive() {
        let cfg = config(0x5A_0020);
        let first = generate_shared(&cfg);
        assert_eq!(Arc::strong_count(&first), 1);
        let samples = first.samples().to_vec();
        drop(first);
        let again = generate_shared(&cfg);
        assert_eq!(Arc::strong_count(&again), 1);
        assert_eq!(again.samples(), &samples[..]);
    }

    #[test]
    fn different_configs_never_share() {
        let base = config(0x5A_0030);
        let variants = [
            TraceConfig {
                seed: base.seed + 1,
                ..base
            },
            TraceConfig {
                shape: TraceShape::Google,
                ..base
            },
            base.with_mean(Power::from_kilowatts(5.0)),
            base.with_len(1440),
        ];
        let held = generate_shared(&base);
        for v in &variants {
            let other = generate_shared(v);
            assert!(!Arc::ptr_eq(&held, &other));
            assert_eq!(*other, generate(v));
        }
    }

    #[test]
    fn concurrent_callers_get_one_trace() {
        hbm_par::configure_threads(4);
        let cfg = config(0x5A_0040);
        let held = generate_shared(&cfg);
        let handles = hbm_par::par_map((0..8).collect(), |_: i32| generate_shared(&cfg));
        assert!(handles.iter().all(|h| Arc::ptr_eq(h, &held)));

        // With nothing held beforehand, callers that race may each
        // generate, but whatever the interleaving a loser adopts the trace
        // the winner inserted.
        let fresh = config(0x5A_0050);
        let raced = hbm_par::par_map((0..8).collect(), |_: i32| generate_shared(&fresh));
        assert!(raced.iter().all(|h| Arc::ptr_eq(h, &raced[0])));
        assert_eq!(*raced[0], generate(&fresh));
    }

    #[test]
    fn dead_entries_are_pruned() {
        for seed in 0x5A_1000..0x5A_1000 + 64 {
            drop(generate_shared(&config(seed).with_len(16)));
        }
        let guard = TABLE.lock().unwrap();
        let live = guard.as_ref().unwrap().entries.len();
        // 64 dead inserts never accumulate past the sweep threshold (other
        // tests may hold a few live entries at the same time).
        assert!(live < 64, "{live} entries survived pruning");
    }
}
