//! Reinforcement-learning benchmarks (Fig. 10): batch Q-learning update and
//! selection throughput at the attacker's state-space size, with standard
//! Q-learning as the ablation baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hbm_rl::{BatchQLearning, QLearning, TdStep};

const STATES: usize = 10 * 16 * 4; // battery × load × temperature bins
const ACTIONS: usize = 3;

fn post(s: usize, a: usize) -> usize {
    // A cheap stand-in for the attacker's battery-shift post-state map.
    match a {
        0 => (s + 64).min(STATES - 1),
        1 => s.saturating_sub(64),
        _ => s,
    }
}

fn qlearning(c: &mut Criterion) {
    let allowed = [0usize, 1, 2];

    c.bench_function("batch_q_select_greedy", |b| {
        let agent = BatchQLearning::new(STATES, ACTIONS, STATES, 0.99);
        let mut s = 0usize;
        b.iter(|| {
            s = (s + 17) % STATES;
            agent.select_greedy(black_box(s), &allowed, post)
        });
    });

    c.bench_function("batch_q_update", |b| {
        let mut agent = BatchQLearning::new(STATES, ACTIONS, STATES, 0.99);
        let mut s = 0usize;
        b.iter(|| {
            let a = s % ACTIONS;
            let s_next = (s + 31) % STATES;
            let step = TdStep {
                s: black_box(s),
                a,
                reward: 1.0,
                s_next,
            };
            agent.update(step, &allowed, post, 0.05);
            s = s_next;
        });
    });

    c.bench_function("standard_q_update_baseline", |b| {
        let mut agent = QLearning::new(STATES, ACTIONS, 0.99);
        let mut s = 0usize;
        b.iter(|| {
            let a = s % ACTIONS;
            let s_next = (s + 31) % STATES;
            let step = TdStep {
                s: black_box(s),
                a,
                reward: 1.0,
                s_next,
            };
            agent.update(step, &allowed, 0.05);
            s = s_next;
        });
    });
}

criterion_group!(benches, qlearning);
criterion_main!(benches);
