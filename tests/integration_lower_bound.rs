//! Cross-crate integration tests for the Section 4 lower bound (Theorem 4.1),
//! including the astronomical-horizon regime the symbolic timeline path
//! opens up: exact meeting rounds at `2^40`-scale horizons, pinned against
//! closed-form predictions on an oriented ring.

use anonrv_core::lower_bound::{
    check_schedule_explicit, check_schedule_symbolic, ObliviousSchedule, ObliviousStep,
};
use anonrv_experiments::lower_bound_exp::{self, LowerBoundConfig};
use anonrv_graph::distance::distance;
use anonrv_graph::generators::{oriented_ring, qh_hat, qh_tree, z_set, Cardinal};
use anonrv_graph::symmetry::OrbitPartition;
use anonrv_sim::{
    drive_finite_state, AgentProgram, FiniteStateProgram, Navigator, Round, StepAction,
    StepDecision, Stic, Stop, TrajectoryCache,
};

#[test]
fn the_lower_bound_experiment_is_consistent_for_k_up_to_six() {
    let config = LowerBoundConfig { ks: vec![1, 2, 3, 4, 5, 6], ..LowerBoundConfig::default() };
    let records = lower_bound_exp::collect(&config);
    assert_eq!(records.len(), 6);
    for r in &records {
        assert!(r.consistent_with_theorem(), "{r:?}");
    }
    // exponential growth of the worst meeting time
    let worst: Vec<u128> = records.iter().map(|r| r.meeting_worst_time.unwrap()).collect();
    for pair in worst.windows(2) {
        assert!(pair[1] > pair[0]);
    }
    assert!(worst[5] >= 32, "k = 6 threshold is 32");
}

#[test]
fn q_hat_structure_matches_the_paper() {
    for h in [2usize, 3, 4] {
        let tree = qh_tree(h).unwrap();
        let hat = qh_hat(h).unwrap();
        let n = 1 + 4 * (3usize.pow(h as u32) - 1) / 2;
        assert_eq!(tree.graph.num_nodes(), n);
        assert_eq!(hat.graph.num_nodes(), n);
        assert_eq!(tree.num_leaves(), 4 * 3usize.pow(h as u32 - 1));
        assert!(hat.graph.is_regular());
        assert_eq!(hat.graph.max_degree(), 4);
        assert!(hat.graph.is_connected());
        assert!(OrbitPartition::compute(&hat.graph).is_fully_symmetric());
        // every edge carries opposite cardinal ports
        assert!(hat.graph.edges().all(|(_, pu, _, pv)| (pu + 2) % 4 == pv));
    }
}

#[test]
fn z_set_nodes_are_at_distance_d_from_the_root_and_pairwise_distinct() {
    for k in [1usize, 2] {
        let q = qh_hat(4 * k).unwrap();
        let z = z_set(&q, k).unwrap();
        assert_eq!(z.len(), 1 << k);
        let mut sorted = z.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), z.len(), "Z nodes must be distinct");
        for &v in &z {
            assert_eq!(distance(&q.graph, q.root, v), 2 * k, "k = {k}, v = {v}");
        }
    }
}

#[test]
fn oblivious_schedules_round_trip_between_letters_and_steps() {
    let schedule = ObliviousSchedule::meeting_sweep(2);
    let word: String = schedule.steps.iter().map(|s| s.letter()).collect();
    let parsed = ObliviousSchedule::parse(&word).unwrap();
    assert_eq!(parsed, schedule);
    assert_eq!(ObliviousStep::Stay.letter(), '.');
    assert_eq!(ObliviousStep::Go(Cardinal::W).letter(), 'W');
}

#[test]
fn schedules_with_stays_behave_identically_in_both_checkers() {
    let k = 1usize;
    let q = qh_hat(4 * k).unwrap();
    for word in ["..NNSS", "N.N.SS", ".E.W.N", "NNNN..", "NN..EE"] {
        let schedule = ObliviousSchedule::parse(word).unwrap();
        let explicit = check_schedule_explicit(&q, k, &schedule);
        let symbolic = check_schedule_symbolic(k, &schedule);
        assert_eq!(explicit.times, symbolic.times, "word {word}");
    }
}

/// A memoryless rotor: always leave by port 0.  On an oriented ring, port
/// 0 is the successor edge, so the agent's position at local round `t` is
/// `start + t (mod n)` — every rendezvous question about two rotors has a
/// closed-form answer, which is what makes the astronomical assertions
/// below predictions rather than replays.
struct Rotor;

impl FiniteStateProgram for Rotor {
    fn initial_state(&self) -> u64 {
        0
    }

    fn decide(&self, _state: u64, _degree: usize, _entry_port: Option<usize>) -> StepDecision {
        StepDecision { action: StepAction::Move(0), next: 0 }
    }
}

impl AgentProgram for Rotor {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        drive_finite_state(self, nav)
    }

    fn finite_state(&self) -> Option<&dyn FiniteStateProgram> {
        Some(self)
    }
}

/// Exact rendezvous at an astronomical horizon, pinned by closed form: on
/// an oriented ring-`n`, two rotors at `u` and `v` with delay δ keep the
/// constant separation `(v - u - δ) mod n`, so they meet **iff**
/// `δ ≡ v - u (mod n)` — at the exact global round the later agent
/// appears — and never otherwise.  The symbolic path must report those
/// exact rounds and exact move totals at `2^40`-scale horizons without
/// unrolling a single round, in exact agreement with a small-horizon
/// explicit control run shifted by the closed-form offset.
#[test]
fn astronomical_meeting_rounds_match_the_closed_form_on_a_ring() {
    let n = 8usize;
    let g = oriented_ring(n).unwrap();
    let program = Rotor;
    let big: Round = (1 << 40) + 16;
    let cache = TrajectoryCache::new(&g, &program, big);

    // small-horizon explicit control: δ = 3 ≡ v - u (mod 8) meets exactly
    // when the later agent appears
    let (u, v) = (0usize, 3usize);
    let small_delta: Round = 3;
    let small =
        TrajectoryCache::new(&g, &program, 64).simulate_capped(&Stic::new(u, v, small_delta), 64);
    let small_meet = small.meeting.expect("control run must meet");
    assert_eq!(small_meet.global_round, small_delta);

    // the astronomical delay keeps the same residue: 2^40 ≡ 0 (mod 8)
    let big_delta: Round = (1 << 40) + 3;
    let outcome = cache.simulate_capped(&Stic::new(u, v, big_delta), big);
    let meet = outcome.meeting.expect("aligned rotors must meet at the delay round");
    // closed form: the meeting is at the later agent's arrival round,
    // exactly — not a round later, not saturated to any cap
    assert_eq!(meet.global_round, big_delta);
    assert_eq!(meet.later_round, small_meet.later_round);
    assert_eq!(
        meet.node as Round,
        (u as Round + big_delta) % n as Round,
        "the meeting node is the rotor's closed-form position at the delay round"
    );
    // the rotor moves every round: the move totals at the two meetings
    // differ by exactly the delay difference
    assert_eq!(
        outcome.earlier_moves as u128,
        small.earlier_moves as u128 + (big_delta - small_delta)
    );
    assert_eq!(outcome.later_moves, small.later_moves);

    // misaligned residue: δ = 1 ≢ 3 (mod 8) — the separation is constant
    // and nonzero, so there is no meeting at *any* horizon; the outcome at
    // 2^40 must be exactly "unmet", with exact move totals
    let unmet = cache.simulate_capped(&Stic::new(u, v, 1), big);
    assert!(!unmet.met(), "misaligned rotors can never meet");
    let unmet_small =
        TrajectoryCache::new(&g, &program, 64).simulate_capped(&Stic::new(u, v, 1), 64);
    assert!(!unmet_small.met());
    assert_eq!(unmet.earlier_moves as u128, unmet_small.earlier_moves as u128 + (big - 64));
    assert_eq!(unmet.later_moves as u128, unmet_small.later_moves as u128 + (big - 64));

    // and none of it unrolled: every outcome above came from cycle algebra
    assert_eq!(cache.computed(), 0, "astronomical outcomes must not record explicit timelines");
    // both queried starts lie in the ring's one node orbit: one detection
    assert_eq!(cache.computed_symbolic(), 1, "only the queried starts' orbit is detected");
}

#[test]
fn no_schedule_of_length_below_the_threshold_meets_the_whole_family() {
    // Exhaustive over *all* words of length < 2^(k-1) for k = 3 (threshold 4)
    // over the alphabet {stay, N, E, S, W}: 1 + 5 + 25 + 125 = 156 schedules.
    // Theorem 4.1 says none of them can meet every STIC of the family.
    let k = 3usize;
    let threshold = 1usize << (k - 1);
    let alphabet = [
        ObliviousStep::Stay,
        ObliviousStep::Go(Cardinal::N),
        ObliviousStep::Go(Cardinal::E),
        ObliviousStep::Go(Cardinal::S),
        ObliviousStep::Go(Cardinal::W),
    ];
    let mut checked = 0usize;
    for len in 0..threshold {
        for code in 0..5usize.pow(len as u32) {
            let mut word = Vec::with_capacity(len);
            let mut rest = code;
            for _ in 0..len {
                word.push(alphabet[rest % 5]);
                rest /= 5;
            }
            let schedule = ObliviousSchedule::new(word);
            assert!(
                !check_schedule_symbolic(k, &schedule).met_all(),
                "a schedule of length {len} < {threshold} met the whole family: {schedule:?}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 156);
}
