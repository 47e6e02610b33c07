//! Procedure `Explore(u, d, δ)` (Algorithm 2 of the paper).
//!
//! The agent standing at node `u` enumerates, in lexicographic order of the
//! corresponding port sequences, every walk of length `d` starting at `u`;
//! for each it traverses the walk, traverses it back (through the observed
//! entry ports in reverse), and waits `δ − d` rounds at `u`.  Every iteration
//! therefore costs exactly `d + δ` rounds, which is the accounting the proof
//! of Lemma 3.2 relies on.
//!
//! The enumeration itself is performed with the information available to the
//! agent only: the degrees observed along the current walk determine which
//! port sequence comes next (an odometer increment whose digit ranges are the
//! observed degrees; resetting a suffix to all-zero ports is always valid
//! because port `0` exists at every node).
//!
//! With `pad_iterations = Some(c)` the call lasts exactly `c · (d + δ)`
//! rounds regardless of the graph: the enumeration is truncated after `c`
//! walks (only possible when the caller's size guess underestimates the
//! graph, in which case the call's correctness is not relied upon anyway) and
//! padded with waiting when it finishes early.  `UniversalRV` uses
//! `c = (n − 1)^d` (the paper's worst-case walk count) to keep the two
//! agents' phase boundaries perfectly aligned even when a phase
//! underestimates the size of the graph; `SymmRV` run standalone uses no
//! padding and matches the paper's procedure literally.

use anonrv_sim::{Navigator, Round, Stop};

/// Execute Procedure `Explore(u, d, δ)` from the agent's current node.
///
/// Requirements (checked by debug assertions, guaranteed by the callers):
/// `d ≥ 1` and `δ ≥ d`.
///
/// Returns the number of walks actually enumerated.
pub fn explore(
    nav: &mut dyn Navigator,
    d: usize,
    delta: Round,
    pad_iterations: Option<u128>,
) -> Result<u128, Stop> {
    debug_assert!(d >= 1, "Explore requires d >= 1");
    debug_assert!(delta >= d as Round, "Explore requires δ >= d");
    let iteration_rounds = d as Round + delta;

    // current port sequence; starts at the lexicographically smallest valid
    // sequence (all zeros — port 0 exists at every node of a connected graph)
    let mut seq = vec![0usize; d];
    let mut entry_ports = vec![0usize; d];
    let mut degrees = vec![0usize; d];
    let mut iterations: u128 = 0;

    loop {
        // out
        for i in 0..d {
            degrees[i] = nav.degree();
            debug_assert!(seq[i] < degrees[i], "odometer produced an invalid port");
            entry_ports[i] = nav.move_via(seq[i])?;
        }
        // back
        for i in (0..d).rev() {
            nav.move_via(entry_ports[i])?;
        }
        // wait
        nav.wait(delta - d as Round)?;
        iterations += 1;

        // with a pad target, stop once it is reached so the call's duration
        // never exceeds the caller's worst-case accounting
        if pad_iterations.is_some_and(|target| iterations >= target) {
            break;
        }

        // odometer increment using the degrees observed on this traversal
        let mut advanced = false;
        for i in (0..d).rev() {
            if seq[i] + 1 < degrees[i] {
                seq[i] += 1;
                for s in seq.iter_mut().skip(i + 1) {
                    *s = 0;
                }
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }

    if let Some(target) = pad_iterations {
        if target > iterations {
            let missing = target - iterations;
            nav.wait(missing.saturating_mul(iteration_rounds))?;
        }
    }
    Ok(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonrv_graph::generators::{oriented_ring, oriented_torus, path, star};
    use anonrv_graph::traversal::count_walks_of_length;
    use anonrv_graph::PortGraph;
    use anonrv_sim::{AgentProgram, Timeline};

    fn run_explore(
        g: &PortGraph,
        start: usize,
        d: usize,
        delta: Round,
        pad: Option<u128>,
    ) -> (Timeline, u128) {
        let iterations = std::sync::Mutex::new(0u128);
        let program = |nav: &mut dyn Navigator| -> Result<(), Stop> {
            let it = explore(nav, d, delta, pad)?;
            *iterations.lock().unwrap() = it;
            Ok(())
        };
        let t = Timeline::record(g, &program as &dyn AgentProgram, start, Round::MAX);
        assert!(t.terminated());
        let it = *iterations.lock().unwrap();
        (t, it)
    }

    #[test]
    fn explore_enumerates_every_walk_exactly_once() {
        for (g, start) in [
            (oriented_ring(5).unwrap(), 0usize),
            (star(4).unwrap(), 0),
            (star(4).unwrap(), 1),
            (path(4).unwrap(), 1),
            (oriented_torus(3, 3).unwrap(), 4),
        ] {
            for d in 1..=3usize {
                let delta = (d + 2) as Round;
                let (_, iterations) = run_explore(&g, start, d, delta, None);
                assert_eq!(
                    iterations,
                    count_walks_of_length(&g, start, d),
                    "walk count mismatch (start {start}, d {d})"
                );
            }
        }
    }

    #[test]
    fn every_iteration_costs_d_plus_delta_rounds_and_ends_at_the_start() {
        let g = oriented_torus(3, 3).unwrap();
        let (d, delta) = (2usize, 5 as Round);
        let (t, iterations) = run_explore(&g, 0, d, delta, None);
        assert_eq!(t.finite_end(), iterations * (d as Round + delta) + 1);
        assert_eq!(t.seg_nodes().last(), Some(&0));
        // the agent only ever waits at the start node (where it then parks)
        for seg in t.segments() {
            if seg.end - seg.start > 1 {
                assert_eq!(seg.node, 0);
            }
        }
    }

    #[test]
    fn padding_fixes_the_total_duration() {
        let g = oriented_ring(6).unwrap(); // walks of length 2 from any node: 4
        let (d, delta) = (2usize, 3 as Round);
        let pad_to = 25u128; // the (n-1)^d bound for n = 6
        let (t, iterations) = run_explore(&g, 2, d, delta, Some(pad_to));
        assert_eq!(iterations, 4);
        assert_eq!(t.finite_end(), pad_to * (d as Round + delta) + 1);
    }

    #[test]
    fn padding_is_a_no_op_when_the_walk_count_reaches_the_target() {
        let g = star(3).unwrap();
        // from the center, walks of length 1: 3 == target
        let (t, iterations) = run_explore(&g, 0, 1, 2, Some(3));
        assert_eq!(iterations, 3);
        assert_eq!(t.finite_end(), 3 * 3 + 1);
    }

    #[test]
    fn lexicographic_order_is_respected() {
        // On the star's center with d = 1 the walks are port 0, 1, 2 in order;
        // verify through the positions visited at rounds 1, 4, 7 (each
        // iteration is d + δ = 3 rounds long).
        let g = star(3).unwrap();
        let (t, _) = run_explore(&g, 0, 1, 2, None);
        let position_at = |r: Round| t.segments().find(|s| r < s.end).map(|s| s.node);
        assert_eq!(position_at(1), Some(1));
        assert_eq!(position_at(4), Some(2));
        assert_eq!(position_at(7), Some(3));
    }
}
