//! Orbit-pair passes: one walk of two recordings answers every class of an
//! orbit pair.
//!
//! Take node orbits `A` and `B` with representatives `r_A` and `r_B`.  The
//! pair classes `(r_A, c)`, `c ∈ B`, all merge the same two recordings —
//! `r_A`'s as is, `r_B`'s read through `π_c⁻¹` (see [`NodeOrbits`]) — and
//! at one delay `δ` the sort-merge visits the same overlap windows in the
//! same order for every `c`: only the node test differs.  In the window
//! where `r_A`'s walk stands on `x` and `r_B`'s on `y`, class `c` meets iff
//! `π_c⁻¹(y) = x`.  Port-preserving automorphisms act freely, so exactly
//! one `c` qualifies when `x` and `y` share an orbit, `c = π_x⁻¹(π_y(r_B))`
//! ([`NodeOrbits::carry`]; `x ⊖ y` on a torus), and none does otherwise.
//! This is the symmetry behind the paper's Lemma 3.1 (agents at symmetric
//! nodes observe the same degrees and ports), carried from recording to
//! merging.
//!
//! One walk therefore hands every window to its one class, and the first
//! window a class receives is the window its own merge stops at: both
//! cursors stand where that merge's cursors stand, so the outcome is built
//! from them by the same code, bit for bit.  A class that receives no
//! window is unmet, with the totals every class of the pass shares.  A
//! pass keeps each class's first window as the two segment positions of
//! its cursors (8 bytes; the outcome is rebuilt on demand), so it holds
//! `|G|` slots, never a table, and it stops walking once every class met.
//!
//! A pass walks explicit timelines, or the alignment window of two symbolic
//! timelines in place after the delay reduction, under the
//! [`MERGE_SEG_CAP`](crate::MERGE_SEG_CAP) gate a symbolic merge applies
//! (see [`crate::symbolic`]): a window the gate refuses declines the whole
//! pass, and the caller resolves its classes per class (the planner with
//! one δ-sweep each, [`crate::TrajectoryCache::simulate_deltas_capped`]).

use anonrv_graph::NodeOrbits;

use crate::batch::{met, sweep_windows, unmet, SegCursor, Timeline};
use crate::engine::SimOutcome;
use crate::stic::Round;
use crate::symbolic::{delay_shift, search_window, unshift, SymbolicTimeline, Unroll};

/// The slot of a class that has not met (yet).
const UNHIT: u32 = u32::MAX;

/// One orbit-pair pass at one delay: the first overlap window each class
/// of the orbit pair received, and the outcome every unmet class shares
/// ([`crate::TrajectoryCache::orbit_pair_pass`] walks one).
pub struct OrbitPairPass<'a> {
    walked: Walked<'a>,
    /// The delay the walk ran at (reduced, on a symbolic walk).
    delay: Round,
    /// The horizon the outcomes report.
    horizon: Round,
    /// Per class, by the [`NodeOrbits::orbit_slot`] of its later node: the
    /// segment positions of both cursors at its first window, or `UNHIT`.
    hits: Box<[[u32; 2]]>,
    /// The outcome of every class that never met.
    unmet: SimOutcome,
    /// Overlap windows the walk visited.
    windows: u64,
}

/// The recordings a pass walked.
enum Walked<'a> {
    Explicit(&'a Timeline, &'a Timeline),
    /// Symbolic timelines, walked with the delay and horizon reduced by
    /// the given whole earlier-agent cycles.
    Symbolic(&'a SymbolicTimeline, &'a SymbolicTimeline, Round),
}

impl OrbitPairPass<'_> {
    /// The outcome of the class whose later node has orbit slot `slot`
    /// ([`NodeOrbits::orbit_slot`]), in the canonical world of its
    /// representative `(r_A, c)` — bit-identical to merging that
    /// representative on its own.
    pub fn outcome(&self, slot: usize) -> SimOutcome {
        let [e, l] = self.hits[slot];
        if e == UNHIT {
            return self.unmet;
        }
        let (e, l) = (e as usize, l as usize);
        match self.walked {
            Walked::Explicit(earlier, later) => {
                hit(earlier.cursor(e), later.cursor(l), self.delay, self.horizon)
            }
            Walked::Symbolic(earlier, later, shift) => {
                let probe = hit(
                    Unroll::at(earlier, e),
                    Unroll::at(later, l),
                    self.delay,
                    self.horizon - shift,
                );
                unshift(earlier, shift, probe, self.horizon)
            }
        }
    }

    /// Overlap windows the walk visited.
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

/// The met outcome of the window both cursors stand on.
fn hit(earlier: impl SegCursor, later: impl SegCursor, delay: Round, horizon: Round) -> SimOutcome {
    let at = earlier.start().max(later.start() + delay);
    met(earlier, later, delay, horizon, at)
}

/// Walk the windows of the recordings from `r_A` (`earlier`) and `r_B`
/// (`later`) up to `search_to`, giving each to the class that meets there
/// and keeping every class's first: returns the slots and the windows
/// visited.
fn first_hits<A: SegCursor, B: SegCursor>(
    mut earlier: A,
    mut later: B,
    orbits: &NodeOrbits,
    r_b: usize,
    delay: Round,
    search_to: Round,
) -> (Box<[[u32; 2]]>, u64) {
    let mut hits = vec![[UNHIT; 2]; orbits.group().order()].into_boxed_slice();
    let (mut open, mut windows) = (hits.len(), 0);
    sweep_windows(&mut earlier, &mut later, delay, search_to, |a, b| {
        windows += 1;
        let class = orbits.carry(b.node() as usize, a.node() as usize, r_b);
        if let Some(first) = class.map(|c| &mut hits[orbits.orbit_slot(c)]) {
            if first[0] == UNHIT {
                // positions fit: a timeline's index width is `u32`, and a
                // symbolic walk passes at most `MERGE_SEG_CAP` segments
                *first = [a.position() as u32, b.position() as u32];
                open -= 1;
            }
        }
        open == 0
    });
    (hits, windows)
}

/// The pass over two explicit timelines at `delay <= horizon`.
pub(crate) fn explicit<'a>(
    earlier: &'a Timeline,
    later: &'a Timeline,
    orbits: &NodeOrbits,
    r_b: usize,
    delay: Round,
    horizon: Round,
) -> OrbitPairPass<'a> {
    let (hits, windows) =
        first_hits(earlier.cursor(0), later.cursor(0), orbits, r_b, delay, horizon);
    let unmet = unmet(earlier.cursor(0), later.cursor(0), delay, horizon);
    OrbitPairPass { walked: Walked::Explicit(earlier, later), delay, horizon, hits, unmet, windows }
}

/// The pass over two symbolic timelines at `delay <= horizon`: the delay
/// reduction, then one walk of the alignment window, or `None` when the
/// window exceeds the segment cap.
pub(crate) fn symbolic<'a>(
    earlier: &'a SymbolicTimeline,
    later: &'a SymbolicTimeline,
    orbits: &NodeOrbits,
    r_b: usize,
    delay: Round,
    horizon: Round,
) -> Option<OrbitPairPass<'a>> {
    let shift = delay_shift(earlier, delay);
    let (delay, reduced) = (delay - shift, horizon - shift);
    let search_to = search_window(earlier, later, delay, reduced)?;
    let (hits, windows) =
        first_hits(Unroll::new(earlier), Unroll::new(later), orbits, r_b, delay, search_to);
    let unmet = unshift(
        earlier,
        shift,
        unmet(Unroll::new(earlier), Unroll::new(later), delay, reduced),
        horizon,
    );
    let walked = Walked::Symbolic(earlier, later, shift);
    Some(OrbitPairPass { walked, delay, horizon, hits, unmet, windows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TrajectoryCache;
    use crate::navigator::{AgentProgram, Navigator, Stop};
    use crate::stic::Stic;
    use crate::workload::SweepWalker;
    use anonrv_graph::generators::{oriented_torus, symmetric_double_tree};
    use anonrv_graph::{PortGraph, SymmetryGroup};
    use std::sync::Arc;

    /// Every class of every orbit pair reads the outcome its own merge
    /// gives, at unrolled and symbolic horizons and a reduced delay, for a
    /// cycling, a parking and a halting program.
    #[test]
    fn every_class_of_a_pass_reads_its_own_merge() {
        let torus = oriented_torus(3, 4).unwrap();
        let (tree, _) = symmetric_double_tree(2, 2).unwrap();
        let explicit = NodeOrbits::from_group(SymmetryGroup::explicit(&torus));
        let cases: [(&PortGraph, NodeOrbits); 3] = [
            (&torus, NodeOrbits::compute(&torus)),
            (&torus, explicit),
            (&tree, NodeOrbits::compute(&tree)),
        ];
        // moves through port (entry + 1) mod degree, waiting a round
        // between moves, until state `stop`; then parks or halts
        let program = |stop: u64, halts: bool| {
            move |nav: &mut dyn Navigator| -> Result<(), Stop> {
                for _ in 0..stop {
                    nav.move_via(nav.entry_port().map_or(0, |p| (p + 1) % nav.degree()))?;
                    nav.wait(1)?;
                }
                if halts {
                    return Ok(());
                }
                loop {
                    nav.wait(Round::MAX)?;
                }
            }
        };
        let (walker, park, halt) =
            (SweepWalker { seed: 0x5EED }, program(7, false), program(5, true));
        let programs: [&dyn AgentProgram; 3] = [&walker, &park, &halt];
        for (g, orbits) in cases {
            for program in programs {
                for horizon in [64 as Round, 1 << 40] {
                    let orbits = Arc::new(orbits.clone());
                    let cache = TrajectoryCache::with_orbits(g, program, horizon, orbits.clone());
                    for a in 0..orbits.num_orbits() {
                        for b in 0..orbits.num_orbits() {
                            for delta in [0, 1, 5, 1 << 30] {
                                let delta = delta.min(horizon);
                                let pass = cache.orbit_pair_pass(a, b, delta, horizon).unwrap();
                                let r_a = orbits.orbit_representative(a);
                                let r_b = orbits.orbit_representative(b);
                                for c in g.nodes().filter(|&c| orbits.representative(c) == r_b) {
                                    let stic = Stic::new(r_a, c, delta);
                                    let want = cache.simulate_capped(&stic, horizon);
                                    let got = pass.outcome(orbits.orbit_slot(c));
                                    assert_eq!(got, want, "{stic} at {horizon}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
