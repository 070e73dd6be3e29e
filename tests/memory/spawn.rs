//! What spawning a task costs on the heap.
//!
//! A run spawns 10⁵–10⁶ tasks, nearly all of them queue-pair engines. A
//! task's tag is a [`Component`] value, rendered only when a hash or a
//! report reads it, so a spawn allocates the boxed future, its wake entry
//! and — unless it is detached — the join handle's state, and nothing for
//! its name. A tag formatted into a string, or an anonymous task numbered
//! into one, would add an allocation to every spawn.

use rmr_des::{Component, Sim};

use super::heap;

/// Allocation calls `spawn` makes, on a sim whose task table already has a
/// free slot; the task then runs to completion.
fn spawn_calls(sim: &Sim, spawn: impl FnOnce(&Sim)) -> usize {
    let before = heap().calls;
    spawn(sim);
    let calls = heap().calls - before;
    sim.run();
    calls
}

#[test]
fn a_spawn_allocates_nothing_for_its_tag() {
    let sim = Sim::new(1);
    // Warm-up: the task table and the ready queue at their size.
    sim.spawn(async {}).detach();
    sim.run();

    let tagged = spawn_calls(&sim, |sim| {
        sim.spawn_named(Component::RdmaCopier { reduce: 7 }, async {})
            .detach()
    });
    let detached = spawn_calls(&sim, |sim| {
        sim.spawn_detached(Component::QpEngine, async {})
    });
    let anonymous = spawn_calls(&sim, |sim| sim.spawn(async {}).detach());
    // Join state, boxed future, wake entry; a detached task has no join
    // state.
    assert_eq!(
        (tagged, detached, anonymous),
        (3, 2, 3),
        "allocations of a tagged, a detached and an anonymous spawn"
    );
}
