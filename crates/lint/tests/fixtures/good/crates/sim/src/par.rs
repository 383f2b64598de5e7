//! Good: thread spawning is sanctioned in exactly this file — the
//! parallel executor (mirrors crates/sim/src/par.rs).

pub fn run_with_worker(work: &(dyn Fn() + Sync)) {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("ftgcs-worker-1".into())
            .spawn_scoped(scope, work)
            .expect("spawn worker");
        work();
    });
}
