//! Exact allocation ceilings on the counter fast path and the engine's
//! one-shot writes.
//!
//! A counting global allocator tallies the calling thread's allocations,
//! so the test harness's other threads stay out of the counts. The fixture
//! is the per-layer worker fixture of the repo benchmark: one site of two,
//! 64 counters with ample allowances, 64-op frames. Every count is taken
//! in steady state, after a warm-up has grown the worker's queues and the
//! WAL's record vector to their working size. What remains per op is the
//! object name each WAL `Write` record owns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use homeo_cluster::worker::{Outbox, SiteWorker};
use homeo_cluster::CounterMeta;
use homeo_lang::ObjId;
use homeo_protocol::{ReplicatedMode, WorkloadHints};
use homeo_runtime::SiteOp;
use homeo_sim::Timer;
use homeo_store::Engine;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread local without a destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const SITES: usize = 2;
const COUNTERS: usize = 64;
const AMPLE: i64 = 1_000_000_000;
const BATCH: usize = 64;

fn counter(i: usize) -> ObjId {
    ObjId::new(format!("stock[{i}]"))
}

/// A 64-op frame over the pool; `mixed` alternates orders and increments.
fn frame(pool: &[ObjId], salt: usize, mixed: bool) -> Vec<SiteOp> {
    (0..BATCH)
        .map(|i| {
            let obj = pool[(i * 7 + salt) % pool.len()].clone();
            if mixed && i % 2 == 1 {
                SiteOp::Increment { obj, amount: 1 }
            } else {
                SiteOp::Order {
                    obj,
                    amount: 1,
                    refill_to: Some(AMPLE),
                }
            }
        })
        .collect()
}

/// Allocations per op of `calls` submissions cycling through `frames`.
fn per_op(worker: &mut SiteWorker, frames: &[Vec<SiteOp>], calls: usize) -> f64 {
    let mut outbox: Outbox = Vec::new();
    let n = allocations(|| {
        for call in 0..calls {
            worker.submit_batch(frames[call % frames.len()].iter().cloned(), &mut outbox);
            let outcomes = worker.take_completed();
            assert!(outcomes.iter().all(|o| o.committed && !o.synchronized));
            assert!(outbox.is_empty());
        }
    });
    n as f64 / (calls * BATCH) as f64
}

#[test]
fn counter_ops_and_one_shot_writes_stay_within_their_allocation_ceilings() {
    let pool: Vec<ObjId> = (0..COUNTERS).map(counter).collect();

    // The counter fast path: orders, then orders mixed with increments.
    let engine = Arc::new(Engine::new());
    let mut worker = SiteWorker::new(
        0,
        SITES,
        ReplicatedMode::EvenSplit,
        WorkloadHints::uniform(SITES),
        Timer::fixed_zero(),
        engine.clone(),
    );
    for obj in &pool {
        engine.write_logged(obj.as_str(), AMPLE).unwrap();
        worker.install_counter(CounterMeta {
            obj: obj.clone(),
            base: AMPLE,
            lower_bound: 1,
            members: (0..SITES).collect(),
            allowances: vec![-(AMPLE / 2 - 1); SITES],
        });
    }
    for mixed in [false, true] {
        let frames: Vec<Vec<SiteOp>> = (0..8).map(|salt| frame(&pool, salt, mixed)).collect();
        // 400 frames log ≈ 77 k records: past the first checkpoint, so the
        // WAL's record vector is at its working size.
        per_op(&mut worker, &frames, 400);
        let measured = per_op(&mut worker, &frames, 200);
        assert!(
            measured <= 1.1,
            "counter fast path (mixed: {mixed}): {measured:.3} allocations per op"
        );
    }

    // The engine's one-shot writes on the same 64 objects.
    let engine = Engine::new();
    let names: Vec<&str> = pool.iter().map(ObjId::as_str).collect();
    let mut value = 0;
    let mut write_singles = |calls: usize| {
        allocations(|| {
            for i in 0..calls {
                value += 1;
                engine.write_logged(names[i % COUNTERS], value).unwrap();
            }
        })
    };
    // 22 k singles log 66 k records, so the first checkpoint (at 65 536)
    // lies behind the warm-up and the next (one per 21 846 writes) ahead of
    // the window; a checkpoint's copy of the image is not a per-call cost.
    write_singles(22_000);
    let before = engine.wal_len();
    let singles = write_singles(10_000) as f64 / 10_000.0;
    assert!(
        engine.wal_len() > before,
        "a checkpoint fell inside the window"
    );
    assert!(
        singles <= 1.0,
        "Engine::write_logged: {singles:.3} allocations per call"
    );

    let mut writes: Vec<(&str, i64)> = names.iter().map(|n| (*n, 0)).collect();
    let mut write_batches = |calls: usize| {
        allocations(|| {
            for _ in 0..calls {
                value += 1;
                for write in &mut writes {
                    write.1 = value;
                }
                engine.write_logged_batch(&writes).unwrap();
            }
        })
    };
    write_batches(200);
    let batched = write_batches(200) as f64 / (200 * COUNTERS) as f64;
    assert!(
        batched <= 1.01,
        "Engine::write_logged_batch: {batched:.4} allocations per write"
    );
}
