//! Scoped-thread parallel RPQ evaluation with a work-stealing scheduler.
//!
//! Full materialization ([`graphdb::eval_csr`]) answers from every source
//! node, and a source's answers do not depend on which other sources are
//! swept with it; nothing is shared between sweeps except the read-only
//! query automaton and CSR adjacency.  That makes the source range
//! embarrassingly parallel, but the seed's pool (fixed-size chunks off one
//! atomic cursor, merged into a `BTreeSet`) did not scale:
//! `parallel_breakdown` measured ~3× the sequential sweep work spread across
//! workers plus a ~250 ms single-threaded merge at |V|=2000.  This module is
//! the rebuilt read path (no external thread-pool crates exist in this
//! environment, so the pool is still hand-rolled on `std::thread::scope`):
//!
//! * **Degree-weighted chunks** — the source range is pre-split into chunks
//!   of roughly equal *frontier mass* (node count + out-degree sum, the
//!   cheap static proxy for sweep cost), so a hub-heavy span of a power-law
//!   graph becomes many small chunks instead of one fat one.  A chunk never
//!   holds fewer than [`graphdb::LANES`] sources (the last one excepted):
//!   the kernel sweeps that many per batch, and a narrower chunk would run
//!   its batches half empty — a small graph gets fewer chunks instead.
//! * **Work stealing** — each worker starts with a contiguous block of
//!   chunks in its own deque (preserving source locality) and pops from the
//!   front; a worker that runs dry steals from the *back* of a victim's
//!   deque.  Steal and chunk counts are reported per worker through
//!   [`WorkerTiming`].
//! * **Sorted runs, galloping merge** — the kernel emits a chunk's pairs
//!   already ordered by `(source, target)`, so a worker hands back one
//!   sorted run per chunk and never sorts.  The runs are disjoint by
//!   construction (every source belongs to exactly one chunk), so the final
//!   merge into the sorted-vector [`Answer`] ([`graphdb::SortedPairs`])
//!   compares run heads only and copies whole runs between them — no
//!   re-hashing, no tree insertion, one heap operation per run.
//!
//! The domain-compatibility check runs on the caller's thread (with the
//! caller's message) before any worker spawns, so a mismatch never surfaces
//! as a worker panic.
//!
//! There is one pool body, and one worker loop: `threads` spawned workers
//! claim chunks, or with one thread the caller's thread runs the loop on the
//! whole range as a single chunk.  (Running worker 0 on the caller's thread
//! beside spawned ones measured `materialize_dense` twice as slow on a
//! 2-core host.)  Every entry point hands the pool a budget — the
//! un-budgeted ones an unlimited one — and each chunk sweep passes that
//! budget to [`graphdb::eval_csr_sources_budgeted`], which alone decides
//! whether the sweep carries the checks.  A worker keeps one
//! [`LaneScratch`] for all its chunks: what one chunk explored of the
//! product graph the next does not explore again
//! ([`WorkerTiming::explored`]).
//!
//! The evaluator only ever *reads* its inputs (`CsrAdjacency`, `DenseNfa`),
//! both of which are `Send + Sync`, so it is callable from any thread —
//! including concurrently from several [`crate::EngineSnapshot`] readers,
//! each of which may itself fan out onto this pool.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use automata::DenseNfa;
use graphdb::{
    eval_csr_sources_budgeted, Answer, CsrAdjacency, LaneScratch, SweepBudget, SweepInterrupt,
    SweepState, LANES,
};
use telemetry::{ParallelBreakdown, WorkerTiming};

pub(crate) fn as_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Number of worker threads the hardware supports (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Chunks each worker's deque is seeded with.  Enough granularity that
/// stealing can rebalance a skewed tail, few enough that deque traffic is
/// negligible against even the smallest sweeps.
const CHUNKS_PER_WORKER: usize = 16;

/// Splits the source range into chunks of roughly equal frontier mass,
/// weighting node `v` as `1 + out_degree(v)`, but of at least [`LANES`]
/// sources each (a remainder excepted), so the kernel's batches run full.
/// Uniform graphs get uniform chunks; on a power-law graph a hub's span
/// shrinks toward that floor so no single chunk serializes the tail of the
/// pool.
fn weighted_chunks(csr: &CsrAdjacency, threads: usize) -> Vec<Range<u32>> {
    let num_nodes = csr.num_nodes() as u32;
    let total_weight = (csr.num_nodes() + csr.num_edges()) as u64;
    let target = (total_weight / (threads * CHUNKS_PER_WORKER) as u64).max(1);
    let mut chunks = Vec::with_capacity(threads * CHUNKS_PER_WORKER + 1);
    let (mut lo, mut weight) = (0u32, 0u64);
    for node in 0..num_nodes {
        weight += 1 + csr.out_degree(node) as u64;
        if weight >= target && (node + 1 - lo) as usize >= LANES {
            chunks.push(lo..node + 1);
            lo = node + 1;
            weight = 0;
        }
    }
    if lo < num_nodes {
        chunks.push(lo..num_nodes);
    }
    chunks
}

/// Per-worker chunk deques with back-stealing.
///
/// All chunks are placed before any worker starts and none are produced
/// during the run, so termination is trivial: a full scan finding every
/// deque empty means every chunk is owned by some worker already.
struct StealQueues {
    deques: Vec<Mutex<VecDeque<Range<u32>>>>,
}

impl StealQueues {
    /// Distributes `chunks` contiguously across `threads` deques, so each
    /// worker's initial block covers adjacent sources (cache locality) and
    /// steals take from the far end of a victim's block.
    fn new(chunks: Vec<Range<u32>>, threads: usize) -> Self {
        let per = chunks.len().div_ceil(threads).max(1);
        let mut deques: Vec<VecDeque<Range<u32>>> =
            (0..threads).map(|_| VecDeque::new()).collect();
        for (i, chunk) in chunks.into_iter().enumerate() {
            deques[(i / per).min(threads - 1)].push_back(chunk);
        }
        StealQueues {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The next chunk for `worker`: front of its own deque, else the back of
    /// the first non-empty victim.  Returns the chunk and whether it was
    /// stolen; `None` means the pool is drained.
    fn next(&self, worker: usize) -> Option<(Range<u32>, bool)> {
        let pop = |victim: usize, back: bool| {
            let mut deque = self.deques[victim].lock().unwrap_or_else(|e| e.into_inner());
            if back {
                deque.pop_back()
            } else {
                deque.pop_front()
            }
        };
        if let Some(chunk) = pop(worker, false) {
            return Some((chunk, false));
        }
        let n = self.deques.len();
        for hop in 1..n {
            if let Some(chunk) = pop((worker + hop) % n, true) {
                return Some((chunk, true));
            }
        }
        None
    }
}

/// What one worker hands back: one sorted run per chunk it swept, and its
/// timing.
type WorkerOutcome = (Result<Vec<Vec<(u32, u32)>>, SweepInterrupt>, WorkerTiming);

/// The worker loop: claims chunks from `queues` until they run dry or some
/// worker trips the budget, sweeping them all with one [`LaneScratch`].
fn run_worker(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    queues: &StealQueues,
    worker: usize,
    budget: &SweepBudget,
    progress: &SweepState,
) -> WorkerOutcome {
    let mut scratch = LaneScratch::new(csr, query);
    let mut runs: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut timing = WorkerTiming {
        worker: worker as u32,
        ..WorkerTiming::default()
    };
    let mut acquire = Duration::ZERO;
    let mut sweep = Duration::ZERO;
    let mut failed: Option<SweepInterrupt> = None;
    loop {
        // A trip in any worker stops the others at their next chunk
        // boundary.
        if let Some(why) = progress.interrupt() {
            failed = Some(why);
            break;
        }
        let acquire_start = Instant::now();
        let job = queues.next(worker);
        let sweep_start = Instant::now();
        acquire += sweep_start.duration_since(acquire_start);
        let Some((chunk, stolen)) = job else { break };
        timing.chunks += 1;
        timing.steals += stolen as u64;
        // A stolen chunk lies behind the worker's own, so each chunk is a
        // run of its own: sorted as the kernel emits it, never sorted here.
        let mut run = Vec::new();
        let swept =
            eval_csr_sources_budgeted(csr, query, chunk, &mut scratch, &mut run, budget, progress);
        sweep += sweep_start.elapsed();
        match swept {
            Ok(visited) => timing.visited += visited,
            Err(why) => {
                failed = Some(why);
                break;
            }
        }
        runs.push(run);
    }
    timing.explored = scratch.explored();
    timing.acquire_us = as_us(acquire);
    timing.sweep_us = as_us(sweep);
    match failed {
        Some(why) => (Err(why), timing),
        None => (Ok(runs), timing),
    }
}

/// The pool body behind every public entry point.
///
/// Always returns the breakdown — on interrupt the partial answers are
/// discarded but the per-worker counters (chunks, steals, visited, timings)
/// survive, so callers can report *where* the partial work happened.
fn run_pool(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    threads: usize,
    budget: &SweepBudget,
    progress: &SweepState,
) -> (Result<Answer, SweepInterrupt>, ParallelBreakdown) {
    let num_nodes = csr.num_nodes();
    let threads = threads.min(num_nodes.max(1)).max(1);
    // Validate on the caller's thread, with the caller-facing message,
    // before any worker spawns.
    csr.domain()
        .check_compatible(query.alphabet())
        .expect("query automaton must be over the database domain");

    // One worker sweeps the whole range as one chunk, on the caller's thread.
    let chunks = if threads <= 1 {
        std::iter::once(0..num_nodes as u32).collect()
    } else {
        weighted_chunks(csr, threads)
    };
    let queues = StealQueues::new(chunks, threads);
    let work = |worker| run_worker(csr, query, &queues, worker, budget, progress);
    let results: Vec<WorkerOutcome> = if threads <= 1 {
        vec![work(0)]
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> =
                (0..threads).map(|worker| scope.spawn(move || work(worker))).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("evaluation worker panicked"))
                .collect()
        })
    };

    let mut workers = Vec::with_capacity(results.len());
    let mut runs = Vec::new();
    let mut failed: Option<SweepInterrupt> = None;
    for (swept, timing) in results {
        workers.push(timing);
        match swept {
            Ok(chunk_runs) => runs.extend(chunk_runs),
            Err(why) => failed = failed.or(Some(why)),
        }
    }
    if let Some(why) = failed {
        let breakdown = ParallelBreakdown {
            workers,
            merge_us: 0,
        };
        return (Err(why), breakdown);
    }
    let merge_start = Instant::now();
    let answer = Answer::from_sorted_runs(runs);
    let breakdown = ParallelBreakdown {
        workers,
        merge_us: as_us(merge_start.elapsed()),
    };
    (Ok(answer), breakdown)
}

/// Evaluates `query` over `csr` with `threads` workers, sharding the source
/// range over the work-stealing pool, and reports per-worker attribution:
/// how each worker's wall time split between claiming chunks and sweeping,
/// how many chunks it processed and stole, plus the post-join k-way merge
/// cost.  Answer-identical to [`graphdb::eval_csr`] (a source's answers do
/// not depend on its chunk and workers only read shared state); `threads <=
/// 1` runs the same worker loop on the caller's thread without spawning.
/// Timing happens only at chunk boundaries (two `Instant` reads per chunk,
/// never per pop), so the breakdown costs nothing measurable.
pub fn eval_csr_parallel_breakdown(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    threads: usize,
) -> (Answer, ParallelBreakdown) {
    let (unlimited, progress) = (SweepBudget::unlimited(), SweepState::new());
    let (result, breakdown) = run_pool(csr, query, threads, &unlimited, &progress);
    (
        result.expect("unlimited sweeps cannot be interrupted"),
        breakdown,
    )
}

/// Budgeted variant of [`eval_csr_parallel_breakdown`]: every worker charges
/// its visits to the shared `progress`, and the first tripped limit makes all
/// workers stop at their next chunk boundary (or mid-chunk at the next
/// cooperative check).  On interrupt the partial answers are discarded.  The
/// breakdown is returned *alongside* the result — even on interrupt — so
/// callers see the per-worker work counts ([`WorkerTiming::visited`]: the
/// chunks a worker completed, exact, under any budget), not just the shared
/// aggregate.
pub fn eval_csr_parallel_budgeted_breakdown(
    csr: &CsrAdjacency,
    query: &DenseNfa,
    threads: usize,
    budget: &SweepBudget,
    progress: &SweepState,
) -> (Result<Answer, SweepInterrupt>, ParallelBreakdown) {
    run_pool(csr, query, threads, budget, progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::Alphabet;
    use graphdb::{eval_csr, power_law_graph, GraphDb, PowerLawGraphConfig};

    fn sample_db() -> GraphDb {
        let mut db = GraphDb::new(Alphabet::from_chars(['a', 'b', 'c']).unwrap());
        db.add_edge_named("n0", "a", "n1");
        db.add_edge_named("n1", "b", "n2");
        db.add_edge_named("n2", "a", "n1");
        db.add_edge_named("n1", "c", "n1");
        db.add_edge_named("n2", "c", "n3");
        db
    }

    fn dense(db: &GraphDb, src: &str) -> DenseNfa {
        let nfa = regexlang::thompson(&regexlang::parse(src).unwrap(), db.domain()).unwrap();
        DenseNfa::from_nfa(&nfa)
    }

    #[test]
    fn parallel_matches_sequential_on_small_graphs() {
        let db = sample_db();
        let csr = db.csr_out();
        for q in ["a·(b·a+c)*", "c*", "ε", "∅", "a+b·c?"] {
            let query = dense(&db, q);
            let seq = eval_csr(&csr, &query);
            for threads in [1, 2, 3, 8, 64] {
                let (parallel, _) = eval_csr_parallel_breakdown(&csr, &query, threads);
                assert_eq!(seq, parallel, "{q} x{threads}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_a_hubby_graph() {
        // Power-law degree skew is exactly what the degree-weighted chunks +
        // stealing are for; the answer must still be bit-identical.
        let db = power_law_graph(
            &Alphabet::from_chars(['a', 'b', 'c']).unwrap(),
            &PowerLawGraphConfig {
                num_nodes: 300,
                num_edges: 1200,
                label_exponent: 1.0,
            },
            17,
        );
        let csr = db.csr_out();
        for q in ["a·b", "(a+b)·c?", "c*·a"] {
            let query = dense(&db, q);
            let seq = eval_csr(&csr, &query);
            for threads in [2, 4, 7] {
                let (parallel, _) = eval_csr_parallel_breakdown(&csr, &query, threads);
                assert_eq!(seq, parallel, "{q} x{threads}");
            }
        }
    }

    #[test]
    fn zero_threads_degrades_to_sequential() {
        let db = sample_db();
        let csr = db.csr_out();
        let query = dense(&db, "a·b");
        assert_eq!(eval_csr(&csr, &query), eval_csr_parallel_breakdown(&csr, &query, 0).0);
    }

    #[test]
    fn empty_databases_are_handled() {
        let db = GraphDb::new(Alphabet::from_chars(['a']).unwrap());
        let csr = db.csr_out();
        let query = dense(&db, "a*");
        assert!(eval_csr_parallel_breakdown(&csr, &query, 4).0.is_empty());
    }

    #[test]
    fn weighted_chunks_cover_the_range_in_order() {
        let db = power_law_graph(
            &Alphabet::from_chars(['a']).unwrap(),
            &PowerLawGraphConfig {
                num_nodes: 500,
                num_edges: 3000,
                label_exponent: 0.0,
            },
            3,
        );
        let csr = db.csr_out();
        for threads in [1, 2, 4] {
            let chunks = weighted_chunks(&csr, threads);
            assert!(!chunks.is_empty());
            let mut expect = 0u32;
            for chunk in &chunks {
                assert_eq!(chunk.start, expect, "chunks must tile the range");
                assert!(chunk.end > chunk.start);
                expect = chunk.end;
            }
            assert_eq!(expect as usize, csr.num_nodes());
            // Full lane words: only the remainder may be narrower.
            let (_, whole) = chunks.split_last().expect("non-empty");
            assert!(whole.iter().all(|chunk| chunk.len() >= LANES), "{chunks:?}");
        }
    }

    #[test]
    fn breakdown_variant_is_answer_identical_and_attributes_workers() {
        let db = sample_db();
        let csr = db.csr_out();
        for q in ["a·(b·a+c)*", "c*", "a+b·c?"] {
            let query = dense(&db, q);
            let seq = eval_csr(&csr, &query);
            for threads in [1, 3] {
                let (answer, breakdown) = eval_csr_parallel_breakdown(&csr, &query, threads);
                assert_eq!(seq, answer, "{q} x{threads}");
                assert!(!breakdown.workers.is_empty());
                assert!(breakdown.workers.len() <= threads.max(1));
                assert!(breakdown.total_chunks() >= 1, "{q} x{threads}: no chunks claimed");
                // Every chunk is processed exactly once across the pool.
                if threads > 1 {
                    let placed = weighted_chunks(&csr, threads.min(csr.num_nodes())).len() as u64;
                    assert_eq!(breakdown.total_chunks(), placed, "{q} x{threads}");
                }
            }
        }
    }

    #[test]
    fn starved_workers_steal_from_their_neighbors() {
        // 2 nodes, 2 workers: each deque gets one single-source chunk (the
        // weighting can't split further), but 64 workers against 5 nodes
        // leaves most deques empty, so any work the empty-deque workers do
        // must show up as steals... unless the seeded workers drain
        // everything first.  Either way the counters must be consistent:
        // chunks processed ≥ chunks stolen, and the answer exact.
        let db = sample_db();
        let csr = db.csr_out();
        let query = dense(&db, "(a+b+c)*");
        let (answer, breakdown) = eval_csr_parallel_breakdown(&csr, &query, 64);
        assert_eq!(answer, eval_csr(&csr, &query));
        assert!(breakdown.total_chunks() >= breakdown.total_steals());
        let processed: u64 = breakdown.workers.iter().map(|w| w.chunks).sum();
        assert_eq!(processed, breakdown.total_chunks());
    }

    #[test]
    fn budgeted_breakdown_matches_and_reports_per_worker_work() {
        let db = sample_db();
        let csr = db.csr_out();
        let query = dense(&db, "a·(b·a+c)*");
        // A cap that cannot trip takes the checked sweeps; an unlimited
        // budget's check-free ones charge `progress` the same visits.
        let roomy = SweepBudget::unlimited().max_visited(u64::MAX);
        let progress = SweepState::new();
        let (result, breakdown) =
            eval_csr_parallel_budgeted_breakdown(&csr, &query, 4, &roomy, &progress);
        let answer = result.expect("a u64::MAX cap never interrupts");
        assert_eq!(answer, eval_csr(&csr, &query));
        // On success every pop is charged and attributed: the per-worker
        // counts sum to the shared aggregate exactly.
        assert_eq!(breakdown.total_visited(), progress.visited());
        assert!(progress.visited() > 0);

        let strict = SweepBudget {
            max_visited: Some(0),
            ..SweepBudget::unlimited()
        };
        let tripped = SweepState::new();
        let (result, breakdown) =
            eval_csr_parallel_budgeted_breakdown(&csr, &query, 4, &strict, &tripped);
        assert!(matches!(result.unwrap_err(), SweepInterrupt::VisitLimit));
        // The breakdown survives the interrupt (that is its point): worker
        // entries exist even though the answers were discarded.
        assert!(!breakdown.workers.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be over the database domain")]
    fn incompatible_alphabets_panic_on_the_caller_thread() {
        let db = sample_db();
        let other = GraphDb::new(Alphabet::from_chars(['x', 'y']).unwrap());
        let query = dense(&other, "x·y");
        let _ = eval_csr_parallel_breakdown(&db.csr_out(), &query, 4);
    }
}
